//! Serialises `vgprs_sim::JsonValue` trees. The repository's parser has
//! no writer, so the benchmark builds a value tree and writes it here;
//! whatever this emits, `JsonValue::parse` reads back unchanged.

use vgprs_sim::JsonValue;

pub fn num(x: f64) -> JsonValue {
    JsonValue::Number(x)
}

pub fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

/// A 64-bit fingerprint as 16 hex digits: it does not fit an f64.
pub fn hex(x: u64) -> JsonValue {
    JsonValue::String(format!("{x:016x}"))
}

pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// One line, no spaces after separators.
pub fn to_string(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `Display` for f64 is the shortest text that parses back to
        // the same bits, and never uses an exponent.
        JsonValue::Number(x) if x.is_finite() => out.push_str(&x.to_string()),
        JsonValue::Number(_) => out.push_str("null"),
        JsonValue::String(s) => write_string(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(member, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_values_parse_back_unchanged() {
        let value = obj([
            ("correct", JsonValue::Bool(true)),
            ("attempted", num(17.0)),
            ("small", num(0.000_000_123_4)),
            ("large", num(2_938_313.0)),
            ("fingerprint", hex(0x6336_377a_4cc7_acba)),
            ("quoted \"key\"", text("tab\there\nline\\")),
            ("list", JsonValue::Array(vec![num(1.5), JsonValue::Null])),
        ]);
        let line = to_string(&value);
        assert!(!line.contains('\n'));
        assert_eq!(JsonValue::parse(&line).expect("own output parses"), value);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(to_string(&num(f64::NAN)), "null");
    }
}
