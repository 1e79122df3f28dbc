//! Emit→parse round trips for [`JsonWriter`], and the FNV-1a vectors
//! the fingerprints rest on.

use vgprs_sim::{Fnv1a, JsonValue, JsonWriter, SimRng};

/// A random document, written through `w` and returned as the value
/// the parser must give back.
fn emit(rng: &mut SimRng, w: &mut JsonWriter, depth: u32) -> JsonValue {
    let scalar = if depth == 0 { 0 } else { 3 };
    match rng.range(0, 7 + scalar) {
        0 => {
            w.null();
            JsonValue::Null
        }
        1 => {
            let b = rng.chance(0.5);
            w.bool(b);
            JsonValue::Bool(b)
        }
        2 => {
            // Integers a JSON number (an f64) holds exactly.
            let n = rng.range(0, 1 << 53);
            w.u64(n);
            JsonValue::Number(n as f64)
        }
        3 => {
            // Anything wider travels as a hex string.
            let n = rng.next_u64() | 1 << 63;
            w.hex64(n);
            JsonValue::String(format!("{n:016x}"))
        }
        4 => {
            let x = (rng.uniform() - 0.5) * 10f64.powi(rng.range(0, 40) as i32 - 20);
            if rng.chance(0.5) {
                w.f64(x);
            } else {
                w.f64_short(x);
            }
            JsonValue::Number(x)
        }
        5 => {
            let places = rng.range(0, 7) as usize;
            let x = rng.uniform() * 1000.0;
            w.f64_fixed(x, places);
            JsonValue::Number(format!("{x:.places$}").parse().unwrap())
        }
        6 => {
            let s = text(rng);
            w.string(&s);
            JsonValue::String(s)
        }
        7 | 8 => {
            if rng.chance(0.5) {
                w.begin_array();
            } else {
                w.begin_inline_array();
            }
            let items = (0..rng.range(0, 4)).map(|_| emit(rng, w, depth - 1)).collect();
            w.end();
            JsonValue::Array(items)
        }
        _ => {
            if rng.chance(0.5) {
                w.begin_object();
            } else {
                w.begin_inline_object();
            }
            let members = (0..rng.range(0, 4))
                .map(|_| {
                    let key = text(rng);
                    w.key(&key);
                    (key, emit(rng, w, depth - 1))
                })
                .collect();
            w.end();
            JsonValue::Object(members)
        }
    }
}

/// A short string over an alphabet heavy in everything the writer must
/// escape: quotes, backslashes, every control character, plus
/// multi-byte scalars it must pass through.
fn text(rng: &mut SimRng) -> String {
    (0..rng.range(0, 8))
        .map(|_| match rng.range(0, 6) {
            0 => '"',
            1 => '\\',
            2 => char::from(rng.range(0, 0x20) as u8),
            3 => 'é',
            4 => '→',
            _ => char::from(rng.range(0x20, 0x7f) as u8),
        })
        .collect()
}

#[test]
fn seeded_documents_survive_emit_then_parse() {
    let mut rng = SimRng::new(42);
    for case in 0..500 {
        let mut w = JsonWriter::new();
        let expected = emit(&mut rng, &mut w, 4);
        let doc = w.finish();
        let parsed = JsonValue::parse(&doc).unwrap_or_else(|e| panic!("case {case}: {e}\n{doc}"));
        assert_eq!(parsed, expected, "case {case}:\n{doc}");
    }
}

#[test]
fn every_control_character_round_trips() {
    let all: String = (0u8..0x20).map(char::from).chain("\"\\/é".chars()).collect();
    let mut w = JsonWriter::new();
    w.begin_inline_object().key(&all).string(&all).end();
    let doc = w.finish();
    assert!(!doc.trim_end().chars().any(|c| c.is_control()), "raw control character:\n{doc}");
    let parsed = JsonValue::parse(&doc).expect("parses");
    assert_eq!(parsed, JsonValue::Object(vec![(all.clone(), JsonValue::String(all))]));
}

#[test]
fn non_finite_floats_become_null() {
    let mut w = JsonWriter::new();
    w.begin_inline_array();
    w.f64(f64::NAN).f64(f64::INFINITY).f64_short(f64::NEG_INFINITY).f64_fixed(f64::NAN, 2);
    w.end();
    assert_eq!(w.finish(), "[null, null, null, null]\n");
}

#[test]
fn layout_is_block_outside_inline_inside() {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("n").u64(3);
    w.key("empty").begin_array().end();
    w.key("rows").begin_array();
    w.begin_inline_object().key("shard").u64(0).key("frames").begin_array();
    w.begin_object().key("x").f64(1.0).end();
    w.end().end();
    w.end();
    w.key("fp").hex64(0xabc);
    w.end();
    assert_eq!(
        w.finish(),
        "{\n  \"n\": 3,\n  \"empty\": [],\n  \"rows\": [\n    {\"shard\": 0, \"frames\": [\n      \
         {\n        \"x\": 1.0\n      }\n    ]}\n  ],\n  \"fp\": \"0000000000000abc\"\n}\n"
    );
}

#[test]
fn fnv1a_matches_the_published_vectors() {
    assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    for (input, hash) in [("a", 0xaf63_dc4c_8601_ec8c_u64), ("foobar", 0x8594_4171_f739_67e8)] {
        let mut h = Fnv1a::new();
        h.write(input.as_bytes());
        assert_eq!(h.finish(), hash, "{input}");
    }
    let (mut typed, mut raw) = (Fnv1a::new(), Fnv1a::new());
    typed.write_u64(0x0102_0304_0506_0708);
    typed.write_f64(1.5);
    raw.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
    raw.write(&1.5f64.to_bits().to_le_bytes());
    assert_eq!(typed, raw, "typed writes are little-endian bytes");
}
