//! ASCII ladder-diagram rendering of a [`Trace`].
//!
//! This is how the reproduction *prints* the paper's Figures 4–6: each
//! participant is a vertical lane, each message an arrow between lanes,
//! annotated with the message name — the same visual language as the
//! figures themselves.

use std::fmt::Write as _;

use crate::node::NodeId;
use crate::trace::{Trace, TraceEntry};

/// Renders a [`Trace`] as an ASCII ladder.
///
/// # Examples
///
/// ```rust
/// use vgprs_sim::{LadderDiagram, Trace};
/// let trace = Trace::default();
/// let ladder = LadderDiagram::new(&trace);
/// let _text = ladder.render();
/// ```
#[derive(Debug)]
pub struct LadderDiagram<'a> {
    trace: &'a Trace,
}

/// Lane width in characters.
const LANE: usize = 14;
/// Width of the time column.
const TIME_PAD: usize = 12;

impl<'a> LadderDiagram<'a> {
    /// A ladder over every node that appears in the trace, in order of
    /// first appearance.
    pub fn new(trace: &'a Trace) -> Self {
        LadderDiagram { trace }
    }

    fn participant_order(&self) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for e in self.trace.entries() {
            let nodes: [Option<NodeId>; 2] = match e {
                TraceEntry::Message { from, to, .. } => [Some(*from), Some(*to)],
                TraceEntry::Note { node, .. } => [Some(*node), None],
            };
            for n in nodes.into_iter().flatten() {
                if !seen.contains(&n) {
                    seen.push(n);
                }
            }
        }
        seen
    }

    /// Produces the ladder as a multi-line string.
    pub fn render(&self) -> String {
        let parts = self.participant_order();
        if parts.is_empty() {
            return String::from("(empty trace)\n");
        }
        let mut out = String::new();

        // Header with node names centered over their lanes.
        out.push_str(&" ".repeat(TIME_PAD));
        for p in &parts {
            let name = self.trace.node_name(*p);
            let name = if name.len() > LANE {
                &name[..LANE]
            } else {
                name
            };
            let pad = LANE.saturating_sub(name.len());
            let left = pad / 2;
            let _ = write!(out, "{}{}{}", " ".repeat(left), name, " ".repeat(pad - left));
        }
        out.push('\n');

        let col = |p: &NodeId| -> Option<usize> {
            parts
                .iter()
                .position(|x| x == p)
                .map(|i| TIME_PAD + i * LANE + LANE / 2)
        };

        for e in self.trace.entries() {
            match e {
                TraceEntry::Message {
                    at,
                    from,
                    to,
                    iface,
                    label,
                    ..
                } => {
                    let (Some(cf), Some(ct)) = (col(from), col(to)) else {
                        continue;
                    };
                    let mut line = vec![b' '; TIME_PAD + parts.len() * LANE];
                    let ts = format!("{:>9}", at.to_string());
                    line[..ts.len().min(TIME_PAD)]
                        .copy_from_slice(&ts.as_bytes()[..ts.len().min(TIME_PAD)]);
                    // LANE rails
                    for p in &parts {
                        if let Some(c) = col(p) {
                            line[c] = b'|';
                        }
                    }
                    let (lo, hi) = if cf < ct { (cf, ct) } else { (ct, cf) };
                    for cell in line.iter_mut().take(hi).skip(lo + 1) {
                        *cell = b'-';
                    }
                    if cf < ct {
                        line[hi] = b'>';
                        line[lo] = b'|';
                    } else if ct < cf {
                        line[lo] = b'<';
                        line[hi] = b'|';
                    } else {
                        line[cf] = b'o'; // self-message
                    }
                    let mut text = String::from_utf8(line).expect("ascii");
                    let _ = write!(text, "  {label} [{iface}]");
                    out.push_str(&text);
                    out.push('\n');
                }
                TraceEntry::Note { at, node, text } => {
                    let name = self.trace.node_name(*node);
                    let _ = writeln!(out, "{:>9}  * {name}: {text}", at.to_string());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::Interface;
    use crate::time::SimTime;

    fn trace() -> Trace {
        let mut t = Trace::new();
        t.register_node("MS");
        t.register_node("BTS");
        t.register_node("BSC");
        t.record_message(
            SimTime::from_micros(1_000),
            NodeId(0),
            NodeId(1),
            Interface::Um,
            "Um_Setup".into(),
            String::new(),
        );
        t.record_message(
            SimTime::from_micros(2_000),
            NodeId(1),
            NodeId(2),
            Interface::Abis,
            "Abis_Setup".into(),
            String::new(),
        );
        t.record_message(
            SimTime::from_micros(3_000),
            NodeId(2),
            NodeId(0),
            Interface::A,
            "Back".into(),
            String::new(),
        );
        t.record_note(SimTime::from_micros(4_000), NodeId(2), "Step 2.1 done".into());
        t
    }

    #[test]
    fn renders_all_messages() {
        let t = trace();
        let out = LadderDiagram::new(&t).render();
        assert!(out.contains("Um_Setup [Um]"));
        assert!(out.contains("Abis_Setup [Abis]"));
        assert!(out.contains("Back [A]"));
        assert!(out.contains("Step 2.1 done"));
        assert!(out.contains("MS"));
        assert!(out.contains("BTS"));
    }

    #[test]
    fn arrow_direction() {
        let t = trace();
        let out = LadderDiagram::new(&t).render();
        let lines: Vec<&str> = out.lines().collect();
        // first message goes right (MS -> BTS), second right, third left
        assert!(lines[1].contains("->") || lines[1].contains('>'));
        assert!(lines[3].contains('<'));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let t = Trace::default();
        assert_eq!(LadderDiagram::new(&t).render(), "(empty trace)\n");
    }
}
