//! Message-flow recording.
//!
//! Every delivered message (and every [`Context::note`](crate::Context::note))
//! is appended to the network's [`Trace`]. Tests assert exact sequences
//! against the paper's figures and the ladder renderer prints them.

use crate::interface::Interface;
use crate::node::NodeId;
use crate::time::SimTime;

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEntry {
    /// A message delivered from one node to another.
    Message {
        /// Delivery time.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Reference point the message crossed.
        iface: Interface,
        /// The message's [`Payload::label`](crate::Payload::label).
        label: String,
        /// The message's full `Debug` rendering — lets tests scan for
        /// sensitive content (e.g. "no IMSI on this interface").
        detail: String,
    },
    /// A free-text annotation emitted by a node.
    Note {
        /// Annotation time.
        at: SimTime,
        /// Node that emitted the note.
        node: NodeId,
        /// Annotation text.
        text: String,
    },
}

impl TraceEntry {
    /// The time of this entry.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEntry::Message { at, .. } | TraceEntry::Note { at, .. } => *at,
        }
    }

    /// The message label, if this entry is a message.
    pub fn label(&self) -> Option<&str> {
        match self {
            TraceEntry::Message { label, .. } => Some(label),
            TraceEntry::Note { .. } => None,
        }
    }

    /// The message's full debug rendering, if this entry is a message.
    pub fn detail(&self) -> Option<&str> {
        match self {
            TraceEntry::Message { detail, .. } => Some(detail),
            TraceEntry::Note { .. } => None,
        }
    }
}

/// The ordered record of everything delivered during a run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    names: Vec<String>,
}

impl Trace {
    pub(crate) fn new() -> Self {
        Trace::default()
    }

    pub(crate) fn register_node(&mut self, name: &str) {
        self.names.push(name.to_owned());
    }

    pub(crate) fn record_message(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        iface: Interface,
        label: String,
        detail: String,
    ) {
        self.entries.push(TraceEntry::Message {
            at,
            from,
            to,
            iface,
            label,
            detail,
        });
    }

    pub(crate) fn record_note(&mut self, at: SimTime, node: NodeId, text: String) {
        self.entries.push(TraceEntry::Note { at, node, text });
    }

    /// The registered display name of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not created by the owning network.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.0 as usize]
    }

    /// All entries in delivery order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Messages only (notes skipped), in order.
    pub fn messages(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e, TraceEntry::Message { .. }))
    }

    /// The ordered list of message labels — the shape tests compare against
    /// the paper's figures.
    pub fn labels(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter_map(|e| e.label())
            .collect()
    }

    /// Ordered (label, interface) pairs for messages.
    pub fn labeled_interfaces(&self) -> Vec<(&str, Interface)> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                TraceEntry::Message { label, iface, .. } => Some((label.as_str(), *iface)),
                TraceEntry::Note { .. } => None,
            })
            .collect()
    }

    /// True if the trace contains `wanted` as a (not necessarily
    /// contiguous) subsequence of message labels. This is the primary
    /// figure-reproduction assertion: the paper's ladder lists the key
    /// messages; the simulation may interleave others (auth, ciphering)
    /// between them.
    pub fn contains_subsequence(&self, wanted: &[&str]) -> bool {
        let mut it = wanted.iter();
        let mut next = it.next();
        for e in &self.entries {
            if let (Some(w), Some(l)) = (next, e.label()) {
                if *w == l {
                    next = it.next();
                }
            }
            if next.is_none() {
                return true;
            }
        }
        next.is_none()
    }

    /// Index of the first message with the given label at or after `start`,
    /// if any.
    pub fn find_label(&self, label: &str, start: usize) -> Option<usize> {
        self.entries[start.min(self.entries.len())..]
            .iter()
            .position(|e| e.label() == Some(label))
            .map(|i| i + start)
    }

    /// Count of messages whose label equals `label`.
    pub fn count_label(&self, label: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.label() == Some(label))
            .count()
    }

    /// True if any message on `iface` contains `needle` in its full
    /// debug rendering — the structural confidentiality check.
    pub fn any_on_interface_contains(&self, iface: Interface, needle: &str) -> bool {
        self.entries.iter().any(|e| match e {
            TraceEntry::Message {
                iface: i, detail, ..
            } => *i == iface && detail.contains(needle),
            TraceEntry::Note { .. } => false,
        })
    }

    /// Count of messages that crossed `iface`.
    pub fn count_interface(&self, iface: Interface) -> usize {
        self.entries
            .iter()
            .filter(|e| matches!(e, TraceEntry::Message { iface: i, .. } if *i == iface))
            .count()
    }

    /// Clears all recorded entries (node names are kept). Scenarios use
    /// this to trace one procedure at a time.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.register_node("ms");
        t.register_node("bts");
        t.record_message(
            SimTime::from_micros(1),
            NodeId(0),
            NodeId(1),
            Interface::Um,
            "A".into(),
            "A-detail".into(),
        );
        t.record_note(SimTime::from_micros(2), NodeId(1), "step".into());
        t.record_message(
            SimTime::from_micros(3),
            NodeId(1),
            NodeId(0),
            Interface::Um,
            "B".into(),
            "B-detail".into(),
        );
        t.record_message(
            SimTime::from_micros(4),
            NodeId(0),
            NodeId(1),
            Interface::Um,
            "A".into(),
            "A-detail imsi=123".into(),
        );
        t
    }

    #[test]
    fn labels_skip_notes() {
        assert_eq!(sample().labels(), vec!["A", "B", "A"]);
    }

    #[test]
    fn subsequence_matching() {
        let t = sample();
        assert!(t.contains_subsequence(&["A", "B"]));
        assert!(t.contains_subsequence(&["A", "A"]));
        assert!(t.contains_subsequence(&["B", "A"]));
        assert!(!t.contains_subsequence(&["B", "B"]));
        assert!(t.contains_subsequence(&[]));
    }

    #[test]
    fn counting() {
        let t = sample();
        assert_eq!(t.count_label("A"), 2);
        assert_eq!(t.count_label("Z"), 0);
        assert_eq!(t.count_interface(Interface::Um), 3);
        assert_eq!(t.count_interface(Interface::A), 0);
    }

    #[test]
    fn find_and_times() {
        let t = sample();
        assert_eq!(t.find_label("A", 0), Some(0));
        assert_eq!(t.find_label("A", 1), Some(3));
        assert_eq!(t.find_label("A", 4), None);
    }

    #[test]
    fn detail_scanning() {
        let t = sample();
        assert!(t.any_on_interface_contains(Interface::Um, "imsi=123"));
        assert!(!t.any_on_interface_contains(Interface::Um, "imsi=999"));
        assert!(!t.any_on_interface_contains(Interface::A, "imsi=123"));
    }

    #[test]
    fn clear_keeps_names() {
        let mut t = sample();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.node_name(NodeId(0)), "ms");
    }
}
