//! Node identity and behavior traits.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU32;

use crate::context::{Context, TimerToken};
use crate::interface::Interface;
use crate::listen::Tuning;

/// Identifies a node registered in a [`Network`](crate::Network).
///
/// Ids are dense indices handed out by
/// [`Network::add_node`](crate::Network::add_node); they are only meaningful
/// within the network that produced them. The index is held plus one, so
/// `Option<NodeId>` is four bytes: index `u32::MAX`, which would wrap to
/// the niche, is the one `add_node` refuses to issue.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId(NonZeroU32);

impl NodeId {
    /// The id of the node at `index`.
    ///
    /// # Panics
    ///
    /// Panics on `u32::MAX`, the index the niche takes.
    #[inline]
    pub(crate) fn new(index: u32) -> Self {
        let above = index.checked_add(1).and_then(NonZeroU32::new);
        NodeId(above.expect("a node index below u32::MAX"))
    }

    /// The raw index, for use as a map key or report label.
    #[inline]
    pub fn index(self) -> u32 {
        self.0.get() - 1
    }

    /// The index as a position in the network's per-node vectors.
    #[inline]
    pub(crate) fn slot(self) -> usize {
        self.index() as usize
    }
}

/// Hashes the index, as the id did before it had a niche: a table keyed
/// by node keeps its layout.
impl Hash for NodeId {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.index().hash(state);
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.index())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.index())
    }
}

/// Requirements on the message type carried by a [`Network`](crate::Network).
///
/// Protocol crates implement this for their PDU union. The [`label`]
/// is what appears in traces and ladder diagrams, so implementations should
/// return the protocol message name (e.g. `"MAP_Update_Location"`), not a
/// full debug dump.
///
/// [`label`]: Payload::label
pub trait Payload: Clone + fmt::Debug {
    /// Short, stable message name for traces and assertions.
    fn label(&self) -> String;

    /// Approximate size on the wire in bytes, used for bandwidth
    /// serialization delay. The default suits small signaling messages.
    fn wire_size(&self) -> usize {
        64
    }

    /// Whether this message should be recorded in the trace. Media payloads
    /// (e.g. RTP frames) typically override this to `false` so signaling
    /// ladders stay readable; statistics still count every delivery.
    fn traceable(&self) -> bool {
        true
    }

    /// Whether the message rides a reliable transport. Reliable messages
    /// are exempt from link *loss* (TCP/SS7 retransmission, abstracted);
    /// latency, jitter and bandwidth still apply. Media payloads override
    /// this to `false` — RTP rides UDP and really is dropped.
    fn reliable(&self) -> bool {
        true
    }

    /// Whether this is express traffic: a periodic bearer frame whose
    /// route was fixed by earlier signaling. Only express messages are
    /// cut through [pure relays](Node::pure_relay) without a queued
    /// event per hop; see [`Network::set_cut_through`](crate::Network::set_cut_through).
    /// Bearer traffic is normally not [traceable](Payload::traceable); an
    /// express message that is gets its trace entry when the chain runs,
    /// stamped with — but possibly ahead of — its arrival time.
    fn express(&self) -> bool {
        false
    }

    /// The key a [broadcast](Context::broadcast) of this message is
    /// addressed to — the identity a page names — or `None` for a
    /// message to all. A listener whose [`Node::tuning`] answers to
    /// other keys is skipped without being asked; see there.
    fn broadcast_key(&self) -> Option<u64> {
        None
    }
}

/// Behavior of a simulated network element.
///
/// A node reacts to delivered messages and expired timers through its
/// [`Context`], which is the only channel for side effects (sending,
/// scheduling, statistics). Nodes never touch the event queue directly,
/// which keeps execution deterministic.
pub trait Node<M: Payload> {
    /// Invoked once when the simulation starts running (before any message
    /// delivery). Use it to kick off initial procedures.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Invoked for every message delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, iface: Interface, msg: M);

    /// Invoked when a timer set through [`Context::set_timer`] expires
    /// (unless it was cancelled). `tag` is the caller-chosen discriminator.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, token: TimerToken, tag: u64) {
        let _ = (ctx, token, tag);
    }

    /// True if this node only *relays* [express](Payload::express)
    /// traffic: its handler for an express message looks the route up in
    /// tables that signaling maintains and forwards (or counts a drop),
    /// and neither the decision nor anything it stores depends on
    /// [`Context::now`] or on what else is queued. The network may then
    /// run that handler the moment the frame is sent, with `ctx.now()`
    /// set to the arrival time, instead of queueing an event for the hop.
    /// A node that owns a queue, a rate window or a clock the frame is
    /// measured against is a stop, not a relay, and keeps the default.
    /// Read once, when the node is added.
    fn pure_relay(&self) -> bool {
        false
    }

    /// Whether a [broadcast](Context::broadcast) from `from` concerns
    /// this listener. Returning `false` must be equivalent to receiving
    /// `msg` and doing nothing at all — no counter, no state change, no
    /// random draw — because the network then skips the callback. This
    /// is the only rule: [`tuning`](Node::tuning) lets the network skip
    /// the call, never the answer.
    fn hears(&self, from: NodeId, msg: &M) -> bool {
        let _ = (from, msg);
        true
    }

    /// What this listener answers to, so that a broadcast can skip it
    /// without calling [`hears`](Node::hears). `Some(t)` promises that
    /// `hears(t.to, msg)` is `false` for every `msg` whose
    /// [`broadcast_key`](Payload::broadcast_key) is `Some(k)` with `k`
    /// not in `t.keys`. A skip must prove exactly that: the network
    /// skips a listener only when the broadcast comes from `t.to`, has a
    /// key, and the key's hash matches neither key's hash; every other
    /// listener is asked. Debug builds check each skip against `hears`.
    ///
    /// Read when the node is added. A node that reports `None` then (the
    /// default) is a plain node: it is never read again, and every
    /// broadcast asks it. A listener's is read again after every
    /// callback and after [`Network::provision`](crate::Network::provision);
    /// [`Network::node_mut`](crate::Network::node_mut) forgets it until
    /// the next of those, and a later `None` has every broadcast ask.
    fn tuning(&self) -> Option<Tuning> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(4).to_string(), "n4");
        assert_eq!(format!("{:?}", NodeId::new(4)), "n4");
        assert_eq!(NodeId::new(4).index(), 4);
    }

    #[test]
    fn an_optional_node_id_is_four_bytes() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<Option<NodeId>>(), 4);
    }

    /// Index 0 is a node like any other, and the last index below the
    /// niche is one too; the id of `u32::MAX` is never made.
    #[test]
    fn the_niche_is_no_node() {
        assert_eq!(NodeId::new(0).index(), 0);
        assert_eq!(NodeId::new(u32::MAX - 1).index(), u32::MAX - 1);
        assert!(std::panic::catch_unwind(|| NodeId::new(u32::MAX)).is_err());
    }

    /// A table keyed by node sees the bare index, as before the niche.
    #[test]
    fn a_node_id_hashes_as_its_index() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let tables = BuildHasherDefault::<crate::IdHasher>::default();
        assert_eq!(tables.hash_one(NodeId::new(7)), tables.hash_one(7u32));
    }

    #[derive(Clone, Debug)]
    struct P;
    impl Payload for P {
        fn label(&self) -> String {
            "P".into()
        }
    }

    #[test]
    fn payload_defaults() {
        assert_eq!(P.wire_size(), 64);
        assert!(P.traceable());
        assert!(P.reliable());
        assert!(!P.express());
    }
}
