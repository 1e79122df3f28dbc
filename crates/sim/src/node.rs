//! Node identity and behavior traits.

use std::fmt;


use crate::context::{Context, TimerToken};
use crate::interface::Interface;

/// Identifies a node registered in a [`Network`](crate::Network).
///
/// Ids are dense indices handed out by
/// [`Network::add_node`](crate::Network::add_node); they are only meaningful
/// within the network that produced them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index, for use as a map key or report label.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
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
    /// random draw — because the network then skips the callback.
    fn hears(&self, from: NodeId, msg: &M) -> bool {
        let _ = (from, msg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(format!("{:?}", NodeId(4)), "n4");
        assert_eq!(NodeId(4).index(), 4);
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
