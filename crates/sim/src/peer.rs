//! The one test double for the far end of a link.
//!
//! A node's unit test plays one step of a ladder: a peer sends a scripted
//! message, answers what comes back, and records what it heard. That peer
//! is [`ScriptedPeer`], so a test writes a script and a rule, not a node.

use crate::context::{Context, TimerToken};
use crate::interface::Interface;
use crate::net::Network;
use crate::node::{Node, NodeId, Payload};
use crate::time::SimDuration;

/// What a peer answers to a message it hears.
type Rule<M> = Box<dyn FnMut(&M) -> Vec<M> + Send>;

/// A [`Node`] that plays a script, answers by a rule and logs what it hears.
///
/// - **Script.** Each message goes to the target at its own delay from the
///   peer's start: when the network starts, or when the peer is added to a
///   running network. A zero delay sends from [`Node::on_start`] itself;
///   messages due at one instant leave in script order.
/// - **Rule.** Every message heard is passed to the rule, and what it
///   returns goes back to that message's sender, in order.
/// - **Log.** Every message heard is kept as `(from, iface, msg)`, in
///   arrival order.
///
/// ```
/// use vgprs_sim::{Interface, Network, Payload, ScriptedPeer, SimDuration};
///
/// #[derive(Clone, Debug, PartialEq)]
/// struct Ping(u32);
/// impl Payload for Ping {
///     fn label(&self) -> String {
///         format!("Ping{}", self.0)
///     }
/// }
///
/// let mut net = Network::new(1);
/// let echo = net.add_node("echo", ScriptedPeer::new().answering(|p: &Ping| vec![Ping(p.0 + 1)]));
/// let caller = net.add_node("caller", ScriptedPeer::sending(echo, [Ping(1)]));
/// net.connect(caller, echo, Interface::Lan, SimDuration::from_millis(5));
/// net.run_until_quiescent();
/// assert_eq!(ScriptedPeer::of(&net, caller).labels(), ["Ping2"]);
/// ```
pub struct ScriptedPeer<M: Payload> {
    target: Option<NodeId>,
    script: Vec<(SimDuration, M)>,
    rule: Option<Rule<M>>,
    log: Vec<(NodeId, Interface, M)>,
}

impl<M: Payload> Default for ScriptedPeer<M> {
    fn default() -> Self {
        ScriptedPeer {
            target: None,
            script: Vec::new(),
            rule: None,
            log: Vec::new(),
        }
    }
}

impl<M: Payload + 'static> ScriptedPeer<M> {
    /// A peer with no target, no script and no rule: it only logs.
    pub fn new() -> Self {
        Self::default()
    }

    /// A peer that sends `script` to `target` the moment it starts.
    pub fn sending(target: NodeId, script: impl IntoIterator<Item = M>) -> Self {
        let mut peer = Self::new();
        peer.target = Some(target);
        peer.script = script.into_iter().map(|m| (SimDuration::ZERO, m)).collect();
        peer
    }

    /// Adds `msg` to the script, to leave `delay` after the peer starts.
    pub fn at(mut self, delay: SimDuration, msg: M) -> Self {
        self.script.push((delay, msg));
        self
    }

    /// Answers every message heard with what `rule` returns for it.
    pub fn answering(mut self, rule: impl FnMut(&M) -> Vec<M> + Send + 'static) -> Self {
        self.rule = Some(Box::new(rule));
        self
    }

    /// Sets where the script goes, for a peer built before its target.
    pub fn set_target(&mut self, target: NodeId) {
        self.target = Some(target);
    }

    /// The peer `id` of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a `ScriptedPeer<M>`.
    pub fn of(net: &Network<M>, id: NodeId) -> &Self {
        net.node::<Self>(id)
            .unwrap_or_else(|| panic!("{} is not a ScriptedPeer", net.node_name(id)))
    }

    /// Everything heard, as `(from, iface, msg)` in arrival order.
    pub fn log(&self) -> &[(NodeId, Interface, M)] {
        &self.log
    }

    /// The messages heard, in arrival order.
    pub fn received(&self) -> Vec<&M> {
        self.log.iter().map(|(_, _, m)| m).collect()
    }

    /// The [labels](Payload::label) of the messages heard, in arrival order.
    pub fn labels(&self) -> Vec<String> {
        self.log.iter().map(|(_, _, m)| m.label()).collect()
    }

    fn send(&self, ctx: &mut Context<'_, M>, msg: M) {
        let target = self
            .target
            .expect("a ScriptedPeer with a script needs a target");
        ctx.send(target, msg);
    }
}

impl<M: Payload + 'static> Node<M> for ScriptedPeer<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        for (at, (delay, msg)) in self.script.iter().enumerate() {
            if *delay == SimDuration::ZERO {
                self.send(ctx, msg.clone());
            } else {
                ctx.set_timer(*delay, at as u64);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, _token: TimerToken, tag: u64) {
        let msg = self.script[tag as usize].1.clone();
        self.send(ctx, msg);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, iface: Interface, msg: M) {
        if let Some(rule) = &mut self.rule {
            for reply in rule(&msg) {
                ctx.send(from, reply);
            }
        }
        self.log.push((from, iface, msg));
    }
}
