//! The simulated network: nodes, links, and the execution loop.

use std::any::Any;
use std::sync::LazyLock;

use crate::context::{Context, Effect};
use crate::event::{EventKind, EventQueue, Kernel};
use crate::interface::Interface;
use crate::link::{Link, LinkConfig, LinkQuality};
use crate::node::{Node, NodeId, Payload};
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerTable;
use crate::trace::Trace;

/// Object-safe shim adding downcast support to every [`Node`].
trait AnyNode<M: Payload>: Node<M> {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M: Payload, T: Node<M> + 'static> AnyNode<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Longest run of inline relay hops under one queued event. Real media
/// paths cross five or six relays; a forwarding loop between relays
/// would otherwise recurse until its TTL (or the stack) ran out, so past
/// this depth the next hop is queued like any other delivery.
const MAX_CHAIN_DEPTH: u32 = 16;

const IFACES: usize = Interface::ALL.len();

/// One end of a link, as the node that owns it sees it.
#[derive(Clone, Copy)]
struct Port {
    peer: u32,
    /// Index into `Network::classes`, shifted left by one; the low bit
    /// is set when the owner is the link's `a` end.
    class_dir: u32,
}

impl Port {
    const NONE: Port = Port {
        peer: u32::MAX,
        class_dir: 0,
    };
}

/// A node's ports. Most nodes are leaves with one or two links and keep
/// them inline; a hub spills the rest into one vector.
struct Ports {
    inline: [Port; 2],
    spill: Vec<Port>,
}

impl Ports {
    const EMPTY: Ports = Ports {
        inline: [Port::NONE; 2],
        spill: Vec::new(),
    };

    /// The port toward `peer`. A vacant inline port matches no node.
    #[inline]
    fn toward(&self, peer: NodeId) -> Option<&Port> {
        self.inline
            .iter()
            .chain(&self.spill)
            .find(|p| p.peer == peer.0)
    }

    fn toward_mut(&mut self, peer: NodeId) -> Option<&mut Port> {
        self.inline
            .iter_mut()
            .chain(&mut self.spill)
            .find(|p| p.peer == peer.0)
    }

    fn push(&mut self, port: Port) {
        match self.inline.iter_mut().find(|p| p.peer == Port::NONE.peer) {
            Some(vacant) => *vacant = port,
            None => self.spill.push(port),
        }
    }

    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let linked = self.inline.iter().chain(&self.spill);
        linked
            .filter(|p| p.peer != Port::NONE.peer)
            .map(|p| NodeId(p.peer))
    }
}

/// The per-interface census counter names, `[queued, relayed]` in
/// [`Interface::ALL`] order, built once so flushing never formats.
static CENSUS_KEYS: LazyLock<Vec<[String; 2]>> = LazyLock::new(|| {
    Interface::ALL
        .iter()
        .map(|i| [format!("sim.delivered.{i}"), format!("sim.relayed.{i}")])
        .collect()
});

/// The [`Stats`] counters holding the delivery census of `iface`:
/// messages a queued event handed to a node (`sim.delivered.<iface>`),
/// and express messages cut through a pure relay without one
/// (`sim.relayed.<iface>`).
pub fn census_counters(iface: Interface) -> [&'static str; 2] {
    let [queued, relayed] = &CENSUS_KEYS[iface.index()];
    [queued, relayed]
}

/// Result of an execution call such as
/// [`Network::run_until_quiescent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of events processed by this call.
    pub events: u64,
    /// Simulated time when the call returned.
    pub at: SimTime,
    /// True if the queue drained; false if the event cap stopped the run.
    pub quiescent: bool,
}

/// A deterministic simulated network of [`Node`]s.
///
/// See the [crate-level documentation](crate) for a worked example.
pub struct Network<M: Payload> {
    now: SimTime,
    nodes: Vec<Option<Box<dyn AnyNode<M>>>>,
    /// [`Node::pure_relay`] of every node, read when it was added.
    relays: Vec<bool>,
    /// Every node's ports, indexed like `nodes`: a link is one port at
    /// each end. Scanned once per message send, from the end with fewer.
    ports: Vec<Ports>,
    /// The distinct link configurations, interned by equality: a world of
    /// thousands of links has about a dozen, and a send reads one.
    classes: Vec<LinkConfig>,
    queue: EventQueue<M>,
    rng: SimRng,
    stats: Stats,
    trace: Trace,
    timers: TimerTable,
    started: bool,
    max_events: u64,
    trace_details: bool,
    trace_capture: bool,
    cut_through: bool,
    /// Inline relay hops currently nested under the queued event being
    /// processed.
    chain_depth: u32,
    /// Drained effect buffers, one per dispatch nesting level ever
    /// reached, so steady-state callbacks — queued or inline — do not
    /// allocate an effects vector.
    fx_pool: Vec<Vec<Effect<M>>>,
    // Kernel counters, batched per run call instead of a name lookup per
    // event; flushed into `stats` by `flush_counts`. Deliveries are
    // split by interface into queued events and inline relay hops.
    k_delivered: [u64; IFACES],
    k_relayed: [u64; IFACES],
    k_fired: u64,
    k_cancelled: u64,
    k_lost: u64,
    /// Something was counted since the last flush. Most `run_until` calls
    /// of a population run find an idle shard and have nothing to flush.
    k_dirty: bool,
}

impl<M: Payload> Network<M> {
    /// Creates an empty network seeded with `seed`. Identical seeds and
    /// identical scenario code produce identical traces.
    ///
    /// Runs on the default timer-wheel kernel; see
    /// [`with_kernel`](Network::with_kernel) to pick explicitly.
    pub fn new(seed: u64) -> Self {
        Self::with_kernel(seed, Kernel::default())
    }

    /// Creates an empty network on an explicit event [`Kernel`]. Both
    /// kernels produce bit-identical schedules; the heap survives as the
    /// differential oracle the wheel is validated against.
    pub fn with_kernel(seed: u64, kernel: Kernel) -> Self {
        Network {
            now: SimTime::ZERO,
            nodes: Vec::new(),
            relays: Vec::new(),
            ports: Vec::new(),
            classes: Vec::new(),
            queue: EventQueue::new(kernel),
            rng: SimRng::new(seed),
            stats: Stats::new(),
            trace: Trace::new(),
            timers: TimerTable::new(),
            started: false,
            max_events: 50_000_000,
            trace_details: true,
            trace_capture: true,
            cut_through: true,
            chain_depth: 0,
            fx_pool: Vec::new(),
            k_delivered: [0; IFACES],
            k_relayed: [0; IFACES],
            k_fired: 0,
            k_cancelled: 0,
            k_lost: 0,
            k_dirty: false,
        }
    }

    /// The event kernel this network runs on.
    pub fn kernel(&self) -> Kernel {
        self.queue.kernel()
    }

    /// Disables per-message `Debug` detail capture in the trace (labels
    /// are always recorded). Load sweeps that never scan message
    /// contents turn this off to avoid formatting every delivery.
    pub fn set_trace_details(&mut self, enabled: bool) {
        self.trace_details = enabled;
    }

    /// Disables trace capture entirely — no labels, no notes. Node names
    /// stay registered so diagnostics still resolve ids. Population-scale
    /// runs keep every shard's network alive for the whole busy hour, so
    /// even label-only capture would grow without bound; they turn the
    /// trace off and rely on [`Stats`] instead.
    pub fn set_trace_capture(&mut self, enabled: bool) {
        self.trace_capture = enabled;
    }

    /// Switches media cut-through (on by default). With it on, an
    /// [express](Payload::express) message sent to a
    /// [pure relay](Node::pure_relay) is not queued: the link is sampled
    /// as usual and the relay's `on_message` runs at once with
    /// [`Context::now`] set to the arrival time, its own effects applied
    /// from that time base — sends leave at the arrival time, timers
    /// count from it, cancellations take hold immediately. The frame
    /// reaches the next real stop at exactly the time, and after exactly
    /// the loss draws in hop order, of the hop-by-hop model; what changes
    /// is *when* a relay's tables are read: as the frame enters the chain
    /// rather than at each passage, so only frames in flight across a
    /// change of their own route can fare differently.
    ///
    /// Off, every hop is a queued event: the hop-by-hop model, kept as
    /// the oracle cut-through is tested against.
    pub fn set_cut_through(&mut self, enabled: bool) {
        self.cut_through = enabled;
    }

    /// Caps the number of events a single run call may process (a runaway
    /// guard; the default is fifty million).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn set_max_events(&mut self, cap: u64) {
        assert!(cap > 0, "event cap must be positive");
        self.max_events = cap;
    }

    /// Registers a node under a display name and returns its id.
    ///
    /// If the network has already started running, the node's
    /// [`Node::on_start`] is invoked immediately.
    pub fn add_node<N>(&mut self, name: &str, node: N) -> NodeId
    where
        N: Node<M> + 'static,
    {
        let id = NodeId(self.nodes.len() as u32);
        self.relays.push(node.pure_relay());
        self.ports.push(Ports::EMPTY);
        self.nodes.push(Some(Box::new(node)));
        self.trace.register_node(name);
        if self.started {
            // Deferred so the caller can still provision links before the
            // node's on_start sends anything.
            self.queue.push(self.now, EventKind::Start { node: id });
        }
        id
    }

    /// Provisions a symmetric link between `a` and `b` with fixed `latency`,
    /// tagged with the given interface.
    ///
    /// # Panics
    ///
    /// Panics if a link between the pair already exists, or if `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, iface: Interface, latency: SimDuration) {
        self.connect_with(
            a,
            b,
            LinkConfig::symmetric(iface, LinkQuality::new(latency)),
        );
    }

    /// Provisions a link with full [`LinkConfig`] control.
    ///
    /// # Panics
    ///
    /// Panics on duplicate links or self-links; both indicate topology bugs.
    pub fn connect_with(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        assert_ne!(a, b, "cannot link a node to itself");
        assert!(
            (a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len(),
            "link endpoints must be registered nodes"
        );
        assert!(
            self.port(a, b).is_none(),
            "duplicate link between {a} and {b} (interface {})",
            config.interface
        );
        let class = self.intern(config) << 1;
        self.ports[a.0 as usize].push(Port {
            peer: b.0,
            class_dir: class | 1,
        });
        self.ports[b.0 as usize].push(Port {
            peer: a.0,
            class_dir: class,
        });
    }

    /// The index of `config` in `classes`, added if no link had it yet.
    fn intern(&mut self, config: LinkConfig) -> u32 {
        let at = self.classes.iter().position(|c| *c == config);
        at.unwrap_or_else(|| {
            self.classes.push(config);
            self.classes.len() - 1
        }) as u32
    }

    /// The class of the link between `from` and `to`, and whether `from`
    /// is its `a` end. Scans the ports of whichever end has fewer: every
    /// link of a real topology has a leaf, or a node of a handful of
    /// ports, at one end.
    #[inline]
    fn port(&self, from: NodeId, to: NodeId) -> Option<(usize, bool)> {
        let (near, far) = (&self.ports[from.0 as usize], &self.ports[to.0 as usize]);
        let (port, owner_is_from) = if near.spill.len() <= far.spill.len() {
            (near.toward(to)?, true)
        } else {
            (far.toward(from)?, false)
        };
        let owner_is_a = port.class_dir & 1 == 1;
        Some(((port.class_dir >> 1) as usize, owner_is_a == owner_is_from))
    }

    /// The link between two nodes, if provisioned.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<Link> {
        let (class, a_first) = self.port(a, b)?;
        let (a, b) = if a_first { (a, b) } else { (b, a) };
        Some(Link {
            a,
            b,
            config: self.classes[class],
        })
    }

    /// Every node, in registration order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The nodes `id` has a link to, in the order the links were
    /// provisioned.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.ports[id.0 as usize].peers()
    }

    /// Replaces the quality of an existing link (both directions). The
    /// link moves to the class of its new configuration; other links of
    /// the class it leaves keep theirs.
    ///
    /// # Panics
    ///
    /// Panics if no link exists between the pair.
    pub fn set_link_quality(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        let (class, _) = self
            .port(a, b)
            .unwrap_or_else(|| panic!("no link between {a} and {b}"));
        let class = self.intern(LinkConfig::symmetric(
            self.classes[class].interface,
            quality,
        )) << 1;
        for (owner, peer) in [(a, b), (b, a)] {
            let port = self.ports[owner.0 as usize]
                .toward_mut(peer)
                .expect("a link has a port at each end");
            port.class_dir = class | (port.class_dir & 1);
        }
    }

    /// Schedules `msg` for delivery to `to` after `delay`, bypassing links.
    ///
    /// The delivery is attributed to `to` itself over [`Interface::Internal`];
    /// scenario drivers use this to issue local commands ("dial", "answer",
    /// "power on") to nodes.
    pub fn inject(&mut self, delay: SimDuration, to: NodeId, msg: M) {
        self.queue.push(
            self.now + delay,
            EventKind::Deliver {
                from: to,
                to,
                iface: Interface::Internal,
                msg,
            },
        );
    }

    /// Immediately delivers pending work until the event queue drains.
    ///
    /// Returns how many events were processed. Stops early (with
    /// `quiescent == false`) if the event cap is reached.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.ensure_started();
        let mut events = 0;
        let mut quiescent = false;
        while events < self.max_events {
            let Some((at, kind)) = self.queue.pop() else {
                quiescent = true;
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.process_event(kind);
            events += 1;
        }
        self.flush_counts();
        RunOutcome {
            events,
            at: self.now,
            quiescent,
        }
    }

    /// Processes events up to and including `deadline`, then sets the clock
    /// to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.ensure_started();
        let mut events = 0;
        while events < self.max_events {
            let Some((at, kind)) = self.queue.pop_at_or_before(deadline) else {
                break;
            };
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.process_event(kind);
            events += 1;
        }
        let quiescent = events < self.max_events;
        if self.now < deadline {
            self.now = deadline;
        }
        self.flush_counts();
        RunOutcome {
            events,
            at: self.now,
            quiescent,
        }
    }

    /// Processes a single event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let stepped = match self.queue.pop() {
            Some((at, kind)) => {
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                self.process_event(kind);
                true
            }
            None => false,
        };
        self.flush_counts();
        stepped
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // An `on_start` can send, and a send can be lost.
        self.k_dirty = true;
        for idx in 0..self.nodes.len() {
            self.dispatch(NodeId(idx as u32), |n, ctx| n.on_start(ctx));
        }
    }

    /// Moves the batched kernel counters into [`Stats`]. Called at the end
    /// of every run entry point so external readers always see totals.
    fn flush_counts(&mut self) {
        if !std::mem::take(&mut self.k_dirty) {
            return;
        }
        for (total, counts, kind) in [
            ("sim.delivered", &mut self.k_delivered, 0),
            ("sim.relayed", &mut self.k_relayed, 1),
        ] {
            let mut sum = 0;
            for (n, keys) in counts.iter_mut().zip(CENSUS_KEYS.iter()) {
                if *n > 0 {
                    self.stats.count_by(&keys[kind], *n);
                    sum += std::mem::take(n);
                }
            }
            if sum > 0 {
                self.stats.count_by(total, sum);
            }
        }
        if self.k_fired > 0 {
            self.stats.count_by("sim.timer_fired", self.k_fired);
            self.k_fired = 0;
        }
        if self.k_cancelled > 0 {
            self.stats.count_by("sim.timer_cancelled", self.k_cancelled);
            self.k_cancelled = 0;
        }
        if self.k_lost > 0 {
            self.stats.count_by("sim.lost", self.k_lost);
            self.k_lost = 0;
        }
    }

    fn process_event(&mut self, kind: EventKind<M>) {
        // Every kernel counter is bumped under an event or under
        // `ensure_started`.
        self.k_dirty = true;
        match kind {
            EventKind::Deliver {
                from,
                to,
                iface,
                msg,
            } => {
                self.k_delivered[iface.index()] += 1;
                self.deliver(from, to, iface, msg);
            }
            EventKind::Broadcast {
                from,
                to,
                iface,
                msg,
            } => {
                self.k_delivered[iface.index()] += 1;
                for &listener in to.iter() {
                    let hears = self.nodes[listener.0 as usize]
                        .as_ref()
                        .unwrap_or_else(|| panic!("node {listener} is missing or re-entered"))
                        .hears(from, &msg);
                    if hears {
                        debug_assert!(
                            self.port(from, listener).is_some(),
                            "broadcast listener {listener} has no link to {from}"
                        );
                        self.deliver(from, listener, iface, msg.clone());
                    }
                }
            }
            EventKind::Timer { node, token, tag } => {
                if self.timers.try_fire(token) {
                    self.k_fired += 1;
                    self.dispatch(node, |n, ctx| n.on_timer(ctx, token, tag));
                } else {
                    // Stale event: the timer was cancelled after this event
                    // was queued. Counting it here (not at cancel time)
                    // matches the heap kernel's historical semantics.
                    self.k_cancelled += 1;
                }
            }
            EventKind::Start { node } => {
                self.dispatch(node, |n, ctx| n.on_start(ctx));
            }
        }
    }

    /// Hands `msg` to `to` at the current (possibly virtual) time.
    fn deliver(&mut self, from: NodeId, to: NodeId, iface: Interface, msg: M) {
        if self.trace_capture && msg.traceable() {
            let detail = if self.trace_details {
                format!("{msg:?}")
            } else {
                String::new()
            };
            self.trace
                .record_message(self.now, from, to, iface, msg.label(), detail);
        }
        self.dispatch(to, |n, ctx| n.on_message(ctx, from, iface, msg));
    }

    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn AnyNode<M>, &mut Context<'_, M>),
    {
        let idx = id.0 as usize;
        let mut node = self.nodes[idx]
            .take()
            .unwrap_or_else(|| panic!("node {id} is missing or re-entered"));
        let mut ctx = Context {
            now: self.now,
            self_id: id,
            effects: self.fx_pool.pop().unwrap_or_default(),
            notes: self.trace_capture,
            rng: &mut self.rng,
            stats: &mut self.stats,
            timers: &mut self.timers,
        };
        f(&mut *node, &mut ctx);
        let mut effects = std::mem::take(&mut ctx.effects);
        self.nodes[idx] = Some(node);
        self.apply_effects(id, &mut effects);
        // Hand the (now drained) buffer back for the next dispatch.
        self.fx_pool.push(effects);
    }

    /// Samples the link `from` → `to` for `msg`: the interface, and the
    /// transfer delay unless the message is lost.
    fn sample_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &M,
    ) -> (Interface, Option<SimDuration>) {
        let (class, forward) = self.port(from, to).unwrap_or_else(|| {
            panic!(
                "node {from} ({}) sent {} to {to} ({}) but no link exists",
                self.trace.node_name(from),
                msg.label(),
                self.trace.node_name(to),
            )
        });
        let config = &self.classes[class];
        let quality = if forward {
            &config.forward
        } else {
            &config.reverse
        };
        // Only a bandwidth-limited link reads the size, and for some
        // messages the size is the cost of encoding them.
        let size = match quality.bandwidth_bps {
            Some(_) => msg.wire_size(),
            None => 0,
        };
        let delay = quality.sample(size, msg.reliable(), &mut self.rng);
        if delay.is_none() {
            self.k_lost += 1;
        }
        (config.interface, delay)
    }

    fn apply_effects(&mut self, from: NodeId, effects: &mut Vec<Effect<M>>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    let (iface, Some(delay)) = self.sample_link(from, to, &msg) else {
                        continue;
                    };
                    let at = self.now + delay;
                    if self.cut_through
                        && self.relays[to.0 as usize]
                        && msg.express()
                        && self.chain_depth < MAX_CHAIN_DEPTH
                    {
                        // Cut-through: run the relay now, on the clock of
                        // the frame's arrival there.
                        self.k_relayed[iface.index()] += 1;
                        let resume = std::mem::replace(&mut self.now, at);
                        self.chain_depth += 1;
                        self.deliver(from, to, iface, msg);
                        self.chain_depth -= 1;
                        self.now = resume;
                    } else {
                        self.queue.push(
                            at,
                            EventKind::Deliver {
                                from,
                                to,
                                iface,
                                msg,
                            },
                        );
                    }
                }
                Effect::Broadcast { to, msg } => {
                    let Some(&first) = to.first() else {
                        continue;
                    };
                    if let (iface, Some(delay)) = self.sample_link(from, first, &msg) {
                        self.queue.push(
                            self.now + delay,
                            EventKind::Broadcast {
                                from,
                                to,
                                iface,
                                msg,
                            },
                        );
                    }
                }
                Effect::Timer { at, token, tag } => {
                    self.queue.push(at, EventKind::Timer { node: from, token, tag });
                }
                Effect::CancelTimer { token } => {
                    self.timers.cancel(token);
                }
                Effect::Note { text } => {
                    if self.trace_capture {
                        self.trace.record_note(self.now, from, text);
                    }
                }
            }
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pending (not yet processed) events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The message trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (e.g. [`Trace::clear`] between procedures).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Statistics collected so far.
    ///
    /// Kernel counters (`sim.delivered`, `sim.timer_fired`, …) are batched
    /// during a run and flushed when each run call returns, so totals read
    /// between runs are always exact.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable statistics access for scenario-level counters.
    pub fn stats_mut(&mut self) -> &mut Stats {
        self.flush_counts();
        &mut self.stats
    }

    /// Number of currently armed timers (set but neither fired nor
    /// cancelled). Cancel-after-fire and double-cancel leave no residue.
    pub fn armed_timers(&self) -> usize {
        self.timers.live()
    }

    /// Immutable access to a node's concrete state.
    ///
    /// Returns `None` if the node's concrete type is not `N`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this network.
    pub fn node<N: 'static>(&self, id: NodeId) -> Option<&N> {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("node is missing")
            .as_any()
            .downcast_ref::<N>()
    }

    /// Mutable access to a node's concrete state (for scenario setup only;
    /// mutating nodes mid-run bypasses the deterministic event order).
    pub fn node_mut<N: 'static>(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("node is missing")
            .as_any_mut()
            .downcast_mut::<N>()
    }

    /// The display name a node was registered with.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.trace.node_name(id)
    }
}

impl<M: Payload> std::fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &(self.ports.iter().flat_map(Ports::peers).count() / 2))
            .field("pending", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TimerToken;
    use std::collections::BTreeMap;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
        Tick,
    }

    impl Payload for Msg {
        fn label(&self) -> String {
            match self {
                Msg::Ping(_) => "Ping".into(),
                Msg::Pong(_) => "Pong".into(),
                Msg::Tick => "Tick".into(),
            }
        }
        // These test messages model unreliable datagrams so the loss
        // tests exercise the drop path.
        fn reliable(&self) -> bool {
            false
        }
    }

    struct Echo {
        seen: u32,
    }

    impl Node<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _i: Interface, msg: Msg) {
            if let Msg::Ping(n) = msg {
                self.seen += 1;
                ctx.send(from, Msg::Pong(n + 1));
            }
        }
    }

    struct Caller {
        peer: NodeId,
        reply: Option<u32>,
        reply_at: Option<SimTime>,
    }

    impl Node<Msg> for Caller {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping(10));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, msg: Msg) {
            if let Msg::Pong(n) = msg {
                self.reply = Some(n);
                self.reply_at = Some(ctx.now());
            }
        }
    }

    fn ping_net() -> (Network<Msg>, NodeId, NodeId) {
        let mut net = Network::new(1);
        let echo = net.add_node("echo", Echo { seen: 0 });
        let caller = net.add_node(
            "caller",
            Caller {
                peer: echo,
                reply: None,
                reply_at: None,
            },
        );
        net.connect(caller, echo, Interface::Lan, SimDuration::from_millis(4));
        (net, echo, caller)
    }

    #[test]
    fn round_trip_latency() {
        let (mut net, echo, caller) = ping_net();
        let outcome = net.run_until_quiescent();
        assert!(outcome.quiescent);
        assert_eq!(outcome.events, 2);
        let c = net.node::<Caller>(caller).unwrap();
        assert_eq!(c.reply, Some(11));
        assert_eq!(c.reply_at, Some(SimTime::from_micros(8_000)));
        assert_eq!(net.node::<Echo>(echo).unwrap().seen, 1);
    }

    #[test]
    fn trace_records_labels_and_interfaces() {
        let (mut net, _, _) = ping_net();
        net.run_until_quiescent();
        assert_eq!(net.trace().labels(), vec!["Ping", "Pong"]);
        assert_eq!(net.trace().count_interface(Interface::Lan), 2);
    }

    #[test]
    fn downcast_to_wrong_type_is_none() {
        let (net, echo, _) = ping_net();
        assert!(net.node::<Caller>(echo).is_none());
    }

    #[test]
    fn inject_delivers_internal_command() {
        struct Sink {
            got: Vec<(Interface, Msg)>,
        }
        impl Node<Msg> for Sink {
            fn on_message(
                &mut self,
                _c: &mut Context<'_, Msg>,
                _f: NodeId,
                i: Interface,
                m: Msg,
            ) {
                self.got.push((i, m));
            }
        }
        let mut net = Network::new(0);
        let sink = net.add_node("sink", Sink { got: Vec::new() });
        net.inject(SimDuration::from_millis(2), sink, Msg::Tick);
        net.run_until_quiescent();
        let s = net.node::<Sink>(sink).unwrap();
        assert_eq!(s.got, vec![(Interface::Internal, Msg::Tick)]);
        assert_eq!(net.now(), SimTime::from_micros(2_000));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Node<Msg> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
                let t = ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.cancel_timer(t);
                ctx.set_timer(SimDuration::from_millis(3), 3);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _t: TimerToken, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut net = Network::new(0);
        let id = net.add_node("timed", Timed { fired: Vec::new() });
        net.run_until_quiescent();
        assert_eq!(net.node::<Timed>(id).unwrap().fired, vec![1, 3]);
        assert_eq!(net.stats().counter("sim.timer_cancelled"), 1);
    }

    #[test]
    fn cancel_after_fire_leaves_no_residual_state() {
        // Regression test for the old hash set of cancelled tokens and its
        // leak: cancelling a timer whose event had already fired (or
        // cancelling twice) inserted a token nothing would ever remove.
        struct LateCancel {
            token: Option<TimerToken>,
            fired: u32,
        }
        impl Node<Msg> for LateCancel {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.token = Some(ctx.set_timer(SimDuration::from_millis(1), 1));
                // Fires after the first timer; cancels it post-fire.
                ctx.set_timer(SimDuration::from_millis(2), 2);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken, tag: u64) {
                self.fired += 1;
                if tag == 2 {
                    let stale = self.token.take().expect("token stored on start");
                    ctx.cancel_timer(stale); // cancel-after-fire
                    ctx.cancel_timer(stale); // double cancel
                }
            }
        }
        for kernel in [Kernel::Heap, Kernel::Wheel] {
            let mut net = Network::with_kernel(0, kernel);
            let id = net.add_node("late", LateCancel { token: None, fired: 0 });
            net.run_until_quiescent();
            assert_eq!(net.node::<LateCancel>(id).unwrap().fired, 2);
            // Cancelling after the fire must not count as a cancellation…
            assert_eq!(net.stats().counter("sim.timer_cancelled"), 0);
            assert_eq!(net.stats().counter("sim.timer_fired"), 2);
            // …and must leave no residual bookkeeping behind.
            assert_eq!(net.armed_timers(), 0, "kernel {kernel}");
            assert_eq!(net.timers.slots(), 2, "kernel {kernel}");
        }
    }

    #[test]
    fn timer_churn_reuses_slots() {
        // A long chain of set → fire → cancel-after-fire cycles must not
        // grow the timer table: the table is bounded by peak concurrency.
        struct Chain {
            prev: Option<TimerToken>,
            remaining: u32,
        }
        impl Node<Msg> for Chain {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.prev = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken, _tag: u64) {
                if let Some(stale) = self.prev.take() {
                    ctx.cancel_timer(stale); // always post-fire, always a no-op
                }
                if self.remaining > 0 {
                    self.remaining -= 1;
                    self.prev = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
                }
            }
        }
        let mut net = Network::new(0);
        net.add_node("chain", Chain { prev: None, remaining: 1_000 });
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("sim.timer_fired"), 1_001);
        assert_eq!(net.armed_timers(), 0);
        assert!(
            net.timers.slots() <= 2,
            "slot churn must stay bounded, got {}",
            net.timers.slots()
        );
    }

    #[test]
    fn both_kernels_available() {
        let net: Network<Msg> = Network::new(0);
        assert_eq!(net.kernel(), Kernel::Wheel);
        let net: Network<Msg> = Network::with_kernel(0, Kernel::Heap);
        assert_eq!(net.kernel(), Kernel::Heap);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut net, _, _) = ping_net();
        let out = net.run_until(SimTime::from_micros(5_000));
        assert_eq!(out.events, 1); // only the Ping delivered by then
        assert_eq!(net.now(), SimTime::from_micros(5_000));
        assert_eq!(net.pending_events(), 1);
        net.run_until_quiescent();
        assert_eq!(net.trace().labels(), vec!["Ping", "Pong"]);
    }

    /// `ping_net` over a link that loses everything.
    fn lossy_net() -> (Network<Msg>, NodeId) {
        let mut net = Network::new(3);
        let echo = net.add_node("echo", Echo { seen: 0 });
        let caller = net.add_node(
            "caller",
            Caller {
                peer: echo,
                reply: None,
                reply_at: None,
            },
        );
        net.connect_with(
            caller,
            echo,
            LinkConfig::symmetric(
                Interface::Lan,
                LinkQuality::new(SimDuration::from_millis(1)).with_loss(1.0),
            ),
        );
        (net, echo)
    }

    #[test]
    fn lossy_link_counts_drops() {
        let (mut net, echo) = lossy_net();
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("sim.lost"), 1);
        assert_eq!(net.node::<Echo>(echo).unwrap().seen, 0);
    }

    #[test]
    fn every_run_entry_point_leaves_stats_exact() {
        // The kernel counters are flushed only when something was
        // counted; a reader between run calls must never see that.
        let [lan_queued, _] = census_counters(Interface::Lan);
        let delivered = |net: &Network<Msg>| {
            let s = net.stats();
            (s.counter("sim.delivered"), s.counter(lan_queued))
        };
        let (mut net, _, _) = ping_net();
        net.run_until(SimTime::from_micros(5_000));
        assert_eq!(delivered(&net), (1, 1));
        net.run_until(SimTime::from_micros(6_000)); // nothing due
        assert_eq!(delivered(&net), (1, 1));
        assert!(net.step());
        assert_eq!(delivered(&net), (2, 2));
        assert!(!net.step());
        assert!(net.run_until_quiescent().quiescent);
        assert_eq!(delivered(&net), (2, 2));
        net.stats_mut().count("scenario.mark");
        assert_eq!(delivered(&net), (2, 2));

        // A loss counted from `on_start`, under a call that pops no event.
        let (mut net, _) = lossy_net();
        assert_eq!(net.run_until(SimTime::ZERO).events, 0);
        assert_eq!(net.stats().counter("sim.lost"), 1);
    }

    #[test]
    #[should_panic(expected = "node n1 (caller) sent Ping to n0 (echo) but no link exists")]
    fn sending_without_link_panics() {
        let mut net = Network::new(0);
        let echo = net.add_node("echo", Echo { seen: 0 });
        let _caller = net.add_node(
            "caller",
            Caller {
                peer: echo,
                reply: None,
                reply_at: None,
            },
        );
        net.run_until_quiescent();
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let (mut net, echo, caller) = ping_net();
        net.connect(caller, echo, Interface::Lan, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot link a node to itself")]
    fn self_link_panics() {
        let mut net = Network::new(0);
        let echo = net.add_node("echo", Echo { seen: 0 });
        net.connect(echo, echo, Interface::Lan, SimDuration::ZERO);
    }

    /// A random topology — two hubs, leaves on one or both, a few
    /// leaf-to-leaf links, every link with its own direction-dependent
    /// quality out of a handful — and the map it was built from.
    fn random_topology(seed: u64) -> (Network<Msg>, BTreeMap<(NodeId, NodeId), LinkConfig>) {
        let mut rng = SimRng::new(seed);
        let mut net = Network::new(seed);
        let nodes: Vec<NodeId> = (0..40)
            .map(|i| net.add_node(&format!("n{i}"), Echo { seen: 0 }))
            .collect();
        let mut model = BTreeMap::new();
        let mut link = |net: &mut Network<Msg>, rng: &mut SimRng, a: NodeId, b: NodeId| {
            if a == b || model.contains_key(&(a, b)) || model.contains_key(&(b, a)) {
                return;
            }
            let quality =
                |rng: &mut SimRng| LinkQuality::new(SimDuration::from_millis(rng.range(1, 4)));
            let config = LinkConfig {
                interface: Interface::ALL[rng.range(0, 3) as usize],
                forward: quality(rng),
                reverse: quality(rng),
            };
            net.connect_with(a, b, config);
            model.insert((a, b), config);
        };
        let (hub_a, hub_b) = (nodes[3], nodes[17]);
        link(&mut net, &mut rng, hub_b, hub_a);
        for &leaf in &nodes {
            // Either end may be the link's `a`.
            match rng.range(0, 4) {
                0 => link(&mut net, &mut rng, leaf, hub_a),
                1 => link(&mut net, &mut rng, hub_b, leaf),
                2 => {
                    link(&mut net, &mut rng, hub_a, leaf);
                    link(&mut net, &mut rng, leaf, hub_b);
                }
                _ => {
                    let other = nodes[rng.range(0, nodes.len() as u64) as usize];
                    link(&mut net, &mut rng, leaf, other);
                }
            }
        }
        (net, model)
    }

    #[test]
    fn ports_agree_with_a_map_of_links() {
        for seed in 0..8 {
            let (net, model) = random_topology(seed);
            let nodes: Vec<NodeId> = net.node_ids().collect();
            assert!(model.len() > nodes.len() / 2, "seed {seed}: a real topology");
            for &x in &nodes {
                for &y in &nodes {
                    let wanted = model
                        .get(&(x, y))
                        .map(|c| ((x, y), *c))
                        .or_else(|| model.get(&(y, x)).map(|c| ((y, x), *c)));
                    let got = net.link_between(x, y);
                    assert_eq!(got.map(|l| (l.endpoints(), l.config)), wanted, "{x}-{y}");
                    if let (Some(link), Some(((a, _), config))) = (got, wanted) {
                        let toward_y = if x == a { config.forward } else { config.reverse };
                        assert_eq!(link.quality_from(x), toward_y, "{x}->{y}");
                    }
                }
                let mut linked: Vec<NodeId> = model
                    .keys()
                    .filter_map(|&(a, b)| (a == x).then_some(b).or((b == x).then_some(a)))
                    .collect();
                let mut neighbors: Vec<NodeId> = net.neighbors(x).collect();
                linked.sort();
                neighbors.sort();
                assert_eq!(neighbors, linked, "{x}");
            }
            assert!(net.classes.len() <= 3 * 3 * 3, "classes are interned");
        }
    }

    #[test]
    fn a_linked_pair_cannot_be_linked_again_from_either_end() {
        let (mut net, model) = random_topology(1);
        for &(a, b) in model.keys() {
            for (x, y) in [(a, b), (b, a)] {
                let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    net.connect(x, y, Interface::Lan, SimDuration::ZERO)
                }));
                let message = *again.expect_err("linked twice").downcast::<String>().unwrap();
                assert!(message.starts_with(&format!("duplicate link between {x} and {y}")));
            }
        }
    }

    #[test]
    fn a_send_samples_its_own_direction_through_a_hub() {
        // Six callers on one echoing hub, each over a link with its own
        // latency out and back; half the links have the hub as `a`. The
        // request is looked up from the leaf's ports, the reply from the
        // hub's side of the same link.
        let mut net = Network::new(0);
        let hub = net.add_node("hub", Echo { seen: 0 });
        let callers: Vec<NodeId> = (0..6u64)
            .map(|i| {
                let caller = Caller {
                    peer: hub,
                    reply: None,
                    reply_at: None,
                };
                let id = net.add_node(&format!("caller{i}"), caller);
                let out = LinkQuality::new(SimDuration::from_millis(1 + i));
                let back = LinkQuality::new(SimDuration::from_millis(20 + 3 * i));
                let (a, b, forward, reverse) = if i % 2 == 0 {
                    (id, hub, out, back)
                } else {
                    (hub, id, back, out)
                };
                let config = LinkConfig {
                    interface: Interface::Lan,
                    forward,
                    reverse,
                };
                net.connect_with(a, b, config);
                id
            })
            .collect();
        net.run_until_quiescent();
        for (i, &id) in callers.iter().enumerate() {
            let round_trip = SimTime::from_micros((21 + 4 * i as u64) * 1_000);
            assert_eq!(net.node::<Caller>(id).unwrap().reply_at, Some(round_trip));
        }
    }

    #[test]
    fn degrading_one_link_leaves_its_class_mates_alone() {
        let mut net = Network::new(0);
        let nodes: Vec<NodeId> = (0..3)
            .map(|i| net.add_node(&format!("n{i}"), Echo { seen: 0 }))
            .collect();
        let base = LinkQuality::new(SimDuration::from_millis(2));
        net.connect(nodes[0], nodes[1], Interface::Gb, base.latency);
        net.connect(nodes[1], nodes[2], Interface::Gb, base.latency);
        assert_eq!(net.classes.len(), 1, "equal configurations share a class");
        let degraded = base.with_loss(0.5).with_bandwidth_bps(64_000);
        let quality = |net: &Network<Msg>, a: usize, b: usize| {
            let link = net.link_between(nodes[a], nodes[b]).expect("linked");
            (link.quality_from(nodes[a]), link.quality_from(nodes[b]))
        };
        for _ in 0..1_000 {
            net.set_link_quality(nodes[1], nodes[0], degraded);
            assert_eq!(quality(&net, 0, 1), (degraded, degraded));
            assert_eq!(quality(&net, 1, 2), (base, base));
            net.set_link_quality(nodes[0], nodes[1], base);
            assert_eq!(quality(&net, 0, 1), (base, base));
            assert_eq!(net.classes.len(), 2, "a cycle re-interns, it adds nothing");
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut net = Network::new(seed);
            let echo = net.add_node("echo", Echo { seen: 0 });
            let caller = net.add_node(
                "caller",
                Caller {
                    peer: echo,
                    reply: None,
                    reply_at: None,
                },
            );
            net.connect_with(
                caller,
                echo,
                LinkConfig::symmetric(
                    Interface::Lan,
                    LinkQuality::new(SimDuration::from_millis(2))
                        .with_jitter(SimDuration::from_millis(3)),
                ),
            );
            net.run_until_quiescent();
            net.node::<Caller>(caller).unwrap().reply_at
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn event_cap_halts_runaway() {
        struct Looper {
            peer: Option<NodeId>,
        }
        impl Node<Msg> for Looper {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if let Some(p) = self.peer {
                    ctx.send(p, Msg::Tick);
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _i: Interface, _m: Msg) {
                ctx.send(from, Msg::Tick);
            }
        }
        let mut net = Network::new(0);
        let a = net.add_node("a", Looper { peer: None });
        let b = net.add_node("b", Looper { peer: Some(a) });
        net.connect(a, b, Interface::Lan, SimDuration::from_millis(1));
        net.set_max_events(100);
        let out = net.run_until_quiescent();
        assert!(!out.quiescent);
        assert_eq!(out.events, 100);
    }

    #[test]
    fn late_added_node_gets_on_start() {
        struct Starter {
            started: bool,
        }
        impl Node<Msg> for Starter {
            fn on_start(&mut self, _c: &mut Context<'_, Msg>) {
                self.started = true;
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
        }
        let mut net: Network<Msg> = Network::new(0);
        net.run_until_quiescent();
        let id = net.add_node("late", Starter { started: false });
        assert!(!net.node::<Starter>(id).unwrap().started, "deferred");
        net.run_until_quiescent();
        assert!(net.node::<Starter>(id).unwrap().started);
    }
}
