//! Media cut-through against its oracle, the hop-by-hop model: the same
//! world is run with `Network::set_cut_through` on and off and must
//! agree on what arrives where and when. Also covers the broadcast
//! event, the other way this kernel avoids one queued event per hop.

use std::sync::Arc;

use vgprs_sim::{
    Context, Interface, LinkConfig, LinkQuality, Network, Node, NodeId, Payload, SimDuration,
    SimTime, TimerToken,
};

#[derive(Clone, Debug, PartialEq)]
enum Msg {
    /// Express bearer frame.
    Frame(u32),
    /// Ordinary signaling.
    Signal(u32),
    /// A relay's answer to the sender of a frame.
    Ack(u32),
}

impl Payload for Msg {
    fn label(&self) -> String {
        format!("{self:?}")
    }
    fn reliable(&self) -> bool {
        !self.express()
    }
    fn express(&self) -> bool {
        matches!(self, Msg::Frame(_))
    }
}

/// Sends `Frame(1..=frames)` (or `Signal`s) to `next`, one per `every`.
struct Source {
    next: NodeId,
    frames: u32,
    every: SimDuration,
    signal: bool,
    sent: u32,
    acks: Vec<(SimTime, u32)>,
}

impl Source {
    fn new(next: NodeId, frames: u32, every_ms: u64) -> Self {
        Source {
            next,
            frames,
            every: SimDuration::from_millis(every_ms),
            signal: false,
            sent: 0,
            acks: Vec::new(),
        }
    }
}

impl Node<Msg> for Source {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.every, 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken, _tag: u64) {
        self.sent += 1;
        let msg = if self.signal {
            Msg::Signal(self.sent)
        } else {
            Msg::Frame(self.sent)
        };
        ctx.send(self.next, msg);
        if self.sent < self.frames {
            ctx.set_timer(self.every, 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, msg: Msg) {
        if let Msg::Ack(n) = msg {
            self.acks.push((ctx.now(), n));
        }
    }
}

/// A pure relay: forwards everything to `next`. Optionally answers the
/// sender of each frame and arms a timer whose firing time it records.
struct Relay {
    next: NodeId,
    chatty: bool,
    passed: Vec<(SimTime, Msg)>,
    timers: Vec<SimTime>,
}

impl Relay {
    fn new(next: NodeId) -> Self {
        Relay {
            next,
            chatty: false,
            passed: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl Node<Msg> for Relay {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _i: Interface, msg: Msg) {
        self.passed.push((ctx.now(), msg.clone()));
        if let (true, Msg::Frame(n)) = (self.chatty, &msg) {
            ctx.send(from, Msg::Ack(*n));
            ctx.set_timer(SimDuration::from_millis(7), 0);
        }
        ctx.send(self.next, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken, _tag: u64) {
        self.timers.push(ctx.now());
    }
    fn pure_relay(&self) -> bool {
        true
    }
}

#[derive(Default)]
struct Sink {
    got: Vec<(SimTime, Msg)>,
}

impl Node<Msg> for Sink {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, msg: Msg) {
        self.got.push((ctx.now(), msg));
    }
}

struct Chain {
    net: Network<Msg>,
    source: NodeId,
    r1: NodeId,
    r2: NodeId,
    sink: NodeId,
}

/// source —Abis→ r1 —A→ r2 —Gb→ sink, every link of the given quality.
fn chain(cut_through: bool, quality: LinkQuality, source: impl FnOnce(NodeId) -> Source) -> Chain {
    let mut net = Network::new(7);
    net.set_cut_through(cut_through);
    let sink = net.add_node("sink", Sink::default());
    let r2 = net.add_node("r2", Relay::new(sink));
    let r1 = net.add_node("r1", Relay::new(r2));
    let src = net.add_node("source", source(r1));
    for (a, b, iface) in [
        (src, r1, Interface::Abis),
        (r1, r2, Interface::A),
        (r2, sink, Interface::Gb),
    ] {
        net.connect_with(a, b, LinkConfig::symmetric(iface, quality));
    }
    Chain {
        net,
        source: src,
        r1,
        r2,
        sink,
    }
}

fn ideal(ms: u64) -> LinkQuality {
    LinkQuality::new(SimDuration::from_millis(ms))
}

fn sink_log(c: &Chain) -> Vec<(SimTime, Msg)> {
    c.net.node::<Sink>(c.sink).unwrap().got.clone()
}

#[test]
fn chain_delivers_the_same_payload_at_the_same_time() {
    let run = |cut| {
        let mut c = chain(cut, ideal(3), |next| Source::new(next, 5, 20));
        let outcome = c.net.run_until_quiescent();
        (c, outcome.events)
    };
    let (oracle, oracle_events) = run(false);
    let (fast, fast_events) = run(true);

    let got = sink_log(&fast);
    assert_eq!(got, sink_log(&oracle));
    assert_eq!(got.len(), 5);
    assert_eq!(got[0], (SimTime::from_micros(29_000), Msg::Frame(1)));
    // The relays saw each frame at its passage time in both runs.
    for r in [fast.r1, fast.r2] {
        assert_eq!(
            fast.net.node::<Relay>(r).unwrap().passed,
            oracle.net.node::<Relay>(r).unwrap().passed
        );
    }

    // Two of the three hops per frame stopped being queued events.
    let (o, f) = (oracle.net.stats(), fast.net.stats());
    assert_eq!(o.counter("sim.relayed"), 0);
    assert_eq!(f.counter("sim.relayed"), 10);
    assert_eq!(
        f.counter("sim.delivered") + f.counter("sim.relayed"),
        o.counter("sim.delivered")
    );
    assert_eq!(oracle_events - fast_events, 10);
    // The census splits both totals by interface.
    assert_eq!(f.counter("sim.relayed.Abis"), 5);
    assert_eq!(f.counter("sim.relayed.A"), 5);
    assert_eq!(f.counter("sim.delivered.Gb"), 5);
    assert_eq!(f.counter("sim.delivered.Abis"), 0);
    assert_eq!(o.counter("sim.delivered.Abis"), 5);
}

#[test]
fn loss_and_jitter_draws_are_taken_in_hop_order() {
    // Frames are spaced wider than the chain is long, so hop-by-hop also
    // finishes one frame's draws before the next frame's begin; the two
    // models then consume the random stream identically or not at all.
    let lossy = ideal(2)
        .with_jitter(SimDuration::from_millis(4))
        .with_loss(0.2);
    let run = |cut| {
        let mut c = chain(cut, lossy, |next| Source::new(next, 200, 50));
        c.net.run_until_quiescent();
        (sink_log(&c), c.net.stats().counter("sim.lost"))
    };
    let (oracle, oracle_lost) = run(false);
    let (fast, fast_lost) = run(true);
    assert_eq!(fast, oracle);
    assert_eq!(fast_lost, oracle_lost);
    assert!(fast_lost > 20, "the links do lose frames: {fast_lost}");
    assert!(
        fast.len() > 50,
        "and most frames still arrive: {}",
        fast.len()
    );
}

#[test]
fn a_relay_that_sets_a_timer_or_answers_its_sender_still_works() {
    let run = |cut| {
        let mut c = chain(cut, ideal(3), |next| Source::new(next, 3, 20));
        c.net.node_mut::<Relay>(c.r1).unwrap().chatty = true;
        c.net.run_until_quiescent();
        assert_eq!(c.net.armed_timers(), 0);
        (
            c.net.node::<Source>(c.source).unwrap().acks.clone(),
            c.net.node::<Relay>(c.r1).unwrap().timers.clone(),
            sink_log(&c),
        )
    };
    let (acks, timers, got) = run(true);
    assert_eq!((acks.clone(), timers.clone(), got), run(false));
    // Frame 1 leaves at 20 ms and passes r1 at 23 ms: the answer is back
    // at 26 ms and the timer fires 7 ms after the passage.
    assert_eq!(acks[0], (SimTime::from_micros(26_000), 1));
    assert_eq!(timers[0], SimTime::from_micros(30_000));
}

#[test]
fn a_non_express_message_to_a_relay_is_queued() {
    let mut c = chain(true, ideal(3), |next| Source {
        signal: true,
        ..Source::new(next, 4, 20)
    });
    c.net.run_until_quiescent();
    assert_eq!(sink_log(&c).len(), 4);
    assert_eq!(c.net.stats().counter("sim.relayed"), 0);
    assert_eq!(c.net.stats().counter("sim.delivered"), 12);
}

#[test]
fn a_routing_loop_hits_the_depth_cap_instead_of_the_stack() {
    // Two relays that forward to each other: without the cap the first
    // frame would recurse forever inside one event.
    let mut net = Network::new(1);
    let nowhere = net.add_node("nowhere", Sink::default());
    let a = net.add_node("a", Relay::new(nowhere));
    let b = net.add_node("b", Relay::new(a));
    net.node_mut::<Relay>(a).unwrap().next = b;
    let src = net.add_node("source", Source::new(a, 1, 1));
    net.connect(a, b, Interface::Lan, SimDuration::from_millis(1));
    net.connect(src, a, Interface::Lan, SimDuration::from_millis(1));
    net.set_max_events(100);
    let outcome = net.run_until_quiescent();
    assert!(!outcome.quiescent, "the loop never drains");
    let (queued, relayed) = (
        net.stats().counter("sim.delivered"),
        net.stats().counter("sim.relayed"),
    );
    // The source's timer and then every queued delivery each carry a
    // full chain of sixteen inline hops, and no more.
    assert_eq!(queued, 99);
    assert_eq!(relayed, 16 * (queued + 1));
    // Time still advances one link latency per hop, inline or queued.
    assert_eq!(net.now(), SimTime::from_micros((1 + 17 * queued) * 1_000));
}

/// Hears only the broadcasts that name it.
struct Listener {
    id: u32,
    heard: Vec<(SimTime, Interface, Msg)>,
}

impl Node<Msg> for Listener {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: NodeId, iface: Interface, msg: Msg) {
        self.heard.push((ctx.now(), iface, msg));
    }
    fn hears(&self, _from: NodeId, msg: &Msg) -> bool {
        *msg == Msg::Signal(self.id)
    }
}

struct Tower {
    cell: Arc<Vec<NodeId>>,
    pages: Vec<u32>,
}

impl Node<Msg> for Tower {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for &p in &self.pages {
            ctx.broadcast(Arc::clone(&self.cell), Msg::Signal(p));
        }
    }
    fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _i: Interface, _m: Msg) {}
}

#[test]
fn a_broadcast_is_one_event_and_wakes_only_those_who_hear_it() {
    let mut net = Network::new(1);
    let listeners: Vec<NodeId> = (0..100)
        .map(|id| {
            net.add_node(
                &format!("ms{id}"),
                Listener {
                    id,
                    heard: Vec::new(),
                },
            )
        })
        .collect();
    let tower = net.add_node(
        "tower",
        Tower {
            cell: Arc::new(listeners.clone()),
            pages: vec![42, 7, 1_000],
        },
    );
    for &l in &listeners {
        net.connect(tower, l, Interface::Um, SimDuration::from_millis(1));
    }
    let outcome = net.run_until_quiescent();
    assert_eq!(outcome.events, 3, "one event per page, heard or not");
    assert_eq!(net.stats().counter("sim.delivered.Um"), 3);
    for (i, &l) in listeners.iter().enumerate() {
        let heard = &net.node::<Listener>(l).unwrap().heard;
        if i == 42 || i == 7 {
            let at = SimTime::from_micros(1_000);
            assert_eq!(*heard, vec![(at, Interface::Um, Msg::Signal(i as u32))]);
        } else {
            assert!(heard.is_empty());
        }
    }
    // The hearing listeners appear in the trace like any other delivery.
    assert_eq!(net.trace().labels(), vec!["Signal(42)", "Signal(7)"]);
}

#[test]
fn a_broadcast_to_nobody_sends_nothing() {
    let mut net = Network::new(1);
    net.add_node(
        "tower",
        Tower {
            cell: Arc::new(Vec::new()),
            pages: vec![1],
        },
    );
    assert_eq!(net.run_until_quiescent().events, 0);
}
