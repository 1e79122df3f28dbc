//! Differential oracle: the timer-wheel kernel must reproduce the binary
//! heap's schedule bit-for-bit.
//!
//! A randomized scenario (timers at mixed horizons, cancellations, message
//! ping-pong over jittery links) is run on both kernels with the same seed;
//! traces, statistics, event counts, and clocks must match exactly. Any
//! divergence means the wheel broke the `(time, seq)` ordering contract.

use vgprs_sim::{
    Context, Interface, Kernel, LinkQuality, Network, Node, NodeId, Payload, SimDuration, SimTime,
    TimerToken,
};

#[derive(Clone, Debug)]
enum Msg {
    Ping(u32),
    Pong(u32),
}

impl Payload for Msg {
    fn label(&self) -> String {
        match self {
            Msg::Ping(_) => "Ping".into(),
            Msg::Pong(_) => "Pong".into(),
        }
    }
    fn reliable(&self) -> bool {
        false
    }
}

/// A node that exercises every kernel code path from its own RNG stream:
/// short/medium/long timers, cancellations (pre- and post-fire), and
/// message exchange. Both kernels see identical RNG draws because the
/// dispatch order is identical — which is exactly what the test asserts.
struct Churn {
    peer: Option<NodeId>,
    budget: u32,
    pending: Vec<TimerToken>,
}

impl Churn {
    fn act(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        match ctx.rng().range(0, 10) {
            // Short horizon: same-slot and near-slot timers.
            0..=3 => {
                let us = ctx.rng().range(0, 5_000);
                let t = ctx.set_timer(SimDuration::from_micros(us), 1);
                self.pending.push(t);
            }
            // Medium horizon: level-1 territory.
            4..=5 => {
                let ms = ctx.rng().range(100, 10_000);
                let t = ctx.set_timer(SimDuration::from_millis(ms), 2);
                self.pending.push(t);
            }
            // Long horizon: level-2 / overflow territory.
            6 => {
                let s = ctx.rng().range(60, 8 * 3_600);
                let t = ctx.set_timer(SimDuration::from_secs(s), 3);
                self.pending.push(t);
            }
            // Cancel something (often already fired — must be a no-op).
            7 => {
                if let Some(t) = self.pending.pop() {
                    ctx.cancel_timer(t);
                }
            }
            // Talk to the peer over the lossy, jittery link.
            _ => {
                if let Some(peer) = self.peer {
                    ctx.send(peer, Msg::Ping(self.budget));
                }
            }
        }
    }
}

impl Node<Msg> for Churn {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        for _ in 0..4 {
            self.act(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, _i: Interface, msg: Msg) {
        match msg {
            Msg::Ping(n) => ctx.send(from, Msg::Pong(n)),
            // The echo carries the sender's budget at ping time.
            Msg::Pong(n) => assert!(n <= 400, "pong echoed a corrupt payload"),
        }
        self.act(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _t: TimerToken, _tag: u64) {
        self.act(ctx);
        self.act(ctx);
    }
}

fn run_scenario(seed: u64, kernel: Kernel, epoch_stepped: bool) -> (String, String, u64, SimTime) {
    let mut net = Network::with_kernel(seed, kernel);
    let a = net.add_node("a", Churn { peer: None, budget: 400, pending: Vec::new() });
    let b = net.add_node("b", Churn { peer: None, budget: 400, pending: Vec::new() });
    net.node_mut::<Churn>(a).unwrap().peer = Some(b);
    net.node_mut::<Churn>(b).unwrap().peer = Some(a);
    let latency = SimDuration::from_millis(3);
    net.connect(a, b, Interface::Lan, latency);
    let quality = LinkQuality::new(latency)
        .with_jitter(SimDuration::from_millis(7))
        .with_loss(0.05);
    net.set_link_quality(a, b, quality);
    let mut events = 0;
    if epoch_stepped {
        // Epoch-lockstep style: fixed 50 ms deadlines, like the load engine.
        for epoch in 1.. {
            let out = net.run_until(SimTime::from_micros(epoch * 50_000));
            events += out.events;
            if net.pending_events() == 0 {
                break;
            }
        }
    } else {
        events = net.run_until_quiescent().events;
    }
    let trace = format!("{:?}", net.trace().entries());
    let stats = net.stats().to_string();
    (trace, stats, events, net.now())
}

#[test]
fn wheel_matches_heap_run_to_quiescence() {
    for seed in 0..6u64 {
        let heap = run_scenario(seed, Kernel::Heap, false);
        let wheel = run_scenario(seed, Kernel::Wheel, false);
        assert_eq!(heap.2, wheel.2, "event count diverged, seed {seed}");
        assert_eq!(heap.3, wheel.3, "final clock diverged, seed {seed}");
        assert_eq!(heap.1, wheel.1, "stats diverged, seed {seed}");
        assert_eq!(heap.0, wheel.0, "trace diverged, seed {seed}");
    }
}

#[test]
fn wheel_matches_heap_epoch_stepped() {
    // The load engine drives shards with repeated run_until deadlines; the
    // deadline path (cursor advancing past quiet slots, pushes landing at
    // or behind the cursor) must also match the heap exactly.
    for seed in 0..4u64 {
        let heap = run_scenario(seed, Kernel::Heap, true);
        let wheel = run_scenario(seed, Kernel::Wheel, true);
        assert_eq!(heap, wheel, "epoch-stepped divergence, seed {seed}");
    }
}

#[test]
fn wheel_is_the_default_kernel() {
    let net: Network<Msg> = Network::new(0);
    assert_eq!(net.kernel(), Kernel::Wheel);
}
