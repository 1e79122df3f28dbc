//! Micro spans: single layers driven from outside on fixed synthetic
//! inputs, once per invocation. Each value is the minimum over five
//! batches, so a host stall in one batch does not reach the result.
//! The inputs do not depend on `--seed`: these spans locate a cost, the
//! workloads weigh it.

use std::hint::black_box;
use std::time::Instant;

use vgprs_bench::scenarios::SingleZone;
use vgprs_faults::{compile_trunk_plan, TrunkPlanConfig};
use vgprs_load::{run_load, LoadConfig};
use vgprs_media::{EModel, JitterBuffer, Vocoder};
use vgprs_scenario::{compile_demand, ScenarioConfig};
use vgprs_sim::{
    CalendarWheel, Context, Interface, JsonValue, Kernel, Network, Node, NodeId, Payload,
    SimDuration, SimRng, SimTime, Stats, TimerToken,
};
use vgprs_wire::{
    CallId, CellId, Cic, Crv, GtpHeader, GtpMsgType, Imsi, IpPacket, IpPayload, Ipv4Addr, IsupKind,
    IsupMessage, MapMessage, Message, Msisdn, Q931Kind, Q931Message, RasMessage, RtpPacket,
    TransportAddr, PAYLOAD_TYPE_GSM,
};

const BATCHES: usize = 5;
const MICRO_SEED: u64 = 42;

/// Seconds per iteration: the fastest of five batches of `iters`.
fn per_iter_s(iters: u32, mut f: impl FnMut()) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds per unit for a batch that reports its own timed seconds and
/// unit count (set-up inside the batch stays untimed).
fn per_unit_s(mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let (secs, units) = batch();
            secs / units as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The hold model on the timer wheel: 64 Ki events pending, each pop
/// re-armed 20 ms ± 2 ms later — the voice-frame cadence the wheel's
/// slot width was tuned to.
fn wheel_push_pop_s() -> f64 {
    const PENDING: u64 = 64 << 10;
    const OPS: u64 = 400_000;
    per_unit_s(|| {
        let mut rng = SimRng::new(MICRO_SEED);
        let mut wheel: CalendarWheel<u64> = CalendarWheel::new();
        for i in 0..PENDING {
            wheel.push(SimTime::from_micros(rng.range(0, 20_000)), i);
        }
        let start = Instant::now();
        for _ in 0..OPS {
            let (at, item) = wheel.pop().expect("the hold model never drains");
            let next = at + SimDuration::from_micros(18_000 + rng.range(0, 4_000));
            wheel.push(next, item);
        }
        black_box(wheel.len());
        (start.elapsed().as_secs_f64(), OPS)
    })
}

#[derive(Clone, Debug)]
struct Ball;

impl Payload for Ball {
    fn label(&self) -> String {
        "Ball".to_owned()
    }
}

/// Passes every message on to its peer until `left` runs out.
struct Paddle {
    peer: Option<NodeId>,
    left: u64,
}

impl Node<Ball> for Paddle {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Ball>,
        _from: NodeId,
        _iface: Interface,
        msg: Ball,
    ) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(self.peer.expect("wired before the serve"), msg);
        }
    }
}

/// `Network` dispatch: two trivial nodes ping-pong over one link, so an
/// event is one queue pop, one link lookup, one handler call, one push.
fn net_dispatch_s(kernel: Kernel) -> f64 {
    const HOPS: u64 = 300_000;
    per_unit_s(|| {
        let mut net: Network<Ball> = Network::with_kernel(MICRO_SEED, kernel);
        net.set_trace_capture(false);
        let a = net.add_node(
            "a",
            Paddle {
                peer: None,
                left: HOPS / 2,
            },
        );
        let b = net.add_node(
            "b",
            Paddle {
                peer: Some(a),
                left: HOPS / 2,
            },
        );
        net.node_mut::<Paddle>(a).expect("just added").peer = Some(b);
        net.connect(a, b, Interface::A, SimDuration::from_millis(1));
        net.inject(SimDuration::ZERO, a, Ball);
        let start = Instant::now();
        let outcome = net.run_until_quiescent();
        (
            start.elapsed().as_secs_f64(),
            black_box(outcome.events).max(1),
        )
    })
}

/// Arms two timers per expiry and cancels one: set, cancel and fire in
/// the proportions a guard-timer-heavy handler produces.
struct Ticker {
    left: u64,
}

impl Node<Ball> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        ctx.set_timer(SimDuration::from_millis(20), 0);
    }

    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, Ball>,
        _from: NodeId,
        _iface: Interface,
        _msg: Ball,
    ) {
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Ball>, _token: TimerToken, _tag: u64) {
        if self.left > 0 {
            self.left -= 1;
            let guard = ctx.set_timer(SimDuration::from_millis(500), 1);
            ctx.set_timer(SimDuration::from_millis(20), 0);
            ctx.cancel_timer(guard);
        }
    }
}

fn net_timer_s() -> f64 {
    const FIRES: u64 = 200_000;
    per_unit_s(|| {
        let mut net: Network<Ball> = Network::with_kernel(MICRO_SEED, Kernel::Wheel);
        net.set_trace_capture(false);
        net.add_node("ticker", Ticker { left: FIRES });
        let start = Instant::now();
        black_box(net.run_until_quiescent());
        (start.elapsed().as_secs_f64(), FIRES)
    })
}

/// 32 names in rotation, as many as a busy node kind touches.
fn stat_names() -> Vec<String> {
    (0..32)
        .map(|i| format!("bench.layer{}.counter_{i}", i % 4))
        .collect()
}

fn stats_count_s() -> f64 {
    let names = stat_names();
    let mut stats = Stats::new();
    let mut i = 0usize;
    let s = per_iter_s(2_000_000, || {
        stats.count(&names[i & 31]);
        i += 1;
    });
    black_box(stats.counter(&names[0]));
    s
}

fn stats_observe_s() -> f64 {
    let names = stat_names();
    let mut stats = Stats::new();
    let mut i = 0usize;
    let s = per_iter_s(2_000_000, || {
        stats.observe(&names[i & 31], 20.0 + (i & 127) as f64);
        i += 1;
    });
    black_box(stats.histogram(&names[0]).map(|h| h.count()));
    s
}

/// Bytes per second parsing one `LoadReport::to_json` dump (the
/// `harness diff` gate's input).
fn json_parse_bytes_per_s() -> f64 {
    let dump = run_load(&LoadConfig {
        subscribers: 64,
        shards: 1,
        threads: 1,
        ..LoadConfig::default()
    })
    .to_json();
    let s = per_iter_s(200, || {
        black_box(JsonValue::parse(black_box(&dump)).expect("the repo's own dump parses"));
    });
    dump.len() as f64 / s
}

fn addr(last: u8, port: u16) -> TransportAddr {
    TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, last), port)
}

fn msisdn() -> Msisdn {
    Msisdn::parse("886912000001").expect("valid")
}

fn gtp_roundtrip_s() -> f64 {
    per_iter_s(2_000_000, || {
        let h = black_box(GtpHeader {
            msg_type: GtpMsgType::TPdu,
            length: 128,
            seq: 7,
            flow: 9,
            tid: 0x0123_4567_89AB_CDEF,
        });
        let bytes = h.encode();
        black_box(GtpHeader::decode(black_box(&bytes)).expect("round trip"));
    })
}

fn rtp_roundtrip_s() -> f64 {
    per_iter_s(2_000_000, || {
        let p = black_box(RtpPacket {
            ssrc: 0xFEED,
            seq: 1,
            timestamp: 160,
            payload_type: PAYLOAD_TYPE_GSM,
            marker: true,
            payload_len: 33,
            call: CallId(1),
            origin_us: 0,
        });
        let bytes = p.encode_header();
        black_box(RtpPacket::decode_header(black_box(&bytes)).expect("round trip"));
    })
}

fn q931_roundtrip_s() -> f64 {
    let setup = Q931Message {
        crv: Crv(17),
        call: CallId(1),
        kind: Q931Kind::Setup {
            calling: Some(msisdn()),
            called: Msisdn::parse("886220001111").expect("valid"),
            signal_addr: addr(1, 1720),
            media_addr: addr(1, 5004),
        },
    };
    per_iter_s(300_000, || {
        let bytes = black_box(&setup).encode();
        black_box(Q931Message::decode(black_box(&bytes)).expect("round trip"));
    })
}

fn isup_roundtrip_s() -> f64 {
    let iam = IsupMessage {
        cic: Cic(5),
        call: CallId(1),
        kind: IsupKind::Iam {
            called: msisdn(),
            calling: Some(msisdn()),
        },
    };
    per_iter_s(500_000, || {
        let bytes = black_box(&iam).encode();
        black_box(IsupMessage::decode(black_box(&bytes)).expect("round trip"));
    })
}

fn map_roundtrip_s() -> f64 {
    let prepare = MapMessage::PrepareHandover {
        call: CallId(1),
        imsi: Imsi::parse("466920000000001").expect("valid"),
        cell: CellId(2),
    };
    per_iter_s(500_000, || {
        let bytes = black_box(&prepare)
            .encode_handover()
            .expect("handoff subset");
        black_box(MapMessage::decode_handover(black_box(&bytes)).expect("round trip"));
    })
}

/// RAS has no byte codec in this repository: an ARQ travels as an
/// in-memory value inside an IP packet. The round trip is therefore
/// wrap, size, copy (what a send costs) and unwrap.
fn ras_roundtrip_s() -> f64 {
    let called = msisdn();
    per_iter_s(1_000_000, || {
        let arq = RasMessage::Arq {
            call: black_box(CallId(1)),
            called,
            answering: false,
            bandwidth: 160,
        };
        let msg = Message::Ip(IpPacket::new(
            addr(1, 1719),
            addr(2, 1719),
            IpPayload::Ras(arq),
        ));
        black_box(msg.wire_size());
        match black_box(msg.clone()) {
            Message::Ip(IpPacket {
                payload: IpPayload::Ras(back),
                ..
            }) => {
                black_box(back);
            }
            _ => unreachable!("built as RAS"),
        }
    })
}

fn emodel_mos_s() -> f64 {
    let model = EModel::for_codec(&Vocoder::gsm_full_rate());
    let mut i = 0u64;
    per_iter_s(2_000_000, || {
        i += 1;
        let delay = SimDuration::from_micros(80_000 + (i & 1023) * 100);
        black_box(model.mos(black_box(delay), 0.001 * (i & 15) as f64));
    })
}

fn jitter_offer_s() -> f64 {
    const FRAMES: u32 = 100_000;
    per_unit_s(|| {
        let mut rng = SimRng::new(MICRO_SEED);
        let mut jb = JitterBuffer::new(SimDuration::from_millis(60), SimDuration::from_millis(20));
        let start = Instant::now();
        for seq in 0..FRAMES {
            let arrival = u64::from(seq) * 20_000 + rng.range(0, 30_000);
            black_box(jb.offer(seq, SimTime::from_micros(arrival)));
        }
        (start.elapsed().as_secs_f64(), u64::from(FRAMES))
    })
}

/// Figure 4 end to end: build a zone and register one MS and one
/// terminal through VMSC, SGSN, GGSN and gatekeeper.
fn registration_s() -> f64 {
    per_iter_s(40, || {
        black_box(SingleZone::build(MICRO_SEED).net.now());
    })
}

/// Figure 5 plus release on a registered zone; the build is untimed.
fn call_cycle_s() -> f64 {
    const CALLS: u64 = 40;
    per_unit_s(|| {
        let mut secs = 0.0;
        for i in 0..CALLS {
            let mut zone = SingleZone::build(MICRO_SEED);
            let start = Instant::now();
            black_box(zone.call_from_ms(CallId(i + 1), SimDuration::from_secs(1)));
            zone.hangup_from_ms();
            secs += start.elapsed().as_secs_f64();
        }
        (secs, CALLS)
    })
}

fn compile_trunk_plan_s() -> f64 {
    let cfg = TrunkPlanConfig::all(1.0);
    let mut pair = 0usize;
    per_iter_s(20_000, || {
        pair = (pair + 1) % 63;
        black_box(compile_trunk_plan(&cfg, MICRO_SEED, pair, 63, 60));
    })
}

/// The workloads' demand is flat and compiles to nothing, so this span
/// uses a 10x flash crowd: the path that does work.
fn compile_demand_s() -> f64 {
    let cfg = ScenarioConfig::flash(10.0);
    let mut shard = 0usize;
    per_iter_s(20_000, || {
        shard = (shard + 1) % 64;
        black_box(compile_demand(&cfg, MICRO_SEED, shard, 60));
    })
}

/// Every micro span, as `(metric name, value in the metric's unit)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    const NS: f64 = 1e9;
    const US: f64 = 1e6;
    vec![
        ("sim.wheel.push_pop_ns", wheel_push_pop_s() * NS),
        ("sim.net.dispatch_ns", net_dispatch_s(Kernel::Wheel) * NS),
        (
            "sim.net.dispatch_heap_ns",
            net_dispatch_s(Kernel::Heap) * NS,
        ),
        ("sim.net.timer_ns", net_timer_s() * NS),
        ("sim.stats.count_ns", stats_count_s() * NS),
        ("sim.stats.observe_ns", stats_observe_s() * NS),
        ("sim.json.parse_mb_s", json_parse_bytes_per_s() / 1e6),
        ("wire.gtp_roundtrip_ns", gtp_roundtrip_s() * NS),
        ("wire.rtp_roundtrip_ns", rtp_roundtrip_s() * NS),
        ("wire.q931_roundtrip_ns", q931_roundtrip_s() * NS),
        ("wire.isup_roundtrip_ns", isup_roundtrip_s() * NS),
        ("wire.map_roundtrip_ns", map_roundtrip_s() * NS),
        ("wire.ras_roundtrip_ns", ras_roundtrip_s() * NS),
        ("media.emodel_mos_ns", emodel_mos_s() * NS),
        ("media.jitter_offer_ns", jitter_offer_s() * NS),
        ("core.registration_us", registration_s() * US),
        ("core.call_cycle_us", call_cycle_s() * US),
        ("faults.compile_trunk_plan_us", compile_trunk_plan_s() * US),
        ("scenario.compile_demand_us", compile_demand_s() * US),
    ]
}
