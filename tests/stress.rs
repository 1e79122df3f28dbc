//! Randomized stress: random subscriber populations and call patterns
//! must never wedge the system, and conservation invariants must hold
//! when the dust settles.
//!
//! These were proptest properties; they are now seeded-loop tests so the
//! workspace builds with zero external dependencies. Each iteration
//! derives its scenario parameters from [`SimRng`], so the case set is
//! deterministic and reproducible from the loop seed alone.

use vgprs_core::{VgprsZone, VgprsZoneConfig, Vmsc};
use vgprs_gsm::{MobileStation, MsState};
use vgprs_h323::Gatekeeper;
use vgprs_sim::{Network, SimDuration, SimRng};
use vgprs_wire::{CallId, Command, Imsi, Message, Msisdn};

fn imsi(i: usize) -> Imsi {
    Imsi::parse(&format!("4669200000{i:05}")).unwrap()
}

fn msisdn(i: usize) -> Msisdn {
    Msisdn::parse(&format!("8869120{i:05}")).unwrap()
}

fn alias(i: usize) -> Msisdn {
    Msisdn::parse(&format!("8862200{i:05}")).unwrap()
}

/// Any mix of subscribers, staggered power-ons, call targets and talk
/// times: when every call has been hung up, nothing is leaked.
#[test]
fn random_call_storm_conserves_state() {
    let mut gen = SimRng::new(0xC0FFEE);
    for case in 0..8 {
        let seed = gen.range(0, 1_000);
        let subs = gen.range(2, 8) as usize;
        let dial_stagger_ms = gen.range(1, 800);
        let talk_secs = gen.range(1, 8);

        let mut net = Network::new(seed);
        let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        let mut mss = Vec::new();
        for i in 0..subs {
            let ms = zone.access.add_subscriber(
                &mut net,
                format_args!("ms{i}"),
                imsi(i),
                0x9000 + i as u64,
                msisdn(i),
            );
            zone.packet
                .add_terminal(&mut net, format_args!("t{i}"), alias(i));
            mss.push(ms);
            net.inject(
                SimDuration::from_millis(i as u64 * 11),
                ms,
                Message::Cmd(Command::PowerOn),
            );
        }
        net.run_until_quiescent();
        assert_eq!(
            net.node::<Vmsc>(zone.access.msc)
                .unwrap()
                .registered_count(),
            subs,
            "case {case}: registration incomplete"
        );

        // Everyone dials a terminal (possibly with heavy overlap).
        for (i, ms) in mss.iter().enumerate() {
            net.inject(
                SimDuration::from_millis(i as u64 * dial_stagger_ms),
                *ms,
                Message::Cmd(Command::Dial {
                    call: CallId(500 + i as u64),
                    called: alias(i),
                }),
            );
        }
        net.run_until(net.now() + SimDuration::from_secs(6 + talk_secs));
        // Everyone hangs up (idle phones ignore the command).
        for ms in &mss {
            net.inject(SimDuration::ZERO, *ms, Message::Cmd(Command::Hangup));
        }
        net.run_until_quiescent();

        // Conservation invariants.
        let vmsc = net.node::<Vmsc>(zone.access.msc).unwrap();
        assert_eq!(vmsc.active_calls(), 0, "case {case}: leaked call state");
        let gk = net.node::<Gatekeeper>(zone.packet.gk).unwrap();
        assert_eq!(
            gk.bandwidth_used(),
            0,
            "case {case}: admissions not disengaged"
        );
        for ms in &mss {
            let m = net.node::<MobileStation>(*ms).unwrap();
            assert_eq!(m.state(), MsState::Idle, "case {case}");
        }
        // Every voice context that was activated was also deactivated.
        let stats = net.stats();
        assert_eq!(
            stats.counter("vmsc.voice_context_requested"),
            stats.counter("vmsc.voice_context_deactivated"),
            "case {case}: voice PDP contexts unbalanced"
        );
        // The signaling contexts stay (the paper's always-on design).
        assert_eq!(stats.counter("sgsn.attaches"), subs as u64, "case {case}");
    }
}

/// Determinism: the same seed yields the same trace, event for event.
#[test]
fn same_seed_same_history() {
    let run = |seed: u64| {
        let mut net = Network::new(seed);
        let mut zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        let ms = zone
            .access
            .add_subscriber(&mut net, "ms", imsi(0), 0x77, msisdn(0));
        zone.packet.add_terminal(&mut net, "t", alias(0));
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        net.inject(
            SimDuration::ZERO,
            ms,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: alias(0),
            }),
        );
        net.run_until(net.now() + SimDuration::from_secs(6));
        (net.trace().labels().join("|"), net.now())
    };
    let mut gen = SimRng::new(0xBEEF);
    for _ in 0..4 {
        let seed = gen.range(0, 10_000);
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
}
