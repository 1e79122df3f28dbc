//! Quantified versions of the paper's Section 6 comparison claims.
//!
//! The paper argues these qualitatively; each function here turns one
//! claim into a measured table. `EXPERIMENTS.md` records the outputs.

use vgprs_core::{Architecture, LatencyProfile, VgprsZone, VgprsZoneConfig};
use vgprs_gprs::Sgsn;
use vgprs_h323::Gatekeeper;
use vgprs_media::{EModel, Vocoder};
use vgprs_sim::{Interface, Network, NodeId, SimDuration};
use vgprs_tr22973::{H323Ms, TrZone, TrZoneConfig};
use vgprs_wire::{CallId, Command, Imsi, Message, Msisdn};

use crate::scenarios::{histogram_mean, Single, SingleZone, TrSingleZone};

fn imsi(i: usize) -> Imsi {
    Imsi::parse(&format!("4669200000{i:05}")).expect("valid generated IMSI")
}

fn msisdn(i: usize) -> Msisdn {
    Msisdn::parse(&format!("8869120{i:05}")).expect("valid generated MSISDN")
}

fn alias(i: usize) -> Msisdn {
    Msisdn::parse(&format!("8862200{i:05}")).expect("valid generated alias")
}

/// One row of the C1 (voice quality vs. load) table.
#[derive(Clone, Copy, Debug)]
pub struct C1Row {
    /// Concurrent calls in the cell.
    pub calls: usize,
    /// vGPRS mean one-way frame delay (ms).
    pub vgprs_delay_ms: f64,
    /// vGPRS effective frame loss.
    pub vgprs_loss: f64,
    /// vGPRS MOS.
    pub vgprs_mos: f64,
    /// TR 22.973 mean one-way frame delay (ms).
    pub tr_delay_ms: f64,
    /// TR effective frame loss.
    pub tr_loss: f64,
    /// TR MOS.
    pub tr_mos: f64,
}

/// C1 — "Real-time communication": MOS vs. number of concurrent calls in
/// one cell. vGPRS voice rides dedicated circuit channels; the TR
/// baseline's voice contends for the shared packet channel, which
/// saturates as load grows.
pub fn c1_voice_quality(loads: &[usize], seed: u64) -> Vec<C1Row> {
    let talk = SimDuration::from_secs(20);
    loads
        .iter()
        .map(|&n| {
            let vgprs = VgprsZoneConfig {
                pdch_bps: 160_000,
                ..VgprsZoneConfig::taiwan()
            };
            let tr = TrZoneConfig {
                pdch_bps: 160_000,
                ..TrZoneConfig::taiwan()
            };
            let (vd, vl) = voice_run::<VgprsZone>(vgprs, n, seed, talk);
            let (td, tl) = voice_run::<TrZone>(tr, n, seed, talk);
            let model = EModel::for_codec(&Vocoder::gsm_full_rate());
            C1Row {
                calls: n,
                vgprs_delay_ms: vd,
                vgprs_loss: vl,
                vgprs_mos: model.mos(model.mouth_to_ear(vd), vl),
                tr_delay_ms: td,
                tr_loss: tl,
                tr_mos: model.mos(model.mouth_to_ear(td), tl),
            }
        })
        .collect()
}

/// Runs `n` concurrent MS→terminal calls on one architecture; returns
/// (mean one-way delay ms, loss ratio) at the wireline listeners.
fn voice_run<A: Architecture>(
    cfg: A::Config,
    n: usize,
    seed: u64,
    talk: SimDuration,
) -> (f64, f64) {
    let mut net = Network::new(seed);
    net.set_trace_details(false); // load sweep; nothing scans contents
    let mut zone = A::build(&mut net, cfg);
    let mut mss = Vec::new();
    for i in 0..n {
        let ki = 0x1000 + i as u64;
        mss.push(zone.add_mobile(&mut net, &format!("ms{i}"), imsi(i), ki, msisdn(i)));
        zone.packet()
            .add_terminal(&mut net, format_args!("t{i}"), alias(i));
    }
    for (i, ms) in mss.iter().enumerate() {
        net.inject(
            SimDuration::from_millis(i as u64 * 13),
            *ms,
            Message::Cmd(Command::PowerOn),
        );
    }
    net.run_until_quiescent();
    for (i, ms) in mss.iter().enumerate() {
        net.inject(
            SimDuration::from_millis(i as u64 * 31),
            *ms,
            Message::Cmd(Command::Dial {
                call: CallId(100 + i as u64),
                called: alias(i),
            }),
        );
    }
    net.run_until(net.now() + SimDuration::from_secs(6) + talk);
    // The frames the world's wireline terminals heard.
    let received = net.stats().counter("term.rtp_received");
    let delay = histogram_mean(&net, "term.voice_e2e_ms");
    let expected = (talk.as_millis() / 20) * n as u64;
    let loss = 1.0 - (received as f64 / expected as f64).min(1.0);
    (delay, loss)
}

/// One row of the C2 (call-setup latency) table.
#[derive(Clone, Copy, Debug)]
pub struct C2Row {
    /// Packet-core latency scale factor.
    pub core_scale: u64,
    /// vGPRS mobile-originated post-dial delay (ms).
    pub vgprs_mo_ms: f64,
    /// TR mobile-originated post-dial delay (ms), incl. PDP activation.
    pub tr_mo_ms: f64,
    /// TR MO with the always-on ablation (context never torn down).
    pub tr_mo_always_on_ms: f64,
    /// vGPRS mobile-terminated post-dial delay at the caller (ms).
    pub vgprs_mt_ms: f64,
    /// TR MT post-dial delay, incl. network-initiated activation (ms).
    pub tr_mt_ms: f64,
}

/// C2 — "PDP context activation": call-setup latency with the context
/// pre-activated (vGPRS) vs. activated per call (TR), swept over the
/// packet-core latency.
pub fn c2_setup_latency(core_scales: &[u64], seed: u64) -> Vec<C2Row> {
    core_scales
        .iter()
        .map(|&scale| {
            let lat = scaled_latency(scale);
            let vgprs = |mt| {
                let cfg = VgprsZoneConfig {
                    latency: lat,
                    ..VgprsZoneConfig::taiwan()
                };
                one_call::<VgprsZone>(cfg, seed, mt, |_, _| {}).0
            };
            let tr = |mt, deactivate_when_idle| {
                let cfg = TrZoneConfig {
                    latency: lat,
                    ..TrZoneConfig::taiwan()
                };
                let idle_policy = |net: &mut Network<Message>, ms| {
                    net.node_mut::<H323Ms>(ms)
                        .expect("tr ms")
                        .set_deactivate_when_idle(deactivate_when_idle)
                };
                one_call::<TrZone>(cfg, seed, mt, idle_policy).0
            };
            C2Row {
                core_scale: scale,
                vgprs_mo_ms: vgprs(false),
                tr_mo_ms: tr(false, true),
                tr_mo_always_on_ms: tr(false, false),
                vgprs_mt_ms: vgprs(true),
                tr_mt_ms: tr(true, true),
            }
        })
        .collect()
}

fn scaled_latency(scale: u64) -> LatencyProfile {
    let base = LatencyProfile::default();
    LatencyProfile {
        gb: base.gb * scale,
        gn: base.gn * scale,
        lan: base.lan * scale,
        ..base
    }
}

/// Registers one mobile (after `prepare` has had its way with it) and
/// one terminal on a fresh zone, places one call — from the terminal
/// when `mt` — and runs thirty seconds. Returns the dialler's mean
/// post-dial delay (ms) and the network.
fn one_call<A: Architecture>(
    cfg: A::Config,
    seed: u64,
    mt: bool,
    prepare: impl FnOnce(&mut Network<Message>, NodeId),
) -> (f64, Network<Message>) {
    let mut net = Network::new(seed);
    let mut zone = A::build(&mut net, cfg);
    let ms = zone.add_mobile(&mut net, "ms", imsi(1), 0x1001, msisdn(1));
    let term = zone.packet().add_terminal(&mut net, "t", alias(1));
    prepare(&mut net, ms);
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    let (dialer, called, stat) = if mt {
        (term, msisdn(1), "term.post_dial_delay_ms")
    } else {
        (ms, alias(1), A::POST_DIAL_DELAY_MS)
    };
    net.inject(
        SimDuration::ZERO,
        dialer,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called,
        }),
    );
    net.run_until(net.now() + SimDuration::from_secs(30));
    (histogram_mean(&net, stat), net)
}

/// One row of the C3 (context memory) table.
#[derive(Clone, Copy, Debug)]
pub struct C3Row {
    /// Registered subscribers.
    pub subscribers: usize,
    /// Subscribers simultaneously on a call.
    pub active_calls: usize,
    /// PDP contexts resident at the vGPRS SGSN.
    pub vgprs_contexts: usize,
    /// PDP contexts resident at the TR SGSN.
    pub tr_contexts: usize,
}

/// C3 — the context-memory tradeoff the paper concedes: vGPRS keeps one
/// signaling context per registered subscriber (plus one voice context
/// per active call); the TR keeps contexts only for active calls.
pub fn c3_context_memory(populations: &[(usize, usize)], seed: u64) -> Vec<C3Row> {
    populations
        .iter()
        .map(|&(subs, active)| {
            assert!(active <= subs, "active calls cannot exceed subscribers");
            C3Row {
                subscribers: subs,
                active_calls: active,
                vgprs_contexts: context_count::<VgprsZone>(
                    VgprsZoneConfig::taiwan(),
                    subs,
                    active,
                    seed,
                ),
                tr_contexts: context_count::<TrZone>(
                    TrZoneConfig {
                        // generous air capacity so every call connects
                        pdch_bps: 2_000_000,
                        ..TrZoneConfig::taiwan()
                    },
                    subs,
                    active,
                    seed,
                ),
            }
        })
        .collect()
}

fn context_count<A: Architecture>(cfg: A::Config, subs: usize, active: usize, seed: u64) -> usize {
    let mut net = Network::new(seed);
    net.set_trace_details(false);
    let mut zone = A::build(&mut net, cfg);
    let mss: Vec<NodeId> = (0..subs)
        .map(|i| {
            let ki = 0x2000 + i as u64;
            zone.add_mobile(&mut net, &format!("ms{i}"), imsi(i), ki, msisdn(i))
        })
        .collect();
    // The wireline far ends join the packet half every architecture
    // stands on; its SGSN holds the contexts counted below.
    let packet = zone.packet();
    for i in 0..active {
        packet.add_terminal(&mut net, format_args!("t{i}"), alias(i));
    }
    let sgsn = packet.sgsn;
    for (i, ms) in mss.iter().enumerate() {
        net.inject(
            SimDuration::from_millis(i as u64 * 7),
            *ms,
            Message::Cmd(Command::PowerOn),
        );
    }
    net.run_until_quiescent();
    for (i, ms) in mss.iter().take(active).enumerate() {
        net.inject(
            SimDuration::from_millis(i as u64 * 17),
            *ms,
            Message::Cmd(Command::Dial {
                call: CallId(300 + i as u64),
                called: alias(i),
            }),
        );
    }
    net.run_until(net.now() + SimDuration::from_secs(8));
    net.node::<Sgsn>(sgsn).expect("sgsn").active_pdp_count()
}

/// One row of the C4 (signaling volume + confidentiality) table.
#[derive(Clone, Debug)]
pub struct C4Row {
    /// Procedure name.
    pub procedure: &'static str,
    /// Signaling messages the procedure generated under vGPRS.
    pub vgprs_messages: usize,
    /// Signaling messages under the TR baseline.
    pub tr_messages: usize,
}

/// The confidentiality half of C4.
#[derive(Clone, Copy, Debug)]
pub struct C4Confidentiality {
    /// IMSIs the vGPRS gatekeeper learned (the paper's claim: zero).
    pub vgprs_imsi_disclosures: usize,
    /// IMSIs the TR gatekeeper learned (one per subscriber).
    pub tr_imsi_disclosures: usize,
}

/// C4 — signaling message counts per procedure plus the IMSI exposure
/// comparison of Section 6 ("IMSI is considered confidential to the GPRS
/// network operator").
pub fn c4_signaling(seed: u64) -> (Vec<C4Row>, C4Confidentiality) {
    let (v_reg, v_gk_leaks, v_call) = signaling_counts(SingleZone::build(seed));
    let (t_reg, t_gk_leaks, t_call) = signaling_counts(TrSingleZone::build(seed));
    (
        vec![
            C4Row {
                procedure: "registration",
                vgprs_messages: v_reg,
                tr_messages: t_reg,
            },
            C4Row {
                procedure: "MO call + release",
                vgprs_messages: v_call,
                tr_messages: t_call,
            },
        ],
        C4Confidentiality {
            vgprs_imsi_disclosures: v_gk_leaks,
            tr_imsi_disclosures: t_gk_leaks,
        },
    )
}

/// Messages a freshly registered world has traced, the IMSIs its
/// gatekeeper has learned, and the messages of an MO call + release.
fn signaling_counts<A: Architecture>(mut s: Single<A>) -> (usize, usize, usize) {
    let registration = s.net.trace().messages().count();
    let gk = s.zone.packet().gk;
    let leaks = s.net.node::<Gatekeeper>(gk).expect("gk").imsi_disclosures();
    s.net.trace_mut().clear();
    s.call_from_ms(CallId(1), SimDuration::from_secs(2));
    s.hangup_from_ms();
    (registration, leaks, s.net.trace().messages().count())
}

/// The C5 (handoff cost) measurements.
#[derive(Clone, Copy, Debug)]
pub struct C5Report {
    /// Handoffs completed.
    pub handoffs: u64,
    /// Mean downlink frame delay before the handoff (ms).
    pub delay_before_ms: f64,
    /// Mean downlink frame delay after the handoff (ms) — the anchor +
    /// E-trunk detour the paper accepts for coexistence (Section 7).
    pub delay_after_ms: f64,
}

/// C5 — Section 7's coexistence cost: the anchor VMSC stays in the path
/// after inter-system handoff, adding the inter-MSC trunk's latency to
/// every frame.
pub fn c5_handoff_cost(seed: u64) -> C5Report {
    crate::scenarios::intersystem_handoff_windowed(seed)
}

/// The vGPRS idle-deactivation ablation (the variant the paper names in
/// Section 6 but rejects: "this approach may significantly increase the
/// call setup time").
#[derive(Clone, Copy, Debug)]
pub struct IdleAblationReport {
    /// Post-dial delay with the standard always-on signaling context (ms).
    pub standard_mo_ms: f64,
    /// Post-dial delay when the context is torn down while idle and
    /// re-activated per call (ms).
    pub idle_mode_mo_ms: f64,
    /// Context re-activations the idle mode performed.
    pub reactivations: u64,
}

/// Measures the paper's own rejected variant of vGPRS.
pub fn c2_idle_ablation(seed: u64) -> IdleAblationReport {
    let run = |deactivate: bool| {
        let cfg = VgprsZoneConfig {
            deactivate_idle_contexts: deactivate,
            ..VgprsZoneConfig::taiwan()
        };
        let (delay, net) = one_call::<VgprsZone>(cfg, seed, false, |_, _| {});
        (delay, net.stats().counter("vmsc.context_reactivations"))
    };
    let (standard, _) = run(false);
    let (idle, reactivations) = run(true);
    IdleAblationReport {
        standard_mo_ms: standard,
        idle_mode_mo_ms: idle,
        reactivations,
    }
}

/// Per-interface traffic for one full vGPRS register + call cycle
/// (Figure 2/3 evidence).
#[derive(Clone, Debug)]
pub struct InterfaceRow {
    /// Interface name.
    pub interface: Interface,
    /// Messages observed on it.
    pub messages: usize,
}

/// Counts per-interface traffic for one full vGPRS register + call cycle.
pub fn interface_usage(seed: u64) -> Vec<InterfaceRow> {
    let mut s = SingleZone::build(seed);
    s.call_from_ms(CallId(1), SimDuration::from_secs(2));
    s.hangup_from_ms();
    Interface::ALL
        .iter()
        .map(|&iface| InterfaceRow {
            interface: iface,
            messages: s.net.trace().count_interface(iface),
        })
        .collect()
}
