//! The paper's own rejected design variant, measured: "vGPRS registration
//! and call procedures can be easily modified to deactivate the PDP
//! contexts when the MSs are idle. However, this approach may
//! significantly increase the call setup time" (Section 6).

use vgprs_bench::experiments::c2_idle_ablation;
use vgprs_core::{VgprsZone, VgprsZoneConfig};
use vgprs_gprs::Sgsn;
use vgprs_gsm::{MobileStation, MsState};
use vgprs_sim::{Network, SimDuration};
use vgprs_wire::{CallId, Command, Imsi, Message, Msisdn};

#[test]
fn idle_deactivation_increases_setup_time() {
    let r = c2_idle_ablation(42);
    assert!(
        r.idle_mode_mo_ms > r.standard_mo_ms + 10.0,
        "the reactivation round trip must cost real time: {r:?}"
    );
    assert_eq!(r.reactivations, 1, "{r:?}");
}

#[test]
fn idle_mode_frees_sgsn_contexts_between_calls() {
    let mut net = Network::new(42);
    let mut zone = VgprsZone::build(
        &mut net,
        VgprsZoneConfig {
            deactivate_idle_contexts: true,
            ..VgprsZoneConfig::taiwan()
        },
    );
    let imsi: Imsi = "466920000000001".parse().unwrap();
    let msisdn: Msisdn = "886912000001".parse().unwrap();
    let alias: Msisdn = "886220001111".parse().unwrap();
    let ms = zone
        .access
        .add_subscriber(&mut net, "ms", imsi, 0xABCD, msisdn);
    zone.packet.add_terminal(&mut net, "t", alias);
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
    net.run_until_quiescent();
    // Registered, but no resident context (unlike standard vGPRS).
    assert_eq!(
        net.node::<Sgsn>(zone.packet.sgsn)
            .unwrap()
            .active_pdp_count(),
        0
    );
    assert_eq!(net.stats().counter("vmsc.signaling_context_deactivated"), 1);

    // A call still works (context reactivates transparently) …
    net.inject(
        SimDuration::ZERO,
        ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: alias,
        }),
    );
    net.run_until(net.now() + SimDuration::from_secs(8));
    assert_eq!(net.node::<MobileStation>(ms).unwrap().state(), MsState::Active);

    // … and everything is torn down again afterwards.
    net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::Hangup));
    net.run_until_quiescent();
    assert_eq!(
        net.node::<MobileStation>(ms).unwrap().state(),
        MsState::Idle
    );
    assert_eq!(
        net.node::<Sgsn>(zone.packet.sgsn)
            .unwrap()
            .active_pdp_count(),
        0
    );
}
