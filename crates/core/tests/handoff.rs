//! Ladder conformance for the paper's Figure 9: inter-VMSC handoff.
//!
//! The behavioral handoff tests (voice keeps flowing, anchor keeps the
//! H.323 leg) live in the workspace-level `tests/handoff.rs`; this file
//! holds the move to `vgprs_core::figures::FIGURE_9`, like the Figure
//! 4/5/6 ladders in `registration.rs` and `calls.rs`, so a reordering of
//! the MAP dialogue fails loudly with the rendered ladder.

use vgprs_core::figures::{vmsc_neighbor, HandoffWorld, FIGURE_9};
use vgprs_core::Vmsc;
use vgprs_gsm::{MobileStation, MsState};
use vgprs_sim::{Network, SimDuration, SimTime};
use vgprs_wire::{CallId, CellId, Command, Imsi, Message, Msisdn};

#[test]
fn figure9_intervmsc_handoff_ladder() {
    let HandoffWorld {
        home: mut r,
        neighbor,
    } = HandoffWorld::build(42, vmsc_neighbor);
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: r.term_alias,
        }),
    );
    r.net.run_until(SimTime::from_micros(8_000_000));
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).expect("ms").state(),
        MsState::Active,
        "precondition: call connected before the move"
    );
    r.net.trace_mut().clear();

    // Mid-call, the MS reports zone 2's cell as stronger.
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(2) }),
    );
    r.net.run_until(SimTime::from_micros(12_000_000));

    FIGURE_9.assert_holds(r.net.trace());

    // Anchor keeps the H.323 leg, target took the radio leg.
    assert_eq!(r.net.stats().counter("vmsc.handover_anchored"), 1);
    assert_eq!(r.net.stats().counter("vmsc.handover_target_completed"), 1);
    let handset = r.net.node::<MobileStation>(r.ms).expect("ms");
    assert_eq!(r.net.stats().counter("ms.handoffs"), 1);
    assert_eq!(
        handset.state(),
        MsState::Active,
        "call survives the handoff"
    );

    // The visitor call record at the target carries the real subscriber,
    // not a placeholder: the E-trunk leg is attributable.
    let target = r.net.node::<Vmsc>(neighbor.msc).expect("vmsc2");
    assert_eq!(target.active_calls(), 1);

    // Voice still reaches both parties after the handoff: the world's
    // one handset and one terminal.
    let heard = |net: &Network<Message>| {
        let stats = net.stats();
        let ms = stats.counter("ms.voice_frames_received");
        (ms, stats.counter("term.rtp_received"))
    };
    let (frames_at_move, term_at_move) = heard(&r.net);
    r.net.run_until(SimTime::from_micros(16_000_000));
    let (handset, terminal) = heard(&r.net);
    assert!(
        handset > frames_at_move + 50,
        "downlink voice continues through anchor → E-trunk → target"
    );
    assert!(
        terminal > term_at_move + 50,
        "uplink voice continues through target → E-trunk → anchor"
    );
    let anchor = r.net.node::<Vmsc>(r.zone.access.msc).expect("vmsc1");
    assert_eq!(anchor.active_calls(), 1, "anchor still owns the H.323 leg");
}

#[test]
fn figure9_handoff_to_unknown_cell_is_refused() {
    let mut r = HandoffWorld::build(42, vmsc_neighbor).home;
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::Dial {
            call: CallId(1),
            called: r.term_alias,
        }),
    );
    r.net.run_until(SimTime::from_micros(8_000_000));
    r.net.trace_mut().clear();
    // A measurement report for a cell no neighbor VMSC serves: the
    // anchor must not start a MAP dialogue.
    r.net.inject(
        SimDuration::ZERO,
        r.ms,
        Message::Cmd(Command::MoveToCell { cell: CellId(99) }),
    );
    r.net.run_until(SimTime::from_micros(10_000_000));
    assert_eq!(r.net.stats().counter("vmsc.handover_unknown_cell"), 1);
    assert_eq!(r.net.trace().count_label("MAP_Prepare_Handover"), 0);
    assert_eq!(
        r.net.node::<MobileStation>(r.ms).expect("ms").state(),
        MsState::Active,
        "call unaffected"
    );
}

/// Both handsets of a mobile-to-mobile call carry one call id, and the E
/// interface names only the call: the leg that was handed over must stay
/// the one the target's messages reach, whatever the other handset
/// reports meanwhile.
#[test]
fn one_leg_of_a_mobile_to_mobile_call_hands_over() {
    let mut r = HandoffWorld::build(42, vmsc_neighbor).home;
    let b_number = Msisdn::parse("886912000002").expect("valid");
    let b = r.zone.access.add_subscriber(
        &mut r.net,
        "ms2",
        Imsi::parse("466920000000002").expect("valid"),
        0xBCDE,
        b_number,
    );
    let command = |net: &mut Network<Message>, ms, command| {
        net.inject(SimDuration::ZERO, ms, Message::Cmd(command));
    };
    // Each handset hears only the other: what it has heard is at most
    // what the other sent, and at least what both heard less what it
    // sent itself.
    let sent = |net: &Network<Message>, ms| {
        let handset = net.node::<MobileStation>(ms).expect("ms");
        assert_eq!(handset.state(), MsState::Active);
        u64::from(handset.frames_sent())
    };
    let heard = |net: &Network<Message>| net.stats().counter("ms.voice_frames_received");
    command(&mut r.net, b, Command::PowerOn);
    r.net.run_until_quiescent();
    let dial = Command::Dial {
        call: CallId(1),
        called: b_number,
    };
    command(&mut r.net, r.ms, dial);
    r.net.run_until(r.net.now() + SimDuration::from_secs(8));

    // A moves to zone 2; then B reports a cell nobody serves, and then
    // zone 2's, where its call already has a leg.
    command(&mut r.net, r.ms, Command::MoveToCell { cell: CellId(2) });
    r.net.run_until(r.net.now() + SimDuration::from_secs(4));
    assert_eq!(r.net.stats().counter("vmsc.handover_anchored"), 1);
    command(&mut r.net, b, Command::MoveToCell { cell: CellId(99) });
    r.net.run_until(r.net.now() + SimDuration::from_secs(1));
    command(&mut r.net, b, Command::MoveToCell { cell: CellId(2) });
    r.net.run_until(r.net.now() + SimDuration::from_secs(1));
    assert_eq!(r.net.stats().counter("vmsc.handover_unknown_cell"), 1);
    assert_eq!(r.net.stats().counter("vmsc.handover_refused"), 1);
    assert_eq!(r.net.stats().counter("vmsc.handovers_started"), 1);

    // A's voice still crosses the trunk into A's leg, and B's into B's.
    let (a_heard, b_heard) = (sent(&r.net, b), sent(&r.net, r.ms));
    r.net.run_until(r.net.now() + SimDuration::from_secs(2));
    let a_now = heard(&r.net) - sent(&r.net, r.ms);
    let b_now = heard(&r.net) - sent(&r.net, b);
    assert!(
        a_now > a_heard + 50,
        "A hears B after B's reports: {a_heard} → at least {a_now}"
    );
    assert!(
        b_now > b_heard + 50,
        "B hears A after B's reports: {b_heard} → at least {b_now}"
    );

    // B hangs up: the anchor lets go of both legs.
    command(&mut r.net, b, Command::Hangup);
    r.net.run_until(r.net.now() + SimDuration::from_secs(2));
    let anchor = r.net.node::<Vmsc>(r.zone.access.msc).expect("vmsc1");
    assert_eq!(anchor.active_calls(), 0);
    assert_eq!(r.net.stats().counter("gk.disengages"), 2);
    assert_eq!(r.net.stats().counter("vmsc.out_of_state"), 0);
}
