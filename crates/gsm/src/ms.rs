//! The standard GSM mobile station (handset).
//!
//! This is the whole point of vGPRS: the handset is *unmodified*. It
//! speaks plain GSM 04.08 over the air — location update, authentication,
//! ciphering, call control — and has no vocoder-to-IP or H.323 capability.
//! The same node works against a classic [`GsmMsc`](crate::GsmMsc) and
//! against a `Vmsc`, which is exactly the paper's claim.

use std::fmt;

use vgprs_media::{Talk, VoiceSink, VoiceSource};
use vgprs_sim::{Context, Interface, Node, NodeId, SimTime, Stamp, TimerToken, Tuning};
use vgprs_wire::{
    CallId, Cause, CellId, Command, Dtap, Imsi, Issued, Lai, Message, MsIdentity, Msisdn, Tmsi,
    ANSWER_DELAY,
};

use crate::auth::{a3_sres, Ki};

/// Timer tag: auto-answer an alerting call (the voice tick is
/// [`VoiceSource::TICK`]).
const TIMER_ANSWER: u64 = 2;

/// Where a handset tallies the frames it hears.
const SINK: VoiceSink = VoiceSink {
    frames: "ms.voice_frames_received",
    delay_ms: "ms.voice_e2e_ms",
};

/// Static configuration of a mobile station.
#[derive(Clone, Debug)]
pub struct MsConfig {
    /// Subscriber identity (on the SIM).
    pub imsi: Imsi,
    /// Secret key (on the SIM).
    pub ki: Ki,
    /// Location area broadcast by the serving cell.
    pub lai: Lai,
}

/// Observable call/registration state of an MS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsState {
    /// Powered off.
    Off,
    /// Location update in progress.
    Registering,
    /// Registered and idle.
    Idle,
    /// Sent CM Service Request, waiting for accept (MO).
    RequestingService,
    /// Sent Setup, waiting for progress (MO).
    AwaitingProgress,
    /// Heard ringback (MO, remote is alerting).
    Ringback,
    /// Responded to paging, waiting for the incoming setup (MT).
    AnsweringPage,
    /// Ringing locally (MT).
    Ringing,
    /// Sent Connect, waiting for the network's acknowledgement (MT).
    AwaitingConnectAck,
    /// Call established.
    Active,
    /// Clearing in progress.
    Clearing,
}

/// The cells an MS can be handed off or reselect to (cell → BTS node),
/// held inline: every world gives a handset at most two.
#[derive(Clone, Copy)]
struct Neighbors {
    cells: [(CellId, NodeId); Neighbors::CAP],
    len: u8,
}

impl Neighbors {
    const CAP: usize = 2;

    /// No neighbors; `filler` only fills the unused slots.
    fn new(filler: NodeId) -> Self {
        Neighbors {
            cells: [(CellId(0), filler); Self::CAP],
            len: 0,
        }
    }

    fn push(&mut self, cell: CellId, bts: NodeId) {
        let slot = self.cells.get_mut(usize::from(self.len));
        let slot = slot.unwrap_or_else(|| panic!("an MS holds at most {} neighbor cells", Self::CAP));
        *slot = (cell, bts);
        self.len += 1;
    }

    /// The BTS serving `cell`, the first declared if several do.
    fn find(&self, cell: CellId) -> Option<NodeId> {
        let held = &self.cells[..usize::from(self.len)];
        held.iter().find(|(c, _)| *c == cell).map(|&(_, bts)| bts)
    }
}

impl fmt::Debug for Neighbors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(&self.cells[..usize::from(self.len)])
            .finish()
    }
}

/// What an MS holds only while it has a call, boxed so that a handset
/// at rest pays one pointer for it. The box goes once nothing in it can
/// be read again: no call and no voice (an unread called number is not
/// worth keeping).
#[derive(Debug, Default)]
struct MsCall {
    call: Option<CallId>,
    pending_called: Option<Msisdn>,
    /// The call followed the handset to another cell.
    handed_over: bool,
    talk: Talk,
}

/// The mobile station node. It keeps what outlives a call and nothing
/// that `Stats` counts already: its frames, connected calls and handoffs
/// are `ms.voice_frames_received`, `ms.calls_connected` and
/// `ms.handoffs`.
#[derive(Debug)]
pub struct MobileStation {
    imsi: Imsi,
    ki: Ki,
    lai: Lai,
    serving_bts: NodeId,
    neighbors: Neighbors,
    state: MsState,
    tmsi: Issued<Tmsi>,
    voice: VoiceSource,
    registered_at: Stamp,
    /// The current dial's instant, until it connects or ends.
    dialed_at: Stamp,
    /// Why the last call ended before it connected; cleared by a dial.
    failure: Option<Cause>,
    leg: Option<Box<MsCall>>,
}

impl MobileStation {
    /// Creates a powered-off MS camped on `serving_bts`.
    pub fn new(config: MsConfig, serving_bts: NodeId) -> Self {
        MobileStation {
            imsi: config.imsi,
            ki: config.ki,
            lai: config.lai,
            serving_bts,
            neighbors: Neighbors::new(serving_bts),
            state: MsState::Off,
            tmsi: Issued::NONE,
            voice: VoiceSource::default(),
            registered_at: Stamp::default(),
            dialed_at: Stamp::default(),
            failure: None,
            leg: None,
        }
    }

    /// Declares a neighbor cell the MS could be handed off to. The testbed
    /// must also provision the Um link to that BTS.
    ///
    /// # Panics
    ///
    /// Panics on a third neighbor: an MS holds two inline.
    pub fn add_neighbor(&mut self, cell: CellId, bts: NodeId) {
        self.neighbors.push(cell, bts);
    }

    /// Current state.
    pub fn state(&self) -> MsState {
        self.state
    }

    /// The cause the handset's last call was released with before it
    /// connected, if it was; a dial clears it. Read with [`state`]
    /// (`Active` means the dial connected), it says how a dial ended.
    ///
    /// [`state`]: MobileStation::state
    pub fn dial_failure(&self) -> Option<Cause> {
        self.failure
    }

    /// Whether the current call followed the handset to another cell.
    /// Its release then reaches only the MSC the handset is on now, not
    /// the one that anchors the far end (that is left to its owner).
    pub fn call_handed_over(&self) -> bool {
        self.leg.as_ref().is_some_and(|leg| leg.handed_over)
    }

    /// The voice frames the handset has sent, over every call.
    pub fn frames_sent(&self) -> u32 {
        self.voice.frames_sent()
    }

    /// Promises the handset's voice source that nothing changes its
    /// call's frames before `until`; see [`VoiceSource::set_horizon`].
    pub fn set_voice_horizon(&mut self, until: SimTime) {
        self.voice.set_horizon(until);
    }

    /// The TMSI allocated by the serving VLR, if registered.
    pub fn tmsi(&self) -> Option<Tmsi> {
        self.tmsi.get()
    }

    /// The subscriber's IMSI.
    pub fn imsi(&self) -> Imsi {
        self.imsi
    }

    /// The identity the MS presents: TMSI when it has one, IMSI otherwise.
    fn identity(&self) -> MsIdentity {
        match self.tmsi.get() {
            Some(t) => MsIdentity::Tmsi(t),
            None => MsIdentity::Imsi(self.imsi),
        }
    }

    /// True if a page for `identity` is addressed to this subscriber.
    fn is_paged(&self, identity: MsIdentity) -> bool {
        match identity {
            MsIdentity::Imsi(i) => i == self.imsi,
            MsIdentity::Tmsi(t) => Some(t) == self.tmsi.get(),
        }
    }

    /// The current call, if any.
    fn call(&self) -> Option<CallId> {
        self.leg.as_ref().and_then(|leg| leg.call)
    }

    /// The call state, boxed on first use.
    fn leg(&mut self) -> &mut MsCall {
        self.leg.get_or_insert_with(Box::default)
    }

    /// Drops the call state once nothing in it can be read again.
    fn settle(&mut self) {
        if self.leg.as_ref().is_some_and(|leg| leg.call.is_none() && !leg.talk.talking()) {
            self.leg = None;
        }
    }

    fn send_um(&self, ctx: &mut Context<'_, Message>, dtap: Dtap) {
        ctx.send(self.serving_bts, Message::Um(dtap));
    }

    fn stop_voice(&mut self, ctx: &mut Context<'_, Message>) {
        if let Some(leg) = &mut self.leg {
            leg.talk.stop(ctx);
        }
        self.settle();
    }

    fn enter_active(&mut self, ctx: &mut Context<'_, Message>) {
        self.state = MsState::Active;
        ctx.count("ms.calls_connected");
        if let Some(at) = self.dialed_at.take() {
            ctx.observe_duration("ms.call_setup_ms", ctx.now().duration_since(at));
        }
        self.leg().talk.start(ctx);
    }

    fn clear_call(&mut self, ctx: &mut Context<'_, Message>) {
        self.stop_voice(ctx);
        self.leg = None;
        // A dial that connected has read its instant; one that did not
        // leaves none for the next call to read.
        self.dialed_at.take();
        self.state = MsState::Idle;
    }

    /// Whether a call in this state has not connected yet.
    fn setting_up(&self) -> bool {
        matches!(
            self.state,
            MsState::RequestingService
                | MsState::AwaitingProgress
                | MsState::Ringback
                | MsState::AnsweringPage
                | MsState::Ringing
                | MsState::AwaitingConnectAck
        )
    }

    /// Switched on at `at`: registration starts.
    fn power_on(&mut self, ctx: &mut Context<'_, Message>, at: SimTime) {
        self.state = MsState::Registering;
        self.registered_at.set(at);
        ctx.count("ms.power_on");
    }

    /// The network accepted the location update.
    fn registered(&mut self, ctx: &mut Context<'_, Message>, tmsi: Option<Tmsi>) {
        if let Some(t) = tmsi {
            self.tmsi = t.into();
        }
        self.state = MsState::Idle;
        ctx.count("ms.registered");
        if let Some(at) = self.registered_at.take() {
            ctx.observe_duration("ms.registration_ms", ctx.now().duration_since(at));
        }
    }

    /// Writes what switching on at `powered_on` and the accepted
    /// location update (Figure 4, steps 1.1 and 1.6) leave here: idle
    /// under `tmsi`. Call it at the instant the accept arrives.
    pub fn provision_registered(
        &mut self,
        ctx: &mut Context<'_, Message>,
        powered_on: SimTime,
        tmsi: Tmsi,
    ) {
        assert_eq!(self.state, MsState::Off, "a provisioned MS starts switched off");
        self.power_on(ctx, powered_on);
        self.registered(ctx, Some(tmsi));
    }

    fn handle_command(&mut self, ctx: &mut Context<'_, Message>, cmd: Command) {
        match cmd {
            Command::PowerOn => {
                if self.state != MsState::Off {
                    return;
                }
                self.power_on(ctx, ctx.now());
                self.send_um(
                    ctx,
                    Dtap::LocationUpdateRequest {
                        identity: self.identity(),
                        lai: self.lai,
                    },
                );
            }
            Command::PowerOff => {
                self.stop_voice(ctx);
                self.state = MsState::Off;
            }
            Command::Dial { call, called } => {
                if self.state != MsState::Idle {
                    ctx.count("ms.dial_while_busy");
                    return;
                }
                self.state = MsState::RequestingService;
                let leg = self.leg();
                leg.call = Some(call);
                leg.pending_called = Some(called);
                self.dialed_at.set(ctx.now());
                self.failure = None;
                self.send_um(
                    ctx,
                    Dtap::CmServiceRequest {
                        identity: self.identity(),
                    },
                );
            }
            Command::Hangup => {
                // A call is hung up in any state that knows its id: a
                // dial still setting up, a ringing handset, a call up.
                let live = self.setting_up() || self.state == MsState::Active;
                if let (true, Some(call)) = (live, self.call()) {
                    self.stop_voice(ctx);
                    self.state = MsState::Clearing;
                    self.send_um(
                        ctx,
                        Dtap::Disconnect {
                            call,
                            cause: Cause::NormalClearing,
                        },
                    );
                }
            }
            Command::StartTalking => {
                if self.state == MsState::Active {
                    self.leg().talk.start(ctx);
                }
            }
            Command::StopTalking => self.stop_voice(ctx),
            Command::MoveToCell { cell } => {
                if self.state == MsState::Active {
                    // In-call movement: report the better cell; the network
                    // decides the handoff (paper §7).
                    self.send_um(ctx, Dtap::MeasurementReport { cell });
                } else if !matches!(self.state, MsState::Idle | MsState::Off) {
                    // A handset on a dedicated channel (a location update
                    // or a call) does not reselect: the procedure would go
                    // on in the old cell while it listened to the new one.
                    ctx.count("ms.reselection_while_dedicated");
                } else if let Some(bts) = (self.neighbors.find(cell))
                    .filter(|&bts| bts != self.serving_bts)
                {
                    // Idle movement: re-camp and re-register (not on the
                    // cell it is camped on already).
                    self.serving_bts = bts;
                    if self.state == MsState::Idle {
                        self.state = MsState::Registering;
                        self.registered_at.set(ctx.now());
                        self.send_um(
                            ctx,
                            Dtap::LocationUpdateRequest {
                                identity: self.identity(),
                                lai: self.lai,
                            },
                        );
                    }
                }
            }
            // Fault-injection commands target infrastructure nodes, not
            // handsets.
            Command::Crash | Command::Blackhole | Command::Restore | Command::Resync => {
                ctx.count("ms.unexpected_command");
            }
        }
    }

    fn answer(&mut self, ctx: &mut Context<'_, Message>) {
        if let (MsState::Ringing, Some(call)) = (self.state, self.call()) {
            self.state = MsState::AwaitingConnectAck;
            self.send_um(ctx, Dtap::Connect { call });
        }
    }

    fn handle_dtap(&mut self, ctx: &mut Context<'_, Message>, dtap: Dtap) {
        match dtap {
            Dtap::AuthenticationRequest { rand } => {
                self.send_um(
                    ctx,
                    Dtap::AuthenticationResponse {
                        sres: a3_sres(self.ki, rand),
                    },
                );
            }
            Dtap::CipherModeCommand => self.send_um(ctx, Dtap::CipherModeComplete),
            Dtap::ChannelAssignment { .. } => {
                self.send_um(ctx, Dtap::ChannelAssignmentComplete)
            }
            Dtap::LocationUpdateAccept { tmsi } => self.registered(ctx, tmsi),
            Dtap::LocationUpdateReject { .. } => {
                if self.tmsi.take().is_some() {
                    // Retry with the permanent identity, as GSM prescribes
                    // when the network does not recognize the TMSI.
                    ctx.count("ms.registration_retry_with_imsi");
                    self.send_um(
                        ctx,
                        Dtap::LocationUpdateRequest {
                            identity: MsIdentity::Imsi(self.imsi),
                            lai: self.lai,
                        },
                    );
                } else {
                    ctx.count("ms.registration_rejected");
                    self.state = MsState::Off;
                }
            }
            Dtap::CmServiceAccept => {
                let called = self.leg.as_mut().and_then(|leg| leg.pending_called.take());
                if let (MsState::RequestingService, Some(call), Some(called)) =
                    (self.state, self.call(), called)
                {
                    self.state = MsState::AwaitingProgress;
                    self.send_um(ctx, Dtap::Setup { call, called });
                }
            }
            Dtap::CmServiceReject { cause } => {
                ctx.count("ms.service_rejected");
                self.failure = Some(cause);
                self.dialed_at.take();
                if let Some(leg) = &mut self.leg {
                    (leg.call, leg.pending_called) = (None, None);
                }
                self.settle();
                self.state = MsState::Idle;
            }
            Dtap::CallProceeding { .. } => ctx.count("ms.call_proceeding"),
            Dtap::Alerting { call } => {
                if self.state == MsState::AwaitingProgress && self.call() == Some(call) {
                    self.state = MsState::Ringback;
                    if let Some(at) = self.dialed_at.get() {
                        ctx.observe_duration(
                            "ms.post_dial_delay_ms",
                            ctx.now().duration_since(at),
                        );
                    }
                }
            }
            Dtap::Connect { call } => {
                if self.state == MsState::Ringback && self.call() == Some(call) {
                    self.send_um(ctx, Dtap::ConnectAck { call });
                    self.enter_active(ctx);
                }
            }
            Dtap::ConnectAck { call } => {
                if self.state == MsState::AwaitingConnectAck && self.call() == Some(call) {
                    self.enter_active(ctx);
                }
            }
            Dtap::Paging { identity } => {
                if self.is_paged(identity) && self.state == MsState::Idle {
                    self.state = MsState::AnsweringPage;
                    self.send_um(ctx, Dtap::PagingResponse { identity });
                }
            }
            Dtap::MtSetup { call, .. } => {
                if self.state == MsState::AnsweringPage {
                    self.state = MsState::Ringing;
                    self.leg().call = Some(call);
                    ctx.count("ms.ringing");
                    self.send_um(ctx, Dtap::Alerting { call });
                    ctx.set_timer(ANSWER_DELAY, TIMER_ANSWER);
                }
            }
            Dtap::Disconnect { call, cause } => {
                // A handset answering a page learns the call's id only
                // with its setup; a release before then is for it too.
                let paged = self.state == MsState::AnsweringPage;
                if self.call() == Some(call) || paged {
                    if self.setting_up() {
                        self.failure = Some(cause);
                    }
                    self.stop_voice(ctx);
                    self.state = MsState::Clearing;
                    self.send_um(ctx, Dtap::Release { call });
                }
            }
            Dtap::Release { call } => {
                if self.call() == Some(call) {
                    self.send_um(ctx, Dtap::ReleaseComplete { call });
                }
            }
            Dtap::ReleaseComplete { .. } => {}
            Dtap::ChannelRelease => self.clear_call(ctx),
            Dtap::HandoverCommand { cell, ho_ref } => {
                if let Some(bts) = self.neighbors.find(cell) {
                    self.serving_bts = bts;
                    self.leg().handed_over = true;
                    ctx.count("ms.handoffs");
                    // HandoverComplete travels via the NEW cell.
                    self.send_um(ctx, Dtap::HandoverComplete { ho_ref });
                } else {
                    ctx.count("ms.handover_unknown_cell");
                }
            }
            Dtap::VoiceFrame {
                origin_us, frames, ..
            } => SINK.receive(ctx, origin_us, frames),
            Dtap::LocationUpdateRequest { .. }
            | Dtap::AuthenticationResponse { .. }
            | Dtap::CipherModeComplete
            | Dtap::CmServiceRequest { .. }
            | Dtap::ChannelAssignmentComplete
            | Dtap::ChannelAssignmentFailure { .. }
            | Dtap::MeasurementReport { .. }
            | Dtap::HandoverRequired { .. }
            | Dtap::HandoverComplete { .. }
            | Dtap::Setup { .. }
            | Dtap::PagingResponse { .. } => ctx.count("ms.unhandled_dtap"),
        }
    }
}

impl Node<Message> for MobileStation {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Internal, Message::Cmd(cmd)) => self.handle_command(ctx, cmd),
            (Interface::Um, Message::Um(dtap)) => {
                // After a handoff the old cell may still flush messages
                // (e.g. the anchor's channel release); a real MS has left
                // that channel and never hears them.
                if from != self.serving_bts {
                    ctx.count_by("ms.ignored_stale_cell", dtap.frames().into());
                    return;
                }
                self.handle_dtap(ctx, dtap)
            }
            _ => ctx.count("ms.unexpected_message"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _token: TimerToken, tag: u64) {
        match tag {
            VoiceSource::TICK => {
                let call = self.call().filter(|_| self.state == MsState::Active);
                let Some(leg) = self.leg.as_deref_mut() else {
                    return;
                };
                let Some(sent) = self.voice.fire(ctx, &mut leg.talk, call.is_some()) else {
                    return;
                };
                ctx.count_by("ms.voice_frames_sent", sent.count.into());
                let voice = Dtap::VoiceFrame {
                    call: call.expect("a live source has a call"),
                    seq: sent.seq,
                    origin_us: sent.origin_us,
                    frames: sent.count,
                };
                self.send_um(ctx, voice);
                self.leg().talk.rearm(ctx, sent);
            }
            TIMER_ANSWER => self.answer(ctx),
            _ => {}
        }
    }

    /// A page for somebody else is the one thing a handset discards
    /// without a trace, so the cell's broadcast need not wake it — unless
    /// it comes from a cell the MS has left, which `on_message` counts.
    fn hears(&self, from: NodeId, msg: &Message) -> bool {
        match msg {
            Message::Um(Dtap::Paging { identity }) => {
                from != self.serving_bts || self.is_paged(*identity)
            }
            _ => true,
        }
    }

    /// The serving cell's pages concern the MS by its IMSI or its TMSI.
    fn tuning(&self) -> Option<Tuning> {
        let imsi = MsIdentity::Imsi(self.imsi).key();
        let tmsi = self.tmsi.get().map_or(imsi, |t| MsIdentity::Tmsi(t).key());
        Some(Tuning {
            to: self.serving_bts,
            keys: [imsi, tmsi],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::{Network, ScriptedPeer, SimDuration};

    fn config() -> MsConfig {
        MsConfig {
            imsi: Imsi::parse("466920123456789").unwrap(),
            ki: 0xABCD,
            lai: Lai::new(466, 92, 1),
        }
    }

    /// Builds: fake serving BTS ←Um→ MS. The BTS plays `feed` 10 ms
    /// apart from 10 ms on.
    fn rig(feed: Vec<Message>) -> (Network<Message>, NodeId, NodeId) {
        rig_with(scripted_bts(feed))
    }

    /// The rig around a BTS of the test's own script; it needs the MS
    /// id, so the rig patches it in after creating both.
    fn rig_with(bts: ScriptedPeer<Message>) -> (Network<Message>, NodeId, NodeId) {
        let mut net = Network::new(1);
        let bts = net.add_node("bts", bts);
        let ms = net.add_node("ms", MobileStation::new(config(), bts));
        net.connect(ms, bts, Interface::Um, SimDuration::from_millis(1));
        net.node_mut::<ScriptedPeer<Message>>(bts)
            .unwrap()
            .set_target(ms);
        (net, ms, bts)
    }

    fn scripted_bts(feed: Vec<Message>) -> ScriptedPeer<Message> {
        feed.into_iter().zip(1..).fold(ScriptedPeer::new(), |bts, (m, i)| {
            bts.at(SimDuration::from_millis(10 * i), m)
        })
    }

    fn uplink(net: &Network<Message>, bts: NodeId) -> Vec<&Message> {
        ScriptedPeer::of(net, bts).received()
    }

    /// A handset at rest holds no call: the call's state is a box that
    /// exists only while the call does (192 bytes when the row carried
    /// a call's fields, the far number, a neighbor vector and the whole
    /// configuration; 120 while it kept three tallies of `Stats` counters
    /// and an `Option` TMSI; 88 while it kept an answering habit every
    /// handset shared, 80 before its voice source kept a train horizon).
    /// At 88 bytes its box is a 96-byte malloc chunk, as at 80.
    #[test]
    fn a_handset_is_88_bytes_and_its_call_48() {
        use std::mem::size_of;
        assert_eq!(size_of::<MobileStation>(), 88);
        assert_eq!(size_of::<Option<MobileStation>>(), 88);
        assert_eq!(size_of::<MsCall>(), 48);
    }

    #[test]
    fn power_on_sends_location_update_with_imsi() {
        let (mut net, ms, bts) = rig(vec![]);
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        assert_eq!(
            ScriptedPeer::of(&net, bts).labels(),
            vec!["Um_Location_Update_Request"]
        );
        assert_eq!(
            net.node::<MobileStation>(ms).unwrap().state(),
            MsState::Registering
        );
    }

    #[test]
    fn auth_challenge_answered_with_correct_sres() {
        let (mut net, ms, bts) = rig(vec![Message::Um(Dtap::AuthenticationRequest {
            rand: 777,
        })]);
        net.run_until_quiescent();
        let got = uplink(&net, bts);
        assert_eq!(got.len(), 1);
        match got[0].dtap() {
            Some(Dtap::AuthenticationResponse { sres }) => {
                assert_eq!(*sres, a3_sres(0xABCD, 777));
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = ms;
    }

    #[test]
    fn registration_completes_and_stores_tmsi() {
        let (mut net, ms, _bts) = rig(vec![Message::Um(Dtap::LocationUpdateAccept {
            tmsi: Some(Tmsi(42)),
        })]);
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        let m = net.node::<MobileStation>(ms).unwrap();
        assert_eq!(m.state(), MsState::Idle);
        assert_eq!(m.tmsi(), Some(Tmsi(42)));
        assert_eq!(net.stats().counter("ms.registered"), 1);
    }

    #[test]
    fn reject_with_tmsi_retries_with_imsi() {
        let (mut net, ms, bts) = rig(vec![Message::Um(Dtap::LocationUpdateReject {
            cause: Cause::ProtocolError,
        })]);
        net.node_mut::<MobileStation>(ms).unwrap().tmsi = Tmsi(9).into();
        net.run_until_quiescent();
        let got = uplink(&net, bts);
        assert_eq!(got.len(), 1);
        match got[0].dtap() {
            Some(Dtap::LocationUpdateRequest {
                identity: MsIdentity::Imsi(i),
                ..
            }) => assert_eq!(*i, Imsi::parse("466920123456789").unwrap()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dial_sends_cm_service_request_then_setup() {
        let (mut net, ms, bts) = rig(vec![Message::Um(Dtap::CmServiceAccept)]);
        net.node_mut::<MobileStation>(ms).unwrap().state = MsState::Idle;
        net.inject(
            SimDuration::ZERO,
            ms,
            Message::Cmd(Command::Dial {
                call: CallId(7),
                called: Msisdn::parse("85291234567").unwrap(),
            }),
        );
        net.run_until_quiescent();
        assert_eq!(
            ScriptedPeer::of(&net, bts).labels(),
            vec!["Um_CM_Service_Request", "Um_Setup"]
        );
        assert_eq!(
            net.node::<MobileStation>(ms).unwrap().state(),
            MsState::AwaitingProgress
        );
    }

    #[test]
    fn mt_call_pages_rings_and_answers() {
        let imsi = Imsi::parse("466920123456789").unwrap();
        let (mut net, ms, bts) = rig(vec![
            Message::Um(Dtap::Paging {
                identity: MsIdentity::Imsi(imsi),
            }),
            Message::Um(Dtap::MtSetup {
                call: CallId(3),
                calling: None,
            }),
        ]);
        net.node_mut::<MobileStation>(ms).unwrap().state = MsState::Idle;
        net.run_until_quiescent();
        assert_eq!(
            ScriptedPeer::of(&net, bts).labels(),
            vec!["Um_Paging_Response", "Um_Alerting", "Um_Connect"]
        );
        assert_eq!(
            net.node::<MobileStation>(ms).unwrap().state(),
            MsState::AwaitingConnectAck
        );
    }

    #[test]
    fn paging_for_someone_else_ignored() {
        let other = Imsi::parse("466920999999999").unwrap();
        let (mut net, ms, bts) = rig(vec![Message::Um(Dtap::Paging {
            identity: MsIdentity::Imsi(other),
        })]);
        net.node_mut::<MobileStation>(ms).unwrap().state = MsState::Idle;
        net.run_until_quiescent();
        assert!(uplink(&net, bts).is_empty());
    }

    #[test]
    fn active_call_emits_voice_frames_until_hangup() {
        let (mut net, ms, bts) = rig(vec![Message::Um(Dtap::Connect { call: CallId(1) })]);
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.state = MsState::Ringback;
            m.leg().call = Some(CallId(1));
        }
        net.run_until(SimTime::from_micros(111_000));
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::Hangup));
        net.run_until_quiescent();
        let got = uplink(&net, bts);
        let frames = got
            .iter()
            .filter(|m| matches!(m.dtap(), Some(Dtap::VoiceFrame { .. })))
            .count();
        assert!((3..=6).contains(&frames), "got {frames} frames in ~100ms");
        assert!(got
            .iter()
            .any(|m| matches!(m.dtap(), Some(Dtap::Disconnect { .. }))));
        assert_eq!(
            net.node::<MobileStation>(ms).unwrap().state(),
            MsState::Clearing
        );
    }

    #[test]
    fn handover_command_switches_cell_and_confirms_via_new_bts() {
        let (mut net, ms, old_bts) = rig(vec![Message::Um(Dtap::HandoverCommand {
            cell: CellId(2),
            ho_ref: 55,
        })]);
        let new_bts = net.add_node("bts2", ScriptedPeer::new());
        net.connect(ms, new_bts, Interface::Um, SimDuration::from_millis(1));
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.add_neighbor(CellId(2), new_bts);
            m.state = MsState::Active;
            m.leg().call = Some(CallId(1));
        }
        net.run_until_quiescent();
        let new_got = uplink(&net, new_bts);
        assert_eq!(new_got.len(), 1);
        assert!(matches!(
            new_got[0].dtap(),
            Some(Dtap::HandoverComplete { ho_ref: 55 })
        ));
        assert!(uplink(&net, old_bts).is_empty());
        assert_eq!(net.stats().counter("ms.handoffs"), 1);
    }

    /// Dials `call` from an idle MS at time zero.
    fn dial_from_idle(net: &mut Network<Message>, ms: NodeId, call: CallId) {
        net.node_mut::<MobileStation>(ms).unwrap().state = MsState::Idle;
        let called = Msisdn::parse("85291234567").unwrap();
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::Dial { call, called }));
    }

    #[test]
    fn a_released_call_leaves_no_call_behind() {
        let call = CallId(7);
        let (mut net, ms, _bts) = rig(vec![
            Message::Um(Dtap::CmServiceAccept),
            Message::Um(Dtap::Alerting { call }),
            Message::Um(Dtap::Connect { call }),
            Message::Um(Dtap::Disconnect {
                call,
                cause: Cause::NormalClearing,
            }),
            Message::Um(Dtap::ChannelRelease),
        ]);
        dial_from_idle(&mut net, ms, call);
        net.run_until(SimTime::from_micros(35_000));
        let m = net.node::<MobileStation>(ms).unwrap();
        assert_eq!((m.state(), m.call()), (MsState::Active, Some(call)));
        net.run_until_quiescent();
        let m = net.node::<MobileStation>(ms).unwrap();
        assert_eq!(m.state(), MsState::Idle);
        assert_eq!(net.stats().counter("ms.calls_connected"), 1);
        assert!(m.leg.is_none(), "{:?}", m.leg);
        assert!(m.dialed_at.get().is_none(), "the connect read the dial time");
    }

    #[test]
    fn a_refused_dial_leaves_no_call_behind() {
        let (mut net, ms, _bts) = rig(vec![Message::Um(Dtap::CmServiceReject {
            cause: Cause::ProtocolError,
        })]);
        dial_from_idle(&mut net, ms, CallId(7));
        net.run_until_quiescent();
        let m = net.node::<MobileStation>(ms).unwrap();
        assert_eq!(m.state(), MsState::Idle);
        assert!(m.leg.is_none(), "{:?}", m.leg);
        assert!(m.dialed_at.get().is_none(), "a dial time ends with its call");
        assert_eq!(m.dial_failure(), Some(Cause::ProtocolError));
        assert_eq!(net.stats().counter("ms.service_rejected"), 1);
    }

    /// A dial released before it connects leaves its cause and no dial
    /// time: the call the handset answers next records no setup delay.
    /// It rings at 41 ms and answers by itself `ANSWER_DELAY` later.
    #[test]
    fn a_failed_dial_then_an_answered_call_records_no_setup_sample() {
        let (dialed, answered) = (CallId(7), CallId(8));
        let imsi = config().imsi;
        let acked = ANSWER_DELAY + SimDuration::from_millis(50);
        let (mut net, ms, _bts) = rig_with(scripted_bts(vec![
            Message::Um(Dtap::Disconnect {
                call: dialed,
                cause: Cause::UserBusy,
            }),
            Message::Um(Dtap::ChannelRelease),
            Message::Um(Dtap::Paging {
                identity: MsIdentity::Imsi(imsi),
            }),
            Message::Um(Dtap::MtSetup {
                call: answered,
                calling: None,
            }),
        ])
        .at(acked, Message::Um(Dtap::ConnectAck { call: answered })));
        dial_from_idle(&mut net, ms, dialed);
        net.run_until(SimTime::from_micros(30_000));
        let m = net.node::<MobileStation>(ms).unwrap();
        assert_eq!((m.state(), m.dial_failure()), (MsState::Idle, Some(Cause::UserBusy)));
        net.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(net.node::<MobileStation>(ms).unwrap().state(), MsState::Ringing);
        net.run_until(SimTime::ZERO + acked + SimDuration::from_millis(1));
        assert_eq!(net.node::<MobileStation>(ms).unwrap().state(), MsState::Active);
        assert!(net.stats().histogram("ms.call_setup_ms").is_none());
    }

    /// A handset setting up a call stays on its cell when told to move
    /// (the call's signalling is there), and a move to the cell it is
    /// camped on does not re-register it.
    #[test]
    fn a_handset_reselects_only_when_idle_and_to_another_cell() {
        let (mut net, ms, bts) = rig(vec![]);
        let other = net.add_node("bts2", ScriptedPeer::new());
        net.connect(ms, other, Interface::Um, SimDuration::from_millis(1));
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.add_neighbor(CellId(1), bts);
            m.add_neighbor(CellId(2), other);
        }
        dial_from_idle(&mut net, ms, CallId(7));
        let away = Command::MoveToCell { cell: CellId(2) };
        net.inject(SimDuration::from_millis(5), ms, Message::Cmd(away));
        net.run_until_quiescent();
        let m = net.node_mut::<MobileStation>(ms).unwrap();
        assert_eq!((m.state(), m.serving_bts), (MsState::RequestingService, bts));
        m.state = MsState::Idle;
        let home = Command::MoveToCell { cell: CellId(1) };
        net.inject(SimDuration::ZERO, ms, Message::Cmd(home));
        net.run_until_quiescent();
        assert_eq!(net.node::<MobileStation>(ms).unwrap().state(), MsState::Idle);
        assert_eq!(ScriptedPeer::of(&net, bts).labels(), vec!["Um_CM_Service_Request"]);
        assert_eq!(net.stats().counter("ms.reselection_while_dedicated"), 1);
    }

    /// The call moves to the new cell with the MS and ends there; the
    /// old cell's late release is not heard.
    #[test]
    fn a_handed_over_call_leaves_no_call_behind() {
        let call = CallId(1);
        let (mut net, ms, old_bts) = rig(vec![
            Message::Um(Dtap::HandoverCommand {
                cell: CellId(2),
                ho_ref: 55,
            }),
            Message::Um(Dtap::ChannelRelease),
        ]);
        let mut new_bts = ScriptedPeer::new().at(
            SimDuration::from_millis(30),
            Message::Um(Dtap::Disconnect {
                call,
                cause: Cause::NormalClearing,
            }),
        );
        new_bts = new_bts.at(SimDuration::from_millis(40), Message::Um(Dtap::ChannelRelease));
        new_bts.set_target(ms);
        let new_bts = net.add_node("bts2", new_bts);
        net.connect(ms, new_bts, Interface::Um, SimDuration::from_millis(1));
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.add_neighbor(CellId(2), new_bts);
            m.state = MsState::Active;
            m.leg().call = Some(call);
        }
        net.run_until(SimTime::from_micros(25_000));
        let m = net.node::<MobileStation>(ms).unwrap();
        assert_eq!(m.call(), Some(call));
        assert_eq!(net.stats().counter("ms.handoffs"), 1);
        net.run_until_quiescent();
        let m = net.node::<MobileStation>(ms).unwrap();
        assert_eq!(m.state(), MsState::Idle);
        assert!(m.leg.is_none(), "{:?}", m.leg);
        assert_eq!(net.stats().counter("ms.ignored_stale_cell"), 1);
        assert!(uplink(&net, old_bts).is_empty());
    }

    #[test]
    fn stale_cell_downlink_ignored() {
        let (mut net, ms, _bts) = rig(vec![]);
        // a second BTS the MS is NOT served by
        let mut stale = scripted_bts(vec![Message::Um(Dtap::ChannelRelease)]);
        stale.set_target(ms);
        let stale = net.add_node("stale", stale);
        net.connect(ms, stale, Interface::Um, SimDuration::from_millis(1));
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.state = MsState::Active;
            m.leg().call = Some(CallId(1));
        }
        net.run_until_quiescent();
        // the stale ChannelRelease did NOT clear the call
        assert_eq!(
            net.node::<MobileStation>(ms).unwrap().state(),
            MsState::Active
        );
        assert_eq!(net.stats().counter("ms.ignored_stale_cell"), 1);
    }

    #[test]
    fn voice_frame_reception_measured() {
        let (mut net, ms, _bts) = rig(vec![Message::Um(Dtap::VoiceFrame {
            call: CallId(1),
            seq: 1,
            origin_us: 0,
            frames: 1,
        })]);
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.state = MsState::Active;
            m.leg().call = Some(CallId(1));
        }
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("ms.voice_frames_received"), 1);
        // fed at t=10ms with origin 0 and 1 ms link latency → ~11 ms delay
        let h = net.stats().histogram("ms.voice_e2e_ms").unwrap();
        assert!((h.mean() - 11.0).abs() < 0.01, "mean {}", h.mean());
    }
}
