//! The standard GSM mobile station (handset).
//!
//! This is the whole point of vGPRS: the handset is *unmodified*. It
//! speaks plain GSM 04.08 over the air — location update, authentication,
//! ciphering, call control — and has no vocoder-to-IP or H.323 capability.
//! The same node works against a classic [`GsmMsc`](crate::GsmMsc) and
//! against a `Vmsc`, which is exactly the paper's claim.

use vgprs_sim::{Context, Interface, Node, NodeId, SimDuration, SimTime, TimerToken};
use vgprs_wire::{
    CallId, Cause, CellId, Command, Dtap, Imsi, Lai, Message, MsIdentity, Msisdn, Tmsi,
};

use crate::auth::{a3_sres, Ki};

/// Timer tag: emit the next 20 ms voice frame.
const TIMER_VOICE: u64 = 1;
/// Timer tag: auto-answer an alerting call.
const TIMER_ANSWER: u64 = 2;

/// Static configuration of a mobile station.
#[derive(Clone, Debug)]
pub struct MsConfig {
    /// Subscriber identity (on the SIM).
    pub imsi: Imsi,
    /// Secret key (on the SIM).
    pub ki: Ki,
    /// Own number, for display/diagnostics only.
    pub msisdn: Msisdn,
    /// Location area broadcast by the serving cell.
    pub lai: Lai,
    /// Answer automatically this long after ringing starts.
    /// `None` waits for an explicit [`Command::Answer`].
    pub auto_answer_after: Option<SimDuration>,
    /// Start sending voice frames as soon as a call connects.
    pub talk_on_connect: bool,
}

impl MsConfig {
    /// A sensible default subscriber: auto-answers after two seconds and
    /// talks when connected.
    pub fn new(imsi: Imsi, ki: Ki, msisdn: Msisdn, lai: Lai) -> Self {
        MsConfig {
            imsi,
            ki,
            msisdn,
            lai,
            auto_answer_after: Some(SimDuration::from_secs(2)),
            talk_on_connect: true,
        }
    }
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

/// The mobile station node.
#[derive(Debug)]
pub struct MobileStation {
    config: MsConfig,
    serving_bts: NodeId,
    /// Neighbor cells the MS can be handed off to (cell → BTS node).
    neighbors: Vec<(CellId, NodeId)>,
    state: MsState,
    tmsi: Option<Tmsi>,
    call: Option<CallId>,
    pending_called: Option<Msisdn>,
    talking: bool,
    voice_seq: u32,
    voice_timer: Option<TimerToken>,
    registered_at: Option<SimTime>,
    dialed_at: Option<SimTime>,
    /// Frames received on the downlink (media experiments read this).
    pub frames_received: u64,
    /// Calls that reached the Active state.
    pub calls_connected: u64,
    /// Handoffs completed.
    pub handoffs_completed: u64,
}

impl MobileStation {
    /// Creates a powered-off MS camped on `serving_bts`.
    pub fn new(config: MsConfig, serving_bts: NodeId) -> Self {
        MobileStation {
            config,
            serving_bts,
            neighbors: Vec::new(),
            state: MsState::Off,
            tmsi: None,
            call: None,
            pending_called: None,
            talking: false,
            voice_seq: 0,
            voice_timer: None,
            registered_at: None,
            dialed_at: None,
            frames_received: 0,
            calls_connected: 0,
            handoffs_completed: 0,
        }
    }

    /// Declares a neighbor cell the MS could be handed off to. The testbed
    /// must also provision the Um link to that BTS.
    pub fn add_neighbor(&mut self, cell: CellId, bts: NodeId) {
        self.neighbors.push((cell, bts));
    }

    /// Current state.
    pub fn state(&self) -> MsState {
        self.state
    }

    /// The TMSI allocated by the serving VLR, if registered.
    pub fn tmsi(&self) -> Option<Tmsi> {
        self.tmsi
    }

    /// The subscriber's IMSI.
    pub fn imsi(&self) -> Imsi {
        self.config.imsi
    }

    /// The identity the MS presents: TMSI when it has one, IMSI otherwise.
    fn identity(&self) -> MsIdentity {
        match self.tmsi {
            Some(t) => MsIdentity::Tmsi(t),
            None => MsIdentity::Imsi(self.config.imsi),
        }
    }

    /// True if a page for `identity` is addressed to this subscriber.
    fn is_paged(&self, identity: MsIdentity) -> bool {
        match identity {
            MsIdentity::Imsi(i) => i == self.config.imsi,
            MsIdentity::Tmsi(t) => Some(t) == self.tmsi,
        }
    }

    fn send_um(&self, ctx: &mut Context<'_, Message>, dtap: Dtap) {
        ctx.send(self.serving_bts, Message::Um(dtap));
    }

    fn start_voice(&mut self, ctx: &mut Context<'_, Message>) {
        if self.talking {
            return;
        }
        self.talking = true;
        self.voice_timer = Some(ctx.set_timer(SimDuration::from_millis(20), TIMER_VOICE));
    }

    fn stop_voice(&mut self, ctx: &mut Context<'_, Message>) {
        self.talking = false;
        if let Some(t) = self.voice_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    fn enter_active(&mut self, ctx: &mut Context<'_, Message>) {
        self.state = MsState::Active;
        self.calls_connected += 1;
        ctx.count("ms.calls_connected");
        if let Some(at) = self.dialed_at.take() {
            ctx.observe_duration("ms.call_setup_ms", ctx.now().duration_since(at));
        }
        if self.config.talk_on_connect {
            self.start_voice(ctx);
        }
    }

    fn clear_call(&mut self, ctx: &mut Context<'_, Message>) {
        self.stop_voice(ctx);
        self.call = None;
        self.state = MsState::Idle;
    }

    fn handle_command(&mut self, ctx: &mut Context<'_, Message>, cmd: Command) {
        match cmd {
            Command::PowerOn => {
                if self.state != MsState::Off {
                    return;
                }
                self.state = MsState::Registering;
                self.registered_at = Some(ctx.now());
                ctx.count("ms.power_on");
                self.send_um(
                    ctx,
                    Dtap::LocationUpdateRequest {
                        identity: self.identity(),
                        lai: self.config.lai,
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
                self.call = Some(call);
                self.dialed_at = Some(ctx.now());
                self.pending_called = Some(called);
                self.send_um(
                    ctx,
                    Dtap::CmServiceRequest {
                        identity: self.identity(),
                    },
                );
            }
            Command::Answer => self.answer(ctx),
            Command::Hangup => {
                if let (MsState::Active | MsState::Ringback, Some(call)) = (self.state, self.call)
                {
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
                    self.start_voice(ctx);
                }
            }
            Command::StopTalking => self.stop_voice(ctx),
            Command::MoveToCell { cell } => {
                if self.state == MsState::Active {
                    // In-call movement: report the better cell; the network
                    // decides the handoff (paper §7).
                    self.send_um(ctx, Dtap::MeasurementReport { cell });
                } else if let Some(&(_, bts)) =
                    self.neighbors.iter().find(|(c, _)| *c == cell)
                {
                    // Idle movement: re-camp and re-register.
                    self.serving_bts = bts;
                    if self.state == MsState::Idle {
                        self.state = MsState::Registering;
                        self.registered_at = Some(ctx.now());
                        self.send_um(
                            ctx,
                            Dtap::LocationUpdateRequest {
                                identity: self.identity(),
                                lai: self.config.lai,
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
        if let (MsState::Ringing, Some(call)) = (self.state, self.call) {
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
                        sres: a3_sres(self.config.ki, rand),
                    },
                );
            }
            Dtap::CipherModeCommand => self.send_um(ctx, Dtap::CipherModeComplete),
            Dtap::ChannelAssignment { .. } => {
                self.send_um(ctx, Dtap::ChannelAssignmentComplete)
            }
            Dtap::LocationUpdateAccept { tmsi } => {
                if let Some(t) = tmsi {
                    self.tmsi = Some(t);
                }
                self.state = MsState::Idle;
                ctx.count("ms.registered");
                if let Some(at) = self.registered_at.take() {
                    ctx.observe_duration("ms.registration_ms", ctx.now().duration_since(at));
                }
            }
            Dtap::LocationUpdateReject { .. } => {
                if self.tmsi.take().is_some() {
                    // Retry with the permanent identity, as GSM prescribes
                    // when the network does not recognize the TMSI.
                    ctx.count("ms.registration_retry_with_imsi");
                    self.send_um(
                        ctx,
                        Dtap::LocationUpdateRequest {
                            identity: MsIdentity::Imsi(self.config.imsi),
                            lai: self.config.lai,
                        },
                    );
                } else {
                    ctx.count("ms.registration_rejected");
                    self.state = MsState::Off;
                }
            }
            Dtap::CmServiceAccept => {
                if let (MsState::RequestingService, Some(call), Some(called)) =
                    (self.state, self.call, self.pending_called.take())
                {
                    self.state = MsState::AwaitingProgress;
                    self.send_um(ctx, Dtap::Setup { call, called });
                }
            }
            Dtap::CmServiceReject { .. } => {
                ctx.count("ms.service_rejected");
                self.call = None;
                self.pending_called = None;
                self.state = MsState::Idle;
            }
            Dtap::CallProceeding { .. } => ctx.count("ms.call_proceeding"),
            Dtap::Alerting { call } => {
                if self.state == MsState::AwaitingProgress && self.call == Some(call) {
                    self.state = MsState::Ringback;
                    if let Some(at) = self.dialed_at {
                        ctx.observe_duration(
                            "ms.post_dial_delay_ms",
                            ctx.now().duration_since(at),
                        );
                    }
                }
            }
            Dtap::Connect { call } => {
                if self.state == MsState::Ringback && self.call == Some(call) {
                    self.send_um(ctx, Dtap::ConnectAck { call });
                    self.enter_active(ctx);
                }
            }
            Dtap::ConnectAck { call } => {
                if self.state == MsState::AwaitingConnectAck && self.call == Some(call) {
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
                    self.call = Some(call);
                    ctx.count("ms.ringing");
                    self.send_um(ctx, Dtap::Alerting { call });
                    if let Some(delay) = self.config.auto_answer_after {
                        ctx.set_timer(delay, TIMER_ANSWER);
                    }
                }
            }
            Dtap::Disconnect { call, .. } => {
                if self.call == Some(call) {
                    self.stop_voice(ctx);
                    self.state = MsState::Clearing;
                    self.send_um(ctx, Dtap::Release { call });
                }
            }
            Dtap::Release { call } => {
                if self.call == Some(call) {
                    self.send_um(ctx, Dtap::ReleaseComplete { call });
                }
            }
            Dtap::ReleaseComplete { .. } => {}
            Dtap::ChannelRelease => self.clear_call(ctx),
            Dtap::HandoverCommand { cell, ho_ref } => {
                if let Some(&(_, bts)) = self.neighbors.iter().find(|(c, _)| *c == cell) {
                    self.serving_bts = bts;
                    self.handoffs_completed += 1;
                    ctx.count("ms.handoffs");
                    // HandoverComplete travels via the NEW cell.
                    self.send_um(ctx, Dtap::HandoverComplete { ho_ref });
                } else {
                    ctx.count("ms.handover_unknown_cell");
                }
            }
            Dtap::VoiceFrame { origin_us, .. } => {
                self.frames_received += 1;
                ctx.count("ms.voice_frames_received");
                let delay_us = ctx.now().as_micros().saturating_sub(origin_us);
                ctx.observe("ms.voice_e2e_ms", delay_us as f64 / 1000.0);
            }
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
                    ctx.count("ms.ignored_stale_cell");
                    return;
                }
                self.handle_dtap(ctx, dtap)
            }
            _ => ctx.count("ms.unexpected_message"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _token: TimerToken, tag: u64) {
        match tag {
            TIMER_VOICE
                if self.talking && self.state == MsState::Active => {
                    if let Some(call) = self.call {
                        self.voice_seq += 1;
                        ctx.count("ms.voice_frames_sent");
                        let origin_us = ctx.now().as_micros();
                        self.send_um(
                            ctx,
                            Dtap::VoiceFrame {
                                call,
                                seq: self.voice_seq,
                                origin_us,
                            },
                        );
                        self.voice_timer =
                            Some(ctx.set_timer(SimDuration::from_millis(20), TIMER_VOICE));
                    }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::Network;

    fn config() -> MsConfig {
        MsConfig::new(
            Imsi::parse("466920123456789").unwrap(),
            0xABCD,
            Msisdn::parse("88691234567").unwrap(),
            Lai::new(466, 92, 1),
        )
    }

    /// Builds: fake serving BTS ←Um→ MS. The BTS needs the MS id to play
    /// its feed, so the rig patches it in after creating both.
    struct ScriptedBts {
        ms: Option<NodeId>,
        feed: Vec<Message>,
        got: Vec<Message>,
    }
    impl Node<Message> for ScriptedBts {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            for (i, _) in self.feed.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(10 * (i as u64 + 1)), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _t: TimerToken, tag: u64) {
            if let (Some(ms), Some(m)) = (self.ms, self.feed.get(tag as usize)) {
                ctx.send(ms, m.clone());
            }
        }
        fn on_message(
            &mut self,
            _c: &mut Context<'_, Message>,
            _f: NodeId,
            _i: Interface,
            m: Message,
        ) {
            self.got.push(m);
        }
    }

    fn rig(feed: Vec<Message>) -> (Network<Message>, NodeId, NodeId) {
        let mut net = Network::new(1);
        let bts = net.add_node(
            "bts",
            ScriptedBts {
                ms: None,
                feed,
                got: Vec::new(),
            },
        );
        let ms = net.add_node("ms", MobileStation::new(config(), bts));
        net.connect(ms, bts, Interface::Um, SimDuration::from_millis(1));
        net.node_mut::<ScriptedBts>(bts).unwrap().ms = Some(ms);
        (net, ms, bts)
    }

    fn uplink_labels(net: &Network<Message>, bts: NodeId) -> Vec<String> {
        net.node::<ScriptedBts>(bts)
            .unwrap()
            .got
            .iter()
            .map(|m| m.label_str())
            .collect()
    }

    #[test]
    fn power_on_sends_location_update_with_imsi() {
        let (mut net, ms, bts) = rig(vec![]);
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::PowerOn));
        net.run_until_quiescent();
        assert_eq!(
            uplink_labels(&net, bts),
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
        let got = &net.node::<ScriptedBts>(bts).unwrap().got;
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
        net.node_mut::<MobileStation>(ms).unwrap().tmsi = Some(Tmsi(9));
        net.run_until_quiescent();
        let got = &net.node::<ScriptedBts>(bts).unwrap().got;
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
            uplink_labels(&net, bts),
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
            uplink_labels(&net, bts),
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
        assert!(net.node::<ScriptedBts>(bts).unwrap().got.is_empty());
    }

    #[test]
    fn active_call_emits_voice_frames_until_hangup() {
        let (mut net, ms, bts) = rig(vec![Message::Um(Dtap::Connect { call: CallId(1) })]);
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.state = MsState::Ringback;
            m.call = Some(CallId(1));
        }
        net.run_until(SimTime::from_micros(111_000));
        net.inject(SimDuration::ZERO, ms, Message::Cmd(Command::Hangup));
        net.run_until_quiescent();
        let got = &net.node::<ScriptedBts>(bts).unwrap().got;
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
        let new_bts = net.add_node(
            "bts2",
            ScriptedBts {
                ms: Some(ms),
                feed: vec![],
                got: Vec::new(),
            },
        );
        net.connect(ms, new_bts, Interface::Um, SimDuration::from_millis(1));
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.add_neighbor(CellId(2), new_bts);
            m.state = MsState::Active;
            m.call = Some(CallId(1));
        }
        net.run_until_quiescent();
        let new_got = &net.node::<ScriptedBts>(new_bts).unwrap().got;
        assert_eq!(new_got.len(), 1);
        assert!(matches!(
            new_got[0].dtap(),
            Some(Dtap::HandoverComplete { ho_ref: 55 })
        ));
        assert!(net.node::<ScriptedBts>(old_bts).unwrap().got.is_empty());
        assert_eq!(net.node::<MobileStation>(ms).unwrap().handoffs_completed, 1);
    }

    #[test]
    fn stale_cell_downlink_ignored() {
        let (mut net, ms, _bts) = rig(vec![]);
        // a second BTS the MS is NOT served by
        let stale = net.add_node(
            "stale",
            ScriptedBts {
                ms: Some(ms),
                feed: vec![Message::Um(Dtap::ChannelRelease)],
                got: Vec::new(),
            },
        );
        net.connect(ms, stale, Interface::Um, SimDuration::from_millis(1));
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.state = MsState::Active;
            m.call = Some(CallId(1));
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
        })]);
        {
            let m = net.node_mut::<MobileStation>(ms).unwrap();
            m.state = MsState::Active;
            m.call = Some(CallId(1));
        }
        net.run_until_quiescent();
        assert_eq!(net.node::<MobileStation>(ms).unwrap().frames_received, 1);
        // fed at t=10ms with origin 0 and 1 ms link latency → ~11 ms delay
        let h = net.stats().histogram("ms.voice_e2e_ms").unwrap();
        assert!((h.mean() - 11.0).abs() < 0.01, "mean {}", h.mean());
    }
}
