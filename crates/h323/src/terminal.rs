//! An H.323 endpoint: the full VoIP terminal the paper's MSs do *not*
//! need to be (but the far ends of vGPRS calls, and every MS of the TR
//! 22.973 baseline, are).
//!
//! The call machine — RAS registration and admission, Q.931 call
//! control, the 20 ms RTP tick — is [`H323Endpoint`], written once. What
//! differs between a wireline terminal and a TR 22.973 handset is the
//! bearer under it, and that enters in two places only: the [`Uplink`]
//! type parameter says how an IP packet leaves (and under which counter
//! names the endpoint reports), and the [`Outcome`] every input returns
//! tells the owner when a dialled call wants admission and when the
//! endpoint has gone idle. [`H323Terminal`] is the endpoint on a LAN
//! port, where neither moment needs anything done.

use vgprs_sim::{Context, Interface, Node, NodeId, SimDuration, SimTime, TimerToken};
use vgprs_wire::{
    CallId, Cause, Command, Crv, Imsi, IpPacket, IpPayload, Message, Msisdn, Q931Kind, Q931Message,
    RasMessage, RtpPacket, TransportAddr, PAYLOAD_TYPE_GSM,
};

/// Timer tag: auto-answer.
const TIMER_ANSWER: u64 = 1;
/// Timer tag: next RTP frame.
const TIMER_VOICE: u64 = 2;

/// Observable state of an endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminalState {
    /// Not yet confirmed by the gatekeeper.
    Registering,
    /// Registered, no call.
    Idle,
    /// Dialled; the originating ARQ is owed or awaiting its ACF.
    RequestingAdmission,
    /// Sent Setup, waiting for progress.
    Calling,
    /// Heard remote alerting.
    Ringback,
    /// Received Setup, requesting (answering) admission.
    AnsweringAdmission,
    /// Ringing locally.
    Ringing,
    /// Call up.
    Active,
}

/// Configuration for an [`H323Endpoint`].
#[derive(Clone, Copy, Debug)]
pub struct TerminalConfig {
    /// Alias registered with the gatekeeper.
    pub alias: Msisdn,
    /// Call-signaling address (RAS uses the same IP).
    pub addr: TransportAddr,
    /// The gatekeeper's RAS address.
    pub gk: TransportAddr,
    /// Auto-answer delay; `None` waits for [`Command::Answer`].
    pub answer_after: Option<SimDuration>,
    /// Send RTP as soon as the call connects.
    pub talk_on_connect: bool,
}

impl TerminalConfig {
    /// A terminal that auto-answers after two seconds and talks.
    pub fn new(alias: Msisdn, addr: TransportAddr, gk: TransportAddr) -> Self {
        TerminalConfig {
            alias,
            addr,
            gk,
            answer_after: Some(SimDuration::from_secs(2)),
            talk_on_connect: true,
        }
    }
}

/// The counter and histogram names one kind of endpoint reports under,
/// each field named after the `term.*` event it is. Whole literals
/// rather than a prefix, so the voice path formats nothing and a `grep`
/// for a KPI's source name finds it.
#[allow(missing_docs)]
#[derive(Debug)]
pub struct EndpointNames {
    pub registered: &'static str,
    pub registration_rejected: &'static str,
    pub dial_while_busy: &'static str,
    pub calls_dialed: &'static str,
    pub calls_connected: &'static str,
    pub ringing: &'static str,
    pub admission_rejected: &'static str,
    pub unhandled_ras: &'static str,
    pub call_proceeding: &'static str,
    pub released_by_peer: &'static str,
    pub rtp_sent: &'static str,
    pub rtp_received: &'static str,
    pub call_setup_ms: &'static str,
    pub post_dial_delay_ms: &'static str,
    pub voice_e2e_ms: &'static str,
}

/// How an endpoint's IP packets leave it.
pub trait Uplink {
    /// The names this kind of endpoint counts under.
    const NAMES: &'static EndpointNames;

    /// Sends one packet on its way.
    fn send(&self, ctx: &mut Context<'_, Message>, packet: IpPacket);
}

/// A LAN port: packets go to the zone's router as they are.
#[derive(Debug)]
pub struct Lan {
    router: NodeId,
}

impl Uplink for Lan {
    const NAMES: &'static EndpointNames = &EndpointNames {
        registered: "term.registered",
        registration_rejected: "term.registration_rejected",
        dial_while_busy: "term.dial_while_busy",
        calls_dialed: "term.calls_dialed",
        calls_connected: "term.calls_connected",
        ringing: "term.ringing",
        admission_rejected: "term.admission_rejected",
        unhandled_ras: "term.unhandled_ras",
        call_proceeding: "term.call_proceeding",
        released_by_peer: "term.released_by_peer",
        rtp_sent: "term.rtp_sent",
        rtp_received: "term.rtp_received",
        call_setup_ms: "term.call_setup_ms",
        post_dial_delay_ms: "term.post_dial_delay_ms",
        voice_e2e_ms: "term.voice_e2e_ms",
    };

    fn send(&self, ctx: &mut Context<'_, Message>, packet: IpPacket) {
        ctx.send(self.router, Message::Ip(packet));
    }
}

/// What an input left for the endpoint's owner to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Nothing.
    Handled,
    /// A call was dialled; it goes on when the owner calls
    /// [`H323Endpoint::request_admission`].
    Dialled,
    /// The endpoint has just become idle: registered, released or
    /// refused admission.
    WentIdle,
}

/// The endpoint's call machine over an [`Uplink`].
#[derive(Debug)]
pub struct H323Endpoint<U> {
    config: TerminalConfig,
    uplink: U,
    state: TerminalState,
    call: Option<CallId>,
    crv: Crv,
    next_crv: u16,
    pending_called: Option<Msisdn>,
    remote_signal: Option<TransportAddr>,
    remote_media: Option<TransportAddr>,
    connected_at: Option<SimTime>,
    dialed_at: Option<SimTime>,
    voice_timer: Option<TimerToken>,
    voice_seq: u16,
    /// RTP frames received.
    pub frames_received: u64,
    /// Calls that reached Active.
    pub calls_connected: u64,
    /// Calls that failed admission or were rejected.
    pub calls_failed: u64,
}

/// A wireline H.323 terminal: the endpoint on a LAN port.
pub type H323Terminal = H323Endpoint<Lan>;

impl H323Terminal {
    /// Creates a terminal whose packets leave via `router`.
    pub fn new(config: TerminalConfig, router: NodeId) -> Self {
        H323Endpoint::with_uplink(config, Lan { router })
    }
}

impl<U: Uplink> H323Endpoint<U> {
    /// Creates an unregistered endpoint sending through `uplink`.
    pub fn with_uplink(config: TerminalConfig, uplink: U) -> Self {
        H323Endpoint {
            config,
            uplink,
            state: TerminalState::Registering,
            call: None,
            crv: Crv(0),
            next_crv: 0,
            pending_called: None,
            remote_signal: None,
            remote_media: None,
            connected_at: None,
            dialed_at: None,
            voice_timer: None,
            voice_seq: 0,
            frames_received: 0,
            calls_connected: 0,
            calls_failed: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> TerminalState {
        self.state
    }

    fn media_addr(&self) -> TransportAddr {
        TransportAddr::new(self.config.addr.ip, self.config.addr.port + 10_000)
    }

    fn send_ip(&self, ctx: &mut Context<'_, Message>, dst: TransportAddr, payload: IpPayload) {
        self.uplink
            .send(ctx, IpPacket::new(self.config.addr, dst, payload));
    }

    fn send_ras(&self, ctx: &mut Context<'_, Message>, ras: RasMessage) {
        self.send_ip(ctx, self.config.gk, IpPayload::Ras(ras));
    }

    fn send_q931(&self, ctx: &mut Context<'_, Message>, kind: Q931Kind) {
        let (Some(call), Some(dst)) = (self.call, self.remote_signal) else {
            return;
        };
        self.send_ip(
            ctx,
            dst,
            IpPayload::Q931(Q931Message {
                crv: self.crv,
                call,
                kind,
            }),
        );
    }

    /// Registers with the gatekeeper. `imsi` is what a TR 22.973 handset
    /// discloses with its alias; a plain terminal has none to give.
    pub fn register(&self, ctx: &mut Context<'_, Message>, imsi: Option<Imsi>) {
        self.send_ras(
            ctx,
            RasMessage::Rrq {
                alias: self.config.alias,
                transport: self.config.addr,
                imsi,
            },
        );
    }

    /// Sends the originating ARQ of a dialled call. False when there is
    /// no such call any more (hung up while the bearer came up).
    pub fn request_admission(&mut self, ctx: &mut Context<'_, Message>) -> bool {
        let (TerminalState::RequestingAdmission, Some(call), Some(called)) =
            (self.state, self.call, self.pending_called)
        else {
            return false;
        };
        self.send_ras(
            ctx,
            RasMessage::Arq {
                call,
                called,
                answering: false,
                bandwidth: 160,
            },
        );
        true
    }

    /// Drops a call the gatekeeper refused or never heard of (the bearer
    /// under a dialled call did not come up): no DRQ is owed.
    pub fn fail_call(&mut self, ctx: &mut Context<'_, Message>) {
        if self.call.take().is_none() {
            return;
        }
        self.calls_failed += 1;
        self.stop_voice(ctx);
        self.pending_called = None;
        self.state = TerminalState::Idle;
    }

    fn start_voice(&mut self, ctx: &mut Context<'_, Message>) {
        if self.voice_timer.is_none() {
            self.voice_timer = Some(ctx.set_timer(SimDuration::from_millis(20), TIMER_VOICE));
        }
    }

    fn stop_voice(&mut self, ctx: &mut Context<'_, Message>) {
        if let Some(t) = self.voice_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    fn enter_active(&mut self, ctx: &mut Context<'_, Message>) {
        self.state = TerminalState::Active;
        self.calls_connected += 1;
        self.connected_at = Some(ctx.now());
        ctx.count(U::NAMES.calls_connected);
        if let Some(at) = self.dialed_at.take() {
            ctx.observe_duration(U::NAMES.call_setup_ms, ctx.now().duration_since(at));
        }
        if self.config.talk_on_connect {
            self.start_voice(ctx);
        }
    }

    fn end_call(&mut self, ctx: &mut Context<'_, Message>) {
        self.stop_voice(ctx);
        if let Some(call) = self.call.take() {
            let duration_ms = self
                .connected_at
                .take()
                .map(|at| ctx.now().duration_since(at).as_millis())
                .unwrap_or(0);
            // Paper step 3.3: both sides disengage.
            self.send_ras(ctx, RasMessage::Drq { call, duration_ms });
        }
        self.remote_signal = None;
        self.remote_media = None;
        self.pending_called = None;
        self.state = TerminalState::Idle;
    }

    fn answer(&mut self, ctx: &mut Context<'_, Message>) {
        if self.state == TerminalState::Ringing {
            self.send_q931(
                ctx,
                Q931Kind::Connect {
                    media_addr: self.media_addr(),
                },
            );
            self.enter_active(ctx);
        }
    }

    /// [`Outcome::WentIdle`] if an input that found the endpoint
    /// `was_busy` left it idle.
    fn settled(&self, was_busy: bool) -> Outcome {
        if was_busy && self.state == TerminalState::Idle {
            Outcome::WentIdle
        } else {
            Outcome::Handled
        }
    }

    /// Runs an operator command.
    pub fn command(&mut self, ctx: &mut Context<'_, Message>, cmd: Command) -> Outcome {
        let was_busy = self.state != TerminalState::Idle;
        match cmd {
            Command::Dial { call, called } => {
                if was_busy {
                    ctx.count(U::NAMES.dial_while_busy);
                    return Outcome::Handled;
                }
                self.state = TerminalState::RequestingAdmission;
                self.call = Some(call);
                self.pending_called = Some(called);
                self.dialed_at = Some(ctx.now());
                ctx.count(U::NAMES.calls_dialed);
                return Outcome::Dialled;
            }
            Command::Answer => self.answer(ctx),
            Command::Hangup
                if self.call.is_some() => {
                    self.send_q931(
                        ctx,
                        Q931Kind::ReleaseComplete {
                            cause: Cause::NormalClearing,
                        },
                    );
                    self.end_call(ctx);
                }
            Command::StartTalking
                if self.state == TerminalState::Active => {
                    self.start_voice(ctx);
                }
            Command::StopTalking => self.stop_voice(ctx),
            _ => {}
        }
        self.settled(was_busy)
    }

    /// Takes one packet addressed to this endpoint.
    pub fn receive(&mut self, ctx: &mut Context<'_, Message>, packet: IpPacket) -> Outcome {
        let was_busy = self.state != TerminalState::Idle;
        match packet.payload {
            IpPayload::Ras(r) => self.handle_ras(ctx, r),
            IpPayload::Q931(q) => self.handle_q931(ctx, packet.src, q),
            IpPayload::Rtp(rtp) => {
                if self.call == Some(rtp.call) {
                    self.frames_received += 1;
                    ctx.count(U::NAMES.rtp_received);
                    let delay = ctx.now().as_micros().saturating_sub(rtp.origin_us);
                    ctx.observe(U::NAMES.voice_e2e_ms, delay as f64 / 1000.0);
                }
            }
        }
        self.settled(was_busy)
    }

    /// Runs one of the endpoint's own timers (auto-answer, voice tick).
    pub fn timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        match tag {
            TIMER_ANSWER => self.answer(ctx),
            TIMER_VOICE => {
                self.voice_timer = None;
                if self.state == TerminalState::Active {
                    if let (Some(call), Some(media)) = (self.call, self.remote_media) {
                        self.voice_seq = self.voice_seq.wrapping_add(1);
                        let now_us = ctx.now().as_micros();
                        let rtp = RtpPacket {
                            ssrc: 0,
                            seq: self.voice_seq,
                            timestamp: (now_us / 125) as u32,
                            payload_type: PAYLOAD_TYPE_GSM,
                            marker: self.voice_seq == 1,
                            payload_len: 33,
                            call,
                            origin_us: now_us,
                        };
                        ctx.count(U::NAMES.rtp_sent);
                        self.send_ip(ctx, media, IpPayload::Rtp(rtp));
                        self.start_voice(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_ras(&mut self, ctx: &mut Context<'_, Message>, ras: RasMessage) {
        match ras {
            RasMessage::Rcf { .. } => {
                if self.state == TerminalState::Registering {
                    self.state = TerminalState::Idle;
                    ctx.count(U::NAMES.registered);
                }
            }
            RasMessage::Rrj { .. } => ctx.count(U::NAMES.registration_rejected),
            RasMessage::Acf {
                call,
                dest_call_signal_addr,
            } => {
                if self.call != Some(call) {
                    return;
                }
                match self.state {
                    TerminalState::RequestingAdmission => {
                        let Some(called) = self.pending_called else {
                            return;
                        };
                        self.next_crv += 1;
                        self.crv = Crv(self.next_crv);
                        self.remote_signal = Some(dest_call_signal_addr);
                        self.state = TerminalState::Calling;
                        self.send_q931(
                            ctx,
                            Q931Kind::Setup {
                                calling: Some(self.config.alias),
                                called,
                                signal_addr: self.config.addr,
                                media_addr: self.media_addr(),
                            },
                        );
                    }
                    TerminalState::AnsweringAdmission => {
                        // Paper step 2.6: ring and alert the caller.
                        self.state = TerminalState::Ringing;
                        ctx.count(U::NAMES.ringing);
                        self.send_q931(ctx, Q931Kind::Alerting);
                        if let Some(delay) = self.config.answer_after {
                            ctx.set_timer(delay, TIMER_ANSWER);
                        }
                    }
                    _ => {}
                }
            }
            RasMessage::Arj { call, cause } => {
                if self.call != Some(call) {
                    return;
                }
                ctx.count(U::NAMES.admission_rejected);
                if self.state == TerminalState::AnsweringAdmission {
                    // Paper step 2.5: the call is released.
                    self.send_q931(ctx, Q931Kind::ReleaseComplete { cause });
                }
                self.fail_call(ctx);
            }
            RasMessage::Dcf { .. } => {}
            _ => ctx.count(U::NAMES.unhandled_ras),
        }
    }

    fn handle_q931(
        &mut self,
        ctx: &mut Context<'_, Message>,
        src: TransportAddr,
        msg: Q931Message,
    ) {
        match msg.kind {
            Q931Kind::Setup {
                calling: _,
                called,
                signal_addr,
                media_addr,
            } => {
                if self.state != TerminalState::Idle {
                    // Busy here.
                    self.send_ip(
                        ctx,
                        src,
                        IpPayload::Q931(Q931Message {
                            crv: msg.crv,
                            call: msg.call,
                            kind: Q931Kind::ReleaseComplete {
                                cause: Cause::UserBusy,
                            },
                        }),
                    );
                    return;
                }
                self.call = Some(msg.call);
                self.crv = msg.crv;
                self.remote_signal = Some(signal_addr);
                self.remote_media = Some(media_addr);
                // Paper step 2.4: Call Proceeding back to the caller.
                self.send_q931(ctx, Q931Kind::CallProceeding);
                // Paper step 2.5: the terminal asks its gatekeeper.
                self.state = TerminalState::AnsweringAdmission;
                self.send_ras(
                    ctx,
                    RasMessage::Arq {
                        call: msg.call,
                        called,
                        answering: true,
                        bandwidth: 160,
                    },
                );
            }
            Q931Kind::CallProceeding => ctx.count(U::NAMES.call_proceeding),
            Q931Kind::Alerting => {
                if self.state == TerminalState::Calling && self.call == Some(msg.call) {
                    self.state = TerminalState::Ringback;
                    if let Some(at) = self.dialed_at {
                        ctx.observe_duration(
                            U::NAMES.post_dial_delay_ms,
                            ctx.now().duration_since(at),
                        );
                    }
                }
            }
            Q931Kind::Connect { media_addr } => {
                if self.call == Some(msg.call)
                    && matches!(
                        self.state,
                        TerminalState::Calling | TerminalState::Ringback
                    )
                {
                    self.remote_media = Some(media_addr);
                    self.enter_active(ctx);
                }
            }
            Q931Kind::ReleaseComplete { .. } => {
                if self.call == Some(msg.call) {
                    ctx.count(U::NAMES.released_by_peer);
                    self.end_call(ctx);
                }
            }
        }
    }
}

impl Node<Message> for H323Terminal {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Internal, Message::Cmd(cmd)) => {
                // A LAN port is always up: admission follows the dial.
                if self.command(ctx, cmd) == Outcome::Dialled {
                    self.request_admission(ctx);
                }
            }
            (Interface::Lan | Interface::Gi, Message::Ip(packet)) => {
                if packet.dst.ip != self.config.addr.ip {
                    ctx.count("term.misdelivered");
                    return;
                }
                self.receive(ctx, packet);
            }
            _ => ctx.count("term.unexpected_message"),
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        // Auto-register with the gatekeeper.
        self.register(ctx, None);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _token: TimerToken, tag: u64) {
        self.timer(ctx, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatekeeper::{Gatekeeper, GatekeeperConfig};
    use vgprs_gprs::IpRouter;
    use vgprs_sim::Network;
    use vgprs_wire::Ipv4Addr;

    fn alias(n: &str) -> Msisdn {
        Msisdn::parse(n).unwrap()
    }

    fn addr(last: u8, port: u16) -> TransportAddr {
        TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, last), port)
    }

    /// Two terminals + gatekeeper + router: a complete H.323 zone.
    fn zone() -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(7);
        let router = net.add_node("router", IpRouter::new());
        let gk = net.add_node(
            "gk",
            Gatekeeper::new(
                GatekeeperConfig {
                    addr: addr(2, 1719),
                    bandwidth_budget: 10_000,
                    shed_utilization: 0.0,
                },
                router,
            ),
        );
        let t1 = net.add_node(
            "alice",
            H323Terminal::new(
                TerminalConfig::new(alias("88620001111"), addr(11, 1720), addr(2, 1719)),
                router,
            ),
        );
        let t2 = net.add_node(
            "bob",
            H323Terminal::new(
                TerminalConfig::new(alias("88620002222"), addr(12, 1720), addr(2, 1719)),
                router,
            ),
        );
        net.connect(gk, router, Interface::Lan, SimDuration::from_millis(1));
        net.connect(t1, router, Interface::Lan, SimDuration::from_millis(1));
        net.connect(t2, router, Interface::Lan, SimDuration::from_millis(1));
        {
            let r = net.node_mut::<IpRouter>(router).unwrap();
            r.add_host(addr(2, 0).ip, gk);
            r.add_host(addr(11, 0).ip, t1);
            r.add_host(addr(12, 0).ip, t2);
        }
        (net, gk, t1, t2)
    }

    #[test]
    fn terminals_register_on_start() {
        let (mut net, gk, t1, t2) = zone();
        net.run_until_quiescent();
        assert_eq!(net.node::<Gatekeeper>(gk).unwrap().registered_count(), 2);
        assert_eq!(net.node::<H323Terminal>(t1).unwrap().state(), TerminalState::Idle);
        assert_eq!(net.node::<H323Terminal>(t2).unwrap().state(), TerminalState::Idle);
    }

    #[test]
    fn full_call_between_terminals() {
        let (mut net, gk, t1, t2) = zone();
        net.run_until_quiescent();
        net.inject(
            SimDuration::ZERO,
            t1,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: alias("88620002222"),
            }),
        );
        net.run_until(vgprs_sim::SimTime::from_micros(10_000_000));
        let a = net.node::<H323Terminal>(t1).unwrap();
        let b = net.node::<H323Terminal>(t2).unwrap();
        assert_eq!(a.state(), TerminalState::Active);
        assert_eq!(b.state(), TerminalState::Active);
        assert!(a.frames_received > 100, "got {}", a.frames_received);
        assert!(b.frames_received > 100);
        // the signaling ladder matches the paper's step order
        assert!(net.trace().contains_subsequence(&[
            "RAS_ARQ",
            "RAS_ACF",
            "Q931_Setup",
            "Q931_Call_Proceeding",
            "RAS_ARQ",
            "RAS_ACF",
            "Q931_Alerting",
            "Q931_Connect",
        ]));
        let _ = gk;
    }

    #[test]
    fn hangup_disengages_both_sides() {
        let (mut net, gk, t1, _t2) = zone();
        net.run_until_quiescent();
        net.inject(
            SimDuration::ZERO,
            t1,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: alias("88620002222"),
            }),
        );
        net.run_until(vgprs_sim::SimTime::from_micros(5_000_000));
        net.inject(SimDuration::ZERO, t1, Message::Cmd(Command::Hangup));
        net.run_until_quiescent();
        let g = net.node::<Gatekeeper>(gk).unwrap();
        assert_eq!(g.charging_records().len(), 2, "both endpoints disengage");
        assert_eq!(g.bandwidth_used(), 0);
        assert!(net
            .trace()
            .contains_subsequence(&["Q931_Release_Complete", "RAS_DRQ", "RAS_DCF"]));
    }

    #[test]
    fn call_to_unknown_alias_fails() {
        let (mut net, _gk, t1, _t2) = zone();
        net.run_until_quiescent();
        net.inject(
            SimDuration::ZERO,
            t1,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: alias("99999999999"),
            }),
        );
        net.run_until_quiescent();
        let a = net.node::<H323Terminal>(t1).unwrap();
        assert_eq!(a.state(), TerminalState::Idle);
        assert_eq!(a.calls_failed, 1);
    }

    #[test]
    fn busy_terminal_rejects_second_setup() {
        let (mut net, _gk, t1, t2) = zone();
        net.run_until_quiescent();
        net.inject(
            SimDuration::ZERO,
            t1,
            Message::Cmd(Command::Dial {
                call: CallId(1),
                called: alias("88620002222"),
            }),
        );
        net.run_until(vgprs_sim::SimTime::from_micros(5_000_000));
        // a third terminal calls bob
        let router = {
            // reuse the zone's router by adding a new terminal
            let r = net.node::<H323Terminal>(t1).unwrap().uplink.router;
            r
        };
        let t3 = net.add_node(
            "carol",
            H323Terminal::new(
                TerminalConfig::new(alias("88620003333"), addr(13, 1720), addr(2, 1719)),
                router,
            ),
        );
        net.connect(t3, router, Interface::Lan, SimDuration::from_millis(1));
        net.node_mut::<IpRouter>(router)
            .unwrap()
            .add_host(addr(13, 0).ip, t3);
        // alice↔bob stream RTP continuously, so the queue never drains;
        // bounded run instead of run_until_quiescent.
        net.run_until(vgprs_sim::SimTime::from_micros(6_000_000));
        net.inject(
            SimDuration::ZERO,
            t3,
            Message::Cmd(Command::Dial {
                call: CallId(2),
                called: alias("88620002222"),
            }),
        );
        net.run_until(vgprs_sim::SimTime::from_micros(8_000_000));
        let c = net.node::<H323Terminal>(t3).unwrap();
        assert_eq!(c.state(), TerminalState::Idle, "released by busy peer");
        let _ = t2;
    }
}
