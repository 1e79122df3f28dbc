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

use vgprs_media::{Talk, VoiceSink, VoiceSource};
use vgprs_sim::{Context, Interface, Node, NodeId, SimTime, Stamp, TimerToken};
use vgprs_wire::{
    CallId, Cause, Command, Crv, Imsi, IpPacket, IpPayload, Ipv4Addr, Message, Msisdn, Q931Kind,
    Q931Message, RasMessage, RtpPacket, TransportAddr, ANSWER_DELAY, GSM_FRAME_BYTES,
    PAYLOAD_TYPE_GSM,
};

/// Timer tag: auto-answer (the voice tick is [`VoiceSource::TICK`]).
const TIMER_ANSWER: u64 = 2;

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

/// What an endpoint holds only while it has a call, boxed so that an
/// endpoint at rest pays one pointer for it. The box goes once nothing
/// in it can be read again: no call, no far signalling address, no
/// connect time and no voice tick. An unread called number or far
/// media address is not worth keeping.
#[derive(Debug)]
struct EndpointCall {
    call: Option<CallId>,
    crv: Crv,
    pending_called: Option<Msisdn>,
    remote_signal: Option<TransportAddr>,
    remote_media: Option<TransportAddr>,
    connected_at: Option<SimTime>,
    talk: Talk,
}

impl EndpointCall {
    const REST: EndpointCall = EndpointCall {
        call: None,
        crv: Crv(0),
        pending_called: None,
        remote_signal: None,
        remote_media: None,
        connected_at: None,
        talk: Talk::IDLE,
    };

    fn at_rest(&self) -> bool {
        self.call.is_none()
            && self.remote_signal.is_none()
            && self.connected_at.is_none()
            && !self.talk.talking()
    }
}

/// The endpoint's own signalling address and its gatekeeper's, held by
/// parts: two [`TransportAddr`]s would pad to sixteen bytes.
#[derive(Clone, Copy, Debug)]
struct Addresses {
    ips: [Ipv4Addr; 2],
    ports: [u16; 2],
}

impl Addresses {
    fn new(own: TransportAddr, gk: TransportAddr) -> Self {
        Addresses {
            ips: [own.ip, gk.ip],
            ports: [own.port, gk.port],
        }
    }

    fn own(self) -> TransportAddr {
        TransportAddr::new(self.ips[0], self.ports[0])
    }

    fn gk(self) -> TransportAddr {
        TransportAddr::new(self.ips[1], self.ports[1])
    }
}

/// The endpoint's call machine over an [`Uplink`]. It keeps what
/// outlives a call and nothing that `Stats` counts already: its frames
/// and connected calls are `U::NAMES.rtp_received` and
/// `U::NAMES.calls_connected`.
#[derive(Debug)]
pub struct H323Endpoint<U> {
    alias: Msisdn,
    addrs: Addresses,
    uplink: U,
    state: TerminalState,
    next_crv: u16,
    /// The frames sent, over every call. Their RTP sequence number is
    /// the low 16 bits of the source's, and only the first frame the
    /// endpoint ever sends (or the first after those bits wrap) carries
    /// the RTP marker.
    voice: VoiceSource,
    /// The current dial's instant, until it connects or ends.
    dialed_at: Stamp,
    /// Why the last call ended before it connected; cleared by a dial.
    failure: Option<Cause>,
    leg: Option<Box<EndpointCall>>,
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
            alias: config.alias,
            addrs: Addresses::new(config.addr, config.gk),
            uplink,
            state: TerminalState::Registering,
            next_crv: 0,
            voice: VoiceSource::default(),
            dialed_at: Stamp::default(),
            failure: None,
            leg: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> TerminalState {
        self.state
    }

    /// The cause the endpoint's last call was released or refused with
    /// before it connected, if it was; a dial clears it. Read with
    /// [`state`](Self::state) (`Active` means the dial connected), it
    /// says how a dial ended.
    pub fn dial_failure(&self) -> Option<Cause> {
        self.failure
    }

    /// The RTP frames the endpoint has sent, over every call.
    pub fn frames_sent(&self) -> u32 {
        self.voice.frames_sent()
    }

    /// Promises the endpoint's voice source that nothing changes its
    /// call's frames before `until`; see [`VoiceSource::set_horizon`].
    pub fn set_voice_horizon(&mut self, until: SimTime) {
        self.voice.set_horizon(until);
    }

    /// The endpoint's configuration: its alias and addresses.
    pub fn config(&self) -> TerminalConfig {
        TerminalConfig {
            alias: self.alias,
            addr: self.addrs.own(),
            gk: self.addrs.gk(),
        }
    }

    /// The current call, if any.
    fn call(&self) -> Option<CallId> {
        self.leg.as_ref().and_then(|leg| leg.call)
    }

    /// The call state, boxed on first use.
    fn leg(&mut self) -> &mut EndpointCall {
        self.leg.get_or_insert_with(|| Box::new(EndpointCall::REST))
    }

    /// Drops the call state once nothing in it can be read again.
    fn settle(&mut self) {
        if self.leg.as_ref().is_some_and(|leg| leg.at_rest()) {
            self.leg = None;
        }
    }

    fn media_addr(&self) -> TransportAddr {
        let own = self.addrs.own();
        TransportAddr::new(own.ip, own.port + 10_000)
    }

    fn send_ip(&self, ctx: &mut Context<'_, Message>, dst: TransportAddr, payload: IpPayload) {
        self.uplink
            .send(ctx, IpPacket::new(self.addrs.own(), dst, payload));
    }

    fn send_ras(&self, ctx: &mut Context<'_, Message>, ras: RasMessage) {
        self.send_ip(ctx, self.addrs.gk(), IpPayload::Ras(ras));
    }

    fn send_q931(&self, ctx: &mut Context<'_, Message>, kind: Q931Kind) {
        let Some(leg) = self.leg.as_deref() else {
            return;
        };
        let (Some(call), Some(dst)) = (leg.call, leg.remote_signal) else {
            return;
        };
        let crv = leg.crv;
        self.send_ip(ctx, dst, IpPayload::Q931(Q931Message { crv, call, kind }));
    }

    /// Registers with the gatekeeper. `imsi` is what a TR 22.973 handset
    /// discloses with its alias; a plain terminal has none to give.
    pub fn register(&self, ctx: &mut Context<'_, Message>, imsi: Option<Imsi>) {
        self.send_ras(
            ctx,
            RasMessage::Rrq {
                alias: self.alias,
                transport: self.addrs.own(),
                imsi,
            },
        );
    }

    /// The gatekeeper confirmed the registration that
    /// [`register`](Self::register) sent: the endpoint is idle.
    pub fn confirm_registration(&mut self, ctx: &mut Context<'_, Message>) {
        if self.state == TerminalState::Registering {
            self.state = TerminalState::Idle;
            ctx.count(U::NAMES.registered);
        }
    }

    /// Sends the originating ARQ of a dialled call. False when there is
    /// no such call any more (hung up while the bearer came up).
    pub fn request_admission(&mut self, ctx: &mut Context<'_, Message>) -> bool {
        let called = self.leg.as_ref().and_then(|leg| leg.pending_called);
        let (TerminalState::RequestingAdmission, Some(call), Some(called)) =
            (self.state, self.call(), called)
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
    /// under a dialled call did not come up): no DRQ is owed, and the
    /// endpoint keeps nothing of the call.
    pub fn fail_call(&mut self, ctx: &mut Context<'_, Message>) {
        if self.call().is_none() {
            return;
        }
        self.stop_voice(ctx);
        self.leg = None;
        self.dialed_at.take();
        self.state = TerminalState::Idle;
    }

    /// Whether the gatekeeper has admitted the current call: the ACF
    /// came, and a DRQ is owed when the call ends.
    fn admitted(&self) -> bool {
        matches!(
            self.state,
            TerminalState::Calling
                | TerminalState::Ringback
                | TerminalState::Ringing
                | TerminalState::Active
        )
    }

    fn stop_voice(&mut self, ctx: &mut Context<'_, Message>) {
        if let Some(leg) = &mut self.leg {
            leg.talk.stop(ctx);
        }
        self.settle();
    }

    fn enter_active(&mut self, ctx: &mut Context<'_, Message>) {
        self.state = TerminalState::Active;
        self.leg().connected_at = Some(ctx.now());
        ctx.count(U::NAMES.calls_connected);
        if let Some(at) = self.dialed_at.take() {
            ctx.observe_duration(U::NAMES.call_setup_ms, ctx.now().duration_since(at));
        }
        self.leg().talk.start(ctx);
    }

    fn end_call(&mut self, ctx: &mut Context<'_, Message>) {
        self.stop_voice(ctx);
        let admitted = self.admitted();
        if let Some(mut leg) = self.leg.take() {
            if let (Some(call), true) = (leg.call.take(), admitted) {
                let duration_ms = (leg.connected_at.take())
                    .map(|at| ctx.now().duration_since(at).as_millis())
                    .unwrap_or(0);
                // Paper step 3.3: both sides disengage.
                self.send_ras(ctx, RasMessage::Drq { call, duration_ms });
            }
            (leg.remote_signal, leg.remote_media, leg.pending_called) = (None, None, None);
            if !leg.at_rest() {
                self.leg = Some(leg);
            }
        }
        self.dialed_at.take();
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
                let leg = self.leg();
                (leg.call, leg.pending_called) = (Some(call), Some(called));
                self.dialed_at.set(ctx.now());
                self.failure = None;
                ctx.count(U::NAMES.calls_dialed);
                return Outcome::Dialled;
            }
            Command::Hangup
                if self.call().is_some() => {
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
                    self.leg().talk.start(ctx);
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
                if self.call() == Some(rtp.call) {
                    let sink = VoiceSink {
                        frames: U::NAMES.rtp_received,
                        delay_ms: U::NAMES.voice_e2e_ms,
                    };
                    sink.receive(ctx, rtp.origin_us, rtp.frames());
                }
            }
        }
        self.settled(was_busy)
    }

    /// Runs one of the endpoint's own timers (auto-answer, voice tick).
    pub fn timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        match tag {
            TIMER_ANSWER => self.answer(ctx),
            VoiceSource::TICK => {
                let active = self.state == TerminalState::Active;
                let Some(leg) = self.leg.as_deref_mut() else {
                    return;
                };
                let far = match (active, leg.call, leg.remote_media) {
                    (true, Some(call), Some(media)) => Some((call, media)),
                    _ => None,
                };
                let Some(sent) = self.voice.fire(ctx, &mut leg.talk, far.is_some()) else {
                    return;
                };
                let (call, media) = far.expect("a live source has a far end");
                let seq = sent.seq as u16;
                let rtp = RtpPacket {
                    ssrc: 0,
                    seq,
                    timestamp: (sent.origin_us / 125) as u32,
                    payload_type: PAYLOAD_TYPE_GSM,
                    marker: seq == 1,
                    payload_len: GSM_FRAME_BYTES * sent.count,
                    call,
                    origin_us: sent.origin_us,
                };
                ctx.count_by(U::NAMES.rtp_sent, sent.count.into());
                self.send_ip(ctx, media, IpPayload::Rtp(rtp));
                self.leg().talk.rearm(ctx, sent);
            }
            _ => {}
        }
    }

    fn handle_ras(&mut self, ctx: &mut Context<'_, Message>, ras: RasMessage) {
        match ras {
            RasMessage::Rcf { .. } => self.confirm_registration(ctx),
            RasMessage::Rrj { .. } => ctx.count(U::NAMES.registration_rejected),
            RasMessage::Acf {
                call,
                dest_call_signal_addr,
            } => {
                let Some(leg) = self.leg.as_deref_mut().filter(|leg| leg.call == Some(call)) else {
                    // Admitted for a call the endpoint has since given
                    // up: the admission goes straight back.
                    let duration_ms = 0;
                    return self.send_ras(ctx, RasMessage::Drq { call, duration_ms });
                };
                match self.state {
                    TerminalState::RequestingAdmission => {
                        let Some(called) = leg.pending_called else {
                            return;
                        };
                        self.next_crv += 1;
                        leg.crv = Crv(self.next_crv);
                        leg.remote_signal = Some(dest_call_signal_addr);
                        self.state = TerminalState::Calling;
                        self.send_q931(
                            ctx,
                            Q931Kind::Setup {
                                calling: Some(self.alias),
                                called,
                                signal_addr: self.addrs.own(),
                                media_addr: self.media_addr(),
                            },
                        );
                    }
                    TerminalState::AnsweringAdmission => {
                        // Paper step 2.6: ring and alert the caller.
                        self.state = TerminalState::Ringing;
                        ctx.count(U::NAMES.ringing);
                        self.send_q931(ctx, Q931Kind::Alerting);
                        ctx.set_timer(ANSWER_DELAY, TIMER_ANSWER);
                    }
                    _ => {}
                }
            }
            RasMessage::Arj { call, cause } => {
                if self.call() != Some(call) {
                    return;
                }
                ctx.count(U::NAMES.admission_rejected);
                self.failure = Some(cause);
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
                let leg = self.leg();
                (leg.call, leg.crv) = (Some(msg.call), msg.crv);
                leg.remote_signal = Some(signal_addr);
                leg.remote_media = Some(media_addr);
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
                if self.state == TerminalState::Calling && self.call() == Some(msg.call) {
                    self.state = TerminalState::Ringback;
                    if let Some(at) = self.dialed_at.get() {
                        ctx.observe_duration(
                            U::NAMES.post_dial_delay_ms,
                            ctx.now().duration_since(at),
                        );
                    }
                }
            }
            Q931Kind::Connect { media_addr } => {
                if self.call() == Some(msg.call)
                    && matches!(
                        self.state,
                        TerminalState::Calling | TerminalState::Ringback
                    )
                {
                    self.leg().remote_media = Some(media_addr);
                    self.enter_active(ctx);
                }
            }
            Q931Kind::ReleaseComplete { cause } => {
                if self.call() == Some(msg.call) {
                    ctx.count(U::NAMES.released_by_peer);
                    if self.state != TerminalState::Active {
                        self.failure = Some(cause);
                    }
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
                if packet.dst.ip != self.addrs.own().ip {
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
    use vgprs_sim::{Network, SimDuration};
    use vgprs_wire::Ipv4Addr;

    fn alias(n: &str) -> Msisdn {
        Msisdn::parse(n).unwrap()
    }

    fn addr(last: u8, port: u16) -> TransportAddr {
        TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, last), port)
    }

    /// Two terminals + gatekeeper + router: a complete H.323 zone.
    fn zone() -> (Network<Message>, NodeId, NodeId, NodeId) {
        zone_with_budget(10_000)
    }

    /// [`zone`] with the gatekeeper admitting `budget` units at once.
    fn zone_with_budget(budget: u32) -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(7);
        let router = net.add_node("router", IpRouter::new());
        let gk = net.add_node(
            "gk",
            Gatekeeper::new(
                GatekeeperConfig {
                    addr: addr(2, 1719),
                    bandwidth_budget: budget,
                    shed_utilization: 0.0,
                },
                router,
            ),
        );
        let t1 = net.add_node(
            "alice",
            H323Terminal::new(
                TerminalConfig {
                    alias: alias("88620001111"),
                    addr: addr(11, 1720),
                    gk: addr(2, 1719),
                },
                router,
            ),
        );
        let t2 = net.add_node(
            "bob",
            H323Terminal::new(
                TerminalConfig {
                    alias: alias("88620002222"),
                    addr: addr(12, 1720),
                    gk: addr(2, 1719),
                },
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

    /// A terminal at rest holds no call: the call's state is a box that
    /// exists only while the call does (184 bytes when the row carried
    /// a call's fields and the far party's addresses; 104 while it kept
    /// three tallies of `Stats` counters, its whole configuration and an
    /// `Option` delay; 56 while it kept an answering habit every endpoint
    /// shared, 48 before its voice source kept a train horizon). At 56
    /// bytes its box is a 64-byte malloc chunk, as at 48.
    #[test]
    fn a_terminal_is_56_bytes_and_its_call_88() {
        use std::mem::size_of;
        assert_eq!(size_of::<H323Terminal>(), 56);
        assert_eq!(size_of::<Option<H323Terminal>>(), 56);
        assert_eq!(size_of::<EndpointCall>(), 88);
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
        // Each terminal hears only the other, which heard no more than
        // this one sent: this one heard at least the rest.
        let heard = net.stats().counter("term.rtp_received");
        for t in [a, b] {
            let at_least = heard.saturating_sub(u64::from(t.frames_sent()));
            assert!(at_least > 100, "got at least {at_least}");
        }
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

    fn idle_and_at_rest(net: &Network<Message>, t: NodeId) -> bool {
        let t = net.node::<H323Terminal>(t).unwrap();
        t.state() == TerminalState::Idle && t.leg.is_none()
    }

    #[test]
    fn a_released_call_leaves_no_call_behind() {
        let (mut net, _gk, t1, t2) = zone();
        net.run_until_quiescent();
        let dial = Command::Dial {
            call: CallId(1),
            called: alias("88620002222"),
        };
        net.inject(SimDuration::ZERO, t1, Message::Cmd(dial));
        net.run_until(vgprs_sim::SimTime::from_micros(5_000_000));
        let b = net.node::<H323Terminal>(t2).unwrap();
        assert_eq!((b.state(), b.call()), (TerminalState::Active, Some(CallId(1))));
        net.inject(SimDuration::ZERO, t2, Message::Cmd(Command::Hangup));
        net.run_until_quiescent();
        assert!(idle_and_at_rest(&net, t1) && idle_and_at_rest(&net, t2));
    }

    #[test]
    fn a_rejected_dial_leaves_no_call_behind() {
        let (mut net, _gk, t1, _t2) = zone();
        net.run_until_quiescent();
        let dial = Command::Dial {
            call: CallId(1),
            called: alias("99999999999"),
        };
        net.inject(SimDuration::ZERO, t1, Message::Cmd(dial));
        net.run_until_quiescent();
        assert!(idle_and_at_rest(&net, t1));
        let a = net.node::<H323Terminal>(t1).unwrap();
        assert_eq!(net.stats().counter("term.admission_rejected"), 1);
        assert!(a.dialed_at.get().is_none(), "a dial time ends with its call");
        assert_eq!(a.dial_failure(), Some(Cause::UnallocatedNumber));
    }

    /// A dial the gatekeeper refused leaves no dial time: the call the
    /// terminal answers next records no setup delay (the one sample is
    /// its caller's).
    #[test]
    fn a_failed_dial_then_an_answered_call_records_no_setup_sample() {
        let (mut net, _gk, t1, t2) = zone();
        net.run_until_quiescent();
        let refused = Command::Dial {
            call: CallId(1),
            called: alias("99999999999"),
        };
        net.inject(SimDuration::ZERO, t1, Message::Cmd(refused));
        net.run_until_quiescent();
        let answered = Command::Dial {
            call: CallId(2),
            called: alias("88620001111"),
        };
        net.inject(SimDuration::ZERO, t2, Message::Cmd(answered));
        net.run_until(vgprs_sim::SimTime::from_micros(5_000_000));
        let a = net.node::<H323Terminal>(t1).unwrap();
        assert_eq!(a.state(), TerminalState::Active);
        let setup = net.stats().histogram("term.call_setup_ms").unwrap();
        assert_eq!(setup.count(), 1, "only the caller dialed this call");
    }

    /// An answer the gatekeeper refuses leaves nothing of the call at
    /// either end.
    #[test]
    fn a_refused_answer_leaves_no_call_behind() {
        let (net, _gk, t1, t2) = refused_answer();
        assert!(idle_and_at_rest(&net, t1) && idle_and_at_rest(&net, t2));
        // The one refusal was the answer's: the caller was admitted.
        let b = net.node::<H323Terminal>(t2).unwrap();
        assert_eq!(net.stats().counter("term.admission_rejected"), 1);
        assert_eq!(b.dial_failure(), Some(Cause::AdmissionRejected));
    }

    /// After a refused answer, the terminal's next dial hung up before
    /// its ACF releases toward nobody (the old caller hears nothing),
    /// and the admission that arrives late goes straight back.
    #[test]
    fn a_dial_hung_up_before_its_acf_releases_toward_nobody() {
        let (mut net, gk, _t1, t2) = refused_answer();
        let releases = net.trace().count_label("Q931_Release_Complete");
        let dial = Command::Dial {
            call: CallId(2),
            called: alias("88620001111"),
        };
        net.inject(SimDuration::ZERO, t2, Message::Cmd(dial));
        net.inject(SimDuration::ZERO, t2, Message::Cmd(Command::Hangup));
        net.run_until_quiescent();
        assert_eq!(net.trace().count_label("Q931_Release_Complete"), releases);
        assert!(idle_and_at_rest(&net, t2));
        assert_eq!(net.node::<Gatekeeper>(gk).unwrap().bandwidth_used(), 0);
        assert_eq!(net.stats().counter("gk.admissions"), net.stats().counter("gk.disengages"));
    }

    /// Alice calls Bob through a gatekeeper with room for one call, so
    /// Bob's answering ARQ is refused; both end idle.
    fn refused_answer() -> (Network<Message>, NodeId, NodeId, NodeId) {
        let (mut net, gk, t1, t2) = zone_with_budget(160);
        net.run_until_quiescent();
        let dial = Command::Dial {
            call: CallId(1),
            called: alias("88620002222"),
        };
        net.inject(SimDuration::ZERO, t1, Message::Cmd(dial));
        net.run_until_quiescent();
        (net, gk, t1, t2)
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
        assert_eq!(net.stats().counter("term.admission_rejected"), 1);
        assert_eq!(a.dial_failure(), Some(Cause::UnallocatedNumber));
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
                TerminalConfig {
                    alias: alias("88620003333"),
                    addr: addr(13, 1720),
                    gk: addr(2, 1719),
                },
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
