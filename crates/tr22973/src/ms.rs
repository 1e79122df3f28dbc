//! The 3G TR 22.973 mobile station: an H.323 terminal *inside the
//! handset*.
//!
//! This is the baseline the paper argues against (Section 6). The MS
//! carries its own vocoder and H.323 stack; all of its traffic — RAS,
//! Q.931, RTP — rides the shared packet radio channel (PDCH) through the
//! BSC's PCU into the GPRS core. Following the TR, the PDP context is
//! **deactivated whenever the MS is idle** and re-activated per call:
//! MS-initiated for origination, network-initiated (via the GGSN's PDU
//! notification on the static PDP address) for termination.
//!
//! The H.323 stack is [`H323Endpoint`], the machine a wireline terminal
//! runs; this file is only the GPRS bearer under it — attach, the
//! context's life around the endpoint's calls, LLC framing.

use vgprs_h323::{EndpointNames, H323Endpoint, Outcome, TerminalConfig, TerminalState, Uplink};
use vgprs_sim::{Context, Interface, Node, NodeId, SimTime, TimerToken};
use vgprs_wire::{
    Command, GmmMessage, Imsi, IpPacket, Ipv4Addr, Message, Msisdn, Nsapi, QosProfile,
    TransportAddr,
};

/// The TR MS's single PDP context.
fn nsapi() -> Nsapi {
    Nsapi::new(6).expect("6 is a valid NSAPI")
}

/// Why a PDP context activation is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActivationPurpose {
    /// Initial registration with the gatekeeper.
    Register,
    /// Outgoing call.
    Originate,
    /// Network-requested (incoming call pending at the GGSN).
    Terminate,
}

/// Configuration for a [`H323Ms`].
#[derive(Clone, Copy, Debug)]
pub struct TrMsConfig {
    /// Subscriber identity (disclosed to the gatekeeper — the TR's
    /// confidentiality cost).
    pub imsi: Imsi,
    /// Dialable number / H.323 alias.
    pub msisdn: Msisdn,
    /// The static PDP address provisioned at the GGSN (required for
    /// network-initiated activation, as the paper's Section 6 explains).
    pub static_addr: Ipv4Addr,
    /// The gatekeeper's RAS address.
    pub gk: TransportAddr,
    /// Tear the PDP context down when idle (the TR behavior). `false`
    /// keeps it always-on — the ablation that isolates the paper's C2
    /// claim.
    pub deactivate_when_idle: bool,
}

impl TrMsConfig {
    /// TR-faithful defaults.
    pub fn new(imsi: Imsi, msisdn: Msisdn, static_addr: Ipv4Addr, gk: TransportAddr) -> Self {
        TrMsConfig {
            imsi,
            msisdn,
            static_addr,
            gk,
            deactivate_when_idle: true,
        }
    }
}

/// The packet air interface: every packet is an LLC frame to the BTS,
/// queued on the cell's shared PDCH.
#[derive(Debug)]
pub struct Pdch {
    bts: NodeId,
    imsi: Imsi,
}

impl Uplink for Pdch {
    const NAMES: &'static EndpointNames = &EndpointNames {
        registered: "trms.registered",
        registration_rejected: "trms.registration_rejected",
        dial_while_busy: "trms.dial_while_busy",
        calls_dialed: "trms.calls_dialed",
        calls_connected: "trms.calls_connected",
        ringing: "trms.ringing",
        admission_rejected: "trms.admission_rejected",
        unhandled_ras: "trms.unhandled_ras",
        call_proceeding: "trms.call_proceeding",
        released_by_peer: "trms.released_by_peer",
        rtp_sent: "trms.rtp_sent",
        rtp_received: "trms.rtp_received",
        call_setup_ms: "trms.call_setup_ms",
        post_dial_delay_ms: "trms.post_dial_delay_ms",
        voice_e2e_ms: "trms.voice_e2e_ms",
    };

    fn send(&self, ctx: &mut Context<'_, Message>, packet: IpPacket) {
        ctx.send(
            self.bts,
            Message::Llc {
                imsi: self.imsi,
                nsapi: nsapi(),
                inner: Box::new(packet),
            },
        );
    }
}

/// The TR 22.973 mobile station node.
#[derive(Debug)]
pub struct H323Ms {
    config: TrMsConfig,
    /// The serving BTS (all traffic crosses the shared PDCH).
    bts: NodeId,
    endpoint: H323Endpoint<Pdch>,
    powered: bool,
    context_active: bool,
    /// The activation in flight, if any.
    purpose: Option<ActivationPurpose>,
    reg_started: Option<SimTime>,
}

impl H323Ms {
    /// Creates a powered-off TR MS camped on `bts`.
    pub fn new(config: TrMsConfig, bts: NodeId) -> Self {
        let endpoint = H323Endpoint::with_uplink(
            TerminalConfig {
                alias: config.msisdn,
                addr: TransportAddr::new(config.static_addr, 1720),
                gk: config.gk,
            },
            Pdch {
                bts,
                imsi: config.imsi,
            },
        );
        H323Ms {
            config,
            bts,
            endpoint,
            powered: false,
            context_active: false,
            purpose: None,
            reg_started: None,
        }
    }

    /// The H.323 call state; per the TR the context is down while it is
    /// [`TerminalState::Idle`].
    pub fn state(&self) -> TerminalState {
        self.endpoint.state()
    }

    /// The H.323 endpoint inside the handset (its call counters).
    pub fn endpoint(&self) -> &H323Endpoint<Pdch> {
        &self.endpoint
    }

    /// True while the PDP context is up.
    pub fn context_active(&self) -> bool {
        self.context_active
    }

    /// Toggles the TR idle-teardown behavior (the C2 ablation switch).
    /// Call before the MS powers on.
    pub fn set_deactivate_when_idle(&mut self, v: bool) {
        self.config.deactivate_when_idle = v;
    }

    fn send_gmm(&self, ctx: &mut Context<'_, Message>, msg: GmmMessage) {
        ctx.send(self.bts, Message::Gmm(msg));
    }

    fn activate(&mut self, ctx: &mut Context<'_, Message>, purpose: ActivationPurpose) {
        self.purpose = Some(purpose);
        ctx.count("trms.activations");
        self.send_gmm(
            ctx,
            GmmMessage::ActivatePdpContextRequest {
                imsi: self.config.imsi,
                nsapi: nsapi(),
                qos: QosProfile::realtime_voice(),
                static_addr: Some(self.config.static_addr),
            },
        );
    }

    fn deactivate_if_idle(&mut self, ctx: &mut Context<'_, Message>) {
        if self.config.deactivate_when_idle && self.context_active {
            self.context_active = false;
            ctx.count("trms.deactivations");
            self.send_gmm(
                ctx,
                GmmMessage::DeactivatePdpContextRequest {
                    imsi: self.config.imsi,
                    nsapi: nsapi(),
                },
            );
        }
    }

    /// Does what an endpoint input left to the bearer.
    fn follow(&mut self, ctx: &mut Context<'_, Message>, outcome: Outcome) {
        match outcome {
            Outcome::Handled => {}
            // The paper's Section 6 point: a context must first be
            // (re)established for every call.
            Outcome::Dialled if !self.context_active => {
                self.activate(ctx, ActivationPurpose::Originate)
            }
            Outcome::Dialled => {
                self.endpoint.request_admission(ctx);
            }
            Outcome::WentIdle => {
                if let Some(at) = self.reg_started.take() {
                    ctx.observe_duration("trms.registration_ms", ctx.now().duration_since(at));
                }
                // Step 6 of the TR's figure 7, and again after every
                // call: deactivate when idle.
                self.deactivate_if_idle(ctx);
            }
        }
    }

    fn handle_command(&mut self, ctx: &mut Context<'_, Message>, cmd: Command) {
        match cmd {
            Command::PowerOn => {
                if self.powered {
                    return;
                }
                self.powered = true;
                self.reg_started = Some(ctx.now());
                self.send_gmm(
                    ctx,
                    GmmMessage::AttachRequest {
                        imsi: self.config.imsi,
                    },
                );
            }
            // An activation is in flight under an endpoint that is idle
            // (incoming call pending, or hung up since it was dialled):
            // a second one would cross it.
            Command::Dial { .. } if self.purpose.is_some() => {
                ctx.count(Pdch::NAMES.dial_while_busy)
            }
            cmd => {
                let outcome = self.endpoint.command(ctx, cmd);
                self.follow(ctx, outcome);
            }
        }
    }

    fn handle_gmm(&mut self, ctx: &mut Context<'_, Message>, msg: GmmMessage) {
        match msg {
            // Register with the gatekeeper: context up first.
            GmmMessage::AttachAccept { .. } => self.activate(ctx, ActivationPurpose::Register),
            GmmMessage::AttachReject { .. } => {
                ctx.count("trms.attach_rejected");
                self.powered = false;
            }
            GmmMessage::ActivatePdpContextAccept { .. } => {
                self.context_active = true;
                match self.purpose.take() {
                    // The TR integration hands the IMSI to the H.323
                    // domain (experiment C4 counts this).
                    Some(ActivationPurpose::Register) => {
                        self.endpoint.register(ctx, Some(self.config.imsi))
                    }
                    Some(ActivationPurpose::Originate) if self.endpoint.request_admission(ctx) => {}
                    // Incoming call: the GGSN will now flush the
                    // buffered Setup; wait for it.
                    Some(ActivationPurpose::Terminate) => {}
                    // The call was hung up while its context came up:
                    // nothing is left for it to carry.
                    _ => self.deactivate_if_idle(ctx),
                }
            }
            GmmMessage::ActivatePdpContextReject { .. } => {
                ctx.count("trms.activation_rejected");
                if self.purpose.take() == Some(ActivationPurpose::Originate) {
                    self.endpoint.fail_call(ctx);
                }
            }
            GmmMessage::RequestPdpContextActivation { .. } => {
                // Network-initiated activation for an incoming call.
                ctx.count("trms.network_initiated_activations");
                if !self.context_active {
                    self.activate(ctx, ActivationPurpose::Terminate);
                }
            }
            GmmMessage::DeactivatePdpContextAccept { .. } => {}
            _ => ctx.count("trms.unhandled_gmm"),
        }
    }
}

impl Node<Message> for H323Ms {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Internal, Message::Cmd(cmd)) => self.handle_command(ctx, cmd),
            (Interface::Um, Message::Gmm(m)) => self.handle_gmm(ctx, m),
            (Interface::Um, Message::Llc { inner, .. }) => {
                let outcome = self.endpoint.receive(ctx, *inner);
                self.follow(ctx, outcome);
            }
            _ => ctx.count("trms.unexpected_message"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _token: TimerToken, tag: u64) {
        self.endpoint.timer(ctx, tag);
    }
}
