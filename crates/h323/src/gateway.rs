//! The H.323/PSTN gateway.
//!
//! Bridges ISUP trunks to H.323 calls in both directions and transcodes
//! the bearer (circuit voice frames ↔ RTP). This is the element the
//! paper's Figure 8 routes through: the local telephone company hands the
//! call to the gateway, the gateway checks the gatekeeper, and a roamer
//! registered locally is reached with a *local* call. When the gatekeeper
//! does not know the dialed alias the gateway releases the trunk with
//! "no route", letting the originating switch fall back to the normal
//! international PSTN path.

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId};
use vgprs_wire::{
    CallId, Cause, Cic, Crv, IpPacket, IpPayload, IsupKind, IsupMessage, Message, Msisdn,
    Q931Kind, Q931Message, RasMessage, RtpPacket, TransportAddr, PAYLOAD_TYPE_GSM,
};

/// One bridged call.
#[derive(Debug)]
struct GwCall {
    /// ISUP leg: (switch node, circuit).
    trunk: Option<(NodeId, Cic)>,
    /// Remote H.323 signaling address.
    remote_signal: Option<TransportAddr>,
    /// Remote H.323 media address.
    remote_media: Option<TransportAddr>,
    crv: Crv,
    rtp_seq: u16,
}

/// Configuration for a [`PstnGateway`].
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// The gateway's H.225 transport address.
    pub addr: TransportAddr,
    /// The gatekeeper's RAS address.
    pub gk: TransportAddr,
}

/// The gateway node.
#[derive(Debug)]
pub struct PstnGateway {
    config: GatewayConfig,
    router: NodeId,
    switch: NodeId,
    calls: IdMap<CallId, GwCall>,
    /// Originating IAM details held while the gatekeeper answers.
    pending_called: IdMap<CallId, (Msisdn, Option<Msisdn>)>,
    next_crv: u16,
}

impl PstnGateway {
    /// Creates a gateway between `switch` (ISUP) and the H.323 zone
    /// reachable via `router`.
    pub fn new(config: GatewayConfig, router: NodeId, switch: NodeId) -> Self {
        PstnGateway {
            config,
            router,
            switch,
            calls: IdMap::default(),
            pending_called: IdMap::default(),
            next_crv: 0,
        }
    }

    /// Calls currently bridged.
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    fn media_addr(&self) -> TransportAddr {
        TransportAddr::new(self.config.addr.ip, self.config.addr.port + 10_000)
    }

    fn send_ip(&self, ctx: &mut Context<'_, Message>, dst: TransportAddr, payload: IpPayload) {
        ctx.send(
            self.router,
            Message::Ip(IpPacket::new(self.config.addr, dst, payload)),
        );
    }

    fn send_q931(&self, ctx: &mut Context<'_, Message>, call: CallId, kind: Q931Kind) {
        let Some(gw_call) = self.calls.get(&call) else {
            return;
        };
        let Some(dst) = gw_call.remote_signal else {
            return;
        };
        self.send_ip(
            ctx,
            dst,
            IpPayload::Q931(Q931Message {
                crv: gw_call.crv,
                call,
                kind,
            }),
        );
    }

    fn send_isup(&self, ctx: &mut Context<'_, Message>, call: CallId, kind: IsupKind) {
        if let Some((switch, cic)) = self.calls.get(&call).and_then(|c| c.trunk) {
            ctx.send(switch, Message::Isup(IsupMessage { cic, call, kind }));
        }
    }

    fn drop_call(&mut self, call: CallId) {
        self.calls.remove(&call);
    }

    fn handle_isup(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: IsupMessage) {
        let IsupMessage { cic, call, kind } = msg;
        match kind {
            IsupKind::Iam { called, calling } => {
                // PSTN → H.323: ask the gatekeeper where the alias lives
                // (paper Figure 8, step (2)).
                self.next_crv += 1;
                self.calls.insert(
                    call,
                    GwCall {
                        trunk: Some((from, cic)),
                        remote_signal: None,
                        remote_media: None,
                        crv: Crv(self.next_crv),
                        rtp_seq: 0,
                    },
                );
                self.pending_called.insert(call, (called, calling));
                ctx.count("gw.pstn_calls_in");
                self.send_ip(
                    ctx,
                    self.config.gk,
                    IpPayload::Ras(RasMessage::Arq {
                        call,
                        called,
                        answering: false,
                        bandwidth: 160,
                    }),
                );
            }
            IsupKind::Acm => self.send_q931(ctx, call, Q931Kind::Alerting),
            IsupKind::Anm => {
                let media_addr = self.media_addr();
                self.send_q931(ctx, call, Q931Kind::Connect { media_addr });
            }
            IsupKind::Rel { cause } => {
                ctx.send(
                    from,
                    Message::Isup(IsupMessage {
                        cic,
                        call,
                        kind: IsupKind::Rlc,
                    }),
                );
                self.send_q931(ctx, call, Q931Kind::ReleaseComplete { cause });
                self.disengage(ctx, call);
                self.drop_call(call);
            }
            IsupKind::Rlc => {}
        }
    }

    fn disengage(&self, ctx: &mut Context<'_, Message>, call: CallId) {
        if self.calls.contains_key(&call) {
            self.send_ip(
                ctx,
                self.config.gk,
                IpPayload::Ras(RasMessage::Drq {
                    call,
                    duration_ms: 0,
                }),
            );
        }
    }

    fn handle_ras(&mut self, ctx: &mut Context<'_, Message>, ras: RasMessage) {
        match ras {
            RasMessage::Acf {
                call,
                dest_call_signal_addr,
            } => {
                let Some((called, calling)) = self.pending_called.remove(&call) else {
                    return;
                };
                let media_addr = self.media_addr();
                let signal_addr = self.config.addr;
                let Some(gw_call) = self.calls.get_mut(&call) else {
                    return;
                };
                gw_call.remote_signal = Some(dest_call_signal_addr);
                ctx.count("gw.h323_setups_out");
                self.send_q931(
                    ctx,
                    call,
                    Q931Kind::Setup {
                        calling,
                        called,
                        signal_addr,
                        media_addr,
                    },
                );
            }
            RasMessage::Arj { call, .. } => {
                // Alias unknown to the local gatekeeper: fall back to the
                // normal PSTN (paper Figure 8's "otherwise" branch).
                self.pending_called.remove(&call);
                ctx.count("gw.fallback_to_pstn");
                self.send_isup(
                    ctx,
                    call,
                    IsupKind::Rel {
                        cause: Cause::NoRouteToDestination,
                    },
                );
                self.drop_call(call);
            }
            RasMessage::Dcf { .. } => {}
            _ => ctx.count("gw.unhandled_ras"),
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
                called,
                calling,
                signal_addr,
                media_addr,
            } => {
                // H.323 → PSTN: seize a trunk into the switch.
                self.calls.insert(
                    msg.call,
                    GwCall {
                        trunk: Some((self.switch, Cic(50_000 + self.next_crv))),
                        remote_signal: Some(signal_addr),
                        remote_media: Some(media_addr),
                        crv: msg.crv,
                        rtp_seq: 0,
                    },
                );
                self.next_crv += 1;
                ctx.count("gw.h323_calls_in");
                self.send_q931(ctx, msg.call, Q931Kind::CallProceeding);
                self.send_isup(ctx, msg.call, IsupKind::Iam { called, calling });
            }
            Q931Kind::Alerting => {
                self.send_isup(ctx, msg.call, IsupKind::Acm);
            }
            Q931Kind::Connect { media_addr } => {
                if let Some(c) = self.calls.get_mut(&msg.call) {
                    c.remote_media = Some(media_addr);
                }
                self.send_isup(ctx, msg.call, IsupKind::Anm);
            }
            Q931Kind::CallProceeding => {}
            Q931Kind::ReleaseComplete { cause } => {
                self.send_isup(ctx, msg.call, IsupKind::Rel { cause });
                self.disengage(ctx, msg.call);
                self.drop_call(msg.call);
            }
        }
        let _ = src;
    }
}

impl Node<Message> for PstnGateway {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Isup, Message::Isup(m)) => self.handle_isup(ctx, from, m),
            (
                Interface::Isup,
                Message::TrunkVoice {
                    call,
                    seq,
                    origin_us,
                    ..
                },
            ) => {
                // Circuit → RTP.
                let Some(gw_call) = self.calls.get_mut(&call) else {
                    return;
                };
                let Some(media) = gw_call.remote_media else {
                    return;
                };
                gw_call.rtp_seq = gw_call.rtp_seq.wrapping_add(1);
                let rtp = RtpPacket {
                    ssrc: 0x4757_4159 // "GWAY"
                        ,
                    seq: gw_call.rtp_seq,
                    timestamp: (origin_us / 125) as u32,
                    payload_type: PAYLOAD_TYPE_GSM,
                    marker: seq == 1,
                    payload_len: 33,
                    call,
                    origin_us,
                };
                let addr = self.config.addr;
                ctx.send(
                    self.router,
                    Message::Ip(IpPacket::new(addr, media, IpPayload::Rtp(rtp))),
                );
            }
            (Interface::Lan | Interface::Gi, Message::Ip(packet)) => {
                if packet.dst.ip != self.config.addr.ip {
                    ctx.count("gw.misdelivered");
                    return;
                }
                let src = packet.src;
                match packet.payload {
                    IpPayload::Ras(r) => self.handle_ras(ctx, r),
                    IpPayload::Q931(q) => self.handle_q931(ctx, src, q),
                    IpPayload::Rtp(rtp) => {
                        // RTP → circuit.
                        let cic = self
                            .calls
                            .get(&rtp.call)
                            .and_then(|c| c.trunk)
                            .map(|(_, cic)| cic)
                            .unwrap_or(Cic(0));
                        ctx.send(
                            self.switch,
                            Message::TrunkVoice {
                                cic,
                                call: rtp.call,
                                seq: rtp.seq as u32,
                                origin_us: rtp.origin_us,
                            },
                        );
                    }
                }
            }
            _ => ctx.count("gw.unexpected_message"),
        }
    }
}
