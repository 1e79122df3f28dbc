//! Serving GPRS Support Node.
//!
//! The SGSN terminates Gb toward its attached endpoints (the BSC's PCU
//! for real GPRS MSs, or the VMSC acting as an MS — paper Figure 2) and
//! runs GTP tunnels to the GGSN over Gn. Every attach is accepted: the
//! testbeds are closed worlds and no experiment reads an authorization
//! over Gr, so there is no leg to the HLR.

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId, Offer, Throttle, TimerToken};
use vgprs_wire::{
    Cause, Command, GmmMessage, GtpMessage, Imsi, IpPacket, Ipv4Addr, Message, Nsapi, QosProfile,
    Teid, Tmsi,
};

/// A PDP activation request, as the admission control holds it.
#[derive(Debug)]
struct Activation {
    endpoint: NodeId,
    imsi: Imsi,
    nsapi: Nsapi,
    qos: QosProfile,
    static_addr: Option<Ipv4Addr>,
}

/// Mobility-management context of one attached endpoint.
#[derive(Debug)]
struct MmContext {
    /// The node speaking Gb for this subscriber (BSC or VMSC).
    endpoint: NodeId,
    /// Kept for report output (GSM 03.60 MM context).
    #[allow(dead_code)]
    ptmsi: Tmsi,
}

/// One PDP context as the SGSN sees it.
#[derive(Debug)]
struct SgsnPdp {
    sgsn_teid: Teid,
    ggsn_teid: Option<Teid>,
    addr: Option<Ipv4Addr>,
    qos: QosProfile,
}

/// The SGSN node.
#[derive(Debug)]
pub struct Sgsn {
    ggsn: NodeId,
    mm: IdMap<Imsi, MmContext>,
    pdp: IdMap<(Imsi, Nsapi), SgsnPdp>,
    teid_index: IdMap<Teid, (Imsi, Nsapi)>,
    next_teid: u32,
    next_ptmsi: u32,
    /// Overload control: PDP activations admitted per simulated second
    /// (`0` = unlimited, the historical behavior). Its drain tick is the
    /// SGSN's only timer.
    admission: Throttle<Activation>,
    /// Fault injection: while true (crashed or blackholed) the node
    /// silently drops every protocol message.
    down: bool,
}

impl Sgsn {
    /// Creates an SGSN tunneling into `ggsn`.
    pub fn new(ggsn: NodeId) -> Self {
        Sgsn {
            ggsn,
            mm: IdMap::default(),
            pdp: IdMap::default(),
            teid_index: IdMap::default(),
            next_teid: 0,
            next_ptmsi: 0,
            admission: Throttle::new(0),
            down: false,
        }
    }

    /// Enables PDP admission control: at most `rate` activations proceed
    /// per simulated second; excess requests wait in a bounded queue
    /// (twice the rate) for the next window, and overflow is rejected
    /// with a network-congestion cause. `0` disables the control.
    pub fn with_admission_rate(mut self, rate: u32) -> Self {
        self.admission = Throttle::new(rate);
        self
    }

    /// Number of active PDP contexts — the resource the paper's Section 6
    /// context-memory comparison (experiment C3) measures.
    pub fn active_pdp_count(&self) -> usize {
        self.pdp.len()
    }

    fn alloc_teid(&mut self) -> Teid {
        self.next_teid += 1;
        Teid(0x5000_0000 | self.next_teid)
    }

    fn handle_gmm(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: GmmMessage) {
        match msg {
            GmmMessage::AttachRequest { imsi } => {
                self.next_ptmsi += 1;
                let ptmsi = Tmsi(0xB000_0000 | self.next_ptmsi);
                self.mm.insert(
                    imsi,
                    MmContext {
                        endpoint: from,
                        ptmsi,
                    },
                );
                ctx.count("sgsn.attaches");
                ctx.send(from, Message::Gmm(GmmMessage::AttachAccept { imsi, ptmsi }));
            }
            GmmMessage::DetachRequest { imsi } => {
                if let Some(mm) = self.mm.remove(&imsi) {
                    // Tear down every remaining context of the subscriber.
                    let nsapis: Vec<Nsapi> = self
                        .pdp
                        .keys()
                        .filter(|(i, _)| *i == imsi)
                        .map(|(_, n)| *n)
                        .collect();
                    for nsapi in nsapis {
                        self.remove_pdp(ctx, imsi, nsapi);
                    }
                    ctx.count("sgsn.detaches");
                    ctx.send(mm.endpoint, Message::Gmm(GmmMessage::DetachAccept { imsi }));
                }
            }
            GmmMessage::ActivatePdpContextRequest {
                imsi,
                nsapi,
                qos,
                static_addr,
            } => self.admit_or_defer(
                ctx,
                Activation {
                    endpoint: from,
                    imsi,
                    nsapi,
                    qos,
                    static_addr,
                },
            ),
            GmmMessage::DeactivatePdpContextRequest { imsi, nsapi } => {
                self.remove_pdp(ctx, imsi, nsapi);
                if let Some(mm) = self.mm.get(&imsi) {
                    ctx.send(
                        mm.endpoint,
                        Message::Gmm(GmmMessage::DeactivatePdpContextAccept { imsi, nsapi }),
                    );
                }
            }
            _ => ctx.count("sgsn.unhandled_gmm"),
        }
    }

    /// Runs PDP admission control in front of [`Self::activate_pdp`]:
    /// admit inside the window budget, defer behind the bounded queue,
    /// or reject with a network-congestion cause on overflow.
    fn admit_or_defer(&mut self, ctx: &mut Context<'_, Message>, request: Activation) {
        // Low-precedence signaling contexts (one per subscriber, set up
        // at registration) ride through: the control targets the
        // per-call conversational activations that spike under load.
        if request.qos.precedence == vgprs_wire::Precedence::Low {
            return self.activate_pdp(ctx, request);
        }
        match self.admission.offer(ctx, request) {
            Offer::Admitted(request) => self.activate_pdp(ctx, request),
            Offer::Deferred => ctx.count("sgsn.pdp_admission_deferred"),
            Offer::Shed(Activation {
                endpoint,
                imsi,
                nsapi,
                ..
            }) => {
                ctx.count("sgsn.pdp_admission_rejected");
                ctx.send(
                    endpoint,
                    Message::Gmm(GmmMessage::ActivatePdpContextReject {
                        imsi,
                        nsapi,
                        cause: Cause::NetworkCongestion,
                    }),
                );
            }
        }
    }

    /// The activation proper: attach check, tunnel allocation, GTP
    /// create toward the GGSN.
    fn activate_pdp(&mut self, ctx: &mut Context<'_, Message>, request: Activation) {
        let Activation {
            endpoint,
            imsi,
            nsapi,
            qos,
            static_addr,
        } = request;
        if !self.mm.contains_key(&imsi) {
            ctx.count("sgsn.activation_not_attached");
            ctx.send(
                endpoint,
                Message::Gmm(GmmMessage::ActivatePdpContextReject {
                    imsi,
                    nsapi,
                    cause: Cause::SubscriberAbsent,
                }),
            );
            return;
        }
        let sgsn_teid = self.alloc_teid();
        self.pdp.insert(
            (imsi, nsapi),
            SgsnPdp {
                sgsn_teid,
                ggsn_teid: None,
                addr: None,
                qos,
            },
        );
        self.teid_index.insert(sgsn_teid, (imsi, nsapi));
        ctx.send(
            self.ggsn,
            Message::Gtp(GtpMessage::CreatePdpRequest {
                imsi,
                nsapi,
                qos,
                static_addr,
                sgsn_teid,
            }),
        );
    }

    fn remove_pdp(&mut self, ctx: &mut Context<'_, Message>, imsi: Imsi, nsapi: Nsapi) {
        if let Some(pdp) = self.pdp.remove(&(imsi, nsapi)) {
            self.teid_index.remove(&pdp.sgsn_teid);
            ctx.count("sgsn.pdp_deactivated");
            ctx.send(
                self.ggsn,
                Message::Gtp(GtpMessage::DeletePdpRequest { imsi, nsapi }),
            );
        }
    }

    fn handle_gtp(&mut self, ctx: &mut Context<'_, Message>, msg: GtpMessage) {
        match msg {
            GtpMessage::CreatePdpResponse {
                imsi,
                nsapi,
                result,
            } => {
                let Some(mm_endpoint) = self.mm.get(&imsi).map(|m| m.endpoint) else {
                    return;
                };
                match result {
                    Ok((addr, ggsn_teid, qos)) => {
                        if let Some(pdp) = self.pdp.get_mut(&(imsi, nsapi)) {
                            pdp.ggsn_teid = Some(ggsn_teid);
                            pdp.addr = Some(addr);
                            pdp.qos = qos;
                        }
                        ctx.count("sgsn.pdp_activated");
                        ctx.send(
                            mm_endpoint,
                            Message::Gmm(GmmMessage::ActivatePdpContextAccept {
                                imsi,
                                nsapi,
                                addr,
                                qos,
                            }),
                        );
                    }
                    Err(cause) => {
                        if let Some(pdp) = self.pdp.remove(&(imsi, nsapi)) {
                            self.teid_index.remove(&pdp.sgsn_teid);
                        }
                        ctx.count("sgsn.pdp_rejected");
                        ctx.send(
                            mm_endpoint,
                            Message::Gmm(GmmMessage::ActivatePdpContextReject {
                                imsi,
                                nsapi,
                                cause,
                            }),
                        );
                    }
                }
            }
            GtpMessage::DeletePdpResponse { .. } => {}
            GtpMessage::TPdu { teid, inner } => {
                // Downlink: unwrap and deliver over Gb as an LLC frame.
                let Some(&(imsi, nsapi)) = self.teid_index.get(&teid) else {
                    ctx.count("sgsn.tpdu_unknown_teid");
                    return;
                };
                let Some(mm) = self.mm.get(&imsi) else {
                    return;
                };
                match *inner {
                    Message::Ip(packet) => {
                        ctx.send(
                            mm.endpoint,
                            Message::Llc {
                                imsi,
                                nsapi,
                                inner: Box::new(packet),
                            },
                        );
                    }
                    other => {
                        let _ = other;
                        ctx.count("sgsn.tpdu_not_ip");
                    }
                }
            }
            GtpMessage::PduNotificationRequest { imsi, addr } => {
                // Network-requested activation (TR 22.973 termination path).
                let Some(mm) = self.mm.get(&imsi) else {
                    ctx.count("sgsn.notification_not_attached");
                    return;
                };
                ctx.count("sgsn.pdu_notifications");
                ctx.send(
                    mm.endpoint,
                    Message::Gmm(GmmMessage::RequestPdpContextActivation {
                        imsi,
                        nsapi: Nsapi::new(6).expect("6 is a valid NSAPI"),
                        addr,
                    }),
                );
                ctx.send(
                    self.ggsn,
                    Message::Gtp(GtpMessage::PduNotificationResponse { imsi }),
                );
            }
            _ => ctx.count("sgsn.unhandled_gtp"),
        }
    }

    fn handle_llc_uplink(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        nsapi: Nsapi,
        inner: IpPacket,
    ) {
        let Some(pdp) = self.pdp.get(&(imsi, nsapi)) else {
            ctx.count("sgsn.llc_no_context");
            return;
        };
        let Some(ggsn_teid) = pdp.ggsn_teid else {
            ctx.count("sgsn.llc_context_pending");
            return;
        };
        ctx.send(
            self.ggsn,
            Message::Gtp(GtpMessage::TPdu {
                teid: ggsn_teid,
                inner: Box::new(Message::Ip(inner)),
            }),
        );
    }
}

impl Node<Message> for Sgsn {
    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _token: TimerToken, _tag: u64) {
        // The tick is consumed even while down, so the control can
        // re-arm after a restore.
        self.admission.tick(ctx.now());
        if self.down {
            return;
        }
        // Admit up to one window's budget from the backlog, oldest first.
        while let Some((request, waited)) = self.admission.next(ctx, |_| true) {
            ctx.observe_duration("sgsn.pdp_admission_delay_ms", waited);
            self.activate_pdp(ctx, request);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Internal, Message::Cmd(Command::Crash)) => {
                // State loss: every MM and PDP context is gone; attached
                // subscribers must re-attach and re-activate from scratch.
                self.mm.clear();
                self.pdp.clear();
                self.teid_index.clear();
                self.admission.reset(ctx);
                self.down = true;
                ctx.count("sgsn.crashes");
            }
            (Interface::Internal, Message::Cmd(Command::Blackhole)) => {
                self.down = true;
                ctx.count("sgsn.blackholes");
            }
            (Interface::Internal, Message::Cmd(Command::Restore)) => {
                self.down = false;
            }
            _ if self.down => ctx.count("sgsn.dropped_while_down"),
            (Interface::Gb, Message::Gmm(m)) => self.handle_gmm(ctx, from, m),
            (Interface::Gb, Message::Llc { imsi, nsapi, inner }) => {
                self.handle_llc_uplink(ctx, imsi, nsapi, *inner)
            }
            (Interface::Gn, Message::Gtp(m)) => self.handle_gtp(ctx, m),
            _ => ctx.count("sgsn.unexpected_message"),
        }
    }

    /// Voice frames are routed on tables only signaling changes.
    fn pure_relay(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::{Network, SimDuration};
    use vgprs_wire::{IpPayload, RasMessage, TransportAddr};

    fn imsi() -> Imsi {
        Imsi::parse("466920123456789").unwrap()
    }

    fn nsapi() -> Nsapi {
        Nsapi::new(5).unwrap()
    }

    /// Sends its queued messages spaced 50 ms apart so each request's
    /// response round-trip completes before the next request fires.
    struct Endpoint {
        sgsn: NodeId,
        send: Vec<Message>,
        got: Vec<Message>,
    }
    impl Node<Message> for Endpoint {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            for (i, _) in self.send.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(50 * i as u64), i as u64);
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
        fn on_timer(
            &mut self,
            ctx: &mut Context<'_, Message>,
            _t: vgprs_sim::TimerToken,
            tag: u64,
        ) {
            let m = self.send[tag as usize].clone();
            ctx.send(self.sgsn, m);
        }
    }

    /// GGSN stub that accepts every tunnel.
    struct GgsnStub {
        sgsn: Option<NodeId>,
        next: u32,
    }
    impl Node<Message> for GgsnStub {
        fn on_message(
            &mut self,
            ctx: &mut Context<'_, Message>,
            from: NodeId,
            _i: Interface,
            m: Message,
        ) {
            self.sgsn = Some(from);
            if let Message::Gtp(GtpMessage::CreatePdpRequest {
                imsi, nsapi, qos, ..
            }) = m
            {
                self.next += 1;
                ctx.send(
                    from,
                    Message::Gtp(GtpMessage::CreatePdpResponse {
                        imsi,
                        nsapi,
                        result: Ok((
                            Ipv4Addr::from_octets(10, 200, 0, self.next as u8),
                            Teid(self.next),
                            qos,
                        )),
                    }),
                );
            }
        }
    }

    fn rig(send: Vec<Message>) -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let ggsn = net.add_node(
            "ggsn",
            GgsnStub {
                sgsn: None,
                next: 0,
            },
        );
        let sgsn = net.add_node("sgsn", Sgsn::new(ggsn));
        let ep = net.add_node(
            "endpoint",
            Endpoint {
                sgsn,
                send,
                got: Vec::new(),
            },
        );
        net.connect(sgsn, ggsn, Interface::Gn, SimDuration::from_millis(2));
        net.connect(ep, sgsn, Interface::Gb, SimDuration::from_millis(2));
        (net, sgsn, ggsn, ep)
    }

    #[test]
    fn attach_is_accepted() {
        let (mut net, sgsn, _ggsn, ep) = rig(vec![Message::Gmm(GmmMessage::AttachRequest {
            imsi: imsi(),
        })]);
        net.run_until_quiescent();
        assert_eq!(net.node::<Sgsn>(sgsn).unwrap().mm.len(), 1);
        let got = &net.node::<Endpoint>(ep).unwrap().got;
        assert!(matches!(
            got[0],
            Message::Gmm(GmmMessage::AttachAccept { .. })
        ));
    }

    #[test]
    fn pdp_activation_creates_tunnel() {
        let (mut net, sgsn, _ggsn, ep) = rig(vec![
            Message::Gmm(GmmMessage::AttachRequest { imsi: imsi() }),
            Message::Gmm(GmmMessage::ActivatePdpContextRequest {
                imsi: imsi(),
                nsapi: nsapi(),
                qos: QosProfile::signaling(),
                static_addr: None,
            }),
        ]);
        net.run_until_quiescent();
        assert_eq!(net.node::<Sgsn>(sgsn).unwrap().active_pdp_count(), 1);
        let got = &net.node::<Endpoint>(ep).unwrap().got;
        assert!(got
            .iter()
            .any(|m| matches!(m, Message::Gmm(GmmMessage::ActivatePdpContextAccept { .. }))));
        assert_eq!(net.stats().counter("sgsn.pdp_activated"), 1);
    }

    #[test]
    fn activation_requires_attach() {
        let (mut net, sgsn, _ggsn, ep) =
            rig(vec![Message::Gmm(GmmMessage::ActivatePdpContextRequest {
                imsi: imsi(),
                nsapi: nsapi(),
                qos: QosProfile::signaling(),
                static_addr: None,
            })]);
        net.run_until_quiescent();
        assert_eq!(net.node::<Sgsn>(sgsn).unwrap().active_pdp_count(), 0);
        let got = &net.node::<Endpoint>(ep).unwrap().got;
        assert!(matches!(
            got[0],
            Message::Gmm(GmmMessage::ActivatePdpContextReject {
                cause: Cause::SubscriberAbsent,
                ..
            })
        ));
    }

    fn sample_packet() -> IpPacket {
        IpPacket::new(
            TransportAddr::new(Ipv4Addr::from_octets(10, 200, 0, 1), 1719),
            TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 9), 1719),
            IpPayload::Ras(RasMessage::Rcf {
                alias: vgprs_wire::Msisdn::parse("88691234567").unwrap(),
            }),
        )
    }

    #[test]
    fn uplink_llc_tunneled_to_ggsn() {
        let (mut net, _sgsn, ggsn, _ep) = rig(vec![
            Message::Gmm(GmmMessage::AttachRequest { imsi: imsi() }),
            Message::Gmm(GmmMessage::ActivatePdpContextRequest {
                imsi: imsi(),
                nsapi: nsapi(),
                qos: QosProfile::signaling(),
                static_addr: None,
            }),
            Message::Llc {
                imsi: imsi(),
                nsapi: nsapi(),
                inner: Box::new(sample_packet()),
            },
        ]);
        net.run_until_quiescent();
        // the stub GGSN received the tunneled packet (it ignores TPdu, but
        // the trace shows it)
        assert!(net
            .trace()
            .labels()
            .iter()
            .any(|l| l.starts_with("GTP:RAS_RCF")));
        let _ = ggsn;
    }

    #[test]
    fn uplink_without_context_dropped() {
        let (mut net, _sgsn, _ggsn, _ep) = rig(vec![
            Message::Gmm(GmmMessage::AttachRequest { imsi: imsi() }),
            Message::Llc {
                imsi: imsi(),
                nsapi: nsapi(),
                inner: Box::new(sample_packet()),
            },
        ]);
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("sgsn.llc_no_context"), 1);
    }

    #[test]
    fn detach_tears_down_contexts() {
        let (mut net, sgsn, _ggsn, _ep) = rig(vec![
            Message::Gmm(GmmMessage::AttachRequest { imsi: imsi() }),
            Message::Gmm(GmmMessage::ActivatePdpContextRequest {
                imsi: imsi(),
                nsapi: nsapi(),
                qos: QosProfile::signaling(),
                static_addr: None,
            }),
            Message::Gmm(GmmMessage::DetachRequest { imsi: imsi() }),
        ]);
        net.run_until_quiescent();
        let s = net.node::<Sgsn>(sgsn).unwrap();
        assert!(s.mm.is_empty());
        assert_eq!(s.active_pdp_count(), 0);
        assert_eq!(net.stats().counter("sgsn.pdp_deactivated"), 1);
    }

    #[test]
    fn pdu_notification_relayed_to_endpoint() {
        let (mut net, sgsn, _ggsn, ep) = rig(vec![Message::Gmm(GmmMessage::AttachRequest {
            imsi: imsi(),
        })]);
        net.run_until_quiescent();
        // GGSN-side feeder sends the notification over Gn
        struct Feeder {
            sgsn: NodeId,
        }
        impl Node<Message> for Feeder {
            fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
                ctx.send(
                    self.sgsn,
                    Message::Gtp(GtpMessage::PduNotificationRequest {
                        imsi: Imsi::parse("466920123456789").unwrap(),
                        addr: Ipv4Addr::from_octets(10, 200, 100, 1),
                    }),
                );
            }
            fn on_message(
                &mut self,
                _c: &mut Context<'_, Message>,
                _f: NodeId,
                _i: Interface,
                _m: Message,
            ) {
            }
        }
        let f = net.add_node("f", Feeder { sgsn });
        net.connect(f, sgsn, Interface::Gn, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let got = &net.node::<Endpoint>(ep).unwrap().got;
        assert!(got.iter().any(|m| matches!(
            m,
            Message::Gmm(GmmMessage::RequestPdpContextActivation { .. })
        )));
        assert_eq!(net.stats().counter("sgsn.pdu_notifications"), 1);
    }
}
