//! The H.323 gatekeeper.
//!
//! A *standard* gatekeeper, exactly as the paper requires: address
//! translation (alias → call-signaling transport address), admission
//! control with a bandwidth budget, disengage handling with per-call
//! charging records (paper step 3.3). It holds **no** GSM state and never
//! sees an IMSI — that is the confidentiality property Section 6 argues
//! vGPRS preserves and the TR 22.973 baseline violates.

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId, NumberBlock, SimTime};
use vgprs_wire::{
    CallId, Cause, Command, IpPacket, IpPayload, Message, Msisdn, RasMessage, TransportAddr,
};

/// One completed call's charging record (paper step 3.3: "the GK records
/// the call statistics for charging").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChargingRecord {
    /// The call.
    pub call: CallId,
    /// When the disengage arrived.
    pub ended_at: SimTime,
    /// Duration reported in the DRQ.
    pub duration_ms: u64,
}

/// Configuration for a [`Gatekeeper`].
#[derive(Clone, Copy, Debug)]
pub struct GatekeeperConfig {
    /// The gatekeeper's RAS transport address.
    pub addr: TransportAddr,
    /// Total admissible bandwidth in units of 100 bit/s (H.225
    /// convention). 16 kbit/s per GSM voice call ⇒ 160 units per call.
    pub bandwidth_budget: u32,
    /// Overload control: new admissions that would push bandwidth
    /// utilization above this fraction of the budget are shed with an
    /// ARJ carrying a *congestion* cause — retryable through the VMSC's
    /// bounded ARQ backoff, unlike a hard budget rejection. `0.0`
    /// disables shedding (the historical behavior).
    pub shed_utilization: f64,
}

/// The gatekeeper node.
#[derive(Debug)]
pub struct Gatekeeper {
    config: GatekeeperConfig,
    /// Next hop for every outgoing IP packet (the zone's LAN router).
    router: NodeId,
    /// The address-translation table of paper step 1.5.
    table: NumberBlock<Msisdn, TransportAddr>,
    /// Outstanding admissions: (call, requester) → bandwidth.
    admissions: IdMap<(CallId, TransportAddr), u32>,
    bandwidth_used: u32,
    charging: Vec<ChargingRecord>,
    /// IMSIs the H.323 domain has been handed (TR 22.973 mode only). A
    /// standard vGPRS deployment keeps this empty — experiment C4's
    /// confidentiality measurement.
    imsi_directory: IdMap<Msisdn, vgprs_wire::Imsi>,
    /// Fault injection: while true (crashed or blackholed) the node
    /// silently drops every protocol message.
    down: bool,
}

impl Gatekeeper {
    /// Creates a gatekeeper whose packets leave via `router`.
    pub fn new(config: GatekeeperConfig, router: NodeId) -> Self {
        Gatekeeper {
            config,
            router,
            table: NumberBlock::default(),
            admissions: IdMap::default(),
            bandwidth_used: 0,
            charging: Vec::new(),
            imsi_directory: IdMap::default(),
            down: false,
        }
    }

    /// Declares one number series of the zone's own aliases: the `count`
    /// numbers from `first` get a dense row each in the address
    /// translation table instead of a hashed one. One call per series
    /// (the handsets' MSISDNs, the terminals' aliases), all before the
    /// first registration.
    pub fn declare_block(&mut self, first: Msisdn, count: usize) {
        self.table.declare(first, count);
    }

    /// Registered aliases.
    pub fn registered_count(&self) -> usize {
        self.table.len()
    }

    /// The transport address registered for `alias`, if any.
    pub fn lookup(&self, alias: &Msisdn) -> Option<TransportAddr> {
        self.table.get(alias).copied()
    }

    /// Bandwidth units currently admitted.
    pub fn bandwidth_used(&self) -> u32 {
        self.bandwidth_used
    }

    /// Completed-call charging records.
    pub fn charging_records(&self) -> &[ChargingRecord] {
        &self.charging
    }

    /// How many subscriber IMSIs have leaked into the H.323 domain
    /// (paper Section 6: zero for vGPRS, one per subscriber for the TR
    /// 22.973 baseline).
    pub fn imsi_disclosures(&self) -> usize {
        self.imsi_directory.len()
    }

    /// Registers `alias` at `transport`, as an RRQ does: paper step 1.5
    /// creates the (IP address, MSISDN) entry.
    pub fn register(
        &mut self,
        ctx: &mut Context<'_, Message>,
        alias: Msisdn,
        transport: TransportAddr,
    ) {
        self.table.insert(alias, transport);
        ctx.count("gk.registrations");
    }

    fn reply(&self, ctx: &mut Context<'_, Message>, to: TransportAddr, ras: RasMessage) {
        let packet = IpPacket::new(self.config.addr, to, IpPayload::Ras(ras));
        ctx.send(self.router, Message::Ip(packet));
    }

    fn handle_ras(&mut self, ctx: &mut Context<'_, Message>, src: TransportAddr, ras: RasMessage) {
        match ras {
            RasMessage::Rrq {
                alias,
                transport,
                imsi,
            } => {
                self.register(ctx, alias, transport);
                if let Some(imsi) = imsi {
                    // TR 22.973 mode: the gatekeeper is handed the
                    // confidential IMSI (paper Section 6's objection).
                    self.imsi_directory.insert(alias, imsi);
                    ctx.count("gk.imsi_disclosures");
                }
                self.reply(ctx, src, RasMessage::Rcf { alias });
            }
            RasMessage::Urq { alias } => {
                self.table.remove(&alias);
                ctx.count("gk.unregistrations");
                self.reply(ctx, src, RasMessage::Ucf { alias });
            }
            RasMessage::Arq {
                call,
                called,
                answering,
                bandwidth,
            } => {
                // Overload control: load-shed new admissions once
                // utilization crosses the threshold. The congestion
                // cause tells the VMSC's ARQ ladder to retry with
                // backoff rather than release. Answering ARQs are
                // exempt — the far end already committed the call, and
                // rejecting the answer would waste the admitted leg.
                if self.config.shed_utilization > 0.0 && !answering {
                    let projected = (self.bandwidth_used + bandwidth) as f64
                        / self.config.bandwidth_budget.max(1) as f64;
                    if projected > self.config.shed_utilization {
                        ctx.count("gk.admission_shed");
                        self.reply(
                            ctx,
                            src,
                            RasMessage::Arj {
                                call,
                                cause: Cause::NetworkCongestion,
                            },
                        );
                        return;
                    }
                }
                if self.bandwidth_used + bandwidth > self.config.bandwidth_budget {
                    ctx.count("gk.admission_rejected_bandwidth");
                    self.reply(
                        ctx,
                        src,
                        RasMessage::Arj {
                            call,
                            cause: Cause::AdmissionRejected,
                        },
                    );
                    return;
                }
                let dest = if answering {
                    // The answering endpoint already holds the call; the
                    // ACF just confirms admission (paper steps 2.5, 4.3).
                    Some(src)
                } else {
                    self.table.get(&called).copied()
                };
                match dest {
                    Some(dest_call_signal_addr) => {
                        self.admissions.insert((call, src), bandwidth);
                        self.bandwidth_used += bandwidth;
                        ctx.count("gk.admissions");
                        self.reply(
                            ctx,
                            src,
                            RasMessage::Acf {
                                call,
                                dest_call_signal_addr,
                            },
                        );
                    }
                    None => {
                        ctx.count("gk.admission_rejected_unknown_alias");
                        self.reply(
                            ctx,
                            src,
                            RasMessage::Arj {
                                call,
                                cause: Cause::UnallocatedNumber,
                            },
                        );
                    }
                }
            }
            RasMessage::Drq { call, duration_ms } => {
                if let Some(bw) = self.admissions.remove(&(call, src)) {
                    self.bandwidth_used = self.bandwidth_used.saturating_sub(bw);
                }
                self.charging.push(ChargingRecord {
                    call,
                    ended_at: ctx.now(),
                    duration_ms,
                });
                ctx.count("gk.disengages");
                self.reply(ctx, src, RasMessage::Dcf { call });
            }
            _ => ctx.count("gk.unhandled_ras"),
        }
    }
}

impl Node<Message> for Gatekeeper {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Internal, Message::Cmd(Command::Crash)) => {
                // Registrations and admissions are volatile; charging
                // records model persisted billing and survive.
                self.table.clear();
                self.admissions.clear();
                self.bandwidth_used = 0;
                self.down = true;
                ctx.count("gk.crashes");
            }
            (Interface::Internal, Message::Cmd(Command::Blackhole)) => {
                self.down = true;
                ctx.count("gk.blackholes");
            }
            (Interface::Internal, Message::Cmd(Command::Restore)) => {
                self.down = false;
            }
            _ if self.down => ctx.count("gk.dropped_while_down"),
            (Interface::Lan | Interface::Gi, Message::Ip(packet)) => {
                if packet.dst.ip != self.config.addr.ip {
                    ctx.count("gk.misdelivered");
                    return;
                }
                match packet.payload {
                    IpPayload::Ras(ras) => self.handle_ras(ctx, packet.src, ras),
                    _ => ctx.count("gk.non_ras_payload"),
                }
            }
            _ => ctx.count("gk.unexpected_message"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_gprs::IpRouter;
    use vgprs_sim::{Network, ScriptedPeer, SimDuration};

    fn alias(n: &str) -> Msisdn {
        Msisdn::parse(n).unwrap()
    }

    fn addr(last: u8, port: u16) -> TransportAddr {
        TransportAddr::new(vgprs_wire::Ipv4Addr::from_octets(10, 0, 0, last), port)
    }

    fn gk_addr() -> TransportAddr {
        addr(2, 1719)
    }

    /// Builds: host(peer) —LAN— router —LAN— gk. The host sends `send`
    /// to the GK 20 ms apart and records the replies.
    fn rig(send: Vec<RasMessage>) -> (Network<Message>, NodeId, NodeId) {
        let mut net = Network::new(1);
        let router = net.add_node("router", IpRouter::new());
        let gk = net.add_node(
            "gk",
            Gatekeeper::new(
                GatekeeperConfig {
                    addr: gk_addr(),
                    bandwidth_budget: 480, // three 160-unit calls
                    shed_utilization: 0.0,
                },
                router,
            ),
        );
        let ras = |ras| Message::Ip(IpPacket::new(addr(9, 1720), gk_addr(), IpPayload::Ras(ras)));
        let host = send.into_iter().zip(0..).fold(
            ScriptedPeer::sending(router, []),
            |host, (m, i)| host.at(SimDuration::from_millis(20 * i), ras(m)),
        );
        let host = net.add_node("host", host);
        net.connect(gk, router, Interface::Lan, SimDuration::from_millis(1));
        net.connect(host, router, Interface::Lan, SimDuration::from_millis(1));
        {
            let r = net.node_mut::<IpRouter>(router).unwrap();
            r.add_host(gk_addr().ip, gk);
            r.add_host(addr(9, 1720).ip, host);
        }
        (net, gk, host)
    }

    /// The RAS replies the host heard.
    fn got(net: &Network<Message>, host: NodeId) -> Vec<&RasMessage> {
        let heard = ScriptedPeer::of(net, host).received().into_iter();
        heard
            .filter_map(|m| match m {
                Message::Ip(IpPacket {
                    payload: IpPayload::Ras(r),
                    ..
                }) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rrq_registers_and_confirms() {
        let (mut net, gk, host) = rig(vec![RasMessage::Rrq {
            alias: alias("88691234567"),
            transport: addr(9, 1720),
            imsi: None,
        }]);
        net.run_until_quiescent();
        let g = net.node::<Gatekeeper>(gk).unwrap();
        assert_eq!(g.registered_count(), 1);
        assert_eq!(g.lookup(&alias("88691234567")), Some(addr(9, 1720)));
        assert!(matches!(
            *got(&net, host)[0],
            RasMessage::Rcf { .. }
        ));
    }

    #[test]
    fn urq_unregisters() {
        let (mut net, gk, _host) = rig(vec![
            RasMessage::Rrq {
                alias: alias("88691234567"),
                transport: addr(9, 1720),
                imsi: None,
            },
            RasMessage::Urq {
                alias: alias("88691234567"),
            },
        ]);
        net.run_until_quiescent();
        assert_eq!(net.node::<Gatekeeper>(gk).unwrap().registered_count(), 0);
    }

    #[test]
    fn arq_translates_alias() {
        let (mut net, _gk, host) = rig(vec![
            RasMessage::Rrq {
                alias: alias("88691234567"),
                transport: addr(7, 1720),
                imsi: None,
            },
            RasMessage::Arq {
                call: CallId(5),
                called: alias("88691234567"),
                answering: false,
                bandwidth: 160,
            },
        ]);
        net.run_until_quiescent();
        match *got(&net, host)[1] {
            RasMessage::Acf {
                call,
                dest_call_signal_addr,
            } => {
                assert_eq!(call, CallId(5));
                assert_eq!(dest_call_signal_addr, addr(7, 1720));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arq_unknown_alias_rejected() {
        let (mut net, _gk, host) = rig(vec![RasMessage::Arq {
            call: CallId(5),
            called: alias("99999999999"),
            answering: false,
            bandwidth: 160,
        }]);
        net.run_until_quiescent();
        assert!(matches!(
            *got(&net, host)[0],
            RasMessage::Arj {
                cause: Cause::UnallocatedNumber,
                ..
            }
        ));
    }

    #[test]
    fn bandwidth_budget_enforced_and_freed() {
        let mk_arq = |id: u64| RasMessage::Arq {
            call: CallId(id),
            called: alias("88691234567"),
            answering: false,
            bandwidth: 160,
        };
        let (mut net, gk, host) = rig(vec![
            RasMessage::Rrq {
                alias: alias("88691234567"),
                transport: addr(7, 1720),
                imsi: None,
            },
            mk_arq(1),
            mk_arq(2),
            mk_arq(3),
            mk_arq(4), // over budget (480/160 = 3)
            RasMessage::Drq {
                call: CallId(1),
                duration_ms: 30_000,
            },
            mk_arq(5), // fits again
        ]);
        net.run_until_quiescent();
        let got = got(&net, host);
        let labels: Vec<&str> = got.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            vec![
                "RAS_RCF", "RAS_ACF", "RAS_ACF", "RAS_ACF", "RAS_ARJ", "RAS_DCF", "RAS_ACF"
            ]
        );
        let g = net.node::<Gatekeeper>(gk).unwrap();
        assert_eq!(g.bandwidth_used(), 480);
        assert_eq!(g.charging_records().len(), 1);
        assert_eq!(g.charging_records()[0].duration_ms, 30_000);
    }

    #[test]
    fn answering_arq_confirms_without_lookup() {
        let (mut net, _gk, host) = rig(vec![RasMessage::Arq {
            call: CallId(5),
            called: alias("99999999999"), // unknown — irrelevant when answering
            answering: true,
            bandwidth: 160,
        }]);
        net.run_until_quiescent();
        assert!(matches!(
            *got(&net, host)[0],
            RasMessage::Acf { .. }
        ));
    }

    #[test]
    fn roamer_reregistration_overwrites() {
        let (mut net, gk, _host) = rig(vec![
            RasMessage::Rrq {
                alias: alias("447700900123"),
                transport: addr(7, 1720),
                imsi: None,
            },
            // the roamer moved: a new VMSC registers the same alias
            RasMessage::Rrq {
                alias: alias("447700900123"),
                transport: addr(8, 1720),
                imsi: None,
            },
        ]);
        net.run_until_quiescent();
        let g = net.node::<Gatekeeper>(gk).unwrap();
        assert_eq!(g.registered_count(), 1);
        assert_eq!(g.lookup(&alias("447700900123")), Some(addr(8, 1720)));
    }
}
