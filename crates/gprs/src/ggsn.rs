//! Gateway GPRS Support Node.
//!
//! The GGSN anchors PDP contexts: it allocates PDP (IP) addresses, keeps
//! the context records the paper's step 1.3 describes ("IMSI, IP address,
//! QoS profile negotiated, SGSN address, and so on"), switches GTP
//! tunnels, and routes between the GPRS core and the external packet data
//! network over Gi. For static PDP addresses it supports the
//! network-requested activation the TR 22.973 baseline depends on,
//! buffering the triggering packets until the context comes up.

use std::collections::VecDeque;

use vgprs_sim::{Context, IdMap, Interface, Node, NodeId, NumberBlock};
use vgprs_wire::{Cause, Command, GtpMessage, Imsi, IpPacket, Ipv4Addr, Message, Nsapi, Teid};

use crate::contexts::Contexts;

/// One PDP context record (paper step 1.3: "IMSI, IP address, QoS profile
/// negotiated, SGSN address, and so on"): what routing reads of it. The
/// subscriber is the key of `by_sub`, and nothing reads the QoS back.
#[derive(Debug)]
struct PdpRecord {
    addr: Ipv4Addr,
    sgsn: NodeId,
    sgsn_teid: Teid,
}

/// A subscriber with a provisioned static PDP address.
#[derive(Debug)]
struct StaticEntry {
    imsi: Imsi,
    serving_sgsn: NodeId,
    /// Packets waiting for network-requested activation.
    buffered: VecDeque<IpPacket>,
}

/// Maximum packets buffered per static address while activation runs.
const STATIC_BUFFER_CAP: usize = 8;

/// The GGSN node.
#[derive(Debug)]
pub struct Ggsn {
    /// Prefix of the PDP address pool (dynamic + static).
    pool_prefix: Ipv4Addr,
    pool_prefix_len: u8,
    /// The Gi next hop (the PSDN router).
    router: Option<NodeId>,
    pdp: NumberBlock<Teid, PdpRecord>,
    by_addr: NumberBlock<Ipv4Addr, Teid>,
    by_sub: Contexts<Teid>,
    statics: IdMap<Ipv4Addr, StaticEntry>,
    static_of_imsi: IdMap<Imsi, Ipv4Addr>,
    next_dynamic: u32,
    next_teid: u32,
    /// Fault injection: while true (crashed or blackholed) the node
    /// silently drops every protocol message.
    down: bool,
}

impl Ggsn {
    /// Creates a GGSN owning the `prefix/len` PDP address pool.
    ///
    /// # Panics
    ///
    /// Panics if `len > 30` (the pool must hold at least a few addresses).
    pub fn new(prefix: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 30, "pool prefix too small");
        Ggsn {
            pool_prefix: prefix,
            pool_prefix_len: len,
            router: None,
            pdp: NumberBlock::default(),
            by_addr: NumberBlock::default(),
            by_sub: Contexts::default(),
            statics: IdMap::default(),
            static_of_imsi: IdMap::default(),
            next_dynamic: 0,
            next_teid: 0,
            down: false,
        }
    }

    /// Declares the home population: the `count` IMSIs from `first` get
    /// a dense `nsapi` context row each instead of a hashed one, and the
    /// `count` tunnel ends and dynamic addresses their activations will
    /// be issued a dense record and a dense address row each. Returns
    /// the first of those addresses. Declare before the first activation.
    pub fn declare_block(&mut self, first: Imsi, nsapi: Nsapi, count: usize) -> Ipv4Addr {
        self.by_sub.declare(nsapi, first, count);
        self.pdp.declare(Self::teid(self.next_teid + 1), count);
        let addr = Ipv4Addr(self.pool_prefix.0 | (self.next_dynamic + 1));
        self.by_addr.declare(addr, count);
        addr
    }

    /// Sets the Gi next hop toward the external packet network.
    pub fn set_router(&mut self, router: NodeId) {
        self.router = Some(router);
    }

    /// Provisions a static PDP address for a subscriber served by `sgsn`
    /// (required by the TR 22.973 baseline's network-initiated activation).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the GGSN's pool.
    pub fn provision_static(&mut self, imsi: Imsi, addr: Ipv4Addr, sgsn: NodeId) {
        assert!(
            addr.in_prefix(self.pool_prefix, self.pool_prefix_len),
            "static address {addr} outside pool"
        );
        self.statics.insert(
            addr,
            StaticEntry {
                imsi,
                serving_sgsn: sgsn,
                buffered: VecDeque::new(),
            },
        );
        self.static_of_imsi.insert(imsi, addr);
    }

    /// Number of active PDP contexts (experiment C3's measured quantity).
    pub fn active_pdp_count(&self) -> usize {
        self.pdp.len()
    }

    /// True if `addr` belongs to this GGSN's pool.
    pub fn owns(&self, addr: Ipv4Addr) -> bool {
        addr.in_prefix(self.pool_prefix, self.pool_prefix_len)
    }

    fn alloc_dynamic(&mut self) -> Option<Ipv4Addr> {
        // Walk the pool; skip static provisions and in-use addresses.
        let host_bits = 32 - self.pool_prefix_len;
        let pool_size: u64 = 1u64 << host_bits;
        for _ in 0..pool_size {
            self.next_dynamic = (self.next_dynamic + 1) % (pool_size as u32);
            if self.next_dynamic == 0 {
                continue; // skip the network address
            }
            let candidate = Ipv4Addr(self.pool_prefix.0 | self.next_dynamic);
            if !self.by_addr.contains_key(&candidate) && !self.statics.contains_key(&candidate) {
                return Some(candidate);
            }
        }
        None
    }

    /// The `n`th tunnel end this GGSN issues.
    fn teid(n: u32) -> Teid {
        Teid(0x6000_0000 | n)
    }

    fn alloc_teid(&mut self) -> Teid {
        self.next_teid += 1;
        Self::teid(self.next_teid)
    }

    /// Creates the context record of `(imsi, nsapi)` for `sgsn`, which
    /// tunnels it under `sgsn_teid` (Figure 4, step 1.3): the address is
    /// `static_addr` if given, else the subscriber's provisioned static
    /// address, else a dynamic one. Returns the address and the GGSN's
    /// tunnel end; `None` when the address is outside the pool or the
    /// pool is exhausted.
    pub fn create_pdp(
        &mut self,
        ctx: &mut Context<'_, Message>,
        (imsi, nsapi): (Imsi, Nsapi),
        static_addr: Option<Ipv4Addr>,
        (sgsn, sgsn_teid): (NodeId, Teid),
    ) -> Option<(Ipv4Addr, Teid)> {
        let addr = match static_addr.or_else(|| self.static_of_imsi.get(&imsi).copied()) {
            Some(a) if self.owns(a) => Some(a),
            Some(_) => None,
            None => self.alloc_dynamic(),
        };
        let Some(addr) = addr else {
            ctx.count("ggsn.pool_exhausted");
            return None;
        };
        let teid = self.alloc_teid();
        self.pdp.insert(
            teid,
            PdpRecord {
                addr,
                sgsn,
                sgsn_teid,
            },
        );
        self.by_addr.insert(addr, teid);
        self.by_sub.insert((imsi, nsapi), teid);
        ctx.count("ggsn.pdp_created");
        Some((addr, teid))
    }

    fn route_ip(&mut self, ctx: &mut Context<'_, Message>, packet: IpPacket) {
        let dst = packet.dst.ip;
        if self.owns(dst) {
            // Downlink into the GPRS core.
            if let Some(&teid) = self.by_addr.get(&dst) {
                let pdp = self.pdp.get(&teid).expect("an address names a live record");
                ctx.send(
                    pdp.sgsn,
                    Message::Gtp(GtpMessage::TPdu {
                        teid: pdp.sgsn_teid,
                        inner: Box::new(Message::Ip(packet)),
                    }),
                );
                return;
            }
            // No context: static address → network-requested activation
            // (paper Section 6's description of the TR termination path).
            if let Some(entry) = self.statics.get_mut(&dst) {
                if entry.buffered.len() < STATIC_BUFFER_CAP {
                    entry.buffered.push_back(packet);
                } else {
                    ctx.count("ggsn.static_buffer_overflow");
                }
                ctx.count("ggsn.pdu_notifications");
                let (imsi, sgsn) = (entry.imsi, entry.serving_sgsn);
                ctx.send(
                    sgsn,
                    Message::Gtp(GtpMessage::PduNotificationRequest { imsi, addr: dst }),
                );
                return;
            }
            ctx.count_by("ggsn.downlink_no_context", packet.payload.frames().into());
            return;
        }
        // Uplink toward the external network.
        let frames = packet.payload.frames().into();
        match self.router {
            Some(router) => {
                match packet.forwarded() {
                    Some(p) => ctx.send(router, Message::Ip(p)),
                    None => ctx.count_by("ggsn.ttl_expired", frames),
                }
            }
            None => ctx.count_by("ggsn.no_gi_route", frames),
        }
    }

    fn handle_gtp(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: GtpMessage) {
        match msg {
            GtpMessage::CreatePdpRequest {
                imsi,
                nsapi,
                qos,
                static_addr,
                sgsn_teid,
            } => {
                let created = self.create_pdp(ctx, (imsi, nsapi), static_addr, (from, sgsn_teid));
                let Some((addr, teid)) = created else {
                    ctx.send(
                        from,
                        Message::Gtp(GtpMessage::CreatePdpResponse {
                            imsi,
                            nsapi,
                            result: Err(Cause::PdpResourceUnavailable),
                        }),
                    );
                    return;
                };
                ctx.send(
                    from,
                    Message::Gtp(GtpMessage::CreatePdpResponse {
                        imsi,
                        nsapi,
                        result: Ok((addr, teid, qos)),
                    }),
                );
                // Flush anything buffered for a static address.
                if let Some(entry) = self.statics.get_mut(&addr) {
                    let buffered: Vec<IpPacket> = entry.buffered.drain(..).collect();
                    for p in buffered {
                        self.route_ip(ctx, p);
                    }
                }
            }
            GtpMessage::DeletePdpRequest { imsi, nsapi } => {
                if let Some(teid) = self.by_sub.remove(&(imsi, nsapi)) {
                    if let Some(rec) = self.pdp.remove(&teid) {
                        self.by_addr.remove(&rec.addr);
                    }
                    ctx.count("ggsn.pdp_deleted");
                }
                ctx.send(
                    from,
                    Message::Gtp(GtpMessage::DeletePdpResponse { imsi, nsapi }),
                );
            }
            GtpMessage::TPdu { teid, inner } => {
                if !self.pdp.contains_key(&teid) {
                    ctx.count_by("ggsn.tpdu_unknown_teid", inner.frames().into());
                    return;
                }
                match *inner {
                    Message::Ip(packet) => self.route_ip(ctx, packet),
                    _ => ctx.count("ggsn.tpdu_not_ip"),
                }
            }
            GtpMessage::PduNotificationResponse { .. } => {}
            _ => ctx.count("ggsn.unhandled_gtp"),
        }
    }
}

impl Node<Message> for Ggsn {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Internal, Message::Cmd(Command::Crash)) => {
                // Dynamic PDP records are volatile; static provisioning is
                // operator configuration and survives the restart.
                self.pdp.clear();
                self.by_addr.clear();
                self.by_sub.clear();
                self.down = true;
                ctx.count("ggsn.crashes");
            }
            (Interface::Internal, Message::Cmd(Command::Blackhole)) => {
                self.down = true;
                ctx.count("ggsn.blackholes");
            }
            (Interface::Internal, Message::Cmd(Command::Restore)) => {
                self.down = false;
            }
            _ if self.down => ctx.count("ggsn.dropped_while_down"),
            (Interface::Gn, Message::Gtp(m)) => self.handle_gtp(ctx, from, m),
            (Interface::Gi | Interface::Lan, Message::Ip(p)) => self.route_ip(ctx, p),
            _ => ctx.count("ggsn.unexpected_message"),
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
    use vgprs_sim::{Network, ScriptedPeer, SimDuration};
    use vgprs_wire::{IpPayload, Msisdn, QosProfile, RasMessage, TransportAddr};

    fn imsi(last: char) -> Imsi {
        Imsi::parse(&format!("46692012345678{last}")).unwrap()
    }

    fn nsapi() -> Nsapi {
        Nsapi::new(5).unwrap()
    }

    fn pool() -> Ipv4Addr {
        Ipv4Addr::from_octets(10, 200, 0, 0)
    }

    fn create_req(i: Imsi, n: Nsapi, static_addr: Option<Ipv4Addr>) -> Message {
        Message::Gtp(GtpMessage::CreatePdpRequest {
            imsi: i,
            nsapi: n,
            qos: QosProfile::signaling(),
            static_addr,
            sgsn_teid: Teid(0x5000_0001),
        })
    }

    /// Builds: sgsn(peer sending `send`) —Gn— ggsn —Gi— router(peer).
    fn rig(send: Vec<Message>) -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let ggsn = net.add_node("ggsn", Ggsn::new(pool(), 16));
        let sgsn = net.add_node("sgsn", ScriptedPeer::sending(ggsn, send));
        let router = net.add_node("router", ScriptedPeer::new());
        net.connect(sgsn, ggsn, Interface::Gn, SimDuration::from_millis(2));
        net.connect(ggsn, router, Interface::Gi, SimDuration::from_millis(2));
        net.node_mut::<Ggsn>(ggsn).unwrap().set_router(router);
        (net, ggsn, sgsn, router)
    }

    /// Adds a peer sending `msg` to the GGSN over `iface`, and runs.
    fn feed(net: &mut Network<Message>, ggsn: NodeId, iface: Interface, msg: Message) {
        let feeder = net.add_node("feeder", ScriptedPeer::sending(ggsn, [msg]));
        net.connect(feeder, ggsn, iface, SimDuration::from_millis(1));
        net.run_until_quiescent();
    }

    fn got(net: &Network<Message>, peer: NodeId) -> Vec<&Message> {
        ScriptedPeer::of(net, peer).received()
    }

    /// The addresses of the created contexts `sgsn` was told of.
    fn created(net: &Network<Message>, sgsn: NodeId) -> Vec<Ipv4Addr> {
        let addr = |m: &&Message| match m {
            Message::Gtp(GtpMessage::CreatePdpResponse {
                result: Ok((a, _, _)),
                ..
            }) => Some(*a),
            _ => None,
        };
        got(net, sgsn).iter().filter_map(addr).collect()
    }

    /// A dynamic address skips its pool's network address, so none is
    /// 0 even in a pool at 0.0.0.0: the niche where the VMSC's MS table
    /// holds no address.
    #[test]
    fn no_dynamic_address_is_the_niche() {
        let mut g = Ggsn::new(Ipv4Addr(0), 30);
        let issued: Vec<Ipv4Addr> = std::iter::from_fn(|| {
            let addr = g.alloc_dynamic()?;
            g.by_addr.insert(addr, Teid(1));
            Some(addr)
        })
        .collect();
        assert_eq!(issued, [Ipv4Addr(1), Ipv4Addr(2), Ipv4Addr(3)]);
    }

    #[test]
    fn dynamic_allocation_unique_addresses() {
        let (mut net, ggsn, sgsn, _router) = rig(vec![
            create_req(imsi('1'), nsapi(), None),
            create_req(imsi('2'), nsapi(), None),
        ]);
        net.run_until_quiescent();
        let addrs = created(&net, sgsn);
        assert_eq!(addrs.len(), 2);
        assert_ne!(addrs[0], addrs[1]);
        assert_eq!(net.node::<Ggsn>(ggsn).unwrap().active_pdp_count(), 2);
    }

    #[test]
    fn delete_frees_address_for_reuse() {
        let (mut net, ggsn, _sgsn, _router) = rig(vec![
            create_req(imsi('1'), nsapi(), None),
            Message::Gtp(GtpMessage::DeletePdpRequest {
                imsi: imsi('1'),
                nsapi: nsapi(),
            }),
        ]);
        net.run_until_quiescent();
        assert_eq!(net.node::<Ggsn>(ggsn).unwrap().active_pdp_count(), 0);
        assert_eq!(net.stats().counter("ggsn.pdp_deleted"), 1);
    }

    fn packet_to(dst: Ipv4Addr) -> IpPacket {
        IpPacket::new(
            TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 1), 1719),
            TransportAddr::new(dst, 1719),
            IpPayload::Ras(RasMessage::Rcf {
                alias: Msisdn::parse("88691234567").unwrap(),
            }),
        )
    }

    #[test]
    fn uplink_routed_to_gi() {
        let (mut net, ggsn, _sgsn, router) = rig(vec![create_req(imsi('1'), nsapi(), None)]);
        net.run_until_quiescent();
        // tunnel a packet headed outside the pool
        let outside = packet_to(Ipv4Addr::from_octets(10, 0, 0, 9));
        let tpdu = GtpMessage::TPdu {
            teid: Teid(0x6000_0001),
            inner: Box::new(Message::Ip(outside)),
        };
        feed(&mut net, ggsn, Interface::Gn, Message::Gtp(tpdu));
        let got = got(&net, router);
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0], Message::Ip(_)));
    }

    #[test]
    fn downlink_to_context_tunneled() {
        let (mut net, ggsn, sgsn, _router) = rig(vec![create_req(imsi('1'), nsapi(), None)]);
        net.run_until_quiescent();
        let addr = *created(&net, sgsn).first().expect("created");
        // push a packet for that address in over Gi
        feed(&mut net, ggsn, Interface::Gi, Message::Ip(packet_to(addr)));
        assert!(got(&net, sgsn)
            .iter()
            .any(|m| matches!(m, Message::Gtp(GtpMessage::TPdu { .. }))));
    }

    #[test]
    fn static_address_triggers_notification_and_buffers() {
        let (mut net, ggsn, sgsn, _router) = rig(vec![]);
        let static_addr = Ipv4Addr::from_octets(10, 200, 100, 1);
        net.node_mut::<Ggsn>(ggsn)
            .unwrap()
            .provision_static(imsi('1'), static_addr, sgsn);
        feed(&mut net, ggsn, Interface::Gi, Message::Ip(packet_to(static_addr)));
        // SGSN stub got the PDU notification
        assert!(got(&net, sgsn).iter().any(|m| matches!(
            m,
            Message::Gtp(GtpMessage::PduNotificationRequest { .. })
        )));
        assert_eq!(net.stats().counter("ggsn.pdu_notifications"), 1);

        // Now activate with the static address: buffered packet flushes.
        let activate = GtpMessage::CreatePdpRequest {
            imsi: imsi('1'),
            nsapi: Nsapi::new(6).unwrap(),
            qos: QosProfile::realtime_voice(),
            static_addr: Some(static_addr),
            sgsn_teid: Teid(0x5000_0009),
        };
        feed(&mut net, ggsn, Interface::Gn, Message::Gtp(activate));
        // The flushed packet goes down the NEW tunnel — to the activator,
        // which is the SGSN that created the context.
        assert_eq!(net.node::<Ggsn>(ggsn).unwrap().active_pdp_count(), 1);
    }

    #[test]
    fn pool_exhaustion_rejected() {
        let mut net = Network::new(1);
        // /30 pool: hosts .1 .2 .3 (0 skipped) → 3 usable
        let ggsn = net.add_node("ggsn", Ggsn::new(Ipv4Addr::from_octets(10, 200, 0, 0), 30));
        let reqs = "1234".chars().map(|c| create_req(imsi(c), nsapi(), None));
        let sgsn = net.add_node("sgsn", ScriptedPeer::sending(ggsn, reqs));
        net.connect(sgsn, ggsn, Interface::Gn, SimDuration::from_millis(1));
        net.run_until_quiescent();
        let rejects = got(&net, sgsn)
            .iter()
            .filter(|m| {
                matches!(
                    m,
                    Message::Gtp(GtpMessage::CreatePdpResponse {
                        result: Err(Cause::PdpResourceUnavailable),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(rejects, 1, "fourth allocation must fail on a /30");
        assert_eq!(net.stats().counter("ggsn.pool_exhausted"), 1);
    }
}
