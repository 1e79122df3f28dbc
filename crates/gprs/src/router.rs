//! The external packet-data network (PSDN) of the paper's Figure 1: a
//! prefix-routing IP node connecting the GGSN's Gi side with the H.323
//! zone's LAN.

use vgprs_sim::{Context, Interface, Node, NodeId, NumberBlock};
use vgprs_wire::{Ipv4Addr, Message};

/// A simple longest-prefix IP router.
#[derive(Debug, Default)]
pub struct IpRouter {
    routes: Vec<(Ipv4Addr, u8, NodeId)>,
    /// Host routes (exact address match), checked before prefixes. A
    /// table, not a scan: population-scale runs register one host per
    /// wireline terminal, and every routed packet (every RTP frame on the
    /// LAN) pays for this lookup.
    hosts: NumberBlock<Ipv4Addr, NodeId>,
}

impl IpRouter {
    /// Creates a router with an empty table.
    pub fn new() -> Self {
        IpRouter::default()
    }

    /// Adds a prefix route.
    pub fn add_prefix(&mut self, prefix: Ipv4Addr, len: u8, next_hop: NodeId) {
        self.routes.push((prefix, len, next_hop));
    }

    /// Declares the `count` addresses from `first` — what the LAN hands
    /// the home population's terminals — a dense host route each instead
    /// of a hashed one.
    pub fn declare_hosts(&mut self, first: Ipv4Addr, count: usize) {
        // A series is declared on an empty table: the routes added so
        // far (the gatekeeper's) step aside and are put back after it.
        let held = std::mem::take(&mut self.hosts);
        self.hosts.declare(first, count);
        for (addr, &hop) in held.iter() {
            self.hosts.insert(addr, hop);
        }
    }

    /// Adds a host route for a single address. The first route added for
    /// an address wins, matching the old scan-in-insertion-order lookup.
    pub fn add_host(&mut self, addr: Ipv4Addr, next_hop: NodeId) {
        self.hosts.get_or_insert_with(addr, || next_hop);
    }

    /// The next hop for `dst`, if any.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<NodeId> {
        if let Some(&hop) = self.hosts.get(&dst) {
            return Some(hop);
        }
        self.routes
            .iter()
            .filter(|(p, l, _)| dst.in_prefix(*p, *l))
            .max_by_key(|(_, l, _)| *l)
            .map(|&(_, _, hop)| hop)
    }
}

impl Node<Message> for IpRouter {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        _from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            (Interface::Lan | Interface::Gi, Message::Ip(packet)) => {
                let frames = packet.payload.frames().into();
                match self.lookup(packet.dst.ip) {
                    Some(hop) => match packet.forwarded() {
                        Some(p) => ctx.send(hop, Message::Ip(p)),
                        None => ctx.count_by("router.ttl_expired", frames),
                    },
                    None => ctx.count_by("router.no_route", frames),
                }
            }
            _ => ctx.count("router.unexpected_message"),
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
    use vgprs_wire::{IpPacket, IpPayload, Msisdn, RasMessage, TransportAddr};

    /// A peer sending `packet` to the router.
    fn feeder(router: NodeId, packet: IpPacket) -> ScriptedPeer<Message> {
        ScriptedPeer::sending(router, [Message::Ip(packet)])
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
    fn host_route_beats_prefix() {
        let mut net = Network::new(1);
        let router = net.add_node("router", IpRouter::new());
        let generic = net.add_node("generic", ScriptedPeer::new());
        let specific = net.add_node("specific", ScriptedPeer::new());
        let target = Ipv4Addr::from_octets(10, 0, 0, 7);
        let f = net.add_node("f", feeder(router, packet_to(target)));
        net.connect(generic, router, Interface::Lan, SimDuration::from_millis(1));
        net.connect(specific, router, Interface::Lan, SimDuration::from_millis(1));
        net.connect(f, router, Interface::Lan, SimDuration::from_millis(1));
        {
            let r = net.node_mut::<IpRouter>(router).unwrap();
            r.add_prefix(Ipv4Addr::from_octets(10, 0, 0, 0), 8, generic);
            r.add_host(target, specific);
        }
        net.run_until_quiescent();
        assert_eq!(ScriptedPeer::of(&net, specific).log().len(), 1);
        assert!(ScriptedPeer::of(&net, generic).log().is_empty());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut net = Network::new(1);
        let router = net.add_node("router", IpRouter::new());
        let wide = net.add_node("wide", ScriptedPeer::new());
        let narrow = net.add_node("narrow", ScriptedPeer::new());
        let dst = Ipv4Addr::from_octets(10, 200, 3, 4);
        let f = net.add_node("f", feeder(router, packet_to(dst)));
        for n in [wide, narrow, f] {
            net.connect(n, router, Interface::Lan, SimDuration::from_millis(1));
        }
        {
            let r = net.node_mut::<IpRouter>(router).unwrap();
            r.add_prefix(Ipv4Addr::from_octets(10, 0, 0, 0), 8, wide);
            r.add_prefix(Ipv4Addr::from_octets(10, 200, 0, 0), 16, narrow);
        }
        net.run_until_quiescent();
        assert_eq!(ScriptedPeer::of(&net, narrow).log().len(), 1);
        assert!(ScriptedPeer::of(&net, wide).log().is_empty());
    }

    #[test]
    fn no_route_counted() {
        let mut net = Network::new(1);
        let router = net.add_node("router", IpRouter::new());
        let dst = Ipv4Addr::from_octets(9, 9, 9, 9);
        let f = net.add_node("f", feeder(router, packet_to(dst)));
        net.connect(f, router, Interface::Lan, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("router.no_route"), 1);
    }

    #[test]
    fn ttl_expiry_counted() {
        let mut net = Network::new(1);
        let router = net.add_node("router", IpRouter::new());
        let sink = net.add_node("sink", ScriptedPeer::new());
        let mut dead = packet_to(Ipv4Addr::from_octets(10, 0, 0, 7));
        dead.ttl = 1;
        let f = net.add_node("f", feeder(router, dead));
        net.connect(sink, router, Interface::Lan, SimDuration::from_millis(1));
        net.connect(f, router, Interface::Lan, SimDuration::from_millis(1));
        net.node_mut::<IpRouter>(router).unwrap().add_prefix(
            Ipv4Addr::from_octets(10, 0, 0, 0),
            8,
            sink,
        );
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("router.ttl_expired"), 1);
        assert!(ScriptedPeer::of(&net, sink).log().is_empty());
    }
}
