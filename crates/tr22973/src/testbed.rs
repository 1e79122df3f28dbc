//! Builder for a TR 22.973-style network: the same GPRS core and H.323
//! zone as a vGPRS deployment ([`PacketHalf`], the very builder), but
//! *no VMSC* — the MSs are H.323 terminals themselves and everything
//! rides the packet radio path.

use vgprs_core::testbed::{build_cell, camp, Architecture, CellConfig, PacketHalf};
use vgprs_gprs::Ggsn;
use vgprs_gsm::Bsc;
use vgprs_h323::GatekeeperConfig;
use vgprs_sim::{Interface, Network, NodeId};
use vgprs_wire::{CellId, Imsi, Ipv4Addr, Message, Msisdn, TransportAddr};

pub use vgprs_core::LatencyProfile;

use crate::ms::{H323Ms, TrMsConfig};

/// The gatekeeper's bandwidth budget: `VgprsZoneConfig::taiwan`'s, so
/// the C1 and C2 comparisons differ only in the architecture.
const GK_BANDWIDTH: u32 = 1_000_000;

/// Node-name prefix: every experiment builds one TR zone.
const ZONE_NAME: &str = "tr";

/// The zone's one serving cell.
const ZONE_CELL: CellId = CellId(1);

/// Configuration for one TR 22.973 zone.
#[derive(Clone, Debug)]
pub struct TrZoneConfig {
    /// GGSN PDP address pool; static addresses are carved from
    /// `pool.0 | 0x0000_64xx`.
    pub pool: (Ipv4Addr, u8),
    /// Gatekeeper address.
    pub gk_addr: TransportAddr,
    /// Shared packet channel rate at the BTS — the contended resource
    /// behind the paper's real-time argument.
    pub pdch_bps: u64,
    /// Link latencies.
    pub latency: LatencyProfile,
}

impl TrZoneConfig {
    /// Defaults mirroring `VgprsZoneConfig::taiwan`
    /// so C1/C2 comparisons hold
    /// everything but the architecture constant.
    pub fn taiwan() -> Self {
        TrZoneConfig {
            pool: (Ipv4Addr::from_octets(10, 200, 0, 0), 16),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, 2), 1719),
            pdch_bps: 40_000,
            latency: LatencyProfile::default(),
        }
    }
}

/// A built TR zone: the packet half under a PCU-only cell.
#[derive(Clone, Debug)]
pub struct TrZone {
    /// Router, gatekeeper (receives IMSIs in this architecture), GGSN
    /// and SGSN; wireline terminals join through its `add_terminal`.
    pub packet: PacketHalf,
    /// Base station controller (PCU).
    pub bsc: NodeId,
    /// Base transceiver station (shared PDCH).
    pub bts: NodeId,
    pool_base: Ipv4Addr,
    next_static: u8,
}

impl TrZone {
    /// Builds the zone inside `net`.
    pub fn build(net: &mut Network<Message>, cfg: TrZoneConfig) -> TrZone {
        let packet = PacketHalf::build(
            net,
            ZONE_NAME,
            cfg.pool,
            GatekeeperConfig {
                addr: cfg.gk_addr,
                bandwidth_budget: GK_BANDWIDTH,
                shed_utilization: 0.0,
            },
            0,
            cfg.latency,
        );
        // The BSC's circuit side is unused here (no MSC in the VoIP path);
        // its PCU points at the SGSN.
        let (bsc, bts) = build_cell(
            net,
            ZONE_NAME,
            packet.sgsn,
            CellConfig {
                cell: ZONE_CELL,
                tch_capacity: 0,
                pdch_bps: cfg.pdch_bps,
            },
            cfg.latency.abis,
        );
        net.node_mut::<Bsc>(bsc)
            .expect("just created")
            .set_sgsn(packet.sgsn);
        net.connect(bsc, packet.sgsn, Interface::Gb, cfg.latency.gb);
        TrZone {
            packet,
            bsc,
            bts,
            pool_base: cfg.pool.0,
            next_static: 0,
        }
    }

    /// Adds a TR mobile station: provisions its static PDP address at the
    /// GGSN and camps it on the zone's cell.
    pub fn add_tr_ms(
        &mut self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        msisdn: Msisdn,
    ) -> NodeId {
        self.next_static += 1;
        let static_addr = Ipv4Addr(self.pool_base.0 | 0x0000_6400 | u32::from(self.next_static));
        net.node_mut::<Ggsn>(self.packet.ggsn)
            .expect("zone GGSN")
            .provision_static(imsi, static_addr, self.packet.sgsn);
        camp(
            net,
            format_args!("{ZONE_NAME}.{label}"),
            H323Ms::new(
                TrMsConfig::new(imsi, msisdn, static_addr, self.packet.gk_addr),
                self.bts,
            ),
            self.bts,
            self.packet.latency.um,
        )
    }
}

impl Architecture for TrZone {
    type Config = TrZoneConfig;
    const POST_DIAL_DELAY_MS: &'static str = "trms.post_dial_delay_ms";

    fn taiwan() -> TrZoneConfig {
        TrZoneConfig::taiwan()
    }

    fn build(net: &mut Network<Message>, cfg: TrZoneConfig) -> Self {
        TrZone::build(net, cfg)
    }

    /// A TR mobile is an H.323 terminal with a static PDP address; there
    /// is no HLR in its path to hold `ki`.
    fn add_mobile(
        &mut self,
        net: &mut Network<Message>,
        name: &str,
        imsi: Imsi,
        _ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        self.add_tr_ms(net, name, imsi, msisdn)
    }

    fn packet(&mut self) -> &mut PacketHalf {
        &mut self.packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The twin of `vgprs-core`'s test of the same name: `NodeId`s order
    /// every tie-break, so creation order is part of the simulated world.
    #[test]
    fn zone_node_order_is_pinned() {
        let mut net = Network::new(1);
        let z = TrZone::build(&mut net, TrZoneConfig::taiwan());
        let p = &z.packet;
        let built = [p.router, p.gk, p.ggsn, p.sgsn, z.bsc, z.bts];
        let names = [
            "tr.router",
            "tr.gk",
            "tr.ggsn",
            "tr.sgsn",
            "tr.bsc",
            "tr.bts",
        ];
        for (i, (id, name)) in built.into_iter().zip(names).enumerate() {
            assert_eq!((id.index(), net.node_name(id)), (i as u32, name));
        }
    }
}
