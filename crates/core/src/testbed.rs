//! Full-network construction: wire every element of the paper's
//! Figure 2(b) (and the classic-GSM baseline of Figure 7) into a
//! [`Network`] with realistic per-interface latencies.
//!
//! Figure 2(b) is two halves with the VMSC between them, and each is
//! built once here: [`AccessHalf`] (HLR, VLR, an MSC, BSC, BTS) and
//! [`PacketHalf`] (PSDN router, gatekeeper, GGSN, SGSN). [`VgprsZone`]
//! is both around a [`Vmsc`], [`GsmZone`] the access half around a
//! [`GsmMsc`], and the TR 22.973 baseline (`vgprs-tr22973`) the packet
//! half under a PCU-only cell — so every experiment, whichever
//! architecture it runs, runs on identically-constructed parts.
//!
//! Nodes are created in a fixed order (the packet half before the access
//! half, each in the order listed above): `NodeId`s break every tie in
//! the event queue, so the order is part of the simulated world.

use vgprs_gprs::{Ggsn, IpRouter, Sgsn};
use vgprs_gsm::{
    Bsc, BscConfig, Bts, BtsConfig, GsmMsc, Hlr, MobileStation, MsConfig, MscConfig, Vlr,
    VlrConfig,
};
use vgprs_h323::{Gatekeeper, GatekeeperConfig, GatewayConfig, H323Terminal, PstnGateway,
    TerminalConfig};
use vgprs_pstn::{PstnSwitch, TrunkClass};
use vgprs_sim::{Interface, Network, Node, NodeId, SimDuration};
use vgprs_wire::{
    CellId, Imsi, Ipv4Addr, Lai, Message, Msisdn, PointCode, SubscriberProfile, TransportAddr,
};

use crate::vmsc::{Vmsc, VmscConfig};

/// Per-interface one-way latencies used when wiring links.
#[derive(Clone, Copy, Debug)]
pub struct LatencyProfile {
    /// MS ↔ BTS radio interface.
    pub um: SimDuration,
    /// BTS ↔ BSC.
    pub abis: SimDuration,
    /// BSC ↔ MSC/VMSC.
    pub a: SimDuration,
    /// Domestic SS7 (B/C/D interfaces).
    pub ss7: SimDuration,
    /// International SS7 (roamer's VLR ↔ home HLR).
    pub ss7_international: SimDuration,
    /// BSC/VMSC ↔ SGSN.
    pub gb: SimDuration,
    /// SGSN ↔ GGSN.
    pub gn: SimDuration,
    /// LAN segments in the H.323 zone (and Gi).
    pub lan: SimDuration,
    /// Domestic ISUP trunks.
    pub isup: SimDuration,
    /// International ISUP trunks.
    pub isup_international: SimDuration,
    /// Inter-MSC E interface.
    pub e: SimDuration,
}

impl Default for LatencyProfile {
    /// Values representative of a year-2000 national network.
    fn default() -> Self {
        LatencyProfile {
            um: SimDuration::from_millis(5),
            abis: SimDuration::from_millis(2),
            a: SimDuration::from_millis(2),
            ss7: SimDuration::from_millis(5),
            ss7_international: SimDuration::from_millis(60),
            gb: SimDuration::from_millis(5),
            gn: SimDuration::from_millis(3),
            lan: SimDuration::from_millis(1),
            isup: SimDuration::from_millis(5),
            isup_international: SimDuration::from_millis(70),
            e: SimDuration::from_millis(5),
        }
    }
}

/// Configuration for one vGPRS serving network (Figure 2(b)).
#[derive(Clone, Debug)]
pub struct VgprsZoneConfig {
    /// Name prefix for the nodes ("tw" → "tw.vmsc", …).
    pub name: String,
    /// Country code of this network's numbers.
    pub country_code: String,
    /// Location area broadcast by the zone's cell.
    pub lai: Lai,
    /// The serving cell.
    pub cell: CellId,
    /// Roaming-number prefix minted by the VLR.
    pub msrn_prefix: String,
    /// GGSN PDP address pool.
    pub pool: (Ipv4Addr, u8),
    /// Gatekeeper transport address (inside the pool's LAN space).
    pub gk_addr: TransportAddr,
    /// Gatekeeper admission budget (units of 100 bit/s).
    pub gk_bandwidth: u32,
    /// Traffic channels at the BSC.
    pub tch_capacity: usize,
    /// Shared packet-channel rate at the BTS.
    pub pdch_bps: u64,
    /// Authenticate on every access, not just registration.
    pub auth_on_access: bool,
    /// Run the VMSC in the paper's idle-deactivation ablation mode.
    pub deactivate_idle_contexts: bool,
    /// Arm VMSC recovery guard timers (RAS/ARQ retry, setup supervision).
    /// Off by default so fault-free runs keep their historical event
    /// streams bit-identical.
    pub resilience: bool,
    /// Overload control: VMSC paging-request throttle, pages per
    /// simulated second (`0` = unlimited, the historical behavior).
    pub paging_rate_per_s: u32,
    /// Overload control: gatekeeper ARJ load-shed threshold as a
    /// fraction of the admission budget (`0.0` = disabled).
    pub gk_shed_utilization: f64,
    /// Overload control: SGSN PDP-activation admission rate per
    /// simulated second (`0` = unlimited).
    pub pdp_rate_per_s: u32,
    /// Link latencies.
    pub latency: LatencyProfile,
}

impl VgprsZoneConfig {
    /// A Taiwan-flavored default zone matching the paper's authors.
    pub fn taiwan() -> Self {
        VgprsZoneConfig {
            name: "tw".into(),
            country_code: "886".into(),
            lai: Lai::new(466, 92, 1),
            cell: CellId(1),
            msrn_prefix: "8869990".into(),
            pool: (Ipv4Addr::from_octets(10, 200, 0, 0), 16),
            gk_addr: TransportAddr::new(Ipv4Addr::from_octets(10, 1, 0, 2), 1719),
            gk_bandwidth: 1_000_000,
            tch_capacity: 64,
            pdch_bps: 40_000,
            auth_on_access: true,
            deactivate_idle_contexts: false,
            resilience: false,
            paging_rate_per_s: 0,
            gk_shed_utilization: 0.0,
            pdp_rate_per_s: 0,
            latency: LatencyProfile::default(),
        }
    }
}

/// A zone's one cell: what its BSC and BTS are built from.
#[derive(Clone, Copy, Debug)]
pub struct CellConfig {
    /// The cell's identity.
    pub cell: CellId,
    /// Traffic channels at the BSC.
    pub tch_capacity: usize,
    /// Shared packet-channel rate at the BTS.
    pub pdch_bps: u64,
}

/// Creates a cell's BSC (reporting to `upstream`: an MSC, or the SGSN
/// for a PCU-only cell) and then its BTS, joined over Abis.
pub fn build_cell(
    net: &mut Network<Message>,
    zone: &str,
    upstream: NodeId,
    cfg: CellConfig,
    abis: SimDuration,
) -> (NodeId, NodeId) {
    let bsc = net.add_node(
        &format!("{zone}.bsc"),
        Bsc::new(
            BscConfig {
                tch_capacity: cfg.tch_capacity,
            },
            upstream,
        ),
    );
    let bts = net.add_node(
        &format!("{zone}.bts"),
        Bts::new(
            BtsConfig {
                cell: cfg.cell,
                pdch_bps: cfg.pdch_bps,
                ..BtsConfig::default()
            },
            bsc,
        ),
    );
    net.node_mut::<Bsc>(bsc)
        .expect("just created")
        .register_bts(bts, cfg.cell);
    net.connect(bts, bsc, Interface::Abis, abis);
    (bsc, bts)
}

/// Adds `handset` to the network camped on `bts`: its Um link and its
/// place in the cell's paging population.
pub fn camp(
    net: &mut Network<Message>,
    name: &str,
    handset: impl Node<Message> + 'static,
    bts: NodeId,
    um: SimDuration,
) -> NodeId {
    let ms = net.add_node(name, handset);
    net.connect(ms, bts, Interface::Um, um);
    net.node_mut::<Bts>(bts).expect("zone BTS").register_ms(ms);
    ms
}

/// Handles to the GSM access half of a zone: the registers, the MSC in
/// the middle (a [`Vmsc`] or a [`GsmMsc`]) and the radio side.
#[derive(Clone, Debug)]
pub struct AccessHalf {
    /// Home location register (with AuC).
    pub hlr: NodeId,
    /// Visitor location register.
    pub vlr: NodeId,
    /// The switching center between VLR and BSC.
    pub msc: NodeId,
    /// Base station controller.
    pub bsc: NodeId,
    /// Base transceiver station.
    pub bts: NodeId,
    /// The zone's location area.
    pub lai: Lai,
    /// The zone's cell.
    pub cell: CellId,
    /// Latencies (reused when adding elements later).
    pub latency: LatencyProfile,
    name: String,
}

impl AccessHalf {
    /// Builds HLR, VLR, the MSC that `add_msc` creates from `(vlr, hlr)`,
    /// BSC and BTS — in that order — and the Abis/A/B/C/D links.
    pub fn build(
        net: &mut Network<Message>,
        name: &str,
        lai: Lai,
        cell: CellConfig,
        vlr: VlrConfig,
        latency: LatencyProfile,
        add_msc: impl FnOnce(&mut Network<Message>, NodeId, NodeId) -> NodeId,
    ) -> AccessHalf {
        let hlr = net.add_node(&format!("{name}.hlr"), Hlr::new());
        // VLR and MSC name each other: the VLR starts out pointing at
        // the HLR and is patched once the MSC exists.
        let vlr = net.add_node(&format!("{name}.vlr"), Vlr::new(vlr, hlr, hlr));
        let msc = add_msc(net, vlr, hlr);
        net.node_mut::<Vlr>(vlr).expect("just created").set_msc(msc);
        let (bsc, bts) = build_cell(net, name, msc, cell, latency.abis);
        net.connect(bsc, msc, Interface::A, latency.a);
        net.connect(msc, vlr, Interface::B, latency.ss7);
        net.connect(msc, hlr, Interface::C, latency.ss7);
        net.connect(vlr, hlr, Interface::D, latency.ss7);
        AccessHalf {
            hlr,
            vlr,
            msc,
            bsc,
            bts,
            lai,
            cell: cell.cell,
            latency,
            name: name.to_owned(),
        }
    }

    /// Provisions a subscriber in this zone's HLR and creates its MS,
    /// camped on the zone's cell.
    pub fn add_subscriber(
        &self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        net.node_mut::<Hlr>(self.hlr)
            .expect("zone HLR")
            .provision(imsi, ki, SubscriberProfile::full(msisdn));
        self.add_roamer(net, label, imsi, ki, msisdn)
    }

    /// Creates an MS camped on this zone *without* provisioning the local
    /// HLR — the subscriber's home HLR is elsewhere (roaming; wire the
    /// VLR with [`Vlr::add_hlr_route`] first).
    pub fn add_roamer(
        &self,
        net: &mut Network<Message>,
        label: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        camp(
            net,
            &format!("{}.{}", self.name, label),
            MobileStation::new(MsConfig::new(imsi, ki, msisdn, self.lai), self.bts),
            self.bts,
            self.latency.um,
        )
    }

    /// Lets `ms`, camped elsewhere, also hear this zone's cell: the Um
    /// link, a place in its paging population, and the cell on the MS's
    /// neighbor list (what handoff and reselection choose from).
    pub fn cover(&self, net: &mut Network<Message>, ms: NodeId) {
        net.connect(ms, self.bts, Interface::Um, self.latency.um);
        net.node_mut::<Bts>(self.bts)
            .expect("zone BTS")
            .register_ms(ms);
        net.node_mut::<MobileStation>(ms)
            .expect("an MS")
            .add_neighbor(self.cell, self.bts);
    }
}

/// Handles to the packet/H.323 half of a zone: the GPRS core and the
/// H.323 zone behind its Gi.
#[derive(Clone, Debug)]
pub struct PacketHalf {
    /// The PSDN router connecting Gi with the H.323 zone.
    pub router: NodeId,
    /// The H.323 gatekeeper.
    pub gk: NodeId,
    /// Gateway GPRS support node.
    pub ggsn: NodeId,
    /// Serving GPRS support node.
    pub sgsn: NodeId,
    /// The gatekeeper's address (for terminals joining the zone).
    pub gk_addr: TransportAddr,
    /// Latencies (reused when adding elements later).
    pub latency: LatencyProfile,
    name: String,
    next_host: u16,
}

impl PacketHalf {
    /// Builds router, gatekeeper, GGSN and SGSN — in that order — with
    /// the Gn/Gi/LAN links and the router's two routes: the PDP pool to
    /// the GGSN, the gatekeeper as a LAN host.
    pub fn build(
        net: &mut Network<Message>,
        name: &str,
        pool: (Ipv4Addr, u8),
        gk_cfg: GatekeeperConfig,
        pdp_rate_per_s: u32,
        latency: LatencyProfile,
    ) -> PacketHalf {
        let router = net.add_node(&format!("{name}.router"), IpRouter::new());
        let gk = net.add_node(&format!("{name}.gk"), Gatekeeper::new(gk_cfg, router));
        let ggsn = net.add_node(&format!("{name}.ggsn"), Ggsn::new(pool.0, pool.1));
        let sgsn = net.add_node(
            &format!("{name}.sgsn"),
            Sgsn::new(ggsn).with_admission_rate(pdp_rate_per_s),
        );
        net.connect(sgsn, ggsn, Interface::Gn, latency.gn);
        net.connect(ggsn, router, Interface::Gi, latency.lan);
        net.connect(gk, router, Interface::Lan, latency.lan);
        {
            let r = net.node_mut::<IpRouter>(router).expect("just created");
            r.add_prefix(pool.0, pool.1, ggsn);
            r.add_host(gk_cfg.addr.ip, gk);
        }
        net.node_mut::<Ggsn>(ggsn)
            .expect("just created")
            .set_router(router);
        PacketHalf {
            router,
            gk,
            ggsn,
            sgsn,
            gk_addr: gk_cfg.addr,
            latency,
            name: name.to_owned(),
            next_host: 10,
        }
    }

    /// Puts the node `make` builds for the next free 10.1.x.y address
    /// (spread over two octets so a zone can host tens of thousands of
    /// endpoints) on the LAN and routes that address to it.
    fn add_lan_host<N: Node<Message> + 'static>(
        &mut self,
        net: &mut Network<Message>,
        label: &str,
        make: impl FnOnce(TransportAddr) -> N,
    ) -> NodeId {
        self.next_host += 1;
        let [hi, lo] = self.next_host.to_be_bytes();
        let addr = TransportAddr::new(Ipv4Addr::from_octets(10, 1, hi, lo), 1720);
        let host = net.add_node(&format!("{}.{}", self.name, label), make(addr));
        net.connect(host, self.router, Interface::Lan, self.latency.lan);
        net.node_mut::<IpRouter>(self.router)
            .expect("zone router")
            .add_host(addr.ip, host);
        host
    }

    /// Adds an H.323 terminal on the zone's LAN and registers its routes.
    ///
    /// Call this on the *original* handle: the method advances an
    /// internal address counter, and a cloned handle forks that counter
    /// (two handles handing out the same 10.x address would misroute).
    pub fn add_terminal(
        &mut self,
        net: &mut Network<Message>,
        label: &str,
        alias: Msisdn,
    ) -> NodeId {
        let (gk, router) = (self.gk_addr, self.router);
        self.add_lan_host(net, label, |addr| {
            H323Terminal::new(TerminalConfig::new(alias, addr, gk), router)
        })
    }

    /// Adds an H.323/PSTN gateway on the zone's LAN, trunked into
    /// `switch`, and routes `prefix` from the switch to it as the
    /// *preferred* (local) route — the Figure 8 configuration.
    pub fn add_gateway(
        &mut self,
        net: &mut Network<Message>,
        switch: NodeId,
        preferred_prefix: &str,
    ) -> NodeId {
        let (gk, router) = (self.gk_addr, self.router);
        let gw = self.add_lan_host(net, "gw", |addr| {
            PstnGateway::new(GatewayConfig { addr, gk }, router, switch)
        });
        net.connect(gw, switch, Interface::Isup, self.latency.isup);
        net.node_mut::<PstnSwitch>(switch)
            .expect("switch")
            .add_route(preferred_prefix, gw, TrunkClass::Local);
        gw
    }
}

/// A built vGPRS zone: both halves, joined by the [`Vmsc`] — which is
/// `access.msc` — and its Gb link to `packet.sgsn`.
#[derive(Clone, Debug)]
pub struct VgprsZone {
    /// HLR, VLR, the VMSC, BSC and BTS.
    pub access: AccessHalf,
    /// Router, gatekeeper, GGSN and SGSN.
    pub packet: PacketHalf,
}

impl VgprsZone {
    /// Builds the zone inside `net`.
    pub fn build(net: &mut Network<Message>, cfg: VgprsZoneConfig) -> VgprsZone {
        let packet = PacketHalf::build(
            net,
            &cfg.name,
            cfg.pool,
            GatekeeperConfig {
                addr: cfg.gk_addr,
                bandwidth_budget: cfg.gk_bandwidth,
                shed_utilization: cfg.gk_shed_utilization,
            },
            cfg.pdp_rate_per_s,
            cfg.latency,
        );
        let access = AccessHalf::build(
            net,
            &cfg.name,
            cfg.lai,
            CellConfig {
                cell: cfg.cell,
                tch_capacity: cfg.tch_capacity,
                pdch_bps: cfg.pdch_bps,
            },
            VlrConfig {
                point_code: PointCode(10),
                msrn_prefix: cfg.msrn_prefix,
                auth_on_access: cfg.auth_on_access,
            },
            cfg.latency,
            |net, vlr, _hlr| {
                net.add_node(
                    &format!("{}.vmsc", cfg.name),
                    Vmsc::new(
                        VmscConfig {
                            country_code: cfg.country_code,
                            gk: cfg.gk_addr,
                            deactivate_idle_contexts: cfg.deactivate_idle_contexts,
                            resilience: cfg.resilience,
                            paging_rate_per_s: cfg.paging_rate_per_s,
                        },
                        vlr,
                        packet.sgsn,
                    ),
                )
            },
        );
        net.node_mut::<Vmsc>(access.msc)
            .expect("just created")
            .register_bsc(access.bsc);
        net.connect(access.msc, packet.sgsn, Interface::Gb, cfg.latency.gb);
        VgprsZone { access, packet }
    }
}

/// One of the architectures Section 6 compares, as far as an experiment
/// needs to tell them apart: what a zone is built from, how a mobile
/// subscriber joins it (through the access half's HLR and circuit radio,
/// or as an H.323 terminal of its own behind the packet radio), and
/// under which name that mobile reports its post-dial delay. The far end
/// of a call lives on the packet half in every architecture.
pub trait Architecture: Sized {
    /// What a zone of this architecture is built from.
    type Config;
    /// Histogram of the mobile's post-dial delay (dial → ringback), ms.
    const POST_DIAL_DELAY_MS: &'static str;

    /// The reference deployment every comparison starts from.
    fn taiwan() -> Self::Config;

    /// Builds the zone inside `net`.
    fn build(net: &mut Network<Message>, cfg: Self::Config) -> Self;

    /// Adds a mobile subscriber, provisioned and camped on the zone's
    /// cell.
    fn add_mobile(
        &mut self,
        net: &mut Network<Message>,
        name: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId;

    /// The GPRS core and H.323 zone the architecture stands on.
    fn packet(&mut self) -> &mut PacketHalf;
}

impl Architecture for VgprsZone {
    type Config = VgprsZoneConfig;
    const POST_DIAL_DELAY_MS: &'static str = "ms.post_dial_delay_ms";

    fn taiwan() -> VgprsZoneConfig {
        VgprsZoneConfig::taiwan()
    }

    fn build(net: &mut Network<Message>, cfg: VgprsZoneConfig) -> Self {
        VgprsZone::build(net, cfg)
    }

    fn add_mobile(
        &mut self,
        net: &mut Network<Message>,
        name: &str,
        imsi: Imsi,
        ki: u64,
        msisdn: Msisdn,
    ) -> NodeId {
        self.access.add_subscriber(net, name, imsi, ki, msisdn)
    }

    fn packet(&mut self) -> &mut PacketHalf {
        &mut self.packet
    }
}

/// Configuration for a classic GSM network (the baseline of Figure 7).
#[derive(Clone, Debug)]
pub struct GsmZoneConfig {
    /// Name prefix for the nodes.
    pub name: String,
    /// Country code.
    pub country_code: String,
    /// Prefix of this network's subscriber numbers (GMSC role).
    pub home_prefix: String,
    /// Roaming-number prefix.
    pub msrn_prefix: String,
    /// Location area.
    pub lai: Lai,
    /// Serving cell.
    pub cell: CellId,
    /// Traffic channels.
    pub tch_capacity: usize,
    /// Authenticate on every access.
    pub auth_on_access: bool,
    /// Latencies.
    pub latency: LatencyProfile,
}

/// A built classic GSM zone: the access half around a [`GsmMsc`].
#[derive(Clone, Debug)]
pub struct GsmZone {
    /// HLR, VLR, the circuit-switched MSC, BSC and BTS.
    pub access: AccessHalf,
}

impl GsmZone {
    /// Builds the zone and trunks its MSC into `pstn_switch`.
    pub fn build(
        net: &mut Network<Message>,
        cfg: GsmZoneConfig,
        pstn_switch: NodeId,
    ) -> GsmZone {
        let msc_cfg = MscConfig {
            country_code: cfg.country_code,
            home_prefix: cfg.home_prefix,
            msrn_prefix: cfg.msrn_prefix.clone(),
        };
        let access = AccessHalf::build(
            net,
            &cfg.name,
            cfg.lai,
            CellConfig {
                cell: cfg.cell,
                tch_capacity: cfg.tch_capacity,
                pdch_bps: 40_000,
            },
            VlrConfig {
                point_code: PointCode(20),
                msrn_prefix: cfg.msrn_prefix,
                auth_on_access: cfg.auth_on_access,
            },
            cfg.latency,
            |net, vlr, hlr| {
                net.add_node(&format!("{}.msc", cfg.name), GsmMsc::new(msc_cfg, vlr, hlr))
            },
        );
        let m = net.node_mut::<GsmMsc>(access.msc).expect("just created");
        m.register_bsc(access.bsc);
        m.set_pstn(pstn_switch);
        net.connect(access.msc, pstn_switch, Interface::Isup, cfg.latency.isup);
        GsmZone { access }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgprs_zone_builds_and_is_quiescent() {
        let mut net = Network::new(1);
        let zone = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        net.run_until_quiescent();
        assert!(net.node::<Vmsc>(zone.access.msc).is_some());
        assert!(net.node::<Gatekeeper>(zone.packet.gk).is_some());
        assert_eq!(net.trace().len(), 0, "an empty zone is silent");
    }

    fn uk() -> GsmZoneConfig {
        GsmZoneConfig {
            name: "uk".into(),
            country_code: "44".into(),
            home_prefix: "447".into(),
            msrn_prefix: "449990".into(),
            lai: Lai::new(234, 15, 1),
            cell: CellId(10),
            tch_capacity: 32,
            auth_on_access: true,
            latency: LatencyProfile::default(),
        }
    }

    #[test]
    fn gsm_zone_builds() {
        let mut net = Network::new(1);
        let sw = net.add_node("pstn", PstnSwitch::new("pstn"));
        let zone = GsmZone::build(&mut net, uk(), sw);
        net.run_until_quiescent();
        assert!(net.node::<GsmMsc>(zone.access.msc).is_some());
    }

    /// `NodeId`s break every tie in the event queue, so a builder that
    /// creates its nodes in another order moves every fingerprint; this
    /// says which node moved.
    #[test]
    fn zone_node_order_is_pinned() {
        let mut net = Network::new(1);
        let tw = VgprsZone::build(&mut net, VgprsZoneConfig::taiwan());
        let sw = net.add_node("pstn", PstnSwitch::new("pstn"));
        let uk = GsmZone::build(&mut net, uk(), sw).access;
        let (a, p) = (&tw.access, &tw.packet);
        let built = [
            p.router, p.gk, p.ggsn, p.sgsn, a.hlr, a.vlr, a.msc, a.bsc, a.bts, sw, uk.hlr, uk.vlr,
            uk.msc, uk.bsc, uk.bts,
        ];
        let names = [
            "tw.router",
            "tw.gk",
            "tw.ggsn",
            "tw.sgsn",
            "tw.hlr",
            "tw.vlr",
            "tw.vmsc",
            "tw.bsc",
            "tw.bts",
            "pstn",
            "uk.hlr",
            "uk.vlr",
            "uk.msc",
            "uk.bsc",
            "uk.bts",
        ];
        for (i, (id, name)) in built.into_iter().zip(names).enumerate() {
            assert_eq!((id.index(), net.node_name(id)), (i as u32, name));
        }
    }
}
