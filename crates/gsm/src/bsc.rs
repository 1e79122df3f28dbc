//! Base Station Controller: aggregates BTSs toward the MSC/VMSC, manages
//! the traffic-channel (TCH) pool, and hosts the Packet Control Unit that
//! forwards packet traffic to the SGSN over Gb (paper Figure 1: "to
//! connect to an SGSN, a packet control unit (PCU) is implemented in the
//! BSC").

use vgprs_sim::{Context, IdMap, IdSet, Interface, Node, NodeId, NumberBlock};
use vgprs_wire::{Cause, CellId, ConnRef, Dtap, Imsi, Message};

/// Configuration for a [`Bsc`].
#[derive(Clone, Copy, Debug)]
pub struct BscConfig {
    /// Traffic channels available across the BSC's cells. Calls beyond
    /// this count are blocked with
    /// [`Cause::RadioResourceUnavailable`].
    pub tch_capacity: usize,
}

impl Default for BscConfig {
    fn default() -> Self {
        BscConfig { tch_capacity: 32 }
    }
}

/// The BSC node.
#[derive(Debug)]
pub struct Bsc {
    config: BscConfig,
    msc: NodeId,
    /// PCU uplink: where packet traffic goes, if GPRS is deployed.
    sgsn: Option<NodeId>,
    btss: Vec<(NodeId, CellId)>,
    conn_to_bts: NumberBlock<ConnRef, NodeId>,
    /// Connections currently holding a TCH.
    tch_held: IdSet<ConnRef>,
    /// Which BTS serves each packet-service subscriber (learned from
    /// uplink packet traffic).
    packet_bts: IdMap<Imsi, NodeId>,
}

impl Bsc {
    /// Creates a BSC homed on the given MSC (or VMSC).
    pub fn new(config: BscConfig, msc: NodeId) -> Self {
        Bsc {
            config,
            msc,
            sgsn: None,
            btss: Vec::new(),
            conn_to_bts: NumberBlock::default(),
            tch_held: IdSet::default(),
            packet_bts: IdMap::default(),
        }
    }

    /// Attaches the PCU to an SGSN (enables the packet path).
    pub fn set_sgsn(&mut self, sgsn: NodeId) {
        self.sgsn = Some(sgsn);
    }

    /// Registers a subordinate BTS and the cell it radiates.
    pub fn register_bts(&mut self, bts: NodeId, cell: CellId) {
        if !self.btss.iter().any(|(n, _)| *n == bts) {
            self.btss.push((bts, cell));
        }
    }

    /// Declares the `count` connection references from `first` — what a
    /// BTS issues the home population's registrations (see
    /// [`Bts::declare_block`](crate::Bts::declare_block)) — a dense row
    /// each instead of a hashed one. Declare before the first connection.
    pub fn declare_block(&mut self, first: ConnRef, count: usize) {
        self.conn_to_bts.declare(first, count);
    }

    /// Records that `conn` runs through `bts`, as its first uplink
    /// message would have.
    pub fn provision_connection(&mut self, conn: ConnRef, bts: NodeId) {
        self.conn_to_bts.insert(conn, bts);
    }

    fn cell_of(&self, bts: NodeId) -> CellId {
        self.btss
            .iter()
            .find(|(n, _)| *n == bts)
            .map(|(_, c)| *c)
            .unwrap_or(CellId(0))
    }
}

impl Node<Message> for Bsc {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            // ---- uplink from a BTS ----
            (Interface::Abis, Message::Abis { conn, dtap }) => {
                self.conn_to_bts.insert(conn, from);
                ctx.send(self.msc, Message::a(conn, dtap));
            }
            (Interface::Abis, m @ (Message::Gmm(_) | Message::Llc { .. })) => {
                let imsi = match &m {
                    Message::Gmm(g) => g.imsi(),
                    Message::Llc { imsi, .. } => *imsi,
                    _ => unreachable!("match arm restricted above"),
                };
                self.packet_bts.insert(imsi, from);
                match self.sgsn {
                    Some(sgsn) => ctx.send(sgsn, m),
                    None => ctx.count("bsc.packet_without_sgsn"),
                }
            }

            // ---- downlink from the MSC ----
            (Interface::A, Message::A { conn, dtap }) => {
                if conn.is_connectionless() {
                    for (bts, _) in self.btss.clone() {
                        ctx.send(bts, Message::abis(conn, dtap.clone()));
                    }
                    return;
                }
                let Some(&bts) = self.conn_to_bts.get(&conn) else {
                    ctx.count_by("bsc.downlink_unknown_conn", dtap.frames().into());
                    return;
                };
                match dtap {
                    Dtap::ChannelAssignment { .. } => {
                        if self.tch_held.contains(&conn) {
                            // already holding one (re-assignment): fine
                        } else if self.tch_held.len() >= self.config.tch_capacity {
                            ctx.count("bsc.tch_blocked");
                            ctx.send(
                                self.msc,
                                Message::a(
                                    conn,
                                    Dtap::ChannelAssignmentFailure {
                                        cause: Cause::RadioResourceUnavailable,
                                    },
                                ),
                            );
                            return;
                        } else {
                            self.tch_held.insert(conn);
                            ctx.count("bsc.tch_allocated");
                        }
                        // Fill in the real serving cell before relaying.
                        let cell = self.cell_of(bts);
                        ctx.send(bts, Message::abis(conn, Dtap::ChannelAssignment { cell }));
                    }
                    Dtap::ChannelRelease => {
                        if self.tch_held.remove(&conn) {
                            ctx.count("bsc.tch_released");
                        }
                        ctx.send(bts, Message::abis(conn, Dtap::ChannelRelease));
                        self.conn_to_bts.remove(&conn);
                    }
                    other => ctx.send(bts, Message::abis(conn, other)),
                }
            }

            // ---- downlink packet traffic from the SGSN over Gb ----
            (Interface::Gb, m @ (Message::Gmm(_) | Message::Llc { .. })) => {
                let imsi = match &m {
                    Message::Gmm(g) => g.imsi(),
                    Message::Llc { imsi, .. } => *imsi,
                    _ => unreachable!("match arm restricted above"),
                };
                match self.packet_bts.get(&imsi) {
                    Some(&bts) => ctx.send(bts, m),
                    None => ctx.count("bsc.downlink_unknown_packet_ms"),
                }
            }

            _ => ctx.count("bsc.unexpected_message"),
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
    use vgprs_wire::CallId;

    const CONN: ConnRef = ConnRef(0x0001_0001);

    /// Builds: msc(peer) —A— bsc —Abis— bts(peer), the BTS sending
    /// `uplink`; a second peer on the A side sends `downlink`.
    fn rig(
        uplink: Vec<Message>,
        downlink: Vec<Message>,
        capacity: usize,
    ) -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let msc_probe = net.add_node("msc", ScriptedPeer::new());
        let bsc = net.add_node(
            "bsc",
            Bsc::new(
                BscConfig {
                    tch_capacity: capacity,
                },
                msc_probe,
            ),
        );
        let bts = net.add_node("bts", ScriptedPeer::sending(bsc, uplink));
        net.connect(bts, bsc, Interface::Abis, SimDuration::from_millis(1));
        net.connect(bsc, msc_probe, Interface::A, SimDuration::from_millis(1));
        net.node_mut::<Bsc>(bsc).unwrap().register_bts(bts, CellId(3));
        if !downlink.is_empty() {
            let dl = net.add_node("dl", ScriptedPeer::sending(bsc, downlink));
            net.connect(dl, bsc, Interface::A, SimDuration::from_millis(5));
        }
        (net, bsc, msc_probe, bts)
    }

    #[test]
    fn uplink_relayed_to_msc_as_a_interface() {
        let (mut net, _, msc, _) = rig(
            vec![Message::abis(CONN, Dtap::CmServiceAccept)],
            vec![],
            4,
        );
        net.run_until_quiescent();
        let got = ScriptedPeer::of(&net, msc).log();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, Interface::A);
        assert_eq!(got[0].2.label_str(), "A_CM_Service_Accept");
    }

    #[test]
    fn channel_assignment_allocates_and_rewrites_cell() {
        let (mut net, bsc, _, bts) = rig(
            vec![Message::abis(CONN, Dtap::CmServiceAccept)],
            vec![Message::a(CONN, Dtap::ChannelAssignment { cell: CellId(0) })],
            4,
        );
        net.run_until_quiescent();
        assert_eq!(net.node::<Bsc>(bsc).unwrap().tch_held.len(), 1);
        // the BTS received the assignment with the true cell id
        let got = ScriptedPeer::of(&net, bts).received();
        assert!(matches!(
            got[..],
            [Message::Abis {
                dtap: Dtap::ChannelAssignment { cell: CellId(3) },
                ..
            }]
        ));
        assert_eq!(net.stats().counter("bsc.tch_allocated"), 1);
    }

    #[test]
    fn tch_exhaustion_reports_failure_upstream() {
        let conn2 = ConnRef(0x0001_0002);
        let (mut net, _, msc, _) = rig(
            vec![
                Message::abis(CONN, Dtap::CmServiceAccept),
                Message::abis(conn2, Dtap::CmServiceAccept),
            ],
            vec![
                Message::a(CONN, Dtap::ChannelAssignment { cell: CellId(0) }),
                Message::a(conn2, Dtap::ChannelAssignment { cell: CellId(0) }),
            ],
            1,
        );
        net.run_until_quiescent();
        let got = ScriptedPeer::of(&net, msc).labels();
        let failures = got.iter().filter(|l| *l == "A_Channel_Assignment_Failure");
        assert_eq!(failures.count(), 1);
        assert_eq!(net.stats().counter("bsc.tch_blocked"), 1);
    }

    #[test]
    fn channel_release_frees_tch() {
        let (mut net, bsc, _, _) = rig(
            vec![Message::abis(CONN, Dtap::CmServiceAccept)],
            vec![
                Message::a(CONN, Dtap::ChannelAssignment { cell: CellId(0) }),
                Message::a(CONN, Dtap::ChannelRelease),
            ],
            4,
        );
        net.run_until_quiescent();
        assert!(net.node::<Bsc>(bsc).unwrap().tch_held.is_empty());
        assert_eq!(net.stats().counter("bsc.tch_released"), 1);
    }

    #[test]
    fn paging_broadcast_to_every_bts() {
        use vgprs_wire::{Lai, MsIdentity, Tmsi};
        let _ = Lai::new(1, 1, 1);
        let mut net = Network::new(1);
        let msc_probe = net.add_node("msc", ScriptedPeer::new());
        let bsc = net.add_node("bsc", Bsc::new(BscConfig::default(), msc_probe));
        let bts1 = net.add_node("bts1", ScriptedPeer::new());
        let bts2 = net.add_node("bts2", ScriptedPeer::new());
        let page = Dtap::Paging {
            identity: MsIdentity::Tmsi(Tmsi(1)),
        };
        let page = Message::a(ConnRef::CONNECTIONLESS, page);
        let pager = net.add_node("pager", ScriptedPeer::sending(bsc, [page]));
        net.connect(bts1, bsc, Interface::Abis, SimDuration::from_millis(1));
        net.connect(bts2, bsc, Interface::Abis, SimDuration::from_millis(1));
        net.connect(bsc, msc_probe, Interface::A, SimDuration::from_millis(1));
        net.connect(pager, bsc, Interface::A, SimDuration::from_millis(1));
        {
            let b = net.node_mut::<Bsc>(bsc).unwrap();
            b.register_bts(bts1, CellId(1));
            b.register_bts(bts2, CellId(2));
        }
        net.run_until_quiescent();
        assert_eq!(ScriptedPeer::of(&net, bts1).log().len(), 1);
        assert_eq!(ScriptedPeer::of(&net, bts2).log().len(), 1);
    }

    #[test]
    fn packet_uplink_needs_sgsn() {
        use vgprs_wire::GmmMessage;
        let imsi = Imsi::parse("466920123456789").unwrap();
        let (mut net, _, _, _) = rig(
            vec![Message::Gmm(GmmMessage::AttachRequest { imsi })],
            vec![],
            4,
        );
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("bsc.packet_without_sgsn"), 1);
    }

    #[test]
    fn downlink_unknown_conn_counted() {
        let (mut net, _, _, _) = rig(
            vec![],
            vec![Message::a(ConnRef(0xDEAD), Dtap::Alerting { call: CallId(1) })],
            4,
        );
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("bsc.downlink_unknown_conn"), 1);
    }
}
