//! Base Transceiver Station: the radio head.
//!
//! The BTS relays DTAP between each MS's dedicated radio link (Um) and the
//! shared Abis link toward the BSC, allocating an SCCP-style connection
//! reference per MS transaction. It also models the shared packet data
//! channel (PDCH) pool used by GPRS-capable MSs: packet traffic queues for
//! a finite air rate, which is exactly the contention the paper's Section 6
//! argues makes the 3G TR 22.973 baseline unable to guarantee real-time
//! voice.

use std::collections::VecDeque;
use std::sync::Arc;

use vgprs_sim::{Context, IdMap, IdSet, Interface, Node, NodeId, Payload, SimDuration};
use vgprs_wire::{CellId, ConnRef, Dtap, Imsi, Message};

/// Timer tag: the PDCH finished serializing the head-of-line packet.
const TIMER_PDCH_DONE: u64 = 1;

/// Configuration for a [`Bts`].
#[derive(Clone, Copy, Debug)]
pub struct BtsConfig {
    /// The cell this BTS radiates.
    pub cell: CellId,
    /// Shared packet-channel capacity in bits per second (all packet MSs
    /// in the cell contend for this). GPRS CS-2 with 3 PDCHs ≈ 40 kbit/s.
    pub pdch_bps: u64,
    /// Clip voice frames while the shared PDCH backlog is at or beyond
    /// this many queued packets (`0` disables clipping). vGPRS speech
    /// shares the cell with the packet service, so a saturated PDCH
    /// pool bleeds into in-call quality instead of staying invisible
    /// to voice — the Section 6 contention argument, made measurable.
    pub voice_clip_backlog: usize,
    /// Paging blocks per second the cell's common channel can carry
    /// (`0` disables the limit). A paging flood beyond this budget
    /// steals the shared timeslots from the speech path for the rest
    /// of that second, clipping in-call voice frames — the media-plane
    /// cost of an unthrottled MT storm.
    pub pch_capacity_per_s: u32,
}

impl Default for BtsConfig {
    fn default() -> Self {
        BtsConfig {
            cell: CellId(1),
            pdch_bps: 40_000,
            voice_clip_backlog: 8,
            pch_capacity_per_s: 8,
        }
    }
}

/// The BTS node.
#[derive(Debug)]
pub struct Bts {
    config: BtsConfig,
    bsc: NodeId,
    /// Every MS camped on this cell (registered by the testbed builder),
    /// in registration order; shared with each paging broadcast in flight.
    mss: Arc<Vec<NodeId>>,
    camped: IdSet<NodeId>,
    conn_to_ms: IdMap<ConnRef, NodeId>,
    ms_to_conn: IdMap<NodeId, ConnRef>,
    /// MSs known to use the packet service, keyed by IMSI (learned from
    /// uplink GMM/LLC traffic).
    packet_ms: IdMap<Imsi, NodeId>,
    next_conn: u32,
    /// Shared PDCH queue: (destination, message) pairs awaiting air time.
    pdch_queue: VecDeque<(NodeId, Message)>,
    pdch_busy: bool,
    /// One-second window index of the last paging broadcast, and how
    /// many pages this cell carried inside it.
    page_window: u64,
    pages_in_window: u32,
}

impl Bts {
    /// Creates a BTS homed on the given BSC.
    pub fn new(config: BtsConfig, bsc: NodeId) -> Self {
        Bts {
            config,
            bsc,
            mss: Arc::default(),
            camped: IdSet::default(),
            conn_to_ms: IdMap::default(),
            ms_to_conn: IdMap::default(),
            packet_ms: IdMap::default(),
            next_conn: 0,
            pdch_queue: VecDeque::new(),
            pdch_busy: false,
            page_window: 0,
            pages_in_window: 0,
        }
    }

    /// The cell this BTS serves.
    pub fn cell(&self) -> CellId {
        self.config.cell
    }

    /// Registers an MS as camped on this cell. The testbed builder calls
    /// this when it provisions the Um link.
    pub fn register_ms(&mut self, ms: NodeId) {
        if self.camped.insert(ms) {
            Arc::make_mut(&mut self.mss).push(ms);
        }
    }

    /// Number of packets currently waiting for the shared PDCH.
    pub fn pdch_backlog(&self) -> usize {
        self.pdch_queue.len()
    }

    fn alloc_conn(&mut self, ctx: &Context<'_, Message>, ms: NodeId) -> ConnRef {
        self.next_conn += 1;
        // Upper half = BTS node index, lower half = local counter: globally
        // unique without coordination, and never 0 (the connectionless ref).
        let conn = ConnRef((u32::from(ctx.id().index() as u16) << 16) | self.next_conn);
        if let Some(old) = self.ms_to_conn.insert(ms, conn) {
            self.conn_to_ms.remove(&old);
        }
        self.conn_to_ms.insert(conn, ms);
        conn
    }

    /// True if this DTAP message begins a new radio transaction.
    fn starts_transaction(dtap: &Dtap) -> bool {
        matches!(
            dtap,
            Dtap::LocationUpdateRequest { .. }
                | Dtap::CmServiceRequest { .. }
                | Dtap::PagingResponse { .. }
                | Dtap::HandoverComplete { .. }
        )
    }

    /// Queue a packet-service message for the shared air channel, starting
    /// the serializer if idle.
    fn enqueue_pdch(&mut self, ctx: &mut Context<'_, Message>, dest: NodeId, msg: Message) {
        self.pdch_queue.push_back((dest, msg));
        ctx.observe("bts.pdch_backlog", self.pdch_queue.len() as f64);
        if !self.pdch_busy {
            self.serve_pdch(ctx);
        }
    }

    fn serve_pdch(&mut self, ctx: &mut Context<'_, Message>) {
        match self.pdch_queue.front() {
            Some((_, msg)) => {
                self.pdch_busy = true;
                let bits = (msg.wire_size() as u64) * 8;
                let air_time =
                    SimDuration::from_micros(bits.saturating_mul(1_000_000) / self.config.pdch_bps);
                ctx.set_timer(air_time, TIMER_PDCH_DONE);
            }
            None => self.pdch_busy = false,
        }
    }

    /// True while shared-channel saturation is clipping the speech path
    /// — a PDCH packet backlog or a paging flood past the common-channel
    /// budget — so the cell drops this voice frame instead of relaying it.
    fn clips_voice(&self, now_ms: u64, dtap: &Dtap) -> bool {
        if !matches!(dtap, Dtap::VoiceFrame { .. }) {
            return false;
        }
        let pdch_backlogged = self.config.voice_clip_backlog > 0
            && self.pdch_queue.len() >= self.config.voice_clip_backlog;
        let paging_flood = self.config.pch_capacity_per_s > 0
            && now_ms / 1_000 == self.page_window
            && self.pages_in_window > self.config.pch_capacity_per_s;
        pdch_backlogged || paging_flood
    }

    /// Accounts one paging broadcast against the cell's per-second
    /// common-channel budget.
    fn note_page(&mut self, now_ms: u64) {
        let window = now_ms / 1_000;
        if window != self.page_window {
            self.page_window = window;
            self.pages_in_window = 0;
        }
        self.pages_in_window += 1;
    }
}

impl Node<Message> for Bts {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        iface: Interface,
        msg: Message,
    ) {
        match (iface, msg) {
            // ---- uplink: from an MS over its dedicated radio link ----
            (Interface::Um, Message::Um(dtap)) => {
                if self.clips_voice(ctx.now().as_millis(), &dtap) {
                    ctx.count("bts.pdch_voice_clipped");
                    return;
                }
                let conn = if Self::starts_transaction(&dtap) {
                    self.alloc_conn(ctx, from)
                } else {
                    match self.ms_to_conn.get(&from) {
                        Some(c) => *c,
                        None => {
                            ctx.count("bts.uplink_without_conn");
                            return;
                        }
                    }
                };
                ctx.send(self.bsc, Message::abis(conn, dtap));
            }
            // packet service uplink: GMM signaling and LLC user plane share
            // the PDCH with everything else in the cell
            (Interface::Um, m @ (Message::Gmm(_) | Message::Llc { .. })) => {
                let imsi = match &m {
                    Message::Gmm(g) => g.imsi(),
                    Message::Llc { imsi, .. } => *imsi,
                    _ => unreachable!("match arm restricted above"),
                };
                self.packet_ms.insert(imsi, from);
                self.enqueue_pdch(ctx, self.bsc, m);
            }

            // ---- downlink: from the BSC over Abis ----
            (Interface::Abis, Message::Abis { conn, dtap }) => {
                if conn.is_connectionless() {
                    // Paging broadcast: every camped MS hears the PCH, and
                    // the block is charged against the common-channel budget.
                    // One event for the cell; only the handsets it concerns
                    // are woken.
                    self.note_page(ctx.now().as_millis());
                    ctx.broadcast(Arc::clone(&self.mss), Message::Um(dtap));
                    ctx.count("bts.pages_broadcast");
                    return;
                }
                let Some(&ms) = self.conn_to_ms.get(&conn) else {
                    ctx.count("bts.downlink_unknown_conn");
                    return;
                };
                if self.clips_voice(ctx.now().as_millis(), &dtap) {
                    ctx.count("bts.pdch_voice_clipped");
                    return;
                }
                let ends = matches!(dtap, Dtap::ChannelRelease);
                ctx.send(ms, Message::Um(dtap));
                if ends {
                    self.conn_to_ms.remove(&conn);
                    self.ms_to_conn.remove(&ms);
                }
            }
            // packet service downlink
            (Interface::Abis, m @ (Message::Gmm(_) | Message::Llc { .. })) => {
                let imsi = match &m {
                    Message::Gmm(g) => g.imsi(),
                    Message::Llc { imsi, .. } => *imsi,
                    _ => unreachable!("match arm restricted above"),
                };
                match self.packet_ms.get(&imsi) {
                    Some(&ms) => self.enqueue_pdch(ctx, ms, m),
                    None => ctx.count("bts.downlink_unknown_packet_ms"),
                }
            }

            _ => ctx.count("bts.unexpected_message"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _token: vgprs_sim::TimerToken, tag: u64) {
        if tag == TIMER_PDCH_DONE {
            if let Some((dest, msg)) = self.pdch_queue.pop_front() {
                ctx.send(dest, msg);
            }
            self.pdch_busy = false;
            self.serve_pdch(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgprs_sim::Network;
    use vgprs_wire::{CallId, Lai, MsIdentity, Msisdn, Tmsi};

    /// Test double that records everything it receives.
    struct Probe {
        got: Vec<(Interface, Message)>,
    }
    impl Probe {
        fn new() -> Self {
            Probe { got: Vec::new() }
        }
    }
    impl Node<Message> for Probe {
        fn on_message(
            &mut self,
            _ctx: &mut Context<'_, Message>,
            _from: NodeId,
            iface: Interface,
            msg: Message,
        ) {
            self.got.push((iface, msg));
        }
    }

    fn lur() -> Dtap {
        Dtap::LocationUpdateRequest {
            identity: MsIdentity::Tmsi(Tmsi(5)),
            lai: Lai::new(466, 92, 1),
        }
    }

    /// Drives the BTS directly by placing a sender node behind the Um link.
    struct Sender {
        peer: NodeId,
        to_send: Vec<Message>,
    }
    impl Node<Message> for Sender {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            for m in self.to_send.drain(..) {
                ctx.send(self.peer, m);
            }
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

    fn rig_with_sender(msgs: Vec<Message>) -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let bsc = net.add_node("bsc", Probe::new());
        let bts = net.add_node("bts", Bts::new(BtsConfig::default(), bsc));
        let ms = net.add_node(
            "ms",
            Sender {
                peer: bts,
                to_send: msgs,
            },
        );
        net.connect(ms, bts, Interface::Um, SimDuration::from_millis(1));
        net.connect(bts, bsc, Interface::Abis, SimDuration::from_millis(1));
        net.node_mut::<Bts>(bts).unwrap().register_ms(ms);
        (net, bts, bsc, ms)
    }

    #[test]
    fn transaction_start_gets_fresh_conn() {
        let (mut net, _bts, bsc, _ms) = rig_with_sender(vec![Message::Um(lur())]);
        net.run_until_quiescent();
        let probe = net.node::<Probe>(bsc).unwrap();
        assert_eq!(probe.got.len(), 1);
        match &probe.got[0].1 {
            Message::Abis { conn, dtap } => {
                assert!(!conn.is_connectionless());
                assert_eq!(dtap.name(false), "Location_Update");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mid_transaction_uplink_reuses_conn() {
        let (mut net, _bts, bsc, _ms) = rig_with_sender(vec![
            Message::Um(lur()),
            Message::Um(Dtap::AuthenticationResponse { sres: 9 }),
        ]);
        net.run_until_quiescent();
        let probe = net.node::<Probe>(bsc).unwrap();
        assert_eq!(probe.got.len(), 2);
        let c0 = probe.got[0].1.conn().unwrap();
        let c1 = probe.got[1].1.conn().unwrap();
        assert_eq!(c0, c1);
    }

    #[test]
    fn uplink_without_transaction_dropped() {
        let (mut net, _bts, bsc, _ms) =
            rig_with_sender(vec![Message::Um(Dtap::AuthenticationResponse { sres: 9 })]);
        net.run_until_quiescent();
        assert!(net.node::<Probe>(bsc).unwrap().got.is_empty());
        assert_eq!(net.stats().counter("bts.uplink_without_conn"), 1);
    }

    #[test]
    fn paging_broadcast_reaches_all_camped_ms() {
        let mut net = Network::new(1);
        let bsc = net.add_node("bsc", Probe::new());
        let bts = net.add_node("bts", Bts::new(BtsConfig::default(), bsc));
        let ms1 = net.add_node("ms1", Probe::new());
        let ms2 = net.add_node("ms2", Probe::new());
        net.connect(ms1, bts, Interface::Um, SimDuration::from_millis(1));
        net.connect(ms2, bts, Interface::Um, SimDuration::from_millis(1));
        net.connect(bts, bsc, Interface::Abis, SimDuration::from_millis(1));
        {
            let b = net.node_mut::<Bts>(bts).unwrap();
            b.register_ms(ms1);
            b.register_ms(ms2);
        }
        let imsi = Imsi::parse("466920123456789").unwrap();
        net.inject(
            SimDuration::ZERO,
            bts,
            Message::Abis {
                conn: ConnRef::CONNECTIONLESS,
                dtap: Dtap::Paging {
                    identity: MsIdentity::Imsi(imsi),
                },
            },
        );
        // injected messages arrive on Interface::Internal; emulate Abis by a
        // sender behind the Abis link instead
        net.run_until_quiescent();
        // Internal-iface message is not an Abis message: BTS counts it odd.
        assert_eq!(net.stats().counter("bts.unexpected_message"), 1);

        // Now deliver properly via a sender on the Abis side.
        let mut net = Network::new(1);
        let sender_slot = net.add_node("bsc", Probe::new()); // placeholder BSC target
        let bts = net.add_node("bts", Bts::new(BtsConfig::default(), sender_slot));
        let ms1 = net.add_node("ms1", Probe::new());
        let ms2 = net.add_node("ms2", Probe::new());
        let pager = net.add_node(
            "pager",
            Sender {
                peer: bts,
                to_send: vec![Message::Abis {
                    conn: ConnRef::CONNECTIONLESS,
                    dtap: Dtap::Paging {
                        identity: MsIdentity::Imsi(imsi),
                    },
                }],
            },
        );
        net.connect(ms1, bts, Interface::Um, SimDuration::from_millis(1));
        net.connect(ms2, bts, Interface::Um, SimDuration::from_millis(1));
        net.connect(pager, bts, Interface::Abis, SimDuration::from_millis(1));
        {
            let b = net.node_mut::<Bts>(bts).unwrap();
            b.register_ms(ms1);
            b.register_ms(ms2);
        }
        net.run_until_quiescent();
        for ms in [ms1, ms2] {
            let got = &net.node::<Probe>(ms).unwrap().got;
            assert_eq!(got.len(), 1, "each camped MS hears the page");
            assert!(matches!(
                got[0].1,
                Message::Um(Dtap::Paging { .. })
            ));
        }
        assert_eq!(net.stats().counter("bts.pages_broadcast"), 1);
    }

    #[test]
    fn pdch_serializes_packet_traffic() {
        use vgprs_wire::{GmmMessage, QosProfile};
        let imsi = Imsi::parse("466920123456789").unwrap();
        let _ = QosProfile::signaling();
        // Two GMM messages: second must wait for the first's air time.
        let m = Message::Gmm(GmmMessage::AttachRequest { imsi });
        let (mut net, _bts, bsc, _ms) = rig_with_sender(vec![m.clone(), m]);
        net.run_until_quiescent();
        let probe = net.node::<Probe>(bsc).unwrap();
        assert_eq!(probe.got.len(), 2);
        // At 40 kbit/s a 32-byte GMM message takes 6.4 ms of air time; the
        // second message is queued behind the first.
        assert!(net.now() >= vgprs_sim::SimTime::from_micros(12_800));
    }

    #[test]
    fn downlink_after_channel_release_has_no_conn() {
        let (mut net, bts, bsc, _ms) = rig_with_sender(vec![Message::Um(lur())]);
        net.run_until_quiescent();
        let conn = net.node::<Probe>(bsc).unwrap().got[0].1.conn().unwrap();
        // Sender behind the Abis link releases, then tries to send again.
        let releaser = net.add_node(
            "rel",
            Sender {
                peer: bts,
                to_send: vec![
                    Message::Abis {
                        conn,
                        dtap: Dtap::ChannelRelease,
                    },
                    Message::Abis {
                        conn,
                        dtap: Dtap::Alerting { call: CallId(1) },
                    },
                ],
            },
        );
        net.connect(releaser, bts, Interface::Abis, SimDuration::from_millis(2));
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("bts.downlink_unknown_conn"), 1);
    }

    #[test]
    fn saturated_pdch_clips_voice_frames() {
        use vgprs_wire::GmmMessage;
        let imsi = Imsi::parse("466920123456789").unwrap();
        // A 1 bit/s PDCH never drains: each queued GMM packet deepens
        // the backlog past the clip threshold before voice arrives.
        let gmm = Message::Gmm(GmmMessage::AttachRequest { imsi });
        let voice = Message::Um(Dtap::VoiceFrame {
            call: CallId(9),
            seq: 0,
            origin_us: 0,
        });
        let mut to_send = vec![Message::Um(lur())];
        to_send.extend(std::iter::repeat_n(gmm, 8));
        to_send.push(voice);
        let (mut net, _bts, bsc, _ms) = rig_with_sender(to_send);
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("bts.pdch_voice_clipped"), 1);
        // The voice frame never reached the BSC; the LUR did.
        let probe = net.node::<Probe>(bsc).unwrap();
        assert!(probe.got.iter().all(|(_, m)| !matches!(
            m,
            Message::Abis {
                dtap: Dtap::VoiceFrame { .. },
                ..
            }
        )));
    }

    #[test]
    fn paging_flood_clips_voice_frames() {
        let imsi = Imsi::parse("466920123456789").unwrap();
        let (mut net, bts, _bsc, _ms) = rig_with_sender(vec![Message::Um(lur())]);
        net.run_until_quiescent();
        // A pager floods the common channel one page past its per-second
        // budget, all inside the first second of the run.
        let page = Message::Abis {
            conn: ConnRef::CONNECTIONLESS,
            dtap: Dtap::Paging {
                identity: MsIdentity::Imsi(imsi),
            },
        };
        let pager = net.add_node(
            "pager",
            Sender {
                peer: bts,
                to_send: vec![page; 9],
            },
        );
        net.connect(pager, bts, Interface::Abis, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("bts.pages_broadcast"), 9);
        // The next voice frame inside the flooded second is clipped.
        let talker = net.add_node(
            "talker",
            Sender {
                peer: bts,
                to_send: vec![Message::Um(Dtap::VoiceFrame {
                    call: CallId(9),
                    seq: 0,
                    origin_us: 0,
                })],
            },
        );
        net.connect(talker, bts, Interface::Um, SimDuration::from_millis(1));
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("bts.pdch_voice_clipped"), 1);
        assert!(net.now() < vgprs_sim::SimTime::from_micros(1_000_000));
    }

    #[test]
    fn cell_accessor() {
        let mut net = Network::new(0);
        let bsc = net.add_node("bsc", Probe::new());
        let bts_id = net.add_node(
            "bts",
            Bts::new(
                BtsConfig {
                    cell: CellId(7),
                    pdch_bps: 1,
                    ..BtsConfig::default()
                },
                bsc,
            ),
        );
        assert_eq!(net.node::<Bts>(bts_id).unwrap().cell(), CellId(7));
        let _ = Msisdn::parse("12345").unwrap();
    }
}
