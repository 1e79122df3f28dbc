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

use vgprs_media::VoiceSource;
use vgprs_sim::{
    Context, IdMap, Interface, Node, NodeId, NumberBlock, Payload, SimDuration, SimTime,
};
use vgprs_wire::{CellId, ConnRef, Dtap, Imsi, Message};

/// Timer tag: the PDCH finished serializing the head-of-line packet.
const TIMER_PDCH_DONE: u64 = 1;

/// The connections a cell can open: a reference's lower half counts
/// them, and 0 would be the connectionless reference.
const MAX_CONNECTIONS: u32 = 0xFFFF;

/// Voice frames are clipped while the shared PDCH backlog is at or
/// beyond this many queued packets. vGPRS speech shares the cell with the
/// packet service, so a saturated PDCH pool bleeds into in-call quality
/// instead of staying invisible to voice — the Section 6 contention
/// argument, made measurable.
const VOICE_CLIP_BACKLOG: usize = 8;

/// Paging blocks per second the cell's common channel can carry. A
/// paging flood beyond this budget steals the shared timeslots from the
/// speech path for the rest of that second (a second of simulated time,
/// counted from zero), clipping in-call voice frames — the media-plane
/// cost of an unthrottled MT storm.
pub const PCH_PAGES_PER_S: u32 = 8;

/// Configuration for a [`Bts`].
#[derive(Clone, Copy, Debug)]
pub struct BtsConfig {
    /// The cell this BTS radiates.
    pub cell: CellId,
    /// Shared packet-channel capacity in bits per second (all packet MSs
    /// in the cell contend for this). GPRS CS-2 with 3 PDCHs ≈ 40 kbit/s.
    pub pdch_bps: u64,
}

impl Default for BtsConfig {
    fn default() -> Self {
        BtsConfig {
            cell: CellId(1),
            pdch_bps: 40_000,
        }
    }
}

/// The BTS node.
#[derive(Debug)]
pub struct Bts {
    config: BtsConfig,
    bsc: NodeId,
    conn_to_ms: NumberBlock<ConnRef, NodeId>,
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
    /// When the last frame of a voice train that crossed the cell
    /// passes it: the cell must not start clipping before then.
    trains_until: SimTime,
}

impl Bts {
    /// Creates a BTS homed on the given BSC.
    pub fn new(config: BtsConfig, bsc: NodeId) -> Self {
        Bts {
            config,
            bsc,
            conn_to_ms: NumberBlock::default(),
            ms_to_conn: IdMap::default(),
            packet_ms: IdMap::default(),
            next_conn: 0,
            pdch_queue: VecDeque::new(),
            pdch_busy: false,
            page_window: 0,
            pages_in_window: 0,
            trains_until: SimTime::ZERO,
        }
    }

    /// The cell this BTS serves.
    pub fn cell(&self) -> CellId {
        self.config.cell
    }

    /// The `n`th reference the BTS `id` issues. Upper half = BTS node
    /// index, lower half = local counter: globally unique without
    /// coordination, and never 0 (the connectionless ref).
    fn conn_ref(id: NodeId, n: u32) -> ConnRef {
        ConnRef((u32::from(id.index() as u16) << 16) | n)
    }

    /// Declares that the next `count` connections this BTS (node `id`)
    /// opens — one per registration of the home population — get a
    /// dense row each instead of a hashed one, and returns the first of
    /// their references. Declare before the first connection.
    pub fn declare_block(&mut self, id: NodeId, count: usize) -> ConnRef {
        let first = Self::conn_ref(id, self.next_conn + 1);
        self.conn_to_ms.declare(first, count);
        first
    }

    /// Opens a radio connection for `ms`, as a transaction it starts
    /// does (a location update, Figure 4 step 1.1, among them), and
    /// returns its reference.
    ///
    /// # Panics
    ///
    /// Panics when the cell has opened all 65 535 connections its
    /// references can count: the next would alias a live one, or another
    /// cell's.
    pub fn open_connection(&mut self, ctx: &Context<'_, Message>, ms: NodeId) -> ConnRef {
        assert!(
            self.next_conn < MAX_CONNECTIONS,
            "{} has opened all {MAX_CONNECTIONS} connections its references can count",
            self.config.cell
        );
        self.next_conn += 1;
        let conn = Self::conn_ref(ctx.id(), self.next_conn);
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
        if self.pdch_queue.len() == VOICE_CLIP_BACKLOG {
            self.clipping_starts(ctx.now());
        }
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
        let pdch_backlogged = self.pdch_queue.len() >= VOICE_CLIP_BACKLOG;
        let paging_flood =
            now_ms / 1_000 == self.page_window && self.pages_in_window > PCH_PAGES_PER_S;
        pdch_backlogged || paging_flood
    }

    /// Accounts one paging broadcast against the cell's per-second
    /// common-channel budget.
    fn note_page(&mut self, now: SimTime) {
        let window = now.as_millis() / 1_000;
        if window != self.page_window {
            self.page_window = window;
            self.pages_in_window = 0;
        }
        self.pages_in_window += 1;
        if self.pages_in_window == PCH_PAGES_PER_S + 1 {
            self.clipping_starts(now);
        }
    }

    /// Passes `dtap` on the voice path: a clipped frame is counted and
    /// `false` returned; a train that crosses is remembered until its
    /// last frame has passed.
    ///
    /// # Panics
    ///
    /// Panics when a train meets a clipping cell: whoever promised its
    /// horizon did not foresee the clip.
    fn voice_passes(&mut self, ctx: &mut Context<'_, Message>, dtap: &Dtap) -> bool {
        if self.clips_voice(ctx.now().as_millis(), dtap) {
            assert_eq!(dtap.frames(), 1, "a voice train met a clipping cell");
            ctx.count("bts.pdch_voice_clipped");
            return false;
        }
        if let Dtap::VoiceFrame { frames, .. } = *dtap {
            if frames > 1 {
                let last = ctx.now() + VoiceSource::FRAME_INTERVAL * u64::from(frames - 1);
                self.trains_until = self.trains_until.max(last);
            }
        }
        true
    }

    /// The cell starts clipping voice at `now`.
    ///
    /// # Panics
    ///
    /// Panics when a train that crossed the cell still has frames to
    /// pass: they would have been clipped.
    fn clipping_starts(&self, now: SimTime) {
        assert!(
            self.trains_until < now,
            "{} starts clipping at {now:?} under a voice train passing until {:?}",
            self.config.cell,
            self.trains_until
        );
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
                if !self.voice_passes(ctx, &dtap) {
                    return;
                }
                let conn = if Self::starts_transaction(&dtap) {
                    self.open_connection(ctx, from)
                } else {
                    match self.ms_to_conn.get(&from) {
                        Some(c) => *c,
                        None => {
                            ctx.count_by("bts.uplink_without_conn", dtap.frames().into());
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
                    // Paging broadcast: every handset with a Um link to the
                    // cell hears the PCH, and the block is charged against
                    // the common-channel budget. One event for the cell;
                    // only the handsets it concerns are woken.
                    self.note_page(ctx.now());
                    ctx.broadcast(Interface::Um, Message::Um(dtap));
                    ctx.count("bts.pages_broadcast");
                    return;
                }
                let Some(&ms) = self.conn_to_ms.get(&conn) else {
                    ctx.count_by("bts.downlink_unknown_conn", dtap.frames().into());
                    return;
                };
                if !self.voice_passes(ctx, &dtap) {
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
    use crate::{MobileStation, MsConfig};
    use vgprs_sim::{Network, ScriptedPeer};
    use vgprs_wire::{CallId, Lai, MsIdentity, Tmsi};

    fn lur() -> Dtap {
        Dtap::LocationUpdateRequest {
            identity: MsIdentity::Tmsi(Tmsi(5)),
            lai: Lai::new(466, 92, 1),
        }
    }

    /// Drives the BTS directly by placing a sender node behind the Um link.
    fn rig_with_sender(msgs: Vec<Message>) -> (Network<Message>, NodeId, NodeId, NodeId) {
        let mut net = Network::new(1);
        let bsc = net.add_node("bsc", ScriptedPeer::new());
        let bts = net.add_node("bts", Bts::new(BtsConfig::default(), bsc));
        let ms = net.add_node("ms", ScriptedPeer::sending(bts, msgs));
        net.connect(ms, bts, Interface::Um, SimDuration::from_millis(1));
        net.connect(bts, bsc, Interface::Abis, SimDuration::from_millis(1));
        (net, bts, bsc, ms)
    }

    /// What the BSC side heard.
    fn uplink(net: &Network<Message>, bsc: NodeId) -> Vec<&Message> {
        ScriptedPeer::of(net, bsc).received()
    }

    /// Adds a peer sending `msgs` to the BTS over `iface` after
    /// `latency_ms`, and runs.
    fn send(
        net: &mut Network<Message>,
        bts: NodeId,
        (iface, latency_ms): (Interface, u64),
        msgs: Vec<Message>,
    ) {
        let peer = net.add_node("peer", ScriptedPeer::sending(bts, msgs));
        net.connect(peer, bts, iface, SimDuration::from_millis(latency_ms));
        net.run_until_quiescent();
    }

    fn page(imsi: Imsi) -> Message {
        page_for(MsIdentity::Imsi(imsi))
    }

    fn page_for(identity: MsIdentity) -> Message {
        Message::Abis {
            conn: ConnRef::CONNECTIONLESS,
            dtap: Dtap::Paging { identity },
        }
    }

    /// A reference counts from 1 in its cell's low half, so none is 0,
    /// the connectionless reference: the niche where the VMSC's MS
    /// table holds no connection.
    #[test]
    fn no_connection_reference_is_the_niche() {
        let mut net = Network::<Message>::new(1);
        let first = net.add_node("bts", ScriptedPeer::new());
        for n in [1, 2, MAX_CONNECTIONS] {
            assert!(!Bts::conn_ref(first, n).is_connectionless(), "reference {n}");
        }
    }

    #[test]
    fn transaction_start_gets_fresh_conn() {
        let (mut net, _bts, bsc, _ms) = rig_with_sender(vec![Message::Um(lur())]);
        net.run_until_quiescent();
        match uplink(&net, bsc)[..] {
            [Message::Abis { conn, dtap }] => {
                assert!(!conn.is_connectionless());
                assert_eq!(dtap.name(false), "Location_Update");
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mid_transaction_uplink_reuses_conn() {
        let (mut net, _bts, bsc, _ms) = rig_with_sender(vec![
            Message::Um(lur()),
            Message::Um(Dtap::AuthenticationResponse { sres: 9 }),
        ]);
        net.run_until_quiescent();
        let got = uplink(&net, bsc);
        assert_eq!(got.len(), 2);
        let c0 = got[0].conn().unwrap();
        let c1 = got[1].conn().unwrap();
        assert_eq!(c0, c1);
    }

    #[test]
    fn uplink_without_transaction_dropped() {
        let (mut net, _bts, bsc, _ms) =
            rig_with_sender(vec![Message::Um(Dtap::AuthenticationResponse { sres: 9 })]);
        net.run_until_quiescent();
        assert!(uplink(&net, bsc).is_empty());
        assert_eq!(net.stats().counter("bts.uplink_without_conn"), 1);
    }

    /// A BTS with two camped handsets and a BSC peer.
    fn camped_cell() -> (Network<Message>, NodeId, [NodeId; 2]) {
        let mut net = Network::new(1);
        let bsc = net.add_node("bsc", ScriptedPeer::new());
        let bts = net.add_node("bts", Bts::new(BtsConfig::default(), bsc));
        let ms1 = net.add_node("ms1", ScriptedPeer::new());
        let ms2 = net.add_node("ms2", ScriptedPeer::new());
        net.connect(ms1, bts, Interface::Um, SimDuration::from_millis(1));
        net.connect(ms2, bts, Interface::Um, SimDuration::from_millis(1));
        (net, bts, [ms1, ms2])
    }

    #[test]
    fn paging_broadcast_reaches_all_camped_ms() {
        let imsi = Imsi::parse("466920123456789").unwrap();
        let (mut net, bts, _) = camped_cell();
        net.inject(SimDuration::ZERO, bts, page(imsi));
        // injected messages arrive on Interface::Internal; emulate Abis by a
        // sender behind the Abis link instead
        net.run_until_quiescent();
        // Internal-iface message is not an Abis message: BTS counts it odd.
        assert_eq!(net.stats().counter("bts.unexpected_message"), 1);

        // Now deliver properly via a sender on the Abis side.
        let (mut net, bts, camped) = camped_cell();
        send(&mut net, bts, (Interface::Abis, 1), vec![page(imsi)]);
        for ms in camped {
            let got = ScriptedPeer::of(&net, ms).received();
            assert_eq!(got.len(), 1, "each camped MS hears the page");
            assert!(matches!(got[0], Message::Um(Dtap::Paging { .. })));
        }
        assert_eq!(net.stats().counter("bts.pages_broadcast"), 1);
    }

    /// A BSC peer that accepts every location update with the next
    /// TMSI (1, 2, …) and plays `pages` to the BTS built after it, and a
    /// cell on it with `n` handsets camped, switched off, IMSIs
    /// 466920000000001 on.
    fn handsets_on_a_cell(
        pages: Vec<(u64, Message)>,
        n: u64,
    ) -> (Network<Message>, [NodeId; 2], Vec<NodeId>) {
        let mut net = Network::new(1);
        let mut issued = 0;
        let accept = move |m: &Message| match m {
            Message::Abis {
                conn,
                dtap: Dtap::LocationUpdateRequest { .. },
            } => {
                issued += 1;
                let tmsi = Some(Tmsi(issued));
                vec![Message::abis(*conn, Dtap::LocationUpdateAccept { tmsi })]
            }
            _ => Vec::new(),
        };
        let script = pages
            .into_iter()
            .fold(ScriptedPeer::new(), |peer, (ms, page)| {
                peer.at(SimDuration::from_millis(ms), page)
            });
        let bsc = net.add_node("bsc", script.answering(accept));
        let bts = net.add_node("bts", Bts::new(BtsConfig::default(), bsc));
        net.connect(bts, bsc, Interface::Abis, SimDuration::from_millis(1));
        net.node_mut::<ScriptedPeer<Message>>(bsc)
            .unwrap()
            .set_target(bts);
        let handsets = (1..=n)
            .map(|i| {
                let imsi = Imsi::parse(&format!("46692{i:010}")).unwrap();
                let lai = Lai::new(466, 92, 1);
                let config = MsConfig { imsi, ki: 0xABCD, lai };
                let ms = net.add_node(format_args!("ms{i}"), MobileStation::new(config, bts));
                net.connect(ms, bts, Interface::Um, SimDuration::from_millis(1));
                ms
            })
            .collect();
        (net, [bsc, bts], handsets)
    }

    #[test]
    fn a_handset_that_reselected_still_hears_its_old_cells_page() {
        let nobody = Imsi::parse("466920999999999").unwrap();
        let (mut net, _, handsets) =
            handsets_on_a_cell(vec![(100, page_for(MsIdentity::Imsi(nobody)))], 2);
        let bsc = net.add_node("bsc2", ScriptedPeer::new());
        let new = net.add_node(
            "bts2",
            Bts::new(
                BtsConfig {
                    cell: CellId(2),
                    ..BtsConfig::default()
                },
                bsc,
            ),
        );
        let moved = handsets[1];
        net.connect(moved, new, Interface::Um, SimDuration::from_millis(1));
        net.node_mut::<MobileStation>(moved)
            .unwrap()
            .add_neighbor(CellId(2), new);
        net.inject(
            SimDuration::ZERO,
            moved,
            Message::Cmd(vgprs_wire::Command::MoveToCell { cell: CellId(2) }),
        );
        net.run_until_quiescent();
        // The handset still on the cell is not asked; the one tuned to
        // the new cell is, hears the page, and drops it as stale.
        let fan = net.fan_out();
        assert_eq!((fan.listeners, fan.asked, fan.heard), (2, 1, 1));
        assert_eq!(net.stats().counter("ms.ignored_stale_cell"), 1);
        assert_eq!(net.stats().counter("bts.pages_broadcast"), 1);
        assert!(ScriptedPeer::of(&net, bsc).received().is_empty());
    }

    #[test]
    fn after_tmsi_reallocation_only_the_new_tmsi_is_heard() {
        let pages = [1, 2].map(|t| (100 + 100 * t, page_for(MsIdentity::Tmsi(Tmsi(t as u32)))));
        let (mut net, [bsc, _], handsets) = handsets_on_a_cell(pages.into(), 3);
        let ms = handsets[0];
        // Registers as TMSI 1 and, switched off and on again at 50 ms,
        // re-registers and is given TMSI 2.
        use vgprs_wire::Command::{PowerOff, PowerOn};
        for (at_ms, cmd) in [(0, PowerOn), (50, PowerOff), (51, PowerOn)] {
            net.inject(SimDuration::from_millis(at_ms), ms, Message::Cmd(cmd));
        }
        net.run_until_quiescent();
        assert_eq!(net.node::<MobileStation>(ms).unwrap().tmsi(), Some(Tmsi(2)));
        // The page by the old TMSI wakes nobody; the new one wakes the
        // handset, which answers it.
        let fan = net.fan_out();
        assert_eq!(
            (fan.broadcasts, fan.listeners, fan.asked, fan.heard),
            (2, 6, 1, 1)
        );
        let responses: Vec<&Message> = ScriptedPeer::of(&net, bsc)
            .received()
            .into_iter()
            .filter(|m| matches!(m.dtap(), Some(Dtap::PagingResponse { .. })))
            .collect();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].dtap(),
            Some(Dtap::PagingResponse {
                identity: MsIdentity::Tmsi(Tmsi(2))
            })
        ));
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
        assert_eq!(uplink(&net, bsc).len(), 2);
        // At 40 kbit/s a 32-byte GMM message takes 6.4 ms of air time; the
        // second message is queued behind the first.
        assert!(net.now() >= vgprs_sim::SimTime::from_micros(12_800));
    }

    #[test]
    fn downlink_after_channel_release_has_no_conn() {
        let (mut net, bts, bsc, _ms) = rig_with_sender(vec![Message::Um(lur())]);
        net.run_until_quiescent();
        let conn = uplink(&net, bsc)[0].conn().unwrap();
        // A peer behind the Abis link releases, then tries to send again.
        let release = Dtap::ChannelRelease;
        let alert = Dtap::Alerting { call: CallId(1) };
        let msgs = [release, alert].map(|dtap| Message::Abis { conn, dtap });
        send(&mut net, bts, (Interface::Abis, 2), msgs.into());
        assert_eq!(net.stats().counter("bts.downlink_unknown_conn"), 1);
    }

    fn voice() -> Message {
        Message::Um(Dtap::VoiceFrame {
            call: CallId(9),
            seq: 0,
            origin_us: 0,
            frames: 1,
        })
    }

    #[test]
    fn saturated_pdch_clips_voice_frames() {
        use vgprs_wire::GmmMessage;
        let imsi = Imsi::parse("466920123456789").unwrap();
        // A 1 bit/s PDCH never drains: each queued GMM packet deepens
        // the backlog past the clip threshold before voice arrives.
        let gmm = Message::Gmm(GmmMessage::AttachRequest { imsi });
        let mut to_send = vec![Message::Um(lur())];
        to_send.extend(std::iter::repeat_n(gmm, 8));
        to_send.push(voice());
        let (mut net, _bts, bsc, _ms) = rig_with_sender(to_send);
        net.run_until_quiescent();
        assert_eq!(net.stats().counter("bts.pdch_voice_clipped"), 1);
        // The voice frame never reached the BSC; the LUR did.
        assert!(uplink(&net, bsc).iter().all(|m| !matches!(
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
        send(&mut net, bts, (Interface::Abis, 1), vec![page(imsi); 9]);
        assert_eq!(net.stats().counter("bts.pages_broadcast"), 9);
        // The next voice frame inside the flooded second is clipped.
        send(&mut net, bts, (Interface::Um, 1), vec![voice()]);
        assert_eq!(net.stats().counter("bts.pdch_voice_clipped"), 1);
        assert!(net.now() < vgprs_sim::SimTime::from_micros(1_000_000));
    }

    #[test]
    #[should_panic(expected = "cell1 has opened all 65535 connections")]
    fn a_cell_out_of_connection_references_says_so() {
        let (mut net, bts, _bsc, ms) = rig_with_sender(Vec::new());
        let mut open = || {
            net.provision(bts, vgprs_sim::SimTime::ZERO, |b: &mut Bts, ctx| {
                b.open_connection(ctx, ms)
            })
        };
        let issued: Vec<ConnRef> = (0..MAX_CONNECTIONS).map(|_| open()).collect();
        // Every reference is the cell's own, and none is issued twice.
        assert!(issued.iter().all(|c| c.0 >> 16 == bts.index()));
        assert!(issued.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(issued.last().map(|c| c.0 & 0xFFFF), Some(MAX_CONNECTIONS));
        open();
    }

    #[test]
    fn cell_accessor() {
        let mut net = Network::new(0);
        let bsc = net.add_node("bsc", ScriptedPeer::new());
        let bts_id = net.add_node(
            "bts",
            Bts::new(
                BtsConfig {
                    cell: CellId(7),
                    pdch_bps: 1,
                },
                bsc,
            ),
        );
        assert_eq!(net.node::<Bts>(bts_id).unwrap().cell(), CellId(7));
    }
}
