//! What an MSC is toward the radio network and the location registers.
//!
//! The paper's VMSC "replaces the MSC and keeps its interfaces" (Figure
//! 2(a)): on A, B and E it is indistinguishable from a classic MSC, and
//! Section 7's inter-system handoff is the *standard* GSM 03.09
//! inter-MSC procedure. [`GsmSide`] is that MSC, written once and owned
//! by value by both [`GsmMsc`](crate::GsmMsc) and the VMSC: the BSC
//! registry and the page broadcast, the connection → subscriber and
//! TMSI → subscriber bindings, the two-way security relay between the
//! VLR and the MS, and GSM 03.09 in both roles. Each method hands its
//! owner back only what the owner alone can finish — building its call
//! record, setting the E-leg, naming the MS's connection.
//!
//! What a call *is* (ISUP trunks, or Q.931/RAS over PDP contexts) stays
//! with the owner, and so does the voice-frame path.

use vgprs_sim::{Context, IdMap, NodeId, NumberBlock};
use vgprs_wire::{
    CallId, CellId, Cic, ConnRef, Dtap, Imsi, Lai, MapMessage, Message, MsIdentity, Msisdn, Tmsi,
};

/// The counter names one kind of MSC reports its GSM side under. Whole
/// literals rather than a prefix (as `vgprs_h323::EndpointNames`), so a
/// `grep` for a KPI's source name finds it in the owner's file.
#[allow(missing_docs)]
#[derive(Debug)]
pub struct SideNames {
    pub registrations_started: &'static str,
    pub page_response_unknown_tmsi: &'static str,
    pub unknown_connection: &'static str,
    pub unhandled_dtap: &'static str,
    pub unhandled_map: &'static str,
    pub handover_without_imsi: &'static str,
    pub handover_without_call: &'static str,
    pub handover_unknown_cell: &'static str,
    pub handovers_started: &'static str,
    pub handover_prepared: &'static str,
    pub handover_complete_unknown_ref: &'static str,
    pub handover_target_completed: &'static str,
    pub handover_anchored: &'static str,
}

/// A handoff prepared with this MSC as target: pending until the MS
/// arrives, then handed to the owner to build its call record from.
#[derive(Clone, Copy, Debug)]
pub struct TargetArrival {
    /// The call being handed over.
    pub call: CallId,
    /// The subscriber, as the anchor named it in `MAP_Prepare_Handover`.
    pub imsi: Imsi,
    /// The anchor MSC.
    pub anchor: NodeId,
    /// The inter-MSC circuit the owner allocated.
    pub cic: Cic,
}

/// The A/B/E side of an MSC.
#[derive(Debug)]
pub struct GsmSide {
    names: &'static SideNames,
    vlr: NodeId,
    country_code: String,
    bscs: Vec<NodeId>,
    /// Neighbor MSCs (classic or VMSC) by the cells they serve.
    neighbor_cells: IdMap<CellId, NodeId>,
    conn_of_bsc: NumberBlock<ConnRef, NodeId>,
    by_conn: NumberBlock<ConnRef, Imsi>,
    by_tmsi: NumberBlock<Tmsi, Imsi>,
    /// Handoffs prepared as target, by handover reference.
    target_handoffs: IdMap<u32, TargetArrival>,
    next_ho_ref: u32,
}

impl GsmSide {
    /// The GSM side of an MSC co-located with `vlr`, serving the network
    /// whose numbers start with `country_code`.
    pub fn new(names: &'static SideNames, vlr: NodeId, country_code: &str) -> Self {
        GsmSide {
            names,
            vlr,
            country_code: country_code.to_owned(),
            bscs: Vec::new(),
            neighbor_cells: IdMap::default(),
            conn_of_bsc: NumberBlock::default(),
            by_conn: NumberBlock::default(),
            by_tmsi: NumberBlock::default(),
            target_handoffs: IdMap::default(),
            next_ho_ref: 0,
        }
    }

    /// Declares what the home population's registrations will issue —
    /// `count` connection references from `conn` and as many TMSIs from
    /// `tmsi` — a dense binding each instead of a hashed one. Declare
    /// before the first location update.
    pub fn declare_block(&mut self, conn: ConnRef, tmsi: Tmsi, count: usize) {
        self.conn_of_bsc.declare(conn, count);
        self.by_conn.declare(conn, count);
        self.by_tmsi.declare(tmsi, count);
    }

    /// Registers a subordinate BSC.
    pub fn register_bsc(&mut self, bsc: NodeId) {
        if !self.bscs.contains(&bsc) {
            self.bscs.push(bsc);
        }
    }

    /// Declares that `cell` is served by the neighboring MSC `msc`
    /// (reachable over an E-interface link).
    pub fn add_neighbor_cell(&mut self, cell: CellId, msc: NodeId) {
        self.neighbor_cells.insert(cell, msc);
    }

    /// The neighboring MSC that serves `cell`, if it is not one of ours.
    pub fn neighbor_msc(&self, cell: CellId) -> Option<NodeId> {
        self.neighbor_cells.get(&cell).copied()
    }

    /// The co-located VLR.
    pub fn vlr(&self) -> NodeId {
        self.vlr
    }

    /// Notes which BSC a connection's messages arrive through.
    #[inline]
    pub fn arrived(&mut self, conn: ConnRef, bsc: NodeId) {
        self.conn_of_bsc.insert(conn, bsc);
    }

    /// Sends `dtap` down the connection, if its BSC is known.
    #[inline]
    pub fn send(&self, ctx: &mut Context<'_, Message>, conn: ConnRef, dtap: Dtap) {
        match self.conn_of_bsc.get(&conn) {
            Some(&bsc) => ctx.send(bsc, Message::a(conn, dtap)),
            None => ctx.count_by(self.names.unknown_connection, dtap.frames().into()),
        }
    }

    /// Records that `conn` belongs to `imsi`.
    pub fn bind(&mut self, conn: ConnRef, imsi: Imsi) {
        self.by_conn.insert(conn, imsi);
    }

    /// Forgets whom `conn` belongs to.
    pub fn unbind(&mut self, conn: ConnRef) {
        self.by_conn.remove(&conn);
    }

    /// The subscriber on `conn`, once the MS or the VLR has named it.
    pub fn imsi_of(&self, conn: ConnRef) -> Option<Imsi> {
        self.by_conn.get(&conn).copied()
    }

    /// Records the TMSI the VLR allocated, so a response to a page by
    /// TMSI resolves.
    pub fn learn_tmsi(&mut self, tmsi: Option<Tmsi>, imsi: Imsi) {
        if let Some(t) = tmsi {
            self.by_tmsi.insert(t, imsi);
        }
    }

    /// Forgets a TMSI whose subscriber left.
    pub fn forget_tmsi(&mut self, tmsi: Tmsi) {
        self.by_tmsi.remove(&tmsi);
    }

    /// Total state loss (a crash): every binding and pending handoff.
    /// The BSC and neighbor registries are configuration and survive.
    pub fn reset(&mut self) {
        self.conn_of_bsc.clear();
        self.by_conn.clear();
        self.by_tmsi.clear();
        self.target_handoffs.clear();
    }

    /// Relays a location update into the VLR, learning the subscriber
    /// when the MS named itself by IMSI.
    pub fn location_update(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        identity: MsIdentity,
        lai: Lai,
    ) {
        if let MsIdentity::Imsi(imsi) = identity {
            self.bind(conn, imsi);
        }
        ctx.count(self.names.registrations_started);
        let update = MapMessage::UpdateLocationArea {
            conn,
            identity,
            lai,
        };
        ctx.send(self.vlr, Message::Map(update));
    }

    /// Asks the VLR to admit the MS on `conn` (authentication and
    /// ciphering follow through [`relay_down`](Self::relay_down)).
    pub fn request_access(
        &self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        identity: MsIdentity,
    ) {
        let request = MapMessage::ProcessAccessRequest { conn, identity };
        ctx.send(self.vlr, Message::Map(request));
    }

    /// Asks the VLR to authorize an outgoing call to `called`.
    pub fn authorize_outgoing(
        &self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        imsi: Imsi,
        called: Msisdn,
    ) {
        let request = MapMessage::SendInfoForOutgoingCall {
            conn,
            imsi,
            called,
            international: !called.has_country_code(&self.country_code),
        };
        ctx.send(self.vlr, Message::Map(request));
    }

    /// Broadcasts a page through every BSC — by TMSI when the owner
    /// passes one: the IMSI should not hit the air interface (GSM 03.20).
    pub fn page(&self, ctx: &mut Context<'_, Message>, imsi: Imsi, tmsi: Option<Tmsi>) {
        let identity = tmsi.map_or(MsIdentity::Imsi(imsi), MsIdentity::Tmsi);
        for &bsc in &self.bscs {
            ctx.send(
                bsc,
                Message::a(ConnRef::CONNECTIONLESS, Dtap::Paging { identity }),
            );
        }
    }

    /// The subscriber answering a page, whichever identity it was paged
    /// (and therefore answers) by.
    pub fn paged_subscriber(
        &self,
        ctx: &mut Context<'_, Message>,
        identity: MsIdentity,
    ) -> Option<Imsi> {
        match identity {
            MsIdentity::Imsi(imsi) => Some(imsi),
            MsIdentity::Tmsi(t) => {
                let imsi = self.by_tmsi.get(&t).copied();
                if imsi.is_none() {
                    ctx.count(self.names.page_response_unknown_tmsi);
                }
                imsi
            }
        }
    }

    /// The uplink half of the security relay: an authentication or
    /// ciphering answer goes to the VLR under the subscriber the VLR
    /// named for the connection. One that arrives before the VLR named
    /// anybody, like anything else, is a message nobody had an arm for.
    pub fn relay_up(&self, ctx: &mut Context<'_, Message>, conn: ConnRef, dtap: Dtap) {
        let ack = match (self.imsi_of(conn), dtap) {
            (Some(imsi), Dtap::AuthenticationResponse { sres }) => {
                MapMessage::AuthenticateAck { conn, imsi, sres }
            }
            (Some(imsi), Dtap::CipherModeComplete) => MapMessage::StartCipheringAck { conn, imsi },
            _ => return ctx.count(self.names.unhandled_dtap),
        };
        ctx.send(self.vlr, Message::Map(ack));
    }

    /// The downlink half of the security relay: the VLR's challenge or
    /// ciphering order goes to the MS, and names the connection's
    /// subscriber on the way. Anything else is a message the owner had
    /// no arm for.
    pub fn relay_down(&mut self, ctx: &mut Context<'_, Message>, msg: MapMessage) {
        let (conn, imsi, dtap) = match msg {
            MapMessage::Authenticate { conn, imsi, rand } => {
                (conn, imsi, Dtap::AuthenticationRequest { rand })
            }
            MapMessage::StartCiphering { conn, imsi } => (conn, imsi, Dtap::CipherModeCommand),
            _ => return ctx.count(self.names.unhandled_map),
        };
        self.bind(conn, imsi);
        self.send(ctx, conn, dtap);
    }

    // ----------------------------------------------------------------
    // GSM 03.09 inter-MSC handover
    // ----------------------------------------------------------------

    /// Anchor: the MS on `conn` reports `cell` as stronger. `call` is the
    /// call the owner holds for that connection.
    pub fn start_handover(
        &self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        cell: CellId,
        call: Option<CallId>,
    ) {
        let Some(imsi) = self.imsi_of(conn) else {
            return ctx.count(self.names.handover_without_imsi);
        };
        let Some(call) = call else {
            return ctx.count(self.names.handover_without_call);
        };
        let Some(target) = self.neighbor_msc(cell) else {
            return ctx.count(self.names.handover_unknown_cell);
        };
        ctx.count(self.names.handovers_started);
        let prepare = MapMessage::PrepareHandover { call, imsi, cell };
        ctx.send(target, Message::Map(prepare));
    }

    /// Target: `anchor` asks for a radio channel and a circuit; `cic` is
    /// the circuit the owner allocated for the E-leg.
    pub fn prepare_handover(
        &mut self,
        ctx: &mut Context<'_, Message>,
        anchor: NodeId,
        call: CallId,
        imsi: Imsi,
        cic: Cic,
    ) {
        self.next_ho_ref += 1;
        let ho_ref = self.next_ho_ref;
        let pending = TargetArrival {
            call,
            imsi,
            anchor,
            cic,
        };
        self.target_handoffs.insert(ho_ref, pending);
        ctx.count(self.names.handover_prepared);
        let ack = MapMessage::PrepareHandoverAck { call, cic, ho_ref };
        ctx.send(anchor, Message::Map(ack));
    }

    /// Anchor: `target` is ready; order the MS over on its current
    /// connection. The command names the target's cell so the MS can
    /// pick its neighbor link.
    pub fn command_handover(
        &self,
        ctx: &mut Context<'_, Message>,
        target: NodeId,
        conn: ConnRef,
        ho_ref: u32,
    ) {
        let cell = self
            .neighbor_cells
            .iter()
            .find(|(_, &n)| n == target)
            .map_or(CellId(0), |(c, _)| *c);
        self.send(ctx, conn, Dtap::HandoverCommand { cell, ho_ref });
    }

    /// Target: the MS arrived on our cell. Tells the anchor and returns
    /// the prepared handoff for the owner to build its call from.
    pub fn handover_complete(
        &mut self,
        ctx: &mut Context<'_, Message>,
        ho_ref: u32,
    ) -> Option<TargetArrival> {
        let Some(arrival) = self.target_handoffs.remove(&ho_ref) else {
            ctx.count(self.names.handover_complete_unknown_ref);
            return None;
        };
        ctx.count(self.names.handover_target_completed);
        let end = MapMessage::SendEndSignal { call: arrival.call };
        ctx.send(arrival.anchor, Message::Map(end));
        Some(arrival)
    }

    /// Target: the anchor and circuit of a call prepared but not yet
    /// arrived. The circuit is through-connected from the moment it
    /// exists: the first frames on the new channel may reach the owner
    /// ahead of the MS's Handover Complete.
    pub fn arriving(&self, call: CallId) -> Option<(NodeId, Cic)> {
        let pending = self.target_handoffs.values().find(|a| a.call == call)?;
        Some((pending.anchor, pending.cic))
    }

    /// Anchor: the MS is on `target` now. Releases `conn`, the radio
    /// connection the owner took from the MS, and closes the dialogue;
    /// the owner keeps bridging its far leg onto the E-leg (Figure 9(b)).
    pub fn end_signal(
        &mut self,
        ctx: &mut Context<'_, Message>,
        target: NodeId,
        call: CallId,
        conn: Option<ConnRef>,
    ) {
        if let Some(conn) = conn {
            self.unbind(conn);
            self.send(ctx, conn, Dtap::ChannelRelease);
        }
        ctx.count(self.names.handover_anchored);
        let ack = MapMessage::SendEndSignalAck { call };
        ctx.send(target, Message::Map(ack));
    }
}
