//! The voice bridge — Figure 2(b)'s vocoder and PCU, mapping TCH frames
//! to RTP on the MS's PDP contexts and back — and the Figure 9 legs an
//! inter-MSC handover adds to it on the E interface.
//!
//! A frame that finds no leg was in flight when its call ended; it is
//! dropped uncounted. A voice train is bridged as its first frame
//! would be; it never reaches the E interface, whose trunk voice is
//! one frame per message.

use vgprs_media::Frames;
use vgprs_sim::{Context, NodeId};
use vgprs_wire::{
    CallId, CellId, Cic, ConnRef, Dtap, Imsi, IpPacket, IpPayload, Message, RtpPacket,
    TransportAddr, GSM_FRAME_BYTES, PAYLOAD_TYPE_GSM,
};

use super::{sig_nsapi, voice_nsapi, MsEntry, TargetLeg, Vmsc, MEDIA_PORT};

impl Vmsc {
    /// Anchor: the MS on `conn` reports `cell` as stronger. When that
    /// cell is another MSC's, the handover dialogue starts — and the
    /// target's side of it (`MAP_Prepare_Handover_Ack`, the end signal,
    /// trunk voice) names only the call, so the index that leads those
    /// back to this MS's row is written here. Both handsets of a
    /// mobile-to-mobile call carry one call id: the second to ask for
    /// the same target is refused rather than answered for the first.
    pub(super) fn handover_required(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        cell: CellId,
    ) {
        let row = self.row_on(conn);
        let leg = row.and_then(|e| Some((e.leg.as_deref()?.id, e.imsi)));
        if let (Some((call, imsi)), Some(target)) = (leg, self.gsm.neighbor_msc(cell)) {
            if *self.handed_over.entry((target, call)).or_insert(imsi) != imsi {
                return ctx.count("vmsc.handover_refused");
            }
        }
        self.gsm
            .start_handover(ctx, conn, cell, leg.map(|(call, _)| call));
    }

    /// Anchor: the row whose leg `target` means by `call`.
    fn handed_over_to(&mut self, target: NodeId, call: CallId) -> Option<&mut MsEntry> {
        let imsi = self.handed_over.get(&(target, call))?;
        self.ms_table.get_mut(imsi)
    }

    /// Anchor: the target is ready; order the MS over.
    pub(super) fn handover_prepared(
        &mut self,
        ctx: &mut Context<'_, Message>,
        target: NodeId,
        call: CallId,
        cic: Cic,
        ho_ref: u32,
    ) {
        let entry = self.handed_over_to(target, call);
        match entry.and_then(|e| Some((e.conn.get(), e.leg_mut(call)?))) {
            Some((conn, leg)) => {
                leg.e_leg = Some((target, cic));
                if let Some(conn) = conn {
                    self.gsm.command_handover(ctx, target, conn, ho_ref);
                }
            }
            None => Self::out_of_state(ctx),
        }
    }

    /// Anchor: the MS left for the target MSC; keep the H.323 leg and
    /// bridge it onto the inter-MSC trunk (Figure 9(b)).
    pub(super) fn handover_anchored(
        &mut self,
        ctx: &mut Context<'_, Message>,
        target: NodeId,
        call: CallId,
    ) {
        let conn = self
            .handed_over_to(target, call)
            .and_then(|e| e.conn.take());
        self.gsm.end_signal(ctx, target, call, conn);
    }

    /// Target: the MS arrived on our cell.
    pub(super) fn handover_arrival(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        ho_ref: u32,
    ) {
        if let Some(arrival) = self.gsm.handover_complete(ctx, ho_ref) {
            let leg = TargetLeg {
                conn,
                anchor: arrival.anchor,
                cic: arrival.cic,
            };
            self.visiting.insert(arrival.call, leg);
        }
    }

    /// TCH frames from the MS on `conn`: out as RTP on its row's leg,
    /// or — for a call handed over to us — onto the trunk to its anchor.
    pub(super) fn uplink_voice(
        &mut self,
        ctx: &mut Context<'_, Message>,
        conn: ConnRef,
        call: CallId,
        frames: Frames,
    ) {
        match self.gsm.imsi_of(conn) {
            Some(imsi) => self.voice_to_rtp(ctx, imsi, call, frames),
            None => {
                let leg = self.visiting.get(&call).map(|leg| (leg.anchor, leg.cic));
                if let Some((anchor, cic)) = leg.or_else(|| self.gsm.arriving(call)) {
                    ctx.send(anchor, trunk_voice(cic, call, frames));
                }
            }
        }
    }

    /// The vocoder, uplink: each TCH frame of `imsi`'s leg becomes an RTP
    /// frame on its voice context (the signaling one until that is up),
    /// a train's frames bundled in one packet.
    fn voice_to_rtp(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        call: CallId,
        frames: Frames,
    ) {
        let Some(entry) = self.ms_table.get_mut(&imsi) else {
            return;
        };
        let (nsapi, src_ip) = match entry.voice_addr.get() {
            Some(a) => (voice_nsapi(), Some(a)),
            None => (sig_nsapi(), entry.signaling_addr.get()),
        };
        let Some(leg) = entry.leg_mut(call) else {
            return;
        };
        let (Some(remote), Some(src_ip)) = (leg.remote_media, src_ip) else {
            return;
        };
        let seq = leg.rtp_seq.wrapping_add(1);
        leg.rtp_seq = leg.rtp_seq.wrapping_add(frames.count);
        let rtp = RtpPacket {
            ssrc: u32::from(seq) | 0x564D_0000, // "VM…"
            seq,
            timestamp: (frames.origin_us / 125) as u32,
            payload_type: PAYLOAD_TYPE_GSM,
            marker: frames.seq == 1,
            payload_len: GSM_FRAME_BYTES * frames.count,
            call,
            origin_us: frames.origin_us,
        };
        let src = TransportAddr::new(src_ip, MEDIA_PORT);
        let inner = Box::new(IpPacket::new(src, remote, IpPayload::Rtp(rtp)));
        ctx.send(self.sgsn, Message::Llc { imsi, nsapi, inner });
    }

    /// An RTP packet for the MS: down the radio leg, or — at the anchor
    /// after a handoff — onto the inter-MSC trunk.
    pub(super) fn downlink_voice(
        &mut self,
        ctx: &mut Context<'_, Message>,
        imsi: Imsi,
        rtp: RtpPacket,
    ) {
        let Some(entry) = self.ms_table.get(&imsi) else {
            return;
        };
        let Some(leg) = entry.leg.as_deref() else {
            return;
        };
        let call = leg.id;
        let frames = Frames {
            seq: u32::from(rtp.seq),
            count: rtp.frames(),
            origin_us: rtp.origin_us,
        };
        match (entry.conn.get(), leg.e_leg) {
            (Some(conn), _) => self.gsm.send(ctx, conn, voice_frame(call, frames)),
            (None, Some((target, cic))) => ctx.send(target, trunk_voice(cic, call, frames)),
            (None, None) => {}
        }
    }

    /// Trunk voice from the peer MSC `from` over the E interface: down to
    /// the MS of a call it handed over to us, or — at the anchor — the
    /// uplink of an MS that roamed away to it, onward as RTP.
    pub(super) fn trunk_voice(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        call: CallId,
        seq: u32,
        origin_us: u64,
    ) {
        let frames = Frames {
            seq,
            count: 1,
            origin_us,
        };
        match self.visiting.get(&call) {
            Some(leg) if leg.anchor == from => {
                self.gsm.send(ctx, leg.conn, voice_frame(call, frames))
            }
            _ => {
                if let Some(&imsi) = self.handed_over.get(&(from, call)) {
                    self.voice_to_rtp(ctx, imsi, call, frames);
                }
            }
        }
    }
}

/// `frames` of `call` as a TCH voice frame (or train) on the A interface.
fn voice_frame(call: CallId, frames: Frames) -> Dtap {
    Dtap::VoiceFrame {
        call,
        seq: frames.seq,
        origin_us: frames.origin_us,
        frames: frames.count,
    }
}

/// One frame of `call` as trunk voice on the E interface.
///
/// # Panics
///
/// Panics on a train: no horizon reaches past a handover.
fn trunk_voice(cic: Cic, call: CallId, frames: Frames) -> Message {
    assert_eq!(frames.count, 1, "a voice train reached the E interface");
    Message::TrunkVoice {
        cic,
        call,
        seq: frames.seq,
        origin_us: frames.origin_us,
    }
}
