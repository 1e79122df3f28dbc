//! The MS table's row (paper §2): what the VMSC holds per handset — the
//! MM context, the PDP contexts and the H.323 state, the call leg
//! included — and the leg of a call handed over from another MSC, whose
//! MS has no row here.

use vgprs_sim::{NodeId, SimTime};
use vgprs_wire::{CallId, Cic, ConnRef, Crv, Imsi, Ipv4Addr, Issued, Msisdn, Tmsi, TransportAddr};

/// Registration progress of one MS (paper Section 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegPhase {
    /// GSM location update running with the VLR (steps 1.1–1.2).
    GsmUpdating,
    /// GPRS attach in progress (step 1.3).
    Attaching,
    /// Signaling PDP context activating (step 1.3).
    ActivatingSignalingContext,
    /// RAS registration outstanding (steps 1.4–1.5).
    RasRegistering,
    /// Fully registered; LU accept sent (step 1.6).
    Registered,
}

/// Call progress of one MS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum CallPhase {
    /// MO: waiting for the VLR's outgoing-call authorization (step 2.2).
    MoAuthorizing,
    /// MO: waiting for the traffic channel (step 2.1 box).
    MoAssigning,
    /// MO: ARQ sent (step 2.3).
    MoAdmission,
    /// MO: Setup sent, waiting for progress (step 2.4+).
    MoProgress,
    /// MT: ARQ (answering) sent (step 4.3).
    MtAdmission,
    /// MT: paging the MS (step 4.4).
    MtPaging,
    /// MT: access + channel assignment running (step 4.5).
    MtAccess,
    /// MT: MS is ringing (step 4.6).
    MtRinging,
    /// Connected; voice context activating or active (steps 2.9 / 4.8).
    Active,
}

/// The call leg the VMSC holds for one MS: the H.323 half of the row.
/// Both handsets of a mobile-to-mobile call under one VMSC are two legs
/// with the same [`CallId`], one in each row.
#[derive(Debug)]
pub(super) struct CallLeg {
    pub(super) id: CallId,
    pub(super) phase: CallPhase,
    pub(super) crv: Crv,
    /// The gatekeeper confirmed the call (ACF): a DRQ is owed.
    pub(super) admitted: bool,
    pub(super) remote_signal: Option<TransportAddr>,
    pub(super) remote_media: Option<TransportAddr>,
    /// The other party's number: dialed (MO) or calling (MT).
    pub(super) party: Option<Msisdn>,
    pub(super) started_at: SimTime,
    pub(super) connected_at: Option<SimTime>,
    /// MT: when paging went out (for the paging-latency KPI).
    pub(super) paged_at: Option<SimTime>,
    /// When the voice PDP context was requested (for the activation KPI).
    pub(super) voice_pdp_requested_at: Option<SimTime>,
    pub(super) rtp_seq: u16,
    /// Anchor side of a handoff: the inter-MSC circuit toward the target.
    pub(super) e_leg: Option<(NodeId, Cic)>,
}

impl CallLeg {
    /// A leg in `phase` with nothing known about the far end yet.
    pub(super) fn new(id: CallId, phase: CallPhase, crv: Crv, now: SimTime) -> CallLeg {
        CallLeg {
            id,
            phase,
            crv,
            admitted: false,
            remote_signal: None,
            remote_media: None,
            party: None,
            started_at: now,
            connected_at: None,
            paged_at: None,
            voice_pdp_requested_at: None,
            rtp_seq: 0,
            e_leg: None,
        }
    }
}

/// A call handed over *to* this VMSC: its MS has no row here, only a
/// radio connection on our side and a circuit back to the anchor.
#[derive(Clone, Copy, Debug)]
pub(super) struct TargetLeg {
    pub(super) conn: ConnRef,
    pub(super) anchor: NodeId,
    pub(super) cic: Cic,
}

/// The per-MS row of the paper's "MS table" (Section 2): MM context +
/// PDP contexts + H.323 state, the call leg included. The IDs that
/// registration and calls issue are held in their niches, four bytes
/// each.
#[derive(Debug)]
pub struct MsEntry {
    /// Subscriber identity.
    pub imsi: Imsi,
    /// Dialable number; the H.323 alias (known after the VLR answers).
    pub msisdn: Option<Msisdn>,
    /// TMSI allocated by the VLR.
    pub tmsi: Issued<Tmsi>,
    /// Registration progress.
    pub phase: RegPhase,
    /// PDP address of the signaling context (step 1.3).
    pub signaling_addr: Issued<Ipv4Addr>,
    /// PDP address of the per-call voice context (steps 2.9/4.8).
    pub voice_addr: Issued<Ipv4Addr>,
    /// Current radio connection; `None` while a handoff has taken the
    /// MS to another MSC and this VMSC anchors its call.
    pub(super) conn: Issued<ConnRef>,
    /// Current call. Boxed: few rows are in a call at any time, and an
    /// idle one should not carry a leg's worth of memory.
    pub(super) leg: Option<Box<CallLeg>>,
    /// When registration started (for the latency histograms).
    pub(super) reg_started: SimTime,
}

impl MsEntry {
    /// An MS whose location update just started: no contexts, no call.
    pub(super) fn new(imsi: Imsi, conn: Option<ConnRef>, now: SimTime) -> MsEntry {
        MsEntry {
            imsi,
            msisdn: None,
            tmsi: Issued::NONE,
            phase: RegPhase::GsmUpdating,
            signaling_addr: Issued::NONE,
            voice_addr: Issued::NONE,
            conn: Issued::new(conn),
            leg: None,
            reg_started: now,
        }
    }

    /// Where the row stands, for the state-table test: its registration
    /// phase, its leg's call phase by name (the type is private to the
    /// VMSC) and its radio connection.
    #[doc(hidden)]
    pub fn state(&self) -> (RegPhase, Option<String>, Option<ConnRef>) {
        let call = self.leg.as_deref().map(|leg| format!("{:?}", leg.phase));
        (self.phase, call, self.conn.get())
    }

    /// The leg, if it is the call `id` names.
    pub(super) fn leg_mut(&mut self, id: CallId) -> Option<&mut CallLeg> {
        self.leg.as_deref_mut().filter(|leg| leg.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row holds the IDs that registration and calls issue in their
    /// niches (72 bytes with an `Option` tag beside each), and keeps a
    /// niche of its own for the number block's empty slot.
    #[test]
    fn an_ms_row_is_56_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<MsEntry>(), 56);
        assert_eq!(size_of::<Option<MsEntry>>(), 56);
    }
}
