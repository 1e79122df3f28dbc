//! GSM call-control and mobility-management signaling content.
//!
//! The same semantic payloads travel the air interface (Um, GSM 04.08),
//! the BTS–BSC link (Abis) and the BSC–MSC link (A); the relay elements
//! re-wrap them. [`Dtap`] is that shared content; the `Message` union in
//! [`crate::message`] wraps it per interface so trace labels carry the
//! paper's `Um_` / `Abis_` / `A_` prefixes.


use crate::cause::Cause;
use crate::ids::{CallId, CellId, Lai, MsIdentity, Msisdn, Tmsi};

/// GSM 04.08 direct-transfer signaling content.
#[derive(Clone, Debug, PartialEq)]
pub enum Dtap {
    /// MS requests registration in a location area (paper step 1.1).
    LocationUpdateRequest {
        /// IMSI on first contact, TMSI afterwards.
        identity: MsIdentity,
        /// The location area the MS observed on its broadcast channel.
        lai: Lai,
    },
    /// Network accepts the location update (paper step 1.6).
    LocationUpdateAccept {
        /// Fresh TMSI allocated by the VLR, if any.
        tmsi: Option<Tmsi>,
    },
    /// Network rejects the location update.
    LocationUpdateReject {
        /// Why registration failed.
        cause: Cause,
    },
    /// Authentication challenge toward the MS (GSM 04.08 §4.3.2).
    AuthenticationRequest {
        /// Random challenge from the subscriber's auth triplet.
        rand: u64,
    },
    /// MS answer to the challenge.
    AuthenticationResponse {
        /// Signed response computed by the SIM.
        sres: u32,
    },
    /// Orders the MS to start ciphering with the established Kc.
    CipherModeCommand,
    /// MS confirms ciphering is active.
    CipherModeComplete,
    /// MS requests service (call origination) — GSM 04.08 CM Service
    /// Request, the first message of the paper's step 2.1 box.
    CmServiceRequest {
        /// Requesting identity.
        identity: MsIdentity,
    },
    /// Network grants the service request.
    CmServiceAccept,
    /// Network denies the service request.
    CmServiceReject {
        /// Why.
        cause: Cause,
    },
    /// Assigns a traffic channel for a call (GSM 04.08 §3.4.3).
    ChannelAssignment {
        /// The serving cell granting the channel.
        cell: CellId,
    },
    /// MS confirms it moved to the assigned traffic channel.
    ChannelAssignmentComplete,
    /// No traffic channel could be allocated (cell congestion).
    ChannelAssignmentFailure {
        /// Why.
        cause: Cause,
    },
    /// Releases the radio channel after call clearing.
    ChannelRelease,
    /// MS reports a stronger neighboring cell (triggers handoff).
    MeasurementReport {
        /// The better cell.
        cell: CellId,
    },
    /// BSC asks the MSC to hand the call off to another cell (BSSMAP
    /// Handover Required; the MSC resolves the affected call from the
    /// connection reference).
    HandoverRequired {
        /// Target cell.
        cell: CellId,
    },
    /// Call origination: the dialed digits (paper step 2.1).
    Setup {
        /// Scenario-level call correlation id.
        call: CallId,
        /// Dialed number.
        called: Msisdn,
    },
    /// The network has enough routing information (Q.931 alignment).
    CallProceeding {
        /// Call correlation id.
        call: CallId,
    },
    /// The remote party is being alerted; triggers ringback (step 2.7).
    Alerting {
        /// Call correlation id.
        call: CallId,
    },
    /// The remote party answered (step 2.8).
    Connect {
        /// Call correlation id.
        call: CallId,
    },
    /// Acknowledges the connect.
    ConnectAck {
        /// Call correlation id.
        call: CallId,
    },
    /// Party-initiated call clearing (paper step 3.1).
    Disconnect {
        /// Call correlation id.
        call: CallId,
        /// Clearing cause.
        cause: Cause,
    },
    /// Network continues clearing.
    Release {
        /// Call correlation id.
        call: CallId,
    },
    /// Clearing complete.
    ReleaseComplete {
        /// Call correlation id.
        call: CallId,
    },
    /// Network pages the MS for an incoming call (paper step 4.4).
    Paging {
        /// Identity broadcast in the paging channel.
        identity: MsIdentity,
    },
    /// MS responds to paging (paper step 4.5).
    PagingResponse {
        /// The identity the MS answered with.
        identity: MsIdentity,
    },
    /// Incoming-call setup toward the MS (network side, step 4.5).
    MtSetup {
        /// Call correlation id.
        call: CallId,
        /// The calling party, when presentable.
        calling: Option<Msisdn>,
    },
    /// Orders the MS to a new cell during handoff (paper §7).
    HandoverCommand {
        /// Target cell.
        cell: CellId,
        /// Handover reference allocated by the target MSC.
        ho_ref: u32,
    },
    /// MS completed the handoff on the target cell (sent via the *new*
    /// BTS/BSC, carrying the reference so the target MSC can correlate).
    HandoverComplete {
        /// Echoed handover reference.
        ho_ref: u32,
    },
    /// One 20 ms vocoder frame on the circuit-switched path, or a train
    /// of `frames` of them: consecutive frames of one call, each 20 ms
    /// after the one before, sent as one message because nothing can
    /// change their fate between them.
    ///
    /// Not traced (media, not signaling); carries its origination time so
    /// the media experiments can measure mouth-to-ear delay.
    VoiceFrame {
        /// Call correlation id.
        call: CallId,
        /// Sequence number of the (first) frame.
        seq: u32,
        /// Origination timestamp of the (first) frame (simulated
        /// microseconds).
        origin_us: u64,
        /// How many frames the message stands for: 1, or a train's
        /// length.
        frames: u16,
    },
}

impl Dtap {
    /// Stable message name used to build trace labels.
    ///
    /// `on_um` selects the paper's air-interface naming where it differs
    /// from the network-side naming (`Um_Location_Update_Request` vs
    /// `A_Location_Update`).
    pub fn name(&self, on_um: bool) -> &'static str {
        match self {
            Dtap::LocationUpdateRequest { .. } => {
                if on_um {
                    "Location_Update_Request"
                } else {
                    "Location_Update"
                }
            }
            Dtap::LocationUpdateAccept { .. } => "Location_Update_Accept",
            Dtap::LocationUpdateReject { .. } => "Location_Update_Reject",
            Dtap::AuthenticationRequest { .. } => "Authentication_Request",
            Dtap::AuthenticationResponse { .. } => "Authentication_Response",
            Dtap::CipherModeCommand => "Cipher_Mode_Command",
            Dtap::CipherModeComplete => "Cipher_Mode_Complete",
            Dtap::CmServiceRequest { .. } => "CM_Service_Request",
            Dtap::CmServiceAccept => "CM_Service_Accept",
            Dtap::CmServiceReject { .. } => "CM_Service_Reject",
            Dtap::ChannelAssignment { .. } => "Channel_Assignment",
            Dtap::ChannelAssignmentComplete => "Channel_Assignment_Complete",
            Dtap::ChannelAssignmentFailure { .. } => "Channel_Assignment_Failure",
            Dtap::ChannelRelease => "Channel_Release",
            Dtap::MeasurementReport { .. } => "Measurement_Report",
            Dtap::HandoverRequired { .. } => "Handover_Required",
            Dtap::Setup { .. } => "Setup",
            Dtap::CallProceeding { .. } => "Call_Proceeding",
            Dtap::Alerting { .. } => "Alerting",
            Dtap::Connect { .. } => "Connect",
            Dtap::ConnectAck { .. } => "Connect_Ack",
            Dtap::Disconnect { .. } => "Disconnect",
            Dtap::Release { .. } => "Release",
            Dtap::ReleaseComplete { .. } => "Release_Complete",
            Dtap::Paging { .. } => "Paging",
            Dtap::PagingResponse { .. } => "Paging_Response",
            Dtap::MtSetup { .. } => "Setup",
            Dtap::HandoverCommand { .. } => "Handover_Command",
            Dtap::HandoverComplete { .. } => "Handover_Complete",
            Dtap::VoiceFrame { .. } => "Voice_Frame",
        }
    }

    /// True for the media (non-signaling) payload.
    pub fn is_media(&self) -> bool {
        matches!(self, Dtap::VoiceFrame { .. })
    }

    /// Approximate encoded size in bytes on the A interface.
    pub fn wire_size(&self) -> usize {
        match self {
            // 260-bit GSM FR frame + RLP/TRAU overhead, per frame
            Dtap::VoiceFrame { frames, .. } => 40 * usize::from(*frames),
            Dtap::LocationUpdateRequest { .. } => 19,
            Dtap::Setup { .. } | Dtap::MtSetup { .. } => 24,
            _ => 12,
        }
    }

    /// How many voice frames the message stands for: a voice frame's
    /// or train's `frames`, and 1 for any other message, so a counter
    /// of dropped messages counts each frame of a train.
    pub fn frames(&self) -> u16 {
        match self {
            Dtap::VoiceFrame { frames, .. } => *frames,
            _ => 1,
        }
    }

    /// The call id this message belongs to, if it is call-scoped.
    pub fn call_id(&self) -> Option<CallId> {
        match self {
            Dtap::Setup { call, .. }
            | Dtap::MtSetup { call, .. }
            | Dtap::CallProceeding { call }
            | Dtap::Alerting { call }
            | Dtap::Connect { call }
            | Dtap::ConnectAck { call }
            | Dtap::Disconnect { call, .. }
            | Dtap::Release { call }
            | Dtap::ReleaseComplete { call }
            | Dtap::VoiceFrame { call, .. } => Some(*call),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Imsi;

    fn imsi() -> Imsi {
        Imsi::parse("466920123456789").unwrap()
    }

    #[test]
    fn um_vs_network_location_update_names() {
        let m = Dtap::LocationUpdateRequest {
            identity: MsIdentity::Imsi(imsi()),
            lai: Lai::new(466, 92, 1),
        };
        assert_eq!(m.name(true), "Location_Update_Request");
        assert_eq!(m.name(false), "Location_Update");
    }

    #[test]
    fn uniform_names_elsewhere() {
        let m = Dtap::Alerting { call: CallId(1) };
        assert_eq!(m.name(true), m.name(false));
    }

    #[test]
    fn media_classification() {
        assert!(Dtap::VoiceFrame {
            call: CallId(1),
            seq: 0,
            origin_us: 0,
            frames: 1,
        }
        .is_media());
        assert!(!Dtap::CipherModeCommand.is_media());
    }

    #[test]
    fn call_scoping() {
        assert_eq!(
            Dtap::Connect { call: CallId(9) }.call_id(),
            Some(CallId(9))
        );
        assert_eq!(Dtap::CipherModeComplete.call_id(), None);
    }

    #[test]
    fn voice_frame_heavier_than_signaling() {
        let vf = Dtap::VoiceFrame {
            call: CallId(1),
            seq: 0,
            origin_us: 0,
            frames: 1,
        };
        assert!(vf.wire_size() > Dtap::Alerting { call: CallId(1) }.wire_size());
    }
}
