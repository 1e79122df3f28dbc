//! GSM Mobile Application Part (MAP, GSM 09.02) operations.
//!
//! MAP runs over SS7 between the switching and database elements: MSC/VMSC
//! ↔ VLR (B), MSC/VMSC ↔ HLR (C), VLR ↔ HLR (D), MSC ↔ MSC (E) and
//! SGSN ↔ HLR (Gr). Labels follow the paper's `MAP_…` spelling exactly so
//! the reproduced ladders read like Figures 4–6.


use crate::cause::Cause;
use crate::ids::{
    AuthTriplet, CallId, CellId, Cic, ConnRef, Imsi, Lai, MsIdentity, Msisdn, PointCode, Tmsi,
};
use crate::subscriber::SubscriberProfile;

/// A MAP operation (invoke or result) as carried over an SS7 interface.
#[derive(Clone, Debug, PartialEq)]
pub enum MapMessage {
    /// MSC/VMSC → VLR: register the MS in this location area (step 1.1).
    UpdateLocationArea {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Identity the MS registered with.
        identity: MsIdentity,
        /// The new location area.
        lai: Lai,
    },
    /// VLR → MSC/VMSC: registration succeeded (step 1.2 end).
    UpdateLocationAreaAck {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Resolved permanent identity.
        imsi: Imsi,
        /// Freshly allocated TMSI, if the VLR chose to assign one.
        tmsi: Option<Tmsi>,
        /// The subscriber's MSISDN from the downloaded profile. The VMSC
        /// registers this as the H.323 alias (paper step 1.4).
        msisdn: Option<Msisdn>,
    },
    /// VLR → MSC/VMSC: registration failed.
    UpdateLocationAreaReject {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Identity that failed.
        identity: MsIdentity,
        /// Failure cause.
        cause: Cause,
    },
    /// MSC/VMSC → VLR: an MS wants service (call origination / paging
    /// response); authenticate and cipher it (GSM 09.02 Process Access
    /// Request).
    ProcessAccessRequest {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Requesting identity.
        identity: MsIdentity,
    },
    /// VLR → MSC/VMSC: access request verdict.
    ProcessAccessRequestAck {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Resolved subscriber (valid when accepted).
        imsi: Imsi,
        /// `None` if accepted, otherwise why not.
        rejection: Option<Cause>,
    },
    /// VLR → HLR: request authentication vectors for the subscriber.
    SendAuthenticationInfo {
        /// Subscriber.
        imsi: Imsi,
    },
    /// HLR → VLR: authentication vectors.
    SendAuthenticationInfoAck {
        /// Subscriber.
        imsi: Imsi,
        /// One or more (RAND, SRES, Kc) triplets.
        triplets: Vec<AuthTriplet>,
    },
    /// VLR → HLR: the subscriber is now served by this VLR (step 1.2).
    UpdateLocation {
        /// Subscriber.
        imsi: Imsi,
        /// The registering VLR's address.
        vlr: PointCode,
    },
    /// HLR → VLR: location update accepted.
    UpdateLocationAck {
        /// Subscriber.
        imsi: Imsi,
    },
    /// HLR → VLR: location update refused (unknown subscriber, …).
    UpdateLocationReject {
        /// Subscriber.
        imsi: Imsi,
        /// Why.
        cause: Cause,
    },
    /// HLR → VLR: download of the subscription profile (step 1.2).
    InsertSubsData {
        /// Subscriber.
        imsi: Imsi,
        /// Profile copied into the VLR.
        profile: SubscriberProfile,
    },
    /// VLR → HLR: profile stored.
    InsertSubsDataAck {
        /// Subscriber.
        imsi: Imsi,
    },
    /// VLR → MSC/VMSC: run the radio authentication exchange with this
    /// challenge (the MSC owns the A interface; the VLR owns the triplets).
    Authenticate {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Subscriber being authenticated.
        imsi: Imsi,
        /// Challenge from the triplet.
        rand: u64,
    },
    /// MSC/VMSC → VLR: the MS's signed response.
    AuthenticateAck {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Subscriber.
        imsi: Imsi,
        /// SRES received over the air.
        sres: u32,
    },
    /// VLR → MSC/VMSC: start ciphering on the radio path (paper step 1.2:
    /// "the VLR then sets up the standard GSM ciphering with the MS").
    StartCiphering {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Subscriber.
        imsi: Imsi,
    },
    /// MSC/VMSC → VLR: ciphering is active.
    StartCipheringAck {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Subscriber.
        imsi: Imsi,
    },
    /// MSC/VMSC → VLR: an IAM arrived for this roaming number; whose is it?
    SendInfoForIncomingCall {
        /// The MSRN the call was routed with.
        msrn: Msisdn,
    },
    /// VLR → MSC/VMSC: the subscriber behind the roaming number.
    SendInfoForIncomingCallAck {
        /// The queried MSRN.
        msrn: Msisdn,
        /// Resolved subscriber, or why resolution failed.
        subscriber: Result<Imsi, Cause>,
    },
    /// SGSN → HLR (Gr): the subscriber attached to GPRS here.
    UpdateGprsLocation {
        /// Subscriber.
        imsi: Imsi,
        /// The registering SGSN.
        sgsn: PointCode,
    },
    /// HLR → SGSN: GPRS attach authorized (or not).
    UpdateGprsLocationAck {
        /// Subscriber.
        imsi: Imsi,
        /// `None` if authorized, otherwise the failure cause.
        rejection: Option<Cause>,
    },
    /// HLR → old VLR: purge the record after the MS moved elsewhere.
    CancelLocation {
        /// Subscriber.
        imsi: Imsi,
    },
    /// VLR → MSC/VMSC: drop all state for a cancelled subscriber. The
    /// VMSC uses this to deactivate the leftover signaling PDP context
    /// and unregister the stale gatekeeper alias; a classic MSC (which
    /// keeps no per-subscriber state) ignores it.
    PurgeMs {
        /// Subscriber to forget.
        imsi: Imsi,
    },
    /// Old VLR → HLR: record purged.
    CancelLocationAck {
        /// Subscriber.
        imsi: Imsi,
    },
    /// MSC/VMSC → VLR: authorize an outgoing call (step 2.2).
    SendInfoForOutgoingCall {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Calling subscriber.
        imsi: Imsi,
        /// Dialed number.
        called: Msisdn,
        /// Whether the dialed number is international relative to the
        /// serving network.
        international: bool,
    },
    /// VLR → MSC/VMSC: authorization verdict.
    SendInfoForOutgoingCallAck {
        /// Radio connection this dialogue belongs to.
        conn: ConnRef,
        /// Calling subscriber.
        imsi: Imsi,
        /// The caller's MSISDN from the profile (presented to the called
        /// party), when authorized.
        msisdn: Option<Msisdn>,
        /// `None` if allowed, otherwise why not.
        rejection: Option<Cause>,
    },
    /// GMSC → HLR: where is this subscriber? (GSM call delivery.)
    SendRoutingInformation {
        /// Dialed number.
        msisdn: Msisdn,
    },
    /// HLR → GMSC: roaming number to route the call to.
    SendRoutingInformationAck {
        /// Dialed number the query was for.
        msisdn: Msisdn,
        /// Mobile Station Roaming Number at the visited MSC, on success.
        msrn: Result<Msisdn, Cause>,
    },
    /// HLR → serving VLR: allocate a roaming number for call delivery.
    ProvideRoamingNumber {
        /// Subscriber being called.
        imsi: Imsi,
    },
    /// VLR → HLR: allocated roaming number.
    ProvideRoamingNumberAck {
        /// Subscriber being called.
        imsi: Imsi,
        /// Temporary routable number pointing at the serving MSC.
        msrn: Msisdn,
    },
    /// Anchor MSC → target MSC: prepare an inter-system handoff (paper §7).
    PrepareHandover {
        /// Call being handed off.
        call: CallId,
        /// Subscriber.
        imsi: Imsi,
        /// Target cell under the target MSC.
        cell: CellId,
    },
    /// Target MSC → anchor MSC: handoff prepared; circuit allocated.
    PrepareHandoverAck {
        /// Call being handed off.
        call: CallId,
        /// Inter-MSC circuit for the voice trunk.
        cic: Cic,
        /// Handover reference the MS must echo on the target cell.
        ho_ref: u32,
    },
    /// Target MSC → anchor MSC: the MS arrived on the target cell.
    SendEndSignal {
        /// Call that completed handoff.
        call: CallId,
    },
    /// Anchor MSC → target MSC: handoff bookkeeping complete.
    SendEndSignalAck {
        /// Call that completed handoff.
        call: CallId,
    },
}

impl MapMessage {
    /// The label used in traces; matches the paper's `MAP_…` spelling.
    pub fn label(&self) -> &'static str {
        match self {
            MapMessage::UpdateLocationArea { .. } => "MAP_Update_Location_Area",
            MapMessage::ProcessAccessRequest { .. } => "MAP_Process_Access_Request",
            MapMessage::ProcessAccessRequestAck { .. } => "MAP_Process_Access_Request_ack",
            MapMessage::UpdateLocationAreaAck { .. } => "MAP_Update_Location_Area_ack",
            MapMessage::UpdateLocationAreaReject { .. } => "MAP_Update_Location_Area_reject",
            MapMessage::SendAuthenticationInfo { .. } => "MAP_Send_Authentication_Info",
            MapMessage::SendAuthenticationInfoAck { .. } => "MAP_Send_Authentication_Info_ack",
            MapMessage::UpdateLocation { .. } => "MAP_Update_Location",
            MapMessage::UpdateLocationAck { .. } => "MAP_Update_Location_ack",
            MapMessage::UpdateLocationReject { .. } => "MAP_Update_Location_reject",
            MapMessage::InsertSubsData { .. } => "MAP_Insert_Subs_Data",
            MapMessage::InsertSubsDataAck { .. } => "MAP_Insert_Subs_Data_ack",
            MapMessage::Authenticate { .. } => "MAP_Authenticate",
            MapMessage::AuthenticateAck { .. } => "MAP_Authenticate_ack",
            MapMessage::StartCiphering { .. } => "MAP_Start_Ciphering",
            MapMessage::StartCipheringAck { .. } => "MAP_Start_Ciphering_ack",
            MapMessage::SendInfoForIncomingCall { .. } => "MAP_Send_Info_For_Incoming_Call",
            MapMessage::SendInfoForIncomingCallAck { .. } => {
                "MAP_Send_Info_For_Incoming_Call_ack"
            }
            MapMessage::UpdateGprsLocation { .. } => "MAP_Update_GPRS_Location",
            MapMessage::UpdateGprsLocationAck { .. } => "MAP_Update_GPRS_Location_ack",
            MapMessage::CancelLocation { .. } => "MAP_Cancel_Location",
            MapMessage::PurgeMs { .. } => "MAP_Purge_MS",
            MapMessage::CancelLocationAck { .. } => "MAP_Cancel_Location_ack",
            MapMessage::SendInfoForOutgoingCall { .. } => "MAP_Send_Info_For_Outgoing_Call",
            MapMessage::SendInfoForOutgoingCallAck { .. } => {
                "MAP_Send_Info_For_Outgoing_Call_ack"
            }
            MapMessage::SendRoutingInformation { .. } => "MAP_Send_Routing_Information",
            MapMessage::SendRoutingInformationAck { .. } => "MAP_Send_Routing_Information_ack",
            MapMessage::ProvideRoamingNumber { .. } => "MAP_Provide_Roaming_Number",
            MapMessage::ProvideRoamingNumberAck { .. } => "MAP_Provide_Roaming_Number_ack",
            MapMessage::PrepareHandover { .. } => "MAP_Prepare_Handover",
            MapMessage::PrepareHandoverAck { .. } => "MAP_Prepare_Handover_ack",
            MapMessage::SendEndSignal { .. } => "MAP_Send_End_Signal",
            MapMessage::SendEndSignalAck { .. } => "MAP_Send_End_Signal_ack",
        }
    }

    /// Encodes the inter-MSC handoff subset (the four E-interface
    /// operations of Figure 9) to wire form: operation code (1), call id
    /// (8), then operation-specific parameters. Result operations carry
    /// the invoke's GSM 09.02 code with the high bit set, mirroring the
    /// invoke/result pairing of a TCAP dialogue.
    ///
    /// Returns `None` for operations outside the handoff subset — those
    /// stay in-memory only (B/C/D/Gr dialogues never leave a shard).
    pub fn encode_handover(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(32);
        match self {
            MapMessage::PrepareHandover { call, imsi, cell } => {
                out.push(op::PREPARE_HANDOVER);
                out.extend_from_slice(&call.0.to_be_bytes());
                let digits = imsi.digits();
                out.push(digits.len() as u8);
                out.extend_from_slice(digits.as_bytes());
                out.extend_from_slice(&cell.0.to_be_bytes());
            }
            MapMessage::PrepareHandoverAck { call, cic, ho_ref } => {
                out.push(op::PREPARE_HANDOVER | op::RESULT);
                out.extend_from_slice(&call.0.to_be_bytes());
                out.extend_from_slice(&cic.0.to_be_bytes());
                out.extend_from_slice(&ho_ref.to_be_bytes());
            }
            MapMessage::SendEndSignal { call } => {
                out.push(op::SEND_END_SIGNAL);
                out.extend_from_slice(&call.0.to_be_bytes());
            }
            MapMessage::SendEndSignalAck { call } => {
                out.push(op::SEND_END_SIGNAL | op::RESULT);
                out.extend_from_slice(&call.0.to_be_bytes());
            }
            _ => return None,
        }
        Some(out)
    }

    /// Decodes a handoff-subset operation from wire form.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeMapError`] on malformed input.
    pub fn decode_handover(bytes: &[u8]) -> Result<Self, DecodeMapError> {
        if bytes.len() < 9 {
            return Err(DecodeMapError::Truncated);
        }
        let code = bytes[0];
        let call = CallId(u64::from_be_bytes(
            bytes[1..9].try_into().expect("length checked"),
        ));
        let rest = &bytes[9..];
        match code {
            op::PREPARE_HANDOVER => {
                let Some((&len, rest)) = rest.split_first() else {
                    return Err(DecodeMapError::Truncated);
                };
                let len = len as usize;
                if rest.len() < len {
                    return Err(DecodeMapError::Truncated);
                }
                let digits = std::str::from_utf8(&rest[..len])
                    .map_err(|_| DecodeMapError::BadParameter("imsi digits"))?;
                let imsi =
                    Imsi::parse(digits).map_err(|_| DecodeMapError::BadParameter("imsi digits"))?;
                let rest = &rest[len..];
                if rest.len() < 2 {
                    return Err(DecodeMapError::Truncated);
                }
                if rest.len() > 2 {
                    return Err(DecodeMapError::TrailingBytes(rest.len() - 2));
                }
                let cell = CellId(u16::from_be_bytes([rest[0], rest[1]]));
                Ok(MapMessage::PrepareHandover { call, imsi, cell })
            }
            code if code == op::PREPARE_HANDOVER | op::RESULT => {
                if rest.len() < 6 {
                    return Err(DecodeMapError::Truncated);
                }
                if rest.len() > 6 {
                    return Err(DecodeMapError::TrailingBytes(rest.len() - 6));
                }
                let cic = Cic(u16::from_be_bytes([rest[0], rest[1]]));
                let ho_ref =
                    u32::from_be_bytes(rest[2..6].try_into().expect("length checked"));
                Ok(MapMessage::PrepareHandoverAck { call, cic, ho_ref })
            }
            op::SEND_END_SIGNAL => {
                if !rest.is_empty() {
                    return Err(DecodeMapError::TrailingBytes(rest.len()));
                }
                Ok(MapMessage::SendEndSignal { call })
            }
            code if code == op::SEND_END_SIGNAL | op::RESULT => {
                if !rest.is_empty() {
                    return Err(DecodeMapError::TrailingBytes(rest.len()));
                }
                Ok(MapMessage::SendEndSignalAck { call })
            }
            other => Err(DecodeMapError::UnknownOperation(other)),
        }
    }
}

/// GSM 09.02 operation codes for the handoff subset; results set the
/// high bit of the matching invoke.
mod op {
    pub const PREPARE_HANDOVER: u8 = 68;
    pub const SEND_END_SIGNAL: u8 = 29;
    pub const RESULT: u8 = 0x80;
}

/// Errors from [`MapMessage::decode_handover`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeMapError {
    /// Input ended early.
    Truncated,
    /// Operation code outside the handoff subset.
    UnknownOperation(u8),
    /// A parameter was malformed.
    BadParameter(&'static str),
    /// Extra bytes followed a complete operation.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeMapError::Truncated => write!(f, "MAP operation truncated"),
            DecodeMapError::UnknownOperation(c) => {
                write!(f, "unknown MAP operation code {c:#04x}")
            }
            DecodeMapError::BadParameter(p) => write!(f, "malformed MAP parameter: {p}"),
            DecodeMapError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after MAP operation")
            }
        }
    }
}

impl std::error::Error for DecodeMapError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn imsi() -> Imsi {
        Imsi::parse("466920123456789").unwrap()
    }

    #[test]
    fn labels_match_paper_spelling() {
        let m = MapMessage::UpdateLocationArea {
            conn: ConnRef(1),
            identity: MsIdentity::Imsi(imsi()),
            lai: Lai::new(466, 92, 1),
        };
        assert_eq!(m.label(), "MAP_Update_Location_Area");
        assert_eq!(
            MapMessage::InsertSubsData {
                imsi: imsi(),
                profile: SubscriberProfile::full(Msisdn::parse("88612345678").unwrap()),
            }
            .label(),
            "MAP_Insert_Subs_Data"
        );
        assert_eq!(
            MapMessage::SendInfoForOutgoingCall {
                conn: ConnRef(1),
                imsi: imsi(),
                called: Msisdn::parse("88612345678").unwrap(),
                international: false,
            }
            .label(),
            "MAP_Send_Info_For_Outgoing_Call"
        );
    }

    #[test]
    fn ack_labels_lowercase_suffix() {
        assert_eq!(
            MapMessage::UpdateLocationAreaAck {
                conn: ConnRef(1),
                imsi: imsi(),
                tmsi: None,
                msisdn: None
            }
            .label(),
            "MAP_Update_Location_Area_ack"
        );
    }
}
