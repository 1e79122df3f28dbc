//! GPRS Tunnelling Protocol (GTP v0, GSM 09.60) — signaling between SGSN
//! and GGSN over Gn, plus user-plane encapsulation (T-PDU).
//!
//! The 20-byte version-0 header is encoded and decoded exactly as the
//! specification lays it out; round-trip property tests live in
//! `tests/codec_roundtrip.rs` of this crate.


use crate::cause::Cause;
use crate::ids::{Imsi, Ipv4Addr, Nsapi, Teid};
use crate::message::Message;
use crate::qos::QosProfile;

/// GTP v0 message types (GSM 09.60 §7.1, table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum GtpMsgType {
    /// Path keep-alive request.
    EchoRequest = 1,
    /// Path keep-alive response.
    EchoResponse = 2,
    /// Tunnel creation request.
    CreatePdpContextRequest = 16,
    /// Tunnel creation response.
    CreatePdpContextResponse = 17,
    /// Tunnel modification request (e.g. SGSN change).
    UpdatePdpContextRequest = 18,
    /// Tunnel modification response.
    UpdatePdpContextResponse = 19,
    /// Tunnel deletion request.
    DeletePdpContextRequest = 20,
    /// Tunnel deletion response.
    DeletePdpContextResponse = 21,
    /// Network-requested activation (GGSN → SGSN) for static addresses.
    PduNotificationRequest = 27,
    /// Response to a PDU notification.
    PduNotificationResponse = 28,
    /// Encapsulated user-plane packet.
    TPdu = 255,
}

impl GtpMsgType {
    /// Decodes a wire value.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => GtpMsgType::EchoRequest,
            2 => GtpMsgType::EchoResponse,
            16 => GtpMsgType::CreatePdpContextRequest,
            17 => GtpMsgType::CreatePdpContextResponse,
            18 => GtpMsgType::UpdatePdpContextRequest,
            19 => GtpMsgType::UpdatePdpContextResponse,
            20 => GtpMsgType::DeletePdpContextRequest,
            21 => GtpMsgType::DeletePdpContextResponse,
            27 => GtpMsgType::PduNotificationRequest,
            28 => GtpMsgType::PduNotificationResponse,
            255 => GtpMsgType::TPdu,
            _ => return None,
        })
    }
}

/// Errors from [`GtpHeader::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeGtpError {
    /// Fewer than 20 bytes of input.
    Truncated {
        /// Bytes actually available.
        got: usize,
    },
    /// Version field was not 0.
    BadVersion(u8),
    /// Unknown message type byte.
    UnknownType(u8),
}

impl std::fmt::Display for DecodeGtpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeGtpError::Truncated { got } => {
                write!(f, "GTP header truncated: {got} of 20 bytes")
            }
            DecodeGtpError::BadVersion(v) => write!(f, "unsupported GTP version {v}"),
            DecodeGtpError::UnknownType(t) => write!(f, "unknown GTP message type {t}"),
        }
    }
}

impl std::error::Error for DecodeGtpError {}

/// The fixed GTP v0 header (20 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GtpHeader {
    /// Message type.
    pub msg_type: GtpMsgType,
    /// Payload length in bytes (excluding this header).
    pub length: u16,
    /// Sequence number for signaling reliability.
    pub seq: u16,
    /// Flow label identifying the tunnel flow.
    pub flow: u16,
    /// Tunnel identifier (TID).
    pub tid: u64,
}

impl GtpHeader {
    /// Encoded size of the v0 header.
    pub const SIZE: usize = 20;

    /// Encodes the header into its 20-byte wire form.
    pub fn encode(&self) -> [u8; Self::SIZE] {
        let mut b = [0u8; Self::SIZE];
        // version 0 (3 bits) | PT=1 (GTP) | spare '111' | SNN=0
        b[0] = 0b0001_1110;
        b[1] = self.msg_type as u8;
        b[2..4].copy_from_slice(&self.length.to_be_bytes());
        b[4..6].copy_from_slice(&self.seq.to_be_bytes());
        b[6..8].copy_from_slice(&self.flow.to_be_bytes());
        b[8] = 0; // SNDCP N-PDU number (unused)
        b[9] = 0xFF;
        b[10] = 0xFF;
        b[11] = 0xFF;
        b[12..20].copy_from_slice(&self.tid.to_be_bytes());
        b
    }

    /// Decodes a header from the front of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeGtpError`] on truncated input, a non-zero version,
    /// or an unknown message type.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeGtpError> {
        if bytes.len() < Self::SIZE {
            return Err(DecodeGtpError::Truncated { got: bytes.len() });
        }
        let version = bytes[0] >> 5;
        if version != 0 {
            return Err(DecodeGtpError::BadVersion(version));
        }
        let msg_type =
            GtpMsgType::from_u8(bytes[1]).ok_or(DecodeGtpError::UnknownType(bytes[1]))?;
        Ok(GtpHeader {
            msg_type,
            length: u16::from_be_bytes([bytes[2], bytes[3]]),
            seq: u16::from_be_bytes([bytes[4], bytes[5]]),
            flow: u16::from_be_bytes([bytes[6], bytes[7]]),
            tid: u64::from_be_bytes(bytes[12..20].try_into().expect("length checked")),
        })
    }
}

/// A GTP message as exchanged between SGSN and GGSN.
#[derive(Clone, Debug, PartialEq)]
pub enum GtpMessage {
    /// SGSN → GGSN: create a tunnel for a PDP context.
    CreatePdpRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Context being created.
        nsapi: Nsapi,
        /// Requested QoS.
        qos: QosProfile,
        /// Requested static address, or `None` for dynamic allocation.
        static_addr: Option<Ipv4Addr>,
        /// Tunnel endpoint the SGSN listens on for downlink.
        sgsn_teid: Teid,
    },
    /// GGSN → SGSN: tunnel created.
    CreatePdpResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Context.
        nsapi: Nsapi,
        /// Outcome: allocated address + GGSN tunnel endpoint, or cause.
        result: Result<(Ipv4Addr, Teid, QosProfile), Cause>,
    },
    /// SGSN → GGSN: move an existing tunnel to a new SGSN endpoint
    /// (inter-SGSN routing-area update).
    UpdatePdpRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Context.
        nsapi: Nsapi,
        /// New SGSN-side tunnel endpoint.
        sgsn_teid: Teid,
    },
    /// GGSN → SGSN: tunnel updated.
    UpdatePdpResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Context.
        nsapi: Nsapi,
        /// `None` if updated, otherwise the failure cause.
        rejection: Option<Cause>,
    },
    /// SGSN → GGSN: delete a tunnel.
    DeletePdpRequest {
        /// Subscriber.
        imsi: Imsi,
        /// Context.
        nsapi: Nsapi,
    },
    /// GGSN → SGSN: tunnel deleted.
    DeletePdpResponse {
        /// Subscriber.
        imsi: Imsi,
        /// Context.
        nsapi: Nsapi,
    },
    /// GGSN → SGSN: downlink traffic arrived for a static PDP address with
    /// no active context; please activate (TR 22.973 termination path).
    PduNotificationRequest {
        /// Subscriber owning the static address.
        imsi: Imsi,
        /// The static PDP address.
        addr: Ipv4Addr,
    },
    /// SGSN → GGSN: notification accepted; activation in progress.
    PduNotificationResponse {
        /// Subscriber.
        imsi: Imsi,
    },
    /// An encapsulated user-plane packet traversing the tunnel.
    TPdu {
        /// Tunnel endpoint of the receiver.
        teid: Teid,
        /// The encapsulated packet (an IP packet in this reproduction).
        inner: Box<Message>,
    },
}

impl GtpMessage {
    /// Trace label. Tunneled packets keep their inner label, prefixed with
    /// `GTP:` to show the encapsulation the paper's Figure 3 describes.
    pub fn label(&self) -> String {
        match self {
            GtpMessage::CreatePdpRequest { .. } => "GTP_Create_PDP_Context_Request".into(),
            GtpMessage::CreatePdpResponse { .. } => "GTP_Create_PDP_Context_Response".into(),
            GtpMessage::UpdatePdpRequest { .. } => "GTP_Update_PDP_Context_Request".into(),
            GtpMessage::UpdatePdpResponse { .. } => "GTP_Update_PDP_Context_Response".into(),
            GtpMessage::DeletePdpRequest { .. } => "GTP_Delete_PDP_Context_Request".into(),
            GtpMessage::DeletePdpResponse { .. } => "GTP_Delete_PDP_Context_Response".into(),
            GtpMessage::PduNotificationRequest { .. } => "GTP_PDU_Notification_Request".into(),
            GtpMessage::PduNotificationResponse { .. } => "GTP_PDU_Notification_Response".into(),
            GtpMessage::TPdu { inner, .. } => format!("GTP:{}", inner.label_str()),
        }
    }

    /// The wire message type this variant maps to.
    pub fn msg_type(&self) -> GtpMsgType {
        match self {
            GtpMessage::CreatePdpRequest { .. } => GtpMsgType::CreatePdpContextRequest,
            GtpMessage::CreatePdpResponse { .. } => GtpMsgType::CreatePdpContextResponse,
            GtpMessage::UpdatePdpRequest { .. } => GtpMsgType::UpdatePdpContextRequest,
            GtpMessage::UpdatePdpResponse { .. } => GtpMsgType::UpdatePdpContextResponse,
            GtpMessage::DeletePdpRequest { .. } => GtpMsgType::DeletePdpContextRequest,
            GtpMessage::DeletePdpResponse { .. } => GtpMsgType::DeletePdpContextResponse,
            GtpMessage::PduNotificationRequest { .. } => GtpMsgType::PduNotificationRequest,
            GtpMessage::PduNotificationResponse { .. } => GtpMsgType::PduNotificationResponse,
            GtpMessage::TPdu { .. } => GtpMsgType::TPdu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = GtpHeader {
            msg_type: GtpMsgType::CreatePdpContextRequest,
            length: 44,
            seq: 1234,
            flow: 7,
            tid: 0x1122_3344_5566_7788,
        };
        let bytes = h.encode();
        assert_eq!(bytes.len(), GtpHeader::SIZE);
        assert_eq!(GtpHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn header_flags_byte() {
        let h = GtpHeader {
            msg_type: GtpMsgType::TPdu,
            length: 0,
            seq: 0,
            flow: 0,
            tid: 0,
        };
        let b = h.encode();
        assert_eq!(b[0] >> 5, 0, "version 0");
        assert_eq!((b[0] >> 4) & 1, 1, "protocol type GTP");
        assert_eq!(b[1], 255);
        assert_eq!(&b[9..12], &[0xFF, 0xFF, 0xFF], "spare bytes");
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(
            GtpHeader::decode(&[0; 10]),
            Err(DecodeGtpError::Truncated { got: 10 })
        );
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut b = GtpHeader {
            msg_type: GtpMsgType::EchoRequest,
            length: 0,
            seq: 0,
            flow: 0,
            tid: 0,
        }
        .encode();
        b[0] = 0b0011_1110; // version 1
        assert_eq!(GtpHeader::decode(&b), Err(DecodeGtpError::BadVersion(1)));
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut b = GtpHeader {
            msg_type: GtpMsgType::EchoRequest,
            length: 0,
            seq: 0,
            flow: 0,
            tid: 0,
        }
        .encode();
        b[1] = 99;
        assert_eq!(GtpHeader::decode(&b), Err(DecodeGtpError::UnknownType(99)));
    }

    #[test]
    fn msg_type_values_roundtrip() {
        for t in [
            GtpMsgType::EchoRequest,
            GtpMsgType::EchoResponse,
            GtpMsgType::CreatePdpContextRequest,
            GtpMsgType::CreatePdpContextResponse,
            GtpMsgType::UpdatePdpContextRequest,
            GtpMsgType::UpdatePdpContextResponse,
            GtpMsgType::DeletePdpContextRequest,
            GtpMsgType::DeletePdpContextResponse,
            GtpMsgType::PduNotificationRequest,
            GtpMsgType::PduNotificationResponse,
            GtpMsgType::TPdu,
        ] {
            assert_eq!(GtpMsgType::from_u8(t as u8), Some(t));
        }
        assert_eq!(GtpMsgType::from_u8(3), None);
    }

    #[test]
    fn error_display() {
        assert!(DecodeGtpError::Truncated { got: 3 }
            .to_string()
            .contains("3 of 20"));
        assert!(DecodeGtpError::BadVersion(2).to_string().contains('2'));
    }
}
