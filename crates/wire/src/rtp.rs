//! RTP (RFC 1889 as of the paper's era) packets and the 12-byte header
//! codec. The VMSC's vocoder emits one RTP packet per 20 ms GSM frame.


use crate::ids::CallId;

/// RTP payload type for GSM full-rate audio (RFC 1890 static assignment).
pub const PAYLOAD_TYPE_GSM: u8 = 3;

/// Payload bytes of one 20 ms GSM full-rate frame.
pub const GSM_FRAME_BYTES: u16 = 33;

/// One RTP packet carrying a vocoder frame.
///
/// The audio samples themselves are not simulated; `origin_us` carries the
/// frame's creation time so sinks can measure mouth-to-ear delay, and
/// `payload_len` its size for bandwidth accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtpPacket {
    /// Synchronization source (one per media stream direction).
    pub ssrc: u32,
    /// Sequence number, incremented per packet.
    pub seq: u16,
    /// Media timestamp in 8 kHz ticks.
    pub timestamp: u32,
    /// Payload type (GSM = 3).
    pub payload_type: u8,
    /// Marker bit (start of a talkspurt).
    pub marker: bool,
    /// Payload length in bytes (33 for a GSM full-rate frame).
    pub payload_len: u16,
    /// Scenario call correlation id (simulation metadata, not on the wire).
    pub call: CallId,
    /// Frame creation time in simulated microseconds (metadata).
    pub origin_us: u64,
}

impl RtpPacket {
    /// Encoded header size.
    pub const HEADER_SIZE: usize = 12;

    /// Encodes the RTP header (the payload is synthetic).
    pub fn encode_header(&self) -> [u8; Self::HEADER_SIZE] {
        let mut b = [0u8; Self::HEADER_SIZE];
        b[0] = 2 << 6; // version 2, no padding, no extension, no CSRC
        b[1] = (u8::from(self.marker) << 7) | (self.payload_type & 0x7F);
        b[2..4].copy_from_slice(&self.seq.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        b
    }

    /// Decodes an RTP header; metadata fields are zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeRtpError`] on truncated input, a wrong version, or
    /// a header that [`encode_header`](Self::encode_header) would not
    /// write back.
    pub fn decode_header(bytes: &[u8]) -> Result<Self, DecodeRtpError> {
        if bytes.len() < Self::HEADER_SIZE {
            return Err(DecodeRtpError::Truncated { got: bytes.len() });
        }
        let version = bytes[0] >> 6;
        if version != 2 {
            return Err(DecodeRtpError::BadVersion(version));
        }
        let p = RtpPacket {
            marker: bytes[1] & 0x80 != 0,
            payload_type: bytes[1] & 0x7F,
            seq: u16::from_be_bytes([bytes[2], bytes[3]]),
            timestamp: u32::from_be_bytes(bytes[4..8].try_into().expect("length checked")),
            ssrc: u32::from_be_bytes(bytes[8..12].try_into().expect("length checked")),
            payload_len: 0,
            call: CallId(0),
            origin_us: 0,
        };
        if p.encode_header() != bytes[..Self::HEADER_SIZE] {
            return Err(DecodeRtpError::NonCanonical);
        }
        Ok(p)
    }

    /// How many 20 ms GSM frames the packet carries, at least one. RTP
    /// may bundle consecutive frames of a stream in one packet (RFC 3551
    /// §4.5.8); a voice train crosses the packet core as one such
    /// packet, [`GSM_FRAME_BYTES`] of payload per frame.
    pub fn frames(&self) -> u16 {
        (self.payload_len / GSM_FRAME_BYTES).max(1)
    }

    /// Total on-the-wire size (header + payload).
    pub fn wire_size(&self) -> usize {
        Self::HEADER_SIZE + self.payload_len as usize
    }
}

/// Errors from [`RtpPacket::decode_header`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeRtpError {
    /// Fewer than 12 bytes available.
    Truncated {
        /// Bytes available.
        got: usize,
    },
    /// Version field was not 2.
    BadVersion(u8),
    /// A header that [`RtpPacket::encode_header`] would not write: the
    /// padding, extension or CSRC count bits are set.
    NonCanonical,
}

impl std::fmt::Display for DecodeRtpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeRtpError::Truncated { got } => {
                write!(f, "RTP header truncated: {got} of 12 bytes")
            }
            DecodeRtpError::BadVersion(v) => write!(f, "unsupported RTP version {v}"),
            DecodeRtpError::NonCanonical => write!(f, "RTP header not in canonical form"),
        }
    }
}

impl std::error::Error for DecodeRtpError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> RtpPacket {
        RtpPacket {
            ssrc: 0xCAFEBABE,
            seq: 4321,
            timestamp: 160_000,
            payload_type: PAYLOAD_TYPE_GSM,
            marker: true,
            payload_len: 33,
            call: CallId(1),
            origin_us: 99,
        }
    }

    #[test]
    fn marker_bit_independent_of_payload_type() {
        let mut p = pkt();
        p.marker = false;
        p.payload_type = 0x7F;
        let d = RtpPacket::decode_header(&p.encode_header()).unwrap();
        assert!(!d.marker);
        assert_eq!(d.payload_type, 0x7F);
    }

    #[test]
    fn version_bits() {
        let b = pkt().encode_header();
        assert_eq!(b[0] >> 6, 2);
    }

    #[test]
    fn decode_rejects_truncated_and_bad_version() {
        assert_eq!(
            RtpPacket::decode_header(&[0; 4]),
            Err(DecodeRtpError::Truncated { got: 4 })
        );
        let mut b = pkt().encode_header();
        b[0] = 1 << 6;
        assert_eq!(
            RtpPacket::decode_header(&b),
            Err(DecodeRtpError::BadVersion(1))
        );
    }

    #[test]
    fn decode_rejects_what_encode_would_not_write() {
        let b = pkt().encode_header();
        // Padding, extension, a CSRC count of 1, and one of 8 (mutant 46
        // of the codec contract's RTP seed): the encoder writes none.
        for byte0 in [0xA0, 0x90, 0x81, 0x88] {
            let mut b = b;
            b[0] = byte0;
            assert_eq!(
                RtpPacket::decode_header(&b),
                Err(DecodeRtpError::NonCanonical),
                "{byte0:#04x}"
            );
        }
    }

    #[test]
    fn wire_size_includes_payload() {
        assert_eq!(pkt().wire_size(), 45);
    }
}
