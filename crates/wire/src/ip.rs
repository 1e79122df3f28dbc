//! Simulated IP packets carried on the LAN/Gi segments and tunneled
//! through the GPRS core.


use crate::ids::TransportAddr;
use crate::q931::Q931Message;
use crate::ras::RasMessage;
use crate::rtp::RtpPacket;

/// What an [`IpPacket`] carries.
#[derive(Clone, Debug, PartialEq)]
pub enum IpPayload {
    /// H.225 RAS (endpoint ↔ gatekeeper).
    Ras(RasMessage),
    /// Q.931/H.225 call signaling (endpoint ↔ endpoint).
    Q931(Q931Message),
    /// RTP media.
    Rtp(RtpPacket),
}

impl IpPayload {
    /// Trace label of the payload.
    pub fn label(&self) -> String {
        match self {
            IpPayload::Ras(m) => m.label().to_owned(),
            IpPayload::Q931(m) => m.label().to_owned(),
            IpPayload::Rtp(_) => "RTP".to_owned(),
        }
    }

    /// Approximate payload size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            IpPayload::Ras(_) => 60,
            IpPayload::Q931(m) => m.encode().len(),
            IpPayload::Rtp(p) => p.wire_size(),
        }
    }

    /// True for media traffic (left out of signaling traces).
    pub fn is_media(&self) -> bool {
        matches!(self, IpPayload::Rtp(_))
    }

    /// How many voice frames the payload stands for: an RTP packet's
    /// [`frames`](RtpPacket::frames), 1 for signaling.
    pub fn frames(&self) -> u16 {
        match self {
            IpPayload::Rtp(p) => p.frames(),
            _ => 1,
        }
    }
}

/// A routable IP packet between two transport addresses.
#[derive(Clone, Debug, PartialEq)]
pub struct IpPacket {
    /// Source address and port.
    pub src: TransportAddr,
    /// Destination address and port.
    pub dst: TransportAddr,
    /// Remaining hops before the packet is dropped (loop protection).
    pub ttl: u8,
    /// Payload.
    pub payload: IpPayload,
}

impl IpPacket {
    /// Default initial TTL.
    pub const DEFAULT_TTL: u8 = 16;

    /// Builds a packet with the default TTL.
    pub fn new(src: TransportAddr, dst: TransportAddr, payload: IpPayload) -> Self {
        IpPacket {
            src,
            dst,
            ttl: Self::DEFAULT_TTL,
            payload,
        }
    }

    /// Returns a copy with the TTL decremented, or `None` if expired.
    #[must_use]
    pub fn forwarded(&self) -> Option<IpPacket> {
        if self.ttl <= 1 {
            return None;
        }
        let mut p = self.clone();
        p.ttl -= 1;
        Some(p)
    }

    /// Trace label (the payload's; IP encapsulation is implied by the
    /// interface column).
    pub fn label(&self) -> String {
        self.payload.label()
    }

    /// Total size: 20-byte IP header + 8-byte UDP/TCP-ish header + payload.
    pub fn wire_size(&self) -> usize {
        28 + self.payload.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CallId, Ipv4Addr, Msisdn};

    fn addr(last: u8) -> TransportAddr {
        TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, last), 1720)
    }

    fn ras_packet() -> IpPacket {
        IpPacket::new(
            addr(1),
            addr(2),
            IpPayload::Ras(RasMessage::Rcf {
                alias: Msisdn::parse("88612345678").unwrap(),
            }),
        )
    }

    #[test]
    fn label_is_payload_label() {
        assert_eq!(ras_packet().label(), "RAS_RCF");
    }

    #[test]
    fn ttl_expiry() {
        let mut p = ras_packet();
        p.ttl = 2;
        let f = p.forwarded().unwrap();
        assert_eq!(f.ttl, 1);
        assert!(f.forwarded().is_none());
    }

    #[test]
    fn media_classification() {
        let rtp = IpPacket::new(
            addr(1),
            addr(2),
            IpPayload::Rtp(RtpPacket {
                ssrc: 0,
                seq: 0,
                timestamp: 0,
                payload_type: 3,
                marker: false,
                payload_len: 33,
                call: CallId(0),
                origin_us: 0,
            }),
        );
        assert!(rtp.payload.is_media());
        assert!(!ras_packet().payload.is_media());
        assert_eq!(rtp.label(), "RTP");
    }

    #[test]
    fn wire_size_includes_headers() {
        assert_eq!(ras_packet().wire_size(), 88);
    }
}
