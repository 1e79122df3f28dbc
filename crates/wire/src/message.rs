//! The union message type carried by the simulated network.

use vgprs_sim::Payload;

use crate::command::Command;
use crate::dtap::Dtap;
use crate::gmm::GmmMessage;
use crate::gtp::GtpMessage;
use crate::ids::{CallId, ConnRef, Imsi, Nsapi};
use crate::ip::IpPacket;
use crate::isup::IsupMessage;
use crate::map::MapMessage;

/// Every protocol data unit the reproduction's networks exchange.
///
/// The variant selects the protocol family; the enclosing
/// [`Interface`](vgprs_sim::Interface) (recorded per link) tells *where* it
/// traveled. Labels reproduce the paper's message names so traces read
/// like Figures 4–6.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// GSM 04.08 signaling on the air interface (each MS has a dedicated
    /// radio link, so no multiplexing reference is needed).
    Um(Dtap),
    /// The same signaling relayed on the BTS–BSC link, keyed by the MS's
    /// connection reference.
    Abis {
        /// Transaction connection reference.
        conn: ConnRef,
        /// Signaling content.
        dtap: Dtap,
    },
    /// The same signaling relayed on the BSC–MSC link (BSSAP over SCCP).
    A {
        /// Transaction connection reference.
        conn: ConnRef,
        /// Signaling content.
        dtap: Dtap,
    },
    /// MAP operation on an SS7 interface (B/C/D/E/Gr).
    Map(MapMessage),
    /// GPRS mobility/session management on Gb.
    Gmm(GmmMessage),
    /// GTP signaling or tunneled user plane on Gn.
    Gtp(GtpMessage),
    /// LLC-framed user-plane IP packet on Gb (endpoint ↔ SGSN).
    Llc {
        /// Subscriber the LLC link belongs to.
        imsi: Imsi,
        /// PDP context the packet uses.
        nsapi: Nsapi,
        /// The IP packet inside.
        inner: Box<IpPacket>,
    },
    /// A plain IP packet on a LAN/Gi segment.
    Ip(IpPacket),
    /// ISUP trunk signaling between switches.
    Isup(IsupMessage),
    /// One voice frame on an established circuit trunk (bearer plane).
    TrunkVoice {
        /// The circuit carrying the frame (identifies the trunk leg when
        /// several legs of one call touch the same switch).
        cic: crate::ids::Cic,
        /// Call occupying the circuit.
        call: CallId,
        /// Frame sequence number.
        seq: u32,
        /// Frame creation time (simulated microseconds).
        origin_us: u64,
    },
    /// Scenario-driver command (arrives over `Interface::Internal`).
    Cmd(Command),
}

impl Message {
    /// The message's trace label.
    pub fn label_str(&self) -> String {
        match self {
            Message::Um(d) => format!("Um_{}", d.name(true)),
            Message::Abis { dtap, .. } => format!("Abis_{}", dtap.name(false)),
            Message::A { dtap, .. } => format!("A_{}", dtap.name(false)),
            Message::Map(m) => m.label().to_owned(),
            Message::Gmm(m) => m.label().to_owned(),
            Message::Gtp(m) => m.label(),
            Message::Llc { inner, .. } => format!("LLC:{}", inner.label()),
            Message::Ip(p) => p.label(),
            Message::Isup(m) => m.label().to_owned(),
            Message::TrunkVoice { .. } => "Trunk_Voice".to_owned(),
            Message::Cmd(c) => c.label().to_owned(),
        }
    }

    /// True for bearer-plane (media) traffic, which is excluded from
    /// signaling traces but still counted in statistics.
    pub fn is_media(&self) -> bool {
        match self {
            Message::Um(d) | Message::Abis { dtap: d, .. } | Message::A { dtap: d, .. } => {
                d.is_media()
            }
            Message::Gtp(GtpMessage::TPdu { inner, .. }) => inner.is_media(),
            Message::Llc { inner, .. } => inner.payload.is_media(),
            Message::Ip(p) => p.payload.is_media(),
            Message::TrunkVoice { .. } => true,
            _ => false,
        }
    }

    /// Convenience constructor for air-interface signaling.
    pub fn um(d: Dtap) -> Self {
        Message::Um(d)
    }

    /// Convenience constructor for Abis signaling.
    pub fn abis(conn: ConnRef, d: Dtap) -> Self {
        Message::Abis { conn, dtap: d }
    }

    /// Convenience constructor for A-interface signaling.
    pub fn a(conn: ConnRef, d: Dtap) -> Self {
        Message::A { conn, dtap: d }
    }

    /// The DTAP content, if this is a Um/Abis/A message.
    pub fn dtap(&self) -> Option<&Dtap> {
        match self {
            Message::Um(d) | Message::Abis { dtap: d, .. } | Message::A { dtap: d, .. } => Some(d),
            _ => None,
        }
    }

    /// The connection reference, if this is an Abis/A message.
    pub fn conn(&self) -> Option<ConnRef> {
        match self {
            Message::Abis { conn, .. } | Message::A { conn, .. } => Some(*conn),
            _ => None,
        }
    }
}

impl Payload for Message {
    fn label(&self) -> String {
        self.label_str()
    }

    fn wire_size(&self) -> usize {
        match self {
            Message::Um(d) | Message::Abis { dtap: d, .. } | Message::A { dtap: d, .. } => {
                d.wire_size() + 6
            }
            Message::Map(_) => 48,
            Message::Gmm(_) => 32,
            Message::Gtp(g) => {
                20 + match g {
                    GtpMessage::TPdu { inner, .. } => inner.wire_size(),
                    _ => 24,
                }
            }
            Message::Llc { inner, .. } => 6 + inner.wire_size(),
            Message::Ip(p) => p.wire_size(),
            Message::Isup(m) => m.encoded_len() + 5,
            Message::TrunkVoice { .. } => 40,
            Message::Cmd(_) => 1,
        }
    }

    fn traceable(&self) -> bool {
        !self.is_media()
    }

    /// Signaling rides TCP/SS7 (retransmitted ⇒ modeled reliable);
    /// bearer frames ride UDP/RTP or raw circuits and really drop.
    fn reliable(&self) -> bool {
        !self.is_media()
    }

    /// Bearer frames follow contexts set up before the call (paper
    /// Figs. 2(b), 5, 6), so pure relays may cut them through.
    fn express(&self) -> bool {
        self.is_media()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::Cause;
    use crate::ids::{Cic, Ipv4Addr, Lai, MsIdentity, Msisdn, Teid, TransportAddr};
    use crate::isup::IsupKind;
    use crate::ip::IpPayload;
    use crate::ras::RasMessage;
    use crate::rtp::RtpPacket;

    fn imsi() -> Imsi {
        Imsi::parse("466920123456789").unwrap()
    }

    fn msisdn() -> Msisdn {
        Msisdn::parse("88612345678").unwrap()
    }

    #[test]
    fn interface_prefixed_labels() {
        let lu = Dtap::LocationUpdateRequest {
            identity: MsIdentity::Imsi(imsi()),
            lai: Lai::new(466, 92, 1),
        };
        assert_eq!(
            Message::um(lu.clone()).label_str(),
            "Um_Location_Update_Request"
        );
        assert_eq!(
            Message::abis(ConnRef(1), lu.clone()).label_str(),
            "Abis_Location_Update"
        );
        assert_eq!(Message::a(ConnRef(1), lu).label_str(), "A_Location_Update");
        assert_eq!(
            Message::um(Dtap::Setup {
                call: CallId(1),
                called: msisdn()
            })
            .label_str(),
            "Um_Setup"
        );
    }

    fn rtp_ip() -> IpPacket {
        IpPacket::new(
            TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 1), 30_000),
            TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 2), 30_000),
            IpPayload::Rtp(RtpPacket {
                ssrc: 0,
                seq: 0,
                timestamp: 0,
                payload_type: 3,
                marker: false,
                payload_len: 33,
                call: CallId(1),
                origin_us: 0,
            }),
        )
    }

    #[test]
    fn media_not_traceable_at_any_layer() {
        let vf = Message::um(Dtap::VoiceFrame {
            call: CallId(1),
            seq: 0,
            origin_us: 0,
        });
        assert!(!vf.traceable());
        let ip = Message::Ip(rtp_ip());
        assert!(!ip.traceable());
        let llc = Message::Llc {
            imsi: imsi(),
            nsapi: Nsapi::new(6).unwrap(),
            inner: Box::new(rtp_ip()),
        };
        assert!(!llc.traceable());
        let gtp = Message::Gtp(GtpMessage::TPdu {
            teid: Teid(1),
            inner: Box::new(Message::Ip(rtp_ip())),
        });
        assert!(!gtp.traceable());
        let tv = Message::TrunkVoice {
            cic: crate::ids::Cic(1),
            call: CallId(1),
            seq: 0,
            origin_us: 0,
        };
        assert!(!tv.traceable());
    }

    #[test]
    fn signaling_is_traceable() {
        let ras = Message::Ip(IpPacket::new(
            TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 1), 1719),
            TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 2), 1719),
            IpPayload::Ras(RasMessage::Rcf { alias: msisdn() }),
        ));
        assert!(ras.traceable());
        assert_eq!(ras.label_str(), "RAS_RCF");
    }

    #[test]
    fn tunneled_label_nests() {
        let gtp = Message::Gtp(GtpMessage::TPdu {
            teid: Teid(5),
            inner: Box::new(Message::Ip(IpPacket::new(
                TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 1), 1719),
                TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 2), 1719),
                IpPayload::Ras(RasMessage::Rcf { alias: msisdn() }),
            ))),
        });
        assert_eq!(gtp.label_str(), "GTP:RAS_RCF");
    }

    #[test]
    fn llc_label_nests() {
        let llc = Message::Llc {
            imsi: imsi(),
            nsapi: Nsapi::new(5).unwrap(),
            inner: Box::new(IpPacket::new(
                TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 1), 1719),
                TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 2), 1719),
                IpPayload::Ras(RasMessage::Rcf { alias: msisdn() }),
            )),
        };
        assert_eq!(llc.label_str(), "LLC:RAS_RCF");
    }

    #[test]
    fn dtap_accessor() {
        let m = Message::a(ConnRef(3), Dtap::Alerting { call: CallId(2) });
        assert_eq!(m.conn(), Some(ConnRef(3)));
        assert_eq!(m.dtap(), Some(&Dtap::Alerting { call: CallId(2) }));
        assert_eq!(
            Message::Isup(IsupMessage {
                cic: crate::ids::Cic(1),
                call: CallId(1),
                kind: crate::isup::IsupKind::Rel {
                    cause: Cause::NormalClearing
                },
            })
            .dtap(),
            None
        );
    }

    #[test]
    fn wire_sizes_plausible() {
        let cmd = Message::Cmd(Command::PowerOn);
        assert_eq!(cmd.wire_size(), 1);
        let voice = Message::um(Dtap::VoiceFrame {
            call: CallId(1),
            seq: 0,
            origin_us: 0,
        });
        assert!(voice.wire_size() >= 40);
        let gtp_sig = Message::Gtp(GtpMessage::DeletePdpRequest {
            imsi: imsi(),
            nsapi: Nsapi::new(5).unwrap(),
        });
        assert_eq!(gtp_sig.wire_size(), 44);
    }

    #[test]
    fn isup_wire_size_is_the_encoded_length() {
        // Every kind the ladders emit, IAM with and without a calling
        // number: the size a send reads never builds the encoding.
        let kinds = [
            IsupKind::Iam {
                called: msisdn(),
                calling: Some(Msisdn::parse("886987654321").unwrap()),
            },
            IsupKind::Iam {
                called: msisdn(),
                calling: None,
            },
            IsupKind::Acm,
            IsupKind::Anm,
            IsupKind::Rel {
                cause: Cause::NormalClearing,
            },
            IsupKind::Rlc,
        ];
        for kind in kinds {
            let m = IsupMessage {
                cic: Cic(7),
                call: CallId(9),
                kind,
            };
            assert_eq!(m.encoded_len(), m.encode().len(), "{}", m.label());
            assert_eq!(Message::Isup(m.clone()).wire_size(), m.encode().len() + 5);
        }
    }
}
