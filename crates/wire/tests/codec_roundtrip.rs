//! Randomized round-trip tests for every binary codec in vgprs-wire.
//!
//! Formerly proptest properties; now seeded-loop tests driven by
//! [`SimRng`] so the crate builds fully offline. Each test runs a few
//! hundred random cases derived from a fixed seed, which keeps failures
//! reproducible without an external shrinker.

use vgprs_sim::SimRng;
use vgprs_wire::{
    CallId, Cause, CellId, Cic, Crv, DecodeMapError, GtpHeader, GtpMsgType, Imsi, Ipv4Addr,
    IsupKind, IsupMessage, MapMessage, Msisdn, Q931Kind, Q931Message, RtpPacket, TransportAddr,
};

const CASES: usize = 300;

fn rand_digits(rng: &mut SimRng, lo: usize, hi: usize) -> String {
    let len = rng.range(lo as u64, hi as u64 + 1) as usize;
    (0..len)
        .map(|_| char::from(b'0' + rng.range(0, 10) as u8))
        .collect()
}

fn rand_msisdn(rng: &mut SimRng) -> Msisdn {
    Msisdn::parse(&rand_digits(rng, 5, 15)).expect("generated digits are valid")
}

fn rand_imsi(rng: &mut SimRng) -> Imsi {
    Imsi::parse(&rand_digits(rng, 14, 15)).expect("generated digits are valid")
}

fn rand_transport(rng: &mut SimRng) -> TransportAddr {
    TransportAddr::new(Ipv4Addr(rng.next_u32()), rng.next_u32() as u16)
}

fn rand_cause(rng: &mut SimRng) -> Cause {
    Cause::ALL[rng.range(0, Cause::ALL.len() as u64) as usize]
}

fn rand_gtp_type(rng: &mut SimRng) -> GtpMsgType {
    const TYPES: &[GtpMsgType] = &[
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
    ];
    TYPES[rng.range(0, TYPES.len() as u64) as usize]
}

fn rand_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.range(0, max_len as u64) as usize;
    (0..len).map(|_| rng.range(0, 256) as u8).collect()
}

#[test]
fn gtp_header_roundtrip() {
    let mut rng = SimRng::new(0x617);
    for _ in 0..CASES {
        let h = GtpHeader {
            msg_type: rand_gtp_type(&mut rng),
            length: rng.next_u32() as u16,
            seq: rng.next_u32() as u16,
            flow: rng.next_u32() as u16,
            tid: rng.next_u64(),
        };
        let decoded = GtpHeader::decode(&h.encode()).expect("well-formed header decodes");
        assert_eq!(decoded, h);
    }
}

#[test]
fn gtp_decode_never_panics() {
    let mut rng = SimRng::new(0x618);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 64);
        let _ = GtpHeader::decode(&bytes);
    }
}

#[test]
fn rtp_header_roundtrip() {
    let mut rng = SimRng::new(0x619);
    for _ in 0..CASES {
        let p = RtpPacket {
            ssrc: rng.next_u32(),
            seq: rng.next_u32() as u16,
            timestamp: rng.next_u32(),
            payload_type: rng.range(0, 128) as u8,
            marker: rng.chance(0.5),
            payload_len: 33,
            call: CallId(0),
            origin_us: 0,
        };
        let d = RtpPacket::decode_header(&p.encode_header()).expect("decodes");
        assert_eq!(d.ssrc, p.ssrc);
        assert_eq!(d.seq, p.seq);
        assert_eq!(d.timestamp, p.timestamp);
        assert_eq!(d.payload_type, p.payload_type);
        assert_eq!(d.marker, p.marker);
    }
}

#[test]
fn rtp_decode_never_panics() {
    let mut rng = SimRng::new(0x61A);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 32);
        let _ = RtpPacket::decode_header(&bytes);
    }
}

#[test]
fn q931_setup_roundtrip() {
    let mut rng = SimRng::new(0x61B);
    for _ in 0..CASES {
        let calling = if rng.chance(0.5) {
            Some(rand_msisdn(&mut rng))
        } else {
            None
        };
        let m = Q931Message {
            crv: Crv(rng.next_u32() as u16),
            call: CallId(rng.next_u64()),
            kind: Q931Kind::Setup {
                calling,
                called: rand_msisdn(&mut rng),
                signal_addr: rand_transport(&mut rng),
                media_addr: rand_transport(&mut rng),
            },
        };
        assert_eq!(Q931Message::decode(&m.encode()).expect("decodes"), m);
    }
}

#[test]
fn q931_other_kinds_roundtrip() {
    let mut rng = SimRng::new(0x61C);
    for _ in 0..CASES {
        let kind = match rng.range(0, 4) {
            0 => Q931Kind::CallProceeding,
            1 => Q931Kind::Alerting,
            2 => Q931Kind::Connect {
                media_addr: rand_transport(&mut rng),
            },
            _ => Q931Kind::ReleaseComplete {
                cause: rand_cause(&mut rng),
            },
        };
        let m = Q931Message {
            crv: Crv(rng.next_u32() as u16),
            call: CallId(rng.next_u64()),
            kind,
        };
        assert_eq!(Q931Message::decode(&m.encode()).expect("decodes"), m);
    }
}

#[test]
fn q931_decode_never_panics() {
    let mut rng = SimRng::new(0x61D);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 96);
        let _ = Q931Message::decode(&bytes);
    }
}

#[test]
fn isup_roundtrip() {
    let mut rng = SimRng::new(0x61E);
    for _ in 0..CASES {
        let kind = match rng.range(0, 5) {
            0 => {
                let calling = if rng.chance(0.5) {
                    Some(rand_msisdn(&mut rng))
                } else {
                    None
                };
                IsupKind::Iam {
                    called: rand_msisdn(&mut rng),
                    calling,
                }
            }
            1 => IsupKind::Acm,
            2 => IsupKind::Anm,
            3 => IsupKind::Rel {
                cause: rand_cause(&mut rng),
            },
            _ => IsupKind::Rlc,
        };
        let m = IsupMessage {
            cic: Cic(rng.next_u32() as u16),
            call: CallId(rng.next_u64()),
            kind,
        };
        assert_eq!(IsupMessage::decode(&m.encode()).expect("decodes"), m);
    }
}

#[test]
fn isup_decode_never_panics() {
    let mut rng = SimRng::new(0x61F);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 64);
        let _ = IsupMessage::decode(&bytes);
    }
}

fn rand_map_handover(rng: &mut SimRng) -> MapMessage {
    match rng.range(0, 4) {
        0 => MapMessage::PrepareHandover {
            call: CallId(rng.next_u64()),
            imsi: rand_imsi(rng),
            cell: CellId(rng.next_u32() as u16),
        },
        1 => MapMessage::PrepareHandoverAck {
            call: CallId(rng.next_u64()),
            cic: Cic(rng.next_u32() as u16),
            ho_ref: rng.next_u32(),
        },
        2 => MapMessage::SendEndSignal {
            call: CallId(rng.next_u64()),
        },
        _ => MapMessage::SendEndSignalAck {
            call: CallId(rng.next_u64()),
        },
    }
}

#[test]
fn map_handover_roundtrip() {
    let mut rng = SimRng::new(0x623);
    for _ in 0..CASES {
        let m = rand_map_handover(&mut rng);
        let bytes = m.encode_handover().expect("handoff subset encodes");
        assert_eq!(MapMessage::decode_handover(&bytes).expect("decodes"), m);
    }
}

#[test]
fn map_handover_decode_rejects_truncation() {
    // Every strict prefix of every handoff operation must fail to
    // decode — a short SS7 read can never yield a phantom operation.
    let mut rng = SimRng::new(0x624);
    for _ in 0..32 {
        let m = rand_map_handover(&mut rng);
        let b = m.encode_handover().expect("encodes");
        for cut in 0..b.len() {
            assert!(
                MapMessage::decode_handover(&b[..cut]).is_err(),
                "prefix {cut} of {m:?} decoded"
            );
        }
    }
}

#[test]
fn map_handover_decode_rejects_trailing_bytes() {
    let m = MapMessage::SendEndSignal { call: CallId(7) };
    let mut b = m.encode_handover().expect("encodes");
    b.push(0);
    assert_eq!(
        MapMessage::decode_handover(&b),
        Err(DecodeMapError::TrailingBytes(1))
    );
}

#[test]
fn map_handover_decode_never_panics() {
    let mut rng = SimRng::new(0x625);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 64);
        let _ = MapMessage::decode_handover(&bytes);
    }
}

#[test]
fn map_non_handover_ops_stay_in_memory() {
    let m = MapMessage::CancelLocation {
        imsi: Imsi::parse("466920123456789").expect("valid"),
    };
    assert_eq!(m.encode_handover(), None);
}

#[test]
fn gtp_update_pdp_decode_rejects_truncation() {
    // The PDP-context update exchanged when a handed-off subscriber's
    // bearer moves: every strict prefix of the header must fail.
    for msg_type in [
        GtpMsgType::UpdatePdpContextRequest,
        GtpMsgType::UpdatePdpContextResponse,
    ] {
        let h = GtpHeader {
            msg_type,
            length: 12,
            seq: 7,
            flow: 9,
            tid: 0xDEAD_BEEF_CAFE_F00D,
        };
        let b = h.encode();
        for cut in 0..b.len() {
            assert!(
                GtpHeader::decode(&b[..cut]).is_err(),
                "prefix {cut} of {msg_type:?} decoded"
            );
        }
        assert_eq!(GtpHeader::decode(&b).expect("full header decodes"), h);
    }
}

#[test]
fn msisdn_parse_display_roundtrip() {
    let mut rng = SimRng::new(0x620);
    for _ in 0..CASES {
        let m = rand_msisdn(&mut rng);
        let s = m.to_string();
        assert_eq!(Msisdn::parse(&s).expect("reparse"), m);
    }
}

#[test]
fn imsi_parse_display_roundtrip() {
    let mut rng = SimRng::new(0x621);
    for _ in 0..CASES {
        let i = rand_imsi(&mut rng);
        let s = i.to_string();
        assert_eq!(Imsi::parse(&s).expect("reparse"), i);
    }
}

#[test]
fn ipv4_parse_display_roundtrip() {
    let mut rng = SimRng::new(0x622);
    for _ in 0..CASES {
        let ip = Ipv4Addr(rng.next_u32());
        let reparsed: Ipv4Addr = ip.to_string().parse().expect("reparse");
        assert_eq!(reparsed, ip);
    }
}

#[test]
fn cause_q850_roundtrip() {
    for c in Cause::ALL {
        assert_eq!(Cause::from_q850(c.q850_value()), Some(c));
    }
}
