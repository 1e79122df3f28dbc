//! One contract for every byte codec in vgprs-wire.
//!
//! Each codec is a [`Codec`]: its encoder, its decoder and a seeded
//! corpus. [`contract`] holds every codec to the same five properties:
//!
//! 1. the corpus holds every variant of the message, and no other: its
//!    variants are exactly `0..VARIANTS`. Each `variant` match has no
//!    wildcard arm, so a new message kind does not compile until it has a
//!    place, and then the corpus must hold it. A release's cause is part
//!    of its variant, so every `Cause::ALL` is carried;
//! 2. decode(encode(m)) == m;
//! 3. a framed encoding refuses every strict prefix and one appended
//!    byte; a fixed header refuses every prefix shorter than itself;
//! 4. seeded mutants of every corpus encoding (truncate, flip a bit,
//!    splice with another encoding, lie in a length byte, insert or
//!    delete a byte; one or two of these) never panic the decoder, and
//!    whatever it accepts re-encodes to the very bytes it read:
//!    encode(decode(b)) == b[..n], where n is the header's size for a
//!    fixed header and b.len() otherwise. Every decoder refuses what its
//!    encoder would not write, so no two inputs decode to one value;
//! 5. `encoded_len()` == `encode().len()`, where a codec has one (ISUP).
//!
//! Every input comes from a fixed `SimRng` seed, so a failure names a
//! reproducible case without a shrinker. Tests that pin one error value
//! or one spec constant stay beside each codec.

use std::fmt::Debug;
use std::panic::catch_unwind;

use vgprs_sim::SimRng;
use vgprs_wire::{
    CallId, Cause, CellId, Cic, Crv, DecodeMapError, GtpHeader, GtpMsgType, Imsi, Ipv4Addr,
    IsupKind, IsupMessage, MapMessage, Msisdn, Q931Kind, Q931Message, RtpPacket, TransportAddr,
};

/// Messages in a corpus, besides one release per cause.
const CORPUS: usize = 64;
/// Mutants fed to each decoder.
const MUTANTS: usize = 24_000;

/// What a decoder must refuse of a valid encoding.
enum Frame {
    /// The encoding carries its own length: every strict prefix and one
    /// appended byte are refused.
    Exact,
    /// A fixed header of this many bytes, which may front a payload:
    /// every shorter prefix is refused.
    Header(usize),
    /// A digit string or dotted quad, whose prefix or extension may spell
    /// another valid one.
    Text,
}

trait Codec: Sized + PartialEq + Debug {
    type Error: Debug;
    const FRAME: Frame;
    /// How many variants [`Codec::variant`] numbers.
    const VARIANTS: usize = 1;
    fn encode(&self) -> Vec<u8>;
    fn decode(bytes: &[u8]) -> Result<Self, Self::Error>;
    /// Messages of every variant, their fields drawn from `rng`.
    fn corpus(rng: &mut SimRng) -> Vec<Self>;
    /// The variant's place, below [`Codec::VARIANTS`]; a place at or
    /// past it fails the contract, so a count left too low shows.
    fn variant(&self) -> usize {
        0
    }
    fn encoded_len(&self) -> Option<usize> {
        None
    }
}

fn contract<C: Codec>(seed: u64) {
    let mut rng = SimRng::new(seed);
    let corpus = C::corpus(&mut rng);
    let mut held: Vec<usize> = corpus.iter().map(C::variant).collect();
    held.sort_unstable();
    held.dedup();
    assert_eq!(held, (0..C::VARIANTS).collect::<Vec<_>>(), "the corpus's variants");

    let encodings: Vec<Vec<u8>> = corpus.iter().map(C::encode).collect();
    for (m, b) in corpus.iter().zip(&encodings) {
        match C::decode(b) {
            Ok(d) => assert_eq!(&d, m, "{b:02x?}"),
            Err(e) => panic!("{m:?} does not decode from {b:02x?}: {e:?}"),
        }
        let refused = match C::FRAME {
            Frame::Exact => b.len(),
            Frame::Header(size) => size,
            Frame::Text => 0,
        };
        for cut in 0..refused {
            assert!(C::decode(&b[..cut]).is_err(), "prefix {cut} of {m:?} decoded");
        }
        if let Frame::Exact = C::FRAME {
            let long = [&b[..], &[0]].concat();
            assert!(C::decode(&long).is_err(), "{m:?} with a trailing byte decoded");
        }
        if let Some(len) = m.encoded_len() {
            assert_eq!(len, b.len(), "encoded_len of {m:?}");
        }
    }

    let mut accepted = 0;
    for i in 0..MUTANTS {
        let mut b = encodings[i % encodings.len()].clone();
        let donor = &encodings[rng.range(0, encodings.len() as u64) as usize];
        for _ in 0..rng.range(1, 3) {
            mutate(&mut rng, &mut b, donor);
        }
        let Ok(decoded) = catch_unwind(|| C::decode(&b)) else {
            panic!("mutant {i} of seed {seed:#x} panics the decoder: {b:02x?}");
        };
        if let Ok(d) = decoded {
            accepted += 1;
            let read = match C::FRAME {
                Frame::Header(size) => &b[..size],
                Frame::Exact | Frame::Text => &b[..],
            };
            assert_eq!(d.encode(), read, "mutant {i} of seed {seed:#x} decodes to {d:?}");
        }
    }
    // Uniform random bytes rarely pass a decoder's first check; mutants
    // of valid encodings must reach the paths behind it.
    assert!(accepted * 20 >= MUTANTS, "{accepted} of {MUTANTS} mutants decoded");
}

/// One seeded mutation of `b`; a splice takes its tail from `donor`.
fn mutate(rng: &mut SimRng, b: &mut Vec<u8>, donor: &[u8]) {
    let at = |rng: &mut SimRng, len: usize| rng.range(0, len as u64 + 1) as usize;
    let op = if b.is_empty() { 4 } else { rng.range(0, 6) };
    let i = rng.range(0, b.len().max(1) as u64) as usize;
    match op {
        0 => b.truncate(i),
        1 => b[i] ^= 1 << rng.range(0, 8),
        2 => {
            b.truncate(at(rng, b.len()));
            b.extend_from_slice(&donor[at(rng, donor.len())..]);
        }
        3 => {
            // A length byte that lies: nothing, one off either way of
            // what follows it, or everything.
            let rest = (b.len() - i - 1) as u8;
            b[i] = [0, rest.wrapping_sub(1), rest.wrapping_add(1), 0xFF][rng.range(0, 4) as usize];
        }
        4 => b.insert(at(rng, b.len()), rng.next_u32() as u8),
        _ => {
            b.remove(i);
        }
    }
}

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

fn rand_calling(rng: &mut SimRng) -> Option<Msisdn> {
    rng.chance(0.5).then(|| rand_msisdn(rng))
}

fn rand_transport(rng: &mut SimRng) -> TransportAddr {
    TransportAddr::new(Ipv4Addr(rng.next_u32()), rng.next_u32() as u16)
}

/// The cause's place in `Cause::ALL`.
fn cause_place(cause: Cause) -> usize {
    Cause::ALL.iter().position(|&c| c == cause).expect("Cause::ALL holds every cause")
}

impl Codec for GtpHeader {
    type Error = vgprs_wire::DecodeGtpError;
    const FRAME: Frame = Frame::Header(GtpHeader::SIZE);
    const VARIANTS: usize = 11;
    fn encode(&self) -> Vec<u8> {
        GtpHeader::encode(self).to_vec()
    }
    fn decode(bytes: &[u8]) -> Result<Self, Self::Error> {
        GtpHeader::decode(bytes)
    }
    fn corpus(rng: &mut SimRng) -> Vec<Self> {
        let types: Vec<GtpMsgType> = (0..=u8::MAX).filter_map(GtpMsgType::from_u8).collect();
        (0..CORPUS)
            .map(|i| GtpHeader {
                msg_type: types[i % types.len()],
                length: rng.next_u32() as u16,
                seq: rng.next_u32() as u16,
                flow: rng.next_u32() as u16,
                tid: rng.next_u64(),
            })
            .collect()
    }
    fn variant(&self) -> usize {
        match self.msg_type {
            GtpMsgType::EchoRequest => 0,
            GtpMsgType::EchoResponse => 1,
            GtpMsgType::CreatePdpContextRequest => 2,
            GtpMsgType::CreatePdpContextResponse => 3,
            GtpMsgType::UpdatePdpContextRequest => 4,
            GtpMsgType::UpdatePdpContextResponse => 5,
            GtpMsgType::DeletePdpContextRequest => 6,
            GtpMsgType::DeletePdpContextResponse => 7,
            GtpMsgType::PduNotificationRequest => 8,
            GtpMsgType::PduNotificationResponse => 9,
            GtpMsgType::TPdu => 10,
        }
    }
}

/// The header only: the payload is synthetic and its length, the call
/// and the origin time are simulation metadata, zero on both sides.
impl Codec for RtpPacket {
    type Error = vgprs_wire::DecodeRtpError;
    const FRAME: Frame = Frame::Header(RtpPacket::HEADER_SIZE);
    fn encode(&self) -> Vec<u8> {
        self.encode_header().to_vec()
    }
    fn decode(bytes: &[u8]) -> Result<Self, Self::Error> {
        RtpPacket::decode_header(bytes)
    }
    fn corpus(rng: &mut SimRng) -> Vec<Self> {
        (0..CORPUS)
            .map(|_| RtpPacket {
                ssrc: rng.next_u32(),
                seq: rng.next_u32() as u16,
                timestamp: rng.next_u32(),
                payload_type: rng.range(0, 128) as u8,
                marker: rng.chance(0.5),
                payload_len: 0,
                call: CallId(0),
                origin_us: 0,
            })
            .collect()
    }
}

impl Codec for Q931Message {
    type Error = vgprs_wire::DecodeQ931Error;
    const FRAME: Frame = Frame::Exact;
    const VARIANTS: usize = 4 + Cause::ALL.len();
    fn encode(&self) -> Vec<u8> {
        Q931Message::encode(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, Self::Error> {
        Q931Message::decode(bytes)
    }
    fn corpus(rng: &mut SimRng) -> Vec<Self> {
        let kinds: Vec<Q931Kind> = (0..CORPUS)
            .map(|i| match i % 4 {
                0 => Q931Kind::Setup {
                    calling: rand_calling(rng),
                    called: rand_msisdn(rng),
                    signal_addr: rand_transport(rng),
                    media_addr: rand_transport(rng),
                },
                1 => Q931Kind::CallProceeding,
                2 => Q931Kind::Alerting,
                _ => Q931Kind::Connect { media_addr: rand_transport(rng) },
            })
            .chain(Cause::ALL.map(|cause| Q931Kind::ReleaseComplete { cause }))
            .collect();
        kinds
            .into_iter()
            .map(|kind| Q931Message {
                crv: Crv(rng.next_u32() as u16),
                call: CallId(rng.next_u64()),
                kind,
            })
            .collect()
    }
    fn variant(&self) -> usize {
        match self.kind {
            Q931Kind::Setup { .. } => 0,
            Q931Kind::CallProceeding => 1,
            Q931Kind::Alerting => 2,
            Q931Kind::Connect { .. } => 3,
            Q931Kind::ReleaseComplete { cause } => 4 + cause_place(cause),
        }
    }
}

impl Codec for IsupMessage {
    type Error = vgprs_wire::DecodeIsupError;
    const FRAME: Frame = Frame::Exact;
    const VARIANTS: usize = 4 + Cause::ALL.len();
    fn encode(&self) -> Vec<u8> {
        IsupMessage::encode(self)
    }
    fn decode(bytes: &[u8]) -> Result<Self, Self::Error> {
        IsupMessage::decode(bytes)
    }
    fn corpus(rng: &mut SimRng) -> Vec<Self> {
        let kinds: Vec<IsupKind> = (0..CORPUS)
            .map(|i| match i % 4 {
                0 => IsupKind::Iam { called: rand_msisdn(rng), calling: rand_calling(rng) },
                1 => IsupKind::Acm,
                2 => IsupKind::Anm,
                _ => IsupKind::Rlc,
            })
            .chain(Cause::ALL.map(|cause| IsupKind::Rel { cause }))
            .collect();
        kinds
            .into_iter()
            .map(|kind| IsupMessage {
                cic: Cic(rng.next_u32() as u16),
                call: CallId(rng.next_u64()),
                kind,
            })
            .collect()
    }
    fn variant(&self) -> usize {
        match self.kind {
            IsupKind::Iam { .. } => 0,
            IsupKind::Acm => 1,
            IsupKind::Anm => 2,
            IsupKind::Rlc => 3,
            IsupKind::Rel { cause } => 4 + cause_place(cause),
        }
    }
    fn encoded_len(&self) -> Option<usize> {
        Some(IsupMessage::encoded_len(self))
    }
}

/// The E-interface handover subset of Figure 9; every other operation
/// stays in memory (`map_non_handover_ops_stay_in_memory`).
impl Codec for MapMessage {
    type Error = DecodeMapError;
    const FRAME: Frame = Frame::Exact;
    const VARIANTS: usize = 4;
    fn encode(&self) -> Vec<u8> {
        self.encode_handover().expect("the corpus is the handover subset")
    }
    fn decode(bytes: &[u8]) -> Result<Self, Self::Error> {
        MapMessage::decode_handover(bytes)
    }
    fn corpus(rng: &mut SimRng) -> Vec<Self> {
        (0..CORPUS)
            .map(|i| {
                let call = CallId(rng.next_u64());
                match i % Self::VARIANTS {
                    0 => MapMessage::PrepareHandover {
                        call,
                        imsi: rand_imsi(rng),
                        cell: CellId(rng.next_u32() as u16),
                    },
                    1 => MapMessage::PrepareHandoverAck {
                        call,
                        cic: Cic(rng.next_u32() as u16),
                        ho_ref: rng.next_u32(),
                    },
                    2 => MapMessage::SendEndSignal { call },
                    _ => MapMessage::SendEndSignalAck { call },
                }
            })
            .collect()
    }
    fn variant(&self) -> usize {
        use MapMessage as M;
        match self {
            M::PrepareHandover { .. } => 0,
            M::PrepareHandoverAck { .. } => 1,
            M::SendEndSignal { .. } => 2,
            M::SendEndSignalAck { .. } => 3,
            M::UpdateLocationArea { .. } | M::UpdateLocationAreaAck { .. }
            | M::UpdateLocationAreaReject { .. } | M::ProcessAccessRequest { .. }
            | M::ProcessAccessRequestAck { .. } | M::SendAuthenticationInfo { .. }
            | M::SendAuthenticationInfoAck { .. } | M::UpdateLocation { .. }
            | M::UpdateLocationAck { .. } | M::UpdateLocationReject { .. }
            | M::InsertSubsData { .. } | M::InsertSubsDataAck { .. } | M::Authenticate { .. }
            | M::AuthenticateAck { .. } | M::StartCiphering { .. } | M::StartCipheringAck { .. }
            | M::SendInfoForIncomingCall { .. } | M::SendInfoForIncomingCallAck { .. }
            | M::UpdateGprsLocation { .. } | M::UpdateGprsLocationAck { .. }
            | M::CancelLocation { .. } | M::PurgeMs { .. } | M::CancelLocationAck { .. }
            | M::SendInfoForOutgoingCall { .. } | M::SendInfoForOutgoingCallAck { .. }
            | M::SendRoutingInformation { .. } | M::SendRoutingInformationAck { .. }
            | M::ProvideRoamingNumber { .. } | M::ProvideRoamingNumberAck { .. } => {
                unreachable!("{} has no wire form", self.label())
            }
        }
    }
}

/// An identity in its string form: `Display` encodes, `FromStr` on UTF-8
/// decodes.
macro_rules! text_codec {
    ($id:ty, $rand:expr) => {
        impl Codec for $id {
            type Error = String;
            const FRAME: Frame = Frame::Text;
                    fn encode(&self) -> Vec<u8> {
                self.to_string().into_bytes()
            }
            fn decode(bytes: &[u8]) -> Result<Self, String> {
                let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
                text.parse().map_err(|e: vgprs_wire::ParseIdError| e.to_string())
            }
            fn corpus(rng: &mut SimRng) -> Vec<Self> {
                (0..CORPUS).map(|_| $rand(rng)).collect()
            }
        }
    };
}

text_codec!(Msisdn, rand_msisdn);
text_codec!(Imsi, rand_imsi);
text_codec!(Ipv4Addr, |rng: &mut SimRng| Ipv4Addr(rng.next_u32()));

#[test]
fn gtp_header_roundtrip() {
    contract::<GtpHeader>(0x617);
}

#[test]
fn rtp_header_roundtrip() {
    contract::<RtpPacket>(0x619);
}

#[test]
fn q931_roundtrip() {
    contract::<Q931Message>(0x61B);
}

#[test]
fn isup_roundtrip() {
    contract::<IsupMessage>(0x61E);
}

#[test]
fn map_handover_roundtrip() {
    contract::<MapMessage>(0x623);
}

#[test]
fn msisdn_parse_display_roundtrip() {
    contract::<Msisdn>(0x620);
}

#[test]
fn imsi_parse_display_roundtrip() {
    contract::<Imsi>(0x621);
}

#[test]
fn ipv4_parse_display_roundtrip() {
    contract::<Ipv4Addr>(0x622);
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
fn map_non_handover_ops_stay_in_memory() {
    let m = MapMessage::CancelLocation {
        imsi: Imsi::parse("466920123456789").expect("valid"),
    };
    assert_eq!(m.encode_handover(), None);
}

#[test]
fn cause_q850_roundtrip() {
    for c in Cause::ALL {
        assert_eq!(Cause::from_q850(c.q850_value()), Some(c));
    }
}
