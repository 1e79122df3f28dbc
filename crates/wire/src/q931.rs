//! Q.931 call-signaling messages (as profiled by H.225.0), with a binary
//! TLV codec.
//!
//! H.323 carries Q.931 messages on the call-signaling channel; the paper's
//! Figures 5–6 are sequences of exactly these messages. The codec encodes
//! the subset the flows use: Setup, Call Proceeding, Alerting, Connect and
//! Release Complete, each with the information elements required by the
//! reproduction (numbers, cause, transport addresses, call correlation).


use crate::cause::Cause;
use crate::ids::{CallId, Crv, Ipv4Addr, Msisdn, TransportAddr};

/// Q.931 protocol discriminator for user-network call control.
const DISCRIMINATOR: u8 = 0x08;

/// IE identifiers used by the codec.
mod ie {
    /// Cause (Q.931 §4.5.12).
    pub const CAUSE: u8 = 0x08;
    /// Calling party number (§4.5.10).
    pub const CALLING: u8 = 0x6C;
    /// Called party number (§4.5.8).
    pub const CALLED: u8 = 0x70;
    /// User-user (§4.5.30) — carries the H.225 correlation (call id).
    pub const USER_USER: u8 = 0x7E;
    /// Locally assigned IE carrying an H.225 transport address.
    pub const TRANSPORT: u8 = 0x60;
}

/// The message-type dependent content.
#[derive(Clone, Debug, PartialEq)]
pub enum Q931Kind {
    /// Call establishment request (H.225 Setup with fast-connect media).
    Setup {
        /// Calling party, when presentable.
        calling: Option<Msisdn>,
        /// Called party.
        called: Msisdn,
        /// Where the caller listens for call signaling.
        signal_addr: TransportAddr,
        /// Where the caller wants RTP media delivered.
        media_addr: TransportAddr,
    },
    /// Enough routing information has been received (paper step 2.4).
    CallProceeding,
    /// The called user is being alerted (step 2.6).
    Alerting,
    /// The called user answered; carries the answerer's media address.
    Connect {
        /// Where the answerer wants RTP media delivered.
        media_addr: TransportAddr,
    },
    /// Call clearing (single-step H.225 release, paper step 3.2).
    ReleaseComplete {
        /// Clearing cause.
        cause: Cause,
    },
}

impl Q931Kind {
    /// Q.931 message-type octet.
    pub fn type_code(&self) -> u8 {
        match self {
            Q931Kind::Alerting => 0x01,
            Q931Kind::CallProceeding => 0x02,
            Q931Kind::Setup { .. } => 0x05,
            Q931Kind::Connect { .. } => 0x07,
            Q931Kind::ReleaseComplete { .. } => 0x5A,
        }
    }
}

/// A complete Q.931 message.
#[derive(Clone, Debug, PartialEq)]
pub struct Q931Message {
    /// Call reference value on this signaling interface.
    pub crv: Crv,
    /// Scenario-level call correlation id (carried in the user-user IE).
    pub call: CallId,
    /// Message content.
    pub kind: Q931Kind,
}

impl Q931Message {
    /// Trace label, e.g. `Q931_Setup`.
    pub fn label(&self) -> &'static str {
        match self.kind {
            Q931Kind::Setup { .. } => "Q931_Setup",
            Q931Kind::CallProceeding => "Q931_Call_Proceeding",
            Q931Kind::Alerting => "Q931_Alerting",
            Q931Kind::Connect { .. } => "Q931_Connect",
            Q931Kind::ReleaseComplete { .. } => "Q931_Release_Complete",
        }
    }

    /// Encodes the message into its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.push(DISCRIMINATOR);
        out.push(2); // call reference length
        out.extend_from_slice(&self.crv.0.to_be_bytes());
        out.push(self.kind.type_code());
        push_ie(&mut out, ie::USER_USER, &self.call.0.to_be_bytes());
        match &self.kind {
            Q931Kind::Setup {
                calling,
                called,
                signal_addr,
                media_addr,
            } => {
                if let Some(c) = calling {
                    push_number(&mut out, ie::CALLING, c);
                }
                push_number(&mut out, ie::CALLED, called);
                push_transport(&mut out, 1, signal_addr);
                push_transport(&mut out, 2, media_addr);
            }
            Q931Kind::Connect { media_addr } => {
                push_transport(&mut out, 2, media_addr);
            }
            Q931Kind::ReleaseComplete { cause } => {
                push_ie(&mut out, ie::CAUSE, &[0x80, 0x80 | cause.q850_value()]);
            }
            Q931Kind::CallProceeding | Q931Kind::Alerting => {}
        }
        out
    }

    /// Decodes a message from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeQ931Error`] on malformed input, and
    /// [`DecodeQ931Error::NonCanonical`] on bytes that
    /// [`encode`](Self::encode) would not write: a repeated element, one
    /// its message type does not carry, or one out of order.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeQ931Error> {
        if bytes.len() < 5 {
            return Err(DecodeQ931Error::Truncated);
        }
        if bytes[0] != DISCRIMINATOR {
            return Err(DecodeQ931Error::BadDiscriminator(bytes[0]));
        }
        if bytes[1] != 2 {
            return Err(DecodeQ931Error::BadCallReference);
        }
        let crv = Crv(u16::from_be_bytes([bytes[2], bytes[3]]));
        let type_code = bytes[4];

        let mut calling = None;
        let mut called = None;
        let mut cause = None;
        let mut call = None;
        let mut signal_addr = None;
        let mut media_addr = None;

        let mut rest = &bytes[5..];
        while !rest.is_empty() {
            if rest.len() < 2 {
                return Err(DecodeQ931Error::Truncated);
            }
            let (id, len) = (rest[0], rest[1] as usize);
            if rest.len() < 2 + len {
                return Err(DecodeQ931Error::Truncated);
            }
            let body = &rest[2..2 + len];
            match id {
                ie::CALLING => calling = Some(parse_number(body)?),
                ie::CALLED => called = Some(parse_number(body)?),
                ie::CAUSE => {
                    if len != 2 {
                        return Err(DecodeQ931Error::BadIe("cause"));
                    }
                    cause = Some(
                        Cause::from_q850(body[1] & 0x7F)
                            .ok_or(DecodeQ931Error::BadIe("cause value"))?,
                    );
                }
                ie::USER_USER => {
                    if len != 8 {
                        return Err(DecodeQ931Error::BadIe("user-user"));
                    }
                    call = Some(CallId(u64::from_be_bytes(
                        body.try_into().expect("length checked"),
                    )));
                }
                ie::TRANSPORT => {
                    if len != 7 {
                        return Err(DecodeQ931Error::BadIe("transport"));
                    }
                    let addr = TransportAddr::new(
                        Ipv4Addr::from_octets(body[1], body[2], body[3], body[4]),
                        u16::from_be_bytes([body[5], body[6]]),
                    );
                    match body[0] {
                        1 => signal_addr = Some(addr),
                        2 => media_addr = Some(addr),
                        _ => return Err(DecodeQ931Error::BadIe("transport tag")),
                    }
                }
                _ => return Err(DecodeQ931Error::UnknownIe(id)),
            }
            rest = &rest[2 + len..];
        }

        let call = call.ok_or(DecodeQ931Error::MissingIe("user-user"))?;
        let kind = match type_code {
            0x05 => Q931Kind::Setup {
                calling,
                called: called.ok_or(DecodeQ931Error::MissingIe("called party"))?,
                signal_addr: signal_addr.ok_or(DecodeQ931Error::MissingIe("signal address"))?,
                media_addr: media_addr.ok_or(DecodeQ931Error::MissingIe("media address"))?,
            },
            0x02 => Q931Kind::CallProceeding,
            0x01 => Q931Kind::Alerting,
            0x07 => Q931Kind::Connect {
                media_addr: media_addr.ok_or(DecodeQ931Error::MissingIe("media address"))?,
            },
            0x5A => Q931Kind::ReleaseComplete {
                cause: cause.ok_or(DecodeQ931Error::MissingIe("cause"))?,
            },
            other => return Err(DecodeQ931Error::UnknownMessageType(other)),
        };
        let m = Q931Message { crv, call, kind };
        if m.encode() != bytes {
            return Err(DecodeQ931Error::NonCanonical);
        }
        Ok(m)
    }
}

fn push_ie(out: &mut Vec<u8>, id: u8, body: &[u8]) {
    debug_assert!(body.len() <= u8::MAX as usize);
    out.push(id);
    out.push(body.len() as u8);
    out.extend_from_slice(body);
}

fn push_number(out: &mut Vec<u8>, id: u8, number: &Msisdn) {
    let digits = number.digits();
    let mut body = Vec::with_capacity(1 + digits.len());
    body.push(0x81); // international number, ISDN plan
    body.extend_from_slice(digits.as_bytes());
    push_ie(out, id, &body);
}

fn push_transport(out: &mut Vec<u8>, tag: u8, addr: &TransportAddr) {
    let [a, b, c, d] = addr.ip.octets();
    let p = addr.port.to_be_bytes();
    push_ie(out, ie::TRANSPORT, &[tag, a, b, c, d, p[0], p[1]]);
}

fn parse_number(body: &[u8]) -> Result<Msisdn, DecodeQ931Error> {
    if body.len() < 2 {
        return Err(DecodeQ931Error::BadIe("number too short"));
    }
    let digits =
        std::str::from_utf8(&body[1..]).map_err(|_| DecodeQ931Error::BadIe("number digits"))?;
    Msisdn::parse(digits).map_err(|_| DecodeQ931Error::BadIe("number digits"))
}

/// Errors from [`Q931Message::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeQ931Error {
    /// Input ended before the structure was complete.
    Truncated,
    /// First octet was not the Q.931 discriminator.
    BadDiscriminator(u8),
    /// Call reference length was not the 2 bytes this profile uses.
    BadCallReference,
    /// Message-type octet not in the supported subset.
    UnknownMessageType(u8),
    /// An information element id the codec does not know.
    UnknownIe(u8),
    /// A required information element was absent.
    MissingIe(&'static str),
    /// An information element was present but malformed.
    BadIe(&'static str),
    /// Well-formed elements that [`Q931Message::encode`] would not write
    /// as they stand.
    NonCanonical,
}

impl std::fmt::Display for DecodeQ931Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeQ931Error::Truncated => write!(f, "Q.931 message truncated"),
            DecodeQ931Error::BadDiscriminator(d) => {
                write!(f, "bad Q.931 protocol discriminator {d:#04x}")
            }
            DecodeQ931Error::BadCallReference => write!(f, "unsupported call reference length"),
            DecodeQ931Error::UnknownMessageType(t) => {
                write!(f, "unknown Q.931 message type {t:#04x}")
            }
            DecodeQ931Error::UnknownIe(id) => write!(f, "unknown information element {id:#04x}"),
            DecodeQ931Error::MissingIe(name) => write!(f, "missing information element: {name}"),
            DecodeQ931Error::BadIe(name) => write!(f, "malformed information element: {name}"),
            DecodeQ931Error::NonCanonical => write!(f, "Q.931 message not in canonical form"),
        }
    }
}

impl std::error::Error for DecodeQ931Error {}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8, port: u16) -> TransportAddr {
        TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, last), port)
    }

    fn setup() -> Q931Message {
        Q931Message {
            crv: Crv(42),
            call: CallId(777),
            kind: Q931Kind::Setup {
                calling: Some(Msisdn::parse("88612345678").unwrap()),
                called: Msisdn::parse("85291234567").unwrap(),
                signal_addr: addr(5, 1720),
                media_addr: addr(5, 30_000),
            },
        }
    }

    #[test]
    fn labels() {
        assert_eq!(setup().label(), "Q931_Setup");
        let rc = Q931Message {
            crv: Crv(0),
            call: CallId(0),
            kind: Q931Kind::ReleaseComplete {
                cause: Cause::NormalClearing,
            },
        };
        assert_eq!(rc.label(), "Q931_Release_Complete");
    }

    #[test]
    fn decode_rejects_bad_discriminator() {
        let mut b = setup().encode();
        b[0] = 0x09;
        assert_eq!(
            Q931Message::decode(&b),
            Err(DecodeQ931Error::BadDiscriminator(0x09))
        );
    }

    #[test]
    fn decode_rejects_unknown_message_type() {
        let mut b = setup().encode();
        b[4] = 0x33;
        assert_eq!(
            Q931Message::decode(&b),
            Err(DecodeQ931Error::UnknownMessageType(0x33))
        );
    }

    #[test]
    fn decode_requires_called_number_in_setup() {
        // Build a Setup with only the user-user IE.
        let mut b = vec![DISCRIMINATOR, 2, 0, 1, 0x05];
        b.extend_from_slice(&[ie::USER_USER, 8, 0, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(
            Q931Message::decode(&b),
            Err(DecodeQ931Error::MissingIe("called party"))
        );
    }

    #[test]
    fn decode_refuses_a_sixteen_digit_number() {
        // One digit past E.164's fifteen is a malformed element, not a
        // panic.
        let mut b = vec![DISCRIMINATOR, 2, 0, 1, 0x05];
        b.extend_from_slice(&[ie::USER_USER, 8, 0, 0, 0, 0, 0, 0, 0, 9]);
        b.extend_from_slice(&[ie::CALLED, 17, 0x81]);
        b.extend_from_slice(b"8529123456789012");
        assert_eq!(
            Q931Message::decode(&b),
            Err(DecodeQ931Error::BadIe("number digits"))
        );
    }

    #[test]
    fn decode_rejects_unknown_ie() {
        let mut b = setup().encode();
        b.extend_from_slice(&[0x55, 1, 0]);
        assert_eq!(Q931Message::decode(&b), Err(DecodeQ931Error::UnknownIe(0x55)));
    }

    /// A second user-user element would rebind the message to another
    /// call, and a calling number or a cause is not a Connect's to carry:
    /// each is refused, not decoded as a plain Connect.
    #[test]
    fn decode_refuses_repeated_and_foreign_ies() {
        let connect = Q931Message {
            crv: Crv(1),
            call: CallId(2),
            kind: Q931Kind::Connect {
                media_addr: addr(5, 30_000),
            },
        }
        .encode();
        let with = |ie: &[u8]| Q931Message::decode(&[&connect[..], ie].concat());
        let second_call = [ie::USER_USER, 8, 0, 0, 0, 0, 0, 0, 0, 9];
        let calling = [&[ie::CALLING, 12, 0x81][..], b"88620001111"].concat();
        let cause = [ie::CAUSE, 2, 0x80, 0x90];
        for extra in [&second_call[..], &calling, &cause] {
            assert_eq!(with(extra), Err(DecodeQ931Error::NonCanonical), "{extra:02x?}");
        }
    }

    #[test]
    fn type_codes_match_q931() {
        assert_eq!(Q931Kind::Alerting.type_code(), 0x01);
        assert_eq!(Q931Kind::CallProceeding.type_code(), 0x02);
        assert_eq!(
            Q931Kind::ReleaseComplete {
                cause: Cause::NormalClearing
            }
            .type_code(),
            0x5A
        );
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            DecodeQ931Error::Truncated,
            DecodeQ931Error::BadDiscriminator(1),
            DecodeQ931Error::BadCallReference,
            DecodeQ931Error::UnknownMessageType(9),
            DecodeQ931Error::UnknownIe(9),
            DecodeQ931Error::MissingIe("x"),
            DecodeQ931Error::BadIe("x"),
            DecodeQ931Error::NonCanonical,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
