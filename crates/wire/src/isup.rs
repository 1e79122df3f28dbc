//! SS7 ISDN User Part (ISUP) trunk signaling between telephone switches,
//! with a binary codec for the message subset the PSTN substrate uses.


use crate::cause::Cause;
use crate::ids::{CallId, Cic, Msisdn};

/// ISUP message kinds used by call setup and release.
#[derive(Clone, Debug, PartialEq)]
pub enum IsupKind {
    /// Initial Address Message: seizes a circuit and carries the digits.
    Iam {
        /// Called number.
        called: Msisdn,
        /// Calling number, when presentable.
        calling: Option<Msisdn>,
    },
    /// Address Complete Message: the far end is ringing.
    Acm,
    /// Answer Message: the far end answered.
    Anm,
    /// Release: clears the call.
    Rel {
        /// Clearing cause.
        cause: Cause,
    },
    /// Release Complete: circuit is idle again.
    Rlc,
}

impl IsupKind {
    /// ISUP message-type octet (Q.763 table 4).
    pub fn type_code(&self) -> u8 {
        match self {
            IsupKind::Iam { .. } => 0x01,
            IsupKind::Acm => 0x06,
            IsupKind::Anm => 0x09,
            IsupKind::Rel { .. } => 0x0C,
            IsupKind::Rlc => 0x10,
        }
    }
}

/// A complete ISUP message on one circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct IsupMessage {
    /// The circuit this message controls.
    pub cic: Cic,
    /// Scenario-level call correlation id.
    pub call: CallId,
    /// Message content.
    pub kind: IsupKind,
}

impl IsupMessage {
    /// Trace label, e.g. `ISUP_IAM`.
    pub fn label(&self) -> &'static str {
        match self.kind {
            IsupKind::Iam { .. } => "ISUP_IAM",
            IsupKind::Acm => "ISUP_ACM",
            IsupKind::Anm => "ISUP_ANM",
            IsupKind::Rel { .. } => "ISUP_REL",
            IsupKind::Rlc => "ISUP_RLC",
        }
    }

    /// Encodes to wire form: CIC (2), type (1), call id (8), then
    /// type-specific parameters.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&self.cic.0.to_be_bytes());
        out.push(self.kind.type_code());
        out.extend_from_slice(&self.call.0.to_be_bytes());
        match &self.kind {
            IsupKind::Iam { called, calling } => {
                let called = called.digits();
                out.push(called.len() as u8);
                out.extend_from_slice(called.as_bytes());
                match calling {
                    Some(c) => {
                        let c = c.digits();
                        out.push(c.len() as u8);
                        out.extend_from_slice(c.as_bytes());
                    }
                    None => out.push(0),
                }
            }
            IsupKind::Rel { cause } => out.push(cause.q850_value()),
            IsupKind::Acm | IsupKind::Anm | IsupKind::Rlc => {}
        }
        out
    }

    /// The length of [`encode`](Self::encode)'s output, without building
    /// it.
    pub fn encoded_len(&self) -> usize {
        11 + match &self.kind {
            IsupKind::Iam { called, calling } => {
                2 + called.digits().len() + calling.as_ref().map_or(0, |c| c.digits().len())
            }
            IsupKind::Rel { .. } => 1,
            IsupKind::Acm | IsupKind::Anm | IsupKind::Rlc => 0,
        }
    }

    /// Decodes from wire form.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeIsupError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeIsupError> {
        if bytes.len() < 11 {
            return Err(DecodeIsupError::Truncated);
        }
        let cic = Cic(u16::from_be_bytes([bytes[0], bytes[1]]));
        let type_code = bytes[2];
        let call = CallId(u64::from_be_bytes(
            bytes[3..11].try_into().expect("length checked"),
        ));
        let rest = &bytes[11..];
        let kind = match type_code {
            0x01 => {
                let (called, rest) = take_number(rest)?;
                let called = called.ok_or(DecodeIsupError::BadParameter("called number"))?;
                let (calling, rest) = take_number(rest)?;
                if !rest.is_empty() {
                    return Err(DecodeIsupError::TrailingBytes(rest.len()));
                }
                IsupKind::Iam { called, calling }
            }
            0x06 => expect_empty(rest, IsupKind::Acm)?,
            0x09 => expect_empty(rest, IsupKind::Anm)?,
            0x0C => {
                if rest.len() != 1 {
                    return Err(DecodeIsupError::BadParameter("cause"));
                }
                IsupKind::Rel {
                    cause: Cause::from_q850(rest[0])
                        .ok_or(DecodeIsupError::BadParameter("cause value"))?,
                }
            }
            0x10 => expect_empty(rest, IsupKind::Rlc)?,
            other => return Err(DecodeIsupError::UnknownMessageType(other)),
        };
        Ok(IsupMessage { cic, call, kind })
    }
}

fn expect_empty(rest: &[u8], kind: IsupKind) -> Result<IsupKind, DecodeIsupError> {
    if rest.is_empty() {
        Ok(kind)
    } else {
        Err(DecodeIsupError::TrailingBytes(rest.len()))
    }
}

fn take_number(bytes: &[u8]) -> Result<(Option<Msisdn>, &[u8]), DecodeIsupError> {
    let Some((&len, rest)) = bytes.split_first() else {
        return Err(DecodeIsupError::Truncated);
    };
    let len = len as usize;
    if len == 0 {
        return Ok((None, rest));
    }
    if rest.len() < len {
        return Err(DecodeIsupError::Truncated);
    }
    let digits = std::str::from_utf8(&rest[..len])
        .map_err(|_| DecodeIsupError::BadParameter("number digits"))?;
    let number =
        Msisdn::parse(digits).map_err(|_| DecodeIsupError::BadParameter("number digits"))?;
    Ok((Some(number), &rest[len..]))
}

/// Errors from [`IsupMessage::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeIsupError {
    /// Input ended early.
    Truncated,
    /// Message-type octet outside the supported subset.
    UnknownMessageType(u8),
    /// A parameter was malformed.
    BadParameter(&'static str),
    /// Extra bytes followed a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for DecodeIsupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeIsupError::Truncated => write!(f, "ISUP message truncated"),
            DecodeIsupError::UnknownMessageType(t) => {
                write!(f, "unknown ISUP message type {t:#04x}")
            }
            DecodeIsupError::BadParameter(p) => write!(f, "malformed ISUP parameter: {p}"),
            DecodeIsupError::TrailingBytes(n) => write!(f, "{n} trailing bytes after ISUP message"),
        }
    }
}

impl std::error::Error for DecodeIsupError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn iam() -> IsupMessage {
        IsupMessage {
            cic: Cic(31),
            call: CallId(1234),
            kind: IsupKind::Iam {
                called: Msisdn::parse("85291234567").unwrap(),
                calling: Some(Msisdn::parse("447700900123").unwrap()),
            },
        }
    }

    #[test]
    fn iam_roundtrip() {
        let m = iam();
        assert_eq!(IsupMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn iam_without_calling_roundtrip() {
        let mut m = iam();
        if let IsupKind::Iam { calling, .. } = &mut m.kind {
            *calling = None;
        }
        assert_eq!(IsupMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn parameterless_kinds_roundtrip() {
        for kind in [IsupKind::Acm, IsupKind::Anm, IsupKind::Rlc] {
            let m = IsupMessage {
                cic: Cic(1),
                call: CallId(2),
                kind,
            };
            assert_eq!(IsupMessage::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn rel_roundtrip_all_causes() {
        for cause in Cause::ALL {
            let m = IsupMessage {
                cic: Cic(1),
                call: CallId(2),
                kind: IsupKind::Rel { cause },
            };
            assert_eq!(IsupMessage::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(iam().label(), "ISUP_IAM");
        assert_eq!(
            IsupMessage {
                cic: Cic(0),
                call: CallId(0),
                kind: IsupKind::Rlc
            }
            .label(),
            "ISUP_RLC"
        );
    }

    #[test]
    fn decode_rejects_truncation() {
        let b = iam().encode();
        for cut in 0..b.len() {
            assert!(IsupMessage::decode(&b[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut b = IsupMessage {
            cic: Cic(1),
            call: CallId(2),
            kind: IsupKind::Acm,
        }
        .encode();
        b.push(0);
        assert_eq!(
            IsupMessage::decode(&b),
            Err(DecodeIsupError::TrailingBytes(1))
        );
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut b = iam().encode();
        b[2] = 0x77;
        assert_eq!(
            IsupMessage::decode(&b),
            Err(DecodeIsupError::UnknownMessageType(0x77))
        );
    }

    #[test]
    fn type_codes_match_q763() {
        assert_eq!(iam().kind.type_code(), 0x01);
        assert_eq!(IsupKind::Acm.type_code(), 0x06);
        assert_eq!(IsupKind::Anm.type_code(), 0x09);
        assert_eq!(
            IsupKind::Rel {
                cause: Cause::NormalClearing
            }
            .type_code(),
            0x0C
        );
        assert_eq!(IsupKind::Rlc.type_code(), 0x10);
    }
}
