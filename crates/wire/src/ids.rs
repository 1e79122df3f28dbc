//! Subscriber, equipment and network identities.
//!
//! Every identity the GSM/GPRS/H.323 procedures exchange is a distinct
//! newtype so they cannot be confused (C-NEWTYPE): an [`Imsi`] is not a
//! [`Msisdn`], a [`Tmsi`] is not a [`Teid`], and the compiler enforces it.

use std::fmt;
use std::marker::PhantomData;
use std::num::{NonZeroU32, NonZeroU64};
use std::str::FromStr;

use vgprs_sim::NumberKey;

/// Error returned when parsing an identity from text fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseIdError {
    kind: &'static str,
    reason: String,
}

impl ParseIdError {
    fn new(kind: &'static str, reason: impl Into<String>) -> Self {
        ParseIdError {
            kind,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.kind, self.reason)
    }
}

impl std::error::Error for ParseIdError {}

/// Packed decimal digit string used by IMSI and MSISDN, in one word:
/// each digit occupies 4 bits, most significant digit first, above a
/// 4-bit length. Both numbers are at most 15 digits (GSM 03.03 §2.2,
/// E.164 §6), so the word is `packed << 4 | len` with `len ≥ 1` — never
/// zero, which makes an `Option` of it a word too. For 15 digits or
/// fewer this sorts exactly as `(packed, len)` does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Digits(NonZeroU64);

impl Digits {
    const MAX_LEN: usize = 15;

    fn parse(kind: &'static str, s: &str) -> Result<Self, ParseIdError> {
        if s.is_empty() {
            return Err(ParseIdError::new(kind, "empty digit string"));
        }
        if s.len() > Self::MAX_LEN {
            return Err(ParseIdError::new(
                kind,
                format!("too long ({} digits, max {})", s.len(), Self::MAX_LEN),
            ));
        }
        let mut packed: u64 = 0;
        for c in s.chars() {
            let d = c
                .to_digit(10)
                .ok_or_else(|| ParseIdError::new(kind, format!("non-digit character {c:?}")))?;
            packed = (packed << 4) | u64::from(d);
        }
        let word = packed << 4 | s.len() as u64;
        Ok(Digits(NonZeroU64::new(word).expect("a digit string is not empty")))
    }

    /// `value` zero-padded to `len` digits.
    fn from_number(kind: &'static str, value: u64, len: usize) -> Result<Self, ParseIdError> {
        if !(1..=Self::MAX_LEN).contains(&len) {
            return Err(ParseIdError::new(
                kind,
                format!("{len} digits, want 1 to {}", Self::MAX_LEN),
            ));
        }
        if value >= 10u64.pow(len as u32) {
            return Err(ParseIdError::new(kind, format!("{value} needs more than {len} digits")));
        }
        let (mut packed, mut rest) = (0u64, value);
        for at in 0..len {
            packed |= (rest % 10) << (4 * at);
            rest /= 10;
        }
        let word = packed << 4 | len as u64;
        Ok(Digits(NonZeroU64::new(word).expect("the length is not zero")))
    }

    /// The digits `prefix` (one or more) then `n` zero-padded to `width`
    /// — the string `format!("{prefix}{n:0width$}")` spells, without the
    /// string.
    fn from_prefix(
        kind: &'static str,
        prefix: &str,
        n: u64,
        width: usize,
    ) -> Result<Self, ParseIdError> {
        let prefix = Digits::parse(kind, prefix)?;
        let width = width.max(n.checked_ilog10().map_or(1, |log| log as usize + 1));
        let len = prefix.len() + width;
        if len > Self::MAX_LEN {
            return Err(ParseIdError::new(
                kind,
                format!("too long ({len} digits, max {})", Self::MAX_LEN),
            ));
        }
        Self::from_number(kind, prefix.value() * 10u64.pow(width as u32) + n, len)
    }

    fn len(&self) -> usize {
        (self.0.get() & 0xF) as usize
    }

    /// The digits as a number, with no loop over them: each step folds
    /// pairs of neighbouring lanes into one lane of twice the width —
    /// nibbles into bytes of 0..=99, bytes into 16-bit lanes of
    /// 0..=9 999, those into 32-bit lanes of 0..=99 999 999, and those
    /// into the value. No lane overflows into the next.
    fn value(&self) -> u64 {
        let bcd = self.0.get() >> 4;
        let x = ((bcd >> 4) & 0x0F0F_0F0F_0F0F_0F0F) * 10 + (bcd & 0x0F0F_0F0F_0F0F_0F0F);
        let x = ((x >> 8) & 0x00FF_00FF_00FF_00FF) * 100 + (x & 0x00FF_00FF_00FF_00FF);
        let x = ((x >> 16) & 0x0000_FFFF_0000_FFFF) * 10_000 + (x & 0x0000_FFFF_0000_FFFF);
        (x >> 32) * 100_000_000 + (x & 0xFFFF_FFFF)
    }

    fn digit(&self, i: usize) -> u8 {
        debug_assert!(i < self.len());
        let shift = 4 * (self.len() - i);
        ((self.0.get() >> shift) & 0xF) as u8
    }

    fn as_string(&self) -> String {
        (0..self.len())
            .map(|i| char::from(b'0' + self.digit(i)))
            .collect()
    }

    fn starts_with(&self, prefix: &str) -> bool {
        if prefix.len() > self.len() {
            return false;
        }
        prefix
            .bytes()
            .enumerate()
            .all(|(i, b)| b.is_ascii_digit() && self.digit(i) == b - b'0')
    }
}

impl fmt::Debug for Digits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_string())
    }
}

/// International Mobile Subscriber Identity (GSM 03.03): a 14–15 digit
/// number of the form MCC (3) + MNC (2–3) + MSIN.
///
/// IMSI is confidential to the home operator; the paper's Section 6 argues
/// that the 3G TR 22.973 baseline leaks it to the H.323 gatekeeper while
/// vGPRS does not. The reproduction counts exactly these exposures.
///
/// # Examples
///
/// ```rust
/// use vgprs_wire::Imsi;
/// let imsi: Imsi = "466920123456789".parse()?;
/// assert_eq!(imsi.mcc(), 466);
/// assert_eq!(imsi.to_string(), "466920123456789");
/// # Ok::<(), vgprs_wire::ParseIdError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Imsi(Digits);

impl Imsi {
    /// Parses an IMSI from 14–15 decimal digits.
    ///
    /// # Errors
    ///
    /// Returns [`ParseIdError`] if the string is not 14–15 decimal digits.
    pub fn parse(s: &str) -> Result<Self, ParseIdError> {
        Imsi::checked(Digits::parse("IMSI", s)?)
    }

    /// The IMSI `prefix` (one or more digits) followed by `n` zero-padded
    /// to `width` digits: what `Imsi::parse(&format!("{prefix}{n:0width$}"))`
    /// returns, without the string.
    ///
    /// # Errors
    ///
    /// As [`Imsi::parse`] on that string, and for an empty prefix.
    pub fn from_prefix(prefix: &str, n: u64, width: usize) -> Result<Self, ParseIdError> {
        Imsi::checked(Digits::from_prefix("IMSI", prefix, n, width)?)
    }

    fn checked(d: Digits) -> Result<Self, ParseIdError> {
        if !(14..=15).contains(&d.len()) {
            return Err(ParseIdError::new(
                "IMSI",
                format!("expected 14-15 digits, got {}", d.len()),
            ));
        }
        Ok(Imsi(d))
    }

    /// Mobile country code (first three digits).
    pub fn mcc(&self) -> u16 {
        u16::from(self.0.digit(0)) * 100 + u16::from(self.0.digit(1)) * 10 + u16::from(self.0.digit(2))
    }

    /// True if the IMSI starts with the given digits (an MCC+MNC, say).
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.0.starts_with(prefix)
    }

    /// The decimal value of everything after the first `skip` digits —
    /// the MSIN as a number when `skip` is the length of MCC+MNC. Zero
    /// when nothing is left.
    pub fn suffix(&self, skip: usize) -> u64 {
        (skip..self.0.len()).fold(0, |v, i| v * 10 + u64::from(self.0.digit(i)))
    }

    /// The full digit string.
    pub fn digits(&self) -> String {
        self.0.as_string()
    }
}

impl NumberKey for Imsi {
    fn number(&self) -> (u64, usize) {
        (self.0.value(), self.0.len())
    }
    fn from_number(value: u64, digits: usize) -> Option<Self> {
        Digits::from_number("IMSI", value, digits).and_then(Imsi::checked).ok()
    }
}

impl FromStr for Imsi {
    type Err = ParseIdError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Imsi::parse(s)
    }
}

impl fmt::Debug for Imsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Imsi({})", self.0.as_string())
    }
}

impl fmt::Display for Imsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.as_string())
    }
}

/// Mobile Station ISDN number — the subscriber's dialable phone number,
/// in international format (country code first, no `+`).
///
/// # Examples
///
/// ```rust
/// use vgprs_wire::Msisdn;
/// let hk: Msisdn = "85291234567".parse()?;
/// assert!(hk.has_country_code("852"));
/// # Ok::<(), vgprs_wire::ParseIdError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Msisdn(Digits);

impl Msisdn {
    /// Parses an MSISDN from 5–15 decimal digits (international format;
    /// E.164 §6 caps a number at 15).
    ///
    /// # Errors
    ///
    /// Returns [`ParseIdError`] on non-digits or a length outside 5–15.
    pub fn parse(s: &str) -> Result<Self, ParseIdError> {
        Msisdn::checked(Digits::parse("MSISDN", s)?)
    }

    /// The number `prefix` (one or more digits) followed by `n`
    /// zero-padded to `width` digits: what
    /// `Msisdn::parse(&format!("{prefix}{n:0width$}"))` returns, without
    /// the string.
    ///
    /// # Errors
    ///
    /// As [`Msisdn::parse`] on that string, and for an empty prefix.
    pub fn from_prefix(prefix: &str, n: u64, width: usize) -> Result<Self, ParseIdError> {
        Msisdn::checked(Digits::from_prefix("MSISDN", prefix, n, width)?)
    }

    fn checked(d: Digits) -> Result<Self, ParseIdError> {
        if d.len() < 5 {
            return Err(ParseIdError::new(
                "MSISDN",
                format!("expected at least 5 digits, got {}", d.len()),
            ));
        }
        Ok(Msisdn(d))
    }

    /// True if the number starts with the given country code digits.
    pub fn has_country_code(&self, cc: &str) -> bool {
        self.0.starts_with(cc)
    }

    /// The full digit string.
    pub fn digits(&self) -> String {
        self.0.as_string()
    }
}

impl NumberKey for Msisdn {
    fn number(&self) -> (u64, usize) {
        (self.0.value(), self.0.len())
    }
    fn from_number(value: u64, digits: usize) -> Option<Self> {
        Digits::from_number("MSISDN", value, digits).and_then(Msisdn::checked).ok()
    }
}

impl FromStr for Msisdn {
    type Err = ParseIdError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Msisdn::parse(s)
    }
}

impl fmt::Debug for Msisdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Msisdn({})", self.0.as_string())
    }
}

impl fmt::Display for Msisdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.as_string())
    }
}

/// Temporary Mobile Subscriber Identity, allocated by a VLR to avoid
/// sending the IMSI over the air.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tmsi(pub u32);

impl fmt::Debug for Tmsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tmsi({:08x})", self.0)
    }
}

impl fmt::Display for Tmsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

/// How a mobile identifies itself in a location update or paging response.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MsIdentity {
    /// Permanent identity (first attach, or TMSI unknown).
    Imsi(Imsi),
    /// Temporary identity previously allocated by a VLR.
    Tmsi(Tmsi),
}

impl MsIdentity {
    /// The identity as one broadcast key: an IMSI is its packed digits,
    /// a TMSI its value. An IMSI's key is at least 2^32 unless its first
    /// seven digits are zeros, which no country code allows; and two
    /// identities sharing a key would only cost the listener a question.
    pub fn key(self) -> u64 {
        match self {
            MsIdentity::Imsi(i) => i.0 .0.get(),
            MsIdentity::Tmsi(t) => u64::from(t.0),
        }
    }
}

impl fmt::Display for MsIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsIdentity::Imsi(i) => write!(f, "IMSI {i}"),
            MsIdentity::Tmsi(t) => write!(f, "TMSI {t}"),
        }
    }
}

/// Location Area Identity: MCC + MNC + LAC (GSM 03.03 §4.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lai {
    /// Mobile country code.
    pub mcc: u16,
    /// Mobile network code.
    pub mnc: u16,
    /// Location area code, unique within the PLMN.
    pub lac: u16,
}

impl Lai {
    /// Creates a location area identity.
    pub fn new(mcc: u16, mnc: u16, lac: u16) -> Self {
        Lai { mcc, mnc, lac }
    }
}

impl fmt::Debug for Lai {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lai({}-{}-{})", self.mcc, self.mnc, self.lac)
    }
}

impl fmt::Display for Lai {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}-{}", self.mcc, self.mnc, self.lac)
    }
}

/// Cell identity within a location area.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellId(pub u16);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

/// A simulated IPv4 address.
///
/// The reproduction runs its own address space, so this is a plain newtype
/// over the 32-bit value rather than `std::net::Ipv4Addr` (which would
/// suggest real sockets exist somewhere).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Builds an address from four octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// True if `self` falls within `prefix/len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn in_prefix(self, prefix: Ipv4Addr, len: u8) -> bool {
        assert!(len <= 32, "prefix length {len} out of range");
        if len == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - len);
        (self.0 & mask) == (prefix.0 & mask)
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for Ipv4Addr {
    type Err = ParseIdError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(ParseIdError::new("IPv4 address", "expected four octets"));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p
                .parse::<u8>()
                .map_err(|e| ParseIdError::new("IPv4 address", e.to_string()))?;
            // Canonical decimal only (no sign, no leading zero), so that
            // `Display` prints back what was read.
            if octets[i].to_string() != *p {
                let reason = format!("octet {p:?} is not canonical");
                return Err(ParseIdError::new("IPv4 address", reason));
            }
        }
        Ok(Ipv4Addr::from_octets(
            octets[0], octets[1], octets[2], octets[3],
        ))
    }
}

/// An IP transport address (address + port), e.g. an H.225 call-signaling
/// channel endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransportAddr {
    /// IP address.
    pub ip: Ipv4Addr,
    /// TCP/UDP port.
    pub port: u16,
}

impl TransportAddr {
    /// Creates a transport address.
    pub const fn new(ip: Ipv4Addr, port: u16) -> Self {
        TransportAddr { ip, port }
    }
}

impl fmt::Debug for TransportAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for TransportAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

/// GTP Tunnel Identifier (GSM 09.60 uses a TID derived from IMSI + NSAPI;
/// we use the modern flat 32-bit form for clarity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Teid(pub u32);

impl fmt::Debug for Teid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Teid({:#010x})", self.0)
    }
}

impl fmt::Display for Teid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// Network Service Access Point Identifier selecting one PDP context of an
/// MS. Valid values are 5–15 (GSM 04.65).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nsapi(u8);

impl Nsapi {
    /// The lowest valid NSAPI.
    pub const MIN: u8 = 5;
    /// The highest valid NSAPI.
    pub const MAX: u8 = 15;

    /// Creates an NSAPI.
    ///
    /// # Errors
    ///
    /// Returns [`ParseIdError`] if `v` is outside 5–15.
    pub fn new(v: u8) -> Result<Self, ParseIdError> {
        if (Self::MIN..=Self::MAX).contains(&v) {
            Ok(Nsapi(v))
        } else {
            Err(ParseIdError::new("NSAPI", format!("{v} not in 5..=15")))
        }
    }

    /// The raw value.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Debug for Nsapi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nsapi({})", self.0)
    }
}

impl fmt::Display for Nsapi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// ISUP Circuit Identification Code: one voice circuit within a trunk group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Cic(pub u16);

impl fmt::Display for Cic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cic{}", self.0)
    }
}

/// SS7 signaling point code identifying a switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PointCode(pub u16);

impl fmt::Display for PointCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc{}", self.0)
    }
}

/// SCCP-style connection reference correlating one MS's signaling
/// transaction on the shared Abis and A interfaces.
///
/// The air interface gives every MS a dedicated channel, but Abis and A
/// multiplex all MSs of a BTS/BSC onto one link; real BSSAP runs over
/// connection-oriented SCCP for exactly this reason. The BTS allocates a
/// reference when a transaction starts and every relay keys on it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConnRef(pub u32);

impl ConnRef {
    /// Reference used for connectionless messages (paging broadcast).
    pub const CONNECTIONLESS: ConnRef = ConnRef(0);

    /// True if this is the connectionless pseudo-reference.
    pub fn is_connectionless(self) -> bool {
        self == Self::CONNECTIONLESS
    }
}

impl fmt::Display for ConnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// The identifiers a node issues from a counter are [`NumberKey`]s too:
/// the raw value, and in place of a digit count a width tag of their own
/// kind, above any decimal number's 15 digits. A [`Tmsi`] and a [`Teid`]
/// of the same value are two numbers, so a series of one never takes a
/// key of the other.
macro_rules! issued_number_key {
    ($($kind:ident => $tag:literal),* $(,)?) => {$(
        impl NumberKey for $kind {
            #[inline]
            fn number(&self) -> (u64, usize) {
                (u64::from(self.0), $tag)
            }
            fn from_number(value: u64, digits: usize) -> Option<Self> {
                if digits != $tag {
                    return None;
                }
                u32::try_from(value).ok().map($kind)
            }
        }
    )*};
}

issued_number_key!(Tmsi => 32, Teid => 33, ConnRef => 34, Ipv4Addr => 35);

/// An ID whose issuers never hand out 0, so that [`Issued`] can hold it
/// with `None` in that value: a TMSI carries its VLR's top bits, a
/// connection reference counts from 1 (0 is
/// [`ConnRef::CONNECTIONLESS`], which no connection is), and a dynamic
/// PDP address skips its pool's network address.
pub trait NonZeroId: Copy {
    /// The ID's 32 bits.
    fn raw(self) -> u32;
    /// The ID of `raw`.
    fn from_raw(raw: u32) -> Self;
}

macro_rules! non_zero_id {
    ($($kind:ident),*) => {$(
        impl NonZeroId for $kind {
            #[inline]
            fn raw(self) -> u32 {
                self.0
            }
            #[inline]
            fn from_raw(raw: u32) -> Self {
                $kind(raw)
            }
        }
    )*};
}

non_zero_id!(Tmsi, ConnRef, Ipv4Addr);

/// An optional issued ID in the ID's own four bytes, where an
/// `Option` would take eight: `None` is 0, which no issuer hands out
/// (see [`NonZeroId`]). A 0 that a peer sends anyway is held as no ID,
/// which is what each of those values means: the connectionless
/// reference, the unspecified address, a TMSI no VLR gave.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Issued<T> {
    raw: Option<NonZeroU32>,
    id: PhantomData<T>,
}

impl<T: NonZeroId> Issued<T> {
    /// No ID.
    pub const NONE: Self = Issued {
        raw: None,
        id: PhantomData,
    };

    /// Holds `id`; an ID of 0 is held as none.
    pub fn new(id: Option<T>) -> Self {
        let raw = id.and_then(|id| NonZeroU32::new(id.raw()));
        Issued {
            raw,
            id: PhantomData,
        }
    }

    /// The ID, if one is held.
    #[inline]
    pub fn get(self) -> Option<T> {
        self.raw.map(|raw| T::from_raw(raw.get()))
    }

    /// Takes the ID out, leaving none.
    pub fn take(&mut self) -> Option<T> {
        std::mem::replace(self, Self::NONE).get()
    }

    /// Whether an ID is held.
    pub fn is_some(self) -> bool {
        self.raw.is_some()
    }

    /// Whether no ID is held.
    pub fn is_none(self) -> bool {
        self.raw.is_none()
    }
}

impl<T: NonZeroId> From<T> for Issued<T> {
    fn from(id: T) -> Self {
        Issued::new(Some(id))
    }
}

/// Reads as the `Option` it stands for.
impl<T: NonZeroId + fmt::Debug> fmt::Debug for Issued<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// Q.931 call reference value, scoped to one signaling interface.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Crv(pub u16);

impl fmt::Display for Crv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crv{}", self.0)
    }
}

/// A GSM authentication triplet produced by the home network's AuC.
///
/// The real algorithms (A3/A8, typically COMP128) are operator secrets; the
/// reproduction substitutes a keyed mixing function with the same interface
/// (see `vgprs_gsm::auth`). Only the challenge/response protocol shape
/// matters to the paper's flows.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub struct AuthTriplet {
    /// Random challenge sent to the MS.
    pub rand: u64,
    /// Signed response expected from the MS.
    pub sres: u32,
    /// Ciphering key established after successful authentication.
    pub kc: u64,
}

/// A call identifier unique within one scenario, used to correlate
/// statistics across network elements.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CallId(pub u64);

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "call{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_issued_id_reads_as_its_option() {
        let mut held = Issued::from(Tmsi(0xA000_0001));
        assert_eq!(held.get(), Some(Tmsi(0xA000_0001)));
        assert_eq!(format!("{held:?}"), "Some(Tmsi(a0000001))");
        assert_eq!(held.take(), Some(Tmsi(0xA000_0001)));
        assert!(held.is_none() && held == Issued::NONE);
        assert_eq!(format!("{held:?}"), "None");
        assert_eq!(Issued::new(Some(ConnRef(u32::MAX))).get(), Some(ConnRef(u32::MAX)));
        assert!(Issued::from(ConnRef::CONNECTIONLESS).is_none(), "0 is the niche");
    }

    #[test]
    fn imsi_roundtrip() {
        let i = Imsi::parse("466920123456789").unwrap();
        assert_eq!(i.to_string(), "466920123456789");
        assert_eq!(i.mcc(), 466);
        assert_eq!(i.digits().len(), 15);
    }

    #[test]
    fn imsi_length_validation() {
        assert!(Imsi::parse("12345678901234").is_ok()); // 14 digits ok
        assert!(Imsi::parse("1234567890123").is_err()); // 13 too short
        assert!(Imsi::parse("46692012345678x").is_err());
        assert!(Imsi::parse("").is_err());
        // 16 is too long for either number: GSM 03.03 §2.2 and E.164 §6
        // both stop at 15.
        for e in [
            Imsi::parse("1234567890123456").unwrap_err(),
            Msisdn::parse("1234567890123456").unwrap_err(),
        ] {
            assert!(e.to_string().ends_with("too long (16 digits, max 15)"), "{e}");
        }
        assert!(Msisdn::parse("123456789012345").is_ok());
    }

    #[test]
    fn an_identity_is_one_word() {
        use std::mem::size_of;
        assert_eq!(size_of::<Imsi>(), 8);
        assert_eq!(size_of::<Msisdn>(), 8);
        assert_eq!(size_of::<Option<Imsi>>(), 8);
        assert_eq!(size_of::<Option<Msisdn>>(), 8);
        assert_eq!(size_of::<(Imsi, Nsapi)>(), 16);
        assert_eq!(size_of::<Issued<Tmsi>>(), 4);
        assert_eq!(size_of::<Issued<ConnRef>>(), 4);
        assert_eq!(size_of::<Issued<Ipv4Addr>>(), 4);
    }

    #[test]
    fn order_is_packed_value_then_length() {
        // The order the two-field `Digits { packed, len }` derived, which
        // the VMSC's resync and every sorted-IMSI walk saw before.
        let mut rng = vgprs_sim::SimRng::new(25);
        let numbers: Vec<String> = (0..10_000)
            .map(|_| {
                let len = rng.range(5, 16);
                (0..len).map(|_| char::from(b'0' + rng.range(0, 10) as u8)).collect()
            })
            .collect();
        let key = |s: &String| {
            let packed = s.bytes().fold(0u64, |v, b| v << 4 | u64::from(b - b'0'));
            (packed, s.len())
        };
        let mut by_key = numbers.clone();
        by_key.sort_by_key(key);
        let mut by_ord: Vec<Msisdn> = numbers.iter().map(|s| Msisdn::parse(s).unwrap()).collect();
        by_ord.sort();
        let by_ord: Vec<String> = by_ord.iter().map(Msisdn::digits).collect();
        assert_eq!(by_ord, by_key);
    }

    #[test]
    fn msisdn_country_codes() {
        let uk = Msisdn::parse("447700900123").unwrap();
        assert!(uk.has_country_code("44"));
        assert!(!uk.has_country_code("852"));
        let hk = Msisdn::parse("85291234567").unwrap();
        assert!(hk.has_country_code("852"));
        assert!(!hk.has_country_code("8529123456789999"));
    }

    #[test]
    fn msisdn_validation() {
        assert!(Msisdn::parse("1234").is_err());
        assert!(Msisdn::parse("12345").is_ok());
        assert!(Msisdn::parse("123a5").is_err());
    }

    #[test]
    fn parse_error_display() {
        let e = Imsi::parse("abc").unwrap_err();
        assert!(e.to_string().starts_with("invalid IMSI"));
    }

    #[test]
    fn digits_leading_zero_preserved() {
        let m = Msisdn::parse("0012345").unwrap();
        assert_eq!(m.to_string(), "0012345");
        assert!(m.has_country_code("00"));
    }

    #[test]
    fn imsi_prefix_and_suffix_without_a_string() {
        let imsi = Imsi::parse("466920000012345").unwrap();
        assert!(imsi.has_prefix("") && imsi.has_prefix("46692") && imsi.has_prefix("466920000012345"));
        assert!(!imsi.has_prefix("46693"));
        assert!(!imsi.has_prefix("4669200000123456"), "longer than the number");
        assert!(!imsi.has_prefix("4x6"), "a non-digit matches nothing");
        assert_eq!(imsi.suffix(6), 12_345, "leading zeros carry no value");
        assert_eq!(imsi.suffix(0), 466_920_000_012_345);
        assert_eq!((imsi.suffix(14), imsi.suffix(15), imsi.suffix(99)), (5, 0, 0));
        // The same number the digit string spells.
        assert_eq!(imsi.digits()[6..].parse(), Ok(imsi.suffix(6)));
    }

    #[test]
    fn an_imsi_and_a_tmsi_never_share_a_broadcast_key() {
        let lowest = Imsi::parse("00100000000000").unwrap();
        let tmsi = MsIdentity::Tmsi(Tmsi(u32::MAX)).key();
        assert!(MsIdentity::Imsi(lowest).key() > tmsi);
        let key = |s: &str| MsIdentity::Imsi(Imsi::parse(s).unwrap()).key();
        assert_ne!(key("466920123456789"), key("466920123456788"));
        assert_ne!(key("46692012345678"), key("466920123456780"));
    }

    #[test]
    fn number_is_the_value_and_the_digit_count() {
        // Random 14- and 15-digit IMSIs and 5- to 15-digit MSISDNs, then
        // the runs no random draw reaches: all zeros and all nines.
        let mut rng = vgprs_sim::SimRng::new(35);
        let mut numbers: Vec<String> = (0..4_000)
            .map(|_| {
                let len = rng.range(5, 16);
                (0..len).map(|_| char::from(b'0' + rng.range(0, 10) as u8)).collect()
            })
            .collect();
        for len in 5..=15 {
            numbers.push("0".repeat(len));
            numbers.push("9".repeat(len));
        }
        for digits in &numbers {
            let value: u64 = digits.parse().expect("decimal digits");
            let msisdn = Msisdn::parse(digits).expect("5 to 15 digits");
            assert_eq!(msisdn.number(), (value, digits.len()), "{digits}");
            assert_eq!(Msisdn::from_number(value, digits.len()), Some(msisdn), "{digits}");
            if let Ok(imsi) = Imsi::parse(digits) {
                assert_eq!(imsi.number(), (value, digits.len()), "{digits}");
                assert_eq!(imsi.number().0, imsi.suffix(0), "{digits}");
                assert_eq!(Imsi::from_number(value, digits.len()), Some(imsi), "{digits}");
            }
        }
        let imsis = numbers.iter().filter(|d| d.len() >= 14).count();
        assert!(imsis > 500, "only {imsis} IMSIs drawn");
        // The inverse refuses what no identity spells.
        assert_eq!(Msisdn::from_number(100_000, 5), None, "six digits");
        assert_eq!(Msisdn::from_number(1, 4), None, "too short for an MSISDN");
        assert_eq!(Msisdn::from_number(1, 16), None, "too long for either");
        assert_eq!(Imsi::from_number(123, 13), None, "too short for an IMSI");
    }

    #[test]
    fn from_prefix_is_the_format_string_without_the_string() {
        for n in [0, 1, 9, 10, 12_345, 9_999_999, 10_000_000, 123_456_789] {
            for width in [0, 1, 7] {
                let text = format!("88691{n:0width$}");
                assert_eq!(Msisdn::from_prefix("88691", n, width), Msisdn::parse(&text), "{text}");
                let back = Msisdn::from_prefix("88691", n, width).expect("valid");
                assert_eq!(Msisdn::from_number(back.number().0, back.number().1), Some(back));
            }
            let text = format!("466920{n:09}");
            assert_eq!(Imsi::from_prefix("466920", n, 9), Imsi::parse(&text), "{text}");
            assert_eq!(Imsi::from_prefix("466920", n, 9).expect("valid").suffix(6), n);
        }
        // Leading zeros of the prefix are digits too.
        assert_eq!(Msisdn::from_prefix("00", 123, 4).unwrap().digits(), "000123");
        // Whatever parsing rejects, the arithmetic rejects.
        assert!(Imsi::from_prefix("466920", 1_000_000_000, 9).is_err(), "16 digits");
        assert!(Imsi::from_prefix("4669", 1, 9).is_err(), "13 digits");
        assert!(Msisdn::from_prefix("8x", 1, 7).is_err());
        assert!(Msisdn::from_prefix("886", 1, 0).is_err(), "4 digits");
        assert!(Msisdn::from_prefix("", 1, 7).is_err(), "no prefix");
    }

    #[test]
    fn tmsi_display_hex() {
        assert_eq!(Tmsi(0xDEADBEEF).to_string(), "deadbeef");
    }

    #[test]
    fn lai_display() {
        assert_eq!(Lai::new(466, 92, 1).to_string(), "466-92-1");
    }

    #[test]
    fn ipv4_octets_and_display() {
        let ip = Ipv4Addr::from_octets(10, 0, 3, 200);
        assert_eq!(ip.octets(), [10, 0, 3, 200]);
        assert_eq!(ip.to_string(), "10.0.3.200");
    }

    #[test]
    fn ipv4_parse() {
        let ip: Ipv4Addr = "192.168.1.7".parse().unwrap();
        assert_eq!(ip.octets(), [192, 168, 1, 7]);
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.400".parse::<Ipv4Addr>().is_err());
        assert!("a.b.c.d".parse::<Ipv4Addr>().is_err());
    }

    /// An address reads only as `Display` prints it: a sign or a
    /// leading zero would parse to an address that prints differently.
    #[test]
    fn ipv4_parse_takes_only_canonical_octets() {
        for s in ["+10.0.0.1", "010.000.0.01", "10.0.0.01"] {
            assert!(s.parse::<Ipv4Addr>().is_err(), "{s} parsed");
        }
        for s in ["0.0.0.0", "255.255.255.255"] {
            assert_eq!(s.parse::<Ipv4Addr>().unwrap().to_string(), s);
        }
    }

    #[test]
    fn ipv4_prefix_matching() {
        let ip = Ipv4Addr::from_octets(10, 1, 2, 3);
        let net = Ipv4Addr::from_octets(10, 1, 0, 0);
        assert!(ip.in_prefix(net, 16));
        assert!(!ip.in_prefix(net, 24));
        assert!(ip.in_prefix(Ipv4Addr(0), 0));
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn ipv4_prefix_len_checked() {
        Ipv4Addr(0).in_prefix(Ipv4Addr(0), 33);
    }

    #[test]
    fn nsapi_range() {
        assert!(Nsapi::new(4).is_err());
        assert!(Nsapi::new(16).is_err());
        assert_eq!(Nsapi::new(5).unwrap().value(), 5);
        assert_eq!(Nsapi::new(15).unwrap().to_string(), "15");
    }

    #[test]
    fn transport_addr_display() {
        let t = TransportAddr::new(Ipv4Addr::from_octets(10, 0, 0, 1), 1720);
        assert_eq!(t.to_string(), "10.0.0.1:1720");
    }

    #[test]
    fn ms_identity_display() {
        let imsi = Imsi::parse("466920123456789").unwrap();
        assert_eq!(
            MsIdentity::Imsi(imsi).to_string(),
            "IMSI 466920123456789"
        );
        assert_eq!(MsIdentity::Tmsi(Tmsi(1)).to_string(), "TMSI 00000001");
    }

    #[test]
    fn misc_display() {
        assert_eq!(CellId(3).to_string(), "cell3");
        assert_eq!(Cic(9).to_string(), "cic9");
        assert_eq!(PointCode(2).to_string(), "pc2");
        assert_eq!(Crv(5).to_string(), "crv5");
        assert_eq!(CallId(8).to_string(), "call8");
        assert_eq!(Teid(0x10).to_string(), "0x00000010");
    }
}
