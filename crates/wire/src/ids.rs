//! Subscriber, equipment and network identities.
//!
//! Every identity the GSM/GPRS/H.323 procedures exchange is a distinct
//! newtype so they cannot be confused (C-NEWTYPE): an [`Imsi`] is not a
//! [`Msisdn`], a [`Tmsi`] is not a [`Teid`], and the compiler enforces it.

use std::fmt;
use std::str::FromStr;


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

/// Packed decimal digit string (up to 16 digits) used by IMSI and MSISDN.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Digits {
    /// Each digit occupies 4 bits, most significant digit first.
    packed: u64,
    len: u8,
}

impl Digits {
    const MAX_LEN: usize = 16;

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
        Ok(Digits {
            packed,
            len: s.len() as u8,
        })
    }

    fn digit(&self, i: usize) -> u8 {
        debug_assert!(i < self.len as usize);
        let shift = 4 * (self.len as usize - 1 - i);
        ((self.packed >> shift) & 0xF) as u8
    }

    fn as_string(&self) -> String {
        (0..self.len as usize)
            .map(|i| char::from(b'0' + self.digit(i)))
            .collect()
    }

    fn starts_with(&self, prefix: &str) -> bool {
        if prefix.len() > self.len as usize {
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
        let d = Digits::parse("IMSI", s)?;
        if !(14..=15).contains(&(d.len as usize)) {
            return Err(ParseIdError::new(
                "IMSI",
                format!("expected 14-15 digits, got {}", d.len),
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
        (skip..self.0.len as usize).fold(0, |v, i| v * 10 + u64::from(self.0.digit(i)))
    }

    /// The full digit string.
    pub fn digits(&self) -> String {
        self.0.as_string()
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
    /// Parses an MSISDN from 5–16 decimal digits (international format).
    ///
    /// # Errors
    ///
    /// Returns [`ParseIdError`] on non-digits or a length outside 5–16.
    pub fn parse(s: &str) -> Result<Self, ParseIdError> {
        let d = Digits::parse("MSISDN", s)?;
        if (d.len as usize) < 5 {
            return Err(ParseIdError::new(
                "MSISDN",
                format!("expected at least 5 digits, got {}", d.len),
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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
        assert!(Imsi::parse("1234567890123456").is_err()); // 16 too long
        assert!(Imsi::parse("46692012345678x").is_err());
        assert!(Imsi::parse("").is_err());
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
