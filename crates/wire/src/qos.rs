//! GPRS quality-of-service profiles (GSM 03.60 §15.2).
//!
//! Each PDP context carries a negotiated profile. The paper's step 1.3
//! activates the VMSC's *signaling* context with a low-priority profile so
//! idle subscribers do not reserve network resources, while step 2.9
//! activates a high-priority *voice* context per call.

use std::fmt;


/// Precedence class: who survives congestion (1 = high, 3 = low).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Precedence {
    /// Service commitments maintained ahead of all other classes.
    High,
    /// Service commitments maintained ahead of low-priority users.
    Normal,
    /// Service commitments maintained after the other classes.
    Low,
}

/// Delay class 1–4 (4 = best effort).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DelayClass {
    /// Predictive delay class 1 (tightest).
    Class1,
    /// Predictive delay class 2.
    Class2,
    /// Predictive delay class 3.
    Class3,
    /// Best effort.
    BestEffort,
}

/// Reliability class 1–5 (1 = most protected).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReliabilityClass(u8);

impl ReliabilityClass {
    /// Creates a reliability class.
    ///
    /// # Errors
    ///
    /// Returns `None` if `class` is outside 1–5.
    pub fn new(class: u8) -> Option<Self> {
        (1..=5).contains(&class).then_some(ReliabilityClass(class))
    }

    /// The raw class number.
    pub fn value(self) -> u8 {
        self.0
    }
}

/// Peak throughput class 1–9 (8 kbit/s × 2^(class−1)).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeakThroughputClass(u8);

impl PeakThroughputClass {
    /// Creates a peak throughput class.
    ///
    /// # Errors
    ///
    /// Returns `None` if `class` is outside 1–9.
    pub fn new(class: u8) -> Option<Self> {
        (1..=9).contains(&class).then_some(PeakThroughputClass(class))
    }

    /// The class number.
    pub fn value(self) -> u8 {
        self.0
    }

    /// The peak rate this class grants, in bits per second.
    pub fn bits_per_second(self) -> u64 {
        8_000u64 << (self.0 - 1)
    }
}

/// A negotiated GPRS QoS profile.
///
/// # Examples
///
/// ```rust
/// use vgprs_wire::QosProfile;
/// let signaling = QosProfile::signaling();
/// let voice = QosProfile::realtime_voice();
/// assert!(voice.outranks(&signaling));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QosProfile {
    /// Precedence under congestion.
    pub precedence: Precedence,
    /// Delay class.
    pub delay: DelayClass,
    /// Reliability class.
    pub reliability: ReliabilityClass,
    /// Peak throughput class.
    pub peak_throughput: PeakThroughputClass,
}

impl QosProfile {
    /// The low-priority profile the VMSC requests for the H.323 signaling
    /// context (paper step 1.3: "the QoS profile can be set to low priority
    /// and network resource would not be wasted").
    pub fn signaling() -> Self {
        QosProfile {
            precedence: Precedence::Low,
            delay: DelayClass::BestEffort,
            reliability: ReliabilityClass::new(3).expect("valid class"),
            peak_throughput: PeakThroughputClass::new(2).expect("valid class"),
        }
    }

    /// The high-priority, delay-sensitive profile used for the per-call
    /// voice context (paper step 2.9).
    pub fn realtime_voice() -> Self {
        QosProfile {
            precedence: Precedence::High,
            delay: DelayClass::Class1,
            reliability: ReliabilityClass::new(2).expect("valid class"),
            peak_throughput: PeakThroughputClass::new(4).expect("valid class"),
        }
    }

    /// True if this profile has strictly better precedence *and* no worse
    /// delay class than `other` — the ordering the SGSN scheduler uses.
    pub fn outranks(&self, other: &QosProfile) -> bool {
        self.precedence < other.precedence && self.delay <= other.delay
    }
}

impl fmt::Display for QosProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prec={:?} delay={:?} rel={} peak={}kbps",
            self.precedence,
            self.delay,
            self.reliability.value(),
            self.peak_throughput.bits_per_second() / 1000
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_validation() {
        assert!(ReliabilityClass::new(0).is_none());
        assert!(ReliabilityClass::new(6).is_none());
        assert_eq!(ReliabilityClass::new(5).unwrap().value(), 5);
        assert!(PeakThroughputClass::new(0).is_none());
        assert!(PeakThroughputClass::new(10).is_none());
    }

    #[test]
    fn peak_throughput_rates() {
        assert_eq!(PeakThroughputClass::new(1).unwrap().bits_per_second(), 8_000);
        assert_eq!(
            PeakThroughputClass::new(9).unwrap().bits_per_second(),
            2_048_000
        );
    }

    #[test]
    fn voice_outranks_signaling() {
        assert!(QosProfile::realtime_voice().outranks(&QosProfile::signaling()));
        assert!(!QosProfile::signaling().outranks(&QosProfile::realtime_voice()));
        let v = QosProfile::realtime_voice();
        assert!(!v.outranks(&v), "a profile does not outrank itself");
    }

    #[test]
    fn display_compact() {
        let s = QosProfile::signaling().to_string();
        assert!(s.contains("prec=Low"));
        assert!(s.contains("kbps"));
    }
}
