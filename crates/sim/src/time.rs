//! Simulated time: instants and durations with microsecond resolution.

use std::fmt;
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Div, Mul, Sub};


/// An instant on the simulated clock, measured in microseconds since the
/// start of the simulation.
///
/// `SimTime` is a newtype over `u64` so it cannot be confused with wall-clock
/// time or with [`SimDuration`].
///
/// # Examples
///
/// ```rust
/// use vgprs_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(20);
/// assert_eq!(t.as_micros(), 20_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The far end of simulated time — a sentinel deadline meaning
    /// "no deadline" (≈584,542 years in).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole + fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so that would indicate a kernel bug in the caller.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference; returns [`SimDuration::ZERO`] if `earlier` is
    /// later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            write!(f, "{ms}ms")
        } else {
            write!(f, "{ms}.{frac:03}ms")
        }
    }
}

/// An `Option<SimTime>` in one word instead of two, for a row that
/// keeps an instant for later (when a handset powered on, when it
/// dialled). The instant is stored inverted, so [`SimTime::MAX`] is the
/// one instant it cannot hold and `None` costs no tag.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp(Option<NonZeroU64>);

impl Stamp {
    /// Keeps `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is [`SimTime::MAX`].
    pub fn set(&mut self, at: SimTime) {
        self.0 = Some(NonZeroU64::new(!at.0).expect("SimTime::MAX is no stamp"));
    }

    /// The instant kept, if any.
    pub fn get(self) -> Option<SimTime> {
        self.0.map(|inverted| SimTime(!inverted.get()))
    }

    /// The instant kept, if any, leaving none.
    pub fn take(&mut self) -> Option<SimTime> {
        self.0.take().map(|inverted| SimTime(!inverted.get()))
    }
}

/// Reads as the `Option<SimTime>` it holds.
impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```rust
/// use vgprs_sim::SimDuration;
/// let d = SimDuration::from_millis(5) * 3;
/// assert_eq!(d.as_micros(), 15_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, )]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration((secs * 1_000_000.0).round() as u64)
        }
    }

    /// This duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// This duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 {
            let ms = self.0 / 1_000;
            let frac = self.0 % 1_000;
            if frac == 0 {
                write!(f, "{ms}ms")
            } else {
                write!(f, "{ms}.{frac:03}ms")
            }
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_add_duration() {
        let t = SimTime::from_micros(500) + SimDuration::from_millis(2);
        assert_eq!(t.as_micros(), 2_500);
    }

    #[test]
    fn duration_since_ordering() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(350);
        assert_eq!(b.duration_since(a).as_micros(), 250);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_backwards() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(350);
        let _ = a.duration_since(b);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(10) + SimDuration::from_micros(500);
        assert_eq!(d.as_micros(), 10_500);
        assert_eq!((d * 2).as_micros(), 21_000);
        assert_eq!((d / 2).as_micros(), 5_250);
        assert_eq!(
            d.saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_from_secs_f64() {
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_micros(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2s");
        assert_eq!(SimDuration::from_micros(90).to_string(), "90us");
        assert_eq!(SimDuration::from_millis(7).to_string(), "7ms");
    }

    #[test]
    fn time_display_whole_ms() {
        assert_eq!(SimTime::from_micros(3_000).to_string(), "3ms");
    }

    #[test]
    fn a_stamp_is_an_optional_instant_in_one_word() {
        assert_eq!(std::mem::size_of::<Stamp>(), 8);
        let mut stamp = Stamp::default();
        assert_eq!((stamp.get(), format!("{stamp:?}")), (None, "None".to_owned()));
        for at in [SimTime::ZERO, SimTime::from_micros(7_000), SimTime::from_micros(u64::MAX - 1)] {
            stamp.set(at);
            assert_eq!((stamp.get(), format!("{stamp:?}")), (Some(at), format!("Some({at:?})")));
            assert_eq!(stamp.take(), Some(at));
            assert_eq!(stamp, Stamp::default());
        }
    }

    #[test]
    fn max_is_latest_instant() {
        assert!(SimTime::MAX > SimTime::from_micros(u64::MAX - 1));
        assert_eq!(SimTime::MAX.as_micros(), u64::MAX);
    }
}
