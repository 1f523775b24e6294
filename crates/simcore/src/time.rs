//! Virtual time for discrete-event simulation.
//!
//! Simulated time is a monotone, nanosecond-resolution counter starting at
//! zero. [`SimTime`] is an *instant*, [`SimDuration`] a *span*; the two are
//! kept distinct so that instants cannot be accidentally added together.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated timeline, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

// Encoded transparently as raw nanoseconds, which the codec keeps exact.
crate::impl_json!(newtype SimTime(u64));
crate::impl_json!(newtype SimDuration(u64));

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_MIN: u64 = 60 * NANOS_PER_SEC;
const NANOS_PER_HOUR: u64 = 60 * NANOS_PER_MIN;

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite horizon".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds.
    ///
    /// # Panics
    /// Panics on overflow (more than ~584 simulated years).
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Span from an earlier instant to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is later than `self`
    /// rather than panicking, mirroring `Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a span; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a span from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * NANOS_PER_MIN)
    }

    /// Creates a span from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * NANOS_PER_HOUR)
    }

    /// Creates a span from fractional seconds, saturating at the
    /// representable range and treating non-finite or negative input as zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }

    /// Creates a span from fractional seconds, or `None` when the input has
    /// no meaningful finite span: negative, NaN, or infinite values.
    ///
    /// Unlike [`SimDuration::from_secs_f64`], which saturates (useful for
    /// scaling known-good spans), this is the form for *predicted* spans —
    /// e.g. a flow-completion estimate of `remaining / rate` where a
    /// zero-rate (cut) link yields infinity, meaning "never", not "at the
    /// end of representable time".
    pub fn try_from_secs_f64(secs: f64) -> Option<Self> {
        if !secs.is_finite() || secs < 0.0 {
            return None;
        }
        Some(SimDuration::from_secs_f64(secs))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the span by a non-negative factor, saturating.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

// Additions saturate: an instant or span at `MAX` lies past every horizon,
// and wrapping would bring it back to the start of time.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_secs(3600));
        assert_eq!(SimTime::from_secs(4).as_secs_f64(), 4.0);
    }

    #[test]
    fn instant_plus_span() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
    }

    #[test]
    fn additions_saturate_at_max() {
        let one = SimDuration::from_nanos(1);
        assert_eq!(SimTime::MAX + one, SimTime::MAX);
        assert_eq!(SimDuration::MAX + one, SimDuration::MAX);
        let mut t = SimTime::from_secs(1);
        t += SimDuration::MAX;
        assert_eq!(t, SimTime::MAX);
        let mut d = SimDuration::MAX;
        d += SimDuration::from_secs(1);
        assert_eq!(d, SimDuration::MAX);
        assert_eq!(SimTime::from_secs(1) + one, SimTime::from_nanos(1_000_000_001));
    }

    #[test]
    fn saturating_since_never_panics() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration::from_millis(1500));
    }

    #[test]
    fn try_from_secs_f64_rejects_non_finite_predictions() {
        assert_eq!(SimDuration::try_from_secs_f64(f64::INFINITY), None);
        assert_eq!(SimDuration::try_from_secs_f64(f64::NAN), None);
        assert_eq!(SimDuration::try_from_secs_f64(-0.5), None);
        assert_eq!(SimDuration::try_from_secs_f64(0.0), Some(SimDuration::ZERO));
        assert_eq!(
            SimDuration::try_from_secs_f64(2.5),
            Some(SimDuration::from_millis(2500))
        );
    }

    #[test]
    fn mul_div_span() {
        assert_eq!(SimDuration::from_secs(2) * 3, SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(6) / 3, SimDuration::from_secs(2));
        let scaled = SimDuration::from_secs(10).mul_f64(0.25);
        assert_eq!(scaled, SimDuration::from_millis(2500));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{}", SimDuration::from_secs(1)).is_empty());
    }
}
