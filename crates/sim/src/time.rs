//! Virtual time for the simulation: nanosecond-resolution instants and spans.
//!
//! [`Time`] is an instant on the simulation clock; [`Duration`] is a span
//! between instants. Both wrap a `u64` nanosecond count, which covers
//! simulations of up to ~584 years — comfortably more than the 5-minute trace
//! partitions the paper runs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Round a float nanosecond count to a whole one — the single audited place
/// where fractional time becomes ticks.
///
/// # Panics
/// Panics on NaN, infinite, or negative input. Those arise from pathological
/// rate arithmetic (e.g. `remaining / rate` with a corrupted rate) and used
/// to saturate silently — NaN and negatives to `Time(0)` — tripping the
/// engine's scheduled-in-the-past panic far from the root cause.
fn ns_from_f64(ns: f64) -> u64 {
    assert!(
        ns.is_finite() && ns >= 0.0,
        "time conversion needs a finite, non-negative nanosecond count, got {ns}"
    );
    // Validated finite and non-negative above; a count beyond u64::MAX
    // (~584 years) saturates to the maximal horizon under `as` semantics.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        ns.round() as u64
    }
}

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }
    /// Construct from fractional seconds (rounds to nearest nanosecond).
    ///
    /// # Panics
    /// Panics on NaN, infinite, or negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        Time(ns_from_f64(s * 1e9))
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Span from an earlier instant to this one.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn since(self, earlier: Time) -> Duration {
        debug_assert!(earlier <= self, "time went backwards");
        Duration(self.0 - earlier.0)
    }
    /// Saturating difference: zero if `earlier` is after `self`.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }
    /// Construct from fractional seconds (rounds to nearest nanosecond).
    ///
    /// # Panics
    /// Panics on NaN, infinite, or negative input.
    pub fn from_secs_f64(s: f64) -> Self {
        Duration(ns_from_f64(s * 1e9))
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// This span expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    /// Multiply by a non-negative float, rounding to nearest nanosecond.
    ///
    /// # Panics
    /// Panics if `factor` is NaN, infinite, or negative.
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration(ns_from_f64(self.0 as f64 * factor))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}
impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(rhs <= self, "duration underflow");
        Duration(self.0 - rhs.0)
    }
}
impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}
impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", Duration(self.0))
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}
impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1000));
        assert_eq!(Time::from_micros(1), Time::from_nanos(1000));
        assert_eq!(Duration::from_secs(2), Duration::from_nanos(2_000_000_000));
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t - Time::from_secs(1), Duration::from_millis(500));
        assert_eq!(Duration::from_secs(1) * 3, Duration::from_secs(3));
        assert_eq!(Duration::from_secs(3) / 3, Duration::from_secs(1));
    }

    #[test]
    fn float_round_trip() {
        let d = Duration::from_secs_f64(0.123456789);
        assert!((d.as_secs_f64() - 0.123456789).abs() < 1e-9);
        let t = Time::from_secs_f64(2.5);
        assert_eq!(t, Time::from_millis(2500));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time::ZERO - Duration::from_secs(1), Time::ZERO);
        assert_eq!(
            Time::from_secs(1).saturating_since(Time::from_secs(2)),
            Duration::ZERO
        );
        assert_eq!(Time::MAX + Duration::from_secs(1), Time::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::from_secs(5).to_string(), "5s");
        assert_eq!(Duration::from_millis(1).to_string(), "1.000ms");
        assert_eq!(Duration::from_nanos(70).to_string(), "70ns");
        assert_eq!(Duration::from_micros(40).to_string(), "40.000us");
        assert_eq!(Duration::ZERO.to_string(), "0s");
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            Duration::from_nanos(10).mul_f64(0.25),
            Duration::from_nanos(3)
        );
        assert_eq!(Duration::from_secs(1).mul_f64(2.0), Duration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "finite, non-negative nanosecond count")]
    fn nan_seconds_panic_at_the_conversion() {
        let _ = Duration::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite, non-negative nanosecond count")]
    fn infinite_seconds_panic_at_the_conversion() {
        let _ = Time::from_secs_f64(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite, non-negative nanosecond count")]
    fn negative_seconds_panic_at_the_conversion() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn huge_finite_seconds_saturate_to_the_max_horizon() {
        // ~584 years fits; anything finite beyond clamps to Time::MAX
        // rather than wrapping.
        assert_eq!(Time::from_secs_f64(1e30), Time::MAX);
    }
}
