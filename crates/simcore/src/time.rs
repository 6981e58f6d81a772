//! Simulated time types.
//!
//! Simulated time is kept as an integer number of nanoseconds so that it is
//! totally ordered, hashable, and safe to use as a heap key. All arithmetic
//! saturates rather than wrapping: a simulation that runs "past the end of
//! time" pins at [`SimTime::MAX`] instead of silently jumping backwards.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of nanoseconds per second.
const NANOS_PER_SEC: f64 = 1e9;
/// Number of nanoseconds per millisecond.
const NANOS_PER_MILLI: f64 = 1e6;
/// Number of nanoseconds per microsecond.
const NANOS_PER_MICRO: f64 = 1e3;

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime((secs * NANOS_PER_SEC).round() as u64)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis_f64(millis: f64) -> Self {
        assert!(
            millis.is_finite() && millis >= 0.0,
            "invalid time: {millis}"
        );
        SimTime((millis * NANOS_PER_MILLI).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// Milliseconds since simulation start, as floating point.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    pub(crate) fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * NANOS_PER_SEC).round() as u64)
    }

    /// Creates a duration of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis_f64(millis: f64) -> Self {
        assert!(
            millis.is_finite() && millis >= 0.0,
            "invalid duration: {millis}"
        );
        SimDuration((millis * NANOS_PER_MILLI).round() as u64)
    }

    /// Creates a duration of `micros` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `micros` is negative or not finite.
    pub fn from_micros_f64(micros: f64) -> Self {
        assert!(
            micros.is_finite() && micros >= 0.0,
            "invalid duration: {micros}"
        );
        SimDuration((micros * NANOS_PER_MICRO).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC
    }

    /// Milliseconds, as floating point.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

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

impl Sub for SimTime {
    type Output = SimDuration;

    /// Saturating difference: if `rhs` is later than `self` the result is
    /// zero rather than a panic, which is the behaviour metric code wants.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_round_trips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);

        let d = SimDuration::from_millis_f64(16.7);
        assert!((d.as_millis_f64() - 16.7).abs() < 1e-9);
        let d = SimDuration::from_micros_f64(250.0);
        assert_eq!(d.as_nanos(), 250_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_secs_f64(0.5);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);

        let diff = SimTime::from_secs_f64(2.0) - SimTime::from_secs_f64(0.5);
        assert!((diff.as_secs_f64() - 1.5).abs() < 1e-12);

        // Saturating subtraction never goes negative.
        let diff = SimTime::from_secs_f64(0.5) - SimTime::from_secs_f64(2.0);
        assert_eq!(diff, SimDuration::ZERO);
    }

    #[test]
    fn saturating_add_pins_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs_f64(10.0);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.0)), "1.000000s");
        assert_eq!(format!("{}", SimDuration::from_millis_f64(2.5)), "2.500ms");
    }
}
