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
/// 2^52: from here up every `f64` is a whole number.
const EXACT_INTEGERS: f64 = 4_503_599_627_370_496.0;

/// Rounds a finite, non-negative nanosecond count half away from zero
/// and saturates at `u64::MAX`: bit-identical to `ns.round() as u64`,
/// without the software `round` call of a baseline x86-64 build. Below
/// 2^52 the truncation and the fraction `ns - whole` are both exact.
fn round_nanos(ns: f64) -> u64 {
    if ns < EXACT_INTEGERS {
        let whole = ns as u64;
        whole + u64::from(ns - whole as f64 >= 0.5)
    } else {
        ns as u64
    }
}

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
        SimTime(round_nanos(secs * NANOS_PER_SEC))
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
        SimTime(round_nanos(millis * NANOS_PER_MILLI))
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
        SimDuration(round_nanos(secs * NANOS_PER_SEC))
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
        SimDuration(round_nanos(millis * NANOS_PER_MILLI))
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
        SimDuration(round_nanos(micros * NANOS_PER_MICRO))
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
    use crate::check;
    use crate::prop_assert_eq;

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
    #[should_panic(expected = "invalid time: -0.5")]
    fn negative_time_panics_with_its_value() {
        let _ = SimTime::from_millis_f64(-0.5);
    }

    #[test]
    #[should_panic(expected = "invalid time: NaN")]
    fn nan_time_panics_with_its_value() {
        let _ = SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid duration: NaN")]
    fn nan_duration_panics_with_its_value() {
        let _ = SimDuration::from_micros_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "invalid duration: -inf")]
    fn infinite_duration_panics_with_its_value() {
        let _ = SimDuration::from_millis_f64(f64::NEG_INFINITY);
    }

    /// `round_nanos` against `f64::round` by value, on the inputs where a
    /// shortcut rounding would go wrong.
    #[test]
    fn round_nanos_is_round_on_edge_cases() {
        let two52 = EXACT_INTEGERS;
        let two64: f64 = 18_446_744_073_709_551_616.0;
        let mut inputs = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            two52 - 0.5,
            two52 - 1.5,
            two52.next_down(),
            two52,
            two52.next_up(),
            two64.next_down(),
            two64,
            two64.next_up(),
            1e20,
            f64::MAX,
        ];
        // Exact halves and their neighbours at every scale up to 2^52.
        for k in 0..52 {
            let half = (1u64 << k) as f64 + 0.5;
            inputs.extend([half, half.next_down(), half.next_up()]);
        }
        for ns in inputs {
            assert_eq!(round_nanos(ns), ns.round() as u64, "at {ns:e}");
        }
    }

    /// `round_nanos` against `f64::round` by value, over every finite
    /// non-negative double (uniform in the bit pattern, so across the
    /// whole exponent range), over values below 2^53 with a random
    /// fraction, and over exact halves below 2^52 and their neighbours.
    #[test]
    fn round_nanos_is_round_everywhere() {
        let cases = (
            check::u64s(0..),
            check::u64s(0..1 << 53),
            check::u64s(0..53),
        );
        check::check("round_nanos_is_round", cases, |&(bits, whole, shift)| {
            let any = f64::from_bits(bits & (u64::MAX >> 1));
            let any = if any.is_finite() { any } else { f64::MAX };
            let scaled = whole as f64 / (1u64 << shift) as f64;
            let half = (whole >> 1) as f64 + 0.5;
            for ns in [any, scaled, half, half.next_down(), half.next_up()] {
                prop_assert_eq!(round_nanos(ns), ns.round() as u64, "at {ns:e}");
            }
            Ok(())
        });
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
