//! Online statistics used by the simulator's metric collectors.
//!
//! Everything here is single-pass and allocation-light so it can run inside
//! the event loop: Welford mean/variance ([`Running`]), time-weighted
//! averages for utilization tracking ([`TimeWeighted`]), and log-bucketed
//! histograms for tail inspection ([`LogHistogram`]).

use crate::time::SimTime;

/// Single-pass mean / variance / min / max accumulator (Welford's method).
///
/// # Example
///
/// ```
/// use simcore::stats::Running;
///
/// let mut r = Running::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     r.record(x);
/// }
/// assert_eq!(r.mean(), 2.5);
/// assert_eq!(r.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Running {
    /// The empty accumulator (same as [`Running::new`]). A derived default
    /// would zero the min/max sentinels and silently corrupt them.
    fn default() -> Self {
        Running::new()
    }
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite; NaNs poison statistics silently and we
    /// would rather fail loudly at the source.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample: {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance, or 0.0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = Running::new();
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. queue depth,
/// busy/idle state). Feed it level changes; query the average over the
/// observed span.
///
/// # Example
///
/// ```
/// use simcore::stats::TimeWeighted;
/// use simcore::SimTime;
///
/// let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
/// u.set(SimTime::from_secs_f64(1.0), 1.0); // busy from t=1
/// assert_eq!(u.average(SimTime::from_secs_f64(2.0)), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_change: SimTime,
    level: f64,
    weighted_sum: f64,
    origin: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with the signal at `level`.
    pub fn new(start: SimTime, level: f64) -> Self {
        TimeWeighted {
            last_change: start,
            level,
            weighted_sum: 0.0,
            origin: start,
        }
    }

    /// Records that the signal changed to `level` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous change (causality).
    pub fn set(&mut self, now: SimTime, level: f64) {
        assert!(now >= self.last_change, "time went backwards");
        self.weighted_sum += self.level * (now - self.last_change).as_secs_f64();
        self.last_change = now;
        self.level = level;
    }

    /// Adds `delta` to the current level at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let level = self.level + delta;
        self.set(now, level);
    }

    /// Current level of the signal.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Time-weighted average from the start of tracking until `now`.
    /// Returns the current level if no time has elapsed.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last recorded change (causality) —
    /// `SimTime` subtraction saturates to zero, so a stale `now` would
    /// otherwise silently drop the trailing segment and return a wrong
    /// average instead of failing loudly like [`TimeWeighted::set`].
    pub fn average(&self, now: SimTime) -> f64 {
        assert!(now >= self.last_change, "time went backwards");
        let span = (now - self.origin).as_secs_f64();
        if span <= 0.0 {
            return self.level;
        }
        let sum = self.weighted_sum + self.level * (now - self.last_change).as_secs_f64();
        sum / span
    }
}

/// A histogram with logarithmically spaced buckets, for latency tails.
///
/// Bucket `i` covers `[base * growth^i, base * growth^(i+1))`; values below
/// `base` land in bucket 0, values beyond the last bucket in the overflow
/// bucket.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    base: f64,
    growth: f64,
    /// `growth.ln()`, cached once — `record` is a per-event hot path for
    /// the streaming aggregator, and the quotient must stay bit-identical
    /// to dividing by a freshly computed `growth.ln()` (so this is a
    /// cache, never a reciprocal-multiply rewrite).
    ln_growth: f64,
    /// Bits of the last recorded value and the bucket it landed in.
    /// Deterministic simulations repeat exact durations constantly, so
    /// this memo skips the `ln` on bit-equal samples without any chance
    /// of a different bucket. NaN bits never match (samples are asserted
    /// finite), so the initial state can never produce a false hit.
    memo_bits: u64,
    memo_idx: usize,
    counts: Vec<u64>,
    total: u64,
    max: f64,
}

impl LogHistogram {
    /// Creates a histogram with `buckets` buckets starting at `base` and
    /// growing by `growth` per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `base <= 0`, `growth <= 1`, or `buckets == 0`.
    pub fn new(base: f64, growth: f64, buckets: usize) -> Self {
        assert!(base > 0.0 && base.is_finite(), "invalid base: {base}");
        assert!(
            growth > 1.0 && growth.is_finite(),
            "invalid growth: {growth}"
        );
        assert!(buckets > 0, "need at least one bucket");
        LogHistogram {
            base,
            growth,
            ln_growth: growth.ln(),
            memo_bits: f64::NAN.to_bits(),
            memo_idx: 0,
            counts: vec![0; buckets + 1], // +1 overflow bucket
            total: 0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite sample: {value}");
        let idx = if value.to_bits() == self.memo_bits {
            self.memo_idx
        } else if value < self.base {
            0
        } else {
            let i = ((value / self.base).ln() / self.ln_growth).floor() as usize;
            i.min(self.counts.len() - 1)
        };
        self.memo_bits = value.to_bits();
        self.memo_idx = idx;
        self.counts[idx] += 1;
        self.total += 1;
        self.max = self.max.max(value);
    }

    /// Total number of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest value ever recorded, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate quantile `q in [0,1]`: returns the upper edge of the
    /// bucket containing the q-th value, clamped to the largest value
    /// actually recorded, or `None` when empty.
    ///
    /// The overflow bucket is unbounded, so its "edge" is the recorded
    /// maximum itself — reporting a synthetic finite edge there would
    /// understate (or overstate) the tail by an arbitrary factor.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let edge = if i + 1 == self.counts.len() {
                    // Overflow bucket: no upper edge exists; the running
                    // max is the only truthful bound.
                    self.max
                } else {
                    self.base * self.growth.powi(i as i32 + 1)
                };
                return Some(edge.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Iterates over `(bucket_lower_edge, count)` for the regular buckets,
    /// then `(last_edge, overflow_count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.base * self.growth.powi(i as i32), c))
    }

    /// Merges another histogram into this one by summing per-bucket
    /// counts. Used when per-job trace counters are combined into one
    /// report: merging is exactly equivalent to having recorded both
    /// sample streams into a single histogram.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket layouts
    /// (`base`, `growth`, or bucket count) — summing counts across
    /// mismatched edges would silently produce garbage quantiles.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.base == other.base
                && self.growth == other.growth
                && self.counts.len() == other.counts.len(),
            "histogram layout mismatch: ({}, {}, {}) vs ({}, {}, {})",
            self.base,
            self.growth,
            self.counts.len(),
            other.base,
            other.growth,
            other.counts.len()
        );
        if other.total == 0 {
            return;
        }
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut r = Running::new();
        for &x in &xs {
            r.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((r.mean() - mean).abs() < 1e-12);
        assert!((r.variance() - var).abs() < 1e-12);
        assert_eq!(r.min(), Some(1.0));
        assert_eq!(r.max(), Some(9.0));
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Running::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..20] {
            a.record(x);
        }
        for &x in &xs[20..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.count(), all.count());
    }

    /// Full bit pattern of a [`Running`], for bit-exact identity checks.
    fn running_bits(r: &Running) -> (u64, u64, u64, u64, u64) {
        (
            r.count,
            r.mean.to_bits(),
            r.m2.to_bits(),
            r.min.to_bits(),
            r.max.to_bits(),
        )
    }

    #[test]
    fn running_merge_of_two_empties_stays_usable() {
        // Regression guard for the empty-merge path (load-bearing for the
        // runner's job-index merge order): merging two empty accumulators
        // must leave an empty accumulator — no NaN mean from a 0/0 — and
        // the result must keep accepting merges and samples afterwards.
        let mut a = Running::new();
        a.merge(&Running::new());
        assert_eq!(a.count(), 0);
        assert!(!a.mean().is_nan() && a.mean() == 0.0);
        assert!(!a.variance().is_nan());
        let mut b = Running::new();
        b.record(2.5);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 2.5);
        a.record(7.5);
        assert_eq!(a.mean(), 5.0);
    }

    #[test]
    fn running_merge_empty_is_identity_property() {
        use crate::check::{self};
        use crate::prop_assert_eq;
        // ∅ is the two-sided identity of merge, bit-exactly: r ∪ ∅ and
        // ∅ ∪ r both reproduce r's full bit pattern for any sample set.
        check::check(
            "running_merge_empty_identity",
            check::vec(check::f64s(-1.0e6..1.0e6), 0..30),
            |xs| {
                let mut r = Running::new();
                for &x in xs {
                    r.record(x);
                }
                let mut right = r;
                right.merge(&Running::new());
                prop_assert_eq!(running_bits(&right), running_bits(&r));
                let mut left = Running::new();
                left.merge(&r);
                prop_assert_eq!(running_bits(&left), running_bits(&r));
                Ok(())
            },
        );
    }

    #[test]
    fn running_merge_is_associative() {
        use crate::check::{self};
        use crate::{prop_assert, prop_assert_eq};
        // (a ∪ b) ∪ c ≡ a ∪ (b ∪ c): count/min/max exactly, mean and
        // variance within floating-point tolerance — including when any
        // of the three parts is empty.
        fn close(x: f64, y: f64) -> bool {
            (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
        }
        check::check(
            "running_merge_associative",
            (
                check::vec(check::f64s(-1.0e3..1.0e3), 0..20),
                check::vec(check::f64s(-1.0e3..1.0e3), 0..20),
                check::vec(check::f64s(-1.0e3..1.0e3), 0..20),
            ),
            |(xs, ys, zs)| {
                let fill = |v: &[f64]| {
                    let mut r = Running::new();
                    for &x in v {
                        r.record(x);
                    }
                    r
                };
                let (a, b, c) = (fill(xs), fill(ys), fill(zs));
                let mut ab_c = a;
                ab_c.merge(&b);
                ab_c.merge(&c);
                let mut bc = b;
                bc.merge(&c);
                let mut a_bc = a;
                a_bc.merge(&bc);
                prop_assert_eq!(ab_c.count(), a_bc.count());
                prop_assert_eq!(ab_c.min().map(f64::to_bits), a_bc.min().map(f64::to_bits));
                prop_assert_eq!(ab_c.max().map(f64::to_bits), a_bc.max().map(f64::to_bits));
                prop_assert!(
                    close(ab_c.mean(), a_bc.mean()),
                    "means diverged: {} vs {}",
                    ab_c.mean(),
                    a_bc.mean()
                );
                prop_assert!(
                    close(ab_c.variance(), a_bc.variance()),
                    "variances diverged: {} vs {}",
                    ab_c.variance(),
                    a_bc.variance()
                );
                Ok(())
            },
        );
    }

    #[test]
    fn running_empty_defaults() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
    }

    #[test]
    fn default_matches_new() {
        // Regression: a derived Default once zeroed the min/max sentinels,
        // so the first recorded sample could never raise min above 0.
        let mut r = Running::default();
        r.record(5.0);
        assert_eq!(r.min(), Some(5.0));
        assert_eq!(r.max(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn running_rejects_nan() {
        Running::new().record(f64::NAN);
    }

    #[test]
    fn time_weighted_average() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 0.0);
        u.set(SimTime::from_secs_f64(2.0), 4.0);
        u.set(SimTime::from_secs_f64(3.0), 0.0);
        // 0 for 2s, 4 for 1s, 0 for 1s => 4/4 = 1.0
        assert!((u.average(SimTime::from_secs_f64(4.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_tracks_level() {
        let mut u = TimeWeighted::new(SimTime::ZERO, 1.0);
        u.add(SimTime::from_secs_f64(1.0), 2.0);
        assert_eq!(u.level(), 3.0);
        u.add(SimTime::from_secs_f64(2.0), -3.0);
        assert_eq!(u.level(), 0.0);
        // 1 for 1s, 3 for 1s, 0 for 2s => 4/4 = 1.0
        assert!((u.average(SimTime::from_secs_f64(4.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_average_rejects_stale_now() {
        // Regression: `SimTime::sub` saturates at zero, so querying the
        // average at a `now` before the last change silently dropped the
        // trailing segment (returning 4/3 here instead of failing).
        let mut u = TimeWeighted::new(SimTime::ZERO, 2.0);
        u.set(SimTime::from_secs_f64(2.0), 0.0);
        u.average(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn histogram_quantiles_bracket() {
        let mut h = LogHistogram::new(1.0, 2.0, 10);
        for v in [1.0, 2.0, 4.0, 8.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= 4.0 && p50 <= 16.0, "p50 = {p50}");
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= 100.0, "p100 = {p100}");
    }

    #[test]
    fn histogram_tail_quantile_reports_true_max() {
        // Regression: values far beyond the last bucket land in the
        // unbounded overflow bucket, whose "upper edge" used to be
        // fabricated as base * growth^(buckets+1) = 32 here — understating
        // the tail by over four orders of magnitude.
        let mut h = LogHistogram::new(1.0, 2.0, 4);
        h.record(1.0);
        h.record(1.0e6);
        h.record(2.0e6);
        assert_eq!(h.max(), Some(2.0e6));
        assert_eq!(h.quantile(1.0), Some(2.0e6));
        // Any quantile that falls in the overflow bucket is bounded by the
        // recorded max, never by a synthetic finite edge.
        let p66 = h.quantile(0.66).unwrap();
        assert!(p66 > 32.0, "tail quantile understated: {p66}");
        assert!(p66 <= 2.0e6);
        // Quantiles inside regular buckets still report bucket edges.
        assert_eq!(h.quantile(0.01), Some(2.0));
    }

    #[test]
    fn histogram_quantile_never_exceeds_recorded_max() {
        // A single value mid-bucket: the bucket's upper edge (4.0) would
        // overstate the only sample ever seen.
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        h.record(3.0);
        assert_eq!(h.quantile(1.0), Some(3.0));
    }

    #[test]
    fn histogram_underflow_and_overflow() {
        let mut h = LogHistogram::new(10.0, 10.0, 2);
        h.record(0.5); // below base -> bucket 0
        h.record(1e9); // overflow bucket
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts[0], 1);
        assert_eq!(*counts.last().unwrap(), 1);
    }

    #[test]
    fn histogram_merge_equals_sequential() {
        use crate::check::{self};
        use crate::prop_assert_eq;
        // Splitting a sample stream at any point and merging the two
        // halves is indistinguishable from recording it all into one
        // histogram: same counts, total, max, and every quantile.
        check::check(
            "log_histogram_merge",
            (
                check::vec(check::f64s(0.01..1.0e7), 0..40),
                check::usizes(0..41),
            ),
            |(xs, split)| {
                let split = (*split).min(xs.len());
                let mut all = LogHistogram::new(0.1, 2.0, 16);
                let mut a = LogHistogram::new(0.1, 2.0, 16);
                let mut b = LogHistogram::new(0.1, 2.0, 16);
                for &x in xs {
                    all.record(x);
                }
                for &x in &xs[..split] {
                    a.record(x);
                }
                for &x in &xs[split..] {
                    b.record(x);
                }
                a.merge(&b);
                prop_assert_eq!(a.total(), all.total());
                prop_assert_eq!(a.max(), all.max());
                let counts_a: Vec<u64> = a.buckets().map(|(_, c)| c).collect();
                let counts_all: Vec<u64> = all.buckets().map(|(_, c)| c).collect();
                prop_assert_eq!(counts_a, counts_all);
                for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                    prop_assert_eq!(
                        a.quantile(q).map(f64::to_bits),
                        all.quantile(q).map(f64::to_bits),
                        "quantile {q} diverged after merge"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn histogram_quantile_at_bucket_boundaries() {
        use crate::check::{self};
        use crate::{prop_assert, prop_assert_eq};
        // Values placed exactly on bucket edges (base * growth^i) must
        // report a quantile that brackets the value: at least the value
        // itself, at most one bucket-width above it (never below — a
        // boundary value belongs to the bucket it opens).
        check::check(
            "log_histogram_boundary_quantile",
            check::vec(check::usizes(0..12), 1..20),
            |exponents| {
                let base = 1.0;
                let growth = 2.0;
                let mut h = LogHistogram::new(base, growth, 16);
                let mut values: Vec<f64> = exponents
                    .iter()
                    .map(|&e| base * growth.powi(e as i32))
                    .collect();
                for &v in &values {
                    h.record(v);
                }
                values.sort_by(f64::total_cmp);
                prop_assert_eq!(h.quantile(1.0), values.last().copied());
                for (k, &v) in values.iter().enumerate() {
                    let q = (k + 1) as f64 / values.len() as f64;
                    let got = h.quantile(q).unwrap();
                    prop_assert!(
                        got >= v,
                        "q={q}: quantile {got} fell below boundary value {v}"
                    );
                    prop_assert!(
                        got <= (v * growth).min(*values.last().unwrap()),
                        "q={q}: quantile {got} overshot bucket above {v}"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn histogram_merge_empty_is_identity() {
        let mut h = LogHistogram::new(1.0, 2.0, 8);
        h.record(3.0);
        let before: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        h.merge(&LogHistogram::new(1.0, 2.0, 8));
        let after: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(before, after);
        assert_eq!(h.max(), Some(3.0));

        let mut empty = LogHistogram::new(1.0, 2.0, 8);
        empty.merge(&h);
        assert_eq!(empty.total(), 1);
        assert_eq!(empty.quantile(1.0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "histogram layout mismatch")]
    fn histogram_merge_rejects_layout_mismatch() {
        let mut a = LogHistogram::new(1.0, 2.0, 8);
        let b = LogHistogram::new(1.0, 2.0, 9);
        a.merge(&b);
    }

    #[test]
    fn time_weighted_across_window_seams() {
        use crate::check::{self};
        use crate::prop_assert;
        // The seam invariant behind per-window utilization counters: a
        // signal tracked continuously over [0, T] must equal the
        // duration-weighted combination of two trackers split at an
        // arbitrary seam s — the second tracker starting at the level
        // the first one ended with.
        check::check(
            "time_weighted_window_seam",
            (
                check::vec((check::f64s(0.001..10.0), check::f64s(0.0..8.0)), 1..16),
                check::usizes(0..17),
            ),
            |(steps, seam_idx)| {
                let seam_idx = (*seam_idx).min(steps.len());
                // Build absolute change times from positive gaps.
                let mut t = 0.0;
                let changes: Vec<(f64, f64)> = steps
                    .iter()
                    .map(|&(gap, level)| {
                        t += gap;
                        (t, level)
                    })
                    .collect();
                let end = t + 1.0;
                let seam = if seam_idx == changes.len() {
                    t + 0.5
                } else {
                    changes[seam_idx].0
                };

                let mut whole = TimeWeighted::new(SimTime::ZERO, 0.0);
                for &(at, level) in &changes {
                    whole.set(SimTime::from_secs_f64(at), level);
                }
                let expected = whole.average(SimTime::from_secs_f64(end));

                let mut first = TimeWeighted::new(SimTime::ZERO, 0.0);
                let mut level_at_seam = 0.0;
                for &(at, level) in changes.iter().take_while(|&&(at, _)| at < seam) {
                    first.set(SimTime::from_secs_f64(at), level);
                    level_at_seam = level;
                }
                let mut second = TimeWeighted::new(SimTime::from_secs_f64(seam), level_at_seam);
                for &(at, level) in changes.iter().skip_while(|&&(at, _)| at < seam) {
                    second.set(SimTime::from_secs_f64(at), level);
                }
                let avg_a = first.average(SimTime::from_secs_f64(seam));
                let avg_b = second.average(SimTime::from_secs_f64(end));
                // Durations computed from the same quantized SimTime
                // values the trackers saw, so the combination is exact
                // up to float rounding.
                let d_a = SimTime::from_secs_f64(seam).as_secs_f64();
                let d_b = SimTime::from_secs_f64(end).as_secs_f64() - d_a;
                let combined = (avg_a * d_a + avg_b * d_b) / (d_a + d_b);
                prop_assert!(
                    (combined - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                    "seam combination diverged: whole={expected}, combined={combined}, seam={seam}"
                );
                Ok(())
            },
        );
    }
}
