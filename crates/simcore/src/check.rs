//! `simcore::check` — a small, fully in-tree property-testing framework.
//!
//! Replaces the external `proptest` dependency in this hermetically built
//! workspace. The pieces:
//!
//! * [`Strategy`] — generates random values and proposes shrunk
//!   candidates (integer, float, vec, and tuple strategies are built in).
//! * [`check`] — run a property over many seeded cases
//!   (256 by default), greedily shrink the first counterexample, and
//!   panic with a replayable seed.
//! * [`prop_assert!`](crate::prop_assert) /
//!   [`prop_assert_eq!`](crate::prop_assert_eq) — assertion macros that
//!   report failures as `Err(String)` so the shrinker can re-run the
//!   property silently.
//!
//! Every case derives its own seed from `(master seed, case index)`, so a
//! failure report names one `u64` that replays the exact input:
//! `SIMCORE_CHECK_SEED=<seed> cargo test -p <crate> <test>`. The case
//! count can be raised globally with `SIMCORE_CHECK_CASES`.
//!
//! # Example
//!
//! ```
//! use simcore::check::{self, Strategy};
//! use simcore::prop_assert;
//!
//! // Reversing a vec twice is the identity.
//! check::check(
//!     "double_reverse",
//!     check::vec(check::u64s(0..100), 0..16),
//!     |v| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert!(w == *v, "{w:?} != {v:?}");
//!         Ok(())
//!     },
//! );
//! ```

use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};

use crate::rand::{splitmix64, Rng, SeedableRng, StdRng};

/// Asserts a condition inside a [`check`] property, reporting failure as
/// `Err(String)` instead of panicking (so shrinking can re-run the
/// property without unwinding).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`check`] property; see
/// [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err(format!($($fmt)+));
        }
    }};
}

/// A generator of random test inputs that can also propose simpler
/// variants of a failing input.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + Debug;

    /// Draws one input from `rng`.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Proposes strictly "simpler" candidates for `value` (may be empty).
    /// Candidates need not fail the property; the runner filters.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Runner configuration. Usually obtained from [`Config::default`], which
/// honors the `SIMCORE_CHECK_CASES` and `SIMCORE_CHECK_SEED` environment
/// variables.
#[derive(Debug, Clone)]
pub(crate) struct Config {
    /// Number of random cases to run (default 256).
    pub cases: u32,
    /// Master seed from which per-case seeds derive.
    pub master_seed: u64,
    /// Single case seed to replay instead of the full sweep.
    pub replay_seed: Option<u64>,
    /// Cap on property re-evaluations spent shrinking one failure.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("SIMCORE_CHECK_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        let replay_seed = std::env::var("SIMCORE_CHECK_SEED")
            .ok()
            .and_then(|v| v.parse().ok());
        Config {
            cases,
            master_seed: 0x4842_4f5f_4348_4b31, // "HBO_CHK1"
            replay_seed,
            max_shrink_steps: 512,
        }
    }
}

/// Runs `prop` over randomly generated inputs (256 cases unless
/// `SIMCORE_CHECK_CASES` says otherwise, or the one case
/// `SIMCORE_CHECK_SEED` names); panics with a replayable report on the
/// first failure.
pub fn check<S, P>(name: &str, strategy: S, prop: P)
where
    S: Strategy,
    P: Fn(&S::Value) -> Result<(), String>,
{
    check_with(&Config::default(), name, strategy, prop)
}

/// [`check`] with an explicit configuration.
pub(crate) fn check_with<S, P>(config: &Config, name: &str, strategy: S, prop: P)
where
    S: Strategy,
    P: Fn(&S::Value) -> Result<(), String>,
{
    if let Some(seed) = config.replay_seed {
        run_case(config, name, &strategy, &prop, seed, 0);
        return;
    }
    for case in 0..config.cases {
        let case_seed = splitmix64(config.master_seed ^ splitmix64(case as u64));
        run_case(config, name, &strategy, &prop, case_seed, case);
    }
}

/// Replays one derived seed against the property; panics on failure.
fn run_case<S, P>(config: &Config, name: &str, strategy: &S, prop: &P, case_seed: u64, case: u32)
where
    S: Strategy,
    P: Fn(&S::Value) -> Result<(), String>,
{
    let mut rng = StdRng::seed_from_u64(case_seed);
    let value = strategy.generate(&mut rng);
    if let Err(error) = prop(&value) {
        let (shrunk, shrunk_error, steps) = shrink_failure(
            strategy,
            prop,
            value.clone(),
            error.clone(),
            config.max_shrink_steps,
        );
        panic!(
            "property '{name}' falsified at case {case}\n  \
             replay: SIMCORE_CHECK_SEED={case_seed} cargo test\n  \
             original input: {value:?}\n  \
             original error: {error}\n  \
             shrunk input ({steps} accepted steps): {shrunk:?}\n  \
             shrunk error: {shrunk_error}"
        );
    }
}

/// Greedy shrink loop: repeatedly adopt the first candidate that still
/// fails, until no candidate fails or the evaluation budget runs out.
fn shrink_failure<S, P>(
    strategy: &S,
    prop: &P,
    mut failing: S::Value,
    mut error: String,
    budget: u32,
) -> (S::Value, String, u32)
where
    S: Strategy,
    P: Fn(&S::Value) -> Result<(), String>,
{
    let mut evals = 0;
    let mut accepted = 0;
    'outer: loop {
        for candidate in strategy.shrink(&failing) {
            if evals >= budget {
                break 'outer;
            }
            evals += 1;
            if let Err(e) = prop(&candidate) {
                failing = candidate;
                error = e;
                accepted += 1;
                continue 'outer;
            }
        }
        break;
    }
    (failing, error, accepted)
}

// ---------------------------------------------------------------------
// Built-in strategies
// ---------------------------------------------------------------------

fn f64_bounds(range: impl RangeBounds<f64>) -> (f64, f64, bool) {
    let lo = match range.start_bound() {
        Bound::Included(&v) | Bound::Excluded(&v) => v,
        Bound::Unbounded => f64::MIN,
    };
    let (hi, inclusive) = match range.end_bound() {
        Bound::Included(&v) => (v, true),
        Bound::Excluded(&v) => (v, false),
        Bound::Unbounded => (f64::MAX, true),
    };
    (lo, hi, inclusive)
}

/// Uniform `f64` strategy over a range; shrinks toward the lower bound.
#[derive(Debug, Clone)]
pub struct F64Strategy {
    lo: f64,
    hi: f64,
    inclusive: bool,
}

/// Uniform `f64`s drawn from `range` (half-open or inclusive).
pub fn f64s(range: impl RangeBounds<f64>) -> F64Strategy {
    let (lo, hi, inclusive) = f64_bounds(range);
    assert!(
        lo.is_finite() && hi.is_finite() && lo <= hi,
        "bad f64 range [{lo}, {hi}]"
    );
    F64Strategy { lo, hi, inclusive }
}

impl Strategy for F64Strategy {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else if self.inclusive {
            rng.gen_range(self.lo..=self.hi)
        } else {
            rng.gen_range(self.lo..self.hi)
        }
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let mut out = Vec::new();
        // Toward the lower bound: the bound itself, then the midpoint.
        if v != self.lo {
            out.push(self.lo);
            let mid = self.lo + (v - self.lo) / 2.0;
            if mid != v && mid != self.lo {
                out.push(mid);
            }
            // A "rounder" value often reads better in reports.
            let rounded = v.round();
            if rounded != v && rounded > self.lo && rounded < v {
                out.push(rounded);
            }
        }
        out
    }
}

fn u64_bounds(range: impl RangeBounds<u64>) -> (u64, u64) {
    let lo = match range.start_bound() {
        Bound::Included(&v) => v,
        Bound::Excluded(&v) => v + 1,
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&v) => v,
        Bound::Excluded(&v) => v.checked_sub(1).expect("empty u64 range"),
        Bound::Unbounded => u64::MAX,
    };
    (lo, hi)
}

/// Uniform `u64` strategy over an inclusive-normalized range; shrinks
/// toward the lower bound.
#[derive(Debug, Clone)]
pub struct U64Strategy {
    lo: u64,
    hi: u64,
}

/// Uniform `u64`s drawn from `range`.
pub fn u64s(range: impl RangeBounds<u64>) -> U64Strategy {
    let (lo, hi) = u64_bounds(range);
    assert!(lo <= hi, "bad u64 range [{lo}, {hi}]");
    U64Strategy { lo, hi }
}

impl Strategy for U64Strategy {
    type Value = u64;

    fn generate(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(self.lo..=self.hi)
    }

    fn shrink(&self, value: &u64) -> Vec<u64> {
        let v = *value;
        let mut out = Vec::new();
        if v > self.lo {
            out.push(self.lo);
            let mid = self.lo + (v - self.lo) / 2;
            if mid != v && mid != self.lo {
                out.push(mid);
            }
            out.push(v - 1);
        }
        out.dedup();
        out
    }
}

/// Uniform `usize` strategy; shrinks toward the lower bound.
#[derive(Debug, Clone)]
pub struct UsizeStrategy {
    inner: U64Strategy,
}

/// Uniform `usize`s drawn from `range`.
pub fn usizes(range: impl RangeBounds<usize>) -> UsizeStrategy {
    let lo = match range.start_bound() {
        Bound::Included(&v) => v as u64,
        Bound::Excluded(&v) => v as u64 + 1,
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&v) => v as u64,
        Bound::Excluded(&v) => (v as u64).checked_sub(1).expect("empty usize range"),
        Bound::Unbounded => usize::MAX as u64,
    };
    assert!(lo <= hi, "bad usize range [{lo}, {hi}]");
    UsizeStrategy {
        inner: U64Strategy { lo, hi },
    }
}

impl Strategy for UsizeStrategy {
    type Value = usize;

    fn generate(&self, rng: &mut StdRng) -> usize {
        self.inner.generate(rng) as usize
    }

    fn shrink(&self, value: &usize) -> Vec<usize> {
        self.inner
            .shrink(&(*value as u64))
            .into_iter()
            .map(|v| v as usize)
            .collect()
    }
}

/// Vec strategy: random length from a range, elements from an inner
/// strategy. Shrinks by truncating, removing single elements, and
/// shrinking individual elements.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    min_len: usize,
    max_len: usize,
}

/// Vecs of `element` values with a length drawn from `len` (half-open or
/// inclusive; a degenerate range like `4..=4` pins the length).
pub fn vec<S: Strategy>(element: S, len: impl RangeBounds<usize>) -> VecStrategy<S> {
    let min_len = match len.start_bound() {
        Bound::Included(&v) => v,
        Bound::Excluded(&v) => v + 1,
        Bound::Unbounded => 0,
    };
    let max_len = match len.end_bound() {
        Bound::Included(&v) => v,
        Bound::Excluded(&v) => v.checked_sub(1).expect("empty length range"),
        Bound::Unbounded => 64,
    };
    assert!(
        min_len <= max_len,
        "bad length range [{min_len}, {max_len}]"
    );
    VecStrategy {
        element,
        min_len,
        max_len,
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.min_len..=self.max_len);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // Structural shrinks first: shorter inputs localize bugs fastest.
        if len > self.min_len {
            let half = (len / 2).max(self.min_len);
            if half < len {
                out.push(value[..half].to_vec());
            }
            for i in 0..len.min(8) {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Then element-wise shrinks (bounded fan-out).
        for i in 0..len.min(8) {
            for cand in self.element.shrink(&value[i]).into_iter().take(2) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx).into_iter().take(3) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut config = Config::default();
        config.cases = 300;
        config.replay_seed = None;
        let seen = std::cell::Cell::new(0u32);
        check_with(&config, "counts_cases", f64s(0.0..1.0), |x| {
            seen.set(seen.get() + 1);
            prop_assert!((0.0..1.0).contains(x));
            Ok(())
        });
        assert_eq!(seen.get(), 300);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = vec(f64s(0.0..1.0), 1..10);
        let a = s.generate(&mut StdRng::seed_from_u64(99));
        let b = s.generate(&mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }

    #[test]
    fn failure_panics_with_replay_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            let mut config = Config::default();
            config.replay_seed = None;
            check_with(&config, "gt_ten_fails", u64s(0..1000), |&x| {
                prop_assert!(x < 10, "{x} >= 10");
                Ok(())
            });
        });
        let msg = *result
            .expect_err("property should fail")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("SIMCORE_CHECK_SEED="), "{msg}");
        assert!(msg.contains("falsified"), "{msg}");
        // Greedy shrink must reach the boundary counterexample.
        assert!(
            msg.contains("shrunk input") && msg.contains(": 10"),
            "{msg}"
        );
    }

    #[test]
    fn vec_shrink_reaches_minimal_failing_length() {
        // Property: "no vec of length >= 3 exists" — minimal
        // counterexample is any length-3 vec; shrinking must reach len 3.
        let result = std::panic::catch_unwind(|| {
            let mut config = Config::default();
            config.replay_seed = None;
            check_with(&config, "len3", vec(u64s(0..5), 0..32), |v| {
                prop_assert!(v.len() < 3, "len {}", v.len());
                Ok(())
            });
        });
        let msg = *result
            .expect_err("should fail")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("len 3"), "{msg}");
    }

    #[test]
    fn float_shrink_moves_toward_lower_bound() {
        let s = f64s(1.0..4.0);
        let cands = s.shrink(&3.0);
        assert!(cands.contains(&1.0));
        assert!(cands.iter().all(|&c| (1.0..3.0).contains(&c)), "{cands:?}");
    }

    #[test]
    fn tuple_shrink_varies_one_component_at_a_time() {
        let s = (u64s(0..10), u64s(0..10));
        for (a, b) in s.shrink(&(5, 7)) {
            assert!((a, b) != (5, 7));
            assert!(a == 5 || b == 7, "both moved: ({a}, {b})");
        }
    }

    #[test]
    fn replay_seed_runs_exactly_one_case() {
        let mut config = Config::default();
        config.replay_seed = Some(1234);
        let seen = std::cell::Cell::new(0u32);
        check_with(&config, "replay", u64s(0..100), |_| {
            seen.set(seen.get() + 1);
            Ok(())
        });
        assert_eq!(seen.get(), 1);
    }

    #[test]
    fn degenerate_ranges_are_supported() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(f64s(0.5..=0.5).generate(&mut rng), 0.5);
        assert_eq!(
            vec(u64s(3..=3), 4..=4).generate(&mut rng),
            std::vec![3, 3, 3, 3]
        );
    }
}
