//! In-tree deterministic random-number generation.
//!
//! This workspace builds hermetically — no registry crates — so the PRNG
//! machinery the simulators and optimizers need lives here instead of in
//! the external `rand` crate. The module mirrors exactly the subset of
//! `rand`'s API surface the workspace uses ([`SeedableRng`], [`RngCore`],
//! [`Rng::gen`] for `f64`, [`Rng::gen_range`] over `f64`, `u64` and
//! `usize` ranges) so call sites read identically to idiomatic `rand`
//! code.
//!
//! The generator is xoshiro256++ seeded through splitmix64: fast, well
//! tested statistically, and — crucially for reproducible experiments —
//! fully specified in this file, so a seed printed in a failure report
//! today replays bit-identically forever.
//!
//! # Example
//!
//! ```
//! use simcore::rand::{Rng, SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let x: f64 = rng.gen();             // uniform in [0, 1)
//! let k = rng.gen_range(0..10usize);  // uniform integer
//! assert!((0.0..1.0).contains(&x));
//! assert!(k < 10);
//! // Same seed, same stream.
//! let mut rng2 = StdRng::seed_from_u64(42);
//! assert_eq!(rng2.gen::<f64>(), x);
//! ```

use std::ops::{Range, RangeInclusive};

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation used for
/// seeding and seed derivation.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A source of raw random 64-bit words.
///
/// Object safe (`&mut dyn RngCore` works), mirroring `rand::RngCore` so
/// optimizer APIs can take type-erased generators.
pub trait RngCore {
    /// Next raw 64-bit word.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator deterministically from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// xoshiro256++ — the workspace's standard generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush. Named `StdRng`
/// so ported `rand` call sites keep reading naturally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    /// Seeds the four state words from a splitmix64 sequence, the
    /// initialization recommended by the xoshiro authors.
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(x);
        }
        // A xoshiro state of all zeros is a fixed point; splitmix64 of a
        // four-step sequence can never produce one, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Values drawable uniformly from a generator's raw words ("standard"
/// distribution): `f64` in `[0, 1)`.
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits → [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A range that [`Rng::gen_range`] can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` by rejection over a widening multiply
/// (Lemire's method), bias-free for every span.
fn uniform_u64_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection threshold: multiples of span fit evenly below 2^64 - t.
    let t = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= t {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_sample_range {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_u64_below(rng, span) as $ty)
            }
        }

        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every word is valid.
                    return rng.next_u64() as $ty;
                }
                lo.wrapping_add(uniform_u64_below(rng, span) as $ty)
            }
        }
    )*};
}

impl_int_sample_range!(u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let u = f64::sample_standard(rng);
        let v = self.start + (self.end - self.start) * u;
        // Guard the open upper bound against rounding.
        if v >= self.end {
            f64::max(
                self.start,
                self.end - (self.end - self.start) * f64::EPSILON,
            )
        } else {
            v
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in gen_range");
        lo + (hi - lo) * f64::sample_standard(rng)
    }
}

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`] (including `&mut dyn RngCore`), mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of `T` from the standard distribution (`f64` in
    /// `[0, 1)`).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws uniformly from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Reference output of xoshiro256++ from the canonical C code with
        // state seeded to [1, 2, 3, 4]. Pins the exact algorithm so seed
        // replays survive refactors.
        let mut rng = StdRng { s: [1, 2, 3, 4] };
        let expected: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn f64_standard_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn gen_range_floats_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = rng.gen_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&x), "{x}");
            let y = rng.gen_range(0.25..=0.75);
            assert!((0.25..=0.75).contains(&y), "{y}");
        }
    }

    #[test]
    fn gen_range_ints_respect_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let k = rng.gen_range(0..10usize);
            seen[k] = true;
            let j = rng.gen_range(3..=5u64);
            assert!((3..=5).contains(&j));
        }
        assert!(seen.iter().all(|&s| s), "not all buckets hit: {seen:?}");
    }

    #[test]
    fn gen_range_is_unbiased_enough() {
        // χ²-style sanity: 6 buckets, 60k draws, each within 5% of 10k.
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = [0u32; 6];
        for _ in 0..60_000 {
            counts[rng.gen_range(0..6usize)] += 1;
        }
        for c in counts {
            assert!((9_500..10_500).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn dyn_rng_core_works_like_rand() {
        // The optimizer APIs take `&mut dyn RngCore`; gen_range must work
        // through the erased type exactly as it does in `rand`.
        let mut rng = StdRng::seed_from_u64(12);
        let erased: &mut dyn RngCore = &mut rng;
        let x: f64 = erased.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
        let k = erased.gen_range(0..5usize);
        assert!(k < 5);
    }
}
