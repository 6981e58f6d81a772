//! Constrained sample spaces.
//!
//! HBO's optimization variables (Section IV-C) are the resource-usage
//! vector `c` — constrained to the probability simplex (Constraints 8–9) —
//! joined with the triangle-count ratio `x ∈ [R_min, 1]` (Constraint 10).
//! [`SimplexBoxSpace`] models exactly that; [`BoxSpace`] covers plain
//! box-bounded problems (used by tests and the BNT baseline with no
//! triangle dimension).

use simcore::rand::Rng;

/// A constrained space of candidate points that the optimizer can sample
/// from, locally perturb within, and project onto.
///
/// A space implements one draw, [`Self::sample_into`], which writes into a
/// caller-owned row; the allocating [`Self::sample`] and the perturbation
/// pair are provided on top of it and of [`Self::project`].
pub trait SampleSpace {
    /// Dimension of points in this space.
    fn dim(&self) -> usize;

    /// Draws a uniform-ish random feasible point into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()`.
    fn sample_into(&self, rng: &mut dyn simcore::rand::RngCore, out: &mut [f64]);

    /// [`Self::sample_into`] into a fresh point.
    fn sample(&self, rng: &mut dyn simcore::rand::RngCore) -> Vec<f64> {
        let mut z = vec![0.0; self.dim()];
        self.sample_into(rng, &mut z);
        z
    }

    /// Draws a feasible point near `base` into `out`: a Gaussian
    /// perturbation of width `scale` per coordinate, projected back onto
    /// the feasible set.
    ///
    /// # Panics
    ///
    /// Panics if `base` and `out` are not both `dim()` long.
    fn perturb_into(
        &self,
        base: &[f64],
        scale: f64,
        rng: &mut dyn simcore::rand::RngCore,
        out: &mut [f64],
    ) {
        assert_eq!(base.len(), out.len(), "dimension mismatch");
        for (z, &v) in out.iter_mut().zip(base) {
            *z = v + scale * gaussian(rng);
        }
        self.project(out);
    }

    /// [`Self::perturb_into`] into a fresh point.
    fn perturb(&self, base: &[f64], scale: f64, rng: &mut dyn simcore::rand::RngCore) -> Vec<f64> {
        let mut z = vec![0.0; base.len()];
        self.perturb_into(base, scale, rng, &mut z);
        z
    }

    /// Projects `z` onto the feasible set in place.
    fn project(&self, z: &mut [f64]);

    /// True if `z` satisfies the constraints within `tol`.
    fn contains(&self, z: &[f64], tol: f64) -> bool;
}

/// Standard normal via Box–Muller (object-safe: takes `&mut dyn RngCore`).
fn gaussian(rng: &mut dyn simcore::rand::RngCore) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// An axis-aligned box `∏ [lo_i, hi_i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxSpace {
    bounds: Vec<(f64, f64)>,
}

impl BoxSpace {
    /// Creates a box from per-dimension `(lo, hi)` bounds.
    ///
    /// # Panics
    ///
    /// Panics if empty or any `lo > hi`.
    pub fn new(bounds: Vec<(f64, f64)>) -> Self {
        assert!(!bounds.is_empty(), "box needs at least one dimension");
        for &(lo, hi) in &bounds {
            assert!(
                lo <= hi && lo.is_finite() && hi.is_finite(),
                "bad bound ({lo}, {hi})"
            );
        }
        BoxSpace { bounds }
    }

    /// The per-dimension bounds.
    pub fn bounds(&self) -> &[(f64, f64)] {
        &self.bounds
    }
}

impl SampleSpace for BoxSpace {
    fn dim(&self) -> usize {
        self.bounds.len()
    }

    fn sample_into(&self, rng: &mut dyn simcore::rand::RngCore, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "dimension mismatch");
        for (v, &(lo, hi)) in out.iter_mut().zip(&self.bounds) {
            *v = if lo == hi { lo } else { rng.gen_range(lo..hi) };
        }
    }

    fn project(&self, z: &mut [f64]) {
        assert_eq!(z.len(), self.dim(), "dimension mismatch");
        for (v, &(lo, hi)) in z.iter_mut().zip(&self.bounds) {
            *v = v.clamp(lo, hi);
        }
    }

    fn contains(&self, z: &[f64], tol: f64) -> bool {
        z.len() == self.dim()
            && z.iter()
                .zip(&self.bounds)
                .all(|(&v, &(lo, hi))| v >= lo - tol && v <= hi + tol)
    }
}

/// HBO's joint space: the first `simplex_dim` coordinates form a
/// probability simplex (`c`, Constraints 8–9) and one trailing coordinate
/// is box-bounded (`x`, Constraint 10).
///
/// `simplex_dim` is the number of allocatable resources: 3 for the
/// paper's on-device space (CPU/GPU/NNAPI), 4 when the edge tier is in
/// play (`Delegate::Edge` becomes one more simplex coordinate — the share
/// of tasks offloaded — rather than a separate optimizer; see DESIGN.md
/// §6).
///
/// # Example
///
/// ```
/// use bayesopt::space::{SampleSpace, SimplexBoxSpace};
/// use simcore::rand::SeedableRng;
///
/// let space = SimplexBoxSpace::new(3, 0.2, 1.0);
/// let mut rng = simcore::rand::StdRng::seed_from_u64(0);
/// let z = space.sample(&mut rng);
/// let c_sum: f64 = z[..3].iter().sum();
/// assert!((c_sum - 1.0).abs() < 1e-9);
/// assert!(z[3] >= 0.2 && z[3] <= 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexBoxSpace {
    simplex_dim: usize,
    x_lo: f64,
    x_hi: f64,
}

impl SimplexBoxSpace {
    /// Creates the space: `simplex_dim` resources plus one ratio in
    /// `[x_lo, x_hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `simplex_dim == 0` or the ratio bounds are invalid.
    pub fn new(simplex_dim: usize, x_lo: f64, x_hi: f64) -> Self {
        assert!(simplex_dim > 0, "need at least one resource");
        assert!(
            x_lo.is_finite() && x_hi.is_finite() && 0.0 <= x_lo && x_lo <= x_hi,
            "bad ratio bounds ({x_lo}, {x_hi})"
        );
        SimplexBoxSpace {
            simplex_dim,
            x_lo,
            x_hi,
        }
    }

    /// Number of simplex (resource) coordinates.
    pub fn simplex_dim(&self) -> usize {
        self.simplex_dim
    }

    /// Splits a point into its `(c, x)` parts.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != dim()`.
    pub fn split<'a>(&self, z: &'a [f64]) -> (&'a [f64], f64) {
        assert_eq!(z.len(), self.dim(), "dimension mismatch");
        (&z[..self.simplex_dim], z[self.simplex_dim])
    }
}

impl SampleSpace for SimplexBoxSpace {
    fn dim(&self) -> usize {
        self.simplex_dim + 1
    }

    fn sample_into(&self, rng: &mut dyn simcore::rand::RngCore, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "dimension mismatch");
        // Uniform on the simplex: normalized standard exponentials
        // (Dirichlet(1, …, 1)).
        let (c, x) = out.split_at_mut(self.simplex_dim);
        for v in c.iter_mut() {
            *v = -(rng.gen_range(f64::EPSILON..1.0f64)).ln();
        }
        let sum: f64 = c.iter().sum();
        for v in c.iter_mut() {
            *v /= sum;
        }
        x[0] = if self.x_lo == self.x_hi {
            self.x_lo
        } else {
            rng.gen_range(self.x_lo..self.x_hi)
        };
    }

    fn project(&self, z: &mut [f64]) {
        assert_eq!(z.len(), self.dim(), "dimension mismatch");
        // Clamp negatives, renormalize onto the simplex.
        let c = &mut z[..self.simplex_dim];
        let mut sum = 0.0;
        for v in c.iter_mut() {
            *v = v.max(0.0);
            sum += *v;
        }
        if sum <= 0.0 {
            let uniform = 1.0 / self.simplex_dim as f64;
            for v in c.iter_mut() {
                *v = uniform;
            }
        } else {
            for v in c.iter_mut() {
                *v /= sum;
            }
        }
        let x = &mut z[self.simplex_dim];
        *x = x.clamp(self.x_lo, self.x_hi);
    }

    fn contains(&self, z: &[f64], tol: f64) -> bool {
        if z.len() != self.dim() {
            return false;
        }
        let (c, x) = self.split(z);
        let sum: f64 = c.iter().sum();
        c.iter().all(|&v| (-tol..=1.0 + tol).contains(&v))
            && (sum - 1.0).abs() <= tol
            && x >= self.x_lo - tol
            && x <= self.x_hi + tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, f64s, vec as cvec};
    use simcore::prop_assert;
    use simcore::rand::{RngCore, SeedableRng};

    fn rng(seed: u64) -> simcore::rand::StdRng {
        simcore::rand::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn box_samples_stay_inside() {
        let space = BoxSpace::new(vec![(0.0, 1.0), (-2.0, 2.0)]);
        let mut r = rng(1);
        for _ in 0..100 {
            let z = space.sample(&mut r);
            assert!(space.contains(&z, 0.0), "{z:?}");
        }
    }

    #[test]
    fn box_project_clamps() {
        let space = BoxSpace::new(vec![(0.0, 1.0)]);
        let mut z = vec![3.0];
        space.project(&mut z);
        assert_eq!(z, vec![1.0]);
    }

    #[test]
    fn degenerate_box_dimension() {
        let space = BoxSpace::new(vec![(0.5, 0.5)]);
        let mut r = rng(2);
        assert_eq!(space.sample(&mut r), vec![0.5]);
    }

    #[test]
    fn simplex_samples_satisfy_constraints() {
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        let mut r = rng(3);
        for _ in 0..200 {
            let z = space.sample(&mut r);
            assert!(space.contains(&z, 1e-9), "{z:?}");
        }
    }

    #[test]
    fn simplex_perturb_stays_feasible() {
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        let mut r = rng(4);
        let base = space.sample(&mut r);
        for _ in 0..200 {
            let z = space.perturb(&base, 0.3, &mut r);
            assert!(space.contains(&z, 1e-9), "{z:?}");
        }
    }

    #[test]
    fn project_handles_all_negative_c() {
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        let mut z = vec![-1.0, -2.0, -0.5, 0.0];
        space.project(&mut z);
        assert!(space.contains(&z, 1e-9));
        // Falls back to the uniform allocation.
        assert!((z[0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn split_returns_c_and_x() {
        let space = SimplexBoxSpace::new(2, 0.0, 1.0);
        let (c, x) = space.split(&[0.3, 0.7, 0.5]);
        assert_eq!(c, &[0.3, 0.7]);
        assert_eq!(x, 0.5);
    }

    #[test]
    fn simplex_samples_cover_the_space() {
        // The sampler should not collapse to a corner: across many draws
        // every coordinate should sometimes dominate.
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        let mut r = rng(5);
        let mut max_seen = [0.0f64; 3];
        for _ in 0..500 {
            let z = space.sample(&mut r);
            for i in 0..3 {
                max_seen[i] = max_seen[i].max(z[i]);
            }
        }
        for (i, m) in max_seen.iter().enumerate() {
            assert!(*m > 0.7, "coordinate {i} never dominated: max {m}");
        }
    }

    #[test]
    #[should_panic(expected = "bad ratio bounds")]
    fn inverted_ratio_bounds_panic() {
        SimplexBoxSpace::new(3, 0.9, 0.2);
    }

    #[test]
    fn four_resource_simplex_for_the_edge_tier() {
        // The edge-extended HBO space: 4 simplex coordinates + ratio.
        let space = SimplexBoxSpace::new(4, 0.2, 1.0);
        assert_eq!(space.dim(), 5);
        assert_eq!(space.simplex_dim(), 4);
        let mut r = rng(6);
        for _ in 0..200 {
            let z = space.sample(&mut r);
            assert!(space.contains(&z, 1e-9), "{z:?}");
            let sum: f64 = z[..4].iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            let z2 = space.perturb(&z, 0.3, &mut r);
            assert!(space.contains(&z2, 1e-9), "{z2:?}");
        }
    }

    #[test]
    fn sampler_streams_are_pinned() {
        // Bits of the first draws at a fixed seed: three samples, then
        // three perturbations of the first (the second clamps x to 1.0),
        // then the next raw word. Reordering or adding an RNG draw, or
        // changing a float operation, fails here.
        let space = SimplexBoxSpace::new(3, 0.2, 1.0);
        let mut r = rng(2024);
        let samples: Vec<Vec<f64>> = (0..3).map(|_| space.sample(&mut r)).collect();
        let perturbs: Vec<Vec<f64>> = (0..3)
            .map(|_| space.perturb(&samples[0], 0.15, &mut r))
            .collect();
        let bits = |zs: &[Vec<f64>]| -> Vec<[u64; 4]> {
            zs.iter()
                .map(|z| std::array::from_fn(|i| z[i].to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&samples),
            [
                [
                    0x3fe6b3a6331ec78b,
                    0x3fbdc0ae069abaaa,
                    0x3fc651103037847d,
                    0x3fe9843c4f9a9948
                ],
                [
                    0x3fc955c37b1d7dcf,
                    0x3fd909860c1ee1e0,
                    0x3fda4b9836525f38,
                    0x3fd6d18df1d1c03d
                ],
                [
                    0x3fc2e2a6a3ea0e97,
                    0x3fe5bc7096f1f1d9,
                    0x3fc62b97004e2a06,
                    0x3fec7c772775bd46
                ],
            ]
        );
        assert_eq!(
            bits(&perturbs),
            [
                [
                    0x3fe66bfd65c7e939,
                    0x3fb27612a2fe7191,
                    0x3fcd150117612257,
                    0x3fe7eb8bb6da2d29
                ],
                [
                    0x3fe47100973b8031,
                    0x3fc25dc102f2e3fc,
                    0x3fcbde3ca01f1b42,
                    0x3ff0000000000000
                ],
                [
                    0x3fe2259c9c1d0978,
                    0x3fca820445962273,
                    0x3fcce78949f5b7ab,
                    0x3fee314c8aefa576
                ],
            ]
        );
        assert_eq!(r.next_u64(), 0x9f36e1da764a2686);
    }

    #[test]
    fn simplex_projection_is_idempotent() {
        check::check(
            "simplex_projection_is_idempotent",
            cvec(f64s(-2.0..2.0), 4..=4),
            |raw| {
                let space = SimplexBoxSpace::new(3, 0.2, 1.0);
                let mut z = raw.clone();
                space.project(&mut z);
                prop_assert!(space.contains(&z, 1e-9));
                let mut z2 = z.clone();
                space.project(&mut z2);
                for (a, b) in z.iter().zip(&z2) {
                    prop_assert!((a - b).abs() < 1e-12);
                }
                Ok(())
            },
        );
    }
}
