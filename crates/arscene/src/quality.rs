//! The virtual-object quality model of the paper (Eq. 1–2), borrowed from
//! eAR (Didar & Brocanelli, IEEE TMC 2023).

/// Per-object parameters `(a, b, c, d)` of the degradation model
/// `D_err(R, D) = (a R² + b R + c) / D^d` — Eq. (1). The values the
/// experiments use are hand-set, eAR-shaped constants in
/// [`crate::scenarios`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityParams {
    /// Quadratic coefficient of the decimation-ratio polynomial.
    pub a: f64,
    /// Linear coefficient (negative for sane objects: more triangles,
    /// less error).
    pub b: f64,
    /// Constant coefficient (the error floor at `R → 0`).
    pub c: f64,
    /// Distance exponent: how quickly degradation fades with distance.
    pub d: f64,
}

impl QualityParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite or `d < 0`.
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
        for v in [a, b, c, d] {
            assert!(v.is_finite(), "non-finite parameter");
        }
        assert!(d >= 0.0, "distance exponent must be non-negative");
        QualityParams { a, b, c, d }
    }

    /// The raw ratio polynomial `p(R) = a R² + b R + c`, unclamped.
    pub fn polynomial(&self, ratio: f64) -> f64 {
        self.a * ratio * ratio + self.b * ratio + self.c
    }

    /// Marginal error reduction per unit of ratio: `−p'(R) = −(2aR + b)`.
    /// Positive when adding triangles still helps.
    pub fn marginal(&self, ratio: f64) -> f64 {
        -(2.0 * self.a * ratio + self.b)
    }
}

/// Eq. (1) bound to one object: evaluates normalized degradation and
/// quality at a `(decimation ratio, user-object distance)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationModel {
    params: QualityParams,
}

impl DegradationModel {
    /// Wraps a parameter set.
    pub fn new(params: QualityParams) -> Self {
        DegradationModel { params }
    }

    /// The underlying parameters.
    pub fn params(&self) -> QualityParams {
        self.params
    }

    /// Normalized degradation error `D_err ∈ [0, 1]` at decimation ratio
    /// `ratio` and distance `distance` (Eq. 1, clamped to the unit
    /// interval as the error is *normalized* in eAR).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]` or `distance <= 0`.
    pub fn degradation(&self, ratio: f64, distance: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&ratio),
            "decimation ratio out of range: {ratio}"
        );
        assert!(
            distance > 0.0 && distance.is_finite(),
            "invalid distance: {distance}"
        );
        (self.params.polynomial(ratio) / distance.powf(self.params.d)).clamp(0.0, 1.0)
    }

    /// Per-object quality `1 − D_err` (the summand of Eq. 2).
    pub fn quality(&self, ratio: f64, distance: f64) -> f64 {
        1.0 - self.degradation(ratio, distance)
    }

    /// The sensitivity weight used by HBO's triangle distribution
    /// (Algorithm 1, line 23): the degradation gap between a common
    /// reference ratio and the full-quality render, at this object's
    /// distance. Objects that lose more by decimating to the reference are
    /// more sensitive and deserve more triangles.
    pub fn sensitivity(&self, reference_ratio: f64, distance: f64) -> f64 {
        self.degradation(reference_ratio, distance) - self.degradation(1.0, distance)
    }
}

/// Scene-average quality over per-object `(model, ratio, distance)`
/// triples — Eq. (2). Returns 1.0 for an empty scene (nothing on screen
/// degrades nothing).
pub fn average_quality(objects: &[(DegradationModel, f64, f64)]) -> f64 {
    if objects.is_empty() {
        return 1.0;
    }
    objects
        .iter()
        .map(|(m, r, d)| m.quality(*r, *d))
        .sum::<f64>()
        / objects.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, f64s};
    use simcore::prop_assert;

    fn model() -> DegradationModel {
        // A representative trained curve: zero error at R = 1.
        DegradationModel::new(QualityParams::new(0.5, -1.3, 0.8, 1.0))
    }

    #[test]
    fn full_quality_has_zero_error() {
        let m = model();
        assert!(m.degradation(1.0, 1.0).abs() < 1e-12);
        assert_eq!(m.quality(1.0, 2.0), 1.0);
    }

    #[test]
    fn decimation_increases_error() {
        let m = model();
        assert!(m.degradation(0.2, 1.0) > m.degradation(0.6, 1.0));
        assert!(m.degradation(0.6, 1.0) > m.degradation(0.9, 1.0));
    }

    #[test]
    fn distance_masks_error() {
        let m = model();
        assert!(m.degradation(0.3, 1.0) > m.degradation(0.3, 3.0));
    }

    #[test]
    fn degradation_is_clamped() {
        // Extreme parameters cannot push the normalized error outside [0,1].
        let m = DegradationModel::new(QualityParams::new(0.0, -10.0, 10.0, 0.1));
        let e = m.degradation(0.0, 0.5);
        assert!((0.0..=1.0).contains(&e));
        assert_eq!(e, 1.0);
    }

    #[test]
    fn sensitivity_is_positive_for_decreasing_error() {
        let m = model();
        assert!(m.sensitivity(0.5, 1.0) > 0.0);
        // Farther away, the same decimation is less noticeable.
        assert!(m.sensitivity(0.5, 1.0) > m.sensitivity(0.5, 3.0));
    }

    #[test]
    fn average_quality_matches_eq2() {
        let m = model();
        let objs = vec![(m, 1.0, 1.0), (m, 0.5, 1.0)];
        let expected = (1.0 + m.quality(0.5, 1.0)) / 2.0;
        assert!((average_quality(&objs) - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_scene_is_perfect() {
        assert_eq!(average_quality(&[]), 1.0);
    }

    #[test]
    fn marginal_matches_derivative() {
        let p = QualityParams::new(0.5, -1.3, 0.8, 1.0);
        let (r, h) = (0.6, 1e-7);
        let numeric = -(p.polynomial(r + h) - p.polynomial(r - h)) / (2.0 * h);
        assert!((p.marginal(r) - numeric).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_ratio_panics() {
        model().degradation(1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn zero_distance_panics() {
        model().degradation(0.5, 0.0);
    }

    #[test]
    fn degradation_always_in_unit_interval() {
        check::check(
            "degradation_always_in_unit_interval",
            (f64s(0.0..=1.0), f64s(0.1..10.0)),
            |&(r, dist)| {
                let e = model().degradation(r, dist);
                prop_assert!((0.0..=1.0).contains(&e));
                Ok(())
            },
        );
    }

    #[test]
    fn quality_plus_degradation_is_one() {
        check::check(
            "quality_plus_degradation_is_one",
            (f64s(0.0..=1.0), f64s(0.1..10.0)),
            |&(r, dist)| {
                let m = model();
                prop_assert!((m.quality(r, dist) + m.degradation(r, dist) - 1.0).abs() < 1e-12);
                Ok(())
            },
        );
    }
}
