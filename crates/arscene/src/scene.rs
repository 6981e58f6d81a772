//! The live AR scene: objects on screen, user distance, render load, and
//! HBO's triangle distribution (the `TD` function of Algorithm 1).

use crate::quality::{DegradationModel, QualityParams};

/// Handle to an object within a [`Scene`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectId(usize);

impl ObjectId {
    /// Raw index of the object.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A virtual object on screen.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualObject {
    name: String,
    max_triangles: u64,
    model: DegradationModel,
    /// Per-object multiplier on the scene's user distance (objects are
    /// placed at different depths).
    distance_factor: f64,
    /// Current decimation ratio `R_{t,i}`.
    ratio: f64,
}

impl VirtualObject {
    /// Creates an object rendered at full quality.
    ///
    /// # Panics
    ///
    /// Panics if `max_triangles == 0` or `distance_factor <= 0`.
    pub fn new(
        name: impl Into<String>,
        max_triangles: u64,
        params: QualityParams,
        distance_factor: f64,
    ) -> Self {
        assert!(max_triangles > 0, "object needs triangles");
        assert!(
            distance_factor > 0.0 && distance_factor.is_finite(),
            "invalid distance factor: {distance_factor}"
        );
        VirtualObject {
            name: name.into(),
            max_triangles,
            model: DegradationModel::new(params),
            distance_factor,
            ratio: 1.0,
        }
    }

    /// The object's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current decimation ratio `R`.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Current triangle count (`R · T_max`).
    pub fn current_triangles(&self) -> f64 {
        self.ratio * self.max_triangles as f64
    }

    /// The trained degradation model.
    pub fn model(&self) -> &DegradationModel {
        &self.model
    }
}

/// Fraction of triangles surviving backface culling (roughly half of a
/// closed mesh faces away from the camera).
const BACKFACE_VISIBLE: f64 = 0.5;

/// The scene: objects plus the user's distance to the anchor point.
///
/// # Example
///
/// ```
/// use arscene::{QualityParams, Scene, VirtualObject};
///
/// let mut scene = Scene::new(1.5);
/// scene.add_object(VirtualObject::new(
///     "sphere", 100_000, QualityParams::new(0.5, -1.3, 0.8, 1.0), 1.0,
/// ));
/// scene.distribute_triangles(0.6);
/// assert!((scene.current_triangles() - 60_000.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scene {
    objects: Vec<VirtualObject>,
    user_distance: f64,
}

impl Scene {
    /// Creates an empty scene with the user at `user_distance`.
    ///
    /// # Panics
    ///
    /// Panics if the distance is not positive.
    pub fn new(user_distance: f64) -> Self {
        assert!(
            user_distance > 0.0 && user_distance.is_finite(),
            "invalid user distance: {user_distance}"
        );
        Scene {
            objects: Vec::new(),
            user_distance,
        }
    }

    /// Adds an object (rendered at full quality until the next
    /// distribution) and returns its id.
    pub fn add_object(&mut self, object: VirtualObject) -> ObjectId {
        self.objects.push(object);
        ObjectId(self.objects.len() - 1)
    }

    /// Number of objects on screen (`L_t`).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if no objects are on screen.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Borrows an object.
    pub fn object(&self, id: ObjectId) -> &VirtualObject {
        &self.objects[id.0]
    }

    /// Iterates over the objects.
    pub fn objects(&self) -> impl Iterator<Item = &VirtualObject> {
        self.objects.iter()
    }

    /// The user's base distance.
    pub fn user_distance(&self) -> f64 {
        self.user_distance
    }

    /// Moves the user.
    ///
    /// # Panics
    ///
    /// Panics if the distance is not positive.
    pub fn set_user_distance(&mut self, distance: f64) {
        assert!(
            distance > 0.0 && distance.is_finite(),
            "invalid user distance: {distance}"
        );
        self.user_distance = distance;
    }

    /// Distance of one object to the user.
    fn distance_of(&self, obj: &VirtualObject) -> f64 {
        self.user_distance * obj.distance_factor
    }

    /// Total maximum triangle count `T^max` across objects.
    pub fn total_max_triangles(&self) -> u64 {
        self.objects.iter().map(|o| o.max_triangles).sum()
    }

    /// Currently selected triangles, `Σ R_i · T_i`.
    pub fn current_triangles(&self) -> f64 {
        self.objects.iter().map(|o| o.current_triangles()).sum()
    }

    /// The overall triangle ratio `x` implied by the current per-object
    /// ratios (1.0 for an empty scene).
    pub fn overall_ratio(&self) -> f64 {
        let max = self.total_max_triangles();
        if max == 0 {
            return 1.0;
        }
        self.current_triangles() / max as f64
    }

    /// Triangles the render pipeline actually processes this frame: the
    /// selected triangles scaled by backface culling and a distance
    /// attenuation (farther objects shrink on screen, and the paper's
    /// activation policy explicitly reasons about distance changing AR
    /// load through OpenGL culling).
    pub fn render_triangles(&self) -> f64 {
        self.objects
            .iter()
            .map(|o| {
                let d = self.distance_of(o);
                o.current_triangles() * BACKFACE_VISIBLE * (1.0 / d).min(1.0)
            })
            .sum()
    }

    /// Scene-average virtual-object quality `Q_t` — Eq. (2). Returns 1.0
    /// for an empty scene.
    pub fn average_quality(&self) -> f64 {
        if self.objects.is_empty() {
            return 1.0;
        }
        self.objects
            .iter()
            .map(|o| o.model.quality(o.ratio, self.distance_of(o)))
            .sum::<f64>()
            / self.objects.len() as f64
    }

    /// Sets every object to the same ratio (uniform decimation — what the
    /// SML baseline effectively sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `[0, 1]`.
    pub fn set_uniform_ratio(&mut self, ratio: f64) {
        assert!((0.0..=1.0).contains(&ratio), "ratio out of range: {ratio}");
        for o in &mut self.objects {
            o.ratio = ratio;
        }
    }

    /// HBO's `TD(x, L)` (Algorithm 1, line 23): distributes the total
    /// budget `x · T^max` across objects, weighting by each object's
    /// degradation sensitivity so the most sensitive objects (closer to
    /// the user, steeper error curves) keep more triangles.
    ///
    /// Implemented as marginal-gain equalization: the budget is assigned
    /// so that the per-triangle quality gain `−∂D_err/∂t` is equal across
    /// all objects not pinned at a bound, which maximizes the average
    /// quality of Eq. (2) for the given budget — the stated objective of
    /// the paper's sensitivity weighting.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside `[0, 1]`.
    pub fn distribute_triangles(&mut self, x: f64) {
        assert!((0.0..=1.0).contains(&x), "triangle ratio out of range: {x}");
        if self.objects.is_empty() {
            return;
        }
        let budget = x * self.total_max_triangles() as f64;

        // Marginal quality gain per triangle for object i at ratio R:
        //   g_i(R) = marginal(R) / (D_i^{d_i} · T_i)
        // (decreasing in R for convex error curves).
        let denom: Vec<f64> = self
            .objects
            .iter()
            .map(|o| self.user_distance * o.distance_factor)
            .zip(&self.objects)
            .map(|(dist, o)| dist.powf(o.model.params().d) * o.max_triangles as f64)
            .collect();

        let ratio_at = |o: &VirtualObject, denom: f64, lambda: f64| -> f64 {
            let p = o.model.params();
            if p.a.abs() < 1e-12 {
                // Constant marginal: all-or-nothing.
                if -p.b / denom > lambda {
                    1.0
                } else {
                    0.0
                }
            } else {
                // Solve marginal(R)/denom = lambda for R.
                ((-p.b - lambda * denom) / (2.0 * p.a)).clamp(0.0, 1.0)
            }
        };

        let total_at = |lambda: f64, objects: &[VirtualObject]| -> f64 {
            objects
                .iter()
                .zip(&denom)
                .map(|(o, &dn)| ratio_at(o, dn, lambda) * o.max_triangles as f64)
                .sum()
        };

        // λ = 0 gives every object its unconstrained optimum (≥ budget for
        // decreasing error curves); large λ starves everyone.
        let mut lo = 0.0;
        let mut hi = self
            .objects
            .iter()
            .zip(&denom)
            .map(|(o, &dn)| o.model.params().marginal(0.0) / dn)
            .fold(1.0, f64::max);
        if total_at(lo, &self.objects) <= budget {
            // The budget covers every object's unconstrained optimum
            // (for trained curves the optimum is R = 1, so this is the
            // x = 1 case): adding further triangles cannot improve Eq. (2).
            for (o, &dn) in self.objects.iter_mut().zip(&denom) {
                o.ratio = ratio_at(o, dn, 0.0);
            }
            return;
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if total_at(mid, &self.objects) > budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let lambda = 0.5 * (lo + hi);
        for (o, &dn) in self.objects.iter_mut().zip(&denom) {
            o.ratio = ratio_at(o, dn, lambda);
        }
        // Fix residual rounding: scale ratios to hit the budget exactly
        // (keeps Σ R_i T_i = x · T^max, the paper's budget constraint).
        let current = self.current_triangles();
        if current > 0.0 {
            let scale = budget / current;
            for o in &mut self.objects {
                o.ratio = (o.ratio * scale).clamp(0.0, 1.0);
            }
        }
    }

    /// Per-object sensitivities at a common reference ratio (the weights
    /// the paper describes for `TD`), mostly useful for inspection.
    pub fn sensitivities(&self, reference_ratio: f64) -> Vec<f64> {
        self.objects
            .iter()
            .map(|o| o.model.sensitivity(reference_ratio, self.distance_of(o)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, f64s, usizes};
    use simcore::prop_assert;

    fn heavy() -> VirtualObject {
        // Oversampled object: decimation barely hurts.
        VirtualObject::new(
            "heavy",
            150_000,
            QualityParams::new(0.18, -0.45, 0.27, 1.2),
            1.0,
        )
    }

    fn light() -> VirtualObject {
        // Sparse object: every triangle matters.
        VirtualObject::new("light", 2_500, QualityParams::new(1.2, -2.6, 1.4, 0.9), 1.0)
    }

    fn scene_with(objs: Vec<VirtualObject>) -> Scene {
        let mut s = Scene::new(1.2);
        for o in objs {
            s.add_object(o);
        }
        s
    }

    #[test]
    fn totals_and_ratio() {
        let s = scene_with(vec![heavy(), light()]);
        assert_eq!(s.total_max_triangles(), 152_500);
        assert_eq!(s.overall_ratio(), 1.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_scene_is_perfect_and_free() {
        let s = Scene::new(1.0);
        assert_eq!(s.average_quality(), 1.0);
        assert_eq!(s.render_triangles(), 0.0);
        assert_eq!(s.overall_ratio(), 1.0);
    }

    #[test]
    fn td_conserves_the_budget() {
        let mut s = scene_with(vec![heavy(), light(), heavy()]);
        for x in [0.3, 0.5, 0.72, 0.9] {
            s.distribute_triangles(x);
            let got = s.overall_ratio();
            assert!((got - x).abs() < 0.02, "x = {x}, got {got}");
            for o in s.objects() {
                assert!((0.0..=1.0).contains(&o.ratio()), "{o:?}");
            }
        }
    }

    #[test]
    fn td_at_full_budget_keeps_everything() {
        let mut s = scene_with(vec![heavy(), light()]);
        s.distribute_triangles(1.0);
        for o in s.objects() {
            assert!((o.ratio() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn td_protects_sensitive_objects() {
        let mut s = scene_with(vec![heavy(), light()]);
        s.distribute_triangles(0.5);
        let heavy_r = s.objects[0].ratio();
        let light_r = s.objects[1].ratio();
        assert!(
            light_r > heavy_r,
            "sensitive light object ({light_r}) should keep more than heavy ({heavy_r})"
        );
    }

    #[test]
    fn td_beats_uniform_decimation() {
        let mut a = scene_with(vec![heavy(), light(), heavy(), light()]);
        let mut b = a.clone();
        a.distribute_triangles(0.5);
        b.set_uniform_ratio(0.5);
        assert!(
            a.average_quality() >= b.average_quality() - 1e-9,
            "TD {} vs uniform {}",
            a.average_quality(),
            b.average_quality()
        );
    }

    #[test]
    fn closer_user_lowers_quality() {
        let mut s = scene_with(vec![heavy(), light()]);
        s.distribute_triangles(0.4);
        let q_far = {
            s.set_user_distance(3.0);
            s.average_quality()
        };
        let q_near = {
            s.set_user_distance(0.8);
            s.average_quality()
        };
        assert!(q_near < q_far);
    }

    #[test]
    fn render_triangles_shrink_with_distance() {
        let mut s = scene_with(vec![heavy()]);
        s.set_user_distance(1.0);
        let near = s.render_triangles();
        s.set_user_distance(4.0);
        let far = s.render_triangles();
        assert!(far < near / 2.0);
    }

    #[test]
    fn sensitivities_reflect_curves() {
        let s = scene_with(vec![heavy(), light()]);
        let sens = s.sensitivities(0.5);
        assert!(sens[1] > sens[0]);
    }

    #[test]
    fn td_quality_is_monotone_in_budget() {
        check::check(
            "td_quality_is_monotone_in_budget",
            (
                f64s(0.1..=0.95),
                f64s(0.01..0.5),
                usizes(1..4),
                usizes(1..4),
            ),
            |&(x1, dx, n_heavy, n_light)| {
                // More triangle budget never lowers the achievable average
                // quality under the TD distribution.
                let x2 = (x1 + dx).min(1.0);
                let mut objs = Vec::new();
                for _ in 0..n_heavy {
                    objs.push(heavy());
                }
                for _ in 0..n_light {
                    objs.push(light());
                }
                let mut a = scene_with(objs.clone());
                let mut b = scene_with(objs);
                a.distribute_triangles(x1);
                b.distribute_triangles(x2);
                prop_assert!(
                    b.average_quality() >= a.average_quality() - 1e-6,
                    "Q({x2}) = {} < Q({x1}) = {}",
                    b.average_quality(),
                    a.average_quality()
                );
                Ok(())
            },
        );
    }

    #[test]
    fn td_budget_conservation_property() {
        check::check(
            "td_budget_conservation_property",
            (f64s(0.05..=1.0), usizes(1..4), usizes(1..4)),
            |&(x, n_heavy, n_light)| {
                let mut objs = Vec::new();
                for _ in 0..n_heavy {
                    objs.push(heavy());
                }
                for _ in 0..n_light {
                    objs.push(light());
                }
                let mut s = scene_with(objs);
                s.distribute_triangles(x);
                // Budget respected within tolerance and never exceeded much.
                prop_assert!(s.overall_ratio() <= x + 0.02);
                // All ratios feasible.
                for o in s.objects() {
                    prop_assert!((0.0..=1.0).contains(&o.ratio()));
                }
                Ok(())
            },
        );
    }
}
