//! The simulated user-study panel of Fig. 9.
//!
//! The paper asked seven students to score perceived virtual-object
//! quality on a 1–5 scale against a full-quality reference. Without
//! access to humans, we model each rater as a noisy psychometric function
//! of the model-estimated scene quality: the paper's own premise (carried
//! over from eAR) is that Eq. (1)-quality tracks perception, and Fig. 9
//! confirms it — here we encode that mapping explicitly.

use simcore::rand::Rng;
use simcore::rand::SeedableRng;

/// Anchor points `(model quality, mean opinion score)` of the
/// psychometric curve, calibrated against the paper's own user study
/// (Section V-E) — the only perception ground truth available: SML's
/// uniform x = 0.2 scene scored 3.0 close / 3.6 far, HBO's
/// sensitivity-weighted x ≈ 0.5 scene scored 4.9 close / 5.0 far. Human
/// raters compress the low end of the scale (a recognizable object rarely
/// scores 1), which is why the curve is much flatter than the raw
/// model-quality axis.
const MOS_ANCHORS: [(f64, f64); 6] = [
    (0.00, 1.0),
    (0.23, 3.0),
    (0.67, 3.6),
    (0.85, 4.6),
    (0.95, 5.0),
    (1.00, 5.0),
];

/// Mean opinion score predicted from scene quality `q ∈ [0, 1]`:
/// monotone piecewise-linear interpolation through the calibration
/// anchors described above.
pub fn mos_from_quality(q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    for pair in MOS_ANCHORS.windows(2) {
        let ((q0, m0), (q1, m1)) = (pair[0], pair[1]);
        if q <= q1 {
            if q1 - q0 < 1e-12 {
                return m1;
            }
            return m0 + (m1 - m0) * (q - q0) / (q1 - q0);
        }
    }
    5.0
}

/// One simulated participant: a fixed severity bias plus per-judgement
/// noise, scores snapped to the integer 1–5 scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rater {
    /// Persistent severity bias (negative raters score everything lower).
    pub bias: f64,
    /// Standard deviation of per-judgement noise.
    pub noise_sd: f64,
}

impl Rater {
    /// Scores a scene of quality `q`.
    pub fn score(&self, q: f64, rng: &mut impl Rng) -> f64 {
        let noise: f64 = {
            // Box–Muller standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        (mos_from_quality(q) + self.bias + self.noise_sd * noise)
            .round()
            .clamp(1.0, 5.0)
    }
}

/// A panel of simulated participants.
#[derive(Debug, Clone, PartialEq)]
pub struct RaterPanel {
    raters: Vec<Rater>,
    seed: u64,
}

impl RaterPanel {
    /// The paper's setup: seven participants.
    pub fn of_seven(seed: u64) -> Self {
        Self::new(7, seed)
    }

    /// Creates a panel of `n` raters with deterministic per-rater biases.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "need at least one rater");
        let mut rng = simcore::rand::StdRng::seed_from_u64(seed);
        let raters = (0..n)
            .map(|_| Rater {
                bias: rng.gen_range(-0.3..0.3),
                noise_sd: 0.25,
            })
            .collect();
        RaterPanel { raters, seed }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.raters.len()
    }

    /// True if the panel is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.raters.is_empty()
    }

    /// Collects every rater's score for a scene of quality `q` under a
    /// labeled condition (the label decorrelates noise across conditions).
    pub(crate) fn score_condition(&self, q: f64, condition: &str) -> Vec<f64> {
        let mut scores = Vec::with_capacity(self.raters.len());
        for (i, rater) in self.raters.iter().enumerate() {
            let mut rng = simcore::rng::indexed_stream(self.seed, condition, i as u64);
            scores.push(rater.score(q, &mut rng));
        }
        scores
    }

    /// Mean score for a condition (the bars of Fig. 9a).
    pub fn mean_score(&self, q: f64, condition: &str) -> f64 {
        let scores = self.score_condition(q, condition);
        scores.iter().sum::<f64>() / scores.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mos_is_monotone_in_quality() {
        let qs = [0.2, 0.5, 0.7, 0.85, 0.95, 1.0];
        for w in qs.windows(2) {
            assert!(mos_from_quality(w[0]) <= mos_from_quality(w[1]));
        }
    }

    #[test]
    fn perfect_quality_scores_five() {
        assert_eq!(mos_from_quality(1.0), 5.0);
        // Near-perfect is still essentially indistinguishable.
        assert!(mos_from_quality(0.96) > 4.9);
    }

    #[test]
    fn calibration_anchors_reproduce_the_paper_study() {
        // SML close (Q ~ 0.23) scored 3.0; SML far (Q ~ 0.67) scored 3.6.
        assert!((mos_from_quality(0.23) - 3.0).abs() < 1e-9);
        assert!((mos_from_quality(0.67) - 3.6).abs() < 1e-9);
        assert_eq!(mos_from_quality(0.0), 1.0);
    }

    #[test]
    fn panel_scores_are_deterministic() {
        let p = RaterPanel::of_seven(42);
        assert_eq!(
            p.score_condition(0.9, "close"),
            p.score_condition(0.9, "close")
        );
        assert_eq!(p.len(), 7);
    }

    #[test]
    fn panel_scores_live_on_the_scale() {
        let p = RaterPanel::of_seven(1);
        for q in [0.0, 0.3, 0.6, 0.9, 1.0] {
            for s in p.score_condition(q, "x") {
                assert!((1.0..=5.0).contains(&s));
                assert_eq!(s, s.round());
            }
        }
    }

    #[test]
    fn better_quality_scores_better_on_average() {
        let p = RaterPanel::of_seven(7);
        let hi = p.mean_score(0.97, "hbo-close");
        let lo = p.mean_score(0.55, "sml-close");
        assert!(hi > lo + 0.8, "hi {hi} vs lo {lo}");
    }

    #[test]
    fn conditions_decorrelate_noise() {
        let p = RaterPanel::of_seven(7);
        // Same quality, different condition labels: usually not identical.
        let a = p.score_condition(0.85, "a");
        let b = p.score_condition(0.85, "b");
        assert_eq!(a.len(), b.len());
        // They can coincide by chance per-rater, but not the mean of many.
        let differs = a.iter().zip(&b).any(|(x, y)| x != y);
        assert!(differs);
    }
}
