//! Acquisition functions for minimization.
//!
//! The paper (Section IV-C) selects **Expected Improvement** after finding
//! probability of improvement "too conservative during exploration" and
//! lower confidence bound in need of a hand-tuned exploration parameter;
//! all three are implemented so the ablation bench can reproduce that
//! comparison.

/// Standard normal probability density function.
pub(crate) fn normal_pdf(u: f64) -> f64 {
    (-0.5 * u * u).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function, via the
/// Abramowitz–Stegun 7.1.26 rational approximation of `erf` (absolute
/// error < 1.5e-7).
pub(crate) fn normal_cdf(u: f64) -> f64 {
    0.5 * (1.0 + erf(u / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// An acquisition function scoring candidate points for *minimization*:
/// larger scores are more promising.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent (the paper's choice).
    ExpectedImprovement {
        /// Exploration margin ξ subtracted from the incumbent.
        xi: f64,
    },
    /// Probability of improving on the incumbent.
    ProbabilityOfImprovement {
        /// Exploration margin ξ.
        xi: f64,
    },
    /// Negated lower confidence bound `-(μ - κσ)`.
    LowerConfidenceBound {
        /// Exploration weight κ.
        kappa: f64,
    },
}

impl Default for Acquisition {
    /// EI with a small exploration margin, as configured in the paper.
    fn default() -> Self {
        Acquisition::ExpectedImprovement { xi: 0.01 }
    }
}

impl Acquisition {
    /// Scores a candidate with posterior `(mu, var)` against the incumbent
    /// (best observed cost) `f_best`. Higher is better.
    pub fn score(&self, mu: f64, var: f64, f_best: f64) -> f64 {
        let sigma = var.max(0.0).sqrt();
        match *self {
            Acquisition::ExpectedImprovement { xi } => {
                let improvement = f_best - mu - xi;
                if sigma < 1e-12 {
                    return improvement.max(0.0);
                }
                let u = improvement / sigma;
                improvement * normal_cdf(u) + sigma * normal_pdf(u)
            }
            Acquisition::ProbabilityOfImprovement { xi } => {
                if sigma < 1e-12 {
                    return if f_best - mu - xi > 0.0 { 1.0 } else { 0.0 };
                }
                normal_cdf((f_best - mu - xi) / sigma)
            }
            Acquisition::LowerConfidenceBound { kappa } => -(mu - kappa * sigma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::check::{self, f64s};
    use simcore::prop_assert;

    #[test]
    fn cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.158_655_3).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn pdf_reference_values() {
        assert!((normal_pdf(0.0) - 0.398_942_28).abs() < 1e-7);
        assert!((normal_pdf(1.0) - 0.241_970_72).abs() < 1e-7);
    }

    #[test]
    fn ei_prefers_lower_mean_at_equal_sigma() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        let better = acq.score(0.2, 0.04, 1.0);
        let worse = acq.score(0.8, 0.04, 1.0);
        assert!(better > worse);
    }

    #[test]
    fn ei_prefers_uncertainty_at_equal_mean() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        let certain = acq.score(1.0, 1e-6, 1.0);
        let uncertain = acq.score(1.0, 0.25, 1.0);
        assert!(uncertain > certain);
    }

    #[test]
    fn ei_zero_sigma_degenerates_to_plain_improvement() {
        let acq = Acquisition::ExpectedImprovement { xi: 0.0 };
        assert_eq!(acq.score(0.3, 0.0, 1.0), 0.7);
        assert_eq!(acq.score(2.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn pi_is_more_conservative_than_ei_on_big_uncertain_gains() {
        // A candidate far above the incumbent but hugely uncertain: EI
        // still gives it credit, PI essentially none — the behaviour that
        // made the paper call PI "too conservative during exploration".
        let (mu, var, best) = (2.0, 4.0, 1.0);
        let ei = Acquisition::ExpectedImprovement { xi: 0.0 }.score(mu, var, best);
        let pi = Acquisition::ProbabilityOfImprovement { xi: 0.0 }.score(mu, var, best);
        assert!(ei > 0.1);
        assert!(pi < 0.5);
    }

    #[test]
    fn lcb_trades_mean_against_sigma_via_kappa() {
        let greedy = Acquisition::LowerConfidenceBound { kappa: 0.0 };
        let explorer = Acquisition::LowerConfidenceBound { kappa: 10.0 };
        // Greedy prefers the lower mean; the explorer prefers the high-σ one.
        assert!(greedy.score(0.5, 1.0, 0.0) < greedy.score(0.4, 0.0, 0.0));
        assert!(explorer.score(0.5, 1.0, 0.0) > explorer.score(0.4, 0.0, 0.0));
    }

    #[test]
    fn ei_and_pi_are_nonnegative() {
        check::check(
            "ei_and_pi_are_nonnegative",
            (f64s(-5.0..5.0), f64s(0.0..4.0), f64s(-5.0..5.0)),
            |&(mu, var, best)| {
                let ei = Acquisition::ExpectedImprovement { xi: 0.0 }.score(mu, var, best);
                let pi = Acquisition::ProbabilityOfImprovement { xi: 0.0 }.score(mu, var, best);
                prop_assert!(ei >= -1e-12);
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&pi));
                Ok(())
            },
        );
    }

    #[test]
    fn cdf_is_monotone() {
        check::check(
            "cdf_is_monotone",
            (f64s(-6.0..6.0), f64s(-6.0..6.0)),
            |&(a, b)| {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
                Ok(())
            },
        );
    }

    #[test]
    fn erf_symmetry() {
        check::check("erf_symmetry", f64s(-4.0..4.0), |&x| {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
            Ok(())
        });
    }
}
