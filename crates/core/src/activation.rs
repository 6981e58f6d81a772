//! The event-based activation policy of Section IV-E.
//!
//! HBO does not run periodically: it records the reward `B_t` obtained by
//! the configuration chosen at the last activation as a *reference* and
//! monitors the live reward at a fixed sampling interval (2 s in the
//! paper). When the live reward drifts from the reference by more than a
//! tunable fraction — the paper determines +5 % (improvement, e.g. the
//! user walked away so quality headroom appeared) and −10 % (degradation,
//! e.g. a heavy object landed on screen) empirically — a new activation
//! runs, and the new best reward becomes the reference.

/// Outcome of one monitoring sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivationDecision {
    /// Run Algorithm 1 over a fixed number of iterations.
    Activate(ActivationReason),
    /// Keep the current configuration.
    Hold,
}

/// Why an activation fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationReason {
    /// No reference yet: first object placement (the policy "initially
    /// runs HBO after the first object placement").
    FirstPlacement,
    /// The reward rose past the increase threshold.
    RewardIncreased,
    /// The reward fell past the decrease threshold.
    RewardDecreased,
}

/// The event-based policy.
///
/// # Example
///
/// ```
/// use hbo_core::{ActivationDecision, ActivationPolicy};
///
/// let mut policy = ActivationPolicy::paper_default();
/// // First sample always activates (first placement).
/// assert!(matches!(policy.check(0.8), ActivationDecision::Activate(_)));
/// policy.set_reference(0.8);
/// assert_eq!(policy.check(0.79), ActivationDecision::Hold);
/// // A 19% drop crosses the -10% bound (and the absolute deadband); it
/// // must persist for the debounce count (3) before the activation fires.
/// assert_eq!(policy.check(0.65), ActivationDecision::Hold);
/// assert_eq!(policy.check(0.65), ActivationDecision::Hold);
/// assert!(matches!(policy.check(0.65), ActivationDecision::Activate(_)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationPolicy {
    reference: Option<f64>,
    /// Fractional reward increase that triggers (paper: 0.05).
    pub increase_frac: f64,
    /// Fractional reward decrease that triggers (paper: 0.10).
    pub decrease_frac: f64,
    /// Consecutive out-of-bounds samples required before firing, so that
    /// single-window measurement noise does not cause spurious
    /// activations.
    pub debounce: usize,
    /// Absolute reward deadband: drifts smaller than this never trigger,
    /// regardless of the relative bounds (which become noise-dominated
    /// when the reference reward is small).
    pub min_drift: f64,
    streak: usize,
}

/// Floor on the reference magnitude when computing relative drift, so a
/// reference reward near zero does not make the policy hair-triggered.
const REFERENCE_FLOOR: f64 = 0.1;

impl ActivationPolicy {
    /// The paper's empirically determined bounds: +5 % / −10 %.
    pub fn paper_default() -> Self {
        ActivationPolicy {
            reference: None,
            increase_frac: 0.05,
            decrease_frac: 0.10,
            debounce: 3,
            min_drift: 0.1,
            streak: 0,
        }
    }

    /// Creates a policy with custom bounds.
    ///
    /// # Panics
    ///
    /// Panics if either fraction is not positive.
    pub fn new(increase_frac: f64, decrease_frac: f64) -> Self {
        assert!(
            increase_frac > 0.0 && decrease_frac > 0.0,
            "thresholds must be positive"
        );
        ActivationPolicy {
            reference: None,
            increase_frac,
            decrease_frac,
            debounce: 2,
            min_drift: 0.0,
            streak: 0,
        }
    }

    /// The current reference reward, if any.
    pub fn reference(&self) -> Option<f64> {
        self.reference
    }

    /// Sets the reference (the best reward found by the activation that
    /// just finished).
    pub fn set_reference(&mut self, reward: f64) {
        assert!(reward.is_finite(), "non-finite reward");
        self.reference = Some(reward);
        self.streak = 0;
    }

    /// Evaluates one monitoring sample of the live reward `B_t`.
    ///
    /// The drift must persist for [`Self::debounce`] consecutive samples
    /// before an activation fires (the first placement fires immediately).
    pub fn check(&mut self, reward: f64) -> ActivationDecision {
        let Some(reference) = self.reference else {
            return ActivationDecision::Activate(ActivationReason::FirstPlacement);
        };
        let scale = reference.abs().max(REFERENCE_FLOOR);
        let drift = reward - reference;
        let reason = if drift > (self.increase_frac * scale).max(self.min_drift) {
            Some(ActivationReason::RewardIncreased)
        } else if drift < -(self.decrease_frac * scale).max(self.min_drift) {
            Some(ActivationReason::RewardDecreased)
        } else {
            None
        };
        match reason {
            Some(reason) => {
                self.streak += 1;
                if self.streak >= self.debounce {
                    self.streak = 0;
                    ActivationDecision::Activate(reason)
                } else {
                    ActivationDecision::Hold
                }
            }
            None => {
                self.streak = 0;
                ActivationDecision::Hold
            }
        }
    }
}

/// The strawman periodic policy of Fig. 8b: activates every `period`-th
/// sample regardless of need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicPolicy {
    period: usize,
    counter: usize,
}

impl PeriodicPolicy {
    /// Activates on the first sample and every `period`-th one after.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "period must be positive");
        PeriodicPolicy { period, counter: 0 }
    }

    /// Evaluates one monitoring sample.
    pub fn check(&mut self) -> ActivationDecision {
        let fire = self.counter.is_multiple_of(self.period);
        self.counter += 1;
        if fire {
            ActivationDecision::Activate(ActivationReason::FirstPlacement)
        } else {
            ActivationDecision::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn immediate() -> ActivationPolicy {
        let mut p = ActivationPolicy::paper_default();
        p.debounce = 1;
        p.min_drift = 0.0;
        p
    }

    #[test]
    fn first_sample_activates() {
        let mut p = ActivationPolicy::paper_default();
        assert_eq!(
            p.check(0.5),
            ActivationDecision::Activate(ActivationReason::FirstPlacement)
        );
    }

    #[test]
    fn small_drift_holds() {
        let mut p = immediate();
        p.set_reference(1.0);
        assert_eq!(p.check(1.04), ActivationDecision::Hold);
        assert_eq!(p.check(0.91), ActivationDecision::Hold);
    }

    #[test]
    fn asymmetric_thresholds() {
        let mut p = immediate();
        p.set_reference(1.0);
        // +6% crosses the +5% bound; -6% does not cross -10%.
        assert_eq!(
            p.check(1.06),
            ActivationDecision::Activate(ActivationReason::RewardIncreased)
        );
        assert_eq!(p.check(0.94), ActivationDecision::Hold);
        assert_eq!(
            p.check(0.89),
            ActivationDecision::Activate(ActivationReason::RewardDecreased)
        );
    }

    #[test]
    fn near_zero_reference_uses_floor() {
        let mut p = immediate();
        p.set_reference(0.001);
        // Without the floor, any microscopic change would trigger.
        assert_eq!(p.check(0.002), ActivationDecision::Hold);
        assert!(matches!(
            p.check(0.05),
            ActivationDecision::Activate(ActivationReason::RewardIncreased)
        ));
    }

    #[test]
    fn negative_rewards_are_handled() {
        let mut p = immediate();
        p.set_reference(-0.5);
        assert_eq!(p.check(-0.51), ActivationDecision::Hold);
        assert!(matches!(
            p.check(-0.6),
            ActivationDecision::Activate(ActivationReason::RewardDecreased)
        ));
    }

    #[test]
    fn reference_lifecycle() {
        let mut p = ActivationPolicy::paper_default();
        assert_eq!(p.reference(), None);
        assert_eq!(
            p.check(0.7),
            ActivationDecision::Activate(ActivationReason::FirstPlacement)
        );
        p.set_reference(0.7);
        assert_eq!(p.reference(), Some(0.7));
        assert_eq!(p.check(0.7), ActivationDecision::Hold);
    }

    #[test]
    fn debounce_filters_single_sample_noise() {
        let mut p = ActivationPolicy::paper_default(); // debounce = 3, deadband 0.1
        p.set_reference(1.0);
        // Isolated out-of-bounds samples hold…
        assert_eq!(p.check(0.5), ActivationDecision::Hold);
        assert_eq!(p.check(0.5), ActivationDecision::Hold);
        // …the third consecutive one fires.
        assert!(matches!(p.check(0.5), ActivationDecision::Activate(_)));
        // Noise interrupted by an in-bounds sample never fires.
        p.set_reference(1.0);
        assert_eq!(p.check(0.5), ActivationDecision::Hold);
        assert_eq!(p.check(1.0), ActivationDecision::Hold);
        assert_eq!(p.check(0.5), ActivationDecision::Hold);
    }

    #[test]
    fn deadband_absorbs_small_relative_drifts() {
        // Reference 4.0: a 5% rise is 0.2 > deadband, but with reference
        // 0.4 the same relative rise (0.02) is absorbed.
        let mut p = ActivationPolicy::paper_default();
        p.debounce = 1;
        p.set_reference(4.0);
        assert!(matches!(p.check(4.25), ActivationDecision::Activate(_)));
        p.set_reference(0.4);
        assert_eq!(p.check(0.44), ActivationDecision::Hold);
        assert!(matches!(p.check(0.55), ActivationDecision::Activate(_)));
    }

    #[test]
    fn periodic_fires_on_schedule() {
        let mut p = PeriodicPolicy::new(3);
        let fired: Vec<bool> = (0..7)
            .map(|_| matches!(p.check(), ActivationDecision::Activate(_)))
            .collect();
        assert_eq!(fired, vec![true, false, false, true, false, false, true]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        PeriodicPolicy::new(0);
    }
}
