//! Parametric wireless-link model: serialization, propagation with
//! lognormal jitter, and loss/retransmission.
//!
//! # Model
//!
//! Each client owns one uplink and one downlink radio lane; a transfer
//! occupies its lane for its whole serialization — including
//! retransmissions — and is then delivered after a jittered propagation
//! delay. All randomness (loss draws, jitter) is derived from
//! per-`(flow, seq)` seeds via [`simcore::rng::mix`], so a transfer's
//! [`TransferPlan`] is a pure function of its identity: replanning the
//! same transfer yields the same plan, which is what makes the whole
//! simulation reproducible and thread-count independent.
//! [`crate::ClusterSim`] plans each transfer once, when it is sent, and
//! carries the plan in the transfer's completion event.
//!
//! Loss is collapsed into deterministic lane occupancy: a transfer that
//! needs `a` attempts holds its lane for `a × serialize + (a − 1) ×
//! retransmit-timeout`. Byte conservation is by construction — every
//! offered transfer is eventually delivered exactly once (there is no drop
//! path), and the *transmitted* byte counter exceeds the offered one by
//! the retransmitted bytes.

use simcore::rand::{Rng, SeedableRng, StdRng};
use simcore::rng::mix;
use simcore::SimDuration;

/// Transfer direction over the wireless link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Device → edge server (request tensors).
    Up,
    /// Edge server → device (inference results).
    Down,
}

/// Calibration knobs of one wireless link (shared by every client radio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Uplink bandwidth in megabits per second.
    pub uplink_mbps: f64,
    /// Downlink bandwidth in megabits per second.
    pub downlink_mbps: f64,
    /// Base round-trip time in milliseconds (propagation is `rtt/2` each
    /// way before jitter).
    pub rtt_ms: f64,
    /// Lognormal jitter width `σ` of the propagation factor
    /// `exp(σz − σ²/2)` (unit mean, so the *average* propagation delay
    /// stays `rtt/2` regardless of σ).
    pub jitter_sigma: f64,
    /// Per-attempt frame-loss probability in `[0, 1)`.
    pub loss_prob: f64,
    /// Retransmission cap: a transfer is attempted at most this many
    /// times; the final attempt always succeeds (link-layer ARQ gives up
    /// on preserving the frame timing, not the frame).
    pub max_attempts: u32,
    /// Gap between a lost attempt and its retransmission, in
    /// milliseconds.
    pub retx_timeout_ms: f64,
}

impl LinkParams {
    /// A good-quality Wi-Fi-like default: 50/100 Mbps, 8 ms RTT, mild
    /// jitter, 2 % loss.
    pub fn wifi() -> Self {
        LinkParams {
            uplink_mbps: 50.0,
            downlink_mbps: 100.0,
            rtt_ms: 8.0,
            jitter_sigma: 0.25,
            loss_prob: 0.02,
            max_attempts: 4,
            retx_timeout_ms: 2.0,
        }
    }

    /// Validates the parameters, panicking on nonsense.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth or the RTT is not positive, the loss
    /// probability is outside `[0, 1)`, `max_attempts` is zero, or any
    /// field is non-finite.
    pub fn validate(&self) {
        assert!(
            self.uplink_mbps.is_finite() && self.uplink_mbps > 0.0,
            "uplink bandwidth must be positive: {}",
            self.uplink_mbps
        );
        assert!(
            self.downlink_mbps.is_finite() && self.downlink_mbps > 0.0,
            "downlink bandwidth must be positive: {}",
            self.downlink_mbps
        );
        assert!(
            self.rtt_ms.is_finite() && self.rtt_ms >= 0.0,
            "rtt must be non-negative: {}",
            self.rtt_ms
        );
        assert!(
            self.jitter_sigma.is_finite() && self.jitter_sigma >= 0.0,
            "jitter sigma must be non-negative: {}",
            self.jitter_sigma
        );
        assert!(
            (0.0..1.0).contains(&self.loss_prob),
            "loss probability must be in [0, 1): {}",
            self.loss_prob
        );
        assert!(self.max_attempts >= 1, "need at least one attempt");
        assert!(
            self.retx_timeout_ms.is_finite() && self.retx_timeout_ms >= 0.0,
            "retransmit timeout must be non-negative: {}",
            self.retx_timeout_ms
        );
    }

    /// The bandwidth of `dir` in Mbps.
    pub fn mbps(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Up => self.uplink_mbps,
            Direction::Down => self.downlink_mbps,
        }
    }

    /// Time to serialize `bytes` onto the `dir` lane once, in ms.
    pub(crate) fn serialize_ms(&self, dir: Direction, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / (self.mbps(dir) * 1e6) * 1e3
    }

    /// The *unloaded* end-to-end offload estimate in milliseconds: uplink
    /// serialization + one RTT of propagation + edge inference + downlink
    /// serialization, with no queueing anywhere. This is the `τ^e`-style
    /// estimate fed to `TaskProfile::with_edge`; the simulation measures
    /// the loaded reality (lane queueing, server admission, contention).
    pub fn unloaded_offload_ms(
        &self,
        request_bytes: u64,
        response_bytes: u64,
        infer_ms: f64,
    ) -> f64 {
        self.serialize_ms(Direction::Up, request_bytes)
            + self.rtt_ms
            + infer_ms
            + self.serialize_ms(Direction::Down, response_bytes)
    }
}

/// The deterministic plan of one transfer: how long it occupies its radio
/// lane and how long it propagates afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPlan {
    /// Attempts made (1 = no loss). Capped at `max_attempts`.
    pub attempts: u32,
    /// Total lane occupancy: `attempts × serialize + (attempts − 1) ×
    /// retransmit timeout`.
    pub occupancy: SimDuration,
    /// One-way propagation after the last serialization, jittered.
    pub propagation: SimDuration,
}

/// Plans the transfer of `bytes` in direction `dir` for the `(flow_seed,
/// seq)` identity. Pure: the same identity always yields the same plan.
/// `params` must be valid: callers check them once up front and never
/// mutate them ([`crate::ClusterSim`] validates its link in
/// `ClusterSim::new`).
pub(crate) fn plan_transfer(
    params: &LinkParams,
    dir: Direction,
    bytes: u64,
    flow_seed: u64,
    seq: u64,
) -> TransferPlan {
    let mut rng = StdRng::seed_from_u64(mix(flow_seed, seq));
    let mut attempts = 1u32;
    while attempts < params.max_attempts && rng.gen_range(0.0..1.0f64) < params.loss_prob {
        attempts += 1;
    }
    let serialize = params.serialize_ms(dir, bytes);
    let occupancy_ms = attempts as f64 * serialize + (attempts - 1) as f64 * params.retx_timeout_ms;
    // Unit-mean lognormal propagation factor exp(σz − σ²/2), z ~ N(0, 1)
    // via Box–Muller on two mix-derived uniforms.
    let factor = if params.jitter_sigma > 0.0 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (params.jitter_sigma * z - params.jitter_sigma * params.jitter_sigma / 2.0).exp()
    } else {
        1.0
    };
    let propagation_ms = (params.rtt_ms / 2.0) * factor;
    TransferPlan {
        attempts,
        occupancy: SimDuration::from_millis_f64(occupancy_ms),
        propagation: SimDuration::from_millis_f64(propagation_ms),
    }
}

/// Per-direction byte accounting of one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteCounters {
    /// Application bytes submitted for transfer.
    pub offered: u64,
    /// Application bytes delivered to the far end.
    pub delivered: u64,
    /// Bytes actually put on the air, including retransmissions
    /// (`transmitted ≥ offered` always; equality iff no losses).
    pub transmitted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_scales_with_bytes_and_bandwidth() {
        let p = LinkParams::wifi();
        // 1 MB at 50 Mbps: 8e6 bits / 50e6 bps = 160 ms.
        assert!((p.serialize_ms(Direction::Up, 1_000_000) - 160.0).abs() < 1e-9);
        // Downlink is 2x faster here.
        assert!((p.serialize_ms(Direction::Down, 1_000_000) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn unloaded_estimate_composes_the_pieces() {
        let p = LinkParams {
            loss_prob: 0.0,
            jitter_sigma: 0.0,
            ..LinkParams::wifi()
        };
        let est = p.unloaded_offload_ms(100_000, 10_000, 5.0);
        let expect = p.serialize_ms(Direction::Up, 100_000)
            + p.rtt_ms
            + 5.0
            + p.serialize_ms(Direction::Down, 10_000);
        assert!((est - expect).abs() < 1e-12);
    }

    #[test]
    fn plans_are_pure_functions_of_identity() {
        let p = LinkParams::wifi();
        let a = plan_transfer(&p, Direction::Up, 50_000, 7, 3);
        let b = plan_transfer(&p, Direction::Up, 50_000, 7, 3);
        assert_eq!(a, b);
        // Different seq draws different randomness (almost surely).
        let c = plan_transfer(&p, Direction::Up, 50_000, 7, 4);
        assert!(a.propagation != c.propagation || a.attempts != c.attempts);
    }

    #[test]
    fn lossless_link_plans_single_attempts() {
        let p = LinkParams {
            loss_prob: 0.0,
            ..LinkParams::wifi()
        };
        for seq in 0..100 {
            let plan = plan_transfer(&p, Direction::Down, 10_000, 1, seq);
            assert_eq!(plan.attempts, 1);
            assert!(
                (plan.occupancy.as_millis_f64() - p.serialize_ms(Direction::Down, 10_000)).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn attempts_never_exceed_the_cap() {
        let p = LinkParams {
            loss_prob: 0.9,
            max_attempts: 3,
            ..LinkParams::wifi()
        };
        for seq in 0..200 {
            let plan = plan_transfer(&p, Direction::Up, 10_000, 2, seq);
            assert!((1..=3).contains(&plan.attempts));
        }
    }

    #[test]
    fn occupancy_accounts_for_retransmit_gaps() {
        let p = LinkParams {
            loss_prob: 0.9,
            max_attempts: 4,
            ..LinkParams::wifi()
        };
        let ser = p.serialize_ms(Direction::Up, 10_000);
        for seq in 0..50 {
            let plan = plan_transfer(&p, Direction::Up, 10_000, 3, seq);
            let expect =
                plan.attempts as f64 * ser + (plan.attempts - 1) as f64 * p.retx_timeout_ms;
            assert!((plan.occupancy.as_millis_f64() - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_jitter_propagation_is_half_rtt() {
        let p = LinkParams {
            jitter_sigma: 0.0,
            ..LinkParams::wifi()
        };
        let plan = plan_transfer(&p, Direction::Up, 1000, 0, 0);
        assert!((plan.propagation.as_millis_f64() - p.rtt_ms / 2.0).abs() < 1e-9);
    }

    #[test]
    fn jittered_propagation_is_unit_mean_ish() {
        let p = LinkParams {
            jitter_sigma: 0.5,
            ..LinkParams::wifi()
        };
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|seq| {
                plan_transfer(&p, Direction::Up, 1000, 11, seq)
                    .propagation
                    .as_millis_f64()
            })
            .sum::<f64>()
            / n as f64;
        // exp(σz − σ²/2) has mean 1, so the average propagation should sit
        // near rtt/2 (= 4 ms) within sampling error.
        assert!((mean - p.rtt_ms / 2.0).abs() < 0.3, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn certain_loss_is_rejected() {
        let p = LinkParams {
            loss_prob: 1.0,
            ..LinkParams::wifi()
        };
        p.validate();
    }
}
