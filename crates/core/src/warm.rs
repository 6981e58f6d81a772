//! The fleet-wide warm-start cache: scenario signatures → converged
//! configurations, shared *across* sessions.
//!
//! [`crate::lookup`] memoizes conditions within one session's lifetime
//! (the paper's Section VI sketch); this module applies the same
//! [`ConfigStore`] to the control plane of a whole fleet. A session about
//! to run an HBO activation first computes its [`ScenarioSignature`] —
//! device fingerprint, model multiset, quantized offered-load band, edge
//! capability — and, on a cache hit, seeds its BO design with the cached
//! converged configuration instead of starting from pure random design.
//! After converging it stores its own best back, better-reward-wins.
//!
//! The store is deterministic by construction (see [`crate::store`]), and
//! [`WarmCache::merge`] folds another cache in ascending signature order
//! with the same better-reward-wins rule, so merging per-job shadow
//! caches in job-index order gives one well-defined result for any
//! worker-thread count (the property the parallel sweeps pin).

use simcore::rng::fnv1a;

use crate::lookup::LookupKey;
use crate::store::{ConfigStore, StoredConfig};

/// Quantized identity of the conditions one session optimizes under.
///
/// Two sessions share a signature exactly when a converged configuration
/// for one is a sensible BO seed for the other: same device class, same
/// model multiset, offered load in the same half-octave band, and the
/// same search-space shape (edge-capable or not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScenarioSignature {
    /// FNV-1a fingerprint of the device-profile name.
    pub device: u64,
    /// Order-insensitive fingerprint of the model multiset
    /// ([`LookupKey::fingerprint_taskset`]).
    pub taskset: u64,
    /// Offered-load band: `round(2 · log₂ load)`, i.e. half-octave bands,
    /// so neighbouring loads share a band.
    pub load_band: i32,
    /// Whether the session can offload to an edge server (a 4-simplex
    /// configuration cannot seed a 3-simplex session, or vice versa).
    pub edge: bool,
}

impl ScenarioSignature {
    /// Builds a signature from raw conditions. `load` is the session's
    /// offered load in any unit used consistently across the fleet
    /// (target frames per second, triangles per metre, …).
    ///
    /// # Panics
    ///
    /// Panics unless `load` is strictly positive and finite.
    pub fn quantize<'a>(
        device_name: &str,
        models: impl Iterator<Item = &'a str>,
        load: f64,
        edge: bool,
    ) -> Self {
        assert!(
            load > 0.0 && load.is_finite(),
            "invalid offered load: {load}"
        );
        ScenarioSignature {
            device: fnv1a(device_name.as_bytes()),
            taskset: LookupKey::fingerprint_taskset(models),
            load_band: (2.0 * load.log2()).round() as i32,
            edge,
        }
    }
}

/// The fleet-wide warm-start cache: a [`ConfigStore`] keyed by
/// [`ScenarioSignature`].
///
/// # Example
///
/// ```
/// use hbo_core::{ScenarioSignature, StoredConfig, WarmCache};
/// use nnmodel::Delegate;
///
/// let mut cache = WarmCache::new();
/// let sig = ScenarioSignature::quantize("pixel7", ["mobilenet-v1"].into_iter(), 10.0, false);
/// assert!(cache.find(&sig).is_none());
/// cache.store(
///     sig,
///     StoredConfig { c: vec![0.2, 0.3, 0.5], x: 0.8, allocation: vec![Delegate::Gpu], reward: 0.7 },
/// );
/// assert_eq!(cache.find(&sig).unwrap().reward, 0.7);
/// ```
pub type WarmCache = ConfigStore<ScenarioSignature>;

impl ConfigStore<ScenarioSignature> {
    /// The stored entries in ascending signature order.
    pub fn entries(&self) -> impl Iterator<Item = (&ScenarioSignature, &StoredConfig)> {
        self.iter()
    }

    /// Folds another cache into this one, in ascending signature order,
    /// entry by entry through [`Self::store`]. Merging per-job shadow
    /// caches in job-index order therefore produces one well-defined
    /// result regardless of which worker thread ran which job.
    pub fn merge(&mut self, other: &WarmCache) {
        for (sig, config) in other.entries() {
            self.store(*sig, config.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnmodel::Delegate;

    fn config(reward: f64) -> StoredConfig {
        StoredConfig {
            c: vec![0.3, 0.2, 0.5],
            x: 0.8,
            allocation: vec![Delegate::Gpu],
            reward,
        }
    }

    fn sig(device: &str, load: f64) -> ScenarioSignature {
        ScenarioSignature::quantize(device, ["mobilenet-v1"].into_iter(), load, false)
    }

    #[test]
    fn neighbouring_loads_share_a_signature() {
        // Half-octave bands: a few percent of load jitter never splits
        // the band's centre.
        assert_eq!(sig("pixel7", 10.0), sig("pixel7", 10.3));
        assert_eq!(sig("pixel7", 15.0), sig("pixel7", 14.6));
        // Clearly different operating points do split.
        assert_ne!(sig("pixel7", 5.0), sig("pixel7", 15.0));
    }

    #[test]
    fn signature_distinguishes_device_models_and_edge() {
        let base = sig("pixel7", 10.0);
        assert_ne!(base, sig("galaxy_s22", 10.0));
        assert_ne!(
            base,
            ScenarioSignature::quantize(
                "pixel7",
                ["efficientclass-lite0"].into_iter(),
                10.0,
                false
            )
        );
        assert_ne!(
            base,
            ScenarioSignature::quantize("pixel7", ["mobilenet-v1"].into_iter(), 10.0, true)
        );
    }

    #[test]
    fn signature_is_model_order_insensitive() {
        let a = ScenarioSignature::quantize(
            "pixel7",
            ["mobilenet-v1", "mnist", "mnist"].into_iter(),
            10.0,
            false,
        );
        let b = ScenarioSignature::quantize(
            "pixel7",
            ["mnist", "mobilenet-v1", "mnist"].into_iter(),
            10.0,
            false,
        );
        assert_eq!(a, b);
        // Multiset, not set: dropping a duplicate changes the signature.
        let c = ScenarioSignature::quantize(
            "pixel7",
            ["mnist", "mobilenet-v1"].into_iter(),
            10.0,
            false,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn store_is_better_reward_wins() {
        let mut cache = WarmCache::new();
        let s = sig("pixel7", 10.0);
        cache.store(s, config(0.5));
        cache.store(s, config(0.3));
        assert_eq!(cache.find(&s).unwrap().reward, 0.5);
        cache.store(s, config(0.8));
        assert_eq!(cache.find(&s).unwrap().reward, 0.8);
    }

    #[test]
    fn capacity_bounds_the_cache() {
        let mut cache = WarmCache::new();
        cache.store(sig("a", 10.0), config(0.5));
        for k in 1..cache.capacity() {
            cache.store(sig(&format!("device{k}"), 10.0), config(0.8));
        }
        assert_eq!(cache.len(), cache.capacity());
        cache.store(sig("c", 10.0), config(0.7));
        assert_eq!(cache.len(), cache.capacity());
        assert!(cache.find(&sig("a", 10.0)).is_none(), "worst must go");
        // A newcomer no better than the worst resident is dropped.
        cache.store(sig("d", 10.0), config(0.1));
        assert_eq!(cache.len(), cache.capacity());
        assert!(cache.find(&sig("d", 10.0)).is_none());
    }

    #[test]
    fn merge_folds_in_signature_order_with_better_reward_wins() {
        let shared = sig("pixel7", 10.0);
        let mut a = WarmCache::new();
        a.store(shared, config(0.5));
        a.store(sig("galaxy_s22", 10.0), config(0.4));
        let mut b = WarmCache::new();
        b.store(shared, config(0.7));
        b.store(sig("pixel7", 5.0), config(0.2));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.find(&shared).unwrap().reward, 0.7);
        assert_eq!(merged.find(&sig("galaxy_s22", 10.0)).unwrap().reward, 0.4);
    }

    #[test]
    fn shadow_clone_merge_is_order_independent_across_disjoint_jobs() {
        // The parallel-sweep pattern: every job clones the epoch-start
        // master, works on its own signatures, and the master merges the
        // shadows in job-index order. With disjoint signatures the merged
        // result equals any sequential interleaving.
        let master = {
            let mut m = WarmCache::new();
            m.store(sig("seed", 10.0), config(0.6));
            m
        };
        let mut shadow1 = master.clone();
        shadow1.store(sig("a", 10.0), config(0.5));
        let mut shadow2 = master.clone();
        shadow2.store(sig("b", 10.0), config(0.9));

        let mut forward = master.clone();
        forward.merge(&shadow1);
        forward.merge(&shadow2);
        let mut backward = master.clone();
        backward.merge(&shadow2);
        backward.merge(&shadow1);
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid offered load")]
    fn non_positive_load_panics() {
        ScenarioSignature::quantize("pixel7", [].into_iter(), 0.0, false);
    }
}
