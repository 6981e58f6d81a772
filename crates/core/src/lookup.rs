//! The lookup-table extension sketched in Section VI ("Dynamic
//! Environment"): memoize environmental conditions → chosen configuration,
//! and skip an activation when the current conditions approximately match
//! a stored entry. The table is the crate's one [`ConfigStore`], keyed by
//! [`LookupKey`].

use simcore::rng::fnv1a;

use crate::store::{ConfigStore, StoredConfig};

/// Quantized environmental conditions, as the paper proposes: "maximum
/// triangle count, average distances, and task configurations".
///
/// The `Ord` derive gives keys the total order the store iterates in and
/// breaks eviction and [`LookupTable::find_similar`] ties by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LookupKey {
    /// Fingerprint of the taskset (names + counts).
    pub taskset: u64,
    /// `T^max` bucket (log-quantized).
    pub tmax_bucket: u32,
    /// User-distance bucket.
    pub distance_bucket: u32,
}

impl LookupKey {
    /// Builds a key from raw conditions.
    ///
    /// Triangle counts are bucketed logarithmically (quarter-octaves) and
    /// distance in 0.25 m steps, so "closely resembling" conditions share
    /// a key.
    ///
    /// # Panics
    ///
    /// Panics if `tmax == 0` or `distance <= 0`.
    pub fn quantize(taskset: u64, tmax: u64, distance: f64) -> Self {
        assert!(tmax > 0, "empty scene has no key");
        assert!(distance > 0.0 && distance.is_finite(), "invalid distance");
        LookupKey {
            taskset,
            tmax_bucket: (4.0 * (tmax as f64).log2()).round() as u32,
            distance_bucket: (distance / 0.25).round() as u32,
        }
    }

    /// Fingerprints a taskset from its task names (order-insensitive).
    pub fn fingerprint_taskset<'a>(names: impl Iterator<Item = &'a str>) -> u64 {
        // Wrapping sum is commutative: order-insensitive.
        names.fold(0, |acc, name| acc.wrapping_add(fnv1a(name.as_bytes())))
    }
}

/// The Section VI memoization table: a [`ConfigStore`] keyed by
/// [`LookupKey`].
///
/// # Example
///
/// ```
/// use hbo_core::{LookupKey, LookupTable};
///
/// let mut table = LookupTable::new();
/// let key = LookupKey::quantize(42, 1_000_000, 1.2);
/// assert!(table.find(&key).is_none());
/// ```
pub type LookupTable = ConfigStore<LookupKey>;

impl ConfigStore<LookupKey> {
    /// Fuzzy lookup: accepts a stored condition whose buckets differ by at
    /// most one step in `T^max` and distance (same taskset), preferring
    /// the exact match and then the highest stored reward. Among
    /// neighbours with equal rewards the largest key wins — the one
    /// eviction would keep.
    pub fn find_similar(&self, key: &LookupKey) -> Option<&StoredConfig> {
        if let Some(exact) = self.find(key) {
            return Some(exact);
        }
        // `max_by` keeps the last of equal maxima over ascending keys.
        self.iter()
            .filter(|(k, _)| {
                k.taskset == key.taskset
                    && k.tmax_bucket.abs_diff(key.tmax_bucket) <= 1
                    && k.distance_bucket.abs_diff(key.distance_bucket) <= 1
            })
            .max_by(|a, b| a.1.reward.total_cmp(&b.1.reward))
            .map(|(_, v)| v)
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
            allocation: vec![Delegate::Nnapi],
            reward,
        }
    }

    #[test]
    fn quantization_groups_similar_conditions() {
        let a = LookupKey::quantize(1, 1_000_000, 1.2);
        let b = LookupKey::quantize(1, 1_020_000, 1.21);
        assert_eq!(a, b);
        let far = LookupKey::quantize(1, 2_000_000, 1.2);
        assert_ne!(a, far);
    }

    #[test]
    fn taskset_fingerprint_is_order_insensitive() {
        let a = LookupKey::fingerprint_taskset(["mnist", "mobilenet"].into_iter());
        let b = LookupKey::fingerprint_taskset(["mobilenet", "mnist"].into_iter());
        assert_eq!(a, b);
        let c = LookupKey::fingerprint_taskset(["mnist"].into_iter());
        assert_ne!(a, c);
    }

    #[test]
    fn store_and_find() {
        let mut t = LookupTable::new();
        let key = LookupKey::quantize(1, 500_000, 1.0);
        t.store(key, config(0.7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.find(&key).unwrap().reward, 0.7);
    }

    #[test]
    fn collisions_keep_the_better_reward() {
        let mut t = LookupTable::new();
        let key = LookupKey::quantize(1, 500_000, 1.0);
        t.store(key, config(0.7));
        t.store(key, config(0.3));
        assert_eq!(t.find(&key).unwrap().reward, 0.7);
        t.store(key, config(0.9));
        assert_eq!(t.find(&key).unwrap().reward, 0.9);
    }

    /// Distinct keys, ascending in `k`.
    fn key(k: u64) -> LookupKey {
        LookupKey::quantize(k, 500_000, 1.0)
    }

    /// A table holding keys `0..capacity`, key `k` with reward `reward(k)`.
    fn full(reward: impl Fn(u64) -> f64) -> LookupTable {
        let mut t = LookupTable::new();
        for k in 0..t.capacity() as u64 {
            t.store(key(k), config(reward(k)));
        }
        assert_eq!(t.len(), t.capacity());
        t
    }

    #[test]
    fn capacity_bounds_the_table_with_deterministic_eviction() {
        // Regression: the table used to be an unbounded HashMap, which
        // leaks at millions-of-sessions scale. Key 5 is the unique worst.
        let mut t = full(|k| if k == 5 { 0.1 } else { 0.5 });
        let newcomer = key(t.capacity() as u64);
        // A better newcomer displaces the worst resident.
        t.store(newcomer, config(0.2));
        assert_eq!(t.len(), t.capacity());
        assert!(t.find(&key(5)).is_none(), "worst entry must be evicted");
        assert!(t.find(&newcomer).is_some());
        // A worse newcomer is dropped, not admitted.
        let late = key(t.capacity() as u64 + 1);
        t.store(late, config(0.2));
        assert_eq!(t.len(), t.capacity());
        assert!(t.find(&late).is_none());
        // Same-key better-reward updates never trigger eviction.
        t.store(newcomer, config(0.9));
        assert_eq!(t.len(), t.capacity());
        assert_eq!(t.find(&newcomer).unwrap().reward, 0.9);
    }

    #[test]
    fn eviction_ties_break_on_key_order() {
        // Every resident is equally bad: the smallest key goes.
        let mut t = full(|_| 0.5);
        t.store(key(t.capacity() as u64), config(0.6));
        assert!(t.find(&key(0)).is_none(), "tie must evict the smallest key");
        assert!(t.find(&key(1)).is_some());
    }

    #[test]
    fn default_capacity_is_applied() {
        assert_eq!(LookupTable::new().capacity(), 4096);
    }

    #[test]
    fn fuzzy_lookup_accepts_neighbours() {
        let mut t = LookupTable::new();
        let stored = LookupKey::quantize(1, 1_000_000, 1.0);
        t.store(stored, config(0.8));
        // One distance bucket over.
        let probe = LookupKey {
            distance_bucket: stored.distance_bucket + 1,
            ..stored
        };
        assert!(t.find(&probe).is_none());
        assert_eq!(t.find_similar(&probe).unwrap().reward, 0.8);
        // Different taskset never matches.
        let other = LookupKey {
            taskset: 2,
            ..stored
        };
        assert!(t.find_similar(&other).is_none());
    }

    #[test]
    fn find_similar_ties_pick_the_larger_key_in_any_insertion_order() {
        let probe = LookupKey::quantize(1, 1_000_000, 1.0);
        let below = LookupKey {
            distance_bucket: probe.distance_bucket - 1,
            ..probe
        };
        let above = LookupKey {
            distance_bucket: probe.distance_bucket + 1,
            ..probe
        };
        assert!(below < above);
        for order in [[below, above], [above, below]] {
            let mut t = LookupTable::new();
            for (i, k) in order.into_iter().enumerate() {
                // Equal rewards, distinguishable configurations.
                t.store(
                    k,
                    StoredConfig {
                        x: i as f64,
                        ..config(0.8)
                    },
                );
            }
            let expected = t.find(&above).unwrap().x;
            assert_eq!(t.find_similar(&probe).unwrap().x, expected);
        }
    }
}
