//! The one bounded store of converged configurations.
//!
//! The Section VI lookup table ([`crate::LookupTable`], keyed by
//! [`crate::LookupKey`]) and the fleet-wide warm-start cache
//! ([`crate::WarmCache`], keyed by [`crate::ScenarioSignature`]) are the
//! same mechanism: a converged `(c, x, allocation)` stored under a
//! quantized condition key, the better reward kept on collision, the
//! worst entry evicted at the bound. Both are [`ConfigStore`]s; only the
//! key type and one key-specific query each differ.
//!
//! Everything here is deterministic by construction: storage is a
//! `BTreeMap`, so iteration follows the key's total order, never
//! insertion or hash order, and eviction removes the minimum of
//! `(reward, key)` — a pure function of the store's contents.

use std::collections::BTreeMap;

use nnmodel::Delegate;

/// A stored solution.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredConfig {
    /// Resource-usage proportions `c`.
    pub c: Vec<f64>,
    /// Triangle ratio `x`.
    pub x: f64,
    /// Concrete per-task allocation.
    pub allocation: Vec<Delegate>,
    /// The reward the configuration achieved when stored.
    pub reward: f64,
}

/// The bound on stored keys — generous for one session (a handful of
/// conditions) or one sweep's device classes, tight enough that a fleet
/// of churning sessions cannot grow a store without limit.
const CAPACITY: usize = 4096;

/// A bounded, deterministic map from a quantized condition key to the
/// best configuration seen under it.
///
/// At most [`ConfigStore::capacity`] keys are retained. When a new key
/// arrives at capacity, the entry with the lowest reward is evicted —
/// unless the newcomer is no better than that worst resident, in which
/// case the newcomer is dropped instead (better-reward-wins, extended
/// across keys). Among equally bad residents the smallest key goes.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigStore<K> {
    entries: BTreeMap<K, StoredConfig>,
}

impl<K> Default for ConfigStore<K> {
    fn default() -> Self {
        ConfigStore {
            entries: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy> ConfigStore<K> {
    /// Creates an empty store.
    pub fn new() -> Self {
        ConfigStore::default()
    }

    /// The bound on stored keys (4096).
    pub fn capacity(&self) -> usize {
        CAPACITY
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact-key lookup.
    pub fn find(&self, key: &K) -> Option<&StoredConfig> {
        self.entries.get(key)
    }

    /// Stores a configuration, better-reward-wins: an existing entry for
    /// the key survives unless the newcomer's reward is strictly higher.
    /// At capacity, a new key displaces the worst-reward resident only if
    /// it beats it; otherwise the newcomer is dropped.
    pub fn store(&mut self, key: K, config: StoredConfig) {
        match self.entries.get(&key) {
            Some(existing) if existing.reward >= config.reward => return,
            Some(_) => {
                self.entries.insert(key, config);
                return;
            }
            None => {}
        }
        if self.entries.len() >= CAPACITY {
            // `min_by` keeps the first of equal minima, and iteration is
            // in ascending key order: ties evict the smallest key.
            let (&worst_key, worst) = self
                .entries
                .iter()
                .min_by(|a, b| a.1.reward.total_cmp(&b.1.reward))
                .expect("a full store is non-empty");
            if worst.reward >= config.reward {
                return; // the newcomer is no better than the worst resident
            }
            self.entries.remove(&worst_key);
        }
        self.entries.insert(key, config);
    }

    /// The stored entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &StoredConfig)> {
        self.entries.iter()
    }
}
