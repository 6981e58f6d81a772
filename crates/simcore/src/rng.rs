//! Named, independently seeded random-number streams and seed mixing.
//!
//! Experiments in this workspace must be reproducible from a single seed,
//! and adding a new random consumer (e.g. one more rater in the user
//! study) must not perturb the draws seen by existing consumers. Both
//! properties are achieved by deriving an independent [`StdRng`] per
//! `(master_seed, stream_name, index)` triple via the FNV-1a hash of the
//! name mixed with the master seed through splitmix64.

use crate::rand::{splitmix64, SeedableRng, StdRng};

/// Creates the RNG for a named, indexed stream (e.g. one per rater) of
/// `master_seed`.
///
/// # Example
///
/// ```
/// use simcore::rand::Rng;
/// use simcore::rng::indexed_stream;
///
/// let mut a = indexed_stream(42, "ai-jitter", 0);
/// let mut b = indexed_stream(42, "user-motion", 0);
/// // Streams with different names are decorrelated…
/// let (x, y): (f64, f64) = (a.gen(), b.gen());
/// assert_ne!(x, y);
/// // …and the same name and index always yield the same stream.
/// assert_eq!(indexed_stream(42, "ai-jitter", 0).gen::<f64>(), x);
/// ```
pub fn indexed_stream(master_seed: u64, name: &str, index: u64) -> StdRng {
    let named = splitmix64(master_seed ^ fnv1a(name.as_bytes()));
    StdRng::seed_from_u64(splitmix64(named ^ splitmix64(index)))
}

/// Mixes two integers into a well-distributed 64-bit value (splitmix64
/// over the xor of the operands' individual mixes). Used for cheap
/// deterministic per-event jitter where carrying an RNG would be awkward.
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ splitmix64(b.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// FNV-1a hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::RngCore;

    fn draws(mut rng: StdRng) -> Vec<u64> {
        (0..8).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_name_same_stream() {
        assert_eq!(
            draws(indexed_stream(7, "a", 0)),
            draws(indexed_stream(7, "a", 0))
        );
    }

    #[test]
    fn different_names_differ() {
        assert_ne!(
            draws(indexed_stream(7, "a", 0)),
            draws(indexed_stream(7, "b", 0))
        );
    }

    #[test]
    fn different_master_seeds_differ() {
        assert_ne!(
            draws(indexed_stream(1, "a", 0)),
            draws(indexed_stream(2, "a", 0))
        );
    }

    #[test]
    fn indexed_streams_differ() {
        assert_ne!(
            draws(indexed_stream(7, "t", 0)),
            draws(indexed_stream(7, "t", 1))
        );
    }

    #[test]
    fn indexed_stream_bits_are_pinned() {
        // The user-study scores depend on these exact bits.
        let mut rng = indexed_stream(7, "t", 3);
        assert_eq!(rng.next_u64(), 0xde32_bfad_3895_3e28);
        assert_eq!(rng.next_u64(), 0xc8d0_2acc_f601_faee);
        assert_eq!(
            indexed_stream(0x5EED, "fig9", 0).next_u64(),
            0xdacb_61c2_2c63_1d28
        );
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(mix(0, 0), mix(0, 1));
    }

    #[test]
    fn splitmix_is_a_permutation_sample() {
        // Spot-check injectivity on a small sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }
}
