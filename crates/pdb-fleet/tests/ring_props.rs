//! Property suite for the consistent-hash ring over a fleet's fixed
//! shards: every key routes, deterministically, to one of them, and no
//! shard owns a grossly oversized share of the key space.  Both are
//! checked over randomized shard counts and key sets; `ring.rs` pins the
//! owners of the first session ids.

use pdb_fleet::HashRing;
use proptest::collection::vec;
use proptest::prelude::*;

/// Route every key, returning per-shard ownership counts indexed by
/// shard id.
fn ownership(ring: &HashRing, shards: usize, keys: &[u64]) -> Vec<usize> {
    let mut counts = vec![0usize; shards];
    for &key in keys {
        counts[ring.shard_for(key).expect("non-empty ring routes every key")] += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every key routes, deterministically, to a shard that is actually
    /// on the ring.
    #[test]
    fn routing_is_total_deterministic_and_live(
        shards in 1usize..9,
        keys in vec(any::<u64>(), 1..200),
    ) {
        let ring = HashRing::with_default_replicas(shards);
        for &key in &keys {
            let owner = ring.shard_for(key);
            prop_assert!(matches!(owner, Some(s) if s < shards), "key {key} routed to {owner:?}");
            prop_assert_eq!(ring.shard_for(key), owner, "routing must be deterministic");
        }
    }

    /// Balance: with the default virtual-node count, no shard's share of
    /// a large uniform key set strays too far from the fair `1/N`.  The
    /// bound is loose — virtual nodes only approximate perfect balance —
    /// but it rules out the failure mode that matters (one shard owning
    /// a constant fraction regardless of N).
    #[test]
    fn default_replicas_keep_ownership_balanced(
        shards in 2usize..9,
        seed in any::<u64>(),
    ) {
        const KEYS: u64 = 20_000;
        let ring = HashRing::with_default_replicas(shards);
        let keys: Vec<u64> = (0..KEYS).map(|i| seed.wrapping_add(i)).collect();
        let counts = ownership(&ring, shards, &keys);
        let fair = KEYS as f64 / shards as f64;
        for (shard, &count) in counts.iter().enumerate() {
            prop_assert!(
                (count as f64) < 2.5 * fair,
                "shard {shard} owns {count} of {KEYS} keys (fair share {fair:.0})"
            );
            prop_assert!(count > 0, "shard {shard} owns nothing");
        }
    }
}
