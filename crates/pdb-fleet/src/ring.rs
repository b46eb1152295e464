//! Consistent hashing over session ids.
//!
//! A fleet's shards are fixed for its life: `pdb fleet serve --shards N`
//! runs shards `0..N`, and a store-backed fleet restarts with the N it
//! was created with ([`crate::Fleet::spawn`] refuses another).  A
//! [`HashRing`] over those shards is built once: each shard owns
//! [`DEFAULT_REPLICAS`] points on a `u64` circle, placed by the
//! SplitMix64 mixer, and a key belongs to the first point clockwise of
//! its own hash.  The virtual nodes keep each shard's total arc length,
//! and so its share of the sessions, balanced.
//!
//! The ring is deliberately dumb about *what* the shards are: it maps
//! `u64` keys to `usize` shard indices and nothing else.  The router owns
//! the index → address mapping.

/// Virtual nodes per shard (more points → tighter balance, larger ring).
pub const DEFAULT_REPLICAS: usize = 64;

/// A consistent-hash ring mapping `u64` keys to shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points, sorted: `(point, shard)`.
    points: Vec<(u64, usize)>,
    /// The ring's shards are `0..shards`.
    shards: usize,
}

/// SplitMix64, so the ring inherits its (well-studied) avalanche
/// behavior.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The ring point of virtual node `replica` of `shard`: shard and
/// replica are packed into one word and mixed, so every virtual node
/// lands somewhere independent.
fn point_of(shard: usize, replica: usize) -> u64 {
    mix(((shard as u64) << 32) ^ replica as u64 ^ 0x7064_6272 /* "pdbr" */)
}

impl HashRing {
    /// A ring over shards `0..shards` with [`DEFAULT_REPLICAS`] virtual
    /// nodes each.
    pub fn with_default_replicas(shards: usize) -> Self {
        let mut points: Vec<(u64, usize)> = (0..shards)
            .flat_map(|shard| {
                (0..DEFAULT_REPLICAS).map(move |replica| (point_of(shard, replica), shard))
            })
            .collect();
        points.sort_unstable();
        Self { points, shards }
    }

    /// The shard owning `key`: the first ring point clockwise of the
    /// key's hash (wrapping past the top).  `None` only on an empty ring.
    pub fn shard_for(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let hashed = mix(key);
        let at = self.points.partition_point(|&(point, _)| point < hashed);
        // pdb-analyze: allow(panic-path): at <= len and the ring is non-empty, so the wrapped index is in range
        let (_, shard) = self.points[if at == self.points.len() { 0 } else { at }];
        Some(shard)
    }

    /// The ring's shards, ascending.
    pub fn shards(&self) -> std::ops::Range<usize> {
        0..self.shards
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards
    }

    /// Whether the ring has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_consistently_and_only_to_live_shards() {
        let ring = HashRing::with_default_replicas(4);
        for key in 0..1000 {
            let shard = ring.shard_for(key).unwrap();
            assert!(shard < 4);
            assert_eq!(ring.shard_for(key), Some(shard), "routing is deterministic");
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::with_default_replicas(0);
        assert!(ring.is_empty());
        assert_eq!(ring.shard_for(7), None);
        let ring = HashRing::with_default_replicas(1);
        assert_eq!(ring.shard_for(7), Some(0), "a single shard owns everything");
    }

    /// The owners of sessions 1..=64 as every fleet so far has routed
    /// them: a store-backed fleet finds each session only on the shard
    /// that journalled it.
    #[test]
    fn sessions_keep_their_owners() {
        let owners = |shards| -> Vec<usize> {
            let ring = HashRing::with_default_replicas(shards);
            (1..=64).map(|id| ring.shard_for(id).unwrap()).collect()
        };
        let two = [
            0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1,
            0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 0,
            1, 1, 1, 0, 1, 1,
        ];
        let three = [
            2, 2, 1, 0, 1, 1, 1, 2, 0, 0, 1, 0, 1, 2, 2, 2, 1, 1, 2, 2, 2, 2, 0, 0, 0, 1, 2, 2, 2,
            0, 1, 0, 2, 1, 0, 0, 2, 0, 1, 1, 1, 1, 2, 2, 0, 2, 0, 2, 1, 2, 2, 0, 2, 2, 0, 2, 2, 0,
            2, 2, 2, 0, 1, 1,
        ];
        assert_eq!(owners(2), two);
        assert_eq!(owners(3), three);
    }
}
