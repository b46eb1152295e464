//! Consistent hashing over session ids.
//!
//! The in-process [`pdb_server::SessionManager`] hashes a session id
//! straight to `hash % shards` — fine inside one process, where
//! "resharding" never happens.  Across *processes* that scheme is fatal:
//! growing a fleet from N to N+1 shards would remap almost every session
//! to a different process.  A [`HashRing`] generalizes the same SplitMix64
//! mixer to a ring with virtual nodes: each shard owns `replicas` points
//! on a `u64` circle, and a key belongs to the first point clockwise of
//! its own hash.  Adding or removing one shard then moves only the keys
//! in the arcs that shard's points cover — about `1/N` of them — and the
//! virtual nodes keep each shard's total arc length balanced.
//!
//! The ring is deliberately dumb about *what* the shards are: it maps
//! `u64` keys to `usize` shard indices and nothing else.  The router owns
//! the index → address mapping.

use std::collections::BTreeSet;

/// Virtual nodes per shard when callers have no reason to pick a
/// different trade-off (more points → tighter balance, larger ring).
pub const DEFAULT_REPLICAS: usize = 64;

/// A consistent-hash ring mapping `u64` keys to shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points, sorted by point hash: `(point, shard)`.
    points: Vec<(u64, usize)>,
    /// Shards currently on the ring.
    shards: BTreeSet<usize>,
    /// Virtual nodes per shard.
    replicas: usize,
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
    /// A ring over shards `0..shards` with `replicas` virtual nodes each
    /// (`replicas` clamped to at least 1).
    pub fn new(shards: usize, replicas: usize) -> Self {
        let mut ring =
            Self { points: Vec::new(), shards: BTreeSet::new(), replicas: replicas.max(1) };
        for shard in 0..shards {
            ring.add_shard(shard);
        }
        ring
    }

    /// A ring over shards `0..shards` with [`DEFAULT_REPLICAS`] virtual
    /// nodes each.
    pub fn with_default_replicas(shards: usize) -> Self {
        Self::new(shards, DEFAULT_REPLICAS)
    }

    /// Put `shard`'s virtual nodes on the ring (a no-op if present).
    pub fn add_shard(&mut self, shard: usize) {
        if !self.shards.insert(shard) {
            return;
        }
        for replica in 0..self.replicas {
            let point = (point_of(shard, replica), shard);
            let at = self.points.partition_point(|p| *p < point);
            self.points.insert(at, point);
        }
    }

    /// Take `shard`'s virtual nodes off the ring (a no-op if absent).
    pub fn remove_shard(&mut self, shard: usize) {
        if self.shards.remove(&shard) {
            self.points.retain(|&(_, s)| s != shard);
        }
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

    /// Shards currently on the ring, ascending.
    pub fn shards(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().copied()
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
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
        let mut ring = HashRing::new(0, 8);
        assert!(ring.is_empty());
        assert_eq!(ring.shard_for(7), None);
        ring.add_shard(2);
        assert_eq!(ring.shard_for(7), Some(2), "a single shard owns everything");
        ring.remove_shard(2);
        assert_eq!(ring.shard_for(7), None);
    }

    #[test]
    fn add_and_remove_round_trip_exactly() {
        let reference = HashRing::new(5, 16);
        let mut ring = HashRing::new(5, 16);
        ring.remove_shard(3);
        ring.add_shard(3);
        assert_eq!(ring.points, reference.points, "re-adding rebuilds the identical ring");
        ring.add_shard(3);
        assert_eq!(ring.points.len(), 5 * 16, "double add is a no-op");
    }
}
