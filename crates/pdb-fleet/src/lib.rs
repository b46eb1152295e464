//! # pdb-fleet — multi-process scale-out for the cleaning service
//!
//! The paper's cleaning sessions are embarrassingly partitionable by
//! session id, and `pdb-server` already locks each one on its own.  This
//! crate adds the missing *fleet* layer: many shard **processes**, one
//! thin router, and nothing shared between shards but the wire protocol.
//!
//! * [`ring`] — a consistent-hash ring with virtual nodes over the
//!   SplitMix64 mixer, built once over the fleet's fixed shards, that
//!   maps each session id to its owning shard;
//! * [`fleet`] — the shard-process supervisor: spawns N `pdb serve`
//!   processes (each with its own store directory and WAL, and the
//!   `pdb serve` flags the fleet was given) and respawns a dead shard
//!   over its own store (WAL replay rehydrates its sessions);
//! * [`router`] — the router: accepts the *existing* wire protocol,
//!   pins fleet-wide session ids into `create_session`,
//!   forwards each request line to the ring-owning shard and relays the
//!   shard's reply line byte for byte (after `serde_json::validate`
//!   checks it is one JSON value),
//!   merges `stats` and `metrics` across shards, and fails over
//!   (respawn + bounded retry) when a shard dies mid-traffic — never
//!   panicking on a malformed reply.  It accepts and serves its client
//!   connections through `pdb-server`'s own accept and connection loops.
//!
//! `pdb fleet serve --shards N` wires all three together, and passes
//! every flag but `--addr`, `--shards` and `--store-dir` to each shard's
//! `pdb serve` as given; the
//! `fleet_kill_and_recover` test SIGKILLs a shard of a live fleet under
//! concurrent traffic and asserts zero acknowledged probes are lost.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fleet;
pub mod ring;
pub mod router;

pub use fleet::{Fleet, FleetConfig, ShardStatus, SHARD_READY_PREFIX};
pub use ring::{HashRing, DEFAULT_REPLICAS};
pub use router::Router;
