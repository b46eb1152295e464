//! Contended durable appends: the fleet's journal cost, measured at the
//! store layer where it lives.  Four writer threads — standing in for a
//! shard's worker threads acknowledging concurrent sessions — each append
//! 16 `apply_mutation` records per iteration, the record `pdb serve`
//! journals for every mutation it applies (`wal_append/group_commit`):
//! group commit batches the appends and pays one fsync per window — the
//! writer that finds no window open leads it — while every writer blocks
//! until the sync covering its record completes.
//!
//! The `fleet-smoke` CI job runs this target in quick mode and tracks the
//! median as `BENCH_fleet.json`.  The WAL lives on a real filesystem
//! (beware: on a tmpfs `/tmp` fsync is nearly free).

use criterion::{criterion_group, criterion_main, Criterion};
use pdb_engine::delta::XTupleMutation;
use pdb_store::{Store, WalRecord};
use std::hint::black_box;
use std::time::Duration;

const WRITERS: usize = 4;
const APPENDS_PER_WRITER: usize = 16;

/// One iteration of the contended-append workload: `WRITERS` threads
/// each journal `APPENDS_PER_WRITER` resolved mutations.
fn append_burst(store: &Store) {
    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            scope.spawn(move || {
                for i in 0..APPENDS_PER_WRITER {
                    let record = WalRecord::apply_mutation(
                        writer as u64 + 1,
                        i,
                        XTupleMutation::Reweight { probs: vec![0.25, 0.5] },
                    );
                    store.append(black_box(&record)).expect("journal append");
                }
            });
        }
    });
}

fn bench_fleet_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    let dir = std::env::temp_dir().join(format!("pdb-bench-fleet-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // The default policy, whose max_wait 0 fsyncs as soon as the device
    // is free: batches form from the records that accrue while the
    // previous fsync runs, without taxing every commit with a linger.
    let (store, _recovery) = Store::open(&dir, &pdb_gen::build_dataset).expect("open store");
    group.bench_function("wal_append/group_commit", |b| b.iter(|| append_burst(&store)));
    drop(store);

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_fleet_throughput);
criterion_main!(benches);
