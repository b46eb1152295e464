//! Observability overhead: the served request path with metrics
//! recording enabled vs disabled, end-to-end over a real loopback TCP
//! connection — the workload `server_throughput` uses, at the same
//! scale, so the two series differ only in whether every dispatch bumps
//! the pdb-obs counters and histogram span timers.
//!
//! CI's `obs-smoke` job runs this target in quick mode, commits the
//! medians as `BENCH_obs.json`, and **fails if the enabled median
//! regresses more than 5% over the disabled one** — the "near-zero cost
//! when idle, cheap when hot" claim is asserted, not assumed.
//!
//! The disabled series runs first: `pdb_obs::set_enabled` is a global
//! process-wide switch, and flipping it back on before the enabled
//! series leaves the process in the default state when the harness
//! exits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_server::{Client, DatasetSpec, Server, ServerConfig};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Duration;

/// Smaller than `server_throughput`'s 10⁴ on purpose: a ~10× cheaper
/// round trip means ~10× more iterations per Criterion sample, which
/// averages out scheduler jitter — the 5% CI gate needs sample medians
/// stable to a couple percent, and the per-request instrumentation cost
/// under test is constant per request, so a cheaper request makes the
/// gate *more* sensitive, not less.
const TUPLES: usize = 1_000;

/// Same three-tenant PT-k mix as `server_throughput` (k_max = 50).
const KS: [usize; 3] = [5, 15, 50];

/// One `apply_mutation` round trip per iteration, with the
/// same self-inverting reweight mutation as `server_throughput`, so the
/// session state is stationary over the run.
fn bench_obs_overhead(c: &mut Criterion) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let server_thread = std::thread::spawn(move || server.run());

    let spec = DatasetSpec::Synthetic { tuples: TUPLES };
    let db = pdb_gen::spec::build_dataset(&spec).expect("mirror dataset");
    let original: Vec<f64> = db.x_tuple(0).members.iter().map(|&pos| db.tuple(pos).prob).collect();
    let mut swapped = original.clone();
    swapped.swap(0, original.len() - 1);

    let mut client = Client::connect(addr).expect("connect");
    let mut group = c.benchmark_group("obs/server");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    for (enabled, label) in [(false, "disabled"), (true, "enabled")] {
        // The server runs in this process, so the switch reaches its
        // dispatch path directly.
        pdb_obs::set_enabled(enabled);
        let session = client.create_session(spec.clone(), 1, 0.8).expect("create_session").session;
        for &k in &KS {
            client
                .register_query(session, TopKQuery::PTk { k, threshold: 0.1 }, 1.0)
                .expect("register_query");
        }
        let flip = Cell::new(false);
        group.bench_with_input(BenchmarkId::new(label, TUPLES), &TUPLES, |b, _| {
            b.iter(|| {
                let probs = if flip.replace(!flip.get()) { &original } else { &swapped };
                let applied = client
                    .apply_mutation(session, 0, XTupleMutation::Reweight { probs: probs.clone() })
                    .expect("apply_mutation");
                black_box(applied.update.aggregate)
            })
        });
        client.drop_session(session).expect("drop_session");
    }
    group.finish();
    pdb_obs::set_enabled(true);

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread").expect("clean shutdown");
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
