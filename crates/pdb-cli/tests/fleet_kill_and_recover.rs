//! Fleet kill-and-recover: a real `pdb fleet serve` process tree — one
//! router over three store-backed shard processes — serves six sessions
//! under concurrent client traffic while one shard is SIGKILLed
//! mid-stream.  The router must fail over (respawn the shard into its
//! store directory, WAL replay rehydrates its sessions) and **zero
//! acknowledged mutations may be lost**: after the traffic drains, every
//! session's answers and qualities must match an uninterrupted
//! in-process mirror at 1e-12.
//!
//! The mid-kill traffic is `Reweight` with absolute probabilities — the
//! idempotent mutation — because the router's failover retry is
//! at-least-once: a request the dying shard journalled but never
//! acknowledged may be applied twice (once by replay, once by the
//! retry), which for an absolute reweight is state-identical.
//!
//! A second test restarts a store-backed fleet and checks that it hands
//! out no session id twice, a dropped session's included.

use pdb_quality::{BatchQuality, TopKQuery, WeightedQuery, XTupleMutation};
use pdb_server::{Client, DatasetSpec};
use std::io::BufRead;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TOL: f64 = 1e-12;
const SHARDS: usize = 3;
/// Request slots per shard: one, for the several connections each shard
/// holds (every router connection, six traffic threads and the main
/// client, opens its own connection per shard it uses).  An idle
/// connection holds no slot.
const THREADS_PER_SHARD: usize = 1;
const SESSIONS: usize = 6;
const ROUNDS: usize = 150;

/// A `pdb fleet serve` process tree: the router child, which leads its
/// own process group, plus the shard pids it announced.  Killed on drop.
struct FleetProcess {
    child: Child,
    router_addr: String,
    shard_pids: Vec<u32>,
}

impl FleetProcess {
    fn spawn(store_dir: &str) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pdb"))
            .args([
                "fleet",
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                &SHARDS.to_string(),
                "--threads",
                &THREADS_PER_SHARD.to_string(),
                "--store-dir",
                store_dir,
                "--flush",
                "group-commit",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            // Every shard, a respawned one included, inherits the group.
            .process_group(0)
            .spawn()
            .expect("spawn pdb fleet serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = std::io::BufReader::new(stdout);
        let mut shard_pids = vec![0u32; SHARDS];
        let mut router_addr = None;
        let mut line = String::new();
        while router_addr.is_none() {
            line.clear();
            if reader.read_line(&mut line).expect("read fleet stdout") == 0 {
                panic!("fleet exited before announcing readiness");
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            // "pdb-fleet shard <i> pid <pid> listening on <addr>"
            if let ["pdb-fleet", "shard", index, "pid", pid, "listening", "on", _] = words[..] {
                let index: usize = index.parse().expect("shard index");
                shard_pids[index] = pid.parse().expect("shard pid");
            }
            // "pdb-fleet router listening on <addr> (<n> shards)"
            if let ["pdb-fleet", "router", "listening", "on", addr, ..] = words[..] {
                router_addr = Some(addr.to_string());
            }
        }
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        assert!(shard_pids.iter().all(|&p| p != 0), "every shard announced its pid");
        Self { child, router_addr: router_addr.expect("router address parsed"), shard_pids }
    }

    /// SIGKILL one announced shard pid — no drain, mid-traffic.
    fn sigkill_shard(&self, index: usize) {
        let status = Command::new("kill")
            .args(["-9", &self.shard_pids[index].to_string()])
            .status()
            .expect("run kill -9");
        assert!(status.success(), "kill -9 shard {index}");
    }
}

impl Drop for FleetProcess {
    fn drop(&mut self) {
        // A router that exited cleanly reaped its shards, and its group
        // id may be reused.  Otherwise SIGKILL the whole group: the
        // shard pids announced at start-up miss a respawned shard.
        if !matches!(self.child.try_wait(), Ok(Some(status)) if status.success()) {
            let group = format!("-{}", self.child.id());
            let _ = Command::new("kill").args(["-9", "--", &group]).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Removes a run's store directory when dropped, so a failing run leaves
/// nothing behind.  Declared before the server processes, it drops after
/// every one of them is killed, when nothing writes into the directory.
struct StoreDirGuard(std::path::PathBuf);

impl Drop for StoreDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh store directory for one test run, removed when the guard
/// drops.
fn store_dir(run: &str) -> (StoreDirGuard, String) {
    let dir = std::env::temp_dir()
        .join("pdb-cli-fleet-kill-and-recover")
        .join(format!("{run}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let arg = dir.display().to_string();
    (StoreDirGuard(dir), arg)
}

/// Send `shutdown` through the router and wait for it to exit cleanly.
fn shut_down(mut fleet: FleetProcess, client: &mut Client) {
    // The reply comes first; the router then drains its connections and
    // stops every shard, a respawned one included, before it exits.
    client.shutdown().expect("graceful fleet shutdown");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = fleet.child.try_wait().expect("poll the router") {
            break status;
        }
        assert!(Instant::now() < deadline, "the router did not exit after shutdown");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "the router exited with {status}");
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= TOL, "{what}: served {a} vs mirror {b}");
}

/// The deterministic reweight program of one session's traffic thread:
/// `(x_tuple, mutation)` in program order.  Absolute probabilities, so
/// replaying any prefix twice is state-identical.
fn reweight_program(session: usize, members: &[usize]) -> Vec<(usize, XTupleMutation)> {
    let mut out = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let target = 3 + (round % 3); // x-tuples 3..5: disjoint from the collapsed ones
        let m = members[target];
        let probs: Vec<f64> =
            (0..m).map(|j| (0.2 + 0.05 * ((session + round + j) % 5) as f64) / m as f64).collect();
        out.push((target, XTupleMutation::Reweight { probs }));
    }
    out
}

/// Apply one mutation through the router, retrying through failover
/// windows: a `Server`-side error or a broken connection both mean "try
/// again" — the mutation is idempotent and the router respawns the dead
/// shard on the next forward.
fn apply_with_retry(
    client: &mut Client,
    addr: &str,
    session: u64,
    x_tuple: usize,
    mutation: &XTupleMutation,
) {
    for _ in 0..200 {
        match client.apply_mutation(session, x_tuple, mutation.clone()) {
            Ok(_) => return,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                if let Ok(fresh) = Client::connect(addr) {
                    *client = fresh;
                }
            }
        }
    }
    panic!("session {session}: reweight never acknowledged across 200 attempts");
}

#[test]
fn fleet_survives_a_sigkilled_shard_with_zero_lost_mutations() {
    let (_store_dir_guard, store_dir_arg) = store_dir("run");

    let fleet = FleetProcess::spawn(&store_dir_arg);
    let mut client = Client::connect(&fleet.router_addr).expect("connect to router");

    // ---- phase 1: six sessions spread over the ring ------------------
    let queries = [
        WeightedQuery::new(TopKQuery::PTk { k: 4, threshold: 0.1 }),
        WeightedQuery::weighted(TopKQuery::UKRanks { k: 6 }, 0.5),
    ];
    let mut mirrors = Vec::new();
    let mut sessions = Vec::new();
    for i in 0..SESSIONS {
        let spec = DatasetSpec::Synthetic { tuples: 120 + 40 * i };
        let created = client.create_session(spec.clone(), 1, 0.8).expect("create_session");
        sessions.push(created.session);
        let mut mirror =
            BatchQuality::from_owned(pdb_gen::build_dataset(&spec).unwrap(), queries.to_vec())
                .expect("mirror batch");
        for wq in &queries {
            client.register_query(created.session, wq.query, wq.weight).expect("register_query");
        }
        // Two collapse probes per session before the kill, asserted live.
        for l in [0usize, 1] {
            let keep_pos = mirror.database().x_tuple(l).members[0];
            let mutation = XTupleMutation::CollapseToAlternative { keep_pos };
            let served = client
                .apply_mutation(created.session, l, mutation.clone())
                .expect("pre-kill probe");
            let direct = mirror.apply_collapse_in_place(l, &mutation).expect("mirror probe");
            assert_close(served.update.aggregate, direct.aggregate, "pre-kill aggregate");
        }
        mirrors.push(mirror);
    }

    // The ring the router uses is deterministic, so the test knows which
    // shard owns which session without asking.
    let ring = pdb_fleet::HashRing::with_default_replicas(SHARDS);
    let victim = ring.shard_for(sessions[0]).expect("non-empty ring");
    assert!(
        sessions.iter().any(|&s| ring.shard_for(s) != Some(victim)),
        "at least one session must live outside the victim shard"
    );

    // ---- phase 2: concurrent traffic, SIGKILL mid-stream -------------
    let programs: Vec<Vec<(usize, XTupleMutation)>> = mirrors
        .iter()
        .enumerate()
        .map(|(i, mirror)| {
            let members: Vec<usize> = (0..mirror.database().num_x_tuples())
                .map(|x| mirror.database().x_tuple(x).members.len())
                .collect();
            reweight_program(i, &members)
        })
        .collect();

    let workers: Vec<_> = sessions
        .iter()
        .zip(&programs)
        .map(|(&session, program)| {
            let addr = fleet.router_addr.clone();
            let program = program.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("traffic client connects");
                for (x_tuple, mutation) in &program {
                    apply_with_retry(&mut client, &addr, session, *x_tuple, mutation);
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    fleet.sigkill_shard(victim);

    for worker in workers {
        worker.join().expect("traffic thread");
    }

    // Every acknowledged reweight goes into the mirrors in program order
    // (threads are per-session, so per-session order is program order).
    for (mirror, program) in mirrors.iter_mut().zip(&programs) {
        for (x_tuple, mutation) in program {
            mirror.apply_collapse_in_place(*x_tuple, mutation).expect("mirror reweight");
        }
    }

    // ---- phase 3: zero lost mutations across the whole fleet ---------
    let mut client = Client::connect(&fleet.router_addr).expect("reconnect to router");
    let stats = client.stats().expect("merged stats");
    assert!(stats.durable, "every shard reports a durable store");
    assert_eq!(stats.shards, SHARDS);
    assert_eq!(stats.threads, SHARDS * THREADS_PER_SHARD, "--threads reaches every shard");
    assert_eq!(stats.sessions_live as usize, SESSIONS, "no session was lost to the kill");

    for (i, (&session, mirror)) in sessions.iter().zip(&mirrors).enumerate() {
        let answers = client.evaluate(session).expect("evaluate after failover");
        assert_eq!(answers.answers, mirror.answers().unwrap(), "session {i} answers");
        let report = client.quality(session).expect("quality after failover");
        assert_close(
            report.aggregate,
            mirror.aggregate_quality(),
            &format!("session {i} aggregate"),
        );
        let mirror_qualities = mirror.quality_vector();
        for (q, quality) in report.qualities.iter().enumerate() {
            assert_close(*quality, mirror_qualities[q], &format!("session {i} quality {q}"));
        }
    }

    shut_down(fleet, &mut client);
}

#[test]
fn a_restarted_fleet_hands_out_no_session_id_twice() {
    let (guard, store_dir_arg) = store_dir("restart");
    let fleet = FleetProcess::spawn(&store_dir_arg);
    let mut client = Client::connect(&fleet.router_addr).expect("connect to router");
    for expected in [1, 2] {
        let created = client.create_session(DatasetSpec::Udb1, 1, 0.8).expect("create_session");
        assert_eq!(created.session, expected);
    }
    client.drop_session(2).expect("drop_session");
    assert_eq!(client.stats().expect("merged stats").next_session_id, Some(3));
    shut_down(fleet, &mut client);

    // One past the largest id any shard's log names, the dropped
    // session's included.
    let past_named = (0..SHARDS)
        .map(|shard| {
            let dir = guard.0.join(format!("shard-{shard}"));
            let recovery = pdb_store::Store::peek(&dir, &pdb_gen::build_dataset).expect("peek");
            recovery.next_session_id.expect("an id is left")
        })
        .max()
        .expect("a fleet has shards");
    assert_eq!(past_named, 3, "the log of the shard that owned session 2 still names it");

    let fleet = FleetProcess::spawn(&store_dir_arg);
    let mut client = Client::connect(&fleet.router_addr).expect("connect to the restarted router");
    let created = client.create_session(DatasetSpec::Udb1, 1, 0.8).expect("create_session");
    assert!(created.session >= past_named, "session {} was handed out before", created.session);
    let stats = client.stats().expect("merged stats");
    assert_eq!(stats.next_session_id, Some(created.session + 1), "the router's next id");
    assert_eq!(stats.sessions_live, 2, "sessions 1 and {} live", created.session);
    shut_down(fleet, &mut client);
}
