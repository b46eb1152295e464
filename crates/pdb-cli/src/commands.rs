//! Execution of parsed CLI commands.

use crate::args::{Command, DatasetChoice, FleetOp, MutateOp, USAGE};
use pdb_clean::CleaningPlan;
use pdb_clean::{
    best_single_probe, expected_improvement, plan_greedy, run_adaptive_session_with,
    CleaningAlgorithm, CleaningContext, CleaningSetup, ReplanMode,
};
use pdb_core::{DbError, RankedDatabase, Result, ScoreRanking};
use pdb_engine::psr::rank_probabilities;
use pdb_engine::queries::pt_k;
use pdb_experiments::scale::{min_time_ms, time_ms};
use pdb_experiments::{datasets, report::ExperimentResult, Scale, ALL_EXPERIMENTS};
use pdb_quality::{
    quality_pw, quality_pwr, quality_tp, quality_tp_with, BatchQuality, QueryAnswer, TopKQuery,
    WeightedQuery,
};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::fmt::Write as _;

/// What a command prints, or why it failed.  Engine failures are
/// [`DbError`]s; the commands that talk to a server fail with their
/// connection's or the protocol's own text (`connecting to … failed: …`,
/// `protocol error: …`), and those that bind, serve or write files with
/// the I/O failure's (`binding … failed: …`), not as invalid parameters.
type Output = Result<String, Box<dyn std::error::Error>>;

/// Run a parsed command and return the text to print.
pub fn run(command: Command) -> Output {
    Ok(match command {
        Command::Help => USAGE.to_string(),
        Command::List => list(),
        Command::Experiment { id, scale, csv } => {
            let result = pdb_experiments::run(&id, scale)?;
            if csv {
                result.to_csv()
            } else {
                result.to_table()
            }
        }
        Command::All { scale, csv_dir } => run_all(scale, csv_dir.as_deref())?,
        Command::Quality { dataset, k, algo, json } => quality(dataset, k, &algo, json)?,
        Command::Clean { dataset, k, budget, algo, json } => {
            clean(dataset, k, budget, &algo, json)?
        }
        Command::Serve(config) => serve(&config)?,
        Command::Fleet { op } => fleet(op)?,
        Command::Call { addr, request, timing } => call(&addr, &request, timing)?,
        Command::Metrics { addr, text } => metrics(&addr, text)?,
        Command::Mutate { addr, session, op } => mutate(&addr, session, op)?,
        Command::Export { dataset, tuples, out } => export(dataset, tuples, &out)?,
        Command::Import { file, out } => import(&file, out.as_deref())?,
        Command::Recover { store_dir } => recover(&store_dir)?,
        Command::Adaptive { dataset, k, budget, trials, mode } => {
            adaptive(dataset, k, budget, trials, &mode)?
        }
        Command::Batch { dataset, ks, weights, threshold, budget } => {
            batch(dataset, &ks, weights.as_deref(), threshold, budget)?
        }
    })
}

fn list() -> String {
    let mut out = String::from("available experiments (see README.md for the figure mapping):\n");
    for id in ALL_EXPERIMENTS {
        let _ = writeln!(out, "  {id}");
    }
    out
}

fn run_all(scale: Scale, csv_dir: Option<&str>) -> Output {
    let mut out = String::new();
    for id in ALL_EXPERIMENTS {
        let result = pdb_experiments::run(id, scale)?;
        let _ = writeln!(out, "{}", result.to_table());
        if let Some(dir) = csv_dir {
            write_csv(dir, &result)?;
        }
    }
    if let Some(dir) = csv_dir {
        let _ = writeln!(out, "CSV files written to {dir}");
    }
    Ok(out)
}

fn write_csv(dir: &str, result: &ExperimentResult) -> Result<(), String> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {} failed: {e}", dir.display()))?;
    let path = dir.join(format!("{}.csv", result.id));
    std::fs::write(&path, result.to_csv())
        .map_err(|e| format!("writing {} failed: {e}", path.display()))
}

fn load_dataset(choice: DatasetChoice) -> Result<RankedDatabase> {
    match choice {
        DatasetChoice::Synthetic => datasets::default_synthetic(Scale::Quick),
        DatasetChoice::Mov => datasets::mov_dataset(Scale::Quick),
        DatasetChoice::Udb1 => Ok(pdb_core::examples::udb1().rank_by(&ScoreRanking)),
    }
}

/// The cleaning costs and sc-probabilities `clean`, `adaptive` and `batch`
/// plan with: every probe of udb1 costs 1 and succeeds with 0.8, the
/// generated datasets take the paper's defaults.
fn cleaning_setup(choice: DatasetChoice, db: &RankedDatabase) -> Result<CleaningSetup> {
    match choice {
        DatasetChoice::Udb1 => CleaningSetup::uniform(db.num_x_tuples(), 1, 0.8),
        _ => datasets::default_cleaning_setup(db.num_x_tuples()),
    }
}

fn dataset_name(choice: DatasetChoice) -> &'static str {
    match choice {
        DatasetChoice::Synthetic => "synthetic (quick scale)",
        DatasetChoice::Mov => "MOV stand-in (quick scale)",
        DatasetChoice::Udb1 => "udb1 (Table I)",
    }
}

/// Machine-readable `pdb quality --json` report (one JSON object on
/// stdout, reusing the workspace's serde impls for the answer payload).
#[derive(Serialize)]
struct QualityJson {
    dataset: String,
    tuples: usize,
    x_tuples: usize,
    k: usize,
    threshold: f64,
    algorithm: String,
    quality: f64,
    pt_k: QueryAnswer,
}

fn quality(choice: DatasetChoice, k: usize, algo: &str, json: bool) -> Result<String> {
    let db = load_dataset(choice)?;
    let quality = match algo {
        "tp" => quality_tp(&db, k)?,
        "pwr" => quality_pwr(&db, k)?,
        "pw" => quality_pw(&db, k)?,
        other => {
            return Err(DbError::invalid_parameter(format!(
                "unknown quality algorithm {other:?} (expected tp, pwr or pw)"
            )))
        }
    };
    let answer = pt_k(&db, &rank_probabilities(&db, k)?, datasets::DEFAULT_THRESHOLD)?;
    if json {
        let report = QualityJson {
            dataset: dataset_name(choice).to_string(),
            tuples: db.len(),
            x_tuples: db.num_x_tuples(),
            k,
            threshold: datasets::DEFAULT_THRESHOLD,
            algorithm: algo.to_string(),
            quality,
            pt_k: QueryAnswer::TupleSet(answer),
        };
        return to_json_line(&report);
    }
    let mut out = String::new();
    let _ = writeln!(out, "dataset   : {}", dataset_name(choice));
    let _ = writeln!(out, "tuples    : {} ({} x-tuples)", db.len(), db.num_x_tuples());
    let _ = writeln!(out, "query     : top-{k} (PT-k threshold {})", datasets::DEFAULT_THRESHOLD);
    let _ = writeln!(out, "algorithm : {}", algo.to_ascii_uppercase());
    let _ = writeln!(out, "quality   : {quality:.6}");
    let _ = writeln!(out, "PT-k size : {} tuples", answer.len());
    Ok(out)
}

/// Serialize a report as one JSON line, mapping serde failures onto the
/// CLI's error type.
fn to_json_line<T: Serialize>(report: &T) -> Result<String> {
    serde_json::to_string(report)
        .map_err(|e| DbError::invalid_parameter(format!("serializing JSON output failed: {e}")))
}

/// Machine-readable `pdb clean --json` report.  `plan` reuses
/// [`CleaningPlan`]'s own serde impl, so scripted callers get the full
/// per-x-tuple attempt counts, not just the summary.
#[derive(Serialize)]
struct CleanJson {
    dataset: String,
    k: usize,
    budget: u64,
    algorithm: String,
    quality_before: f64,
    plan: CleaningPlan,
    x_tuples_cleaned: usize,
    total_attempts: u64,
    budget_spent: u64,
    expected_improvement: f64,
    expected_quality: f64,
}

fn clean(choice: DatasetChoice, k: usize, budget: u64, algo: &str, json: bool) -> Result<String> {
    let db = load_dataset(choice)?;
    let algorithm = match algo {
        "dp" => CleaningAlgorithm::Dp,
        "greedy" => CleaningAlgorithm::Greedy,
        "randp" => CleaningAlgorithm::RandP,
        "randu" => CleaningAlgorithm::RandU,
        other => {
            return Err(DbError::invalid_parameter(format!(
                "unknown cleaning algorithm {other:?} (expected dp, greedy, randp or randu)"
            )))
        }
    };
    let ctx = CleaningContext::prepare(&db, k)?;
    let setup = cleaning_setup(choice, &db)?;
    let mut rng = StdRng::seed_from_u64(budget);
    let plan = algorithm.plan(&ctx, &setup, budget, &mut rng)?;
    let improvement = expected_improvement(&ctx, &setup, &plan);
    if json {
        let report = CleanJson {
            dataset: dataset_name(choice).to_string(),
            k,
            budget,
            algorithm: algorithm.to_string(),
            quality_before: ctx.quality,
            x_tuples_cleaned: plan.selected().len(),
            total_attempts: plan.total_attempts(),
            budget_spent: plan.total_cost(&setup),
            expected_improvement: improvement,
            expected_quality: ctx.quality + improvement,
            plan,
        };
        return to_json_line(&report);
    }
    let mut out = String::new();
    let _ = writeln!(out, "dataset              : {}", dataset_name(choice));
    let _ = writeln!(out, "query                : top-{k}");
    let _ = writeln!(out, "quality before       : {:.6}", ctx.quality);
    let _ = writeln!(out, "budget               : {budget}");
    let _ = writeln!(out, "algorithm            : {algorithm}");
    let _ = writeln!(out, "x-tuples cleaned     : {}", plan.selected().len());
    let _ = writeln!(out, "total attempts       : {}", plan.total_attempts());
    let _ = writeln!(out, "budget spent         : {}", plan.total_cost(&setup));
    let _ = writeln!(out, "expected improvement : {improvement:.6}");
    let _ = writeln!(out, "expected quality     : {:.6}", ctx.quality + improvement);
    Ok(out)
}

/// `pdb serve`: bind the cleaning service and block until a `shutdown`
/// request drains it.
fn serve(config: &pdb_server::ServerConfig) -> Output {
    let server = pdb_server::Server::bind(config)
        .map_err(|e| format!("binding {} failed: {e}", config.addr))?;
    let bound = server.local_addr().map_err(|e| format!("resolving bound address failed: {e}"))?;
    if let Some(dir) = &config.store_dir {
        println!(
            "pdb-server recovered {} session(s) from {dir} (compact every {} records)",
            server.sessions_recovered(),
            config.compact_every
        );
    }
    // Announce readiness before blocking: scripts (and a fleet spawning
    // this process as a shard) wait for this line.
    println!("{}{bound} ({} threads)", pdb_fleet::SHARD_READY_PREFIX, config.threads);
    server.run().map_err(|e| format!("server failed: {e}"))?;
    Ok(format!("pdb-server on {bound} drained in-flight requests and shut down"))
}

/// `pdb fleet ...`: multi-process scale-out (see `pdb-fleet`).
fn fleet(op: FleetOp) -> Output {
    match op {
        FleetOp::Serve { addr, shards, store_dir, shard_flags } => {
            fleet_serve(&addr, shards, store_dir, shard_flags)
        }
        FleetOp::Status { addr } => fleet_status(&addr),
    }
}

/// `pdb fleet serve`: spawn the shard processes, bind the router over
/// them, and block until a `shutdown` request drains everything.
fn fleet_serve(
    addr: &str,
    shards: usize,
    store_dir: Option<String>,
    shard_flags: Vec<String>,
) -> Output {
    let program =
        std::env::current_exe().map_err(|e| format!("resolving the pdb binary failed: {e}"))?;
    let config = pdb_fleet::FleetConfig {
        program,
        shards,
        store_dir: store_dir.map(std::path::PathBuf::from),
        shard_flags,
    };
    let fleet =
        pdb_fleet::Fleet::spawn(config).map_err(|e| format!("spawning the fleet failed: {e}"))?;
    for status in fleet.statuses() {
        // One line per shard before the router line: scripts (and the
        // kill-and-recover test) parse these for pids and addresses.
        println!(
            "pdb-fleet shard {} pid {} listening on {}",
            status.index, status.pid, status.addr
        );
    }
    let router = pdb_fleet::Router::bind(addr, fleet)
        .map_err(|e| format!("binding the router failed: {e}"))?;
    let bound = router.local_addr().map_err(|e| format!("resolving bound address failed: {e}"))?;
    // Announce readiness last, like `pdb serve`: once this line prints,
    // the whole fleet serves.
    println!("pdb-fleet router listening on {bound} ({shards} shards)");
    router.run().map_err(|e| format!("router failed: {e}"))?;
    Ok(format!("pdb-fleet router on {bound} drained in-flight requests and shut down"))
}

/// `pdb fleet status`: the router's merged `stats`, formatted.
fn fleet_status(addr: &str) -> Output {
    let mut client = pdb_server::Client::connect_with(addr, &pdb_server::RetryPolicy::default())
        .map_err(|e| format!("connecting to {addr} failed: {e}"))?;
    let stats = client.stats()?;
    let mut out = String::new();
    let _ = writeln!(out, "shards            : {}", stats.shards);
    let _ = writeln!(out, "threads (total)   : {}", stats.threads);
    let _ = writeln!(out, "durable           : {}", stats.durable);
    let _ = writeln!(out, "sessions live     : {}", stats.sessions_live);
    let _ = writeln!(out, "sessions created  : {}", stats.sessions_created);
    let _ = writeln!(out, "probes applied    : {}", stats.probes_applied);
    let _ = writeln!(out, "requests served   : {}", stats.requests_served);
    let _ = writeln!(out, "connect retries   : {}", stats.connect_retries);
    if let Some(err) = &stats.flush_error {
        let _ = writeln!(out, "flush error       : {err}");
    }
    for session in &stats.sessions {
        let _ = writeln!(
            out,
            "session {:>6} : {} queries, {} probes, {} ms old",
            session.session, session.queries, session.probes, session.age_ms
        );
    }
    // The router's merged `metrics` reply carries every shard's request
    // histograms (already merged, associatively, shard order immaterial);
    // surface per-verb latency quantiles for the verbs that ran.
    let snapshot = client.metrics()?;
    let mut latency_header = false;
    for sample in &snapshot.series {
        if sample.name != pdb_obs::names::SERVER_REQUEST_LATENCY_NS || sample.value == 0 {
            continue;
        }
        if !latency_header {
            let _ = writeln!(out, "request latency (merged across shards, ns):");
            latency_header = true;
        }
        let _ = writeln!(
            out,
            "  {:<16} : count {:>8}  p50 {:>12}  p90 {:>12}  p99 {:>12}",
            sample.label_value,
            sample.value,
            sample.quantile(0.50),
            sample.quantile(0.90),
            sample.quantile(0.99),
        );
    }
    Ok(out)
}

/// `pdb metrics`: fetch every registered observability series from a
/// running server — or a fleet router, whose reply merges every shard's
/// snapshot — and print it as the raw JSON response line, or (with
/// `--text`) as Prometheus-style text exposition.
fn metrics(addr: &str, text: bool) -> Output {
    let mut client = pdb_server::Client::connect_with(addr, &pdb_server::RetryPolicy::default())
        .map_err(|e| format!("connecting to {addr} failed: {e}"))?;
    let reply = client.metrics()?;
    if text {
        Ok(pdb_obs::text::render(&reply))
    } else {
        pdb_server::protocol::encode(&pdb_server::Response::Metrics(reply))
            .map_err(|e| format!("encoding response failed: {e}").into())
    }
}

/// `pdb call`: send one JSON request line to a running server and print
/// the JSON response line.  With `-` as the request, newline-delimited
/// requests are streamed from stdin over one persistent connection — one
/// response line per request line, printed as they arrive — so scripted
/// clients pay the connect cost once instead of per request.
fn call(addr: &str, request: &str, timing: bool) -> Output {
    let mut client = pdb_server::Client::connect(addr)
        .map_err(|e| format!("connecting to {addr} failed: {e}"))?;
    if request == "-" {
        return call_lines(&mut client, std::io::stdin().lock(), timing);
    }
    let request = pdb_server::protocol::decode_request(request)
        .map_err(|e| DbError::invalid_parameter(format!("invalid request JSON: {e}")))?;
    let started = std::time::Instant::now();
    let response = client.call(&request)?;
    if timing {
        print_timing(request.verb(), started.elapsed());
    }
    pdb_server::protocol::encode(&response)
        .map_err(|e| format!("encoding response failed: {e}").into())
}

/// `--timing` output: one stderr line per request, so the response JSON
/// on stdout stays machine-parseable.
fn print_timing(verb: &str, elapsed: std::time::Duration) {
    eprintln!("timing: {verb} {:.3} ms", elapsed.as_secs_f64() * 1e3);
}

/// The `pdb call -` line mode: stream requests from `input` over one
/// connection.  A malformed line yields a local `{"error": ...}` line
/// (matching the server's own error shape) and the stream continues.
fn call_lines(
    client: &mut pdb_server::Client,
    input: impl std::io::BufRead,
    timing: bool,
) -> Output {
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut served = 0u64;
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading stdin failed: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = match pdb_server::protocol::decode_request(line.trim()) {
            Ok(request) => {
                let started = std::time::Instant::now();
                let response = client.call(&request)?;
                if timing {
                    print_timing(request.verb(), started.elapsed());
                }
                response
            }
            Err(err) => pdb_server::Response::error(format!("invalid request JSON: {err}")),
        };
        let encoded = pdb_server::protocol::encode(&response)
            .map_err(|e| format!("encoding response failed: {e}"))?;
        let mut out = stdout.lock();
        if let Err(e) = writeln!(out, "{encoded}").and_then(|()| out.flush()) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                break; // reader hung up: stop streaming quietly
            }
            return Err(format!("writing output failed: {e}").into());
        }
        served += 1;
    }
    Ok(format!("{served} request(s) served over one connection"))
}

/// `pdb mutate`: send one streaming insert/remove (the `apply_mutation`
/// verb) to a running server through the typed client and print the
/// `probe_applied` response line — the same JSON a scripted `pdb call`
/// would see, so both entry points compose.
fn mutate(addr: &str, session: u64, op: MutateOp) -> Output {
    let mut client = pdb_server::Client::connect(addr)
        .map_err(|e| format!("connecting to {addr} failed: {e}"))?;
    let applied = match op {
        MutateOp::Insert { key, alternatives } => client.insert_x_tuple(session, key, alternatives),
        MutateOp::Remove { x_tuple } => client.remove_x_tuple(session, x_tuple),
    }?;
    pdb_server::protocol::encode(&pdb_server::Response::ProbeApplied(applied))
        .map_err(|e| format!("encoding response failed: {e}").into())
}

/// The spec `pdb export` materializes for each dataset choice.
fn export_spec(choice: DatasetChoice, tuples: usize) -> pdb_gen::DatasetSpec {
    match choice {
        // MOV averages ~2 alternatives per x-tuple, so halve the count.
        DatasetChoice::Synthetic => pdb_gen::DatasetSpec::Synthetic { tuples },
        DatasetChoice::Mov => pdb_gen::DatasetSpec::Mov { x_tuples: (tuples / 2).max(1) },
        DatasetChoice::Udb1 => pdb_gen::DatasetSpec::Udb1,
    }
}

/// `pdb export`: generate a dataset and write it as a binary snapshot.
fn export(choice: DatasetChoice, tuples: usize, out: &str) -> Result<String> {
    let db = pdb_gen::build_dataset(&export_spec(choice, tuples))?;
    let path = std::path::Path::new(out);
    pdb_gen::io::save_ranked(&db, path)?;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "exported {} ({} tuples, {} x-tuples) to {out} ({bytes} bytes)",
        dataset_name(choice),
        db.len(),
        db.num_x_tuples(),
    ))
}

/// `pdb import`: load a snapshot (or JSON) database, print its shape and
/// optionally re-export it (format picked by the output extension).
fn import(file: &str, out: Option<&str>) -> Result<String> {
    let db = pdb_gen::io::load_ranked(std::path::Path::new(file))?;
    let mut text = String::new();
    let _ = writeln!(text, "file      : {file}");
    let _ = writeln!(text, "tuples    : {} ({} x-tuples)", db.len(), db.num_x_tuples());
    let _ =
        writeln!(text, "avg alts  : {:.2} per x-tuple", db.len() as f64 / db.num_x_tuples() as f64);
    let _ = writeln!(text, "worlds    : {}", db.world_count());
    if let Some(out) = out {
        pdb_gen::io::save_ranked(&db, std::path::Path::new(out))?;
        let _ = writeln!(text, "written   : {out}");
    }
    Ok(text)
}

/// `pdb recover`: dry-run a store directory's recovery and report what a
/// server started with `--store-dir` would rehydrate.  Strictly
/// read-only: nothing is created, and a torn log tail is reported, not
/// truncated.  Each session is rebuilt by [`pdb_server::Session::replay`],
/// the server's own recovery.
fn recover(store_dir: &str) -> Result<String> {
    let recovery = pdb_store::Store::peek(std::path::Path::new(store_dir), &pdb_gen::build_dataset)
        .map_err(DbError::from)?;
    let mut text = String::new();
    let _ = writeln!(text, "store      : {store_dir}");
    let _ = writeln!(
        text,
        "log        : {} record(s), {} torn tail byte(s) (a restart truncates them)",
        recovery.records, recovery.truncated_bytes
    );
    let _ = writeln!(text, "sessions   : {} recovered", recovery.sessions.len());
    for recovered in recovery.sessions {
        let id = recovered.base.session;
        let (session, replayed, stats) =
            pdb_server::Session::replay(recovered).map_err(DbError::from)?;
        let stat = session.stat(id);
        let state = match stat.queries {
            0 => "idle".to_string(),
            _ => format!("live, aggregate quality {:+.6}", session.quality()?.aggregate),
        };
        let _ = writeln!(
            text,
            "  session {:>3}: {} tuples, {} quer{}, {} probe(s) ({} replayed, {} delta rows), {state}",
            id,
            session.database().len(),
            stat.queries,
            if stat.queries == 1 { "y" } else { "ies" },
            stat.probes,
            replayed,
            stats.rows_total(),
        );
    }
    let next = recovery
        .next_session_id
        .map_or("none (the log names the largest id)".to_string(), |id| id.to_string());
    let _ = writeln!(text, "next id    : {next}");
    Ok(text)
}

fn adaptive(
    choice: DatasetChoice,
    k: usize,
    budget: u64,
    trials: u64,
    mode: &str,
) -> Result<String> {
    let db = load_dataset(choice)?;
    let modes: Vec<ReplanMode> = match mode {
        "incremental" | "inc" => vec![ReplanMode::Incremental],
        "rebuild" | "full" | "full-rebuild" => vec![ReplanMode::FullRebuild],
        "both" => vec![ReplanMode::Incremental, ReplanMode::FullRebuild],
        other => {
            return Err(DbError::invalid_parameter(format!(
                "unknown re-planning mode {other:?} (expected incremental, rebuild or both)"
            )))
        }
    };
    if trials == 0 {
        return Err(DbError::invalid_parameter("at least one trial is required"));
    }
    let setup = cleaning_setup(choice, &db)?;
    let mut out = String::new();
    let _ = writeln!(out, "dataset : {}", dataset_name(choice));
    let _ =
        writeln!(out, "query   : top-{k}; budget {budget}; {trials} simulated sessions per mode");
    for mode in modes {
        let mut improvement = 0.0;
        let mut probes = 0u64;
        let mut successes = 0u64;
        let mut rewritten = 0usize;
        let mut copied = 0usize;
        let (sessions, ms) = time_ms(|| -> Result<()> {
            for seed in 0..trials {
                let mut rng = StdRng::seed_from_u64(seed);
                let outcome = run_adaptive_session_with(&db, &setup, k, budget, mode, &mut rng)?;
                improvement += outcome.improvement();
                probes += outcome.probes;
                successes += outcome.successes;
                rewritten += outcome.delta_stats.rows_rebuilt;
                copied += outcome.delta_stats.rows_copied;
            }
            Ok(())
        });
        sessions?;
        let t = trials as f64;
        let _ = writeln!(
            out,
            "{mode:>12}: improvement {:+.4}, {:.1} probes ({:.1} successful), \
             {:.2} ms per session",
            improvement / t,
            probes as f64 / t,
            successes as f64 / t,
            ms / t,
        );
        if mode == ReplanMode::Incremental {
            let _ = writeln!(
                out,
                "              delta rows per session: {:.1} rewritten, {:.1} copied",
                rewritten as f64 / t,
                copied as f64 / t,
            );
        }
    }
    Ok(out)
}

fn batch(
    choice: DatasetChoice,
    ks: &[usize],
    weights: Option<&[f64]>,
    threshold: f64,
    budget: u64,
) -> Result<String> {
    let db = load_dataset(choice)?;
    // Weight-list length is validated at parse time; zipping (rather than
    // indexing) keeps this panic-free even if that ever regresses.
    let specs: Vec<WeightedQuery> = match weights {
        Some(w) => ks
            .iter()
            .zip(w)
            .map(|(&k, &weight)| WeightedQuery::weighted(TopKQuery::PTk { k, threshold }, weight))
            .collect(),
        None => ks.iter().map(|&k| WeightedQuery::new(TopKQuery::PTk { k, threshold })).collect(),
    };

    // Batched: one PSR run at k_max serves every query.  Each side is
    // timed as its fastest run (`min_time_ms`), as in `batch-q`.
    let ((batch_eval, qualities, sizes), batch_ms) = min_time_ms(|| {
        let batch = BatchQuality::new(&db, specs.clone())?;
        let qualities = batch.quality_vector();
        let sizes: Vec<usize> = batch.answers()?.iter().map(|a| a.len()).collect();
        Ok::<_, DbError>((batch, qualities, sizes))
    })?;

    // Independent baseline: one full evaluation per registered query.
    let ((), independent_ms) = min_time_ms(|| -> Result<()> {
        for spec in &specs {
            let rp = rank_probabilities(&db, spec.query.k())?;
            let _answer = pt_k(&db, &rp, threshold)?;
            let _quality = quality_tp_with(&db, &rp);
        }
        Ok(())
    })?;

    let mut out = String::new();
    let _ = writeln!(out, "dataset          : {}", dataset_name(choice));
    let _ = writeln!(out, "tuples           : {} ({} x-tuples)", db.len(), db.num_x_tuples());
    let _ = writeln!(
        out,
        "registered       : {} PT-k queries (threshold {threshold}), k_max = {}",
        specs.len(),
        batch_eval.evaluation().k_max()
    );
    for (i, ((spec, size), quality)) in specs.iter().zip(&sizes).zip(&qualities).enumerate() {
        let _ = writeln!(
            out,
            "  query {i:>2}       : k = {:>4}, weight {:.2}, answer {:>4} tuples, quality {:+.6}",
            spec.query.k(),
            spec.weight,
            size,
            quality,
        );
    }
    let _ = writeln!(out, "aggregate quality: {:+.6}", batch_eval.aggregate_quality());
    let plan = batch_eval.evaluation().plan();
    let _ = writeln!(
        out,
        "shared PSR       : {:.2} ms for the batch vs {:.2} ms independent ({:.1}x, \
         amortization bound {:.1}x)",
        batch_ms,
        independent_ms,
        independent_ms / batch_ms.max(1e-9),
        plan.amortization(batch_eval.evaluation().queries()),
    );

    // Aggregate cleaning: one plan maximizing Σ_q w_q · improvement.
    let setup = cleaning_setup(choice, &db)?;
    let ctx = CleaningContext::from_batch(&batch_eval);
    match best_single_probe(&ctx, &setup) {
        Some((l, gain)) => {
            let _ = writeln!(
                out,
                "best next probe  : x-tuple {l} (expected aggregate improvement {gain:+.6})"
            );
        }
        None => {
            let _ = writeln!(out, "best next probe  : none (database is effectively certain)");
        }
    }
    let greedy = plan_greedy(&ctx, &setup, budget)?;
    let improvement = expected_improvement(&ctx, &setup, &greedy);
    let _ = writeln!(
        out,
        "greedy (C = {budget:>4}): {} x-tuples, {} attempts, expected aggregate \
         improvement {improvement:+.6}",
        greedy.selected().len(),
        greedy.total_attempts(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_mentions_every_experiment() {
        let text = list();
        for id in ALL_EXPERIMENTS {
            assert!(text.contains(id), "{id} missing from list output");
        }
    }

    #[test]
    fn quality_command_on_udb1_matches_the_paper() {
        let out = quality(DatasetChoice::Udb1, 2, "tp", false).unwrap();
        assert!(out.contains("quality   : -2.55"), "{out}");
        let out = quality(DatasetChoice::Udb1, 2, "pw", false).unwrap();
        assert!(out.contains("quality   : -2.55"), "{out}");
        assert!(quality(DatasetChoice::Udb1, 2, "bogus", false).is_err());
    }

    #[test]
    fn quality_json_mode_emits_parsable_json() {
        let out = quality(DatasetChoice::Udb1, 2, "tp", true).unwrap();
        let value: serde::Value = serde_json::from_str(&out).unwrap();
        let map = value.as_map().expect("top-level object");
        let quality = match serde::Value::map_get(map, "quality") {
            Some(serde::Value::F64(q)) => *q,
            other => panic!("missing/invalid quality field: {other:?}"),
        };
        assert!((quality - (-2.55)).abs() < 0.005, "{out}");
        // The PT-k answer payload reuses the engine's QueryAnswer impl.
        assert!(out.contains("\"TupleSet\""), "{out}");
        assert!(out.contains("\"position\""), "{out}");
    }

    #[test]
    fn clean_command_reports_a_positive_improvement() {
        let out = clean(DatasetChoice::Udb1, 2, 5, "greedy", false).unwrap();
        assert!(out.contains("expected improvement"));
        let line = out.lines().find(|l| l.starts_with("expected improvement")).unwrap();
        let value: f64 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(value > 0.0);
        assert!(clean(DatasetChoice::Udb1, 2, 5, "nope", false).is_err());
    }

    #[test]
    fn clean_json_mode_emits_plan_and_improvement() {
        let out = clean(DatasetChoice::Udb1, 2, 5, "greedy", true).unwrap();
        let value: serde::Value = serde_json::from_str(&out).unwrap();
        let map = value.as_map().expect("top-level object");
        let improvement = match serde::Value::map_get(map, "expected_improvement") {
            Some(serde::Value::F64(v)) => *v,
            other => panic!("missing/invalid expected_improvement: {other:?}"),
        };
        assert!(improvement > 0.0, "{out}");
        let plan: CleaningPlan =
            serde::Deserialize::from_value(serde::Value::map_get(map, "plan").expect("plan field"))
                .unwrap();
        assert!(plan.total_attempts() > 0);
    }

    #[test]
    fn call_command_round_trips_against_a_served_instance() {
        let server = pdb_server::Server::bind(&pdb_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..pdb_server::ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let reply = call(
            &addr,
            "{\"create_session\": {\"dataset\": \"Udb1\", \"probe_cost\": 1, \
             \"probe_success\": 0.8}}",
            false,
        )
        .unwrap();
        assert!(reply.contains("session_created"), "{reply}");
        assert!(reply.contains("\"tuples\":7"), "{reply}");

        assert!(call(&addr, "not json", false).is_err());
        let reply = call(&addr, "{\"evaluate\": {\"session\": 12345}}", false).unwrap();
        assert!(reply.contains("error"), "{reply}");

        let reply = call(&addr, "\"shutdown\"", false).unwrap();
        assert!(reply.contains("shutting_down"), "{reply}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn mutate_command_inserts_and_removes_against_a_served_instance() {
        let server = pdb_server::Server::bind(&pdb_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..pdb_server::ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let reply = call(
            &addr,
            "{\"create_session\": {\"dataset\": \"Udb1\", \"probe_cost\": 1, \
             \"probe_success\": 0.8}}",
            false,
        )
        .unwrap();
        assert!(reply.contains("session_created"), "{reply}");
        call(&addr, "{\"register_query\": {\"session\": 1, \"query\": {\"PTk\": {\"k\": 2, \"threshold\": 0.4}}, \"weight\": 1}}", false)
            .unwrap();

        // A new entity arrives: the response reports the grown database.
        let op =
            MutateOp::Insert { key: "s9".into(), alternatives: vec![(28.5, 0.5), (23.0, 0.25)] };
        let reply = mutate(&addr, 1, op).unwrap();
        assert!(reply.contains("probe_applied"), "{reply}");

        // And departs again; a fresh in-process evaluation of the mutated
        // database is the oracle for the served delta patch.
        let reply = mutate(&addr, 1, MutateOp::Remove { x_tuple: 4 }).unwrap();
        let Ok(pdb_server::Response::ProbeApplied(applied)) =
            pdb_server::protocol::decode_response(&reply)
        else {
            panic!("expected probe_applied, got {reply}");
        };
        let mut db = pdb_gen::spec::build_dataset(&pdb_gen::DatasetSpec::Udb1).unwrap();
        db.insert_x_tuple_in_place("s9".into(), &[(28.5, 0.5), (23.0, 0.25)]).unwrap();
        db.remove_x_tuple_in_place(4).unwrap();
        let query = WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 });
        let rebuild = BatchQuality::from_owned(db, vec![query]).unwrap();
        assert!((applied.update.aggregate - rebuild.aggregate_quality()).abs() < 1e-9);

        // Out-of-range removal surfaces as a server error, not a hang.
        assert!(mutate(&addr, 1, MutateOp::Remove { x_tuple: 99 }).is_err());

        call(&addr, "\"shutdown\"", false).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn client_failures_print_their_own_text_not_invalid_parameter() {
        use std::io::{BufRead, BufReader, Write};
        // A stand-in server that answers one line that is not JSON.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stand_in = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(&stream).read_line(&mut String::new()).unwrap();
            (&stream).write_all(b"not json\n").unwrap();
        });
        let err = call(&addr, "\"stats\"", false).unwrap_err().to_string();
        stand_in.join().unwrap();
        assert!(err.starts_with("protocol error") && !err.contains("invalid parameter"), "{err}");
        // Port 0 takes no connection.
        let err = call("127.0.0.1:0", "\"stats\"", false).unwrap_err().to_string();
        assert!(err.starts_with("connecting to 127.0.0.1:0 failed: "), "{err}");
    }

    #[test]
    fn serving_failures_print_their_own_text_not_invalid_parameter() {
        // A port a listener already holds refuses a second bind.
        let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = held.local_addr().unwrap().to_string();
        let config = pdb_server::ServerConfig { addr: addr.clone(), ..Default::default() };
        let err = serve(&config).unwrap_err().to_string();
        assert!(
            err.starts_with(&format!("binding {addr} failed: "))
                && !err.contains("invalid parameter"),
            "{err}"
        );
        // A store directory that is a file is refused before any shard
        // is spawned, so no process starts.
        let file = std::env::temp_dir().join(format!("pdb-cli-store-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let store_dir = Some(file.display().to_string());
        let err = fleet_serve("127.0.0.1:0", 1, store_dir, Vec::new()).unwrap_err().to_string();
        std::fs::remove_file(&file).unwrap();
        assert!(
            err.starts_with("spawning the fleet failed: store directory ")
                && !err.contains("invalid parameter"),
            "{err}"
        );
    }

    #[test]
    fn call_line_mode_streams_requests_over_one_connection() {
        let server = pdb_server::Server::bind(&pdb_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..pdb_server::ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let mut client = pdb_server::Client::connect(&addr).unwrap();
        let script = "\
{\"create_session\": {\"dataset\": \"Udb1\", \"probe_cost\": 1, \"probe_success\": 0.8}}\n\
\n\
{\"register_query\": {\"session\": 1, \"query\": {\"PTk\": {\"k\": 2, \"threshold\": 0.4}}, \"weight\": 1}}\n\
not json\n\
{\"evaluate\": {\"session\": 1}}\n";
        let summary = call_lines(&mut client, std::io::Cursor::new(script), false).unwrap();
        assert!(summary.contains("4 request(s)"), "{summary}");

        // The connection survives the malformed line; the session built
        // up over the stream still answers.
        let answers = client.evaluate(1).unwrap();
        assert_eq!(answers.answers[0].len(), 3);

        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn export_then_import_round_trips_a_snapshot() {
        let dir = std::env::temp_dir().join("pdb-cli-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("udb1.pdbs");
        let json = dir.join("udb1.json");

        let out = export(DatasetChoice::Udb1, 7, &snapshot.display().to_string()).unwrap();
        assert!(out.contains("7 tuples"), "{out}");
        assert!(snapshot.exists());

        let summary =
            import(&snapshot.display().to_string(), Some(&json.display().to_string())).unwrap();
        assert!(summary.contains("tuples    : 7 (4 x-tuples)"), "{summary}");
        assert!(summary.contains("worlds    : 8"), "{summary}");
        let back = pdb_gen::io::load_ranked(&json).unwrap();
        assert_eq!(back.len(), 7);

        assert!(import("/definitely/not/here.pdbs", None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_command_reports_the_replayed_log() {
        use pdb_quality::{TopKQuery, XTupleMutation};
        let dir = std::env::temp_dir().join("pdb-cli-recover-test");
        std::fs::remove_dir_all(&dir).ok();
        {
            let (store, _) = pdb_store::Store::open(&dir, &pdb_gen::build_dataset).unwrap();
            store
                .append(&pdb_store::WalRecord::CreateSession {
                    session: 1,
                    dataset: pdb_gen::DatasetSpec::Udb1,
                    probe_cost: 1,
                    probe_success: 0.8,
                })
                .unwrap();
            store
                .append(&pdb_store::WalRecord::RegisterQuery {
                    session: 1,
                    query: TopKQuery::PTk { k: 2, threshold: 0.4 },
                    weight: 1.0,
                })
                .unwrap();
            store
                .append(&pdb_store::WalRecord::ApplyProbe {
                    session: 1,
                    x_tuple: 2,
                    mutation: XTupleMutation::CollapseToAlternative { keep_pos: 2 },
                })
                .unwrap();
        }
        let text = recover(&dir.display().to_string()).unwrap();
        assert!(text.contains("3 record(s)"), "{text}");
        // Dry run: peeking a missing store is an error, not a mkdir.
        let missing = dir.join("not-a-store");
        assert!(recover(&missing.display().to_string()).is_err());
        assert!(!missing.exists(), "recover must not create directories");
        assert!(text.contains("sessions   : 1 recovered"), "{text}");
        assert!(text.contains("1 probe(s) (1 replayed"), "{text}");
        assert!(text.contains("live, aggregate quality"), "{text}");
        assert!(text.contains("next id    : 2"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn experiment_command_renders_table_and_csv() {
        let table =
            run(Command::Experiment { id: "fig2-3".into(), scale: Scale::Quick, csv: false })
                .unwrap();
        assert!(table.contains("udb1"));
        let csv = run(Command::Experiment { id: "fig2-3".into(), scale: Scale::Quick, csv: true })
            .unwrap();
        assert!(csv.lines().next().unwrap().contains("udb1"));
    }

    #[test]
    fn adaptive_command_compares_both_replan_modes() {
        let out = adaptive(DatasetChoice::Udb1, 2, 5, 10, "both").unwrap();
        assert!(out.contains("incremental"), "{out}");
        assert!(out.contains("full-rebuild"), "{out}");
        assert!(out.contains("delta rows"), "{out}");
        let single = adaptive(DatasetChoice::Udb1, 2, 5, 5, "rebuild").unwrap();
        assert!(!single.contains("incremental"));
        assert!(adaptive(DatasetChoice::Udb1, 2, 5, 5, "bogus").is_err());
        assert!(adaptive(DatasetChoice::Udb1, 2, 5, 0, "both").is_err());
    }

    #[test]
    fn batch_command_serves_multiple_queries_from_one_run() {
        let out = batch(DatasetChoice::Udb1, &[1, 2, 4], None, 0.4, 5).unwrap();
        assert!(out.contains("k_max = 4"), "{out}");
        assert!(out.contains("query  0"), "{out}");
        assert!(out.contains("aggregate quality"), "{out}");
        assert!(out.contains("best next probe"), "{out}");
        assert!(out.contains("greedy"), "{out}");
        // PT-2 answer of the paper at threshold 0.4 has 3 tuples.
        assert!(out.contains("answer    3 tuples"), "{out}");

        let weighted = batch(DatasetChoice::Udb1, &[1, 2], Some(&[0.0, 1.0]), 0.4, 5).unwrap();
        assert!(weighted.contains("weight 0.00"), "{weighted}");
        assert!(batch(DatasetChoice::Udb1, &[1, 2], Some(&[-1.0, 1.0]), 0.4, 5).is_err());
        assert!(batch(DatasetChoice::Udb1, &[1], None, 0.0, 5).is_err());
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(Command::Help).unwrap().contains("usage"));
    }
}
