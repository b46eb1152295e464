//! Command-line argument parsing for the `pdb` binary.
//!
//! Hand-rolled (no external CLI crate) and strict: unknown flags are
//! reported rather than ignored.

use pdb_experiments::Scale;
use pdb_server::ServerConfig;
use pdb_store::FlushPolicy;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Usage text printed on parse errors and for `pdb help`.
pub const USAGE: &str = "usage:
  pdb list
  pdb exp <id> [--scale quick|paper] [--csv]
  pdb all [--scale quick|paper] [--csv <dir>]
  pdb quality [--dataset synthetic|mov|udb1] [--k <k>] [--algo tp|pwr|pw] [--json]
  pdb clean [--dataset synthetic|mov|udb1] [--k <k>] [--budget <C>] [--algo greedy|dp|randp|randu] [--json]
  pdb adaptive [--dataset synthetic|mov|udb1] [--k <k>] [--budget <C>] [--trials <t>] [--mode incremental|rebuild|both]
  pdb batch [--dataset synthetic|mov|udb1] [--ks <k1,k2,...>] [--weights <w1,w2,...>] [--threshold <T>] [--budget <C>]
  pdb serve [--addr <host:port>] [--threads <n>] [--store-dir <dir>] [--compact-every <n>]
            [--flush group-commit] [--flush-batch <n>] [--flush-wait-ms <ms>]
  pdb fleet serve [--addr <host:port>] [--shards <n>] [--store-dir <dir>]
                  [any other pdb serve flag, passed to every shard as given]
  pdb fleet status [--addr <host:port>]
  pdb metrics [--addr <host:port>] [--text]
  pdb call <request-json | -> [--addr <host:port>] [--timing]   (- streams stdin lines over one connection)
  pdb mutate <session> insert --key <key> --alts <score:prob,...> [--addr <host:port>]
  pdb mutate <session> remove --x-tuple <l> [--addr <host:port>]
  pdb export [--dataset synthetic|mov|udb1] [--tuples <n>] --out <file.pdbs>
  pdb import <file> [--out <file>]
  pdb recover --store-dir <dir>
  pdb help

call verbs (one JSON object per request, e.g. {\"evaluate\":{\"session\":0}}):
  create_session register_query evaluate quality recommend_probe apply_mutation
  apply_probe drop_session persist stats metrics shutdown";

/// Which dataset a `quality` / `clean` invocation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetChoice {
    /// The paper's default synthetic dataset (quick scale).
    Synthetic,
    /// The MOV stand-in dataset (quick scale).
    Mov,
    /// The running example `udb1` of Table I.
    Udb1,
}

impl DatasetChoice {
    fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "synthetic" | "syn" => Ok(DatasetChoice::Synthetic),
            "mov" | "movies" => Ok(DatasetChoice::Mov),
            "udb1" | "example" => Ok(DatasetChoice::Udb1),
            other => Err(format!("unknown dataset {other:?} (expected synthetic, mov or udb1)")),
        }
    }
}

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `pdb list`
    List,
    /// `pdb help`
    Help,
    /// `pdb exp <id>`
    Experiment {
        /// Experiment identifier (`fig4a`, …).
        id: String,
        /// Run scale.
        scale: Scale,
        /// Emit CSV instead of the aligned table.
        csv: bool,
    },
    /// `pdb all`
    All {
        /// Run scale.
        scale: Scale,
        /// Directory to write one CSV per experiment into (optional).
        csv_dir: Option<String>,
    },
    /// `pdb quality`
    Quality {
        /// Dataset to evaluate.
        dataset: DatasetChoice,
        /// Query parameter `k`.
        k: usize,
        /// Quality algorithm (`tp`, `pwr`, `pw`).
        algo: String,
        /// Emit machine-readable JSON instead of the aligned table.
        json: bool,
    },
    /// `pdb clean`
    Clean {
        /// Dataset to clean.
        dataset: DatasetChoice,
        /// Query parameter `k`.
        k: usize,
        /// Cleaning budget `C`.
        budget: u64,
        /// Cleaning algorithm (`greedy`, `dp`, `randp`, `randu`).
        algo: String,
        /// Emit machine-readable JSON instead of the aligned table.
        json: bool,
    },
    /// `pdb batch`
    Batch {
        /// Dataset to serve the batch on.
        dataset: DatasetChoice,
        /// The `k` of each registered PT-k query.
        ks: Vec<usize>,
        /// Per-query aggregate weights (same length as `ks`; all 1 when
        /// omitted).
        weights: Option<Vec<f64>>,
        /// PT-k probability threshold shared by the registered queries.
        threshold: f64,
        /// Budget for the aggregate greedy cleaning plan.
        budget: u64,
    },
    /// `pdb serve`
    Serve(ServerConfig),
    /// `pdb fleet ...`
    Fleet {
        /// Which fleet operation to run.
        op: FleetOp,
    },
    /// `pdb call`
    Call {
        /// Server address to connect to.
        addr: String,
        /// The request, as one JSON value (see README "Serving &
        /// sessions"), or `-` to stream newline-delimited requests from
        /// stdin over one persistent connection.
        request: String,
        /// Print per-request client-side latency to stderr.
        timing: bool,
    },
    /// `pdb metrics`
    Metrics {
        /// Server (or router) address to connect to.
        addr: String,
        /// Render Prometheus-style text exposition instead of JSON.
        text: bool,
    },
    /// `pdb mutate`
    Mutate {
        /// Server address to connect to.
        addr: String,
        /// Session id to mutate.
        session: u64,
        /// The streaming operation (insert or remove).
        op: MutateOp,
    },
    /// `pdb export`
    Export {
        /// Dataset to generate and export.
        dataset: DatasetChoice,
        /// Approximate tuple count for generated datasets.
        tuples: usize,
        /// Output snapshot file.
        out: String,
    },
    /// `pdb import`
    Import {
        /// Snapshot (or JSON) file to load.
        file: String,
        /// Optional re-export target (format picked by extension).
        out: Option<String>,
    },
    /// `pdb recover`
    Recover {
        /// Store directory to replay.
        store_dir: String,
    },
    /// `pdb adaptive`
    Adaptive {
        /// Dataset to clean adaptively.
        dataset: DatasetChoice,
        /// Query parameter `k`.
        k: usize,
        /// Cleaning budget `C`.
        budget: u64,
        /// Number of simulated sessions to average over.
        trials: u64,
        /// Re-planning mode (`incremental`, `rebuild` or `both`).
        mode: String,
    },
}

/// Which fleet operation `pdb fleet` runs.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOp {
    /// `pdb fleet serve`: spawn N shard processes and route to them.
    Serve {
        /// Address the *router* binds (port 0 picks an ephemeral port).
        addr: String,
        /// Shard processes to spawn.
        shards: usize,
        /// Base store directory; shard `i` journals into
        /// `<dir>/shard-<i>` (omit for in-memory shards).
        store_dir: Option<String>,
        /// Every other flag, a valid `pdb serve` flag passed to each
        /// shard as given.
        shard_flags: Vec<String>,
    },
    /// `pdb fleet status`: aggregated `stats` from a running router.
    Status {
        /// Router address to connect to.
        addr: String,
    },
}

/// Which streaming mutation `pdb mutate` sends.
#[derive(Debug, Clone, PartialEq)]
pub enum MutateOp {
    /// Append a brand-new x-tuple to the session's database.
    Insert {
        /// Entity key for the new x-tuple.
        key: String,
        /// `(score, probability)` alternatives of the new x-tuple.
        alternatives: Vec<(f64, f64)>,
    },
    /// Remove x-tuple `x_tuple` entirely.
    Remove {
        /// X-index of the departing entity.
        x_tuple: usize,
    },
}

/// Extract `--flag value` pairs and standalone `--flag`s from the argument
/// list.
struct Flags<'a> {
    rest: &'a [String],
    index: usize,
}

impl<'a> Flags<'a> {
    fn new(rest: &'a [String]) -> Self {
        Self { rest, index: 0 }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.rest.get(self.index)?;
        self.index += 1;
        Some(flag.as_str())
    }

    fn value_for(&mut self, flag: &str) -> Result<&'a str, String> {
        let value = self.rest.get(self.index).ok_or(format!("{flag} requires a value"))?;
        self.index += 1;
        Ok(value.as_str())
    }
}

/// Parse the raw argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let (command, rest) = argv.split_first().ok_or_else(|| "no command given".to_string())?;
    match command.as_str() {
        "list" => expect_no_flags(rest).map(|_| Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "exp" | "experiment" => {
            let (id, rest) =
                rest.split_first().ok_or_else(|| "exp requires an experiment id".to_string())?;
            let mut scale = Scale::Quick;
            let mut csv = false;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--scale" => scale = parse_scale(flags.value_for("--scale")?)?,
                    "--csv" => csv = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Experiment { id: id.clone(), scale, csv })
        }
        "all" => {
            let mut scale = Scale::Quick;
            let mut csv_dir = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--scale" => scale = parse_scale(flags.value_for("--scale")?)?,
                    "--csv" => csv_dir = Some(flags.value_for("--csv")?.to_string()),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::All { scale, csv_dir })
        }
        "quality" => {
            let mut dataset = DatasetChoice::Synthetic;
            let mut k = 15;
            let mut algo = "tp".to_string();
            let mut json = false;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--dataset" => dataset = DatasetChoice::parse(flags.value_for("--dataset")?)?,
                    "--k" => k = parse_usize(flags.value_for("--k")?, "--k")?,
                    "--algo" => algo = flags.value_for("--algo")?.to_ascii_lowercase(),
                    "--json" => json = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Quality { dataset, k, algo, json })
        }
        "clean" => {
            let mut dataset = DatasetChoice::Synthetic;
            let mut k = 15;
            let mut budget = 100;
            let mut algo = "greedy".to_string();
            let mut json = false;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--dataset" => dataset = DatasetChoice::parse(flags.value_for("--dataset")?)?,
                    "--k" => k = parse_usize(flags.value_for("--k")?, "--k")?,
                    "--budget" => {
                        budget = parse_usize(flags.value_for("--budget")?, "--budget")? as u64
                    }
                    "--algo" => algo = flags.value_for("--algo")?.to_ascii_lowercase(),
                    "--json" => json = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Clean { dataset, k, budget, algo, json })
        }
        "serve" => parse_serve_flags(rest).map(Command::Serve),
        "fleet" => {
            let (op_name, rest) = rest
                .split_first()
                .ok_or_else(|| "fleet requires an operation (serve or status)".to_string())?;
            match op_name.as_str() {
                "serve" => {
                    let mut addr = "127.0.0.1:7900".to_string();
                    let mut shards = 3;
                    let mut store_dir = None;
                    let mut shard_flags = Vec::new();
                    let mut flags = Flags::new(rest);
                    while let Some(flag) = flags.next_flag() {
                        match flag {
                            "--addr" => addr = parse_addr(flags.value_for("--addr")?)?,
                            "--shards" => {
                                shards = parse_usize(flags.value_for("--shards")?, "--shards")?
                            }
                            "--store-dir" => {
                                store_dir = Some(flags.value_for("--store-dir")?.to_string())
                            }
                            other => shard_flags.push(other.to_string()),
                        }
                    }
                    if shards == 0 {
                        return Err("--shards must be at least 1".to_string());
                    }
                    // A bad shard flag fails here, with `pdb serve`'s own
                    // message, before any shard starts.
                    parse_serve_flags(&shard_flags)?;
                    Ok(Command::Fleet {
                        op: FleetOp::Serve { addr, shards, store_dir, shard_flags },
                    })
                }
                "status" => {
                    let mut addr = "127.0.0.1:7900".to_string();
                    let mut flags = Flags::new(rest);
                    while let Some(flag) = flags.next_flag() {
                        match flag {
                            "--addr" => addr = parse_addr(flags.value_for("--addr")?)?,
                            other => return Err(format!("unknown flag {other:?}")),
                        }
                    }
                    Ok(Command::Fleet { op: FleetOp::Status { addr } })
                }
                other => {
                    Err(format!("unknown fleet operation {other:?} (expected serve or status)"))
                }
            }
        }
        "call" => {
            let (request, rest) = rest
                .split_first()
                .ok_or_else(|| "call requires a JSON request argument".to_string())?;
            let mut addr = "127.0.0.1:7878".to_string();
            let mut timing = false;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--addr" => addr = parse_addr(flags.value_for("--addr")?)?,
                    "--timing" => timing = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Call { addr, request: request.clone(), timing })
        }
        "metrics" => {
            let mut addr = "127.0.0.1:7878".to_string();
            let mut text = false;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--addr" => addr = parse_addr(flags.value_for("--addr")?)?,
                    "--text" => text = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Metrics { addr, text })
        }
        "mutate" => {
            let (session, rest) = rest
                .split_first()
                .ok_or_else(|| "mutate requires a session id argument".to_string())?;
            let session = session
                .parse::<u64>()
                .map_err(|_| format!("mutate expects a numeric session id, got {session:?}"))?;
            let (op_name, rest) = rest
                .split_first()
                .ok_or_else(|| "mutate requires an operation (insert or remove)".to_string())?;
            let mut addr = "127.0.0.1:7878".to_string();
            let mut key = None;
            let mut alts = None;
            let mut x_tuple = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--addr" => addr = parse_addr(flags.value_for("--addr")?)?,
                    "--key" => key = Some(flags.value_for("--key")?.to_string()),
                    "--alts" => alts = Some(parse_alternatives(flags.value_for("--alts")?)?),
                    "--x-tuple" => {
                        x_tuple = Some(parse_usize(flags.value_for("--x-tuple")?, "--x-tuple")?)
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let op = match op_name.as_str() {
                "insert" => {
                    if x_tuple.is_some() {
                        return Err("--x-tuple only applies to mutate remove".to_string());
                    }
                    let key = key.ok_or_else(|| "mutate insert requires --key".to_string())?;
                    let alternatives = alts.ok_or_else(|| {
                        "mutate insert requires --alts <score:prob,...>".to_string()
                    })?;
                    MutateOp::Insert { key, alternatives }
                }
                "remove" => {
                    if key.is_some() || alts.is_some() {
                        return Err("--key/--alts only apply to mutate insert".to_string());
                    }
                    let x_tuple =
                        x_tuple.ok_or_else(|| "mutate remove requires --x-tuple".to_string())?;
                    MutateOp::Remove { x_tuple }
                }
                other => {
                    return Err(format!(
                        "unknown mutate operation {other:?} (expected insert or remove)"
                    ))
                }
            };
            Ok(Command::Mutate { addr, session, op })
        }
        "export" => {
            let mut dataset = DatasetChoice::Synthetic;
            let mut tuples = 10_000;
            let mut out = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--dataset" => dataset = DatasetChoice::parse(flags.value_for("--dataset")?)?,
                    "--tuples" => tuples = parse_usize(flags.value_for("--tuples")?, "--tuples")?,
                    "--out" => out = Some(flags.value_for("--out")?.to_string()),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let out = out.ok_or_else(|| "export requires --out <file>".to_string())?;
            if tuples == 0 {
                return Err("--tuples must be at least 1".to_string());
            }
            Ok(Command::Export { dataset, tuples, out })
        }
        "import" => {
            let (file, rest) = rest
                .split_first()
                .ok_or_else(|| "import requires a snapshot file argument".to_string())?;
            let mut out = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--out" => out = Some(flags.value_for("--out")?.to_string()),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Import { file: file.clone(), out })
        }
        "recover" => {
            let mut store_dir = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--store-dir" => store_dir = Some(flags.value_for("--store-dir")?.to_string()),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let store_dir =
                store_dir.ok_or_else(|| "recover requires --store-dir <dir>".to_string())?;
            Ok(Command::Recover { store_dir })
        }
        "batch" => {
            let mut dataset = DatasetChoice::Synthetic;
            let mut ks = vec![5, 15, 50];
            let mut weights = None;
            let mut threshold = 0.1;
            let mut budget = 100;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--dataset" => dataset = DatasetChoice::parse(flags.value_for("--dataset")?)?,
                    "--ks" => ks = parse_usize_list(flags.value_for("--ks")?, "--ks")?,
                    "--weights" => {
                        weights = Some(parse_f64_list(flags.value_for("--weights")?, "--weights")?)
                    }
                    "--threshold" => {
                        threshold = parse_f64(flags.value_for("--threshold")?, "--threshold")?
                    }
                    "--budget" => {
                        budget = parse_usize(flags.value_for("--budget")?, "--budget")? as u64
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if ks.is_empty() {
                return Err("--ks needs at least one k".to_string());
            }
            if let Some(w) = &weights {
                if w.len() != ks.len() {
                    return Err(format!(
                        "--weights lists {} values for {} queries",
                        w.len(),
                        ks.len()
                    ));
                }
            }
            Ok(Command::Batch { dataset, ks, weights, threshold, budget })
        }
        "adaptive" => {
            let mut dataset = DatasetChoice::Synthetic;
            let mut k = 15;
            let mut budget = 100;
            let mut trials = 20;
            let mut mode = "both".to_string();
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next_flag() {
                match flag {
                    "--dataset" => dataset = DatasetChoice::parse(flags.value_for("--dataset")?)?,
                    "--k" => k = parse_usize(flags.value_for("--k")?, "--k")?,
                    "--budget" => {
                        budget = parse_usize(flags.value_for("--budget")?, "--budget")? as u64
                    }
                    "--trials" => {
                        trials = parse_usize(flags.value_for("--trials")?, "--trials")? as u64
                    }
                    "--mode" => mode = flags.value_for("--mode")?.to_ascii_lowercase(),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(Command::Adaptive { dataset, k, budget, trials, mode })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Parse `pdb serve`'s flags (everything after `serve`) into the
/// server's own configuration; `pdb fleet serve` checks the flags it
/// passes to its shards with it too.  Unset flags keep
/// [`ServerConfig::default`].
fn parse_serve_flags(rest: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let FlushPolicy::GroupCommit { mut max_batch, mut max_wait } = config.flush;
    let mut flags = Flags::new(rest);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--addr" => config.addr = parse_addr(flags.value_for("--addr")?)?,
            "--threads" => {
                config.threads = parse_usize(flags.value_for("--threads")?, "--threads")?
            }
            "--store-dir" => config.store_dir = Some(flags.value_for("--store-dir")?.to_string()),
            "--compact-every" => {
                config.compact_every =
                    parse_usize(flags.value_for("--compact-every")?, "--compact-every")? as u64
            }
            // Group commit is the only policy; `--flush group-commit`
            // stays accepted because existing scripts pass it.
            "--flush" => match flags.value_for("--flush")?.to_ascii_lowercase().as_str() {
                "group-commit" => {}
                other => {
                    return Err(format!("unknown flush policy {other:?} (expected group-commit)"))
                }
            },
            "--flush-batch" => {
                max_batch = parse_usize(flags.value_for("--flush-batch")?, "--flush-batch")?
            }
            "--flush-wait-ms" => {
                max_wait = Duration::from_millis(parse_usize(
                    flags.value_for("--flush-wait-ms")?,
                    "--flush-wait-ms",
                )? as u64)
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if config.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if max_batch == 0 {
        return Err("--flush-batch must be at least 1".to_string());
    }
    config.flush = FlushPolicy::GroupCommit { max_batch, max_wait };
    Ok(config)
}

fn expect_no_flags(rest: &[String]) -> Result<(), String> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(format!("unexpected arguments: {rest:?}"))
    }
}

/// Check an `--addr` value, `host:port`, before anything binds, connects
/// or resolves: a host of only digits and dots must be an IPv4 address,
/// since the resolver reads `1.2.3` as 1.2.0.3 and looks `256.0.0.1` up.
fn parse_addr(s: &str) -> Result<String, String> {
    let malformed = || format!("--addr expects host:port with a port in 0..=65535, got {s:?}");
    let (host, port) = s.rsplit_once(':').ok_or_else(malformed)?;
    port.parse::<u16>().map_err(|_| malformed())?;
    if host.bytes().all(|b| b.is_ascii_digit() || b == b'.') && host.parse::<Ipv4Addr>().is_err() {
        return Err(format!(
            "--addr host {host:?} is not an IPv4 address (four numbers 0-255, like 127.0.0.1)"
        ));
    }
    Ok(s.to_string())
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?} (expected quick or paper)"))
}

fn parse_usize(s: &str, flag: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("{flag} expects a positive integer, got {s:?}"))
}

fn parse_f64(s: &str, flag: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("{flag} expects a number, got {s:?}"))
}

fn parse_usize_list(s: &str, flag: &str) -> Result<Vec<usize>, String> {
    s.split(',').map(|part| parse_usize(part.trim(), flag)).collect()
}

fn parse_f64_list(s: &str, flag: &str) -> Result<Vec<f64>, String> {
    s.split(',').map(|part| parse_f64(part.trim(), flag)).collect()
}

/// Parse `score:prob,score:prob,...` into `(score, probability)` pairs.
fn parse_alternatives(s: &str) -> Result<Vec<(f64, f64)>, String> {
    s.split(',')
        .map(|pair| {
            let (score, prob) = pair
                .split_once(':')
                .ok_or_else(|| format!("--alts expects score:prob pairs, got {pair:?}"))?;
            Ok((parse_f64(score.trim(), "--alts")?, parse_f64(prob.trim(), "--alts")?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_list_and_help() {
        assert_eq!(parse(&argv(&["list"])).unwrap(), Command::List);
        assert_eq!(parse(&argv(&["help"])).unwrap(), Command::Help);
        assert!(parse(&argv(&["list", "extra"])).is_err());
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["bogus"])).is_err());
    }

    #[test]
    fn parses_experiment_flags() {
        let c = parse(&argv(&["exp", "fig4a", "--scale", "paper", "--csv"])).unwrap();
        assert_eq!(c, Command::Experiment { id: "fig4a".into(), scale: Scale::Paper, csv: true });
        assert!(parse(&argv(&["exp"])).is_err());
        assert!(parse(&argv(&["exp", "fig4a", "--scale"])).is_err());
        assert!(parse(&argv(&["exp", "fig4a", "--bogus"])).is_err());
    }

    #[test]
    fn parses_all_with_csv_dir() {
        let c = parse(&argv(&["all", "--csv", "/tmp/out"])).unwrap();
        assert_eq!(c, Command::All { scale: Scale::Quick, csv_dir: Some("/tmp/out".into()) });
    }

    #[test]
    fn parses_quality_and_clean() {
        let c =
            parse(&argv(&["quality", "--dataset", "mov", "--k", "5", "--algo", "pwr"])).unwrap();
        assert_eq!(
            c,
            Command::Quality { dataset: DatasetChoice::Mov, k: 5, algo: "pwr".into(), json: false }
        );

        let c = parse(&argv(&[
            "clean",
            "--budget",
            "50",
            "--algo",
            "dp",
            "--dataset",
            "udb1",
            "--k",
            "2",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Clean {
                dataset: DatasetChoice::Udb1,
                k: 2,
                budget: 50,
                algo: "dp".into(),
                json: true
            }
        );

        assert!(parse(&argv(&["quality", "--k", "abc"])).is_err());
        assert!(parse(&argv(&["clean", "--dataset", "nope"])).is_err());
    }

    #[test]
    fn parses_serve_and_call() {
        let c = parse(&argv(&["serve"])).unwrap();
        assert_eq!(
            c,
            Command::Serve(ServerConfig {
                addr: "127.0.0.1:7878".into(),
                threads: 4,
                store_dir: None,
                compact_every: 1024,
                flush: FlushPolicy::GroupCommit { max_batch: 64, max_wait: Duration::ZERO },
            })
        );
        let c = parse(&argv(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "8",
            "--store-dir",
            "/var/lib/pdb",
            "--compact-every",
            "64",
            "--flush",
            "group-commit",
            "--flush-batch",
            "32",
            "--flush-wait-ms",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve(ServerConfig {
                addr: "0.0.0.0:9000".into(),
                threads: 8,
                store_dir: Some("/var/lib/pdb".into()),
                compact_every: 64,
                flush: FlushPolicy::GroupCommit {
                    max_batch: 32,
                    max_wait: Duration::from_millis(5),
                },
            })
        );
        // The batch and wait knobs need no `--flush`: group commit is the
        // only policy.
        let c = parse(&argv(&["serve", "--flush-batch", "8"])).unwrap();
        let Command::Serve(ServerConfig { flush, .. }) = c else { panic!("serve") };
        assert_eq!(flush, FlushPolicy::GroupCommit { max_batch: 8, max_wait: Duration::ZERO });
        assert!(parse(&argv(&["serve", "--threads", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--bogus"])).is_err());
        assert!(parse(&argv(&["serve", "--flush", "sometimes"])).is_err());
        let err = parse(&argv(&["serve", "--flush", "per-record"])).unwrap_err();
        assert!(err.contains("expected group-commit"), "{err}");
        let err = parse(&argv(&["serve", "--shards", "8"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        assert!(parse(&argv(&["serve", "--flush", "group-commit", "--flush-batch", "0"])).is_err());

        let c = parse(&argv(&["call", "\"stats\"", "--addr", "127.0.0.1:9"])).unwrap();
        assert_eq!(
            c,
            Command::Call {
                addr: "127.0.0.1:9".into(),
                request: "\"stats\"".into(),
                timing: false,
            }
        );
        // `-` selects the stdin line mode.
        let c = parse(&argv(&["call", "-", "--timing"])).unwrap();
        assert_eq!(
            c,
            Command::Call { addr: "127.0.0.1:7878".into(), request: "-".into(), timing: true }
        );
        assert!(parse(&argv(&["call"])).is_err());
        assert!(parse(&argv(&["call", "\"stats\"", "--bogus"])).is_err());
    }

    /// Every `--addr` flag goes through one parser, which refuses a
    /// digits-and-dots host that is not an IPv4 address before anything
    /// binds, connects or resolves.
    #[test]
    fn every_addr_flag_takes_one_parser() {
        let commands: [&[&str]; 6] = [
            &["serve"],
            &["fleet", "serve"],
            &["fleet", "status"],
            &["metrics"],
            &["call", "\"stats\""],
            &["mutate", "0", "remove", "--x-tuple", "1"],
        ];
        for command in commands {
            let with = |addr: &str| parse(&argv(&[command, &["--addr", addr]].concat()));
            for good in ["localhost:7878", "127.0.0.1:0", "[::1]:0", "0.0.0.0:9000"] {
                assert!(with(good).is_ok(), "{command:?} --addr {good}: {:?}", with(good));
            }
            for bad in ["256.0.0.1:1", "1.2.3:7", "1.2.3.4.5:7", ":7878", "127.0.0.1", "host:x"] {
                let err = with(bad).expect_err(bad);
                assert!(err.contains("--addr"), "{command:?} --addr {bad}: {err}");
            }
        }
        let err = parse(&argv(&["serve", "--addr", "256.0.0.1:1"])).unwrap_err();
        assert!(err.contains("not an IPv4 address"), "{err}");
    }

    #[test]
    fn parses_metrics() {
        let c = parse(&argv(&["metrics"])).unwrap();
        assert_eq!(c, Command::Metrics { addr: "127.0.0.1:7878".into(), text: false });
        let c = parse(&argv(&["metrics", "--addr", "127.0.0.1:9", "--text"])).unwrap();
        assert_eq!(c, Command::Metrics { addr: "127.0.0.1:9".into(), text: true });
        assert!(parse(&argv(&["metrics", "--bogus"])).is_err());
    }

    /// The `pdb serve` configuration each shard of a `fleet serve`
    /// parsed to `shard_flags` runs with.
    fn shard_config(c: &Command) -> ServerConfig {
        let Command::Fleet { op: FleetOp::Serve { shard_flags, .. } } = c else {
            panic!("fleet serve: {c:?}")
        };
        parse_serve_flags(shard_flags).unwrap()
    }

    #[test]
    fn parses_fleet_serve_and_status() {
        let c = parse(&argv(&["fleet", "serve"])).unwrap();
        assert_eq!(
            c,
            Command::Fleet {
                op: FleetOp::Serve {
                    addr: "127.0.0.1:7900".into(),
                    shards: 3,
                    store_dir: None,
                    shard_flags: Vec::new(),
                }
            }
        );
        let shard = shard_config(&c);
        assert_eq!(shard.threads, 4);
        assert_eq!(shard.compact_every, 1024);
        assert_eq!(
            shard.flush,
            FlushPolicy::GroupCommit { max_batch: 64, max_wait: Duration::ZERO }
        );
        let c = parse(&argv(&[
            "fleet",
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "5",
            "--threads",
            "2",
            "--store-dir",
            "/tmp/fleet",
            "--flush",
            "group-commit",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Fleet {
                op: FleetOp::Serve {
                    addr: "127.0.0.1:0".into(),
                    shards: 5,
                    store_dir: Some("/tmp/fleet".into()),
                    shard_flags: argv(&["--threads", "2", "--flush", "group-commit"]),
                }
            }
        );
        let shard = shard_config(&c);
        assert_eq!(shard.threads, 2);
        assert_eq!(shard.compact_every, 1024);
        assert_eq!(
            shard.flush,
            FlushPolicy::GroupCommit { max_batch: 64, max_wait: Duration::ZERO }
        );
        let c = parse(&argv(&["fleet", "status", "--addr", "127.0.0.1:9"])).unwrap();
        assert_eq!(c, Command::Fleet { op: FleetOp::Status { addr: "127.0.0.1:9".into() } });
        assert!(parse(&argv(&["fleet"])).is_err(), "operation is mandatory");
        assert!(parse(&argv(&["fleet", "scale"])).is_err(), "unknown operation");
        assert!(parse(&argv(&["fleet", "serve", "--shards", "0"])).is_err());
        assert!(parse(&argv(&["fleet", "serve", "--flush", "per-record"])).is_err());
        assert!(parse(&argv(&["fleet", "status", "--shards", "2"])).is_err());
    }

    #[test]
    fn fleet_serve_rejects_a_shard_flag_with_pdb_serves_message() {
        for flags in [&["--bogus"][..], &["--threads", "0"], &["--flush-batch"]] {
            let serve = parse(&argv(&[&["serve"], flags].concat())).unwrap_err();
            let fleet = parse(&argv(&[&["fleet", "serve"], flags].concat())).unwrap_err();
            assert_eq!(fleet, serve, "fleet serve {flags:?}");
        }
        let err = parse(&argv(&["fleet", "serve", "--threads", "0"])).unwrap_err();
        assert!(err.contains("--threads must be at least 1"), "{err}");
    }

    /// servebench starts `pdb serve` and `pdb fleet serve` with these
    /// exact argument vectors (it sits outside the workspace, so this
    /// pins its contract).
    #[test]
    fn servebench_argument_vectors_parse_to_the_expected_configs() {
        let tail = [
            "--addr",
            "127.0.0.1:0",
            "--store-dir",
            "D",
            "--flush",
            "group-commit",
            "--flush-batch",
            "64",
            "--flush-wait-ms",
            "0",
            "--compact-every",
            "128",
        ];
        let expected = ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            store_dir: Some("D".into()),
            compact_every: 128,
            flush: FlushPolicy::GroupCommit { max_batch: 64, max_wait: Duration::ZERO },
        };
        let c = parse(&argv(&[&["serve", "--threads", "4"][..], &tail].concat())).unwrap();
        assert_eq!(c, Command::Serve(expected.clone()));

        let c = parse(&argv(
            &[&["fleet", "serve", "--shards", "2", "--threads", "1"][..], &tail].concat(),
        ))
        .unwrap();
        let shard_flags = argv(&[
            "--threads",
            "1",
            "--flush",
            "group-commit",
            "--flush-batch",
            "64",
            "--flush-wait-ms",
            "0",
            "--compact-every",
            "128",
        ]);
        assert_eq!(
            c,
            Command::Fleet {
                op: FleetOp::Serve {
                    addr: "127.0.0.1:0".into(),
                    shards: 2,
                    store_dir: Some("D".into()),
                    shard_flags,
                }
            }
        );
        // Each shard binds its own ephemeral port and journals into its
        // own subdirectory (see `FleetConfig`); the rest is servebench's.
        let shard = shard_config(&c);
        assert_eq!(
            shard,
            ServerConfig { addr: "127.0.0.1:7878".into(), threads: 1, store_dir: None, ..expected }
        );
    }

    #[test]
    fn parses_export_import_recover() {
        let c = parse(&argv(&["export", "--out", "db.pdbs"])).unwrap();
        assert_eq!(
            c,
            Command::Export {
                dataset: DatasetChoice::Synthetic,
                tuples: 10_000,
                out: "db.pdbs".into()
            }
        );
        let c =
            parse(&argv(&["export", "--dataset", "udb1", "--tuples", "7", "--out", "/tmp/u.pdbs"]))
                .unwrap();
        assert_eq!(
            c,
            Command::Export { dataset: DatasetChoice::Udb1, tuples: 7, out: "/tmp/u.pdbs".into() }
        );
        assert!(parse(&argv(&["export"])).is_err(), "--out is mandatory");
        assert!(parse(&argv(&["export", "--out", "x", "--tuples", "0"])).is_err());

        let c = parse(&argv(&["import", "db.pdbs"])).unwrap();
        assert_eq!(c, Command::Import { file: "db.pdbs".into(), out: None });
        let c = parse(&argv(&["import", "db.pdbs", "--out", "db.json"])).unwrap();
        assert_eq!(c, Command::Import { file: "db.pdbs".into(), out: Some("db.json".into()) });
        assert!(parse(&argv(&["import"])).is_err());

        let c = parse(&argv(&["recover", "--store-dir", "/tmp/store"])).unwrap();
        assert_eq!(c, Command::Recover { store_dir: "/tmp/store".into() });
        assert!(parse(&argv(&["recover"])).is_err(), "--store-dir is mandatory");
        assert!(parse(&argv(&["recover", "--bogus"])).is_err());
    }

    #[test]
    fn parses_mutate_insert_and_remove() {
        let c =
            parse(&argv(&["mutate", "3", "insert", "--key", "s9", "--alts", "28.5:0.5,23:0.25"]))
                .unwrap();
        assert_eq!(
            c,
            Command::Mutate {
                addr: "127.0.0.1:7878".into(),
                session: 3,
                op: MutateOp::Insert {
                    key: "s9".into(),
                    alternatives: vec![(28.5, 0.5), (23.0, 0.25)],
                },
            }
        );
        let c = parse(&argv(&["mutate", "0", "remove", "--x-tuple", "2", "--addr", "127.0.0.1:9"]))
            .unwrap();
        assert_eq!(
            c,
            Command::Mutate {
                addr: "127.0.0.1:9".into(),
                session: 0,
                op: MutateOp::Remove { x_tuple: 2 },
            }
        );
        assert!(parse(&argv(&["mutate"])).is_err(), "session id is mandatory");
        assert!(parse(&argv(&["mutate", "zero", "remove"])).is_err(), "session must be numeric");
        assert!(parse(&argv(&["mutate", "0"])).is_err(), "operation is mandatory");
        assert!(parse(&argv(&["mutate", "0", "reweight"])).is_err(), "unknown operation");
        assert!(parse(&argv(&["mutate", "0", "insert", "--key", "x"])).is_err(), "--alts needed");
        assert!(
            parse(&argv(&["mutate", "0", "insert", "--key", "x", "--alts", "1"])).is_err(),
            "alternatives must be score:prob pairs"
        );
        assert!(parse(&argv(&["mutate", "0", "remove"])).is_err(), "--x-tuple needed");
        assert!(
            parse(&argv(&["mutate", "0", "remove", "--x-tuple", "1", "--key", "x"])).is_err(),
            "--key only applies to insert"
        );
        assert!(
            parse(&argv(&["mutate", "0", "remove", "--x-tuple", "1", "--mode", "delta"])).is_err(),
            "mutations always take the delta path; there is no --mode"
        );
    }

    #[test]
    fn parses_batch_flags() {
        let c = parse(&argv(&["batch"])).unwrap();
        assert_eq!(
            c,
            Command::Batch {
                dataset: DatasetChoice::Synthetic,
                ks: vec![5, 15, 50],
                weights: None,
                threshold: 0.1,
                budget: 100,
            }
        );
        let c = parse(&argv(&[
            "batch",
            "--dataset",
            "udb1",
            "--ks",
            "1,2,4",
            "--weights",
            "1,0.5,2",
            "--threshold",
            "0.4",
            "--budget",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Batch {
                dataset: DatasetChoice::Udb1,
                ks: vec![1, 2, 4],
                weights: Some(vec![1.0, 0.5, 2.0]),
                threshold: 0.4,
                budget: 5,
            }
        );
        assert!(parse(&argv(&["batch", "--ks", "1,x"])).is_err());
        assert!(parse(&argv(&["batch", "--ks", "1,2", "--weights", "1"])).is_err());
        assert!(parse(&argv(&["batch", "--bogus"])).is_err());
    }

    #[test]
    fn parses_adaptive_flags() {
        let c = parse(&argv(&["adaptive"])).unwrap();
        assert_eq!(
            c,
            Command::Adaptive {
                dataset: DatasetChoice::Synthetic,
                k: 15,
                budget: 100,
                trials: 20,
                mode: "both".into()
            }
        );
        let c = parse(&argv(&[
            "adaptive",
            "--dataset",
            "udb1",
            "--k",
            "2",
            "--budget",
            "5",
            "--trials",
            "50",
            "--mode",
            "incremental",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Adaptive {
                dataset: DatasetChoice::Udb1,
                k: 2,
                budget: 5,
                trials: 50,
                mode: "incremental".into()
            }
        );
        assert!(parse(&argv(&["adaptive", "--bogus"])).is_err());
        assert!(parse(&argv(&["adaptive", "--mode"])).is_err());
    }
}
