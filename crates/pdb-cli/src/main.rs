//! `pdb` — command-line driver for the `uncertain-topk` reproduction.
//!
//! ```text
//! pdb list                          # list the available experiments
//! pdb exp fig4a [--scale paper]     # run one experiment, print its table
//! pdb all [--scale quick] [--csv DIR]
//! pdb quality [--dataset synthetic|mov|udb1] [--k 15] [--algo tp|pwr|pw] [--json]
//! pdb clean   [--dataset synthetic|mov|udb1] [--k 15] [--budget 100] [--algo greedy|dp|randp|randu] [--json]
//! pdb serve   [--addr 127.0.0.1:7878] [--threads 4] [--store-dir DIR]
//! pdb call '<request-json>' [--addr 127.0.0.1:7878]
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(command) => match commands::run(command) {
            Ok(output) => match writeln!(std::io::stdout(), "{output}") {
                Ok(()) => ExitCode::SUCCESS,
                // A closed pipe (`pdb ... | head`) is a normal way for the
                // reader to stop early, not a failure.
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: writing output failed: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(err) => {
                eprintln!("error: {err}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}");
            eprintln!();
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
