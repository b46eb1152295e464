//! Experiment scale: paper-faithful parameters vs a quick smoke-test scale.
//!
//! The paper's experiments run on databases of up to a million tuples and
//! budgets of up to 100 000 units; reproducing every point at full size
//! takes hours.  Each experiment therefore exposes two parameterisations:
//!
//! * [`Scale::Paper`] — the sizes and sweeps of the paper (subject to the
//!   caps documented in each experiment's notes, e.g. PW only runs where
//!   the possible-world count is tractable);
//! * [`Scale::Quick`] — a scaled-down version that preserves every series
//!   and the qualitative shape while finishing in seconds.  This is what
//!   the integration tests and the default CLI invocation use.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Which parameterisation of an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Scale {
    /// Scaled-down parameters: every series present, seconds to run.
    #[default]
    Quick,
    /// The paper's parameters (with documented caps on the intractable
    /// baselines).
    Paper,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "quick" | "smoke" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Pick `quick` or `paper` value depending on the scale.
    pub fn pick<T>(&self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        })
    }
}

/// Time a closure, returning its result and the elapsed wall-clock time in
/// milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, duration_ms(start.elapsed()))
}

/// Runs behind a best-of timing ([`min_time_ms`]).
const TIMING_REPS: usize = 5;

/// Run a fallible closure five times, returning its last result and the
/// fastest run's wall-clock milliseconds; the first error stops the runs.
/// The `batch-q` experiment and `pdb batch` time each side of their
/// comparison this way: the workloads are deterministic, so the minimum
/// is the least noisy estimator (shared runners and frequency scaling
/// only ever add time).
pub fn min_time_ms<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let (mut out, mut best) = time_ms(&mut f);
    for _ in 1..TIMING_REPS {
        out?;
        let (next, ms) = time_ms(&mut f);
        (out, best) = (next, best.min(ms));
    }
    out.map(|value| (value, best))
}

/// Convert a [`Duration`] to fractional milliseconds.
pub fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_and_display() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Quick.to_string(), "quick");
        assert_eq!(Scale::default(), Scale::Quick);
    }

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }

    #[test]
    fn min_time_runs_every_repetition_and_stops_at_an_error() {
        let mut runs = 0;
        let (value, ms) = min_time_ms(|| -> Result<usize, ()> {
            runs += 1;
            Ok(runs)
        })
        .unwrap();
        assert_eq!((runs, value), (TIMING_REPS, TIMING_REPS));
        assert!(ms >= 0.0);
        let mut runs = 0;
        let failed = min_time_ms(|| {
            runs += 1;
            if runs == 2 {
                Err("second run")
            } else {
                Ok(())
            }
        });
        assert_eq!((runs, failed), (2, Err("second run")));
    }

    #[test]
    fn timing_returns_result_and_positive_duration() {
        let (value, ms) = time_ms(|| (0..1000).sum::<u64>());
        assert_eq!(value, 499_500);
        assert!(ms >= 0.0);
        assert!(duration_ms(Duration::from_millis(250)) - 250.0 < 1e-9);
    }
}
