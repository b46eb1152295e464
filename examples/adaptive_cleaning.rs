//! Static plan vs adaptive re-planning (the paper's future-work question).
//!
//! The paper commits to a cleaning plan up front; when a probe succeeds
//! early or keeps failing, the leftover budget is not redirected.  This
//! example compares the realised quality improvement of the static greedy
//! plan against the adaptive policy that re-plans after every observed
//! probe outcome, on the same sensor database and budget — and shows the
//! incremental delta engine doing that re-planning with one PSR run per
//! *session* instead of one per *probe*.
//!
//! Run with `cargo run --release --example adaptive_cleaning`.

use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;
use uncertain_topk::clean::{run_adaptive_session_with, ReplanMode};
use uncertain_topk::gen::cleaning_params::{generate as gen_params, CleaningParamsConfig};
use uncertain_topk::gen::synthetic::{generate_ranked, SyntheticConfig};
use uncertain_topk::prelude::*;

fn main() {
    let db =
        generate_ranked(&SyntheticConfig { num_x_tuples: 300, ..SyntheticConfig::paper_default() })
            .expect("generation succeeds");
    let k = 10;
    let budget = 40;
    let ctx = CleaningContext::prepare(&db, k).expect("valid k");
    let params = gen_params(db.num_x_tuples(), &CleaningParamsConfig::default());
    let setup = CleaningSetup::new(params.costs, params.sc_probs).expect("valid setup");

    let static_plan = plan_greedy(&ctx, &setup, budget).expect("greedy plan");
    let static_expected = expected_improvement(&ctx, &setup, &static_plan);
    println!(
        "database: {} x-tuples, quality {:.3}; budget {budget} units",
        db.num_x_tuples(),
        ctx.quality
    );
    println!(
        "static greedy plan: {} probes, expected improvement {static_expected:.3}",
        static_plan.total_attempts()
    );

    let trials = 100;
    let mut static_total = 0.0;
    let mut adaptive_total = 0.0;
    let mut adaptive_probes = 0u64;
    let mut rewritten = 0usize;
    let mut copied = 0usize;
    let mut mode_times = [0.0f64; 2];
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(trial);
        if let Some(cleaned) =
            simulate_cleaning(&db, &setup, &static_plan, &mut rng).expect("valid plan")
        {
            static_total += quality_tp(&cleaned, k).expect("quality computable") - ctx.quality;
        }
        // The same probe stream drives both re-planning modes, so their
        // sessions take identical probes; only the wall-clock differs.
        for (slot, mode) in [ReplanMode::Incremental, ReplanMode::FullRebuild].iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(50_000 + trial);
            let start = Instant::now();
            let outcome = run_adaptive_session_with(&db, &setup, k, budget, *mode, &mut rng)
                .expect("session runs");
            mode_times[slot] += start.elapsed().as_secs_f64() * 1e3;
            if *mode == ReplanMode::Incremental {
                adaptive_total += outcome.improvement();
                adaptive_probes += outcome.probes;
                rewritten += outcome.delta_stats.rows_rebuilt;
                copied += outcome.delta_stats.rows_copied;
            }
        }
    }
    let t = trials as f64;
    println!("\naveraged over {trials} simulated campaigns:");
    println!("  static  realised improvement : {:.3}", static_total / t);
    println!(
        "  adaptive realised improvement : {:.3}  ({:.1} probes per campaign)",
        adaptive_total / t,
        adaptive_probes as f64 / t
    );
    println!("\nre-planning cost per campaign (same probes, same outcomes):");
    println!("  incremental deltas  : {:.2} ms  (one PSR run per session)", mode_times[0] / t);
    println!("  full rebuilds       : {:.2} ms  (one PSR run per probe)", mode_times[1] / t);
    println!(
        "  delta rows per campaign: {:.1} rewritten, {:.1} copied",
        rewritten as f64 / t,
        copied as f64 / t
    );
    println!("\nThe adaptive policy redirects budget away from already-cleaned or");
    println!("hopeless entities, so its realised improvement is at least the static plan's.");
}
