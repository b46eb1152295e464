//! Sensor-network monitoring scenario.
//!
//! The paper's motivating application: a base station maintains the latest
//! (stale, noisy) reading of thousands of sensors and wants to report the
//! top-k hottest regions.  This example
//!
//! 1. generates a synthetic sensor database (Gaussian uncertainty, as in
//!    the paper's evaluation),
//! 2. answers a PT-k query and measures how trustworthy the answer is,
//! 3. spends a limited probing budget (greedy vs uniform-random) and
//!    compares the expected quality improvement, and
//! 4. verifies the expected improvement by Monte-Carlo simulation of the
//!    actual probing.
//!
//! Run with `cargo run --release --example sensor_network`.

use rand::{rngs::StdRng, SeedableRng};
use uncertain_topk::gen::synthetic::{generate_ranked, SyntheticConfig, UncertaintyPdf};
use uncertain_topk::prelude::*;

fn main() {
    // 1. A 1 000-sensor deployment; each sensor's reading is a Gaussian
    //    histogram over its uncertainty interval.
    let config = SyntheticConfig {
        num_x_tuples: 1_000,
        pdf: UncertaintyPdf::Gaussian { sigma: 100.0 },
        ..SyntheticConfig::paper_default()
    };
    let db = generate_ranked(&config).expect("generation succeeds");
    println!("sensor database: {} sensors, {} readings", db.num_x_tuples(), db.len());

    // 2. Which sensors are plausibly among the 15 hottest?
    let k = 15;
    let query = WeightedQuery::new(TopKQuery::PTk { k, threshold: 0.1 });
    let batch = BatchQuality::new(&db, vec![query]).expect("valid k");
    let answer = pt_k(&db, batch.evaluation().master(), 0.1).expect("valid threshold");
    let quality = batch.aggregate_quality();
    println!("PT-{k} answer holds {} sensors; PWS-quality = {quality:.2}", answer.len());

    // 3. Probing plan: costs 1-10 units per probe, success probability
    //    drawn uniformly, budget 100 units.
    let params = uncertain_topk::gen::cleaning_params::generate(
        db.num_x_tuples(),
        &uncertain_topk::gen::cleaning_params::CleaningParamsConfig::default(),
    );
    let setup = CleaningSetup::new(params.costs, params.sc_probs).expect("valid setup");
    let ctx = CleaningContext::from_batch(&batch);
    let budget = 100;

    let greedy = plan_greedy(&ctx, &setup, budget).expect("greedy plan");
    let mut rng = StdRng::seed_from_u64(42);
    let random = plan_rand_u(&ctx, &setup, budget, &mut rng).expect("random plan");

    let greedy_gain = expected_improvement(&ctx, &setup, &greedy);
    let random_gain = expected_improvement(&ctx, &setup, &random);
    println!("\nbudget = {budget} units");
    println!(
        "  greedy probing : {} sensors, expected improvement {greedy_gain:.3}",
        greedy.selected().len()
    );
    println!(
        "  random probing : {} sensors, expected improvement {random_gain:.3}",
        random.selected().len()
    );

    // 4. Does the closed-form expectation match reality?  Execute the
    //    greedy plan 200 times and average the observed improvement.
    let trials = 200;
    let mut total = 0.0;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(1_000 + trial);
        let cleaned = simulate_cleaning(&db, &setup, &greedy, &mut rng)
            .expect("valid plan")
            .expect("sensors never vanish entirely");
        total += quality_tp(&cleaned, k).expect("quality computable") - quality;
    }
    println!(
        "  Monte-Carlo check: mean observed improvement over {trials} runs = {:.3}",
        total / trials as f64
    );
}
