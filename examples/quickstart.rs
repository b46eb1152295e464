//! Quickstart: the paper's running example end to end.
//!
//! Builds the sensor database of Table I (`udb1`), answers a PT-2 query,
//! computes its PWS-quality, and then asks the greedy cleaner how to spend
//! a budget of 3 probes to make the answer less ambiguous — reproducing the
//! udb1 → udb2 story of the paper's introduction.
//!
//! Run with `cargo run --example quickstart`.

use uncertain_topk::core::examples;
use uncertain_topk::prelude::*;

fn main() {
    // Table I: four temperature sensors, seven alternative readings.
    let db = examples::udb1().rank_by(&ScoreRanking);
    println!("udb1: {} sensors, {} alternative readings", db.num_x_tuples(), db.len());

    // One PSR run answers the query *and* scores its quality (Section IV-C).
    let query = WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 });
    let batch = BatchQuality::new(&db, vec![query]).expect("k = 2 is valid");
    let answer = pt_k(&db, batch.evaluation().master(), 0.4).expect("threshold 0.4 is valid");
    println!("\nPT-2 answer (threshold 0.4):");
    for tuple in &answer.tuples {
        let t = db.tuple(tuple.position);
        println!("  {} = {:.0} deg C   Pr[top-2] = {:.3}", t.id, t.score, tuple.prob);
    }
    let quality = batch.aggregate_quality();
    println!("\nPWS-quality of the answer: {quality:.2}  (paper: -2.55)");

    // Cleaning: each sensor can be probed for 1 unit and answers with
    // probability 0.8; we may spend at most 3 units.
    let ctx = CleaningContext::from_batch(&batch);
    let setup = CleaningSetup::uniform(db.num_x_tuples(), 1, 0.8).expect("valid setup");
    let plan = plan_greedy(&ctx, &setup, 3).expect("planning succeeds");
    println!("\nGreedy cleaning plan under a budget of 3 probes:");
    for l in plan.selected() {
        println!("  probe {} ({} attempts)", db.x_tuple(l).key, plan.count(l));
    }
    let gain = expected_improvement(&ctx, &setup, &plan);
    println!("expected quality after cleaning: {:.2} (improvement {gain:.2})", quality + gain);

    // Simulate actually executing the plan once.
    let mut rng = rand::thread_rng();
    if let Some(cleaned) = simulate_cleaning(&db, &setup, &plan, &mut rng).expect("valid plan") {
        let after = quality_tp(&cleaned, 2).expect("quality computable");
        println!("one simulated cleaning run produced quality {after:.2}");
    }
}
