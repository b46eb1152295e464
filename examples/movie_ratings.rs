//! Movie-rating integration scenario (the paper's MOV dataset).
//!
//! A rating system integrated from several sources stores, for every
//! (movie, viewer) pair, a handful of alternative ratings with confidence
//! values.  A Global-topk query asks for the k most recent, highest-rated
//! entries; cleaning means phoning the viewer to confirm which rating is
//! real.  This example compares all three query semantics on the MOV
//! stand-in and plans a calling campaign under a budget.
//!
//! Run with `cargo run --release --example movie_ratings`.

use rand::{rngs::StdRng, SeedableRng};
use uncertain_topk::gen::mov::{generate_ranked, MovConfig};
use uncertain_topk::prelude::*;

fn main() {
    let db = generate_ranked(&MovConfig { num_x_tuples: 2_000, ..MovConfig::paper_default() })
        .expect("generation succeeds");
    println!(
        "movie-rating database: {} (movie, viewer) pairs, {} alternative ratings",
        db.num_x_tuples(),
        db.len()
    );

    let k = 10;
    // One PSR run at k; its quality is the same for every semantics.
    let batch = BatchQuality::new(&db, vec![WeightedQuery::new(TopKQuery::GlobalTopk { k })])
        .expect("valid k");
    let rp = batch.evaluation().master();

    // The three semantics studied in the paper, answered from one PSR run.
    let global = global_topk(&db, rp);
    println!("\nGlobal-top{k} (most certainly recent & well-rated):");
    for entry in global.tuples.iter().take(5) {
        let t = db.tuple(entry.position);
        println!("  {}  score {:.3}  Pr[top-{k}] = {:.3}", t.id, t.score, entry.prob);
    }
    let ptk = pt_k(&db, rp, 0.3).expect("valid threshold");
    println!("PT-{k} with threshold 0.3 returns {} ratings", ptk.len());
    let ukranks = u_k_ranks(&db, rp);
    println!("U-kRanks winners (rank 1..3):");
    for (h, winner) in ukranks.winners.iter().take(3).enumerate() {
        match winner {
            Some(w) => println!("  rank {}: {} with probability {:.3}", h + 1, w.id, w.prob),
            None => println!("  rank {}: unreachable", h + 1),
        }
    }

    let quality = batch.aggregate_quality();
    println!("\nPWS-quality of the top-{k} answer: {quality:.3}");

    // Calling campaign: each viewer call costs 1-10 units and reaches the
    // viewer with the generated sc-probability; budget 50 units.
    let params = uncertain_topk::gen::cleaning_params::generate(
        db.num_x_tuples(),
        &uncertain_topk::gen::cleaning_params::CleaningParamsConfig::default(),
    );
    let setup = CleaningSetup::new(params.costs, params.sc_probs).expect("valid setup");
    let ctx = CleaningContext::from_batch(&batch);
    let budget = 50;
    let mut rng = StdRng::seed_from_u64(7);

    println!("\ncalling campaign under a budget of {budget} units:");
    for algo in CleaningAlgorithm::ALL {
        let plan = algo.plan(&ctx, &setup, budget, &mut rng).expect("planning succeeds");
        let gain = expected_improvement(&ctx, &setup, &plan);
        println!(
            "  {:6} -> call {:2} viewers ({:2} attempts), expected improvement {gain:.3}",
            algo.name(),
            plan.selected().len(),
            plan.total_attempts()
        );
    }
}
