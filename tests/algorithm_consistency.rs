//! Cross-algorithm consistency checks on randomly generated databases.
//!
//! The efficient algorithms (incremental PSR, PWR, TP) must agree with the
//! brute-force possible-world oracles on every database small enough to
//! enumerate; these tests sweep a range of random shapes, including
//! sub-full probability mass (implicit null alternatives), near-certain
//! tuples and duplicate scores.

use rand::{rngs::StdRng, Rng, SeedableRng};
use uncertain_topk::engine::oracle::rank_probabilities_by_enumeration;
use uncertain_topk::prelude::*;

/// Build a random ranked database with `m` x-tuples.
fn random_db(rng: &mut StdRng, m: usize, allow_null_mass: bool) -> RankedDatabase {
    let mut x_tuples = Vec::new();
    for _ in 0..m {
        let alts = rng.gen_range(1..=4);
        let mut remaining: f64 = 1.0;
        let mut v = Vec::new();
        for a in 0..alts {
            let p = if a == alts - 1 && !allow_null_mass {
                remaining
            } else {
                remaining * rng.gen_range(0.1..0.9)
            };
            remaining -= p;
            // Scores are drawn from a small integer domain to exercise the
            // tie-breaking logic.
            v.push((rng.gen_range(0..40) as f64, p));
        }
        x_tuples.push(v);
    }
    RankedDatabase::from_scored_x_tuples(&x_tuples).unwrap()
}

#[test]
fn psr_matches_the_possible_world_oracle() {
    let mut rng = StdRng::seed_from_u64(2013);
    for trial in 0..30 {
        let allow_null = trial % 2 == 0;
        let m = rng.gen_range(2..8);
        let db = random_db(&mut rng, m, allow_null);
        let k = rng.gen_range(1..6);
        let fast = rank_probabilities(&db, k).unwrap();
        let slow = rank_probabilities_by_enumeration(&db, k).unwrap();
        for pos in 0..db.len() {
            for h in 1..=k {
                assert!(
                    (fast.rank_prob(pos, h) - slow.rank_prob(pos, h)).abs() < 1e-9,
                    "trial {trial}, tuple {pos}, rank {h}"
                );
            }
            assert!(
                (fast.top_k_prob(pos) - slow.top_k_prob(pos)).abs() < 1e-9,
                "trial {trial}, tuple {pos}"
            );
        }
    }
}

#[test]
fn the_three_quality_algorithms_agree() {
    let mut rng = StdRng::seed_from_u64(777);
    for trial in 0..30 {
        let allow_null = trial % 3 == 0;
        let m = rng.gen_range(2..7);
        let db = random_db(&mut rng, m, allow_null);
        let k = rng.gen_range(1..5);
        let pw = quality_pw(&db, k).unwrap();
        let pwr = quality_pwr(&db, k).unwrap();
        let tp = quality_tp(&db, k).unwrap();
        assert!((pw - pwr).abs() < 1e-8, "trial {trial}: PW {pw} vs PWR {pwr}");
        assert!((pw - tp).abs() < 1e-8, "trial {trial}: PW {pw} vs TP {tp}");
        assert!(pw <= 1e-12, "quality is never positive");
    }
}

#[test]
fn exact_and_incremental_psr_agree_on_larger_databases() {
    let mut rng = StdRng::seed_from_u64(31337);
    for _ in 0..3 {
        let db = random_db(&mut rng, 300, true);
        for &k in &[1usize, 10, 40] {
            let fast = rank_probabilities(&db, k).unwrap();
            let exact = rank_probabilities_exact(&db, k).unwrap();
            for pos in 0..db.len() {
                assert!((fast.top_k_prob(pos) - exact.top_k_prob(pos)).abs() < 1e-8);
            }
        }
    }
}

#[test]
fn query_semantics_agree_with_definitions() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..10 {
        let db = random_db(&mut rng, 6, false);
        let k = 3;
        let rp = rank_probabilities(&db, k).unwrap();

        // PT-k: exactly the tuples whose top-k probability clears the bar.
        let threshold = 0.25;
        let answer = pt_k(&db, &rp, threshold).unwrap();
        for pos in 0..db.len() {
            assert_eq!(
                answer.contains_position(pos),
                rp.top_k_prob(pos) >= threshold,
                "PT-k membership must follow the threshold"
            );
        }

        // Global-topk: no excluded tuple may beat an included one.
        let global = global_topk(&db, &rp);
        let included = global.positions();
        let worst_included =
            included.iter().map(|&p| rp.top_k_prob(p)).fold(f64::INFINITY, f64::min);
        for pos in 0..db.len() {
            if !included.contains(&pos) {
                assert!(rp.top_k_prob(pos) <= worst_included + 1e-12);
            }
        }

        // U-kRanks winners carry the per-rank maximum probability.
        let uk = u_k_ranks(&db, &rp);
        for (h0, winner) in uk.winners.iter().enumerate() {
            let best = (0..db.len()).map(|p| rp.rank_prob(p, h0 + 1)).fold(0.0, f64::max);
            match winner {
                Some(w) => assert!((w.prob - best).abs() < 1e-12),
                None => assert_eq!(best, 0.0),
            }
        }
    }
}

#[test]
fn shared_evaluation_matches_standalone_runs() {
    let mut rng = StdRng::seed_from_u64(4242);
    let db = random_db(&mut rng, 50, true);
    let k = 8;
    // One PSR run at k serves all three semantics and their quality.
    let queries = [
        TopKQuery::PTk { k, threshold: 0.1 },
        TopKQuery::GlobalTopk { k },
        TopKQuery::UKRanks { k },
    ];
    let shared =
        BatchQuality::new(&db, queries.iter().map(|&q| WeightedQuery::new(q)).collect()).unwrap();
    for quality in shared.quality_vector() {
        assert!((quality - quality_tp(&db, k).unwrap()).abs() < 1e-12);
    }

    let rp = rank_probabilities(&db, k).unwrap();
    let answers = shared.answers().unwrap();
    assert_eq!(answers[0], QueryAnswer::TupleSet(pt_k(&db, &rp, 0.1).unwrap()));
    assert_eq!(answers[1], QueryAnswer::TupleSet(global_topk(&db, &rp)));
    assert_eq!(answers[2], QueryAnswer::UKRanks(u_k_ranks(&db, &rp)));

    // The quality breakdown used by the cleaning problem sums to the score.
    let sum: f64 = shared.aggregate_breakdown().iter().sum();
    assert!((sum - shared.aggregate_quality()).abs() < 1e-9);
}

#[test]
fn psr_stores_a_small_live_prefix_on_the_synthetic_dataset() {
    // 10³ complete x-tuples × 10 bars: the 50th x-tuple to complete does so
    // a few hundred positions down, and Lemma 2 makes every later row zero,
    // so PSR at k = 50 stores under a tenth of the 10⁴ rows.
    let db = uncertain_topk::gen::synthetic::generate_ranked(&SyntheticConfig::with_total_tuples(
        10_000,
    ))
    .unwrap();
    let k = 50;
    let rp = rank_probabilities(&db, k).unwrap();
    assert_eq!(rp.num_tuples(), 10_000);
    assert!(rp.live_rows() < db.len() / 10, "{} live rows", rp.live_rows());
    assert_eq!(rp.top_k_probs().len(), rp.live_rows());
    assert_eq!(rp.top_k_prob(db.len() - 1), 0.0);
    // Every possible world holds ≥ k tuples, so the stored prefix alone
    // carries the whole expected answer size.
    assert!((rp.expected_answer_size() - k as f64).abs() < 1e-9);
    // The batch and quality layers serve from the same prefix.
    let batch = BatchQuality::new(&db, vec![WeightedQuery::new(TopKQuery::UKRanks { k })]).unwrap();
    assert_eq!(batch.combined_top_k_probs().len(), rp.live_rows());
    assert!((batch.aggregate_quality() - quality_tp(&db, k).unwrap()).abs() < 1e-9);
}

/// A probe outcome drawn from x-tuple `l`'s own distribution: a collapse
/// to one of its alternatives, or to null with its null mass.
fn sample_outcome(db: &RankedDatabase, l: usize, rng: &mut StdRng) -> XTupleMutation {
    let info = db.x_tuple(l);
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for &pos in &info.members {
        acc += db.tuple(pos).prob;
        if u < acc {
            return XTupleMutation::CollapseToAlternative { keep_pos: pos };
        }
    }
    if info.has_null() {
        XTupleMutation::CollapseToNull
    } else {
        // A complete x-tuple's masses may sum to 1 − a few ulps.
        XTupleMutation::CollapseToAlternative { keep_pos: *info.members.last().unwrap() }
    }
}

/// Run `steps` recommended collapses on `db` the way a cleaning session
/// does, and return the largest distance of the delta-maintained master
/// matrix from a fresh PSR run on the final database: over every ρ entry
/// and over every top-k probability.
fn collapse_chain_drift(db: RankedDatabase, seed: u64, steps: usize) -> (f64, f64) {
    let specs = vec![
        WeightedQuery::new(TopKQuery::UKRanks { k: 5 }),
        WeightedQuery::new(TopKQuery::PTk { k: 15, threshold: 0.1 }),
        WeightedQuery::new(TopKQuery::GlobalTopk { k: 50 }),
    ];
    let mut batch = BatchQuality::from_owned(db, specs).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        let ctx = CleaningContext::from_batch(&batch);
        let setup = CleaningSetup::uniform(ctx.num_x_tuples(), 1, 0.5).unwrap();
        let Some((l, _)) = best_single_probe(&ctx, &setup) else { break };
        let mutation = sample_outcome(batch.database(), l, &mut rng);
        batch.apply_collapse_in_place(l, &mutation).unwrap();
    }
    let (db, master) = (batch.database(), batch.evaluation().master());
    let fresh = rank_probabilities(db, master.k()).unwrap();
    let (mut rho_err, mut p_err) = (0.0f64, 0.0f64);
    for pos in 0..db.len() {
        for h in 1..=master.k() {
            rho_err = rho_err.max((master.rank_prob(pos, h) - fresh.rank_prob(pos, h)).abs());
        }
        p_err = p_err.max((master.top_k_prob(pos) - fresh.top_k_prob(pos)).abs());
    }
    (rho_err, p_err)
}

/// Chains of 50 recommended collapses, one per seed, on the database
/// `db(seed)` builds: at the end of each, every ρ entry and every top-k
/// probability lies within 1e-12 of a fresh PSR run.  A delta pass that
/// patches stored rows instead of rewriting them drifts past that on some
/// of the complete chains.
fn assert_collapse_chains_stay_exact(name: &str, db: impl Fn(u64) -> RankedDatabase) {
    for seed in 0..8 {
        let (rho_err, p_err) = collapse_chain_drift(db(seed), seed, 50);
        assert!(
            rho_err <= 1e-12 && p_err <= 1e-12,
            "{name} seed {seed}: ρ off by {rho_err:e}, p off by {p_err:e}"
        );
    }
}

#[test]
fn collapse_chains_on_complete_synthetic_data_stay_exact() {
    // The paper's synthetic data at 10⁴ tuples: Lemma 2 cuts the table.
    assert_collapse_chains_stay_exact("complete", |seed| {
        let config = SyntheticConfig { seed, ..SyntheticConfig::with_total_tuples(10_000) };
        uncertain_topk::gen::synthetic::generate_ranked(&config).unwrap()
    });
}

#[test]
fn collapse_chains_on_null_mass_synthetic_data_stay_exact() {
    // The same generator's x-tuples at 3·10³ tuples, rescaled to totals in
    // [0.6, 0.99): nothing saturates, so every row is live.
    assert_collapse_chains_stay_exact("null mass", |seed| {
        let config = SyntheticConfig { seed, ..SyntheticConfig::with_total_tuples(3_000) };
        let mut rng = StdRng::seed_from_u64(seed);
        let x_tuples: Vec<Vec<(f64, f64)>> = uncertain_topk::gen::synthetic::generate(&config)
            .unwrap()
            .x_tuples()
            .iter()
            .map(|xt| {
                let total = rng.gen_range(0.6..0.99);
                let mass: f64 = xt.iter().map(|t| t.prob).sum();
                xt.iter().map(|t| (t.payload, t.prob * total / mass)).collect()
            })
            .collect();
        RankedDatabase::from_scored_x_tuples(&x_tuples).unwrap()
    });
}
