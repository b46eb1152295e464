//! Generators shared by the PSR and delta-engine property suites.

use pdb_core::RankedDatabase;
use proptest::collection::vec;
use proptest::prelude::*;

/// Clustered null-mass databases, the regime where PSR freezes passed
/// x-tuples out of its running product: 5–40 x-tuples, each with 1–5
/// alternatives inside one 6-point score band and a total mass in
/// [0.55, 0.999], so every factor crosses `MAX_DIVISOR_Q` and none
/// saturates.  Band centres share a 0–100 range, so a frozen
/// ill-conditioned factor often sits next to an in-flight one.
pub fn clustered_null_mass_db() -> impl Strategy<Value = RankedDatabase> {
    let x_tuple = (0.0f64..100.0, vec((0.0f64..6.0, 0.05f64..1.0), 1..6), 0.55f64..0.999).prop_map(
        |(centre, alts, mass)| {
            let total: f64 = alts.iter().map(|(_, w)| w).sum();
            alts.into_iter().map(|(offset, w)| (centre + offset, w / total * mass)).collect()
        },
    );
    vec(x_tuple, 5..41).prop_map(|x: Vec<Vec<(f64, f64)>>| {
        RankedDatabase::from_scored_x_tuples(&x).expect("generated x-tuples are valid")
    })
}
