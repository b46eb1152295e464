//! Truncated generating-function polynomials, as coefficient slices.
//!
//! The PSR algorithm represents the distribution of "how many higher-ranked
//! tuples exist" as a product of per-x-tuple generating functions
//! `(1 − q) + q·z` (each x-tuple contributes at most one higher-ranked
//! tuple).  Because a top-k query never needs more than the first `k`
//! coefficients, every polynomial here is the slice of its first
//! coefficients, and each operation works on it in place — the PSR
//! scan's running product, a row of the ρ matrix, or the exact oracle's
//! per-row product:
//!
//! * [`multiply_binomial_in`] — multiply by a binomial factor `(1 − q) + q·z`,
//!   *adding* an x-tuple;
//! * [`divide_binomial_in`] — divide by such a factor, *removing* an
//!   x-tuple (the inverse of the multiplication, exact over the truncated
//!   coefficients);
//! * [`clamp_non_negative_in`] — clear the rounding residue a divide can
//!   leave below zero;
//! * [`divide_binomial_scaled_into`] and [`scale_in`] — a PSR ρ row in
//!   one pass: the (clamped) quotient by the tuple's own factor, or a
//!   re-formed product, scaled by the tuple's existential probability and
//!   summed as it is written.
//!
//! ## Division
//!
//! Dividing by `(1 − q) + q·z` is the back-substitution
//! `bⱼ = (cⱼ − q·bⱼ₋₁) / (1 − q)`, a chain in which every coefficient
//! waits for the one before it.  Every division here computes the two
//! reciprocal factors once, `1/(1 − q)` and `q/(1 − q)`, and runs the
//! chain as `bⱼ = cⱼ·(1/(1 − q)) − bⱼ₋₁·(q/(1 − q))`: one multiply and
//! one subtract per link instead of a floating-point division.  The two
//! factors each carry one rounding, so every coefficient moves by a few
//! ulps relative to the textbook form; the stability argument is the
//! same.  The back-substitution amplifies existing floating-point error
//! by `(q / (1 − q))^j` at degree `j`.  The PSR scan is the only caller
//! that divides, and only factors with `q ≤`
//! [`MAX_DIVISOR_Q`](crate::psr::MAX_DIVISOR_Q) = 0.5, where
//! `q / (1 − q) ≤ 1` and the amplification is at most 1; it re-forms its
//! running product without a heavier factor.  The delta engine never
//! divides: it rewrites changed rows with the scan and only multiplies an
//! arriving x-tuple's factor in.  [`DIVISION_REBUILD_THRESHOLD`] is only
//! the floor of a debug assertion, far below that gate.
//!
//! Every operation computes coefficient `j` from coefficients `≤ j`
//! only, so a prefix of a polynomial evolves exactly as the whole one
//! does: the property [`RankProbabilities::prefix`](crate::psr::RankProbabilities::prefix)
//! and the batched engine build on.

/// Floor of the debug assertion in [`divide_binomial_in`]: dividing by a
/// factor whose constant term `1 − q` is below it is a caller bug.  The
/// PSR scan, the only caller, never comes near it: it gates its divisions
/// on [`MAX_DIVISOR_Q`](crate::psr::MAX_DIVISOR_Q) (`1 − q ≥ 0.5`).
pub const DIVISION_REBUILD_THRESHOLD: f64 = 1e-2;

/// Multiply the polynomial with these coefficients in place by the
/// binomial `(1 − q) + q·z`, truncating to the slice's length.  Each new
/// coefficient is a convex combination of two old ones, so the product
/// never amplifies the coefficients' error.
pub fn multiply_binomial_in(coeffs: &mut [f64], q: f64) {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&q), "q = {q} out of range");
    let a = 1.0 - q;
    for j in (0..coeffs.len()).rev() {
        let from_lower = if j > 0 { coeffs[j - 1] * q } else { 0.0 };
        coeffs[j] = coeffs[j] * a + from_lower;
    }
}

/// The two factors every division runs on: `1 / (1 − q)` and
/// `q / (1 − q)` (see the module docs).
///
/// # Panics
///
/// Panics (in debug builds) if `1 − q` is below
/// [`DIVISION_REBUILD_THRESHOLD`]; callers must handle near-saturated
/// factors separately.
fn division_factors(q: f64) -> (f64, f64) {
    let a = 1.0 - q;
    debug_assert!(
        a >= DIVISION_REBUILD_THRESHOLD,
        "dividing by a near-saturated factor (q = {q}) is numerically unsafe"
    );
    (1.0 / a, q / a)
}

/// `c` with the rounding residue a divide leaves below zero cleared.
fn clamped(c: f64) -> f64 {
    if c < 0.0 {
        debug_assert!(c > -1e-5, "large negative coefficient {c}: numerical blow-up");
        0.0
    } else {
        c
    }
}

/// Divide the polynomial with these coefficients in place by the binomial
/// `(1 − q) + q·z`.
///
/// This is the exact inverse of [`multiply_binomial_in`] over the
/// truncated coefficients: if `B = A * ((1−q) + q·z)` truncated, then
/// dividing `B` recovers `A` truncated, up to rounding.
///
/// # Panics
///
/// Panics (in debug builds) if `1 − q` is below
/// [`DIVISION_REBUILD_THRESHOLD`]; callers must handle near-saturated
/// factors separately.
pub fn divide_binomial_in(coeffs: &mut [f64], q: f64) {
    let (inv, ratio) = division_factors(q);
    let mut prev = 0.0;
    for c in coeffs.iter_mut() {
        let b = *c * inv - prev * ratio;
        *c = b;
        prev = b;
    }
}

/// Clamp tiny negative coefficients (floating-point residue from repeated
/// divide/multiply cycles) back to zero.
pub fn clamp_non_negative_in(coeffs: &mut [f64]) {
    for c in coeffs.iter_mut() {
        *c = clamped(*c);
    }
}

/// Write into `out` the quotient of `coeffs` by the binomial
/// `(1 − q) + q·z`, clamped to non-negative and scaled by `scale`, and
/// return the left-to-right sum of what it wrote: a ρ row and its top-k
/// probability in one pass.  The quotient is [`divide_binomial_in`]'s,
/// so the row equals that division, a clamp and a scaling done in turn.
///
/// # Panics
///
/// Panics (in debug builds) if `1 − q` is below
/// [`DIVISION_REBUILD_THRESHOLD`].
pub fn divide_binomial_scaled_into(out: &mut [f64], coeffs: &[f64], q: f64, scale: f64) -> f64 {
    debug_assert_eq!(out.len(), coeffs.len());
    let (inv, ratio) = division_factors(q);
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (o, &c) in out.iter_mut().zip(coeffs) {
        let b = c * inv - prev * ratio;
        prev = b;
        let v = clamped(b) * scale;
        *o = v;
        sum += v;
    }
    sum
}

/// Scale the coefficients in place by `scale` and return the
/// left-to-right sum of the scaled values.
pub fn scale_in(coeffs: &mut [f64], scale: f64) -> f64 {
    let mut sum = 0.0;
    for c in coeffs.iter_mut() {
        *c *= scale;
        sum += *c;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{a:?} != {b:?}");
        }
    }

    /// The constant polynomial `1`, truncated to `len` coefficients.
    fn one(len: usize) -> Vec<f64> {
        let mut coeffs = vec![0.0; len];
        coeffs[0] = 1.0;
        coeffs
    }

    #[test]
    fn one_is_the_multiplicative_identity() {
        // 1 · ((1 − q) + q·z) is the binomial itself.
        let mut p = one(4);
        multiply_binomial_in(&mut p, 0.25);
        assert_eq!(p, [0.75, 0.25, 0.0, 0.0]);
    }

    #[test]
    fn multiplying_binomials_builds_poisson_binomial() {
        // Two independent events with probabilities 0.3 and 0.5:
        // P[0] = 0.35, P[1] = 0.5, P[2] = 0.15.
        let mut p = one(3);
        multiply_binomial_in(&mut p, 0.3);
        multiply_binomial_in(&mut p, 0.5);
        assert_close(&p, &[0.35, 0.5, 0.15]);
    }

    #[test]
    fn truncation_drops_high_coefficients() {
        let mut p = one(2);
        multiply_binomial_in(&mut p, 0.3);
        multiply_binomial_in(&mut p, 0.5);
        // Degree-2 coefficient is discarded.
        assert_close(&p, &[0.35, 0.5]);
    }

    #[test]
    fn division_inverts_multiplication() {
        let mut p = one(5);
        for &q in &[0.2, 0.7, 0.01, 0.5] {
            multiply_binomial_in(&mut p, q);
        }
        let before = p.clone();
        multiply_binomial_in(&mut p, 0.33);
        divide_binomial_in(&mut p, 0.33);
        assert_close(&p, &before);
    }

    #[test]
    fn division_is_exact_even_after_truncation() {
        // Multiply five factors into a degree-2 truncation, then remove one;
        // the result must equal the product of the remaining four.
        let factors = [0.1, 0.4, 0.6, 0.9, 0.25];
        let mut all = one(3);
        for &q in &factors {
            multiply_binomial_in(&mut all, q);
        }
        divide_binomial_in(&mut all, 0.6);

        let mut expected = one(3);
        for &q in &[0.1, 0.4, 0.9, 0.25] {
            multiply_binomial_in(&mut expected, q);
        }
        assert_close(&all, &expected);
    }

    #[test]
    fn a_fused_row_is_the_divide_clamp_and_scale_done_in_turn() {
        let mut p = one(6);
        for &q in &[0.2, 0.45, 0.05, 0.5, 0.3] {
            multiply_binomial_in(&mut p, q);
        }
        // Dividing out one of the five factors leaves a degree-5
        // coefficient of 0; nudged down, it lands just below zero, where
        // the clamp clears it.
        p[5] -= 1e-12;
        for (q, scale) in [(0.45, 0.7), (0.0, 0.25), (0.5, 1.0)] {
            let mut by_steps = p.clone();
            divide_binomial_in(&mut by_steps, q);
            clamp_non_negative_in(&mut by_steps);
            let sum: f64 = by_steps.iter_mut().fold(0.0, |sum, c| {
                *c *= scale;
                sum + *c
            });
            let mut fused = vec![f64::NAN; p.len()];
            let fused_sum = divide_binomial_scaled_into(&mut fused, &p, q, scale);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&by_steps), "q = {q}");
            assert_eq!(fused_sum.to_bits(), sum.to_bits(), "q = {q}");
            assert!(fused.iter().all(|&c| c >= 0.0));
            let mut scaled = p.clone();
            let scaled_sum = scale_in(&mut scaled, scale);
            assert_eq!(scaled_sum.to_bits(), scaled.iter().fold(0.0, |s, c| s + c).to_bits());
        }
    }

    #[test]
    fn multiply_by_zero_probability_is_identity() {
        let mut p = vec![0.2, 0.3, 0.5];
        multiply_binomial_in(&mut p, 0.0);
        assert_close(&p, &[0.2, 0.3, 0.5]);
    }

    #[test]
    fn multiply_by_one_shifts_coefficients() {
        let mut p = vec![0.2, 0.3, 0.5];
        multiply_binomial_in(&mut p, 1.0);
        assert_close(&p, &[0.0, 0.2, 0.3]);
    }

    #[test]
    fn clamp_removes_tiny_negative_residue() {
        let mut p = vec![-1e-15, 0.5];
        clamp_non_negative_in(&mut p);
        assert_eq!(p, [0.0, 0.5]);
    }

    #[test]
    fn coefficients_remain_a_distribution_under_random_ops() {
        // Multiply a batch of factors; coefficients of the untruncated
        // polynomial must sum to 1. Use a truncation long enough to hold all.
        let qs = [0.13, 0.5, 0.77, 0.02, 0.9, 0.33];
        let mut p = one(qs.len() + 1);
        for &q in &qs {
            multiply_binomial_in(&mut p, q);
        }
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&c| c >= 0.0));
    }
}
