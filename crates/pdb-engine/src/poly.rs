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
//!   leave below zero.
//!
//! Division is numerically delicate when `1 − q` is small: its
//! back-substitution amplifies existing floating-point error by
//! `(q / (1 − q))^j` at degree `j`.  The PSR scan is the only caller that
//! divides, and only factors with `q ≤`
//! [`MAX_DIVISOR_Q`](crate::psr::MAX_DIVISOR_Q) = 0.5, where the
//! amplification is at most 1; it re-forms its running product without a
//! heavier factor.  The delta engine never divides: it rewrites changed
//! rows with the scan and only multiplies an arriving x-tuple's factor
//! in.  [`DIVISION_REBUILD_THRESHOLD`] is only the floor of a debug
//! assertion, far below that gate.

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

/// Divide the polynomial with these coefficients in place by the binomial
/// `(1 − q) + q·z`.
///
/// This is the exact inverse of [`multiply_binomial_in`] over the
/// truncated coefficients: if `B = A * ((1−q) + q·z)` truncated, then
/// dividing `B` recovers `A` truncated.
///
/// # Panics
///
/// Panics (in debug builds) if `1 − q` is below
/// [`DIVISION_REBUILD_THRESHOLD`]; callers must handle near-saturated
/// factors separately.
pub fn divide_binomial_in(coeffs: &mut [f64], q: f64) {
    let a = 1.0 - q;
    debug_assert!(
        a >= DIVISION_REBUILD_THRESHOLD,
        "dividing by a near-saturated factor (q = {q}) is numerically unsafe"
    );
    let mut prev = 0.0;
    for c in coeffs.iter_mut() {
        let b = (*c - prev * q) / a;
        *c = b;
        prev = b;
    }
}

/// Clamp tiny negative coefficients (floating-point residue from repeated
/// divide/multiply cycles) back to zero.
pub fn clamp_non_negative_in(coeffs: &mut [f64]) {
    for c in coeffs.iter_mut() {
        if *c < 0.0 {
            debug_assert!(*c > -1e-5, "large negative coefficient {c}: numerical blow-up");
            *c = 0.0;
        }
    }
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
