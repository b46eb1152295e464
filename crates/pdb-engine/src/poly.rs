//! Truncated generating-function polynomials.
//!
//! The PSR algorithm represents the distribution of "how many higher-ranked
//! tuples exist" as a product of per-x-tuple generating functions
//! `(1 − q) + q·z` (each x-tuple contributes at most one higher-ranked
//! tuple).  Because a top-k query never needs more than the first `k`
//! coefficients, all polynomials here are truncated to a fixed degree.
//!
//! [`TruncatedPoly`] supports the three operations PSR needs:
//!
//! * multiply by a binomial factor `(1 − q) + q·z` — *adding* an x-tuple;
//! * divide by such a factor — *removing* an x-tuple (the inverse of the
//!   multiplication, exact over the truncated coefficients);
//! * read coefficients.
//!
//! Division is numerically delicate when `1 − q` is small: its
//! back-substitution amplifies existing floating-point error by
//! `(q / (1 − q))^j` at degree `j`.  Callers therefore divide only factors
//! with `q ≤` [`MAX_DIVISOR_Q`](crate::psr::MAX_DIVISOR_Q) = 0.5, where
//! the amplification is at most 1.  The PSR scan re-forms its running
//! product without a heavier factor, and the delta engine rebuilds the
//! rows whose divided factor is heavier.  [`DIVISION_REBUILD_THRESHOLD`]
//! is only the floor of a debug assertion, far below that gate.

/// Floor of the debug assertion in [`divide_binomial_in`]: dividing by a
/// factor whose constant term `1 − q` is below it is a caller bug.  The
/// PSR scan and the delta engine never come near it: both gate their
/// divisions on [`MAX_DIVISOR_Q`](crate::psr::MAX_DIVISOR_Q)
/// (`1 − q ≥ 0.5`).
pub const DIVISION_REBUILD_THRESHOLD: f64 = 1e-2;

/// A polynomial truncated to a fixed number of coefficients (degree
/// `len − 1`), with non-negative coefficients representing probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedPoly {
    coeffs: Vec<f64>,
}

impl TruncatedPoly {
    /// The constant polynomial `1`, truncated to `len` coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn one(len: usize) -> Self {
        assert!(len > 0, "a truncated polynomial needs at least one coefficient");
        let mut coeffs = vec![0.0; len];
        coeffs[0] = 1.0;
        Self { coeffs }
    }

    /// Construct from raw coefficients.
    pub fn from_coeffs(coeffs: Vec<f64>) -> Self {
        assert!(!coeffs.is_empty(), "a truncated polynomial needs at least one coefficient");
        Self { coeffs }
    }

    /// Number of stored coefficients (`degree + 1`).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether the polynomial stores no coefficients (never true).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient of `z^j`, or 0 beyond the truncation degree.
    pub fn coeff(&self, j: usize) -> f64 {
        self.coeffs.get(j).copied().unwrap_or(0.0)
    }

    /// All stored coefficients.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Multiply in place by the binomial `(1 − q) + q·z`, truncating to the
    /// stored degree.
    pub fn multiply_binomial(&mut self, q: f64) {
        multiply_binomial_in(&mut self.coeffs, q);
    }

    /// Divide in place by the binomial `(1 − q) + q·z`.
    ///
    /// This is the exact inverse of [`multiply_binomial`](Self::multiply_binomial)
    /// over the truncated coefficients: if `B = A * ((1−q) + q·z)` truncated,
    /// then dividing `B` recovers `A` truncated.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `1 − q` is below
    /// [`DIVISION_REBUILD_THRESHOLD`]; callers must handle near-saturated
    /// factors separately.
    pub fn divide_binomial(&mut self, q: f64) {
        divide_binomial_in(&mut self.coeffs, q);
    }

    /// Sum of the first `upto` coefficients (`upto` clamped to the stored
    /// length).  With a probability-generating function this is
    /// `Pr[count < upto]`.
    pub fn prefix_sum(&self, upto: usize) -> f64 {
        self.coeffs.iter().take(upto).sum()
    }

    /// Clamp tiny negative coefficients (floating-point residue from
    /// repeated divide/multiply cycles) back to zero.
    pub fn clamp_non_negative(&mut self) {
        clamp_non_negative_in(&mut self.coeffs);
    }
}

/// [`TruncatedPoly::multiply_binomial`] on a raw coefficient slice, for
/// callers (the incremental delta engine) that patch rows of a larger
/// matrix without wrapping each one in a polynomial.
pub fn multiply_binomial_in(coeffs: &mut [f64], q: f64) {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&q), "q = {q} out of range");
    let a = 1.0 - q;
    for j in (0..coeffs.len()).rev() {
        let from_lower = if j > 0 { coeffs[j - 1] * q } else { 0.0 };
        coeffs[j] = coeffs[j] * a + from_lower;
    }
}

/// [`TruncatedPoly::divide_binomial`] on a raw coefficient slice.
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

/// [`TruncatedPoly::clamp_non_negative`] on a raw coefficient slice.
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

    #[test]
    fn one_is_the_multiplicative_identity() {
        let p = TruncatedPoly::one(4);
        assert_eq!(p.coeffs(), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.coeff(0), 1.0);
        assert_eq!(p.coeff(99), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn zero_length_is_rejected() {
        let _ = TruncatedPoly::one(0);
    }

    #[test]
    fn multiplying_binomials_builds_poisson_binomial() {
        // Two independent events with probabilities 0.3 and 0.5:
        // P[0] = 0.35, P[1] = 0.5, P[2] = 0.15.
        let mut p = TruncatedPoly::one(3);
        p.multiply_binomial(0.3);
        p.multiply_binomial(0.5);
        assert_close(p.coeffs(), &[0.35, 0.5, 0.15]);
    }

    #[test]
    fn truncation_drops_high_coefficients() {
        let mut p = TruncatedPoly::one(2);
        p.multiply_binomial(0.3);
        p.multiply_binomial(0.5);
        // Degree-2 coefficient is discarded.
        assert_close(p.coeffs(), &[0.35, 0.5]);
    }

    #[test]
    fn division_inverts_multiplication() {
        let mut p = TruncatedPoly::one(5);
        for &q in &[0.2, 0.7, 0.01, 0.5] {
            p.multiply_binomial(q);
        }
        let before = p.clone();
        p.multiply_binomial(0.33);
        p.divide_binomial(0.33);
        assert_close(p.coeffs(), before.coeffs());
    }

    #[test]
    fn division_is_exact_even_after_truncation() {
        // Multiply five factors into a degree-2 truncation, then remove one;
        // the result must equal the product of the remaining four.
        let factors = [0.1, 0.4, 0.6, 0.9, 0.25];
        let mut all = TruncatedPoly::one(3);
        for &q in &factors {
            all.multiply_binomial(q);
        }
        all.divide_binomial(0.6);

        let mut expected = TruncatedPoly::one(3);
        for &q in &[0.1, 0.4, 0.9, 0.25] {
            expected.multiply_binomial(q);
        }
        assert_close(all.coeffs(), expected.coeffs());
    }

    #[test]
    fn multiply_by_zero_probability_is_identity() {
        let mut p = TruncatedPoly::from_coeffs(vec![0.2, 0.3, 0.5]);
        let before = p.clone();
        p.multiply_binomial(0.0);
        assert_close(p.coeffs(), before.coeffs());
    }

    #[test]
    fn multiply_by_one_shifts_coefficients() {
        let mut p = TruncatedPoly::from_coeffs(vec![0.2, 0.3, 0.5]);
        p.multiply_binomial(1.0);
        assert_close(p.coeffs(), &[0.0, 0.2, 0.3]);
    }

    #[test]
    fn prefix_sum_counts_low_order_mass() {
        let p = TruncatedPoly::from_coeffs(vec![0.2, 0.3, 0.5]);
        assert!((p.prefix_sum(0) - 0.0).abs() < 1e-12);
        assert!((p.prefix_sum(2) - 0.5).abs() < 1e-12);
        assert!((p.prefix_sum(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_removes_tiny_negative_residue() {
        let mut p = TruncatedPoly::from_coeffs(vec![-1e-15, 0.5]);
        p.clamp_non_negative();
        assert_eq!(p.coeff(0), 0.0);
        assert_eq!(p.coeff(1), 0.5);
    }

    #[test]
    fn coefficients_remain_a_distribution_under_random_ops() {
        // Multiply a batch of factors; coefficients of the untruncated
        // polynomial must sum to 1. Use a truncation long enough to hold all.
        let qs = [0.13, 0.5, 0.77, 0.02, 0.9, 0.33];
        let mut p = TruncatedPoly::one(qs.len() + 1);
        for &q in &qs {
            p.multiply_binomial(q);
        }
        let total: f64 = p.coeffs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p.coeffs().iter().all(|&c| c >= 0.0));
    }
}
