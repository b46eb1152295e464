// Divisions the invariant allows: gate dominates, or the divisor is a
// literal.
fn gated(q: f64, p: f64) -> f64 {
    debug_assert!(q <= MAX_DIVISOR_Q);
    p / (1.0 - q)
}

fn halve(x: f64) -> f64 {
    x / 2.0
}
