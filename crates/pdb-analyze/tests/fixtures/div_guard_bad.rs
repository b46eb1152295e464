// Non-literal divisors with no stability gate in sight.
fn rescale(e_new: f64, e_old: f64) -> f64 {
    e_new / e_old
}

fn in_place(x: &mut f64, q: f64) {
    *x /= q;
}

// A retired gate guards nothing any more.
fn retired_gate(e_new: f64, e_old: f64) -> f64 {
    if e_old < MIN_SCALE_PROB {
        return 0.0;
    }
    e_new / e_old
}
