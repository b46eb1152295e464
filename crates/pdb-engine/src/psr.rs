//! The PSR rank-probability algorithm.
//!
//! PSR (Bernecker et al., *Scalable probabilistic similarity ranking in
//! uncertain databases*, TKDE 2010 — reference \[15\] of the paper) computes,
//! for every tuple `tᵢ` of a rank-sorted x-tuple database, the **rank-h
//! probabilities** ρᵢ(h) = Pr[tᵢ appears at rank `h` of a possible world's
//! top-k answer] for h = 1..k, and the **top-k probability**
//! pᵢ = Σ_h ρᵢ(h).  These are exactly the quantities the three query
//! semantics (U-kRanks, PT-k, Global-topk) and the TP quality algorithm
//! consume, which is what enables the computation sharing of Section IV-C.
//!
//! ## How it works
//!
//! Scan tuples in descending rank order.  For the tuple at position `i`
//! belonging to x-tuple `l`, the number of *higher-ranked* tuples that exist
//! in a random possible world is a Poisson-binomial variable: every other
//! x-tuple `j ≠ l` independently contributes a higher-ranked tuple with
//! probability `q_j` = (mass of τ_j's alternatives ranked above position
//! `i`).  Then
//!
//! ```text
//! ρᵢ(h) = eᵢ · Pr[exactly h − 1 of the other x-tuples contribute]
//! ```
//!
//! The Poisson-binomial distribution is the coefficient vector of
//! `Π_j ((1 − q_j) + q_j z)`, truncated to degree k − 1.  Moving from one
//! tuple to the next changes a single factor (the previous tuple's x-tuple
//! gains its mass), so the product is maintained incrementally: each step
//! divides the old factor out and multiplies the new one in, and each row
//! is written in one pass that divides the tuple's own factor out,
//! clamps, scales by eᵢ and sums the row into pᵢ — O(k) each, O(nk)
//! overall.  No division runs a floating-point divide per coefficient:
//! each computes the two reciprocal factors of [`crate::poly`] once, so
//! each link of its back-substitution chain is one multiply and one
//! subtract.
//!
//! Three refinements keep the incremental version numerically safe and
//! end it early:
//!
//! * x-tuples whose higher-ranked mass has (essentially) reached 1 are
//!   **saturated**: they contribute a deterministic `+1` to the count and
//!   are tracked by a counter instead of a `(≈0) + (≈1)z` factor that would
//!   make the later division explode.
//! * the scan ends at the **tail cut**: the first position `i` where
//!   T(i) = Pr[fewer than `k` existing tuples rank above `i`] is at most
//!   [`TAIL_EPSILON`].  Every tuple `j ≥ i` of x-tuple `l` has
//!   ρⱼ(h) ≤ pⱼ = eⱼ·Pr\[others < k\] ≤ (1 − q_l(j))·Pr\[others < k\] ≤ T(j)
//!   ≤ T(i), because eⱼ + q_l(j) ≤ 1 and T never increases down the
//!   ranking, so the rows from the cut on hold only entries ≤ ε, and all
//!   their top-k probabilities sum to at most n·ε.  Once `k` x-tuples
//!   are saturated T ≡ 0: that is Lemma 2 of the paper, the cut on
//!   complete data.  An x-tuple with null mass never saturates, and the
//!   tail cut is what ends the scan there.  [`RankProbabilities`] stores
//!   only the rows above the cut (its *live prefix*), so every consumer
//!   of the matrix works in O(cut) instead of O(n).
//! * a factor is only divided out of the product when its `q` is at most
//!   [`MAX_DIVISOR_Q`] (the well-conditioned regime).  Otherwise the
//!   product is **re-formed** without it, from two parts the scan keeps
//!   apart: the *frozen* product of the unsaturated x-tuples whose last
//!   alternative is passed (their `q` is final, so it is only ever
//!   multiplied), and the short list of *in-flight* x-tuples with some but
//!   not all alternatives passed.  A re-form costs O(|in-flight|·k).  An
//!   x-tuple with null mass never saturates, so without the split every
//!   such step re-multiplied every x-tuple passed so far.  When each
//!   entity's alternatives sit in a narrow score band, as in the paper's
//!   data model, only a few x-tuples are in flight at any position.
//!   Complete x-tuples saturate when their last alternative is passed, so
//!   on complete data nothing freezes.
//!
//! Every scan also records a **checkpoint** every 64 positions
//! (`PSR_CHECKPOINT_ROWS`) of the live prefix: the running and the frozen
//! product it holds there (2·k floats).  The rest of its state (the masses, the
//! saturated count, the unpassed alternatives and the in-flight list) is
//! bookkeeping with no polynomial work, so a windowed scan (see
//! [`crate::delta`]) rebuilds it in one O(position + m) pass and resumes
//! at the deepest checkpoint above the first row it must write, instead
//! of at position 0.
//!
//! [`rank_probabilities_exact`] is a slower O(n·m·k) reference
//! implementation that rebuilds the product for every tuple; it exists as a
//! correctness oracle for tests and to quantify the incremental version's
//! numerical error.

use crate::poly::{
    clamp_non_negative_in, divide_binomial_in, divide_binomial_scaled_into, multiply_binomial_in,
    scale_in,
};
use pdb_core::{DbError, RankedDatabase, RankedTuple, Result};
use std::borrow::Cow;

/// Higher-ranked mass at or above this value is treated as certain
/// (saturated); the corresponding tuple probabilities are at most
/// `1 − SATURATION_THRESHOLD` and are rounded to zero.
const SATURATION_THRESHOLD: f64 = 1.0 - 1e-12;

/// The tail cut's ε: PSR stores no row at or past the first position `i`
/// where T(i) = Pr[fewer than `k` existing tuples rank above `i`] ≤ ε
/// (see the module docs).  Every dropped entry is at most ε, so the
/// dropped top-k probabilities sum to at most n·ε, below 1e-12 up to
/// n = 10⁶.
///
/// The cut is read off a row the scan writes, without dividing: with
/// q = the mass of the tuple's own x-tuple above it, pᵢ/eᵢ =
/// Pr\[others < k\] and ρᵢ(k)/eᵢ = Pr\[others = k − 1\], so
/// T(i)·eᵢ = pᵢ − q·ρᵢ(k).
/// The rule is read only where it says something: on a row whose own
/// x-tuple is unsaturated (a saturated one's row is zero) and whose ε·eᵢ
/// is a normal float (a zero or denormal eᵢ makes both sides round to
/// zero).  A fresh run, the delta pass ([`crate::delta`]) and
/// [`RankProbabilities::prefix`] all evaluate it from what they hold, so
/// they agree on the cut.
pub const TAIL_EPSILON: f64 = 1e-18;

/// A binomial factor `(1 − q) + q·z` may only be divided out of the running
/// product when `q` is at most this value.  The back-substitution used by
/// polynomial division amplifies existing floating-point error by
/// `(q / (1 − q))^j` at degree `j`, so divisions are restricted to the
/// well-conditioned regime `q ≤ 0.5` (amplification ≤ 1).  The scan
/// removes a factor with larger `q` by re-forming the product as the
/// frozen product times the in-flight factors (see the module docs).
/// The gate is the scan's alone: the incremental re-evaluation engine
/// ([`crate::delta`]) never divides a factor out of a stored ρ row; it
/// rewrites every changed row with this scan.
pub const MAX_DIVISOR_Q: f64 = 0.5;

/// A scan records its running and frozen products at every positive
/// multiple of this many positions inside the live prefix
/// ([`RankProbabilities`] stores them).  A checkpoint is 2·k floats per
/// 64 stored rows of `k` floats: 1/32 of the matrix.
pub(crate) const PSR_CHECKPOINT_ROWS: usize = 64;

/// Read access to rank-probability information for a fixed `k`.
///
/// The query semantics ([`crate::queries`]) and the TP quality algorithm
/// consume rank probabilities through this trait, so they serve equally
/// from an owned [`RankProbabilities`] matrix and from a zero-copy view
/// into a larger shared matrix ([`crate::batch::QueryRanks`], the prefix
/// views of the batched evaluation engine).
///
/// Only a *live prefix* of the rows is stored (see [`RankProbabilities`]):
/// every tuple at or past [`live_rows`](RankAccess::live_rows) reads as
/// ρᵢ(h) = pᵢ = 0 (its true entries are at most [`TAIL_EPSILON`]), so
/// consumers iterate `0..live_rows()` and never see the rest.
pub trait RankAccess {
    /// The `k` the probabilities describe.
    fn k(&self) -> usize;

    /// Number of tuples covered.
    fn num_tuples(&self) -> usize;

    /// ρᵢ(h): probability that the tuple at rank position `pos` occupies
    /// rank `h` (1-based, `1 ≤ h ≤ k`) of a possible world's top-k answer.
    fn rank_prob(&self, pos: usize, h: usize) -> f64;

    /// pᵢ: probability that the tuple at rank position `pos` appears in
    /// the top-k answer of a possible world.
    fn top_k_prob(&self, pos: usize) -> f64;

    /// The top-k probabilities of the live prefix, indexed by rank
    /// position; every later position has probability zero.
    fn top_k_probs(&self) -> &[f64];

    /// Length of the live prefix: every tuple at or past this position
    /// appears in a top-k answer with probability at most
    /// [`TAIL_EPSILON`], and is treated as never appearing.
    fn live_rows(&self) -> usize {
        self.top_k_probs().len()
    }
}

/// Rank-h and top-k probabilities of every tuple of a database, for a fixed
/// `k`.
///
/// Produced by [`rank_probabilities`] (the PSR algorithm) or by the oracles
/// in [`crate::oracle`]; consumed by the query semantics in
/// [`crate::queries`] and by the TP quality algorithm.
///
/// **Storage invariant.**  Only rows `0..live_rows()` are stored.  PSR's
/// live prefix ends at the tail cut (see [`TAIL_EPSILON`]): the first
/// position where `k` x-tuples are saturated (Lemma 2's cut, T = 0), or
/// the first row the scan writes whose T(i) is at most ε, or `n`.  Every
/// later entry is at most ε.  Every accessor reads the rows past the
/// prefix as zero, and [`num_tuples`](Self::num_tuples) still counts all
/// `n` tuples.  Equality is logical: two matrices are equal when their
/// stored rows plus implicit zero rows agree, whatever prefix each
/// stores.
///
/// A PSR run also stores the scan's checkpoints inside the live prefix
/// (see the module docs), so that the delta pass ([`crate::delta`]) can
/// resume a windowed scan part-way down.  They are the state a fresh
/// run over the covered database records: only the PSR scan writes them,
/// and every mutation drops those it invalidates.  Equality ignores them.
#[derive(Debug, Clone)]
pub struct RankProbabilities {
    k: usize,
    /// Number of tuples covered; rows `live..n` are implicit zeros.
    n: usize,
    /// Row-major `live × k` matrix: `rho[i * k + (h-1)]` = ρᵢ(h).
    rho: Vec<f64>,
    /// Per-tuple top-k probability pᵢ = Σ_h ρᵢ(h) of the live prefix.
    top_k: Vec<f64>,
    /// Checkpoint `j` (2·k floats: the running product, then the frozen
    /// product) is the scan's state at position
    /// `(j + 1) · PSR_CHECKPOINT_ROWS`, after it advanced past every
    /// tuple above.  The stored ones are a prefix of those positions, all
    /// inside the live prefix.
    checkpoints: Vec<f64>,
}

impl RankProbabilities {
    /// Build from the row-major `live × k` matrix of the live prefix of an
    /// `n`-tuple database.
    pub(crate) fn from_rho(k: usize, n: usize, rho: Vec<f64>) -> Self {
        assert!(k > 0 && rho.len().is_multiple_of(k));
        let top_k: Vec<f64> = rho.chunks_exact(k).map(|row| row.iter().sum()).collect();
        assert!(top_k.len() <= n, "{} stored rows for {n} tuples", top_k.len());
        Self { k, n, rho, top_k, checkpoints: Vec::new() }
    }

    /// The `k` this structure was computed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of tuples covered.
    pub fn num_tuples(&self) -> usize {
        self.n
    }

    /// Number of stored rows: every tuple at or past this position reads
    /// as ρᵢ(h) = pᵢ = 0, and its true entries are at most
    /// [`TAIL_EPSILON`].
    pub fn live_rows(&self) -> usize {
        self.top_k.len()
    }

    /// ρᵢ(h): probability that the tuple at rank position `pos` occupies
    /// rank `h` (1-based, `1 ≤ h ≤ k`) in a possible world's top-k answer.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range or `h` is not in `1..=k`.
    pub fn rank_prob(&self, pos: usize, h: usize) -> f64 {
        assert!(h >= 1 && h <= self.k, "rank h = {h} out of 1..={}", self.k);
        assert!(pos < self.n, "position {pos} out of {} tuples", self.n);
        self.rho.get(pos * self.k + (h - 1)).copied().unwrap_or(0.0)
    }

    /// The full ρ row of one tuple (index 0 = rank 1): borrowed inside the
    /// live prefix, a fresh zero row past it.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn rank_probs(&self, pos: usize) -> Cow<'_, [f64]> {
        assert!(pos < self.n, "position {pos} out of {} tuples", self.n);
        match self.rho.get(pos * self.k..(pos + 1) * self.k) {
            Some(row) => Cow::Borrowed(row),
            None => Cow::Owned(vec![0.0; self.k]),
        }
    }

    /// pᵢ: probability that the tuple at rank position `pos` appears in the
    /// top-k answer of a possible world.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn top_k_prob(&self, pos: usize) -> f64 {
        assert!(pos < self.n, "position {pos} out of {} tuples", self.n);
        self.top_k.get(pos).copied().unwrap_or(0.0)
    }

    /// The top-k probabilities of the live prefix, indexed by rank
    /// position; every later position has probability zero.
    pub fn top_k_probs(&self) -> &[f64] {
        &self.top_k
    }

    /// Sum of all top-k probabilities.  Equals the expected size of a
    /// possible world's top-k answer: exactly `k` when every possible world
    /// holds at least `k` non-null tuples, smaller otherwise.
    pub fn expected_answer_size(&self) -> f64 {
        self.top_k.iter().sum()
    }

    /// Positions of tuples with a non-zero top-k probability (in rank
    /// order).  The paper calls the count of these `|Z|` in the cleaning
    /// section.
    pub fn nonzero_positions(&self) -> Vec<usize> {
        self.top_k.iter().enumerate().filter(|(_, &p)| p > 0.0).map(|(i, _)| i).collect()
    }

    /// Mutable access to the live prefix for the in-place delta engine
    /// ([`crate::delta`]).  Callers must keep the invariant
    /// `rho.len() == top_k.len() * k` and `top_k[i] == Σ_h rho[i*k + h]`;
    /// only [`scan_rows_into`] grows the vectors, by whole rows.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<f64>, &mut Vec<f64>) {
        (&mut self.rho, &mut self.top_k)
    }

    /// Cover `n` tuples and store a live prefix of `live` rows: rows
    /// beyond the current prefix arrive zeroed, rows past `live` are
    /// dropped, and so are the checkpoints at or past `live`.
    pub(crate) fn reshape(&mut self, n: usize, live: usize) {
        debug_assert!(live <= n, "live prefix {live} longer than {n} tuples");
        self.n = n;
        self.rho.resize(live * self.k, 0.0);
        self.top_k.resize(live, 0.0);
        self.drop_checkpoints_past(live.saturating_sub(1));
    }

    /// Drop every checkpoint at a position past `pos`.  A mutation of the
    /// tuples from `pos` on leaves the scan's state at `pos` and above as
    /// it was, so the delta pass calls this with the mutated x-tuple's
    /// first position before it writes a row.
    pub(crate) fn drop_checkpoints_past(&mut self, pos: usize) {
        let mut kept = self.checkpoints_stored();
        while kept * PSR_CHECKPOINT_ROWS > pos {
            kept -= 1;
        }
        self.checkpoints.truncate(kept * 2 * self.k);
    }

    /// Number of stored checkpoints: they sit at positions
    /// `PSR_CHECKPOINT_ROWS`, `2 · PSR_CHECKPOINT_ROWS`, … in turn.
    pub(crate) fn checkpoints_stored(&self) -> usize {
        self.checkpoints.chunks_exact(2 * self.k).len()
    }

    /// The stored checkpoints, 2·k floats each (see the field docs).
    #[cfg(test)]
    pub(crate) fn checkpoints(&self) -> &[f64] {
        &self.checkpoints
    }

    /// The rank probabilities for a *smaller* `k`, extracted from this
    /// matrix without re-running PSR.
    ///
    /// This is the prefix property the batched evaluation engine
    /// ([`crate::batch`]) builds on: ρᵢ(h) is the degree-(h−1) coefficient
    /// of a generating-function product, and every [`crate::poly`]
    /// operation (multiply, divide, and the re-form that multiplies the
    /// in-flight factors into a copy of the frozen product) computes
    /// coefficient `j` from coefficients `≤ j` only, while the saturation,
    /// division and freezing decisions depend on factor masses and
    /// positions, never on `k`.  A PSR run at `k_max` therefore contains
    /// the run at every `k ≤ k_max` bit for bit: its first `k` columns
    /// *are* that run's ρ matrix, and the prefix top-k probability is the
    /// same left-to-right partial sum the smaller run would form.  The
    /// smaller `k` has its own tail cut, at or above this one (fewer than
    /// `k` tuples above a position is the rarer event), so the extracted
    /// matrix is re-cut there with the same rule, read off each row's
    /// first `k` columns against `db`, and equals the independent run.
    /// `prefix_equivalence` in the tests and the `batch_equivalence` suite
    /// pin this against independent runs.
    ///
    /// Returns an error when `k` is zero or exceeds the `k` this matrix
    /// was computed for, or when `db` is not the database it covers.
    pub fn prefix(&self, db: &RankedDatabase, k: usize) -> Result<RankProbabilities> {
        if k == 0 || k > self.k {
            return Err(DbError::invalid_parameter(format!(
                "prefix k = {k} must lie in 1..={}",
                self.k
            )));
        }
        if db.len() != self.n {
            return Err(DbError::invalid_parameter(format!(
                "rank probabilities cover {} tuples but the database has {}",
                self.n,
                db.len()
            )));
        }
        if k == self.k {
            return Ok(self.clone());
        }
        let mut fold = MassFold::new(db);
        let mut rho = Vec::with_capacity(self.live_rows() * k);
        let mut top_k = Vec::with_capacity(self.live_rows());
        for (i, row) in self.rho.chunks_exact(self.k).enumerate() {
            fold.advance_to(db, i);
            let row = &row[..k];
            let p: f64 = row.iter().sum();
            if fold.saturated() >= k || fold.cuts_row(db.tuple(i), p, row[k - 1]) {
                break;
            }
            rho.extend_from_slice(row);
            top_k.push(p);
        }
        Ok(RankProbabilities { k, n: self.n, rho, top_k, checkpoints: Vec::new() })
    }
}

impl PartialEq for RankProbabilities {
    /// Logical equality: the stored rows plus the implicit zero rows past
    /// each live prefix.  The checkpoints are not compared.
    fn eq(&self, other: &Self) -> bool {
        if self.k != other.k || self.n != other.n {
            return false;
        }
        let (long, short) =
            if self.live_rows() >= other.live_rows() { (self, other) } else { (other, self) };
        let (rho, rho_tail) = long.rho.split_at(short.rho.len());
        let (top_k, top_k_tail) = long.top_k.split_at(short.top_k.len());
        let is_zero = |&x: &f64| {
            // pdb-analyze: allow(float-eq): equality compares exact values, as `==` on the stored rows does
            x == 0.0
        };
        rho == short.rho.as_slice()
            && top_k == short.top_k.as_slice()
            && rho_tail.iter().chain(top_k_tail).all(is_zero)
    }
}

impl RankAccess for RankProbabilities {
    fn k(&self) -> usize {
        RankProbabilities::k(self)
    }

    fn num_tuples(&self) -> usize {
        RankProbabilities::num_tuples(self)
    }

    fn rank_prob(&self, pos: usize, h: usize) -> f64 {
        RankProbabilities::rank_prob(self, pos, h)
    }

    fn top_k_prob(&self, pos: usize) -> f64 {
        RankProbabilities::top_k_prob(self, pos)
    }

    fn top_k_probs(&self) -> &[f64] {
        RankProbabilities::top_k_probs(self)
    }
}

/// Validate a top-k parameter against a database.
fn validate_k(db: &RankedDatabase, k: usize) -> Result<()> {
    if k == 0 {
        return Err(DbError::invalid_parameter("k must be at least 1"));
    }
    if db.is_empty() {
        return Err(DbError::EmptyDatabase);
    }
    Ok(())
}

/// The scan's mass bookkeeping without its polynomial work: every
/// x-tuple's clamped existential mass ranked above the current position,
/// and how many x-tuples that has saturated.  It folds each tuple in with
/// the scan's own `(q + eᵢ).min(1.0)`, so every reader of the fold (the
/// scan, [`lemma2_cut`], the delta pass, [`RankProbabilities::prefix`])
/// agrees with the scan on every mass, saturation and cut.
pub(crate) struct MassFold {
    q: Vec<f64>,
    saturated: usize,
    /// The current position: tuples `0..pos` are folded in.
    pos: usize,
}

impl MassFold {
    /// The fold at position 0: no mass above it.
    pub(crate) fn new(db: &RankedDatabase) -> Self {
        Self { q: vec![0.0; db.num_x_tuples()], saturated: 0, pos: 0 }
    }

    /// Fold in the tuple at the current position and move one down;
    /// returns its x-index and that x-tuple's mass before the step.
    fn pass(&mut self, db: &RankedDatabase) -> (usize, f64) {
        let t = db.tuple(self.pos);
        let old_q = self.q[t.x_index];
        let new_q = (old_q + t.prob).min(1.0);
        self.q[t.x_index] = new_q;
        if old_q < SATURATION_THRESHOLD && new_q >= SATURATION_THRESHOLD {
            self.saturated += 1;
        }
        self.pos += 1;
        (t.x_index, old_q)
    }

    /// Fold in every tuple above `pos` (at or past the current position).
    pub(crate) fn advance_to(&mut self, db: &RankedDatabase, pos: usize) {
        while self.pos < pos {
            self.pass(db);
        }
    }

    /// Mass of x-tuple `l` ranked above the current position.
    fn q(&self, l: usize) -> f64 {
        self.q[l]
    }

    fn is_saturated(&self, l: usize) -> bool {
        self.q[l] >= SATURATION_THRESHOLD
    }

    /// Number of saturated x-tuples above the current position: from `k`
    /// on, T ≡ 0 and the position is Lemma 2's cut.
    pub(crate) fn saturated(&self) -> usize {
        self.saturated
    }

    /// Whether the tail rule reads T off the row of `t`, the tuple at the
    /// current position (see [`TAIL_EPSILON`]): its x-tuple is unsaturated
    /// above it and ε·eᵢ is a normal float.  A row at T ≤ ε that the rule
    /// reads is the cut.
    pub(crate) fn reads_tail(&self, t: &RankedTuple) -> bool {
        !self.is_saturated(t.x_index) && TAIL_EPSILON * t.prob >= f64::MIN_POSITIVE
    }

    /// Whether the tail cut falls at the row of `t`, the tuple at the
    /// current position, whose top-k probability is `p` and rank-k entry
    /// `rho_k`: the rule reads the row and T(i)·eᵢ = pᵢ − q·ρᵢ(k) ≤ ε·eᵢ.
    pub(crate) fn cuts_row(&self, t: &RankedTuple, p: f64, rho_k: f64) -> bool {
        self.reads_tail(t) && p - self.q[t.x_index] * rho_k <= TAIL_EPSILON * t.prob
    }
}

/// Lemma 2's cut for `k`: one past the position whose tuple completes
/// the `k`-th saturated x-tuple, or `n` when fewer than `k` saturate.
/// Every tuple from there on has `k` certain tuples above it (T = 0), so
/// it bounds the tail cut from above; PSR reserves its matrix to this
/// bound before it scans.  One O(cut) pass with O(m) state.
pub(crate) fn lemma2_cut(db: &RankedDatabase, k: usize) -> usize {
    let mut fold = MassFold::new(db);
    // The scan advances past tuple `i` before it considers row `i + 1`,
    // so the last tuple's mass never stops it.
    for i in 1..db.len() {
        fold.pass(db);
        if fold.saturated() >= k {
            return i;
        }
    }
    db.len()
}

/// The scan's bookkeeping without its polynomial work: the mass fold,
/// every x-tuple's unpassed alternatives and the in-flight list.
/// [`advance`](Self::advance) applies the saturation, freeze and
/// activation rules once for both of its callers: the scan, which turns
/// each [`Step`] into polynomial work, and a resumed scan, which replays
/// the steps above its checkpoint to rebuild this state there.
struct ScanState {
    /// q[l]: existential mass of x-tuple l's alternatives ranked strictly
    /// higher than the current position.
    fold: MassFold,
    /// unpassed[l]: an unsaturated x-tuple l's alternatives at or below
    /// the current position.  Once it reaches 0, q[l] is final.
    unpassed: Vec<usize>,
    /// The *in-flight* x-tuples in activation order: some but not all
    /// alternatives passed, unsaturated.  Entries that saturate or freeze
    /// are pruned lazily at the next re-form.
    in_flight: Vec<usize>,
}

/// What advancing past one tuple did to its unsaturated x-tuple's factor
/// `(1 − q) + q·z`.
struct Step {
    old_q: f64,
    new_q: f64,
    /// The x-tuple saturated: its factor leaves the product.
    saturates: bool,
    /// Its last alternative was passed without saturating: `q` is final
    /// and the factor joins the frozen product.
    freezes: bool,
}

impl ScanState {
    fn new(db: &RankedDatabase) -> Self {
        Self {
            fold: MassFold::new(db),
            unpassed: db.x_tuples().map(|info| info.members.len()).collect(),
            in_flight: Vec::new(),
        }
    }

    /// Pass the tuple at the current position: the next position sees it
    /// as higher-ranked.  `None` when its x-tuple was already saturated,
    /// so no factor changes.
    fn advance(&mut self, db: &RankedDatabase) -> Option<Step> {
        let (l, old_q) = self.fold.pass(db);
        if old_q >= SATURATION_THRESHOLD {
            return None;
        }
        let new_q = self.fold.q(l);
        self.unpassed[l] -= 1;
        let saturates = self.fold.is_saturated(l);
        let freezes = !saturates && self.unpassed[l] == 0;
        // pdb-analyze: allow(float-eq): q starts at exactly 0.0 and only this pass writes it, so the first-activation test is exact by construction
        if !saturates && !freezes && old_q == 0.0 && new_q > 0.0 {
            self.in_flight.push(l);
        }
        Some(Step { old_q, new_q, saturates, freezes })
    }

    /// Overwrite `out` (a prefix of the running product) with the frozen
    /// product times every in-flight factor except `skip`'s; returns the
    /// number of factors multiplied.
    fn reform(&mut self, out: &mut [f64], frozen: &[f64], skip: Option<usize>) -> usize {
        let (fold, unpassed) = (&self.fold, &self.unpassed);
        self.in_flight.retain(|&l| !fold.is_saturated(l) && unpassed[l] > 0);
        out.copy_from_slice(&frozen[..out.len()]);
        let mut multiplied = 0;
        for &l in &self.in_flight {
            if Some(l) != skip {
                multiply_binomial_in(out, fold.q(l));
                multiplied += 1;
            }
        }
        multiplied
    }
}

/// Where one [`scan_rows_into`] pass ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scan {
    /// The checkpoint position it resumed at (0 for a scan from the top).
    pub(crate) start: usize,
    /// Where it stopped: the tail cut, or `end` when the cut was not
    /// reached.
    pub(crate) stop: usize,
}

/// One incremental PSR scan over `db`, writing each wanted tuple's ρ row
/// and top-k probability straight into `rp`'s rows (one `k`-entry row
/// per position).
///
/// Maintains the running generating-function product: advancing past a
/// tuple is one division and one multiply, or an O(|in-flight|·k) re-form
/// when the divisor is ill-conditioned (see the module docs).  Each row
/// is written in one fused pass ([`divide_binomial_scaled_into`]: the
/// quotient by the tuple's own factor, clamped, scaled by eᵢ and summed
/// into pᵢ as it is written).  No division divides per coefficient; each
/// link of its chain is a multiply and a subtract.  The working
/// state beyond the matrix itself is O(m + k).  Only the entries PSR
/// makes non-zero are written: a row below `s` saturated x-tuples gets
/// entries `s..k`, and the rows of saturated tuples are skipped.  Callers
/// therefore pass the wanted rows zeroed; a position past the stored
/// rows arrives as a zero row appended there (growing inside any
/// capacity the caller reserved).
///
/// `from` is the first row the caller wants: the scan resumes at the
/// deepest stored checkpoint, which must lie at or above it (position 0
/// when there is none).  It rebuilds the bookkeeping there by replaying
/// every step above without polynomial work, takes the two products from
/// the checkpoint, and records each later checkpoint it passes.  The
/// stored checkpoints must be the state a fresh scan of `db` records,
/// which [`rank_probabilities`] and this scan write and the delta pass
/// keeps by dropping those a mutation invalidates.
///
/// The scan covers positions `start..end` and stops early at the tail
/// cut: at the first position with `k` saturated x-tuples above it
/// (Lemma 2), or at the first row it writes whose T is at most
/// [`TAIL_EPSILON`], read off the row in O(1) ([`MassFold::cuts_row`]).
/// A row is only written for positions accepted by `want`; the running
/// product is still advanced through every position, so accepted rows
/// are computed with exactly the state the unrestricted scan would use —
/// results are bit-for-bit identical to the corresponding rows of
/// [`rank_probabilities`].  The incremental re-evaluation engine
/// ([`crate::delta`]) relies on this to rewrite only the rows a mutation
/// changes, from the checkpoint above the first of them to the last of
/// them or to the cut.
pub(crate) fn scan_rows_into(
    db: &RankedDatabase,
    rp: &mut RankProbabilities,
    from: usize,
    end: usize,
    mut want: impl FnMut(usize) -> bool,
) -> Result<Scan> {
    let k = rp.k;
    validate_k(db, k)?;

    // The callers drop every checkpoint a mutation invalidated, which
    // includes every one past `from`, so the deepest stored one is the
    // deepest at or above it.
    let resumed = rp.checkpoints_stored();
    let start = resumed * PSR_CHECKPOINT_ROWS;
    assert!(start <= from, "checkpoint {start} is stored past the first row to write, {from}");
    debug_assert!(start == 0 || start < rp.live_rows(), "checkpoint {start} past the stored rows");
    let mut state = ScanState::new(db);
    // Product of ((1 − q_l) + q_l z) over the *frozen* x-tuples: every
    // alternative passed, unsaturated, q_l > 0.  Their q never changes
    // again, so this product is only ever multiplied.
    let mut frozen = vec![0.0; k];
    // The running product: frozen × every in-flight factor.
    let mut poly = vec![0.0; k];
    if resumed == 0 {
        frozen[0] = 1.0;
        poly[0] = 1.0;
    } else {
        while state.fold.pos < start {
            state.advance(db);
        }
        let saved = &rp.checkpoints[(resumed - 1) * 2 * k..];
        poly.copy_from_slice(&saved[..k]);
        frozen.copy_from_slice(&saved[k..]);
    }
    let mut reform_factors = 0usize;

    let mut stop = end;
    for i in start..end {
        if i > start {
            // Advance: the previous tuple is now "higher-ranked"; its
            // x-tuple's factor gains the previous tuple's mass.
            if let Some(step) = state.advance(db) {
                if step.freezes && step.new_q > 0.0 {
                    multiply_binomial_in(&mut frozen, step.new_q);
                }
                if step.old_q <= MAX_DIVISOR_Q {
                    if step.old_q > 0.0 {
                        divide_binomial_in(&mut poly, step.old_q);
                        clamp_non_negative_in(&mut poly);
                    }
                    if !step.saturates && step.new_q > 0.0 {
                        multiply_binomial_in(&mut poly, step.new_q);
                    }
                } else {
                    reform_factors += state.reform(&mut poly, &frozen, None);
                }
            }
        }

        let saturated = state.fold.saturated();
        if saturated >= k {
            // Lemma 2: k certain tuples above, T ≡ 0 from here on.
            stop = i;
            break;
        }
        if i > start && i.is_multiple_of(PSR_CHECKPOINT_ROWS) {
            rp.checkpoints.extend_from_slice(&poly);
            rp.checkpoints.extend_from_slice(&frozen);
        }
        if i >= rp.top_k.len() {
            rp.rho.resize((i + 1) * k, 0.0);
            rp.top_k.resize(i + 1, 0.0);
        }
        if !want(i) {
            continue;
        }
        let t = db.tuple(i);
        let l = t.x_index;
        if state.fold.is_saturated(l) {
            // The tuple's own siblings already occupy ~all of the x-tuple's
            // mass above it, so eᵢ ≤ 1 − SATURATION_THRESHOLD ≈ 0.
            continue;
        }
        // ρᵢ(h) = eᵢ · Pr[exactly h−1 higher-ranked tuples exist], where the
        // saturated x-tuples contribute a deterministic `saturated`: entry
        // h−1 takes coefficient h−1−saturated of the other x-tuples'
        // product.  That product is the running one with the tuple's own
        // factor divided out, computed here on the truncated prefix the
        // row needs (every poly op computes coefficient j from
        // coefficients ≤ j only, so the prefix holds the same values).
        // Each branch writes the row scaled by eᵢ and sums it as it goes;
        // the entries below `saturated` are zero and add nothing.
        let row = &mut rp.rho[i * k + saturated..(i + 1) * k];
        let ql = state.fold.q(l);
        let p = if ql <= MAX_DIVISOR_Q {
            let own = &poly[..row.len()];
            if ql > 0.0 {
                divide_binomial_scaled_into(row, own, ql, t.prob)
            } else {
                row.copy_from_slice(own);
                scale_in(row, t.prob)
            }
        } else {
            // The tuple's own x-tuple is in flight (its q > 0 and this
            // alternative is not passed yet), so it is left out here.
            reform_factors += state.reform(row, &frozen, Some(l));
            scale_in(row, t.prob)
        };
        rp.top_k[i] = p;
        if state.fold.cuts_row(t, p, rp.rho[(i + 1) * k - 1]) {
            stop = i;
            break;
        }
    }

    let scanned = if stop < end { stop + 1 } else { end };
    pdb_obs::metrics::ENGINE_PSR_ROWS_SCANNED_TOTAL.add((scanned - start) as u64);
    pdb_obs::metrics::ENGINE_PSR_REFORM_FACTORS_TOTAL.add(reform_factors as u64);
    Ok(Scan { start, stop })
}

/// Compute rank-h and top-k probabilities with the incremental PSR
/// algorithm: O(k) per position, plus O(|in-flight|·k) for each position
/// whose step or own factor is ill-conditioned, and O(m + k) working
/// state beyond the ρ matrix itself.
///
/// The scan and the stored matrix both end at the tail cut
/// ([`RankProbabilities`]'s live prefix), often far inside the table.  On
/// complete x-tuples that is Lemma 2's cut and the scan stays near
/// O(cut·k).  Null-mass x-tuples never saturate, and the scan ends where
/// T(i) first drops to [`TAIL_EPSILON`]: at k = 50 on the synthetic
/// generator's 10⁴ tuples, 6–23 % of the table for totals 0.999–0.5, and
/// a similar share when the alternatives spread across the ranking.
/// Inside the cut, null-mass x-tuples whose alternatives sit in a narrow
/// score band stay near O(cut·k), because only a few of them are in
/// flight at a time; alternatives spread across the ranking keep more
/// factors in flight.
///
/// The matrix is reserved up to Lemma 2's cut, which bounds the tail cut
/// from above, and grown row by row as the scan reaches each position, so
/// only the rows above the tail cut are ever written.  A `k` whose
/// `bound × k` reservation cannot be allocated is an invalid parameter:
/// `k` arrives from clients, so the allocation is fallible instead of
/// aborting the process.  The run stores the scan's checkpoints with the
/// matrix.
pub fn rank_probabilities(db: &RankedDatabase, k: usize) -> Result<RankProbabilities> {
    pdb_obs::metrics::ENGINE_PSR_RUNS_TOTAL.inc();
    validate_k(db, k)?;
    let bound = lemma2_cut(db, k);
    let too_large = || {
        DbError::invalid_parameter(format!(
            "k = {k} needs a {bound} x {k} rank-probability matrix, which cannot be allocated"
        ))
    };
    let len = bound.checked_mul(k).ok_or_else(too_large)?;
    let mut rho = Vec::new();
    rho.try_reserve_exact(len).map_err(|_| too_large())?;
    let mut top_k = Vec::new();
    top_k.try_reserve_exact(bound).map_err(|_| too_large())?;
    let mut rp = RankProbabilities { k, n: db.len(), rho, top_k, checkpoints: Vec::new() };
    let live = scan_rows_into(db, &mut rp, 0, bound, |_| true)?.stop;
    rp.reshape(db.len(), live);
    pdb_obs::metrics::ENGINE_PSR_LIVE_ROWS.record(live as u64);
    Ok(rp)
}

/// Reference implementation of PSR that rebuilds the generating-function
/// product for every tuple: O(n·m·k) time, no divisions, no saturation
/// approximation.  Used as a numerical oracle in tests and available to
/// callers who prefer robustness over speed on small inputs.  It stores
/// all `n` rows: without the saturation approximation, the rows past
/// Lemma 2's cut hold values of order 1e-12 times `k` rather than zeros.
pub fn rank_probabilities_exact(db: &RankedDatabase, k: usize) -> Result<RankProbabilities> {
    /// One tuple's ρ row: the product rebuilt from scratch out of the mass
    /// ranked strictly above `pos`.
    fn exact_row(db: &RankedDatabase, k: usize, pos: usize) -> Vec<f64> {
        let t = db.tuple(pos);
        let mut poly = vec![0.0; k];
        poly[0] = 1.0;
        for (j, info) in db.x_tuples().enumerate() {
            if j == t.x_index {
                continue;
            }
            // Accumulate the x-tuple's mass above `pos` with the same
            // (q + e).min(1.0) fold the incremental scan applies, so the
            // two algorithms see identical factor values.
            let mut qj = 0.0;
            for &member in &info.members {
                if member >= pos {
                    break;
                }
                qj = (qj + db.tuple(member).prob).min(1.0);
            }
            if qj > 0.0 {
                multiply_binomial_in(&mut poly, qj);
            }
        }
        for c in poly.iter_mut() {
            *c *= t.prob;
        }
        poly
    }

    validate_k(db, k)?;
    let mut rho = Vec::with_capacity(db.len() * k);
    for pos in 0..db.len() {
        rho.extend_from_slice(&exact_row(db, k, pos));
    }
    Ok(RankProbabilities::from_rho(k, db.len(), rho))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    /// Brute-force ρ via possible-world enumeration.
    fn rho_by_enumeration(db: &RankedDatabase, k: usize) -> Vec<f64> {
        let mut rho = vec![0.0; db.len() * k];
        for w in pdb_core::world::worlds(db).unwrap() {
            for (rank0, &pos) in w.top_k(k).iter().enumerate() {
                rho[pos * k + rank0] += w.prob;
            }
        }
        rho
    }

    /// Every entry of `rp`, stored or past its live prefix, against a full
    /// row-major `n × k` matrix.
    fn assert_matrix_close(rp: &RankProbabilities, expected: &[f64], tol: f64) {
        let k = rp.k();
        assert_eq!(rp.num_tuples() * k, expected.len());
        for (i, want) in expected.iter().enumerate() {
            let got = rp.rank_prob(i / k, i % k + 1);
            assert!((got - want).abs() < tol, "entry {i}: {got} vs {want}");
        }
    }

    #[test]
    fn an_unallocatable_k_is_an_invalid_parameter() {
        let db = udb1();
        // 7 · k · 8 bytes exceeds isize::MAX, so the reservation fails
        // before asking the allocator; usize::MAX overflows 7 · k itself.
        for k in [isize::MAX as usize / 8 + 1, usize::MAX] {
            match rank_probabilities(&db, k) {
                Err(DbError::InvalidParameter { message }) => assert!(message.contains("k = ")),
                other => panic!("k = {k}: expected an invalid-parameter error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        let db = udb1();
        assert!(rank_probabilities(&db, 0).is_err());
        assert!(rank_probabilities_exact(&db, 0).is_err());
    }

    #[test]
    fn matches_enumeration_on_udb1() {
        let db = udb1();
        for k in 1..=5 {
            let expected = rho_by_enumeration(&db, k);
            let psr = rank_probabilities(&db, k).unwrap();
            let exact = rank_probabilities_exact(&db, k).unwrap();
            assert_matrix_close(&psr, &expected, 1e-10);
            assert_matrix_close(&exact, &expected, 1e-10);
        }
    }

    #[test]
    fn top_two_probabilities_match_paper_answer() {
        // The paper: for k = 2 and threshold 0.4, the PT-2 answer on udb1 is
        // {t1 (32°), t2 (30°), t5 (27°)}.
        let db = udb1();
        let rp = rank_probabilities(&db, 2).unwrap();
        let pos_of = |score: f64| db.tuples().position(|t| t.score == score).unwrap();
        assert!(rp.top_k_prob(pos_of(32.0)) >= 0.4);
        assert!(rp.top_k_prob(pos_of(30.0)) >= 0.4);
        assert!(rp.top_k_prob(pos_of(27.0)) >= 0.4);
        assert!(rp.top_k_prob(pos_of(26.0)) < 0.4);
        assert!(rp.top_k_prob(pos_of(21.0)) < 0.4);
    }

    #[test]
    fn handles_null_mass() {
        // x-tuples with mass < 1 (implicit null alternative).
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(9.0, 0.4), (8.0, 0.2)],
            vec![(7.0, 1.0)],
        ])
        .unwrap();
        for k in 1..=3 {
            let expected = rho_by_enumeration(&db, k);
            let rp = rank_probabilities(&db, k).unwrap();
            assert_matrix_close(&rp, &expected, 1e-10);
        }
    }

    #[test]
    fn certain_chain_saturates_and_terminates_early() {
        // Ten certain tuples followed by an uncertain one: with k = 3 the
        // uncertain tuple (and the tail of the certain chain) must have
        // probability zero.
        let mut x = vec![vec![(100.0, 1.0)]];
        for i in 1..10 {
            x.push(vec![(100.0 - i as f64, 1.0)]);
        }
        x.push(vec![(1.0, 0.7)]);
        let db = RankedDatabase::from_scored_x_tuples(&x).unwrap();
        let rp = rank_probabilities(&db, 3).unwrap();
        let expected = rho_by_enumeration(&db, 3);
        assert_matrix_close(&rp, &expected, 1e-10);
        assert_eq!(rp.top_k_prob(db.len() - 1), 0.0);
        assert_eq!(rp.nonzero_positions(), vec![0, 1, 2]);
        // Lemma 2: the third certain tuple saturates the third x-tuple, so
        // only rows 0..3 are stored; the other eight read as zero.
        assert_eq!(rp.live_rows(), 3);
        assert_eq!(rp.num_tuples(), 11);
        assert_eq!(rp.rank_probs(10).as_ref(), &[0.0; 3]);
    }

    #[test]
    fn expected_answer_size_equals_k_with_full_mass() {
        let db = udb1();
        for k in 1..=4 {
            let rp = rank_probabilities(&db, k).unwrap();
            assert!((rp.expected_answer_size() - k as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_answer_size_below_k_with_null_mass() {
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(10.0, 0.5)], vec![(9.0, 0.5)]]).unwrap();
        let rp = rank_probabilities(&db, 2).unwrap();
        assert!(rp.expected_answer_size() < 2.0);
        // Expected size = E[#existing] = 0.5 + 0.5 = 1.0.
        assert!((rp.expected_answer_size() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_probability_rows_are_distributions() {
        let db = udb1();
        let rp = rank_probabilities(&db, 3).unwrap();
        for pos in 0..db.len() {
            let row_sum: f64 = rp.rank_probs(pos).iter().sum();
            assert!((row_sum - rp.top_k_prob(pos)).abs() < 1e-12);
            assert!(rp.rank_probs(pos).iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
        assert_eq!(rp.k(), 3);
        assert_eq!(rp.num_tuples(), 7);
        assert!((rp.rank_prob(0, 1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn prefix_equivalence_matches_independent_runs() {
        let db = udb1();
        let master = rank_probabilities(&db, 5).unwrap();
        for k in 1..=5 {
            let independent = rank_probabilities(&db, k).unwrap();
            let prefix = master.prefix(&db, k).unwrap();
            // Bit-for-bit: every poly op computes coefficient j from
            // coefficients ≤ j only (see `prefix`'s docs).
            assert_eq!(prefix, independent, "k = {k}");
        }
        assert!(master.prefix(&db, 0).is_err());
        assert!(master.prefix(&db, 6).is_err());
        assert!(master.prefix(&clustered_null_mass(), 2).is_err(), "a foreign database");

        // Clustered null-mass data, where rows come from frozen ×
        // in-flight re-forms, keeps the property that serves k = 5 and
        // k = 15 from a k_max = 50 batch matrix.
        let db = clustered_null_mass();
        let master = rank_probabilities(&db, 50).unwrap();
        for k in [1, 5, 15, 50] {
            let independent = rank_probabilities(&db, k).unwrap();
            assert_eq!(master.prefix(&db, k).unwrap(), independent, "clustered null mass, k = {k}");
            let exact = rank_probabilities_exact(&db, k).unwrap();
            assert_matrix_close(&independent, &exact.rho, 1e-12);
        }
    }

    /// 60 x-tuples × 5 alternatives, each x-tuple's scores inside one
    /// 8-point band and its total mass in [0.55, 0.99]: no x-tuple
    /// saturates, every one crosses `MAX_DIVISOR_Q`, and overlapping
    /// bands keep a few in flight while passed ones freeze.
    fn clustered_null_mass() -> RankedDatabase {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let x_tuples: Vec<Vec<(f64, f64)>> = (0..60)
            .map(|_| {
                let centre = rng.gen_range(0.0..240.0);
                let total = rng.gen_range(0.55..0.99);
                let weights: Vec<f64> = (0..5).map(|_| rng.gen_range(0.1..1.0)).collect();
                let sum: f64 = weights.iter().sum();
                weights
                    .iter()
                    .map(|w| (centre + rng.gen_range(0.0..8.0), w / sum * total))
                    .collect()
            })
            .collect();
        RankedDatabase::from_scored_x_tuples(&x_tuples).unwrap()
    }

    #[test]
    fn prefix_equivalence_across_early_termination() {
        // Ten certain tuples followed by an uncertain one: small-k runs
        // stop early (Lemma 2) while the k_max run scans further; the
        // prefix must still agree because post-stop rows are zero in the
        // first k columns.
        let mut x = vec![vec![(100.0, 1.0)]];
        for i in 1..10 {
            x.push(vec![(100.0 - i as f64, 1.0)]);
        }
        x.push(vec![(1.0, 0.7)]);
        let db = RankedDatabase::from_scored_x_tuples(&x).unwrap();
        let master = rank_probabilities(&db, 11).unwrap();
        for k in [1, 2, 3, 5, 10] {
            let independent = rank_probabilities(&db, k).unwrap();
            assert_eq!(master.prefix(&db, k).unwrap(), independent, "k = {k}");
        }
    }

    #[test]
    fn incremental_matches_exact_on_adversarial_probabilities() {
        // Many near-certain tuples force the saturation / re-form paths.
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(100.0, 0.999_999_9)],
            vec![(99.0, 0.999_999)],
            vec![(98.0, 1.0)],
            vec![(97.0, 0.5), (96.0, 0.499_999_9)],
            vec![(95.0, 0.3), (94.0, 0.7)],
            vec![(93.0, 0.001)],
            vec![(92.0, 0.000_001)],
            vec![(91.0, 0.9), (90.0, 0.1)],
        ])
        .unwrap();
        for k in 1..=6 {
            let fast = rank_probabilities(&db, k).unwrap();
            let exact = rank_probabilities_exact(&db, k).unwrap();
            assert_matrix_close(&fast, &exact.rho, 1e-8);
        }
    }

    #[test]
    fn large_random_database_matches_exact() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut x_tuples = Vec::new();
        for _ in 0..200 {
            let alts = rng.gen_range(1..=4);
            let mut remaining = 1.0_f64;
            let mut v = Vec::new();
            for a in 0..alts {
                let p = if a == alts - 1 {
                    remaining * rng.gen_range(0.5..1.0)
                } else {
                    remaining * rng.gen_range(0.1..0.7)
                };
                remaining -= p;
                v.push((rng.gen_range(0.0..10_000.0), p));
            }
            x_tuples.push(v);
        }
        let db = RankedDatabase::from_scored_x_tuples(&x_tuples).unwrap();
        for &k in &[1, 5, 20] {
            let fast = rank_probabilities(&db, k).unwrap();
            let exact = rank_probabilities_exact(&db, k).unwrap();
            assert_matrix_close(&fast, &exact.rho, 1e-9);
        }
    }
}
