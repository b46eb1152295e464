//! Incremental re-evaluation of rank probabilities under single-x-tuple
//! mutations.
//!
//! An adaptive cleaning session observes one probe outcome at a time; each
//! outcome changes exactly one x-tuple (it collapses to a revealed
//! alternative, collapses to its implicit null alternative, or has its
//! probabilities reweighted).  Re-running the full PSR + TP pipeline after
//! every probe costs O(n·k) *per probe*, which makes a session of `C`
//! probes O(C·n·k).  This module carries a completed
//! [`RankProbabilities`] *across* database versions instead, and rewrites
//! only the rows a mutation changes.
//!
//! ## How rows are rewritten
//!
//! The stored ρ row of the tuple at position `i` is
//!
//! ```text
//! ρᵢ = eᵢ · coeffs( Π_{j ≠ lᵢ} ((1 − q_j) + q_j·z) )   (truncated to k)
//! ```
//!
//! where `q_j` is x-tuple `j`'s existential mass ranked strictly above
//! position `i`.  A mutation of x-tuple `L` changes only `q_L`, the `eᵢ`
//! of `L`'s own rows, and which of `L`'s alternatives survive.  Rows
//! ranked above `L`'s first alternative are not touched at all.  The pass
//! sorts every surviving row below it and above the old cut into one of
//! three cases:
//!
//! * **zero** — its `eᵢ′` is 0, so the row is identically zero;
//! * **copied** — not one of `L`'s own rows, and its `q_L` before and
//!   after the mutation agree within `Q_EQUAL_EPSILON`: the value is
//!   unchanged, and the row only moves up past dropped rows (one
//!   `memmove`);
//! * **rewritten** — every other row: `L`'s own surviving rows and every
//!   row whose `q_L` changed.  Rows a lowered cut makes live are
//!   rewritten too (see below).
//!
//! One PSR scan over the mutated database writes every rewritten row
//! (`psr::scan_rows_into`): it resumes at the deepest checkpoint the
//! matrix stores at or above the first rewritten row (one every 64
//! positions of the live prefix, see [`crate::psr`]), runs to the last
//! rewritten row and stores only the rewritten ones, so each is
//! bit-identical to the row a fresh
//! [`rank_probabilities`](crate::psr::rank_probabilities) would store.  A
//! copied row keeps a value the mutation did not change, so a chain of
//! mutations accumulates no error: every stored row stays as close to the
//! exact value as a fresh PSR run (up to the few ulps an arrival's
//! multiply adds, below).
//!
//! A checkpoint holds the scan's running and frozen products at its
//! position, which depend only on the tuples above it.  A mutation of `L`
//! leaves every tuple above `L`'s first alternative in place with its
//! mass (a removal renumbers the later x-tuples but moves no mass and no
//! tuple above it), so the checkpoints at or above that position stay
//! exact.  Every mutation drops the ones past it (past an arrival's first
//! post-insert position) before it writes a row; the scan re-records each
//! one it passes, and those at or past the new cut leave with the rows.
//! The stored checkpoints are therefore always a prefix of those a fresh
//! run over the mutated database records.
//!
//! A mutation costs one scan from the checkpoint above its first rewritten
//! row to its last: O(start + m) to replay the bookkeeping above the
//! checkpoint with no polynomial work, then O((last − start)·k) plus
//! O(|in-flight|·k) per step or row the scan re-forms, and O(k) per
//! rewritten or moved row; a mutation whose x-tuple lies wholly past the
//! cut costs no row work at all.  A mutation deep in the prefix thus pays
//! polynomial work only from the deepest stored checkpoint above its first
//! changed row (at most 63 positions above it when the checkpoints reach
//! that far; a scan re-records only those it passes), not for the whole
//! prefix above it.  Dividing the old factor out of each
//! changed row and multiplying the new one in would cost O(k) per row, but
//! that patch is not used because its rounding error compounds along a
//! chain of mutations.
//!
//! The same cases cover **streaming membership**
//! ([`XTupleMutation::Insert`] / [`XTupleMutation::Remove`]).  Removing
//! an x-tuple drops every alternative and rewrites the rows whose `q_L`
//! was non-zero.  Inserting one is the `q_L = 0` case: the stored rows
//! never contained the arriving factor, so each surviving row below the
//! arrival takes one binomial *multiply* (its coefficients are convex
//! combinations of the old ones, so it never amplifies error), while the
//! matrix grows by the new row-group, whose own rows go to the same scan.
//!
//! [`rank_probabilities`](crate::psr::rank_probabilities) /
//! [`rank_probabilities_exact`](crate::psr::rank_probabilities_exact) on
//! the mutated database remain the correctness oracles; the
//! `delta_equivalence` test suite pins the delta path against both across
//! randomized mutation sequences.
//!
//! ## How the tail cut moves
//!
//! The matrix stores only its live prefix, the rows above the tail cut
//! (see [`TAIL_EPSILON`](crate::psr::TAIL_EPSILON)): the first position
//! where T(i) = Pr[fewer than `k` existing tuples rank above `i`] is at
//! most ε, Lemma 2's cut being the case T = 0.  Above `L`'s first
//! alternative neither T nor any row changes, so:
//!
//! * **Wholly past the cut.**  When `L`'s first alternative (an arrival's
//!   own position, for an insert) lies below the cut, the tuples above
//!   the cut and the one at it are unchanged: only the database changes,
//!   with no scan and no row moved.
//! * **Otherwise** a copied row keeps its value and its T, so the cut
//!   can newly fall only on a row the scan rewrites, which it reads as
//!   it writes and stops there, or on a row an arrival multiplies (its T
//!   falls), read in O(1) from the scan's own per-x-tuple mass fold.
//!   The fold also moves Lemma 2's cut up when an x-tuple saturates
//!   earlier.  When the cut falls on none of these, T at the old cut's
//!   tuple is at most its old value unless `L` lost mass above it, so
//!   the cut falls at that tuple without scanning down to it.
//! * **Mass lost above the old cut** (a removal, a reweight or a
//!   collapse that takes mass from above it) can raise T there: the scan
//!   then goes on past the old cut, appending and writing the newly live
//!   rows until the rule fires, until `k` x-tuples saturate, or to `n`.
//!
//! The rows past the new cut leave storage and count as copied, so
//! [`DeltaStats::rows_total`] still equals the tuple count.  On complete
//! data the cut is Lemma 2's, and the scan goes no further than the last
//! rewritten row or the rows a lowered cut makes live.

use crate::poly;
use crate::psr::{self, MassFold, RankProbabilities, Scan};
use pdb_core::{DbError, RankedDatabase, Result};
use serde::{Deserialize, Serialize};

/// Old and new factor masses closer than this are treated as equal and the
/// row is copied.  Copying instead of rewriting a row whose factor mass
/// moved by `δ` changes each coefficient by at most `2·δ` (the error is
/// linear in `δ` and independent of the factor's conditioning), so the
/// tolerance directly bounds the introduced error.  Without it, a
/// collapsed full-mass x-tuple whose member probabilities sum to
/// 1 ± a few ulps would send every row below its last alternative
/// (`q_old ≈ 1` vs `q_new = 1`) to the scan for no accuracy gain.
const Q_EQUAL_EPSILON: f64 = 1e-12;

/// A mutation of a single x-tuple — the unified mutation surface shared by
/// the engine, the `apply_mutation` wire verb, the WAL and the CLI.
///
/// The first three variants are probe outcomes (they mutate an *existing*
/// x-tuple); [`Insert`](XTupleMutation::Insert) and
/// [`Remove`](XTupleMutation::Remove) are the streaming-membership
/// mutations that let a long-lived session's database grow and shrink
/// under arriving and departing entities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum XTupleMutation {
    /// A successful probe revealed the alternative at rank position
    /// `keep_pos` (which must belong to the mutated x-tuple): every other
    /// alternative is removed and the kept one becomes certain.
    CollapseToAlternative {
        /// Rank position (in the *pre-mutation* database) of the revealed
        /// alternative.
        keep_pos: usize,
    },
    /// A successful probe revealed the implicit null alternative: the
    /// entity has no reading and drops out of the database.
    CollapseToNull,
    /// The x-tuple's alternatives keep their positions but carry new
    /// existential probabilities (a partial observation that sharpens the
    /// distribution without collapsing it).
    Reweight {
        /// New probabilities, in the x-tuple's rank (member) order.
        probs: Vec<f64>,
    },
    /// A brand-new x-tuple arrives (e.g. a sensor comes online).  Inserts
    /// are append-only: the target x-index must equal the current x-tuple
    /// count, so existing x-indices stay stable.
    Insert {
        /// Human-readable key of the new entity.
        key: String,
        /// `(score, prob)` alternatives of the new x-tuple.
        alternatives: Vec<(f64, f64)>,
    },
    /// An existing x-tuple departs entirely (e.g. a sensor is
    /// decommissioned).  Unlike
    /// [`CollapseToNull`](XTupleMutation::CollapseToNull) this is not an
    /// observation — it needs no null mass; all alternatives are dropped
    /// unconditionally and later x-tuples are re-indexed densely.
    Remove,
}

/// How the rows of one (or several accumulated) incremental updates were
/// produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaStats {
    /// Rows whose value the mutation leaves alone, moved up past dropped
    /// rows where needed: rows above the mutated x-tuple, rows whose
    /// mutated factor kept its mass, and rows whose existential
    /// probability is zero.  Rows past the new tail cut are treated as
    /// zero (their entries are at most
    /// [`TAIL_EPSILON`](crate::psr::TAIL_EPSILON)), are not stored, and
    /// count here too.
    pub rows_copied: usize,
    /// Rows multiplied by an arriving x-tuple's binomial factor: an
    /// insert's surviving rows below its first alternative.
    pub rows_swapped: usize,
    /// Rows rewritten by the windowed PSR scan, bit-identical to a fresh
    /// run: the mutated x-tuple's own surviving rows, rows whose mutated
    /// factor changed, rows a lowered cut makes live, and an inserted
    /// x-tuple's own rows, each above the new cut.
    pub rows_rebuilt: usize,
    /// Rows removed together with the mutated x-tuple's dropped
    /// alternatives.
    pub rows_dropped: usize,
    /// Number of windowed PSR scans that rewrote rows: at most one per
    /// mutation.
    pub windowed_scans: usize,
}

impl DeltaStats {
    /// Fold another update's statistics into this accumulator.
    pub fn accumulate(&mut self, other: &DeltaStats) {
        self.rows_copied += other.rows_copied;
        self.rows_swapped += other.rows_swapped;
        self.rows_rebuilt += other.rows_rebuilt;
        self.rows_dropped += other.rows_dropped;
        self.windowed_scans += other.windowed_scans;
    }

    /// Total number of rows of the mutated database that were produced.
    pub fn rows_total(&self) -> usize {
        self.rows_copied + self.rows_swapped + self.rows_rebuilt
    }
}

/// How one delta pass moved the rows of the matrix's live prefix, for a
/// caller that keeps one value per live row beside it (the quality
/// layer's Theorem-1 weights).  The delta pass that moves the matrix rows
/// records it, so which rows left and which arrived is decided once.
#[derive(Debug, Clone)]
pub struct RowMoves {
    /// Pre-mutation positions of the rows the mutation dropped (the
    /// mutated x-tuple's removed alternatives), ascending.
    dropped: Vec<usize>,
    /// Post-mutation positions of the mutated x-tuple's rows (its
    /// surviving alternatives, or an arrival's), ascending.
    own: Vec<usize>,
    /// Whether the `own` rows arrived (an insert) instead of surviving.
    arrived: bool,
}

impl RowMoves {
    /// Move `values`, one per row of the pre-mutation live prefix, the
    /// way the mutation moved the rows, and fit them to the
    /// post-mutation live prefix of `live` rows: a dropped row's value
    /// leaves, every other value moves with its row, and `fresh(pos)`
    /// computes the rows whose value the caller cannot carry — the
    /// mutated x-tuple's own rows and the rows newly inside the prefix.
    /// O(live) moves and O(own + new rows) calls of `fresh`.
    pub fn carry<T: Copy>(
        &self,
        values: &mut Vec<T>,
        live: usize,
        mut fresh: impl FnMut(usize) -> T,
    ) {
        // Dropped rows leave: one pass compacts the values below the first.
        if let Some(&first) = self.dropped.first() {
            let mut gone = self.dropped.iter().copied().peekable();
            let mut write = first;
            for read in first..values.len() {
                if gone.next_if_eq(&read).is_none() {
                    values[write] = values[read];
                    write += 1;
                }
            }
            values.truncate(write);
        }
        // Arrivals take their slots: arrival `j` at `pos` lands below
        // `pos − j` carried rows, and one back-to-front pass moves the
        // values below each slot down.  An arrival below every carried
        // row is a new row of the prefix.
        if self.arrived {
            let carried = values.len();
            let inside =
                self.own.iter().enumerate().take_while(|&(j, &pos)| pos - j < carried).count();
            if let Some(&fill) = values.first() {
                values.resize(carried + inside, fill);
            }
            let mut end = carried;
            for (j, &pos) in self.own[..inside].iter().enumerate().rev() {
                values.copy_within(pos - j..end, pos + 1);
                end = pos - j;
            }
        }
        let carried = values.len();
        values.truncate(live);
        let kept = values.len();
        for &pos in self.own.iter().take_while(|&&pos| pos < kept) {
            values[pos] = fresh(pos);
        }
        values.extend((carried..live).map(&mut fresh));
    }
}

/// One delta pass: its statistics, how it moved the rows, and where its
/// windowed scan ran (`None` when it ran none).
pub(crate) struct Patch {
    pub(crate) stats: DeltaStats,
    pub(crate) moves: RowMoves,
    /// Read by the tests that pin where a scan resumes.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) scan: Option<Scan>,
}

/// Apply a single-x-tuple mutation to a database **and** its completed
/// rank-probability matrix, in place: the database is mutated without a
/// re-sort (every mutation preserves the rank order of the surviving
/// tuples) and the ρ matrix is patched row by row.  Callers that need the
/// pre-mutation state keep a clone.  This is the engine's one mutation
/// pass: `BatchEvaluation` runs the same pass once per mutation on its
/// master matrix, and also hands its caller the [`RowMoves`] it recorded.
///
/// Rows ranked above the mutated x-tuple's first alternative are not
/// touched at all; surviving rows below it and above the new tail cut
/// are zeroed, copied (a `memmove` when alternatives were dropped) or
/// rewritten by one windowed PSR scan as the module docs describe, and
/// the rows past the cut are dropped.  The matrix work is O(cut·k + m).
/// The database patches its own index: a reweight moves no tuple and
/// refolds only its x-tuple's masses, O(alternatives); a collapse, a
/// null collapse or a removal compacts the rows below the first dropped
/// alternative in one `copy_within` pass; an insert splices its arrivals
/// in with one back-to-front pass over the rows below the first of them
/// (a removal also renumbers the later x-indices and an insert allocates
/// fresh ids, each one read of the tuple column).  A mutation whose
/// x-tuple lies wholly past the cut costs only that update.  All
/// validation happens before anything is mutated, so on `Err` both inputs
/// are unchanged.
pub fn apply_mutation_in_place(
    db: &mut RankedDatabase,
    rp: &mut RankProbabilities,
    l: usize,
    mutation: &XTupleMutation,
) -> Result<DeltaStats> {
    mutate_in_place(db, rp, l, mutation).map(|patch| patch.stats)
}

/// [`apply_mutation_in_place`], also returning how it moved the rows and
/// where its windowed scan ran.
pub(crate) fn mutate_in_place(
    db: &mut RankedDatabase,
    rp: &mut RankProbabilities,
    l: usize,
    mutation: &XTupleMutation,
) -> Result<Patch> {
    pdb_obs::metrics::ENGINE_DELTA_PATCHES_TOTAL.inc();
    if rp.num_tuples() != db.len() {
        return Err(DbError::invalid_parameter(format!(
            "rank probabilities cover {} tuples but the database has {}",
            rp.num_tuples(),
            db.len()
        )));
    }
    // An insert grows the matrix instead of patching surviving rows, and
    // targets the *appended* x-index, so it takes its own path before the
    // existing-x-tuple bounds check.
    if let XTupleMutation::Insert { key, alternatives } = mutation {
        return insert_in_place(db, rp, l, key, alternatives);
    }
    if l >= db.num_x_tuples() {
        return Err(DbError::index_out_of_range(format!("x-tuple {l} of {}", db.num_x_tuples())));
    }
    let k = rp.k();
    let old_live = rp.live_rows();
    // Snapshots of the mutated x-tuple (its pre-mutation probabilities are
    // needed while patching rows after the database has been updated).
    let members = db.x_tuple(l).members.clone();
    let old_probs: Vec<f64> = members.iter().map(|&p| db.tuple(p).prob).collect();

    // Per-member probability and survival after the mutation, computed
    // (and validated) before the matching in-place database mutator runs;
    // each mutator itself validates before touching anything, so on `Err`
    // both inputs are unchanged.
    let (new_probs, kept): (Vec<f64>, Vec<bool>) = match mutation {
        XTupleMutation::Insert { key, alternatives } => {
            return insert_in_place(db, rp, l, key, alternatives)
        }
        XTupleMutation::CollapseToAlternative { keep_pos } => {
            if *keep_pos >= db.len() || db.tuple(*keep_pos).x_index != l {
                return Err(DbError::index_out_of_range(format!(
                    "tuple position {keep_pos} is not an alternative of x-tuple {l}"
                )));
            }
            let keep = members.iter().map(|&p| p == *keep_pos);
            let outcome =
                (keep.clone().map(|k| if k { 1.0 } else { 0.0 }).collect(), keep.collect());
            db.collapse_x_tuple_in_place(l, *keep_pos)?;
            outcome
        }
        XTupleMutation::CollapseToNull => {
            db.collapse_x_tuple_to_null_in_place(l)?;
            (vec![0.0; members.len()], vec![false; members.len()])
        }
        XTupleMutation::Remove => {
            db.remove_x_tuple_in_place(l)?;
            (vec![0.0; members.len()], vec![false; members.len()])
        }
        XTupleMutation::Reweight { probs } => {
            if probs.len() != members.len() {
                return Err(DbError::invalid_parameter(format!(
                    "x-tuple {l} has {} alternatives but {} probabilities were supplied",
                    members.len(),
                    probs.len()
                )));
            }
            db.reweight_x_tuple_in_place(l, probs)?;
            (probs.clone(), vec![true; members.len()])
        }
    };

    let new_n = db.len();
    let first = members[0];
    // Nothing above `first` changed, so neither did the scan's state at
    // or above it.
    rp.drop_checkpoints_past(first);
    let mut stats = DeltaStats {
        rows_dropped: kept.iter().filter(|&&kept| !kept).count(),
        ..DeltaStats::default()
    };
    let dropped = members.iter().zip(&kept).filter(|(_, &kept)| !kept).map(|(&pos, _)| pos);
    let own = if kept.contains(&true) { db.x_tuple(l).members.clone() } else { Vec::new() };
    let moves = RowMoves { dropped: dropped.collect(), own, arrived: false };
    if first > old_live {
        // Wholly past the cut: the tuples above the cut and the one at
        // it are unchanged, so T there and the cut stay, and no stored
        // row moves.
        rp.reshape(new_n, old_live);
        stats.rows_copied = new_n;
        pdb_obs::metrics::ENGINE_PSR_LIVE_ROWS.record(old_live as u64);
        return Ok(Patch { stats, moves, scan: None });
    }

    // The scan's masses above each post-mutation position, for Lemma 2's
    // cut and for the rule at the old cut's tuple; nothing above `first`
    // changed.
    let mut fold = MassFold::new(db);
    fold.advance_to(db, first);
    // New positions the scan rewrites; ascending by construction.
    let mut rewritten: Vec<usize> = Vec::new();
    // The cut, once it falls on a row the scan does not write.
    let mut bound = None;
    // Running clamped folds of x-tuple l's higher-ranked mass — the
    // exact quantity the PSR scan maintains, before and after the
    // mutation — plus the forward-compaction shift from dropped rows.
    let mut member_idx = 0usize;
    let mut q_old = 0.0f64;
    let mut q_new = 0.0f64;
    let mut shift = 0usize;
    {
        let (rho, top_k) = rp.parts_mut();
        for pos in first..old_live {
            while member_idx < members.len() && members[member_idx] < pos {
                q_old = (q_old + old_probs[member_idx]).min(1.0);
                q_new = (q_new + new_probs[member_idx]).min(1.0);
                member_idx += 1;
            }
            let is_own = member_idx < members.len() && members[member_idx] == pos;
            if is_own && !kept[member_idx] {
                shift += 1;
                continue;
            }
            let new_pos = pos - shift;
            fold.advance_to(db, new_pos);
            if fold.saturated() >= k {
                // Lemma 2's cut moved up.
                bound = Some(new_pos);
                break;
            }
            let t = db.tuple(new_pos);
            let (src, dst) = (pos * k, new_pos * k);
            if t.prob <= 0.0 {
                // ρ = eᵢ′ · (…) is identically zero.
                rho[dst..dst + k].fill(0.0);
                top_k[new_pos] = 0.0;
            } else if !is_own && (q_old - q_new).abs() <= Q_EQUAL_EPSILON {
                // Unchanged value, so unchanged T: the cut cannot fall
                // here.  Move it only if rows above were dropped.
                if shift > 0 {
                    rho.copy_within(src..src + k, dst);
                    top_k[new_pos] = top_k[pos];
                }
            } else {
                // The scan writes only the entries PSR makes non-zero.
                rho[dst..dst + k].fill(0.0);
                top_k[new_pos] = 0.0;
                rewritten.push(new_pos);
            }
        }
    }
    // The old cut's tuple, or the first survivor below it, now sits at
    // `start`.  T there is at most the old cut's (≤ ε, or k saturated
    // x-tuples above) unless x-tuple l lost mass above the old cut; then
    // the scan writes every row from `start` on until the cut falls.
    let start = old_live - shift;
    let mut extend = false;
    let bound = match bound {
        Some(bound) => bound,
        None if start >= new_n => new_n,
        None => {
            while member_idx < members.len() && members[member_idx] < old_live {
                q_old = (q_old + old_probs[member_idx]).min(1.0);
                q_new = (q_new + new_probs[member_idx]).min(1.0);
                member_idx += 1;
            }
            fold.advance_to(db, start);
            if fold.saturated() >= k || (q_new >= q_old && fold.reads_tail(db.tuple(start))) {
                start
            } else {
                extend = true;
                new_n
            }
        }
    };
    let (grow_from, end) =
        if extend { (start, new_n) } else { (bound, rewritten.last().map_or(0, |&p| p + 1)) };
    rp.reshape(new_n, grow_from);
    let scan = rewrite_rows(db, rp, &mut stats, &rewritten, grow_from, end)?;
    let cut = scan.filter(|scan| scan.stop < end).map_or(bound, |scan| scan.stop);
    rp.reshape(new_n, cut);
    stats.rows_copied = new_n - stats.rows_rebuilt;
    pdb_obs::metrics::ENGINE_PSR_LIVE_ROWS.record(cut as u64);
    Ok(Patch { stats, moves, scan })
}

/// Rewrite, with one PSR scan over the mutated database ending at `end`,
/// the rows at `rows` (post-mutation positions, ascending, zeroed) and
/// every row from `grow_from` on, which the scan appends as it reaches
/// them.  The scan resumes at the deepest checkpoint above the first of
/// them: O(start + m) to rebuild its bookkeeping there, then
/// O((stop − start)·k) plus O(|in-flight|·k) per step or row it
/// re-forms.  The rows leave bit-identical to a fresh
/// [`rank_probabilities`](crate::psr::rank_probabilities) run's.  The scan
/// stops at the cut if it falls on a row it writes (`stop < end`).
/// Returns where it ran, or `None` when `end` is 0 and no scan ran.
fn rewrite_rows(
    db: &RankedDatabase,
    rp: &mut RankProbabilities,
    stats: &mut DeltaStats,
    rows: &[usize],
    grow_from: usize,
    end: usize,
) -> Result<Option<Scan>> {
    if end == 0 {
        return Ok(None);
    }
    let mut want = vec![false; rows.last().map_or(0, |&p| p + 1)];
    for &p in rows {
        want[p] = true;
    }
    let from = rows.first().map_or(grow_from, |&p| p.min(grow_from));
    let wanted = |pos: usize| pos >= grow_from || want.get(pos).copied().unwrap_or(false);
    let scan = psr::scan_rows_into(db, rp, from, end, wanted)?;
    let rebuilt = rows.partition_point(|&p| p < scan.stop) + scan.stop.saturating_sub(grow_from);
    stats.rows_rebuilt += rebuilt;
    stats.windowed_scans += 1;
    pdb_obs::metrics::ENGINE_REBUILT_ROWS_TOTAL.add(rebuilt as u64);
    Ok(Some(scan))
}

/// The [`XTupleMutation::Insert`] patch: append a brand-new x-tuple and
/// grow the ρ matrix by its row-group inside the new cut.
///
/// The arriving factor was never part of any stored row, so every
/// surviving row below the new x-tuple's first alternative takes a single
/// binomial *multiply*, which never amplifies error.  The backward pass
/// shifts existing rows to their post-insert positions (back to front, so
/// the move is alias-free), the forward pass multiplies the arriving
/// factor in and reads the cut off each row it multiplies, and the new
/// x-tuple's own rows — the only ones whose eᵢ-weighted product the
/// matrix never contained — are written by the same windowed scan the
/// other mutations use.  An arrival only adds mass above the rows below
/// it, so T falls there and the cut never moves down; an arrival ranked
/// below the cut changes no stored row.
fn insert_in_place(
    db: &mut RankedDatabase,
    rp: &mut RankProbabilities,
    l: usize,
    key: &str,
    alternatives: &[(f64, f64)],
) -> Result<Patch> {
    if l != db.num_x_tuples() {
        return Err(DbError::invalid_parameter(format!(
            "inserts are append-only: target x-index {l} must equal the x-tuple count {}",
            db.num_x_tuples()
        )));
    }
    let (k, old_n, old_live) = (rp.k(), db.len(), rp.live_rows());
    // Validates everything (and allocates fresh ids) before mutating, so
    // on `Err` both inputs are unchanged.
    db.insert_x_tuple_in_place(key.to_string(), alternatives)?;
    let new_n = db.len();
    // Positions of the new alternatives in the *post-insert* database,
    // ascending.
    let members = db.x_tuple(l).members.clone();
    let first = members[0];
    // Every tuple above the arrival's first position kept its place.
    rp.drop_checkpoints_past(first);
    let mut stats = DeltaStats::default();
    let moves = RowMoves { dropped: Vec::new(), own: members.clone(), arrived: true };
    if old_live < old_n && first > old_live {
        // Wholly past the cut: nothing above the cut's tuple moved.
        rp.reshape(new_n, old_live);
        stats.rows_copied = new_n;
        pdb_obs::metrics::ENGINE_PSR_LIVE_ROWS.record(old_live as u64);
        return Ok(Patch { stats, moves, scan: None });
    }
    // Arrival `j` has `members[j] - j` old tuples above it, a count that
    // never falls with `j`.  `start` is the first post-insert position
    // with all `old_live` stored rows above it, so T there is at most the
    // old cut's; `cut_pos` is where the old cut's tuple landed, and only
    // arrivals lie between the two.  With no old cut
    // (`old_live == old_n`) nothing is known past the table's end.
    let old_above: Vec<usize> = members.iter().enumerate().map(|(j, &p)| p - j).collect();
    let (start, cut_pos) = if old_live < old_n {
        (
            old_live + old_above.partition_point(|&a| a < old_live),
            old_live + old_above.partition_point(|&a| a <= old_live),
        )
    } else {
        (new_n, new_n)
    };

    rp.reshape(new_n, cut_pos);
    let mut bound = None;
    {
        let (rho, top_k) = rp.parts_mut();
        // Backward pass: move each surviving row from its pre-insert
        // position `pos - pending` to `pos`, zero-filling the slots where
        // the new alternatives land.
        let mut pending = members.partition_point(|&p| p < cut_pos);
        for pos in (0..cut_pos).rev() {
            if pending == 0 {
                // Rows above the first new alternative keep their
                // positions.
                break;
            }
            if members[pending - 1] == pos {
                pending -= 1;
                rho[pos * k..(pos + 1) * k].fill(0.0);
                top_k[pos] = 0.0;
            } else {
                debug_assert!(pos - pending < old_live, "row {pos} was past the old cut");
                let src = (pos - pending) * k;
                rho.copy_within(src..src + k, pos * k);
                top_k[pos] = top_k[pos - pending];
            }
        }
        // Forward pass: multiply the arriving factor (the new x-tuple's
        // clamped higher-ranked mass) into every surviving row below it,
        // and read the cut off each row it multiplies.
        let mut fold = MassFold::new(db);
        let mut member_idx = 0usize;
        let mut q_new = 0.0f64;
        for pos in first..start {
            while member_idx < members.len() && members[member_idx] < pos {
                q_new = (q_new + db.tuple(members[member_idx]).prob).min(1.0);
                member_idx += 1;
            }
            fold.advance_to(db, pos);
            if fold.saturated() >= k {
                bound = Some(pos);
                break;
            }
            if member_idx < members.len() && members[member_idx] == pos {
                // The new x-tuple's own row: the scan writes it below.
                continue;
            }
            let t = db.tuple(pos);
            if q_new > 0.0 && t.prob > 0.0 {
                let row = &mut rho[pos * k..(pos + 1) * k];
                poly::multiply_binomial_in(row, q_new);
                top_k[pos] = row.iter().sum();
                stats.rows_swapped += 1;
                // The arriving mass lowered T here.
                if fold.cuts_row(t, top_k[pos], row[k - 1]) {
                    bound = Some(pos);
                    break;
                }
            }
        }
        if bound.is_none() && start < new_n {
            // The cut falls at `start` if the rule reads that row, and at
            // the old cut's tuple otherwise.
            fold.advance_to(db, start);
            let at_start = fold.saturated() >= k || fold.reads_tail(db.tuple(start));
            bound = Some(if at_start { start } else { cut_pos });
        }
    }
    let bound = bound.unwrap_or(new_n);

    let own = &members[..members.partition_point(|&p| p < bound)];
    let end = own.last().map_or(0, |&p| p + 1);
    let scan = rewrite_rows(db, rp, &mut stats, own, bound, end)?;
    let cut = scan.filter(|scan| scan.stop < end).map_or(bound, |scan| scan.stop);
    rp.reshape(new_n, cut);
    stats.rows_copied = new_n - stats.rows_rebuilt - stats.rows_swapped;
    pdb_obs::metrics::ENGINE_PSR_LIVE_ROWS.record(cut as u64);
    Ok(Patch { stats, moves, scan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psr::{rank_probabilities, rank_probabilities_exact, PSR_CHECKPOINT_ROWS};
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn mutations_and_delta_stats_round_trip_through_json() {
        for mutation in [
            XTupleMutation::CollapseToAlternative { keep_pos: 3 },
            XTupleMutation::CollapseToNull,
            XTupleMutation::Reweight { probs: vec![0.25, 0.5] },
            XTupleMutation::Insert {
                key: "s9".into(),
                alternatives: vec![(4.0, 0.5), (3.0, 0.25)],
            },
            XTupleMutation::Remove,
        ] {
            let json = serde_json::to_string(&mutation).unwrap();
            let back: XTupleMutation = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mutation, "via {json}");
        }
        let stats = DeltaStats {
            rows_copied: 1,
            rows_swapped: 2,
            rows_rebuilt: 3,
            rows_dropped: 4,
            windowed_scans: 5,
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: DeltaStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats, "via {json}");
    }

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    fn assert_matches_oracle(db: &RankedDatabase, rp: &RankProbabilities, tol: f64) {
        let oracle = rank_probabilities_exact(db, rp.k()).unwrap();
        for pos in 0..db.len() {
            for h in 1..=rp.k() {
                let got = rp.rank_prob(pos, h);
                let want = oracle.rank_prob(pos, h);
                assert!((got - want).abs() < tol, "pos {pos} h {h}: delta {got} vs oracle {want}");
            }
        }
    }

    /// `db` and its PSR matrix at `k`, ready to be mutated in place.
    fn evaluated(db: RankedDatabase, k: usize) -> (RankedDatabase, RankProbabilities) {
        let rp = rank_probabilities(&db, k).unwrap();
        (db, rp)
    }

    #[test]
    fn collapse_to_alternative_matches_full_rebuild() {
        let (mut db, mut rp) = evaluated(udb1(), 2);
        // Collapse S3 to its 27° reading (position 2): the udb1 → udb2
        // transition of the paper.
        let mutation = XTupleMutation::CollapseToAlternative { keep_pos: 2 };
        let stats = apply_mutation_in_place(&mut db, &mut rp, 2, &mutation).unwrap();
        assert_eq!(db.len(), 6);
        assert_eq!(stats.rows_dropped, 1);
        assert_eq!(stats.rows_total(), 6);
        assert_matches_oracle(&db, &rp, 1e-9);
    }

    #[test]
    fn collapse_to_null_matches_full_rebuild() {
        let (mut db, mut rp) = evaluated(
            RankedDatabase::from_scored_x_tuples(&[
                vec![(10.0, 0.5)],
                vec![(9.0, 0.4), (8.0, 0.2)],
                vec![(7.0, 1.0)],
            ])
            .unwrap(),
            2,
        );
        let stats =
            apply_mutation_in_place(&mut db, &mut rp, 0, &XTupleMutation::CollapseToNull).unwrap();
        assert_eq!(db.num_x_tuples(), 2);
        assert_eq!(stats.rows_dropped, 1);
        assert_matches_oracle(&db, &rp, 1e-9);
    }

    #[test]
    fn reweight_matches_full_rebuild() {
        let (mut db, mut rp) = evaluated(udb1(), 3);
        let mutation = XTupleMutation::Reweight { probs: vec![0.1, 0.8] };
        apply_mutation_in_place(&mut db, &mut rp, 0, &mutation).unwrap();
        assert_matches_oracle(&db, &rp, 1e-9);
    }

    #[test]
    fn insert_matches_full_rebuild() {
        let (mut db, mut rp) = evaluated(udb1(), 3);
        // A new sensor arrives mid-ranking: one alternative lands above
        // existing tuples, one below, and mass is withheld (null prob).
        let mutation = XTupleMutation::Insert {
            key: "S5".into(),
            alternatives: vec![(28.0, 0.5), (23.0, 0.3)],
        };
        let stats = apply_mutation_in_place(&mut db, &mut rp, 4, &mutation).unwrap();
        assert_eq!(db.num_x_tuples(), 5);
        assert_eq!(db.len(), 9);
        assert_eq!(stats.rows_rebuilt, 2, "the new x-tuple's own rows: {stats:?}");
        assert_eq!(stats.rows_dropped, 0);
        assert_eq!(stats.rows_total(), 9);
        assert_matches_oracle(&db, &rp, 1e-9);
    }

    #[test]
    fn insert_below_everything_copies_all_rows() {
        // An arrival ranked below the whole database affects no stored
        // row.  At k = 5 fewer than k x-tuples saturate, every row is
        // live and only the arrival's own row is built; at k = 2 it lands
        // past Lemma 2's cut (row 5) and nothing is built at all.
        for (k, copied, rebuilt, live) in [(5, 7, 1, 8), (2, 8, 0, 5)] {
            let (mut db, mut rp) = evaluated(udb1(), k);
            let mutation =
                XTupleMutation::Insert { key: "low".into(), alternatives: vec![(1.0, 0.4)] };
            let stats = apply_mutation_in_place(&mut db, &mut rp, 4, &mutation).unwrap();
            assert_eq!(stats.rows_copied, copied, "k = {k}: {stats:?}");
            assert_eq!(stats.rows_rebuilt, rebuilt, "k = {k}: {stats:?}");
            assert_eq!(stats.rows_swapped, 0);
            assert_eq!(rp.live_rows(), live, "k = {k}");
            assert_matches_oracle(&db, &rp, 1e-9);
        }
    }

    #[test]
    fn remove_matches_full_rebuild() {
        let (mut db, mut rp) = evaluated(udb1(), 2);
        // Remove S2 (x-index 1), a full-mass x-tuple — collapse-to-null
        // would reject it, removal must not.
        let stats = apply_mutation_in_place(&mut db, &mut rp, 1, &XTupleMutation::Remove).unwrap();
        assert_eq!(db.num_x_tuples(), 3);
        assert_eq!(db.len(), 5);
        assert_eq!(stats.rows_dropped, 2);
        assert_matches_oracle(&db, &rp, 1e-9);
    }

    #[test]
    fn insert_rejects_non_appended_target_index() {
        let (db, rp) = evaluated(udb1(), 2);
        let (mut db2, mut rp2) = (db.clone(), rp.clone());
        let mutation = XTupleMutation::Insert { key: "S5".into(), alternatives: vec![(28.0, 0.5)] };
        // Anything other than the current x-tuple count is rejected, and
        // invalid alternatives leave both inputs unchanged.
        assert!(apply_mutation_in_place(&mut db2, &mut rp2, 0, &mutation).is_err());
        assert!(apply_mutation_in_place(&mut db2, &mut rp2, 99, &mutation).is_err());
        let bad = XTupleMutation::Insert { key: "S5".into(), alternatives: vec![(28.0, 1.5)] };
        assert!(apply_mutation_in_place(&mut db2, &mut rp2, 4, &bad).is_err());
        assert_eq!(db2, db);
        assert_eq!(rp2, rp);
    }

    #[test]
    fn delta_evaluation_tracks_a_mutation_sequence() {
        let (mut db, mut rp) = evaluated(udb1(), 2);
        let mut total = DeltaStats::default();
        for (l, mutation) in [
            (2, XTupleMutation::CollapseToAlternative { keep_pos: 2 }),
            (1, XTupleMutation::Reweight { probs: vec![0.2, 0.1] }),
            (1, XTupleMutation::CollapseToNull),
        ] {
            total.accumulate(&apply_mutation_in_place(&mut db, &mut rp, l, &mutation).unwrap());
        }
        assert_eq!(db.num_x_tuples(), 3);
        assert_eq!(total.rows_dropped, 3);
        assert_eq!(db.len(), rp.num_tuples());
        assert_matches_oracle(&db, &rp, 1e-8);
    }

    #[test]
    fn shadowed_rows_are_rebuilt_when_a_certain_blocker_drops_out() {
        // One near-certain x-tuple with null mass shadows everything below
        // it at k = 1; collapsing it to null must resurrect those rows,
        // whose factor drops from q = 0.99 to 0, so the scan rewrites them.
        let (mut db, mut rp) = evaluated(
            RankedDatabase::from_scored_x_tuples(&[
                vec![(100.0, 0.99)],
                vec![(50.0, 0.6), (40.0, 0.4)],
                vec![(30.0, 1.0)],
            ])
            .unwrap(),
            1,
        );
        let stats =
            apply_mutation_in_place(&mut db, &mut rp, 0, &XTupleMutation::CollapseToNull).unwrap();
        // The 30-score tuple now lies past Lemma 2's cut.
        assert_eq!(stats.rows_rebuilt, 2, "every live row is rewritten: {stats:?}");
        assert_eq!(stats.windowed_scans, 1, "{stats:?}");
        assert_matches_oracle(&db, &rp, 1e-9);
        // The 50-score tuple now leads the ranking outright.
        assert!((rp.top_k_prob(0) - 0.6).abs() < 1e-9);
    }

    /// Forty x-tuples of two alternatives and total mass 0.9, ranked one
    /// after the other: at k = 2 the tail cut falls about halfway down,
    /// once some 20 x-tuples lie above it.
    fn null_mass_chain() -> RankedDatabase {
        let x: Vec<Vec<(f64, f64)>> =
            (0..40).map(|i| vec![(100.0 - i as f64, 0.5), (99.5 - i as f64, 0.4)]).collect();
        RankedDatabase::from_scored_x_tuples(&x).unwrap()
    }

    #[test]
    fn mutations_wholly_past_the_tail_cut_touch_no_row() {
        let (mut db, mut rp) = evaluated(null_mass_chain(), 2);
        let live = rp.live_rows();
        assert!(live > 2 && live + 10 < db.len(), "the cut lies inside the table: {live}");
        let bits = |rp: &RankProbabilities| {
            (0..rp.live_rows())
                .flat_map(|pos| rp.rank_probs(pos).iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let before = bits(&rp);
        let past = db.tuple(live + 2).x_index;
        let arrival = XTupleMutation::Insert { key: "low".into(), alternatives: vec![(1.0, 0.7)] };
        for (l, mutation) in [
            (Some(past), XTupleMutation::Reweight { probs: vec![0.1, 0.2] }),
            (Some(past + 3), XTupleMutation::Remove),
            (None, arrival),
        ] {
            let l = l.unwrap_or(db.num_x_tuples());
            let stats = apply_mutation_in_place(&mut db, &mut rp, l, &mutation).unwrap();
            assert_eq!(
                (stats.rows_rebuilt, stats.rows_swapped, stats.windowed_scans),
                (0, 0, 0),
                "{mutation:?}: {stats:?}"
            );
            assert_eq!(stats.rows_total(), db.len());
            assert_eq!(bits(&rp), before, "{mutation:?} left the stored prefix bit-identical");
            let fresh = rank_probabilities(&db, 2).unwrap();
            assert_eq!(rp.live_rows(), fresh.live_rows(), "{mutation:?}");
            assert_eq!(rp, fresh, "{mutation:?}");
        }
    }

    #[test]
    fn rejects_inconsistent_inputs() {
        let (db, rp) = evaluated(udb1(), 2);
        let (mut db2, mut rp2) = (db.clone(), rp.clone());
        for (l, mutation) in [
            // Foreign keep position.
            (0, XTupleMutation::CollapseToAlternative { keep_pos: 1 }),
            // Out-of-range x-tuple.
            (9, XTupleMutation::CollapseToNull),
            // Reweight arity mismatch.
            (0, XTupleMutation::Reweight { probs: vec![0.5] }),
        ] {
            assert!(apply_mutation_in_place(&mut db2, &mut rp2, l, &mutation).is_err());
        }
        assert_eq!((&db2, &rp2), (&db, &rp), "a rejected mutation changes nothing");
        // Probabilities computed for a different database.
        let other = RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 1.0)]]).unwrap();
        let mut rp_other = rank_probabilities(&other, 2).unwrap();
        let null = XTupleMutation::CollapseToNull;
        assert!(apply_mutation_in_place(&mut db2, &mut rp_other, 0, &null).is_err());
    }

    /// Every stored checkpoint is, bit for bit, the one a fresh PSR run
    /// on `db` records at that position, and no more are stored than that
    /// run stores.
    fn assert_checkpoints_match_a_fresh_run(
        db: &RankedDatabase,
        rp: &RankProbabilities,
        context: &str,
    ) {
        let fresh = rank_probabilities(db, rp.k()).unwrap();
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (stored, want) = (bits(rp.checkpoints()), bits(fresh.checkpoints()));
        assert!(
            stored.len() <= want.len(),
            "{context}: {} checkpoints stored, a fresh run stores {}",
            rp.checkpoints_stored(),
            fresh.checkpoints_stored()
        );
        assert_eq!(stored, want[..stored.len()], "{context}: checkpoints vs a fresh run");
    }

    /// 200 x-tuples of four alternatives each, in narrow bands one after
    /// the other, every one of total mass 0.6: at k = 8 the live prefix
    /// holds several checkpoints.
    fn long_null_mass_chain() -> RankedDatabase {
        let x: Vec<Vec<(f64, f64)>> = (0..200)
            .map(|i| (0..4).map(|j| (1000.0 - 4.0 * i as f64 - 0.9 * j as f64, 0.15)).collect())
            .collect();
        RankedDatabase::from_scored_x_tuples(&x).unwrap()
    }

    #[test]
    fn a_mutation_deep_in_the_prefix_resumes_its_scan_at_the_checkpoint_above_it() {
        let k = 8;
        let (db, rp) = evaluated(long_null_mass_chain(), k);
        let live = rp.live_rows();
        assert!(rp.checkpoints_stored() >= 3, "{live} live rows");
        let l = db.tuple(live * 3 / 4).x_index;
        let members = db.x_tuple(l).members.clone();
        let first = members[0];
        let resume_at = first / PSR_CHECKPOINT_ROWS * PSR_CHECKPOINT_ROWS;
        assert!(resume_at >= 2 * PSR_CHECKPOINT_ROWS, "x-tuple {l} starts at {first}");
        // An arrival whose first alternative lands at `first`, just above
        // x-tuple l, and whose second lands some 30 rows further down.
        let score = db.tuple(first).score;
        let arrival = XTupleMutation::Insert {
            key: "deep".into(),
            alternatives: vec![(score + 0.05, 0.3), (score - 30.0, 0.3)],
        };
        for (target, mutation) in [
            (l, XTupleMutation::Reweight { probs: vec![0.05; 4] }),
            (l, XTupleMutation::CollapseToAlternative { keep_pos: members[1] }),
            (l, XTupleMutation::CollapseToNull),
            (l, XTupleMutation::Remove),
            (db.num_x_tuples(), arrival),
        ] {
            let (mut db, mut rp) = (db.clone(), rp.clone());
            let Patch { stats, scan, .. } =
                mutate_in_place(&mut db, &mut rp, target, &mutation).unwrap();
            let scan = scan.unwrap_or_else(|| panic!("{mutation:?} ran no scan: {stats:?}"));
            assert_eq!(scan.start, resume_at, "{mutation:?}: where the scan resumed");
            assert!(stats.rows_rebuilt > 0, "{mutation:?}: {stats:?}");
            // Every row the scan writes is a fresh run's row; so is every
            // other one here, except the rows an arrival multiplies.
            let fresh = rank_probabilities(&db, k).unwrap();
            let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let insert = matches!(mutation, XTupleMutation::Insert { .. });
            for pos in 0..db.len() {
                if insert && pos >= first && db.tuple(pos).x_index != target {
                    continue;
                }
                let (got, want) = (rp.rank_probs(pos), fresh.rank_probs(pos));
                assert_eq!(bits(&got), bits(&want), "{mutation:?}: row {pos}");
            }
            assert_eq!(rp.live_rows(), fresh.live_rows(), "{mutation:?}");
            assert_checkpoints_match_a_fresh_run(&db, &rp, &format!("{mutation:?}"));
        }
    }

    /// 50–80 x-tuples of 5–10 alternatives from one of three families:
    /// complete with scores spread over one 0–100 range (the scan ends at
    /// Lemma 2's cut), or total mass in [0.55, 0.999] with each x-tuple's
    /// scores inside one 6-point band (clustered) or spread.  At k = 3–6
    /// the live prefix spans at least three checkpoints.
    fn checkpointed_db() -> impl Strategy<Value = RankedDatabase> {
        let x_tuple = (0.0f64..100.0, vec((0.0f64..100.0, 0.05f64..1.0), 5..11), 0.55f64..0.999);
        (0usize..3, vec(x_tuple, 50..81)).prop_map(|(family, x)| {
            let x: Vec<Vec<(f64, f64)>> = x
                .into_iter()
                .map(|(centre, alts, mass)| {
                    let total: f64 = alts.iter().map(|(_, w)| w).sum();
                    let mass = if family == 0 { 1.0 } else { mass };
                    let score = |s: f64| if family == 1 { centre + s * 0.06 } else { s };
                    alts.into_iter().map(|(s, w)| (score(s), w / total * mass)).collect()
                })
                .collect();
            RankedDatabase::from_scored_x_tuples(&x).unwrap()
        })
    }

    /// A mutation of any of the five kinds for `db`, or `None` when the
    /// drawn kind has no valid target.  An arrival lands next to a random
    /// tuple, so it is often inside the live prefix.
    fn any_mutation(
        db: &RankedDatabase,
        step: usize,
        (kind, x_sel, alt_sel, u): (usize, usize, usize, f64),
    ) -> Option<(usize, XTupleMutation)> {
        let m = db.num_x_tuples();
        let l = x_sel % m;
        let info = db.x_tuple(l);
        match kind {
            0 => {
                let keep_pos = info.members[alt_sel % info.members.len()];
                Some((l, XTupleMutation::CollapseToAlternative { keep_pos }))
            }
            1 if m > 1 && info.null_prob() > 1e-9 => Some((l, XTupleMutation::CollapseToNull)),
            2 => {
                let scale = (0.3 + 0.69 * u) / info.total_mass;
                let probs = info.members.iter().map(|&p| db.tuple(p).prob * scale).collect();
                Some((l, XTupleMutation::Reweight { probs }))
            }
            3 => {
                let count = 1 + alt_sel % 5;
                let score = db.tuple(x_sel % db.len()).score;
                let prob = (0.55 + 0.44 * u) / count as f64;
                let alternatives = (0..count).map(|i| (score - i as f64 * 5.0, prob)).collect();
                Some((m, XTupleMutation::Insert { key: format!("a{step}"), alternatives }))
            }
            4 if m > 1 => Some((l, XTupleMutation::Remove)),
            _ => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After every step of a random sequence of all five mutation
        /// kinds, the stored checkpoints are a fresh run's and the rows,
        /// written by scans that resumed from them, match a fresh run.
        #[test]
        fn stored_checkpoints_stay_a_fresh_runs_across_mutations(
            db in checkpointed_db(),
            k in 3usize..7,
            steps in vec((0usize..5, any::<usize>(), any::<usize>(), 0.0f64..1.0), 1..9),
        ) {
            let (mut db, mut rp) = evaluated(db, k);
            prop_assert!(rp.checkpoints_stored() >= 3, "{} live rows", rp.live_rows());
            for (i, &step) in steps.iter().enumerate() {
                let Some((l, mutation)) = any_mutation(&db, i, step) else { continue };
                apply_mutation_in_place(&mut db, &mut rp, l, &mutation).unwrap();
                let context = format!("step {i} ({mutation:?})");
                assert_checkpoints_match_a_fresh_run(&db, &rp, &context);
                let fresh = rank_probabilities(&db, k).unwrap();
                prop_assert_eq!(rp.live_rows(), fresh.live_rows(), "{}", context);
                for pos in 0..rp.live_rows() {
                    for h in 1..=k {
                        let (got, want) = (rp.rank_prob(pos, h), fresh.rank_prob(pos, h));
                        prop_assert!(
                            (got - want).abs() <= 1e-12,
                            "{context}: pos {pos} h {h}: {got} vs fresh {want}"
                        );
                    }
                }
            }
        }
    }
}
