//! Cutting planes: Gomory mixed-integer (GMI) cuts from the
//! revised-simplex tableau, plus the basis-free cover
//! ([`separate_covers`]) and clique ([`separate_cliques`]) separators
//! that share its pool/ranking contract. All three run at the root node
//! only, so every cut they derive is globally valid.
//!
//! At the root node of the branch-and-bound search, every basic integer
//! variable with a fractional LP value yields one tableau row
//!
//! ```text
//!   x_B(r) + Σ_j ᾱ_j·x̄_j = b̄_r          (x̄_j: nonbasics shifted to 0)
//! ```
//!
//! to which the Gomory mixed-integer rounding argument applies: with
//! `f0 = frac(b̄_r)` and `f_j = frac(ᾱ_j)`, the inequality
//!
//! ```text
//!   Σ_{j int} min(f_j, f0(1-f_j)/(1-f0))·x̄_j
//!     + Σ_{j cont, ᾱ≥0} ᾱ_j·x̄_j + Σ_{j cont, ᾱ<0} f0·(-ᾱ_j)/(1-f0)·x̄_j ≥ f0
//! ```
//!
//! holds for every mixed-integer feasible point but is violated by exactly
//! `f0` at the current fractional vertex. The shifted variables are then
//! substituted back out — structural variables by un-shifting their bound,
//! logical (slack) variables by their defining row `s_r = b_r − A_r·x` — so
//! each cut lands as a plain `Σ c_k·x_k ≥ rhs` constraint over structural
//! variables, valid for the *whole* search tree (root derivation).
//!
//! Numerical hygiene, in order of application: rows with `f0` outside
//! `[MIN_FRACTIONALITY, 1 − MIN_FRACTIONALITY]` are skipped, rows leaning on
//! a free nonbasic are skipped (no valid shift), near-zero cut coefficients
//! are dropped with a conservative right-hand-side relaxation, cuts with an
//! extreme coefficient dynamic range or a tiny violation are discarded, and
//! a quantised-coefficient pool suppresses duplicates across rounds.

use std::collections::BTreeSet;

use rfic_lp::{Basis, ConstraintOp, LinearProgram, NonbasicStatus, TableauRow};

/// Rows whose basic value is closer than this to an integer produce no cut.
const MIN_FRACTIONALITY: f64 = 5e-3;
/// Cut coefficients below this magnitude are dropped (with rhs relaxation).
const COEFF_DROP_TOL: f64 = 1e-11;
/// Maximum accepted ratio `max|c| / min|c|` over the kept coefficients.
const MAX_DYNAMIC_RANGE: f64 = 1e7;
/// Minimum violation of the current LP vertex for a cut to be kept.
const MIN_VIOLATION: f64 = 1e-6;

/// One cutting plane `Σ coeffs·x ≥ rhs` over structural variables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Cut {
    /// Sparse `(variable, coefficient)` list, sorted by variable.
    pub coeffs: Vec<(usize, f64)>,
    /// Right-hand side of the `>=` inequality.
    pub rhs: f64,
    /// Violation of the LP vertex the cut was separated from, normalised by
    /// the coefficient norm (the selection score).
    pub score: f64,
}

impl Cut {
    /// `rhs − Σ c·x`: positive when `values` violates the cut.
    pub fn violation(&self, values: &[f64]) -> f64 {
        let lhs: f64 = self.coeffs.iter().map(|&(v, c)| c * values[v]).sum();
        self.rhs - lhs
    }
}

/// Deduplicating cut pool: cuts whose normalised, quantised coefficient
/// vectors collide are generated only once per solve.
#[derive(Debug, Default)]
pub(crate) struct CutPool {
    seen: BTreeSet<Vec<(usize, i64)>>,
}

impl CutPool {
    pub fn new() -> CutPool {
        CutPool::default()
    }

    fn key(cut: &Cut) -> Vec<(usize, i64)> {
        let scale = cut
            .coeffs
            .iter()
            .map(|&(_, c)| c.abs())
            .fold(0.0f64, f64::max)
            .max(1e-30);
        cut.coeffs
            .iter()
            .map(|&(v, c)| (v, (c / scale * 1e8).round() as i64))
            .chain(std::iter::once((
                usize::MAX,
                (cut.rhs / scale * 1e8).round() as i64,
            )))
            .collect()
    }

    /// `true` when an equivalent cut has already been registered.
    pub(crate) fn contains(&self, cut: &Cut) -> bool {
        self.seen.contains(&Self::key(cut))
    }

    /// Registers a cut so later rounds do not re-derive it. Returns `true`
    /// when the cut was new.
    pub(crate) fn insert(&mut self, cut: &Cut) -> bool {
        self.seen.insert(Self::key(cut))
    }
}

/// The shared tail of every separator: rank candidate cuts by score
/// (violation per norm, best first), cap at `max_cuts`, and register the
/// survivors with the pool — only cuts that make the cap enter the pool,
/// so a later round stays free to re-separate one dropped by the budget.
fn rank_and_pool(mut cuts: Vec<Cut>, pool: &mut CutPool, max_cuts: usize) -> Vec<Cut> {
    cuts.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    cuts.truncate(max_cuts);
    for cut in &cuts {
        pool.insert(cut);
    }
    cuts
}

/// `true` when `v` is a 0/1-bounded integer variable.
fn is_binary(lp: &LinearProgram, is_integer: &[bool], v: usize) -> bool {
    let (l, u) = lp.bounds(v);
    is_integer[v] && l == 0.0 && u == 1.0
}

/// Separates one round of GMI cuts at the vertex `(values, basis)` of `lp`.
///
/// `is_integer[v]` marks the integer-constrained structural variables.
/// Returns at most `max_cuts` cuts, best violation-per-norm first. An
/// unusable basis (e.g. numerically singular on refactorisation) yields no
/// cuts rather than an error — cutting is an optimisation, never a
/// correctness requirement.
pub(crate) fn separate_gomory(
    lp: &LinearProgram,
    basis: &Basis,
    values: &[f64],
    is_integer: &[bool],
    pool: &mut CutPool,
    max_cuts: usize,
) -> Vec<Cut> {
    if max_cuts == 0 {
        return Vec::new();
    }
    // Fractional basic integer variables are the cut sources.
    let fractional: Vec<usize> = (0..values.len())
        .filter(|&v| is_integer[v])
        .filter(|&v| {
            let frac = values[v] - values[v].floor();
            frac > MIN_FRACTIONALITY && frac < 1.0 - MIN_FRACTIONALITY
        })
        .collect();
    if fractional.is_empty() {
        return Vec::new();
    }
    let Ok(rows) = lp.tableau_rows(basis, &fractional) else {
        return Vec::new();
    };
    let cuts: Vec<Cut> = rows
        .iter()
        .filter_map(|row| cut_from_row(lp, row, is_integer, values))
        .filter(|cut| !pool.contains(cut))
        .collect();
    rank_and_pool(cuts, pool, max_cuts)
}

/// Separates one round of (extended) **cover cuts** from the knapsack-style
/// capacity rows of `lp` at the point `values`.
///
/// A row `Σ a_j·x_j ≤ b` over binary variables with `a_j > 0` admits, for
/// every *minimal cover* `C` (a set with `Σ_{j∈C} a_j > b` whose proper
/// subsets all fit), the valid inequality `Σ_{j∈C} x_j ≤ |C| − 1` — no
/// feasible 0-1 point selects a whole cover. The separation heuristic is
/// the classical greedy on the LP point: take items by ascending
/// `(1 − x*_j)/a_j` until the capacity is exceeded, shrink to a minimal
/// cover, then *extend* with every item at least as heavy as the heaviest
/// cover member (extension preserves validity for minimal covers and only
/// strengthens the cut). Cuts are returned in the pool's `≥` orientation
/// (`Σ −x_j ≥ 1 − |C|`), deduplicated against `pool`, violation-ranked
/// and capped at `max_cuts` — exactly the contract of
/// [`separate_gomory`], so the root loop can run both families.
pub(crate) fn separate_covers(
    lp: &LinearProgram,
    values: &[f64],
    is_integer: &[bool],
    pool: &mut CutPool,
    max_cuts: usize,
) -> Vec<Cut> {
    if max_cuts == 0 {
        return Vec::new();
    }
    let mut cuts: Vec<Cut> = Vec::new();
    for con in lp.constraints() {
        if con.op != ConstraintOp::Le || con.rhs <= 0.0 {
            continue;
        }
        // Knapsack shape: all-positive coefficients on binary variables.
        if !con
            .coeffs
            .iter()
            .all(|&(v, a)| a > 0.0 && is_binary(lp, is_integer, v))
        {
            continue;
        }
        let total: f64 = con.coeffs.iter().map(|&(_, a)| a).sum();
        if total <= con.rhs + 1e-7 {
            continue; // no cover exists
        }
        // Greedy cover: ascending (1 − x*)/a until the capacity is
        // exceeded (strictly, with a safety margin against float noise).
        let mut items: Vec<(usize, f64)> = con.coeffs.clone();
        items.sort_by(|&(va, aa), &(vb, ab)| {
            let ka = (1.0 - values[va]).max(0.0) / aa;
            let kb = (1.0 - values[vb]).max(0.0) / ab;
            ka.partial_cmp(&kb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(va.cmp(&vb))
        });
        let mut cover: Vec<(usize, f64)> = Vec::new();
        let mut weight = 0.0;
        for &(v, a) in &items {
            cover.push((v, a));
            weight += a;
            if weight > con.rhs + 1e-7 {
                break;
            }
        }
        if weight <= con.rhs + 1e-7 {
            continue;
        }
        // Minimalise: drop members (least fractional first — they hurt the
        // violation most) while the remainder still overflows.
        let mut by_value = cover.clone();
        by_value.sort_by(|&(va, _), &(vb, _)| {
            values[va]
                .partial_cmp(&values[vb])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(va.cmp(&vb))
        });
        for &(v, a) in &by_value {
            if weight - a > con.rhs + 1e-7 {
                cover.retain(|&(cv, _)| cv != v);
                weight -= a;
            }
        }
        let k = cover.len();
        if k < 2 {
            continue; // a 1-cover is a bound tightening, not a useful cut
        }
        // Extension: every non-cover item at least as heavy as the
        // heaviest cover member can join the left-hand side for free.
        let a_max = cover.iter().map(|&(_, a)| a).fold(0.0f64, f64::max);
        let mut members: Vec<usize> = cover.iter().map(|&(v, _)| v).collect();
        for &(v, a) in &con.coeffs {
            if a >= a_max - 1e-12 && !members.contains(&v) {
                members.push(v);
            }
        }
        // Σ_{members} x ≤ k−1, pool-oriented as Σ −x ≥ 1−k.
        members.sort_unstable();
        let mut cut = Cut {
            coeffs: members.iter().map(|&v| (v, -1.0)).collect(),
            rhs: 1.0 - k as f64,
            score: 0.0,
        };
        let violation = cut.violation(values);
        if violation < MIN_VIOLATION {
            continue;
        }
        let norm = (cut.coeffs.len() as f64).sqrt();
        cut.score = violation / (1.0 + norm);
        if !pool.contains(&cut) {
            cuts.push(cut);
        }
    }
    rank_and_pool(cuts, pool, max_cuts)
}

/// Rows longer than this are ignored by the clique conflict-graph build
/// (adjacency is quadratic in the row length; the one-hot groups this
/// separator targets have a handful of members).
const MAX_CLIQUE_ROW: usize = 64;
/// Clique-growth seeds tried per separation round.
const MAX_CLIQUE_SEEDS: usize = 48;

/// Separates one round of **clique cuts** from the generalised
/// upper-bound (GUB) rows of `lp` at the point `values`.
///
/// A GUB row `Σ_{j∈S} x_j ≤ 1` (or `= 1`) over binary variables — the
/// one-hot segment-direction groups of the layout ILP are exactly this
/// shape — makes every pair of its members *conflicting*: no feasible 0-1
/// point sets two of them. Those pairwise conflicts form a graph in which
/// every clique `C`, even one spanning several GUB rows, yields the valid
/// inequality `Σ_{j∈C} x_j ≤ 1`. Single rows never produce a violated
/// clique (the LP already satisfies them), so the value of the separator
/// is precisely the cross-row cliques: overlapping one-hot groups whose
/// union the relaxation over-fills.
///
/// Separation is the classical greedy on the fractional point: seed with
/// a high-`x*` member of the conflict graph and grow the clique through
/// the candidates in descending `x*` order, keeping a vertex only when it
/// conflicts with every member so far. Cuts are returned in the pool's
/// `≥` orientation (`Σ −x_j ≥ −1`), deduplicated against `pool`,
/// violation-ranked and capped at `max_cuts` — the same contract as
/// [`separate_gomory`] and [`separate_covers`], so the root loop runs all
/// three families through one ranking.
pub(crate) fn separate_cliques(
    lp: &LinearProgram,
    values: &[f64],
    is_integer: &[bool],
    pool: &mut CutPool,
    max_cuts: usize,
) -> Vec<Cut> {
    if max_cuts == 0 {
        return Vec::new();
    }
    // Conflict graph from the GUB rows: var -> set of conflicting vars.
    let mut conflicts: std::collections::BTreeMap<usize, BTreeSet<usize>> =
        std::collections::BTreeMap::new();
    for con in lp.constraints() {
        let gub_shape = matches!(con.op, ConstraintOp::Le | ConstraintOp::Eq)
            && (con.rhs - 1.0).abs() < 1e-9
            && con.coeffs.len() >= 2
            && con.coeffs.len() <= MAX_CLIQUE_ROW
            && con
                .coeffs
                .iter()
                .all(|&(v, a)| (a - 1.0).abs() < 1e-9 && is_binary(lp, is_integer, v));
        if !gub_shape {
            continue;
        }
        for &(u, _) in &con.coeffs {
            for &(v, _) in &con.coeffs {
                if u != v {
                    conflicts.entry(u).or_default().insert(v);
                }
            }
        }
    }
    if conflicts.is_empty() {
        return Vec::new();
    }
    // Fractionally active members, most loaded first (ties: index, for
    // determinism).
    let mut candidates: Vec<usize> = conflicts
        .keys()
        .copied()
        .filter(|&v| values[v] > 1e-6)
        .collect();
    candidates.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut seen_members: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut cuts: Vec<Cut> = Vec::new();
    for &seed in candidates.iter().take(MAX_CLIQUE_SEEDS) {
        let mut members = vec![seed];
        let mut load = values[seed];
        for &v in &candidates {
            if v == seed {
                continue;
            }
            let ok = members
                .iter()
                .all(|&m| conflicts.get(&v).map(|s| s.contains(&m)).unwrap_or(false));
            if ok {
                members.push(v);
                load += values[v];
            }
        }
        if members.len() < 2 || load <= 1.0 + MIN_VIOLATION {
            continue;
        }
        members.sort_unstable();
        if !seen_members.insert(members.clone()) {
            continue; // same clique reached from another seed this round
        }
        let mut cut = Cut {
            coeffs: members.iter().map(|&v| (v, -1.0)).collect(),
            rhs: -1.0,
            score: 0.0,
        };
        let violation = cut.violation(values);
        if violation < MIN_VIOLATION {
            continue;
        }
        let norm = (cut.coeffs.len() as f64).sqrt();
        cut.score = violation / (1.0 + norm);
        if !pool.contains(&cut) {
            cuts.push(cut);
        }
    }
    rank_and_pool(cuts, pool, max_cuts)
}

/// GMI coefficient of one shifted nonbasic variable.
fn gamma(abar: f64, f0: f64, integer_shift: bool) -> f64 {
    if integer_shift {
        let fj = abar - abar.floor();
        if fj <= f0 {
            fj
        } else {
            f0 * (1.0 - fj) / (1.0 - f0)
        }
    } else if abar >= 0.0 {
        abar
    } else {
        f0 * (-abar) / (1.0 - f0)
    }
}

/// Derives the GMI cut of one tableau row, substituted back to structural
/// variables; `None` when the row is unusable or the cut fails a filter.
fn cut_from_row(
    lp: &LinearProgram,
    row: &TableauRow,
    is_integer: &[bool],
    values: &[f64],
) -> Option<Cut> {
    let n = lp.num_vars();
    let f0 = row.value - row.value.floor();
    if f0 <= MIN_FRACTIONALITY || f0 >= 1.0 - MIN_FRACTIONALITY {
        return None;
    }

    let mut acc = vec![0.0f64; n];
    let mut rhs = f0;
    for entry in &row.entries {
        let j = entry.var;
        let (abar, at_upper) = match entry.status {
            NonbasicStatus::AtLower => (entry.coeff, false),
            NonbasicStatus::AtUpper => (-entry.coeff, true),
            NonbasicStatus::Free => {
                // A free nonbasic cannot be shifted to a bound; the rounding
                // argument does not apply to this row.
                return None;
            }
        };
        if j < n {
            // Structural variable: integer treatment only when the variable
            // *and* the bound it is shifted from are integral.
            let (l, u) = lp.bounds(j);
            let bound = if at_upper { u } else { l };
            let integer_shift = is_integer[j] && (bound - bound.round()).abs() < 1e-9;
            let g = gamma(abar, f0, integer_shift);
            if g == 0.0 {
                continue;
            }
            if at_upper {
                // γ·(u − x) ≥ …  →  −γ·x on the left, −γ·u onto the rhs.
                acc[j] -= g;
                rhs -= g * u;
            } else {
                acc[j] += g;
                rhs += g * l;
            }
        } else {
            // Logical variable of constraint row r: s_r = b_r − A_r·x with
            // bounds [0, ∞) for `<=` rows and (−∞, 0] for `>=` rows, always
            // treated as continuous.
            let r = j - n;
            let con = &lp.constraints()[r];
            let g = gamma(abar, f0, false);
            if g == 0.0 {
                continue;
            }
            match con.op {
                ConstraintOp::Le => {
                    // x̄ = s_r: γ·(b_r − A_r·x) ≥ …
                    debug_assert!(!at_upper);
                    for &(k, a) in &con.coeffs {
                        acc[k] -= g * a;
                    }
                    rhs -= g * con.rhs;
                }
                ConstraintOp::Ge => {
                    // x̄ = −s_r: γ·(A_r·x − b_r) ≥ …
                    debug_assert!(at_upper);
                    for &(k, a) in &con.coeffs {
                        acc[k] += g * a;
                    }
                    rhs += g * con.rhs;
                }
                ConstraintOp::Eq => {
                    // Equality slacks are fixed at 0 and never appear as
                    // movable nonbasics (fixed variables are filtered out of
                    // tableau rows).
                    return None;
                }
            }
        }
    }

    // Keep significant coefficients; dropping c_k·x_k from `Σ ≥ rhs` is
    // valid after relaxing rhs by max over the feasible x_k of c_k·x_k.
    let mut coeffs = Vec::new();
    for (v, &c) in acc.iter().enumerate() {
        if c.abs() > COEFF_DROP_TOL {
            coeffs.push((v, c));
        } else if c != 0.0 {
            let (l, u) = lp.bounds(v);
            let worst = (c * l).max(c * u);
            if !worst.is_finite() {
                return None; // cannot safely drop against an infinite bound
            }
            rhs -= worst.max(0.0);
        }
    }
    if coeffs.is_empty() {
        return None;
    }
    let max_c = coeffs.iter().map(|&(_, c)| c.abs()).fold(0.0f64, f64::max);
    let min_c = coeffs
        .iter()
        .map(|&(_, c)| c.abs())
        .fold(f64::INFINITY, f64::min);
    if max_c / min_c > MAX_DYNAMIC_RANGE {
        return None;
    }

    let mut cut = Cut {
        coeffs,
        rhs,
        score: 0.0,
    };
    let violation = cut.violation(values);
    if violation < MIN_VIOLATION {
        return None;
    }
    let norm: f64 = cut.coeffs.iter().map(|&(_, c)| c * c).sum::<f64>().sqrt();
    cut.score = violation / (1.0 + norm);
    Some(cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_lp::Sense;

    /// `max x  s.t. 2x <= 7, x ∈ [0,10] integer`: the LP vertex x = 3.5 must
    /// produce the cut x <= 3 (up to scaling).
    #[test]
    fn pure_integer_row_yields_the_chvatal_cut() {
        let mut lp = LinearProgram::new(1, Sense::Maximize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_bounds(0, 0.0, 10.0);
        lp.add_constraint(vec![(0, 2.0)], ConstraintOp::Le, 7.0);
        let (solution, basis) = lp.solve_warm(None).expect("solve");
        assert!((solution.values[0] - 3.5).abs() < 1e-9);

        let mut pool = CutPool::new();
        let cuts = separate_gomory(&lp, &basis, &solution.values, &[true], &mut pool, 4);
        assert_eq!(cuts.len(), 1, "one fractional row, one cut");
        let cut = &cuts[0];
        // The cut must separate the vertex …
        assert!(cut.violation(&solution.values) > 0.4);
        // … and be satisfied by every integer-feasible point (x = 0..=3).
        for x in 0..=3 {
            assert!(
                cut.violation(&[x as f64]) <= 1e-9,
                "x={x} violates cut {cut:?}"
            );
        }
        // x = 4 is integer but LP-infeasible; the cut need not admit it —
        // together with 2x <= 7 the cut enforces x <= 3, i.e. it must cut
        // off everything in (3, 3.5].
        assert!(cut.violation(&[3.2]) > 0.0);
    }

    /// Cuts from a fractional knapsack vertex must be valid for every 0-1
    /// feasible point (exhaustive enumeration).
    #[test]
    fn knapsack_cuts_are_valid_for_all_integer_points() {
        // max 24a + 22b + 21c  s.t.  11a + 10b + 9c <= 15.
        let weights = [11.0, 10.0, 9.0];
        let values_obj = [24.0, 22.0, 21.0];
        let mut lp = LinearProgram::new(3, Sense::Maximize);
        for (v, &obj) in values_obj.iter().enumerate() {
            lp.set_objective_coeff(v, obj);
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(
            weights.iter().copied().enumerate().collect(),
            ConstraintOp::Le,
            15.0,
        );
        let (solution, basis) = lp.solve_warm(None).expect("solve");
        let frac_count = solution
            .values
            .iter()
            .filter(|v| (*v - v.round()).abs() > 1e-6)
            .count();
        assert!(frac_count >= 1, "vertex should be fractional");

        let mut pool = CutPool::new();
        let cuts = separate_gomory(
            &lp,
            &basis,
            &solution.values,
            &[true, true, true],
            &mut pool,
            8,
        );
        assert!(!cuts.is_empty());
        for cut in &cuts {
            assert!(cut.violation(&solution.values) > 0.0);
            for bits in 0..8u32 {
                let point = [
                    (bits & 1) as f64,
                    ((bits >> 1) & 1) as f64,
                    ((bits >> 2) & 1) as f64,
                ];
                let feasible = 11.0 * point[0] + 10.0 * point[1] + 9.0 * point[2] <= 15.0 + 1e-9;
                if feasible {
                    assert!(
                        cut.violation(&point) <= 1e-7,
                        "feasible point {point:?} violates {cut:?}"
                    );
                }
            }
        }
    }

    /// The pool suppresses regeneration of an identical cut.
    #[test]
    fn pool_deduplicates_identical_cuts() {
        let mut lp = LinearProgram::new(1, Sense::Maximize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_bounds(0, 0.0, 10.0);
        lp.add_constraint(vec![(0, 2.0)], ConstraintOp::Le, 7.0);
        let (solution, basis) = lp.solve_warm(None).expect("solve");
        let mut pool = CutPool::new();
        let first = separate_gomory(&lp, &basis, &solution.values, &[true], &mut pool, 4);
        assert_eq!(first.len(), 1);
        let second = separate_gomory(&lp, &basis, &solution.values, &[true], &mut pool, 4);
        assert!(second.is_empty(), "duplicate cut must be suppressed");
    }

    /// The greedy cover separator must cut a fractional knapsack vertex
    /// with a cut valid for every feasible 0-1 point.
    #[test]
    fn cover_cut_separates_fractional_knapsack_vertex() {
        // max 16a + 15b + 14c  s.t.  8a + 7b + 6c <= 10: the LP optimum
        // is fractional (c = 1, b = 4/7) and the minimal cover {b, c}
        // (7 + 6 > 10) yields x_b + x_c <= 1, violated by ~0.57; the
        // extension adds a (8 >= 7).
        let weights = [8.0, 7.0, 6.0];
        let profits = [16.0, 15.0, 14.0];
        let mut lp = LinearProgram::new(3, Sense::Maximize);
        for (v, &p) in profits.iter().enumerate() {
            lp.set_objective_coeff(v, p);
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(
            weights.iter().copied().enumerate().collect(),
            ConstraintOp::Le,
            10.0,
        );
        let (solution, _) = lp.solve_warm(None).expect("solve");
        let fractional = solution
            .values
            .iter()
            .filter(|v| (*v - v.round()).abs() > 1e-6)
            .count();
        assert!(fractional >= 1, "vertex should be fractional");
        let mut pool = CutPool::new();
        let cuts = separate_covers(&lp, &solution.values, &[true, true, true], &mut pool, 8);
        assert!(!cuts.is_empty(), "expected a violated cover cut");
        for cut in &cuts {
            assert!(cut.violation(&solution.values) > 0.0);
            for bits in 0..8u32 {
                let point = [
                    (bits & 1) as f64,
                    ((bits >> 1) & 1) as f64,
                    ((bits >> 2) & 1) as f64,
                ];
                let feasible =
                    weights.iter().zip(&point).map(|(w, x)| w * x).sum::<f64>() <= 10.0 + 1e-9;
                if feasible {
                    assert!(
                        cut.violation(&point) <= 1e-9,
                        "feasible point {point:?} violates cover cut {cut:?}"
                    );
                }
            }
        }
    }

    /// Rows that are not knapsack-shaped (continuous variables, negative
    /// coefficients, `>=` rows) must produce no cover cuts.
    #[test]
    fn cover_separator_skips_non_knapsack_rows() {
        let mut lp = LinearProgram::new(2, Sense::Maximize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_objective_coeff(1, 1.0);
        lp.set_bounds(0, 0.0, 1.0);
        lp.set_bounds(1, 0.0, 5.0); // not binary
        lp.add_constraint(vec![(0, 2.0), (1, 3.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(vec![(0, -1.0)], ConstraintOp::Le, 0.5); // negative coeff
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 0.0); // wrong op
        let (solution, _) = lp.solve_warm(None).expect("solve");
        let mut pool = CutPool::new();
        assert!(separate_covers(&lp, &solution.values, &[true, false], &mut pool, 8).is_empty());
    }

    /// Three pairwise-overlapping GUB rows admit the triangle clique
    /// `x_a + x_b + x_c <= 1`, which must separate the all-half vertex
    /// and stay valid for every feasible 0-1 point.
    #[test]
    fn clique_cut_separates_across_overlapping_gub_rows() {
        // max a + b + c  s.t. a+b <= 1, b+c <= 1, a+c <= 1: the LP
        // optimum is a = b = c = 1/2 (objective 1.5) but the pairwise
        // conflicts form a triangle, so at most one can be 1.
        let mut lp = LinearProgram::new(3, Sense::Maximize);
        for v in 0..3 {
            lp.set_objective_coeff(v, 1.0);
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![(1, 1.0), (2, 1.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintOp::Le, 1.0);
        let (solution, _) = lp.solve_warm(None).expect("solve");
        assert!(
            solution.values.iter().all(|v| (v - 0.5).abs() < 1e-6),
            "expected the all-half vertex, got {:?}",
            solution.values
        );
        let mut pool = CutPool::new();
        let cuts = separate_cliques(&lp, &solution.values, &[true, true, true], &mut pool, 8);
        assert_eq!(cuts.len(), 1, "one triangle clique: {cuts:?}");
        let cut = &cuts[0];
        assert_eq!(cut.coeffs.len(), 3, "the full triangle, not an edge");
        assert!(cut.violation(&solution.values) > 0.4);
        for bits in 0..8u32 {
            let point = [
                (bits & 1) as f64,
                ((bits >> 1) & 1) as f64,
                ((bits >> 2) & 1) as f64,
            ];
            let feasible = point[0] + point[1] <= 1.0
                && point[1] + point[2] <= 1.0
                && point[0] + point[2] <= 1.0;
            if feasible {
                assert!(
                    cut.violation(&point) <= 1e-9,
                    "feasible point {point:?} violates clique cut {cut:?}"
                );
            }
        }
        // Second round: the pool suppresses re-derivation.
        assert!(
            separate_cliques(&lp, &solution.values, &[true, true, true], &mut pool, 8).is_empty()
        );
    }

    /// One-hot `= 1` rows also feed the conflict graph (the layout ILP's
    /// segment-direction groups are equalities).
    #[test]
    fn clique_cut_handles_one_hot_equality_rows() {
        // a+b = 1 and b+c = 1 and a+c <= 1: conflicts again form the
        // triangle; the fractional point (0.5, 0.5, 0.5) satisfies all
        // rows but violates the clique.
        let mut lp = LinearProgram::new(3, Sense::Maximize);
        for v in 0..3 {
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 1.0);
        lp.add_constraint(vec![(1, 1.0), (2, 1.0)], ConstraintOp::Eq, 1.0);
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], ConstraintOp::Le, 1.0);
        let point = [0.5, 0.5, 0.5];
        let mut pool = CutPool::new();
        let cuts = separate_cliques(&lp, &point, &[true, true, true], &mut pool, 8);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].coeffs.len(), 3);
        assert!(cuts[0].violation(&point) > 0.4);
    }

    /// Rows that are not GUB-shaped (non-unit coefficients, rhs != 1,
    /// continuous or non-binary members) must contribute no conflicts.
    #[test]
    fn clique_separator_skips_non_gub_rows() {
        let mut lp = LinearProgram::new(3, Sense::Maximize);
        lp.set_bounds(0, 0.0, 1.0);
        lp.set_bounds(1, 0.0, 1.0);
        lp.set_bounds(2, 0.0, 5.0); // not binary
        lp.add_constraint(vec![(0, 2.0), (1, 1.0)], ConstraintOp::Le, 1.0); // non-unit coeff
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 2.0); // rhs != 1
        lp.add_constraint(vec![(1, 1.0), (2, 1.0)], ConstraintOp::Le, 1.0); // non-binary member
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 1.0); // wrong op
        let point = [0.9, 0.9, 0.9];
        let mut pool = CutPool::new();
        assert!(separate_cliques(&lp, &point, &[true, true, false], &mut pool, 8).is_empty());
    }

    /// A single GUB row yields no cut: the LP satisfies it, so no clique
    /// inside one row can be violated.
    #[test]
    fn single_gub_row_never_separates() {
        let mut lp = LinearProgram::new(3, Sense::Maximize);
        for v in 0..3 {
            lp.set_bounds(v, 0.0, 1.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Le, 1.0);
        let point = [0.5, 0.3, 0.2]; // on the row, satisfied
        let mut pool = CutPool::new();
        assert!(separate_cliques(&lp, &point, &[true, true, true], &mut pool, 8).is_empty());
    }

    /// Integral vertices produce no cuts.
    #[test]
    fn integral_vertex_produces_no_cuts() {
        let mut lp = LinearProgram::new(1, Sense::Maximize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_bounds(0, 0.0, 3.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 8.0);
        let (solution, basis) = lp.solve_warm(None).expect("solve");
        let mut pool = CutPool::new();
        assert!(separate_gomory(&lp, &basis, &solution.values, &[true], &mut pool, 4).is_empty());
    }
}
