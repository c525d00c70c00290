//! Presolve, scaling and postsolve for [`LinearProgram`].
//!
//! The layout models the P-ILP flow generates mix µm-scale geometry
//! coefficients with big-M routing disjunctions, and they carry a lot of
//! slack structure: fixed columns from pinned devices, singleton rows from
//! simple bounds written as constraints, and rows made redundant by
//! variable bounds. This module removes that structure *before* the
//! revised simplex sees the model and undoes the reductions afterwards:
//!
//! 1. **Presolve** ([`run`], surfaced as [`LinearProgram::presolve`]) applies
//!    a fixpoint loop of reductions — empty/singleton/redundant/forcing
//!    rows, fixed/empty columns and activity-based bound tightening — and
//!    then geometric-mean equilibration (power-of-two scale factors so
//!    solution values round-trip exactly).
//! 2. **Postsolve** ([`Postsolve`]) replays the reduction stack in reverse
//!    to reconstruct the full-model primal solution and objective, and maps
//!    a [`Basis`] between the full and reduced spaces in both directions so
//!    the warm-start protocol survives presolve unchanged.
//!
//! The reduced problem is always *equivalent* for feasible models: any
//! optimal solution of the reduced problem postsolves to an optimal
//! solution of the original with `reduced objective + objective_offset()`.
//! For infeasible models presolve may prove infeasibility early (returning
//! [`LpError::Infeasible`]); for models that are both unbounded in a
//! removed column and infeasible elsewhere, presolve may report
//! [`LpError::Unbounded`] where the full solve would have reported
//! infeasibility — the standard presolve ambiguity, documented in
//! `DESIGN.md`.

use crate::problem::{LinearProgram, LpError, LpSolution};
use crate::revised::{Basis, VarStatus};
use crate::{ConstraintOp, Sense};

/// Tolerance for treating a coefficient as an exact zero during presolve.
const DROP_TOL: f64 = 1e-12;
/// Feasibility tolerance used when classifying rows and fixing columns.
const FEAS_TOL: f64 = 1e-7;
/// Bounds further out than this are treated as numerically infinite and
/// never tightened onto a variable.
const HUGE_BOUND: f64 = 1e15;

/// Upper bound on the reduction fixpoint passes of one presolve run, so
/// reductions that keep enabling each other cannot loop for long.
const MAX_PASSES: usize = 5;

/// Configuration for the presolve layer.
///
/// Row and column elimination, activity bound tightening and
/// equilibration always run when the layer is enabled, for at most five
/// fixpoint passes; only the scaling trigger is settable.
/// [`PresolveConfig::off`] disables the layer entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresolveConfig {
    /// Master switch: when `false` presolve is the identity transform.
    pub enabled: bool,
    /// Ignored: presolve substitutes no columns. The field stays only
    /// because the layout-service benchmark names it.
    pub substitute: bool,
    /// Coefficient-spread threshold (`max |a| / min |a|` over the reduced
    /// rows) below which equilibration is skipped. Equilibration cannot
    /// improve an already well-scaled matrix (the power-of-two factors
    /// round to 1) but still perturbs the DSE pricing framework enough
    /// to change the pivot trajectory, so by default it only engages past
    /// a spread of `1e4` — where it starts buying real stability. Set to
    /// `0.0` to scale unconditionally.
    pub scale_trigger: f64,
}

impl Default for PresolveConfig {
    fn default() -> Self {
        PresolveConfig {
            enabled: true,
            substitute: true,
            scale_trigger: 1e4,
        }
    }
}

impl PresolveConfig {
    /// A configuration with the whole layer switched off: `presolve()`
    /// returns the original problem unchanged and postsolve is the
    /// identity (basis mappings pass the factorisation cache through).
    pub fn off() -> Self {
        PresolveConfig {
            enabled: false,
            ..PresolveConfig::default()
        }
    }
}

/// Counters describing what presolve did to a model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PresolveStats {
    /// Constraint rows removed (empty, singleton, redundant, forcing).
    pub rows_removed: usize,
    /// Structural columns removed (fixed, empty).
    pub cols_removed: usize,
    /// Constraint-matrix nonzeros removed.
    pub nonzeros_removed: usize,
    /// Variable bounds tightened from row activity (including integer
    /// rounding).
    pub bound_tightenings: usize,
    /// `max |a| / min |a|` over the surviving rows before scaling.
    pub condition_before: f64,
    /// The same estimate after geometric-mean equilibration.
    pub condition_after: f64,
}

/// The result of presolving a [`LinearProgram`]: the reduced problem plus
/// the [`Postsolve`] transform that maps solutions and bases back.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced (and scaled) problem to hand to the solver.
    pub lp: LinearProgram,
    /// Reverse transform: solution restoration and basis mapping.
    pub postsolve: Postsolve,
    /// Reduction counters for reporting.
    pub stats: PresolveStats,
}

/// One entry of the reduction stack, replayed by postsolve. Values are in
/// the original, unscaled model.
#[derive(Debug, Clone)]
enum Reduction {
    /// Column `col` fixed at `value`. `at_upper` records which bound it
    /// was fixed at, for basis mapping.
    FixedCol {
        col: usize,
        value: f64,
        at_upper: bool,
    },
    /// Row `row` removed without touching any column (empty, singleton,
    /// redundant or forcing rows after their columns were fixed).
    RemovedRow { row: usize },
}

/// The reverse transform produced by presolve.
///
/// Maps reduced-space primal solutions back to the full model
/// ([`Postsolve::restore_solution`]) and maps a [`Basis`] in both
/// directions ([`Postsolve::basis_to_full`], [`Postsolve::basis_to_reduced`])
/// so warm starts survive presolve. The mapping contract, including the
/// lenient grown-model direction used by lazy constraint separation, is
/// documented in `DESIGN.md`.
#[derive(Debug, Clone)]
pub struct Postsolve {
    orig_num_vars: usize,
    orig_num_rows: usize,
    objective_offset: f64,
    /// Original indices of the surviving columns, in reduced order.
    kept_cols: Vec<usize>,
    /// Full column index → reduced column index (None when removed).
    col_map: Vec<Option<usize>>,
    /// Original indices of the surviving rows, in reduced order.
    kept_rows: Vec<usize>,
    /// Full row index → reduced row index (None when removed).
    row_map: Vec<Option<usize>>,
    /// Per-full-column scale factor `s_j` (1.0 for removed columns):
    /// `x_full = s_j · x_reduced`.
    col_scale: Vec<f64>,
    /// Reductions in application order; replayed in reverse.
    stack: Vec<Reduction>,
    /// True when the transform is a no-op (no reductions, unit scales):
    /// solution restoration clones and basis mappings pass the
    /// factorisation cache through untouched.
    identity: bool,
}

impl Postsolve {
    /// The identity transform for a problem with `num_vars` columns and
    /// `num_rows` rows.
    fn identity(num_vars: usize, num_rows: usize) -> Self {
        Postsolve {
            orig_num_vars: num_vars,
            orig_num_rows: num_rows,
            objective_offset: 0.0,
            kept_cols: (0..num_vars).collect(),
            col_map: (0..num_vars).map(Some).collect(),
            kept_rows: (0..num_rows).collect(),
            row_map: (0..num_rows).map(Some).collect(),
            col_scale: vec![1.0; num_vars],
            stack: Vec::new(),
            identity: true,
        }
    }

    /// Constant added to the reduced objective value to recover the full
    /// objective (contributions of fixed columns).
    pub fn objective_offset(&self) -> f64 {
        self.objective_offset
    }

    /// Original indices of the columns that survive into the reduced
    /// problem, in reduced-column order.
    pub fn kept_columns(&self) -> &[usize] {
        &self.kept_cols
    }

    /// Map a reduced-space primal point back to the full variable space:
    /// unscale the surviving columns, then replay the reduction stack in
    /// reverse to reconstruct fixed columns.
    pub fn restore_values(&self, reduced: &[f64]) -> Vec<f64> {
        if self.identity {
            return reduced.to_vec();
        }
        let mut full = vec![0.0; self.orig_num_vars];
        for (j, &fj) in self.kept_cols.iter().enumerate() {
            full[fj] = reduced.get(j).copied().unwrap_or(0.0) * self.col_scale[fj];
        }
        for entry in self.stack.iter().rev() {
            match entry {
                Reduction::FixedCol { col, value, .. } => full[*col] = *value,
                Reduction::RemovedRow { .. } => {}
            }
        }
        full
    }

    /// Map a reduced-space [`LpSolution`] back to the full model: restore
    /// the primal values and add the objective offset. Work counters are
    /// carried over unchanged.
    pub fn restore_solution(&self, reduced: &LpSolution) -> LpSolution {
        if self.identity {
            return reduced.clone();
        }
        LpSolution {
            values: self.restore_values(&reduced.values),
            objective: reduced.objective + self.objective_offset,
            iterations: reduced.iterations,
            refactorizations: reduced.refactorizations,
            dual_iterations: reduced.dual_iterations,
            bound_flips: reduced.bound_flips,
        }
    }

    /// Lift a reduced-space basis to the full model.
    ///
    /// Surviving columns and rows copy their reduced status; removed
    /// structure gets the statically known status of the reduction that
    /// removed it (fixed columns nonbasic at their bound, removed rows'
    /// logicals basic). The result carries no factorisation and a
    /// zero fingerprint, so adopting it costs one refactorisation.
    pub fn basis_to_full(&self, basis: &Basis) -> Basis {
        if self.identity {
            return basis.clone();
        }
        let n = self.orig_num_vars;
        let m = self.orig_num_rows;
        let red_n = self.kept_cols.len();
        let red_m = self.kept_rows.len();
        if basis.num_structural() != red_n || basis.num_rows() != red_m {
            // Dimension mismatch: fall back to the all-logical basis shape
            // so the caller degrades to a cold start instead of panicking.
            let mut statuses = vec![VarStatus::AtLower; n + m];
            let basic: Vec<usize> = (n..n + m).collect();
            for &v in &basic {
                statuses[v] = VarStatus::Basic;
            }
            return Basis::from_mapping(statuses, basic, n);
        }

        let red_statuses = basis.statuses();
        let mut statuses = vec![VarStatus::AtLower; n + m];
        for (j, &fj) in self.kept_cols.iter().enumerate() {
            statuses[fj] = red_statuses[j];
        }
        for (i, &fi) in self.kept_rows.iter().enumerate() {
            statuses[n + fi] = red_statuses[red_n + i];
        }
        let mut basic: Vec<usize> = basis
            .basic_vars()
            .iter()
            .map(|&v| {
                if v < red_n {
                    self.kept_cols[v]
                } else {
                    n + self.kept_rows[v - red_n]
                }
            })
            .collect();
        for entry in &self.stack {
            match entry {
                Reduction::FixedCol { col, at_upper, .. } => {
                    statuses[*col] = if *at_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                }
                Reduction::RemovedRow { row } => {
                    statuses[n + row] = VarStatus::Basic;
                    basic.push(n + row);
                }
            }
        }
        Basis::from_mapping(statuses, basic, n)
    }

    /// Project a full-model basis down to the reduced space, or `None`
    /// when no consistent reduced basis exists (the caller cold-starts).
    ///
    /// Lenient on dimensions: accepts a basis for a model with *at most*
    /// the original column count and *at most* the original row count, so
    /// a warm basis recorded before lazy-separation rows were appended
    /// still maps (the missing rows' logicals are made basic).
    pub fn basis_to_reduced(&self, basis: &Basis) -> Option<Basis> {
        if self.identity {
            return Some(basis.clone());
        }
        let fn_ = basis.num_structural();
        let fm = basis.num_rows();
        if fn_ > self.orig_num_vars || fm > self.orig_num_rows {
            return None;
        }
        let red_n = self.kept_cols.len();
        let red_m = self.kept_rows.len();
        let full_statuses = basis.statuses();

        // Nonbasic statuses for surviving structure; Basic entries are
        // re-derived from the final basic set below.
        let mut statuses = vec![VarStatus::AtLower; red_n + red_m];
        for (j, &fj) in self.kept_cols.iter().enumerate() {
            if fj < fn_ && full_statuses[fj] != VarStatus::Basic {
                statuses[j] = full_statuses[fj];
            }
        }
        for (i, &fi) in self.kept_rows.iter().enumerate() {
            if fi < fm {
                let s = full_statuses[fn_ + fi];
                if s != VarStatus::Basic {
                    statuses[red_n + i] = s;
                }
            }
        }

        let mut basic: Vec<usize> = Vec::with_capacity(red_m);
        let mut is_basic = vec![false; red_n + red_m];
        let push = |v: usize, basic: &mut Vec<usize>, is_basic: &mut Vec<bool>| {
            if !is_basic[v] && basic.len() < red_m {
                is_basic[v] = true;
                basic.push(v);
            }
        };
        for &v in basis.basic_vars() {
            let mapped = if v < fn_ {
                self.col_map[v].filter(|&j| j < red_n)
            } else {
                let fi = v - fn_;
                self.row_map.get(fi).copied().flatten().map(|i| red_n + i)
            };
            if let Some(rv) = mapped {
                push(rv, &mut basic, &mut is_basic);
            }
        }
        // Rows the full basis has never seen (appended after it was
        // recorded): their logicals start basic, matching `try_warm_basis`.
        for (i, &fi) in self.kept_rows.iter().enumerate() {
            if fi >= fm {
                push(red_n + i, &mut basic, &mut is_basic);
            }
        }
        // Fill any remaining deficit with surviving-row logicals.
        for i in 0..red_m {
            if basic.len() >= red_m {
                break;
            }
            push(red_n + i, &mut basic, &mut is_basic);
        }
        if basic.len() != red_m {
            return None;
        }
        for &v in &basic {
            statuses[v] = VarStatus::Basic;
        }
        Some(Basis::from_mapping(statuses, basic, red_n))
    }
}

/// Bounds on a row's activity given current variable bounds, tracking
/// infinite contributions separately so "activity without variable j" is
/// a constant-time query.
#[derive(Debug, Clone, Copy, Default)]
struct Activity {
    min: f64,
    max: f64,
    min_inf: usize,
    max_inf: usize,
}

impl Activity {
    fn min_total(&self) -> f64 {
        if self.min_inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.min
        }
    }
    fn max_total(&self) -> f64 {
        if self.max_inf > 0 {
            f64::INFINITY
        } else {
            self.max
        }
    }
    /// Minimum activity excluding the term `a·x_j` whose contribution to
    /// the minimum is `contrib` (possibly infinite).
    fn min_without(&self, contrib: f64) -> f64 {
        if contrib == f64::NEG_INFINITY {
            if self.min_inf > 1 {
                f64::NEG_INFINITY
            } else {
                self.min
            }
        } else if self.min_inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.min - contrib
        }
    }
    fn max_without(&self, contrib: f64) -> f64 {
        if contrib == f64::INFINITY {
            if self.max_inf > 1 {
                f64::INFINITY
            } else {
                self.max
            }
        } else if self.max_inf > 0 {
            f64::INFINITY
        } else {
            self.max - contrib
        }
    }
}

/// Working row during presolve.
#[derive(Debug, Clone)]
struct WRow {
    coeffs: Vec<(usize, f64)>,
    op: ConstraintOp,
    rhs: f64,
    alive: bool,
}

/// Mutable presolve workspace over a copy of the model.
struct Work<'a> {
    /// +1 for minimisation, −1 for maximisation: `min_sign · obj` is the
    /// minimised objective, used when fixing empty columns.
    min_sign: f64,
    obj: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    integer: Option<&'a [bool]>,
    col_alive: Vec<bool>,
    rows: Vec<WRow>,
    offset: f64,
    stack: Vec<Reduction>,
    tightenings: usize,
}

impl<'a> Work<'a> {
    fn is_integer(&self, j: usize) -> bool {
        self.integer.map(|m| m[j]).unwrap_or(false)
    }

    /// Tighten `lower[j]`/`upper[j]` towards `[lo, hi]` (either may be
    /// infinite to leave that side alone). Integer variables round
    /// inwards. Returns `Err(Infeasible)` when the bounds cross by more
    /// than the feasibility tolerance.
    fn tighten(&mut self, j: usize, mut lo: f64, mut hi: f64) -> Result<(), LpError> {
        if self.is_integer(j) {
            if lo.is_finite() {
                lo = (lo - FEAS_TOL).ceil();
            }
            if hi.is_finite() {
                hi = (hi + FEAS_TOL).floor();
            }
        }
        if lo.is_finite() && lo.abs() > HUGE_BOUND {
            lo = f64::NEG_INFINITY;
        }
        if hi.is_finite() && hi.abs() > HUGE_BOUND {
            hi = f64::INFINITY;
        }
        let mut changed = false;
        if lo > self.lower[j] + FEAS_TOL * (1.0 + self.lower[j].abs()) {
            self.lower[j] = lo;
            changed = true;
        } else if self.is_integer(j) && lo > self.lower[j] {
            // Integer rounding applies exactly even below the improvement
            // threshold: a fractional bound is never feasible anyway.
            self.lower[j] = lo;
            changed = true;
        }
        if hi < self.upper[j] - FEAS_TOL * (1.0 + self.upper[j].abs())
            || (self.is_integer(j) && hi < self.upper[j])
        {
            self.upper[j] = hi;
            changed = true;
        }
        if changed {
            self.tightenings += 1;
        }
        if self.lower[j] > self.upper[j] + FEAS_TOL * (1.0 + self.upper[j].abs().min(HUGE_BOUND)) {
            return Err(LpError::Infeasible);
        }
        // Snap a crossed-within-tolerance pair so later fixed-column
        // detection sees a consistent interval.
        if self.lower[j] > self.upper[j] {
            let mid = 0.5 * (self.lower[j] + self.upper[j]);
            self.lower[j] = mid;
            self.upper[j] = mid;
        }
        Ok(())
    }

    /// Fix column `j` at `value`, propagating into every live row.
    fn fix_col(&mut self, j: usize, value: f64, at_upper: bool) {
        self.col_alive[j] = false;
        self.offset += self.obj[j] * value;
        for row in self.rows.iter_mut().filter(|r| r.alive) {
            if let Some(pos) = row.coeffs.iter().position(|&(k, _)| k == j) {
                let (_, a) = row.coeffs.swap_remove(pos);
                row.rhs -= a * value;
            }
        }
        self.stack.push(Reduction::FixedCol {
            col: j,
            value,
            at_upper,
        });
    }

    /// Number of live rows containing live column `j`.
    fn occupancy(&self, j: usize) -> usize {
        self.rows
            .iter()
            .filter(|r| r.alive && r.coeffs.iter().any(|&(k, _)| k == j))
            .count()
    }

    /// Activity bounds of row `r` over live columns.
    fn activity(&self, r: usize) -> Activity {
        let mut act = Activity::default();
        for &(j, a) in &self.rows[r].coeffs {
            let (lo, hi) = (self.lower[j], self.upper[j]);
            let (cmin, cmax) = if a > 0.0 {
                (a * lo, a * hi)
            } else {
                (a * hi, a * lo)
            };
            if cmin == f64::NEG_INFINITY {
                act.min_inf += 1;
            } else {
                act.min += cmin;
            }
            if cmax == f64::INFINITY {
                act.max_inf += 1;
            } else {
                act.max += cmax;
            }
        }
        act
    }
}

/// Run presolve on `lp`. `integer` optionally marks integer columns
/// (indexed like the problem's variables): integer bounds are rounded and
/// integer columns keep unit scale factors, so branching in the caller
/// stays exact.
pub(crate) fn run(
    lp: &LinearProgram,
    config: &PresolveConfig,
    integer: Option<&[bool]>,
) -> Result<Presolved, LpError> {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    if !config.enabled {
        let mut stats = PresolveStats::default();
        let cond = spread(
            lp.constraints()
                .iter()
                .flat_map(|c| c.coeffs.iter().map(|&(_, a)| a)),
        );
        stats.condition_before = cond;
        stats.condition_after = cond;
        return Ok(Presolved {
            lp: lp.clone(),
            postsolve: Postsolve::identity(n, m),
            stats,
        });
    }
    if let Some(mask) = integer {
        debug_assert_eq!(mask.len(), n, "integer mask length mismatch");
    }

    let mut work = Work {
        min_sign: match lp.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        },
        obj: lp.objective().to_vec(),
        lower: (0..n).map(|j| lp.bounds(j).0).collect(),
        upper: (0..n).map(|j| lp.bounds(j).1).collect(),
        integer,
        col_alive: vec![true; n],
        rows: lp
            .constraints()
            .iter()
            .map(|c| {
                // Sum duplicate indices and drop exact zeros so every
                // later pass can assume one entry per column.
                let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.coeffs.len());
                for &(j, a) in &c.coeffs {
                    match coeffs.iter_mut().find(|(k, _)| *k == j) {
                        Some((_, acc)) => *acc += a,
                        None => coeffs.push((j, a)),
                    }
                }
                coeffs.retain(|&(_, a)| a.abs() > DROP_TOL);
                WRow {
                    coeffs,
                    op: c.op,
                    rhs: c.rhs,
                    alive: true,
                }
            })
            .collect(),
        offset: 0.0,
        stack: Vec::new(),
        tightenings: 0,
    };
    let orig_nonzeros: usize = work.rows.iter().map(|r| r.coeffs.len()).sum();

    // Integer bounds round inwards before anything else looks at them.
    if integer.is_some() {
        for j in 0..n {
            let (lo, hi) = (work.lower[j], work.upper[j]);
            work.tighten(j, lo, hi)?;
        }
    }

    for _pass in 0..MAX_PASSES {
        let mut changed = row_reductions(&mut work)?;
        changed |= tighten_bounds_pass(&mut work)?;
        changed |= col_reductions(&mut work)?;
        if !changed {
            break;
        }
    }

    finish(lp, config, work, orig_nonzeros, n, m)
}

/// Empty, singleton, redundant and forcing rows. Returns whether anything
/// changed.
fn row_reductions(work: &mut Work) -> Result<bool, LpError> {
    let mut changed = false;
    for r in 0..work.rows.len() {
        if !work.rows[r].alive {
            continue;
        }
        let nnz = work.rows[r].coeffs.len();
        if nnz == 0 {
            let rhs = work.rows[r].rhs;
            let feas = FEAS_TOL * (1.0 + rhs.abs());
            let ok = match work.rows[r].op {
                ConstraintOp::Le => rhs >= -feas,
                ConstraintOp::Ge => rhs <= feas,
                ConstraintOp::Eq => rhs.abs() <= feas,
            };
            if !ok {
                return Err(LpError::Infeasible);
            }
            work.rows[r].alive = false;
            work.stack.push(Reduction::RemovedRow { row: r });
            changed = true;
            continue;
        }
        if nnz == 1 {
            let (j, a) = work.rows[r].coeffs[0];
            if a.abs() <= DROP_TOL {
                continue;
            }
            let b = work.rows[r].rhs / a;
            let (lo, hi) = match (work.rows[r].op, a > 0.0) {
                (ConstraintOp::Eq, _) => (b, b),
                (ConstraintOp::Le, true) | (ConstraintOp::Ge, false) => (f64::NEG_INFINITY, b),
                (ConstraintOp::Le, false) | (ConstraintOp::Ge, true) => (b, f64::INFINITY),
            };
            work.tighten(j, lo, hi)?;
            work.rows[r].alive = false;
            work.stack.push(Reduction::RemovedRow { row: r });
            changed = true;
            continue;
        }
        // Activity-based redundant / forcing classification.
        let act = work.activity(r);
        let rhs = work.rows[r].rhs;
        let feas = FEAS_TOL * (1.0 + rhs.abs());
        let op = work.rows[r].op;
        let (amin, amax) = (act.min_total(), act.max_total());
        let infeasible = match op {
            ConstraintOp::Le => amin > rhs + feas,
            ConstraintOp::Ge => amax < rhs - feas,
            ConstraintOp::Eq => amin > rhs + feas || amax < rhs - feas,
        };
        if infeasible {
            return Err(LpError::Infeasible);
        }
        let redundant = match op {
            ConstraintOp::Le => amax <= rhs + feas,
            ConstraintOp::Ge => amin >= rhs - feas,
            ConstraintOp::Eq => amax <= rhs + feas && amin >= rhs - feas,
        };
        if redundant {
            work.rows[r].alive = false;
            work.stack.push(Reduction::RemovedRow { row: r });
            changed = true;
            continue;
        }
        // Forcing: the only feasible point of the row is at one extreme of
        // the activity range, fixing every variable in the row.
        let forcing_at_min = match op {
            ConstraintOp::Le | ConstraintOp::Eq => amin.is_finite() && amin >= rhs - feas,
            ConstraintOp::Ge => false,
        };
        let forcing_at_max = match op {
            ConstraintOp::Ge | ConstraintOp::Eq => amax.is_finite() && amax <= rhs + feas,
            ConstraintOp::Le => false,
        };
        if forcing_at_min || forcing_at_max {
            let coeffs = work.rows[r].coeffs.clone();
            work.rows[r].alive = false;
            for (j, a) in coeffs {
                // At the min extreme each term sits at its lower
                // contribution: x_j = l_j when a > 0, x_j = u_j when a < 0
                // (mirrored at the max extreme).
                let take_lower = (a > 0.0) == forcing_at_min;
                let v = if take_lower {
                    work.lower[j]
                } else {
                    work.upper[j]
                };
                work.fix_col(j, v, !take_lower);
            }
            work.stack.push(Reduction::RemovedRow { row: r });
            changed = true;
        }
    }
    Ok(changed)
}

/// Activity-based bound tightening over all live rows.
fn tighten_bounds_pass(work: &mut Work) -> Result<bool, LpError> {
    let before = work.tightenings;
    for r in 0..work.rows.len() {
        if !work.rows[r].alive || work.rows[r].coeffs.len() < 2 {
            continue;
        }
        let act = work.activity(r);
        let op = work.rows[r].op;
        let rhs = work.rows[r].rhs;
        let coeffs = work.rows[r].coeffs.clone();
        for (j, a) in coeffs {
            if a.abs() <= 1e-8 {
                continue;
            }
            let (lo, hi) = (work.lower[j], work.upper[j]);
            let (cmin, cmax) = if a > 0.0 {
                (a * lo, a * hi)
            } else {
                (a * hi, a * lo)
            };
            // Upper-side restriction: Σ ≤ rhs (Le/Eq rows).
            if matches!(op, ConstraintOp::Le | ConstraintOp::Eq) {
                let rest_min = act.min_without(cmin);
                if rest_min.is_finite() {
                    let slack = rhs - rest_min;
                    if a > 0.0 {
                        work.tighten(j, f64::NEG_INFINITY, slack / a)?;
                    } else {
                        work.tighten(j, slack / a, f64::INFINITY)?;
                    }
                }
            }
            // Lower-side restriction: Σ ≥ rhs (Ge/Eq rows).
            if matches!(op, ConstraintOp::Ge | ConstraintOp::Eq) {
                let rest_max = act.max_without(cmax);
                if rest_max.is_finite() {
                    let need = rhs - rest_max;
                    if a > 0.0 {
                        work.tighten(j, need / a, f64::INFINITY)?;
                    } else {
                        work.tighten(j, f64::NEG_INFINITY, need / a)?;
                    }
                }
            }
        }
    }
    Ok(work.tightenings != before)
}

/// Fixed and empty columns.
fn col_reductions(work: &mut Work) -> Result<bool, LpError> {
    let mut changed = false;
    for j in 0..work.col_alive.len() {
        if !work.col_alive[j] {
            continue;
        }
        let (lo, hi) = (work.lower[j], work.upper[j]);
        if lo.is_finite() && hi.is_finite() && hi - lo <= 1e-9 * (1.0 + lo.abs()) {
            work.fix_col(j, lo, false);
            changed = true;
            continue;
        }
        if work.occupancy(j) == 0 {
            // Empty column: fix at whichever bound minimises the
            // (minimised) objective. A profitable unbounded direction means
            // the whole problem is unbounded.
            let d = work.min_sign * work.obj[j];
            let (value, at_upper) = if d > DROP_TOL {
                if lo.is_finite() {
                    (lo, false)
                } else {
                    return Err(LpError::Unbounded);
                }
            } else if d < -DROP_TOL {
                if hi.is_finite() {
                    (hi, true)
                } else {
                    return Err(LpError::Unbounded);
                }
            } else if lo.is_finite() {
                (lo, false)
            } else if hi.is_finite() {
                (hi, true)
            } else {
                (0.0, false)
            };
            work.fix_col(j, value, at_upper);
            changed = true;
        }
    }
    Ok(changed)
}

/// `max |a| / min |a|` over the magnitudes above the drop tolerance (`1`
/// when there are none).
fn spread(coeffs: impl Iterator<Item = f64>) -> f64 {
    let mut amin = f64::INFINITY;
    let mut amax = 0.0f64;
    for a in coeffs {
        let v = a.abs();
        if v > DROP_TOL {
            amin = amin.min(v);
            amax = amax.max(v);
        }
    }
    if amax > 0.0 && amin.is_finite() {
        amax / amin
    } else {
        1.0
    }
}

/// Round a positive scale factor to the nearest power of two, clamped to
/// a sane range. Powers of two keep `x_full = s · x_reduced` exact in
/// binary floating point.
fn pow2_round(v: f64) -> f64 {
    if !v.is_finite() || v <= 0.0 {
        return 1.0;
    }
    let e = v.log2().round();
    e.exp2().clamp(1e-8, 1e8)
}

/// Compact the workspace into the reduced problem, apply scaling and
/// assemble the [`Presolved`] result.
fn finish(
    lp: &LinearProgram,
    config: &PresolveConfig,
    work: Work,
    orig_nonzeros: usize,
    n: usize,
    m: usize,
) -> Result<Presolved, LpError> {
    let kept_cols: Vec<usize> = (0..n).filter(|&j| work.col_alive[j]).collect();
    let mut col_map: Vec<Option<usize>> = vec![None; n];
    for (j, &fj) in kept_cols.iter().enumerate() {
        col_map[fj] = Some(j);
    }
    let kept_rows: Vec<usize> = (0..m).filter(|&r| work.rows[r].alive).collect();
    let mut row_map: Vec<Option<usize>> = vec![None; m];
    for (i, &fi) in kept_rows.iter().enumerate() {
        row_map[fi] = Some(i);
    }
    let red_n = kept_cols.len();
    let red_m = kept_rows.len();

    let condition_before = spread(
        kept_rows
            .iter()
            .flat_map(|&fi| work.rows[fi].coeffs.iter().map(|&(_, a)| a)),
    );

    // Geometric-mean equilibration with power-of-two factors. Integer
    // columns keep s_j = 1 (branching stays exact) and rows touching only
    // integer columns keep r_i = 1: the flow's equilibrated layout models
    // pivot along this rule, so their recorded pivot counts and layouts
    // assume it.
    //
    // Only engaged when the coefficient spread exceeds the configured
    // trigger: on an already well-scaled matrix equilibration cannot
    // improve the spread (the factors are powers of two rounded from
    // geometric means ≈ 1) but it still perturbs the DSE reference
    // framework enough to change the pivot trajectory — measurably for
    // the worse on the `lp_presolve/presolved_120x80` bench (50 vs 30
    // iterations). The double-precision simplex with its FT pivot-growth
    // gate is comfortable below the default ~1e4 spread; past that,
    // scaling starts buying real stability.
    let mut row_scale = vec![1.0f64; m];
    let mut col_scale = vec![1.0f64; n];
    if red_m > 0 && red_n > 0 && condition_before > config.scale_trigger {
        let is_int = |j: usize| work.integer.map(|mask| mask[j]).unwrap_or(false);
        let row_scalable: Vec<bool> = kept_rows
            .iter()
            .map(|&fi| work.rows[fi].coeffs.iter().any(|&(j, _)| !is_int(j)))
            .collect();
        // The factor that brings a line's extreme scaled magnitudes to a
        // geometric mean of 1, rounded to a power of two.
        let rescale = |scale: &mut f64, vmin: f64, vmax: f64| {
            if vmax > 0.0 && vmin.is_finite() {
                let g = (vmin * vmax).sqrt();
                if g > 0.0 {
                    *scale = pow2_round(*scale / g);
                }
            }
        };
        let mut col_min = vec![f64::INFINITY; n];
        let mut col_max = vec![0.0f64; n];
        for _ in 0..3 {
            // Row pass over current scaled magnitudes.
            for (i, &fi) in kept_rows.iter().enumerate() {
                if !row_scalable[i] {
                    continue;
                }
                let mut vmin = f64::INFINITY;
                let mut vmax = 0.0f64;
                for &(j, a) in &work.rows[fi].coeffs {
                    let v = a.abs() * row_scale[fi] * col_scale[j];
                    if v > DROP_TOL {
                        vmin = vmin.min(v);
                        vmax = vmax.max(v);
                    }
                }
                rescale(&mut row_scale[fi], vmin, vmax);
            }
            // Column pass: one sweep over the kept rows collects every
            // column's extremes, then each continuous column rescales.
            col_min.fill(f64::INFINITY);
            col_max.fill(0.0);
            for &fi in &kept_rows {
                for &(j, a) in &work.rows[fi].coeffs {
                    let v = a.abs() * row_scale[fi] * col_scale[j];
                    if v > DROP_TOL {
                        col_min[j] = col_min[j].min(v);
                        col_max[j] = col_max[j].max(v);
                    }
                }
            }
            for &fj in &kept_cols {
                if !is_int(fj) {
                    rescale(&mut col_scale[fj], col_min[fj], col_max[fj]);
                }
            }
        }
    }

    let (rs, cs) = (&row_scale, &col_scale);
    let condition_after = spread(kept_rows.iter().flat_map(|&fi| {
        work.rows[fi]
            .coeffs
            .iter()
            .map(move |&(j, a)| a * rs[fi] * cs[j])
    }));

    // Build the reduced problem. With x = s · x' the transformed data is
    // c' = c·s, bounds'/s, a' = r·a·s, rhs' = r·rhs — the objective VALUE
    // is invariant, only the variable space is rescaled.
    let mut reduced = LinearProgram::new(red_n, lp.sense());
    reduced.set_pricing(lp.pricing());
    reduced.set_iteration_limit(lp.iteration_limit());
    reduced.set_time_limit(lp.time_limit());
    for (j, &fj) in kept_cols.iter().enumerate() {
        let s = col_scale[fj];
        reduced.set_objective_coeff(j, work.obj[fj] * s);
        reduced.set_bounds(j, work.lower[fj] / s, work.upper[fj] / s);
    }
    let mut red_nonzeros = 0usize;
    for &fi in &kept_rows {
        let row = &work.rows[fi];
        let r = row_scale[fi];
        let coeffs: Vec<(usize, f64)> = row
            .coeffs
            .iter()
            .map(|&(fj, a)| (col_map[fj].unwrap(), a * r * col_scale[fj]))
            .collect();
        red_nonzeros += coeffs.len();
        reduced.add_constraint(coeffs, row.op, row.rhs * r);
    }

    let identity = work.stack.is_empty()
        && red_n == n
        && red_m == m
        && row_scale.iter().all(|&v| v == 1.0)
        && col_scale.iter().all(|&v| v == 1.0);

    let stats = PresolveStats {
        rows_removed: m - red_m,
        cols_removed: n - red_n,
        nonzeros_removed: orig_nonzeros.saturating_sub(red_nonzeros),
        bound_tightenings: work.tightenings,
        condition_before,
        condition_after,
    };

    Ok(Presolved {
        lp: reduced,
        postsolve: Postsolve {
            orig_num_vars: n,
            orig_num_rows: m,
            objective_offset: work.offset,
            kept_cols,
            col_map,
            kept_rows,
            row_map,
            col_scale,
            stack: work.stack,
            identity,
        },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintOp, LinearProgram, Sense};

    fn assert_close(a: f64, b: f64, label: &str) {
        assert!(
            (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
            "{label}: {a} vs {b}"
        );
    }

    /// A small mixed model exercising several reductions at once.
    fn sample_lp() -> LinearProgram {
        let mut lp = LinearProgram::new(5, Sense::Minimize);
        // x0 fixed, x1..x3 genuine, x4 bounded by a singleton row.
        lp.set_objective_coeff(0, 3.0);
        lp.set_objective_coeff(1, 1.0);
        lp.set_objective_coeff(2, 2.0);
        lp.set_objective_coeff(3, 1.5);
        lp.set_objective_coeff(4, 0.5);
        lp.set_bounds(0, 2.0, 2.0);
        lp.set_bounds(1, 0.0, 10.0);
        lp.set_bounds(2, 0.0, 10.0);
        lp.set_bounds(3, 0.0, 20.0);
        lp.set_bounds(4, 0.0, 10.0);
        // Singleton row: x4 >= 1.
        lp.add_constraint(vec![(4, 1.0)], ConstraintOp::Ge, 1.0);
        // Doubleton equality: x3 = 4 - x1.
        lp.add_constraint(vec![(1, 1.0), (3, 1.0)], ConstraintOp::Eq, 4.0);
        // Real coupling row including the fixed column.
        lp.add_constraint(
            vec![(0, 1.0), (1, 2.0), (2, 1.0), (4, 1.0)],
            ConstraintOp::Ge,
            6.0,
        );
        // Redundant row (always satisfiable within bounds).
        lp.add_constraint(vec![(1, 1.0), (2, 1.0)], ConstraintOp::Le, 100.0);
        lp
    }

    #[test]
    fn disabled_config_is_identity() {
        let lp = sample_lp();
        let pre = lp.presolve(&PresolveConfig::off(), None).unwrap();
        assert!(pre.postsolve.identity);
        assert_eq!(pre.lp.num_vars(), lp.num_vars());
        assert_eq!(pre.lp.num_constraints(), lp.num_constraints());
        assert_eq!(pre.stats.rows_removed, 0);
        let sol = lp.solve().unwrap();
        let restored = pre.postsolve.restore_solution(&sol);
        assert_close(restored.objective, sol.objective, "identity objective");
        assert_eq!(restored.values, sol.values);
    }

    #[test]
    fn sample_model_round_trips() {
        let lp = sample_lp();
        let full = lp.solve().unwrap();
        let pre = lp.presolve(&PresolveConfig::default(), None).unwrap();
        assert!(pre.stats.rows_removed >= 2, "stats: {:?}", pre.stats);
        // Only the fixed column goes; the doubleton equality (row 1) stays.
        assert_eq!(pre.postsolve.kept_columns(), &[1, 2, 3, 4]);
        assert!(pre.postsolve.kept_rows.contains(&1));
        let red = pre.lp.solve().unwrap();
        let restored = pre.postsolve.restore_solution(&red);
        assert_close(restored.objective, full.objective, "objective");
        // The restored point must satisfy every original constraint.
        for (i, c) in lp.constraints().iter().enumerate() {
            let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * restored.values[j]).sum();
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + 1e-6,
                ConstraintOp::Ge => lhs >= c.rhs - 1e-6,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= 1e-6,
            };
            assert!(ok, "row {i} violated: {lhs} vs {}", c.rhs);
        }
        for j in 0..lp.num_vars() {
            let (lo, hi) = lp.bounds(j);
            assert!(
                restored.values[j] >= lo - 1e-6 && restored.values[j] <= hi + 1e-6,
                "var {j} out of bounds"
            );
        }
    }

    #[test]
    fn substitute_flag_does_not_change_the_presolved_model() {
        let lp = sample_lp();
        let presolve = |substitute| {
            let config = PresolveConfig {
                substitute,
                ..PresolveConfig::default()
            };
            lp.presolve(&config, None).unwrap()
        };
        let (on, off) = (presolve(true), presolve(false));
        assert_eq!(format!("{:?}", on.lp), format!("{:?}", off.lp));
        assert_eq!(on.stats, off.stats);
        assert_eq!(on.postsolve.kept_columns(), off.postsolve.kept_columns());
    }

    #[test]
    fn basis_round_trip_resolves_without_work() {
        let lp = sample_lp();
        let pre = lp.presolve(&PresolveConfig::default(), None).unwrap();
        let (red_sol, red_basis) = pre.lp.solve_warm(None).unwrap();
        let full_basis = pre.postsolve.basis_to_full(&red_basis);
        assert_eq!(full_basis.num_structural(), lp.num_vars());
        assert_eq!(full_basis.num_rows(), lp.num_constraints());
        // Warm-starting the FULL model from the lifted basis reaches the
        // same objective.
        let (full_sol, _) = lp.solve_warm(Some(&full_basis)).unwrap();
        assert_close(
            full_sol.objective,
            red_sol.objective + pre.postsolve.objective_offset(),
            "warm full objective",
        );
        // And mapping back down gives a basis the reduced model accepts.
        let back = pre.postsolve.basis_to_reduced(&full_basis).unwrap();
        let (again, _) = pre.lp.solve_warm(Some(&back)).unwrap();
        assert_close(again.objective, red_sol.objective, "reduced warm objective");
    }

    #[test]
    fn infeasible_bounds_detected() {
        let mut lp = LinearProgram::new(2, Sense::Minimize);
        lp.set_bounds(0, 0.0, 1.0);
        lp.set_bounds(1, 0.0, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 5.0);
        match lp.presolve(&PresolveConfig::default(), None) {
            Err(LpError::Infeasible) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn all_fixed_model_reduces_to_nothing() {
        let mut lp = LinearProgram::new(3, Sense::Minimize);
        for j in 0..3 {
            lp.set_objective_coeff(j, (j + 1) as f64);
            lp.set_bounds(j, 1.0, 1.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Le, 5.0);
        let pre = lp.presolve(&PresolveConfig::default(), None).unwrap();
        assert_eq!(pre.lp.num_vars(), 0);
        assert_eq!(pre.lp.num_constraints(), 0);
        let restored = pre.postsolve.restore_values(&[]);
        assert_eq!(restored, vec![1.0, 1.0, 1.0]);
        assert_close(pre.postsolve.objective_offset(), 6.0, "offset");
    }

    #[test]
    fn integer_bounds_are_rounded() {
        let mut lp = LinearProgram::new(2, Sense::Minimize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_objective_coeff(1, 1.0);
        lp.set_bounds(0, 0.3, 2.7);
        lp.set_bounds(1, 0.0, 5.0);
        // Keep x0 occupied by a non-redundant row so it survives as a
        // live reduced column.
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 4.0);
        let pre = lp
            .presolve(&PresolveConfig::default(), Some(&[true, false]))
            .unwrap();
        assert!(pre.stats.bound_tightenings >= 1);
        let j0 = pre
            .postsolve
            .kept_columns()
            .iter()
            .position(|&fj| fj == 0)
            .expect("x0 still live");
        // Rounded inwards to [1, 2] (integer columns keep unit scale).
        let (lo, hi) = pre.lp.bounds(j0);
        assert_eq!((lo, hi), (1.0, 2.0));
    }

    #[test]
    fn scaling_preserves_objective_value() {
        let mut lp = LinearProgram::new(2, Sense::Minimize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_objective_coeff(1, 1e4);
        lp.set_bounds(0, 0.0, 1e6);
        lp.set_bounds(1, 0.0, 10.0);
        // Wild coefficient spread, as in big-M rows.
        lp.add_constraint(vec![(0, 1e-3), (1, 1e5)], ConstraintOp::Ge, 50.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 2.0);
        let full = lp.solve().unwrap();
        let pre = lp.presolve(&PresolveConfig::default(), None).unwrap();
        assert!(
            pre.stats.condition_after <= pre.stats.condition_before,
            "scaling should not worsen conditioning: {:?}",
            pre.stats
        );
        let red = pre.lp.solve().unwrap();
        let restored = pre.postsolve.restore_solution(&red);
        assert_close(restored.objective, full.objective, "scaled objective");
    }

    #[test]
    fn unbounded_empty_column_detected() {
        let mut lp = LinearProgram::new(1, Sense::Maximize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_bounds(0, 0.0, f64::INFINITY);
        match lp.presolve(&PresolveConfig::default(), None) {
            Err(LpError::Unbounded) => {}
            other => panic!("expected Unbounded, got {other:?}"),
        }
    }

    #[test]
    fn free_variable_survives() {
        let mut lp = LinearProgram::new(2, Sense::Minimize);
        lp.set_objective_coeff(0, 1.0);
        lp.set_objective_coeff(1, 1.0);
        lp.set_bounds(0, f64::NEG_INFINITY, f64::INFINITY);
        lp.set_bounds(1, 0.0, 10.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 3.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, 8.0);
        lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, -5.0);
        let full = lp.solve().unwrap();
        let pre = lp.presolve(&PresolveConfig::default(), None).unwrap();
        let red = pre.lp.solve().unwrap();
        let restored = pre.postsolve.restore_solution(&red);
        assert_close(restored.objective, full.objective, "free var objective");
    }
}
