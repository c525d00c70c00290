//! Bounded-variable revised simplex over a sparse column representation.
//!
//! The model is brought into the computational standard form
//!
//! ```text
//!   minimise cᵀx   subject to   A·x_struct + s = b,   l ≤ x ≤ u
//! ```
//!
//! with one *logical* (slack) variable per row: `s ≥ 0` for `<=` rows,
//! `s ≤ 0` for `>=` rows and `s = 0` for `=` rows. Variables keep their
//! bounds natively — no shifting, mirroring or free-variable splitting as in
//! the old dense tableau — and nonbasic variables sit at one of their finite
//! bounds (free nonbasics sit at zero).
//!
//! Three engines share the factorised basis ([`crate::basis`]):
//!
//! * **primal phase 1/2** — a composite-objective primal simplex: while any
//!   basic variable violates its bounds the objective is the (piecewise
//!   linear) sum of infeasibilities, afterwards the true costs. Pricing is
//!   the classic full most-negative (Dantzig) scan against fresh duals.
//!   The ratio test picks the smallest ratio, breaking near-ties on the
//!   larger pivot, with Bland's rule (entering and leaving) as the
//!   anti-cycling fallback after degenerate stalls,
//! * **dual simplex** — entered when a warm-start basis is dual feasible,
//!   which is the cheap path after branch-and-bound bound changes or after
//!   appending lazily separated constraint rows; its reduced costs are also
//!   maintained incrementally across pivots. Under
//!   [`PricingRule::DualSteepestEdge`] the leaving row is chosen by the
//!   steepest-edge score `δ²/β` (Forrest–Goldfarb reference weights,
//!   updated incrementally from the FTRAN'd entering column and carried
//!   across warm starts on the [`Basis`]) and the ratio test is the
//!   **bound-flipping (long-step)** test, which sweeps multiple
//!   breakpoints of the piecewise-linear dual objective and flips boxed
//!   nonbasics bound-to-bound in one batched extra FTRAN. A dual ray (no
//!   entering column) whose row provably cannot reach its violated bound
//!   ends the solve as infeasible; any other ray falls back to the primal.
//!   The engine tracks the objective of its basic point — the dual
//!   objective, which only rises — and stops once it reaches a cutoff set
//!   with [`LinearProgram::set_cutoff`],
//! * **bound flips** — nonbasic variables with two finite bounds move
//!   bound-to-bound without a basis change.
//!
//! Warm starts are first-class: [`solve`] accepts the [`Basis`] returned by
//! a previous solve (possibly of a *smaller* model — new variables enter at
//! a bound, new rows enter with their logical basic) and re-factorises it,
//! falling back to the all-logical cold basis when the warm basis is stale
//! or singular.

use crate::basis::{Factorization, SingularBasis};
use crate::problem::{
    ConstraintOp, LinearProgram, LpError, LpSolution, MatrixCache, PricingRule, Sense,
};
use crate::sparse::ScatterVec;
use crate::TOLERANCE;

/// Reduced-cost (dual) tolerance.
const DUAL_TOL: f64 = 1e-7;
/// Minimum pivot magnitude in the ratio tests.
const RATIO_PIVOT_TOL: f64 = 1e-9;
/// A step below this is treated as degenerate for stall detection.
const DEGENERATE_STEP: f64 = 1e-10;
/// Residual bound violation accepted when the phase-1 objective stalls at a
/// numerically tiny value.
const ACCEPT_INFEAS: f64 = 1e-6;
/// Hard ceiling on the violation the phase-flap guard may write off (see
/// the flap counter in [`Solver::primal`]); scaled by `1 + |bound|`, also
/// the margin by which a dual ray must be certified before it counts as a
/// proof of infeasibility.
const ACCEPT_FLAP_CAP: f64 = 1e-4;
/// Phase-2 → phase-1 re-entries tolerated before the flap guard fires.
const MAX_PHASE_FLAPS: usize = 8;
/// Floor on a dual steepest-edge reference weight: the exact leaving-row
/// weight `βᵣ/αᵣ²` can collapse towards zero through a huge pivot, which
/// would make that row look infinitely attractive forever after.
const DSE_MIN_WEIGHT: f64 = 1e-4;
/// Reduced-cost violation the dual engine tolerates: on entry (worse
/// sends the solve to the primal) and when it confirms a cutoff.
const DUAL_ENTRY_TOL: f64 = 1e-6;
/// Ceiling on a dual steepest-edge reference weight: past this the
/// incrementally maintained framework has drifted into pure noise (tiny
/// pivots compounding), so the whole framework resets to unit weights.
const DSE_WEIGHT_CAP: f64 = 1e12;
/// Remaining slope below which the bound-flipping ratio test stops
/// passing breakpoints: flipping through a near-zero slope buys no dual
/// progress but costs primal accuracy.
const BFRT_SLOPE_TOL: f64 = 1e-9;

/// Status of one variable relative to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    Basic,
    AtLower,
    AtUpper,
    Free,
}

/// A warm-start basis: the basic variable of every row plus the bound
/// status of every nonbasic variable.
///
/// Returned by [`LinearProgram::solve_warm`] and accepted back by it — also
/// for a *grown* model (more variables and/or more constraints than the
/// solve that produced it): new structural variables start at a bound, new
/// rows start with their logical variable basic, which is exactly what makes
/// re-solving after a branching bound change or a lazily separated
/// constraint cheap (dual simplex from the parent optimum).
///
/// The basis additionally carries the **LU factorisation** it was produced
/// with (shared, behind an [`Arc`]): variable-bound changes — the only
/// difference between branch-and-bound parent and child LPs — do not touch
/// the basis matrix, so a warm re-solve of a model with the *identical
/// constraint matrix* (verified by fingerprint) can skip the from-scratch
/// refactorisation entirely. That fixed cost, not the pivot count, used to
/// dominate warm node solves.
///
/// [`Arc`]: std::sync::Arc
#[derive(Debug, Clone)]
pub struct Basis {
    statuses: Vec<VarStatus>,
    basic: Vec<usize>,
    num_structural: usize,
    /// Cached factorisation of this basis (valid only for the matrix with
    /// the matching fingerprint).
    factor: Option<std::sync::Arc<Factorization>>,
    /// Fingerprint of the constraint matrix the factorisation belongs to.
    matrix_fingerprint: u64,
    /// Dual steepest-edge reference weights by elimination position
    /// (aligned with `basic`), carried across warm starts so a
    /// branch-and-bound child re-solve prices its dual pivots with the
    /// parent's converged weights instead of restarting from the unit
    /// framework. `None` when the producing solve did not maintain them
    /// ([`crate::PricingRule::DualSteepestEdge`] only). Only re-adopted
    /// when the matrix fingerprint and dimensions still match — any
    /// structural edit resets the inheritor to unit weights.
    dse_weights: Option<Vec<f64>>,
}

impl PartialEq for Basis {
    fn eq(&self, other: &Self) -> bool {
        // The factorisation cache is an acceleration detail, not identity.
        self.statuses == other.statuses
            && self.basic == other.basic
            && self.num_structural == other.num_structural
    }
}

impl Basis {
    /// Number of structural variables of the model this basis belongs to.
    pub fn num_structural(&self) -> usize {
        self.num_structural
    }

    /// Number of constraint rows of the model this basis belongs to.
    pub fn num_rows(&self) -> usize {
        self.basic.len()
    }

    /// Per-variable statuses (structural variables `0..n`, then logicals
    /// `n..n+m`). Used by the presolve layer to map bases between the
    /// full and reduced variable spaces.
    pub(crate) fn statuses(&self) -> &[VarStatus] {
        &self.statuses
    }

    /// Basic variable indices in elimination order.
    pub(crate) fn basic_vars(&self) -> &[usize] {
        &self.basic
    }

    /// Assemble a basis from an explicit status/basic-set mapping, with no
    /// cached factorisation (fingerprint 0, so the first adoption pays one
    /// refactorisation) and no dual steepest-edge weights. The presolve
    /// layer uses this for both directions of its basis mapping.
    pub(crate) fn from_mapping(
        statuses: Vec<VarStatus>,
        basic: Vec<usize>,
        num_structural: usize,
    ) -> Basis {
        Basis {
            statuses,
            basic,
            num_structural,
            factor: None,
            matrix_fingerprint: 0,
            dse_weights: None,
        }
    }
}

/// Iterates the `(row, value)` entries of the full column of variable `j`
/// of a model with `n` structural variables (structural: matrix column;
/// logical: unit vector).
fn full_column(cache: &MatrixCache, n: usize, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    let (structural, logical) = if j < n {
        (Some(cache.matrix.col_iter(j)), None)
    } else {
        (None, Some((j - n, 1.0)))
    };
    structural.into_iter().flatten().chain(logical)
}

/// Factorises the basis matrix whose columns are the variables `basic`
/// (in elimination order), streaming the columns out of the matrix view.
fn factorize_basic(
    cache: &MatrixCache,
    n: usize,
    m: usize,
    basic: &[usize],
) -> Result<Factorization, SingularBasis> {
    Factorization::factorize(m, basic.iter().map(|&j| full_column(cache, n, j)))
}

/// Refactorises the cached factorisation of `basis` in place when its
/// Forrest–Tomlin eta chain is too long for warm starts to reuse (see
/// [`Factorization::worth_caching`]); `true` when the factor was replaced.
///
/// Every warm start of such a basis would otherwise refactorise the same
/// columns itself, and branch and bound warm-starts each parent basis
/// several times (both children, the rounding heuristic). The refreshed
/// factor is exactly the one those adoptions compute, so their solves are
/// unchanged bit for bit; only the repeated work goes. Bases without a
/// factor, with a short chain, of another matrix, or whose columns are
/// singular are left as they are.
pub(crate) fn refresh_factor(lp: &LinearProgram, basis: &mut Basis) -> bool {
    let cache = lp.matrix_cache();
    let stale = basis.factor.as_ref().is_some_and(|f| !f.worth_caching());
    if !stale
        || basis.matrix_fingerprint != cache.fingerprint
        || basis.num_structural != lp.num_vars()
        || basis.num_rows() != lp.num_constraints()
    {
        return false;
    }
    match factorize_basic(&cache, lp.num_vars(), lp.num_constraints(), &basis.basic) {
        Ok(factor) => {
            basis.factor = Some(std::sync::Arc::new(factor.into_stored()));
            true
        }
        Err(SingularBasis) => false,
    }
}

/// Outcome of the dual-simplex engine.
enum DualOutcome {
    /// Primal feasibility reached (and dual feasibility maintained).
    Feasible,
    /// Dual feasibility was lost or the engine stalled; run the primal.
    Abandoned,
    /// The dual objective reached the cutoff ([`LinearProgram::set_cutoff`]):
    /// the optimum cannot beat it, so the solve stops here.
    Cutoff,
}

/// What blocks the entering variable in the primal ratio test.
#[derive(Clone, Copy)]
enum Blocker {
    /// The entering variable reaches its own opposite bound.
    Flip,
    /// The basic variable at elimination position `pos` reaches a bound.
    Basic { pos: usize, to_upper: bool },
}

struct Solver<'a> {
    lp: &'a LinearProgram,
    n: usize,
    m: usize,
    /// Minimisation costs over structural + logical variables.
    cost: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Shared CSC view of the constraint matrix plus its fingerprint
    /// (memoised on the model — see [`MatrixCache`]).
    cache: std::sync::Arc<MatrixCache>,
    rhs: Vec<f64>,
    statuses: Vec<VarStatus>,
    basic: Vec<usize>,
    factor: Factorization,
    /// Basic values by elimination position (parallel to `basic`).
    x_basic: Vec<f64>,
    /// Minimised objective `cᵀx` of the basic point: recomputed with
    /// `x_basic`, advanced by the dual engine's pivots and bound flips.
    /// While the basis is dual feasible this is the dual objective, a
    /// lower bound on the optimum that only rises.
    objective: f64,
    /// Minimised objective cutoff (`+∞` when none is set): the dual stops
    /// once `objective` reaches it.
    cutoff: f64,
    /// Pivots applied since `x_basic` was last recomputed from scratch —
    /// `usize::MAX` while it holds no valid values at all. Lets the
    /// engines share one computation across the dual entry, the primal
    /// start and the extraction instead of recomputing at each hand-off.
    x_staleness: usize,
    iterations: usize,
    refactorizations: usize,
    limit: usize,
    /// Wall-clock deadline, checked periodically inside the pivot loops.
    deadline: Option<std::time::Instant>,
    /// Cooperative cancellation flag, checked at the deadline cadence.
    cancel: Option<crate::CancelToken>,
    /// Consecutive degenerate steps; beyond a threshold the pricing falls
    /// back to Bland's rule.
    stall: usize,
    /// `true` while dual steepest-edge weights are being maintained
    /// ([`PricingRule::DualSteepestEdge`]): every basis change — primal or
    /// dual — then updates `dse_weights`, so the snapshot handed to the
    /// next warm start always describes the final basis.
    track_dse: bool,
    /// Forrest–Goldfarb reference weights `β_k ≈ ‖B⁻ᵀe_k‖²` by
    /// elimination position, parallel to `basic`. Empty unless
    /// `track_dse`.
    dse_weights: Vec<f64>,
    /// Dual-engine pivots (subset of `iterations`).
    dual_iterations: usize,
    /// Bound flips applied by the long-step dual ratio test.
    bound_flips: usize,
}

impl<'a> Solver<'a> {
    fn new(lp: &'a LinearProgram, warm: Option<&Basis>) -> Result<Solver<'a>, LpError> {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let sign = match lp.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };

        let mut cost = Vec::with_capacity(n + m);
        for &c in lp.objective() {
            cost.push(sign * c);
        }
        cost.resize(n + m, 0.0);

        let mut lower = Vec::with_capacity(n + m);
        let mut upper = Vec::with_capacity(n + m);
        lower.extend_from_slice(lp.lower_bounds());
        upper.extend_from_slice(lp.upper_bounds());
        let mut rhs = Vec::with_capacity(m);
        for con in lp.constraints() {
            rhs.push(con.rhs);
            match con.op {
                ConstraintOp::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                ConstraintOp::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                ConstraintOp::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }

        let cache = lp.matrix_cache();

        let mut solver = Solver {
            lp,
            n,
            m,
            cost,
            lower,
            upper,
            cache,
            rhs,
            statuses: Vec::new(),
            basic: Vec::new(),
            factor: Factorization::empty(),
            x_basic: vec![0.0; m],
            objective: 0.0,
            cutoff: lp.cutoff().map_or(f64::INFINITY, |c| sign * c),
            x_staleness: usize::MAX,
            iterations: 0,
            refactorizations: 0,
            limit: lp.iteration_limit(),
            deadline: lp.time_limit().map(|d| std::time::Instant::now() + d),
            cancel: lp.cancel_token().cloned(),
            stall: 0,
            track_dse: lp.pricing() == PricingRule::DualSteepestEdge,
            dse_weights: Vec::new(),
            dual_iterations: 0,
            bound_flips: 0,
        };

        let warm_applied = warm.is_some_and(|b| solver.try_warm_basis(b));
        if !warm_applied {
            solver.cold_basis();
            solver
                .refactorize()
                .map_err(|_| LpError::InvalidModel("logical basis is singular".into()))?;
        }
        // Weight handoff contract: `try_warm_basis` adopts the warm basis'
        // weights only on the exact-match fast path; everything else —
        // cold start, structural edits, stale bases — starts from the unit
        // reference framework.
        if solver.track_dse && solver.dse_weights.len() != solver.m {
            solver.dse_weights = vec![1.0; solver.m];
        }
        Ok(solver)
    }

    /// Default nonbasic status of a variable given its bounds.
    fn default_status(&self, j: usize) -> VarStatus {
        if self.lower[j].is_finite() {
            VarStatus::AtLower
        } else if self.upper[j].is_finite() {
            VarStatus::AtUpper
        } else {
            VarStatus::Free
        }
    }

    /// Repairs a nonbasic status that no longer matches the bounds.
    fn reconcile_status(&self, j: usize, status: VarStatus) -> VarStatus {
        match status {
            VarStatus::Basic => VarStatus::Basic,
            VarStatus::AtLower if self.lower[j].is_finite() => VarStatus::AtLower,
            VarStatus::AtUpper if self.upper[j].is_finite() => VarStatus::AtUpper,
            _ => self.default_status(j),
        }
    }

    /// All-logical starting basis.
    fn cold_basis(&mut self) {
        self.statuses = (0..self.n + self.m)
            .map(|j| {
                if j < self.n {
                    self.default_status(j)
                } else {
                    VarStatus::Basic
                }
            })
            .collect();
        self.basic = (self.n..self.n + self.m).collect();
    }

    /// Attempts to adopt (and possibly extend) a warm basis; returns `false`
    /// when the basis is stale or singular, leaving the solver untouched.
    fn try_warm_basis(&mut self, warm: &Basis) -> bool {
        let old_n = warm.num_structural;
        let old_m = warm.num_rows();
        if old_n > self.n || old_m > self.m {
            return false;
        }
        let remap = |var: usize| -> usize {
            if var < old_n {
                var
            } else {
                self.n + (var - old_n)
            }
        };
        let mut statuses = Vec::with_capacity(self.n + self.m);
        for j in 0..self.n {
            let status = if j < old_n {
                warm.statuses[j]
            } else {
                self.default_status(j)
            };
            statuses.push(self.reconcile_status(j, status));
        }
        for i in 0..self.m {
            let j = self.n + i;
            let status = if i < old_m {
                warm.statuses[old_n + i]
            } else {
                VarStatus::Basic
            };
            statuses.push(self.reconcile_status(j, status));
        }
        let mut basic: Vec<usize> = warm.basic.iter().map(|&v| remap(v)).collect();
        basic.extend(self.n + old_m..self.n + self.m);
        // Consistency: every basic entry must carry Basic status and the
        // counts must agree (reconcile_status never turns Basic into
        // nonbasic, so this only guards against corrupted inputs).
        if basic.len() != self.m || basic.iter().any(|&v| statuses[v] != VarStatus::Basic) {
            return false;
        }
        // Fast path: the basis carries the factorisation it was produced
        // with, and the constraint matrix is bit-identical (fingerprint) at
        // unchanged dimensions — bound changes don't touch the basis
        // matrix, so the cached factors are *this* basis' factors and the
        // from-scratch refactorisation is skipped. This is what makes
        // branch-and-bound node re-solves cheap: their fixed cost used to
        // be dominated by exactly that refactorisation.
        // The exact-match condition of the factorisation cache also
        // revalidates the inherited dual steepest-edge weights: they
        // describe `‖B⁻ᵀe_k‖²` of *this* basis over *this* matrix, so
        // structural edits (which change the fingerprint or the
        // dimensions) leave `inherited` empty and `Solver::new` resets to
        // the unit framework. They are only *committed* on the success
        // paths below — adopting a warm basis can still fail on a
        // singular refactorisation, and weights of a basis that was never
        // installed would poison the leaving-row selection.
        let exact_match =
            old_n == self.n && old_m == self.m && warm.matrix_fingerprint == self.cache.fingerprint;
        // Row extension: same columns, rows appended (constraints are
        // append-only, so an old basis with fewer rows describes a prefix
        // of this model — lazy constraint separation). The old weights stay aligned with the remapped
        // `basic` prefix and the appended rows enter with their logical
        // variable basic at the exact unit weight `‖B⁻ᵀe‖² = 1` of a
        // fresh logical row. The framework is an approximation either way
        // (Forrest–Goldfarb monotone envelope), so extending beats the
        // old behaviour of resetting the whole framework on every
        // appended row.
        let row_extension = old_n == self.n && old_m < self.m;
        let inherited = if self.track_dse && (exact_match || row_extension) {
            warm.dse_weights
                .as_ref()
                .filter(|w| w.len() == old_m)
                .filter(|w| w.iter().all(|&b| b.is_finite() && b >= DSE_MIN_WEIGHT))
                .map(|w| {
                    let mut extended = w.clone();
                    extended.resize(self.m, 1.0);
                    extended
                })
        } else {
            None
        };
        if exact_match {
            if let Some(cached) = warm.factor.as_ref().filter(|f| f.worth_caching()) {
                self.statuses = statuses;
                self.basic = basic;
                self.factor = cached.working_copy();
                if let Some(w) = inherited {
                    self.dse_weights = w;
                }
                return true;
            }
        }
        let prev_statuses = std::mem::replace(&mut self.statuses, statuses);
        let prev_basic = std::mem::replace(&mut self.basic, basic);
        if self.refactorize().is_err() {
            self.statuses = prev_statuses;
            self.basic = prev_basic;
            return false;
        }
        if let Some(w) = inherited {
            self.dse_weights = w;
        }
        true
    }

    /// Snapshots the basis, **moving** the factorisation into the snapshot
    /// (no clone — only valid as the very last step of a solve) without
    /// its scratch buffers ([`Factorization::into_stored`]).
    fn into_snapshot(mut self) -> Basis {
        let factor = std::mem::replace(&mut self.factor, Factorization::empty());
        let dse_weights = if self.track_dse && self.dse_weights.len() == self.m {
            Some(std::mem::take(&mut self.dse_weights))
        } else {
            None
        };
        Basis {
            statuses: self.statuses,
            basic: self.basic,
            num_structural: self.n,
            factor: Some(std::sync::Arc::new(factor.into_stored())),
            matrix_fingerprint: self.cache.fingerprint,
            dse_weights,
        }
    }

    /// Iterates the `(row, value)` entries of the full column of variable
    /// `j` (structural: matrix column; logical: unit vector).
    fn column(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        full_column(&self.cache, self.n, j)
    }

    /// Dot product of the column of variable `j` with a dense row vector.
    fn column_dot(&self, j: usize, dense: &[f64]) -> f64 {
        if j < self.n {
            self.cache.matrix.col_dot(j, dense)
        } else {
            dense[j - self.n]
        }
    }

    fn refactorize(&mut self) -> Result<(), SingularBasis> {
        self.factor = factorize_basic(&self.cache, self.n, self.m, &self.basic)?;
        self.refactorizations += 1;
        Ok(())
    }

    /// Value of a nonbasic variable.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.statuses[j] {
            VarStatus::AtLower => self.lower[j],
            VarStatus::AtUpper => self.upper[j],
            VarStatus::Free => 0.0,
            VarStatus::Basic => unreachable!("basic variable has no nonbasic value"),
        }
    }

    /// Ensures `x_basic` is populated and drift-free: recomputes it unless
    /// it was already computed from scratch and no pivot has touched it
    /// since.
    fn ensure_x_basic(&mut self) {
        if self.x_staleness != 0 {
            self.compute_x_basic();
        }
    }

    /// Recomputes the basic values `x_B = B⁻¹(b − N·x_N)` and, with them,
    /// the objective.
    fn compute_x_basic(&mut self) {
        let x_basic = self.basic_values();
        self.objective = self.basic_objective(&x_basic);
        self.x_basic = x_basic;
        self.x_staleness = 0;
    }

    /// The basic values `x_B = B⁻¹(b − N·x_N)` computed from scratch, left
    /// for the caller to install.
    fn basic_values(&mut self) -> Vec<f64> {
        let mut rhs = self.rhs.clone();
        for j in 0..self.n + self.m {
            if self.statuses[j] == VarStatus::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                for (r, a) in self.column(j) {
                    rhs[r] -= a * v;
                }
            }
        }
        self.factor.ftran_aux(&mut rhs);
        rhs
    }

    /// Minimised objective `cᵀx` of the basic point with basic values
    /// `x_basic` (logical variables cost nothing).
    fn basic_objective(&self, x_basic: &[f64]) -> f64 {
        let nonbasic: f64 = (0..self.n)
            .filter(|&j| self.statuses[j] != VarStatus::Basic)
            .map(|j| self.cost[j] * self.nonbasic_value(j))
            .sum();
        let basic: f64 = self
            .basic
            .iter()
            .zip(x_basic)
            .filter(|&(&j, _)| j < self.n)
            .map(|(&j, &x)| self.cost[j] * x)
            .sum();
        nonbasic + basic
    }

    /// Structural values of the current basic point: nonbasics at their
    /// bounds, basics at `x_basic`.
    fn point(&self) -> Vec<f64> {
        let mut values: Vec<f64> = (0..self.n)
            .map(|j| match self.statuses[j] {
                VarStatus::Basic => 0.0, // filled below
                _ => self.nonbasic_value(j),
            })
            .collect();
        for (k, &j) in self.basic.iter().enumerate() {
            if j < self.n {
                values[j] = self.x_basic[k];
            }
        }
        values
    }

    /// Bound-violation tolerance for a bound value.
    #[inline]
    fn feas_tol(bound: f64) -> f64 {
        TOLERANCE * (1.0 + bound.abs())
    }

    /// Checks the shared iteration and wall-clock limits (called once per
    /// pivot loop iteration; the clock is sampled every 32 pivots).
    fn check_limits(&self) -> Result<(), LpError> {
        if self.iterations >= self.limit {
            return Err(LpError::IterationLimit);
        }
        if self.iterations.is_multiple_of(32) {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() > deadline {
                    return Err(LpError::TimeLimit);
                }
            }
            if let Some(cancel) = &self.cancel {
                if cancel.is_cancelled() {
                    return Err(LpError::TimeLimit);
                }
            }
        }
        Ok(())
    }

    /// `(positions, total violation)` of basic variables whose bound
    /// violation exceeds `max(feas_tol, accept)`.
    fn infeasible_positions(&self, accept: f64) -> (Vec<usize>, f64) {
        let mut out = Vec::new();
        let mut total = 0.0;
        for (k, &j) in self.basic.iter().enumerate() {
            let x = self.x_basic[k];
            let (l, u) = (self.lower[j], self.upper[j]);
            if x < l - Self::feas_tol(l).max(accept) {
                out.push(k);
                total += l - x;
            } else if x > u + Self::feas_tol(u).max(accept) {
                out.push(k);
                total += x - u;
            }
        }
        (out, total)
    }

    /// Duals `y = B⁻ᵀc_B` under the given cost vector (indexed by
    /// variable). An associated function over disjoint fields so callers
    /// can hand in `&self.cost` while the factorisation is borrowed
    /// mutably.
    fn duals_vec(factor: &mut Factorization, basic: &[usize], m: usize, cost: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; m];
        for (k, &j) in basic.iter().enumerate() {
            y[k] = cost[j];
        }
        factor.btran(&mut y);
        y
    }

    /// Eligibility of nonbasic variable `j` as an entering candidate given
    /// its reduced cost `d`: returns the movement direction, or `None`.
    #[inline]
    fn entering_direction(&self, j: usize, d: f64) -> Option<f64> {
        match self.statuses[j] {
            VarStatus::AtLower => (d < -DUAL_TOL).then_some(1.0),
            VarStatus::AtUpper => (d > DUAL_TOL).then_some(-1.0),
            VarStatus::Free => {
                if d < -DUAL_TOL {
                    Some(1.0)
                } else if d > DUAL_TOL {
                    Some(-1.0)
                } else {
                    None
                }
            }
            VarStatus::Basic => None,
        }
    }

    /// Dual steepest-edge (Forrest–Goldfarb) reference-weight update for a
    /// basis change at elimination position `pos` with FTRAN'd entering
    /// column `w` — old-basis quantities, so this must run *before* the
    /// factorisation update.
    ///
    /// With `ρ_k = B⁻ᵀe_k` and pivot element `α = w_pos = ρ_pos·a_q`, the
    /// new inverse rows are `ρ'_pos = ρ_pos/α` and
    /// `ρ'_k = ρ_k − (w_k/α)·ρ_pos`, hence exactly
    ///
    /// ```text
    ///   β'_pos = β_pos/α²
    ///   β'_k   = β_k − 2·(w_k/α)·(ρ_k·ρ_pos) + (w_k/α)²·β_pos
    /// ```
    ///
    /// The cross terms `τ_k = ρ_k·ρ_pos` would cost an extra FTRAN of `ρ`
    /// every pivot; the reference-framework variant drops them
    /// and keeps the weights as the monotone lower envelope
    /// `β'_k = max(β_k, (w_k/α)²·β_pos)` — free, since `w` is already in
    /// hand from the ratio test, and accurate enough to steer the leaving
    /// choice (the exact `β'_pos` is kept). The framework resets to unit
    /// weights when a weight blows past [`DSE_WEIGHT_CAP`] or the
    /// factorisation is rebuilt after a refused (unstable)
    /// Forrest–Tomlin update.
    fn dse_update_weights(&mut self, pos: usize, w: &[f64]) {
        let alpha = w[pos];
        let beta_r = self.dse_weights[pos];
        let mut max_seen = 0.0f64;
        for (k, &wk) in w.iter().enumerate() {
            if k == pos || wk == 0.0 {
                continue;
            }
            let ratio = wk / alpha;
            let candidate = ratio * ratio * beta_r;
            if candidate > self.dse_weights[k] {
                self.dse_weights[k] = candidate;
                max_seen = max_seen.max(candidate);
            }
        }
        let new_r = (beta_r / (alpha * alpha)).max(DSE_MIN_WEIGHT);
        self.dse_weights[pos] = new_r;
        if !new_r.is_finite() || max_seen > DSE_WEIGHT_CAP || new_r > DSE_WEIGHT_CAP {
            self.dse_reset_weights();
        }
    }

    /// Resets the dual steepest-edge framework to unit weights (cold
    /// reference framework).
    fn dse_reset_weights(&mut self) {
        self.dse_weights.clear();
        self.dse_weights.resize(self.m, 1.0);
    }

    /// Primal ratio test for entering variable `q` moving in direction
    /// `sigma` with FTRAN'd column `w`. Returns `(step, blocker)`; no
    /// blocker means the direction is unbounded.
    ///
    /// The smallest ratio wins; 1e-12 near-ties break on the larger pivot
    /// or, in Bland fallback mode, on the smallest basic variable index
    /// (which together with smallest-index entering provably breaks
    /// cycles). The layout flow's trajectory is chaotic in exactly these
    /// tie decisions, so they are part of the pivot sequence's contract.
    fn ratio_test(
        &self,
        q: usize,
        sigma: f64,
        w: &[f64],
        use_bland: bool,
    ) -> (f64, Option<Blocker>) {
        // Breakpoint of one basic row: (ratio, to_upper).
        let breakpoint = |k: usize, wk: f64| -> Option<(f64, bool)> {
            let g = -sigma * wk;
            let j = self.basic[k];
            let x = self.x_basic[k];
            let (l, u) = (self.lower[j], self.upper[j]);
            // Each basic row yields at most one breakpoint: feasible basics
            // stop at the bound they move towards; infeasible basics stop
            // at the (violated) bound they re-enter through.
            if x < l - Self::feas_tol(l) {
                (g > 0.0).then(|| ((l - x) / g, false))
            } else if x > u + Self::feas_tol(u) {
                (g < 0.0).then(|| ((u - x) / g, true))
            } else if g > 0.0 && u.is_finite() {
                Some(((u - x) / g, true))
            } else if g < 0.0 && l.is_finite() {
                Some(((x - l) / -g, false))
            } else {
                None
            }
        };

        let mut t_best = f64::INFINITY;
        let mut best_pivot = 0.0f64;
        let mut best_leaving = usize::MAX;
        let mut blocker: Option<Blocker> = None;
        if self.lower[q].is_finite() && self.upper[q].is_finite() {
            t_best = self.upper[q] - self.lower[q];
            best_pivot = 1.0;
            blocker = Some(Blocker::Flip);
        }
        for (k, &wk) in w.iter().enumerate() {
            if wk.abs() <= RATIO_PIVOT_TOL {
                continue;
            }
            if let Some((ratio, to_upper)) = breakpoint(k, wk) {
                let ratio = ratio.max(0.0);
                let j = self.basic[k];
                let tie_break = if use_bland {
                    j < best_leaving
                } else {
                    wk.abs() > best_pivot.abs()
                };
                if ratio < t_best - 1e-12 || (ratio < t_best + 1e-12 && tie_break) {
                    t_best = ratio;
                    best_pivot = wk;
                    best_leaving = j;
                    blocker = Some(Blocker::Basic { pos: k, to_upper });
                }
            }
        }
        (t_best, blocker)
    }

    /// Long-step (piecewise-linear) phase-1 ratio test.
    ///
    /// The composite phase-1 objective `f = Σ violations` is piecewise
    /// linear along the entering direction: every basic variable crossing
    /// a bound changes the slope by `|w_k|` — an infeasible basic
    /// re-entering through its violated bound stops contributing, a
    /// feasible one crossing a bound starts to, an infeasible one sailing
    /// past the *opposite* bound contributes again. Instead of stopping at
    /// the first breakpoint (which lets a pivot trade a counted violation
    /// for an uncounted near-tolerance one and a later pivot trade it
    /// straight back — a non-degenerate cycle), the test sweeps the
    /// breakpoints in ratio order, accumulating slope, and stops at the
    /// one where the slope turns non-negative. Each pivot then decreases
    /// the total violation monotonically, takes the longest profitable
    /// step through degenerate breakpoint clusters, and the entering
    /// column's own bound span stays a hard stop (bound flip).
    ///
    /// `d_q` is the composite reduced cost of the entering variable
    /// (`sigma·d_q < 0` by eligibility — the initial slope).
    fn ratio_test_phase1(
        &self,
        q: usize,
        sigma: f64,
        w: &[f64],
        d_q: f64,
    ) -> (f64, Option<Blocker>) {
        // (ratio, |w_k|, position, to_upper)
        let mut breaks: Vec<(f64, f64, usize, bool)> = Vec::new();
        for (k, &wk) in w.iter().enumerate() {
            if wk.abs() <= RATIO_PIVOT_TOL {
                continue;
            }
            let g = -sigma * wk;
            let j = self.basic[k];
            let x = self.x_basic[k];
            let (l, u) = (self.lower[j], self.upper[j]);
            if x < l - Self::feas_tol(l) {
                if g > 0.0 {
                    breaks.push((((l - x) / g).max(0.0), wk.abs(), k, false));
                    if u.is_finite() {
                        // Sailing past the opposite bound re-accrues cost.
                        breaks.push((((u - x) / g).max(0.0), wk.abs(), k, true));
                    }
                }
            } else if x > u + Self::feas_tol(u) {
                if g < 0.0 {
                    breaks.push((((u - x) / g).max(0.0), wk.abs(), k, true));
                    if l.is_finite() {
                        breaks.push((((x - l) / -g).max(0.0), wk.abs(), k, false));
                    }
                }
            } else if g > 0.0 && u.is_finite() {
                breaks.push((((u - x) / g).max(0.0), wk.abs(), k, true));
            } else if g < 0.0 && l.is_finite() {
                breaks.push((((x - l) / -g).max(0.0), wk.abs(), k, false));
            }
        }
        let flip_span = (self.lower[q].is_finite() && self.upper[q].is_finite())
            .then(|| self.upper[q] - self.lower[q]);
        if breaks.is_empty() {
            return match flip_span {
                Some(span) => (span, Some(Blocker::Flip)),
                None => (f64::INFINITY, None),
            };
        }
        // Ratio order; among equal ratios take large pivots first, so the
        // breakpoint where the slope flips carries a stable pivot.
        breaks.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut slope = sigma * d_q; // negative by eligibility
        let mut chosen: Option<(f64, usize, bool)> = None;
        for &(t, amag, k, to_upper) in &breaks {
            if let Some(span) = flip_span {
                if span < t {
                    // The entering variable's own bound blocks first.
                    return (span, Some(Blocker::Flip));
                }
            }
            slope += amag;
            if slope >= -DUAL_TOL {
                chosen = Some((t, k, to_upper));
                break;
            }
        }
        match chosen {
            Some((t, k, to_upper)) => (t, Some(Blocker::Basic { pos: k, to_upper })),
            None => {
                // Slope never turned non-negative: every violation this
                // direction can fix is fixed at the last breakpoint; any
                // remaining decrease is unbounded only through the flip.
                match flip_span {
                    Some(span) => (span, Some(Blocker::Flip)),
                    None => {
                        let &(t, _, k, to_upper) = breaks.last().expect("nonempty");
                        (t, Some(Blocker::Basic { pos: k, to_upper }))
                    }
                }
            }
        }
    }

    /// One primal simplex run with the composite phase-1/phase-2 objective.
    /// Terminates at optimality, or with `Infeasible` / `Unbounded` /
    /// `IterationLimit`.
    ///
    /// Both phases scan all columns against fresh duals (composite costs
    /// in phase 1, the true costs in phase 2). Basic values are maintained
    /// incrementally (`x_B ← x_B − σ·t·w` per pivot) and refreshed from
    /// scratch at every refactorisation.
    fn primal(&mut self) -> Result<(), LpError> {
        self.ensure_x_basic();
        // Once phase 1 stalls at a numerically tiny residual, those
        // violations are written off (up to ACCEPT_INFEAS) so the loop
        // proceeds to optimise the true objective instead of returning a
        // never-optimised point.
        let mut accept = 0.0f64;
        // Phase-flap guard. On the big-M layout models the FTRAN residual
        // can reach ~1e-6 in absolute terms (coefficients of 1e3–1e6 at
        // relative accuracy ~1e-12), so the true-cost optimum occasionally
        // sits a hair outside a bound tolerance: phase 2 pivots to it,
        // phase 1 pivots away, phase 2 pivots straight back — a
        // non-degenerate 2-cycle that no stall counter catches (each pivot
        // takes a real step). Repeated phase-2 → phase-1 re-entries at a
        // numerically tiny violation therefore write the residual off
        // (bounded by [`ACCEPT_FLAP_CAP`]), exactly like the existing
        // stalled-phase-1 accept ratchet. The written-off slack never
        // reaches callers as an out-of-bounds *value* — `extract` clamps
        // every variable into its bounds, so branch-and-bound cannot see a
        // branching bound violated by it (only a ≤1e-4 residual on some
        // constraint row, the same class of slack `ACCEPT_INFEAS` already
        // admits).
        let mut was_phase1 = true;
        let mut phase_flaps = 0usize;
        loop {
            self.check_limits()?;
            if self.factor.needs_refactorization() {
                self.refactorize_or_reset()?;
                self.compute_x_basic();
            }
            let (mut infeasible, mut violation) = self.infeasible_positions(accept);
            let mut phase1 = !infeasible.is_empty();
            if phase1 && !was_phase1 {
                phase_flaps += 1;
                if phase_flaps > MAX_PHASE_FLAPS && violation <= ACCEPT_FLAP_CAP {
                    accept = accept.max((violation * 2.0).min(ACCEPT_FLAP_CAP));
                    let relaxed = self.infeasible_positions(accept);
                    phase1 = !relaxed.0.is_empty();
                    violation = relaxed.1;
                    infeasible = relaxed.0;
                }
            }
            was_phase1 = phase1;
            let use_bland = self.stall > self.m.max(50);
            // Full-scan pricing against fresh duals: composite costs in
            // phase 1, Dantzig (most negative) or Bland (smallest index)
            // selection.
            let cost_owned;
            let cost: &[f64] = if phase1 {
                // `infeasible` is the set just computed above (post
                // flap-guard relaxation) — no second O(m) scan.
                let mut c = vec![0.0; self.n + self.m];
                for &k in &infeasible {
                    let j = self.basic[k];
                    c[j] = if self.x_basic[k] < self.lower[j] {
                        -1.0
                    } else {
                        1.0
                    };
                }
                cost_owned = c;
                &cost_owned
            } else {
                &self.cost
            };
            let y = Self::duals_vec(&mut self.factor, &self.basic, self.m, cost);
            let mut chosen: Option<(usize, f64, f64)> = None; // (var, dir, d)
            for (j, &cj) in cost.iter().enumerate() {
                if self.statuses[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                    continue;
                }
                let d = cj - self.column_dot(j, &y);
                if let Some(dir) = self.entering_direction(j, d) {
                    if use_bland {
                        chosen = Some((j, dir, d));
                        break;
                    }
                    if chosen
                        .map(|(_, _, best)| d.abs() > best.abs())
                        .unwrap_or(true)
                    {
                        chosen = Some((j, dir, d));
                    }
                }
            }

            let Some((q, sigma, d_q)) = chosen else {
                if phase1 {
                    if violation <= ACCEPT_INFEAS && accept < ACCEPT_INFEAS {
                        // Numerically feasible: absorb the residual and
                        // continue with the true costs (phase 2).
                        accept = ACCEPT_INFEAS;
                        continue;
                    }
                    return Err(LpError::Infeasible);
                }
                return Ok(()); // optimal
            };

            // Direction through the basis.
            let mut w = vec![0.0; self.m];
            for (r, a) in self.column(q) {
                w[r] = a;
            }
            self.factor.ftran(&mut w);

            // Phase 1 sweeps the piecewise-linear composite objective for
            // the longest profitable step; phase 2 (and the Bland
            // fallback, whose anti-cycling argument needs the plain
            // smallest-ratio rule) uses the bound-blocking test.
            let (t_best, blocker) = if phase1 && !use_bland {
                self.ratio_test_phase1(q, sigma, &w, d_q)
            } else {
                self.ratio_test(q, sigma, &w, use_bland)
            };
            let Some(block) = blocker else {
                return if phase1 {
                    // Cannot happen for a correctly signed direction; treat
                    // conservatively as infeasible.
                    Err(LpError::Infeasible)
                } else {
                    Err(LpError::Unbounded)
                };
            };

            self.stall = if t_best <= DEGENERATE_STEP {
                self.stall + 1
            } else {
                0
            };
            self.iterations += 1;
            self.x_staleness = self.x_staleness.saturating_add(1);
            // Incremental basic-value update: x_B ← x_B − σ·t·w.
            let step = sigma * t_best;
            if step != 0.0 {
                for (k, &wk) in w.iter().enumerate() {
                    self.x_basic[k] -= step * wk;
                }
            }
            match block {
                Blocker::Flip => {
                    self.statuses[q] = match self.statuses[q] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        other => other,
                    };
                }
                Blocker::Basic { pos, to_upper } => {
                    if self.track_dse {
                        // The weights describe the basis, not the engine:
                        // primal pivots after the dual hand-off must keep
                        // them current or the snapshot would poison the
                        // next warm start.
                        self.dse_update_weights(pos, &w);
                    }
                    let entering_value = self.nonbasic_value(q) + step;
                    let leaving = self.basic[pos];
                    self.statuses[leaving] = if to_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.statuses[q] = VarStatus::Basic;
                    self.basic[pos] = q;
                    self.x_basic[pos] = entering_value;
                    if !self.factor.update(pos, &w) {
                        // Stability-triggered rebuild: the incremental DSE
                        // framework rode on the same drifting factors.
                        if self.track_dse {
                            self.dse_reset_weights();
                        }
                        self.refactorize_or_reset()?;
                        self.compute_x_basic();
                    }
                }
            }
        }
    }

    /// Dual simplex from a dual-feasible basis; bails out (for the primal
    /// engine) when dual feasibility is lost, progress stalls or a dual ray
    /// cannot be certified, and returns [`LpError::Infeasible`] on a
    /// certified one.
    ///
    /// Reduced costs are computed once on entry and then maintained
    /// incrementally across pivots from the tableau row the ratio test
    /// already computes — the old per-pivot BTRAN-plus-full-rescan is gone.
    fn dual(&mut self) -> Result<DualOutcome, LpError> {
        // Entry check: reduced costs must be dual feasible for the current
        // statuses (loose tolerance — minor violations are left to the
        // finishing primal run). The same pass seeds the maintained
        // reduced-cost vector.
        let y = Self::duals_vec(&mut self.factor, &self.basic, self.m, &self.cost);
        let mut d = vec![0.0; self.n + self.m];
        for (j, slot) in d.iter_mut().enumerate() {
            if self.statuses[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let dj = self.cost[j] - self.column_dot(j, &y);
            *slot = dj;
            if !self.dual_feasible(j, dj) {
                return Ok(DualOutcome::Abandoned);
            }
        }

        // The dual pays off only when the warm basis is a few pivots from
        // primal feasibility; past this budget the composite primal takes
        // over. This also bounds the warm-start overhead on bases that turn
        // out to be far from the new optimum.
        let budget = 2 * self.m + 200;
        let use_dse = self.track_dse;
        let mut dual_pivots = 0usize;
        let mut dual_stall = 0usize;
        // Bound-flipping ratio test scratch (DSE only): breakpoint list and
        // the variables flipped bound-to-bound by the current pivot.
        let mut bfrt_breaks: Vec<(usize, f64, f64)> = Vec::new();
        let mut flips: Vec<usize> = Vec::new();
        // Sparse pivot row α = ρᵀ[A | I], accumulated row-wise over the
        // non-zeros of ρ only (the CSR mirror): on the layout models ρ has
        // a handful of entries, so this replaces an every-column dot
        // product with work proportional to the touched rows.
        let mut alpha = ScatterVec::new(self.n + self.m);
        let mut touched_sorted: Vec<usize> = Vec::new();
        // Per-pivot dense buffers: the leaving row's `ρ = B⁻ᵀe_r` (fully
        // overwritten by each BTRAN) and the entering column.
        let mut rho = vec![0.0; self.m];
        let mut w = vec![0.0; self.m];
        self.ensure_x_basic();
        loop {
            self.check_limits()?;
            if dual_stall > self.m.max(50) || dual_pivots > budget {
                return Ok(DualOutcome::Abandoned);
            }
            if self.factor.needs_refactorization() {
                self.refactorize_or_reset()?;
                self.compute_x_basic();
                self.recompute_dual_reduced(&mut d);
            }
            if self.objective >= self.cutoff && self.confirm_cutoff(&d) {
                return Ok(DualOutcome::Cutoff);
            }

            // Leaving row: the most violated basic (the pinned pre-DSE
            // rule) — or, under dual steepest-edge pricing, the best
            // `δ²/β` score: the dual objective improves at rate δ per unit
            // step, a step of steepest-edge length `√β`, so `δ²/β` ranks
            // rows by improvement per unit of *actual* dual movement
            // instead of by raw violation (which over-prices rows whose
            // inverse row is long).
            let mut leaving: Option<(usize, f64, bool, f64)> = None; // (pos, violation, below, score)
            for (k, &j) in self.basic.iter().enumerate() {
                let x = self.x_basic[k];
                let (l, u) = (self.lower[j], self.upper[j]);
                let (v, is_below) = if x < l - Self::feas_tol(l) {
                    (l - x, true)
                } else if x > u + Self::feas_tol(u) {
                    (x - u, false)
                } else {
                    continue;
                };
                let score = if use_dse {
                    v * v / self.dse_weights[k]
                } else {
                    v
                };
                if leaving.map(|(_, _, _, best)| score > best).unwrap_or(true) {
                    leaving = Some((k, v, is_below, score));
                }
            }
            let Some((r, violation, below)) = leaving.map(|(k, v, b, _)| (k, v, b)) else {
                return Ok(DualOutcome::Feasible);
            };

            // Row r of B⁻¹A: alpha_j = (eᵣᵀ B⁻¹) a_j, needed for the ratio
            // test anyway — and sufficient to update every reduced cost
            // after the pivot.
            self.factor.btran_unit(r, &mut rho);

            alpha.clear();
            for (i, &ri) in rho.iter().enumerate() {
                if ri.abs() > 1e-13 {
                    alpha.add(self.n + i, ri); // logical column of row i
                    let (cols, vals) = self.cache.rows.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        alpha.add(c, ri * v);
                    }
                }
            }

            // Dual ratio test. The touched set is scanned in ascending
            // column order, so near-tie outcomes (which steer the chaotic
            // layout flow) stay pinned for the Dantzig rule.
            touched_sorted.clear();
            touched_sorted.extend_from_slice(alpha.touched());
            touched_sorted.sort_unstable();
            let mut entering: Option<(usize, f64, f64)> = None; // (var, ratio, alpha)
            flips.clear();
            if use_dse {
                // Bound-flipping (long-step) ratio test. The dual
                // objective is piecewise linear in the dual step θ with
                // initial slope equal to the violation δ of row r; at the
                // breakpoint θ_j = |d_j/α_j| the reduced cost of
                // candidate j crosses zero, and if j is *boxed* the sweep
                // may pass the breakpoint by flipping j to its opposite
                // bound — which moves x_r towards its violated bound by
                // |α_j|·span_j, i.e. lowers the slope by that amount.
                // Sweeping breakpoints in ratio order while the slope
                // stays positive takes the longest dual step that still
                // improves, flipping every passed candidate in one
                // batch — the classic multiplier on boxed degenerate
                // models (the one-hot direction groups of the layout
                // ILP), where the textbook test grinds through the same
                // breakpoints one degenerate pivot at a time.
                bfrt_breaks.clear();
                for &j in &touched_sorted {
                    if self.statuses[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                        continue;
                    }
                    let a = alpha.get(j);
                    if a.abs() <= RATIO_PIVOT_TOL
                        || !Self::moves_row_toward(self.statuses[j], a, below)
                    {
                        continue;
                    }
                    bfrt_breaks.push((j, (d[j] / a).abs(), a));
                }
                bfrt_breaks.sort_by(|x, y| {
                    x.1.partial_cmp(&y.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(
                            y.2.abs()
                                .partial_cmp(&x.2.abs())
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                });
                let mut slope = violation;
                for (idx, &(j, ratio, a)) in bfrt_breaks.iter().enumerate() {
                    let span = self.upper[j] - self.lower[j];
                    let boxed = span.is_finite()
                        && matches!(self.statuses[j], VarStatus::AtLower | VarStatus::AtUpper);
                    let remaining = slope - a.abs() * span;
                    // Never flip the last breakpoint: a pivot needs an
                    // entering column, and a positive final slope with no
                    // column left would otherwise only prove dual
                    // unboundedness the loose entry check cannot certify.
                    if boxed && remaining > BFRT_SLOPE_TOL && idx + 1 < bfrt_breaks.len() {
                        flips.push(j);
                        slope = remaining;
                    } else {
                        entering = Some((j, ratio, a));
                        break;
                    }
                }
            } else {
                // Pinned test: smallest |d_j / α_j| over the eligible
                // entering candidates (ties: largest pivot).
                for &j in &touched_sorted {
                    if self.statuses[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                        continue;
                    }
                    let a = alpha.get(j);
                    if a.abs() <= RATIO_PIVOT_TOL
                        || !Self::moves_row_toward(self.statuses[j], a, below)
                    {
                        continue;
                    }
                    let ratio = (d[j] / a).abs();
                    let better = match entering {
                        None => true,
                        Some((_, best, best_alpha)) => {
                            ratio < best - 1e-12
                                || (ratio < best + 1e-12 && a.abs() > best_alpha.abs())
                        }
                    };
                    if better {
                        entering = Some((j, ratio, a));
                    }
                }
            }
            let Some((q, ratio, alpha_rq)) = entering else {
                // Dual ray found. Tiny-pivot columns were excluded from the
                // ratio test, so certify it on the row itself before
                // asserting infeasibility; an uncertified ray goes to the
                // composite primal for the proof.
                if self.ray_certifies_infeasibility(r, &alpha) {
                    return Err(LpError::Infeasible);
                }
                return Ok(DualOutcome::Abandoned);
            };

            dual_stall = if ratio <= DEGENERATE_STEP {
                dual_stall + 1
            } else {
                0
            };

            w.fill(0.0);
            for (row, a) in self.column(q) {
                w[row] = a;
            }
            self.factor.ftran(&mut w);
            if w[r].abs() <= RATIO_PIVOT_TOL {
                // Numerical disagreement between rho-row and ftran column;
                // refactorise and retry (or give up to the primal).
                self.refactorize_or_reset()?;
                self.compute_x_basic();
                self.recompute_dual_reduced(&mut d);
                dual_stall += 1;
                dual_pivots += 1;
                continue;
            }

            // Apply the batched bound flips of the long-step ratio test:
            // one auxiliary FTRAN of the accumulated flip column `Σ a_j·Δx_j`
            // updates every basic value at once (`x_B ← x_B − B⁻¹Σa_j·Δx_j`).
            // By construction of the sweep, row r stays infeasible in the
            // same direction afterwards (the slope — its remaining
            // violation — was still positive), so the pivot below proceeds
            // exactly as in the single-breakpoint test. The statuses only
            // toggle here, after the pivot column survived its numerical
            // check: committing flips and then abandoning the pivot would
            // leave reduced costs dual-infeasible for the new bounds.
            if !flips.is_empty() {
                let mut flip_col = vec![0.0; self.m];
                for &j in &flips {
                    let dx = match self.statuses[j] {
                        VarStatus::AtLower => self.upper[j] - self.lower[j],
                        VarStatus::AtUpper => self.lower[j] - self.upper[j],
                        _ => 0.0,
                    };
                    self.objective += d[j] * dx;
                    for (row, a) in self.column(j) {
                        flip_col[row] += a * dx;
                    }
                }
                self.factor.ftran_aux(&mut flip_col);
                for (k, &dk) in flip_col.iter().enumerate() {
                    self.x_basic[k] -= dk;
                }
                for &j in &flips {
                    self.statuses[j] = match self.statuses[j] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        other => other,
                    };
                }
                self.bound_flips += flips.len();
                self.x_staleness = self.x_staleness.saturating_add(1);
            }

            // Incremental primal update along w: drive x_r exactly to the
            // bound it leaves at.
            let target = if below {
                self.lower[self.basic[r]]
            } else {
                self.upper[self.basic[r]]
            };
            let delta = (self.x_basic[r] - target) / w[r];
            let entering_value = self.nonbasic_value(q) + delta;
            for (k, &wk) in w.iter().enumerate() {
                self.x_basic[k] -= delta * wk;
            }
            self.objective += delta * d[q];

            if use_dse {
                self.dse_update_weights(r, &w);
            }
            let leaving_var = self.basic[r];
            self.statuses[leaving_var] = if below {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.statuses[q] = VarStatus::Basic;
            self.basic[r] = q;
            self.x_basic[r] = entering_value;
            self.iterations += 1;
            self.dual_iterations += 1;
            self.x_staleness = self.x_staleness.saturating_add(1);
            dual_pivots += 1;
            // Incremental dual update: d_j ← d_j − θ_d·α_rj with
            // θ_d = d_q/α_rq; the leaving variable ends at exactly −θ_d
            // (its own tableau coefficient is 1), the entering one at 0.
            let theta_d = d[q] / alpha_rq;
            if theta_d != 0.0 {
                for &j in alpha.touched() {
                    d[j] -= theta_d * alpha.get(j);
                }
            }
            d[leaving_var] = -theta_d;
            d[q] = 0.0;
            if !self.factor.update(r, &w) {
                // Stability-triggered rebuild resets the DSE framework
                // along with the factors.
                if use_dse {
                    self.dse_reset_weights();
                }
                self.refactorize_or_reset()?;
                self.compute_x_basic();
                self.recompute_dual_reduced(&mut d);
            }
        }
    }

    /// `true` when reduced cost `dj` of variable `j` is dual feasible within
    /// [`DUAL_ENTRY_TOL`] (basic and fixed variables always are).
    fn dual_feasible(&self, j: usize, dj: f64) -> bool {
        if self.lower[j] == self.upper[j] {
            return true;
        }
        match self.statuses[j] {
            VarStatus::AtLower => dj >= -DUAL_ENTRY_TOL,
            VarStatus::AtUpper => dj <= DUAL_ENTRY_TOL,
            VarStatus::Free => dj.abs() <= DUAL_ENTRY_TOL,
            VarStatus::Basic => true,
        }
    }

    /// Confirms that the tracked objective has reached the cutoff: `cᵀx`
    /// recomputed from scratch must still reach it, and the maintained
    /// reduced costs `d` must still be dual feasible (a basis reset to the
    /// logical one inside the dual is not), or the objective bounds
    /// nothing. A failed confirmation only replaces the tracked objective
    /// with the from-scratch one; `x_basic` stays as it was, so the pivots
    /// that follow are exactly those of a solve without a cutoff.
    fn confirm_cutoff(&mut self, d: &[f64]) -> bool {
        let x_basic = self.basic_values();
        self.objective = self.basic_objective(&x_basic);
        let reached = self.objective >= self.cutoff
            && d.iter()
                .enumerate()
                .all(|(j, &dj)| self.dual_feasible(j, dj));
        if reached {
            // The point the cutoff outcome reports.
            self.x_basic = x_basic;
            self.x_staleness = 0;
        }
        reached
    }

    /// `true` when a nonbasic variable with status `status` and pivot-row
    /// entry `a` moves basic row `r` towards its violated bound (the lower
    /// one when `below`) as it leaves its own bound: `dx_r = −a·dx_j`.
    fn moves_row_toward(status: VarStatus, a: f64, below: bool) -> bool {
        match status {
            VarStatus::AtLower => {
                if below {
                    a < 0.0
                } else {
                    a > 0.0
                }
            }
            VarStatus::AtUpper => {
                if below {
                    a > 0.0
                } else {
                    a < 0.0
                }
            }
            VarStatus::Free => true,
            VarStatus::Basic => false,
        }
    }

    /// Certifies the dual ray of basic row `r`, whose pivot row `alpha` the
    /// ratio test found without an entering column, as a proof of primal
    /// infeasibility.
    ///
    /// Row `r` reads `x_r = x̄_r − Σ_j α_rj·(x_j − x̄_j)` over the nonbasic
    /// variables, so within their bounds `x_r` can move towards its
    /// violated bound by at most the *reach* `Σ |α_rj|·span_j` over the
    /// columns that push it that way. When the violation, recomputed from
    /// scratch, exceeds that reach by at least `ACCEPT_FLAP_CAP·(1+|bound|)`
    /// — the most the primal's write-off ratchets could ever absorb — no
    /// point satisfies the bounds and the primal could only prove the
    /// same. Any helpful column without a finite span (free, or one-sided)
    /// makes the reach unbounded, however tiny its `|α_rj|`; the
    /// certificate then fails and the primal decides. `alpha` is built
    /// from the entries of `B⁻ᵀe_r` above `1e-13` only: the full dot
    /// products pick up rounding noise of ~1e-17 on unbounded slack
    /// columns, which would veto almost every certificate on the layout
    /// models.
    fn ray_certifies_infeasibility(&mut self, r: usize, alpha: &ScatterVec) -> bool {
        self.ensure_x_basic();
        let x = self.x_basic[r];
        let (l, u) = (self.lower[self.basic[r]], self.upper[self.basic[r]]);
        let (violation, bound, below) = if x < l {
            (l - x, l, true)
        } else if x > u {
            (x - u, u, false)
        } else {
            return false;
        };
        let mut reach = 0.0;
        for &j in alpha.touched() {
            if self.statuses[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let a = alpha.get(j);
            if a == 0.0 || !Self::moves_row_toward(self.statuses[j], a, below) {
                continue;
            }
            let span = self.upper[j] - self.lower[j];
            if !span.is_finite() {
                return false;
            }
            reach += a.abs() * span;
        }
        violation - reach >= ACCEPT_FLAP_CAP * (1.0 + bound.abs())
    }

    /// Recomputes the dual engine's maintained reduced costs from fresh
    /// duals (after a refactorisation invalidated the incremental state).
    fn recompute_dual_reduced(&mut self, d: &mut [f64]) {
        let y = Self::duals_vec(&mut self.factor, &self.basic, self.m, &self.cost);
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = if self.statuses[j] == VarStatus::Basic || self.lower[j] == self.upper[j] {
                0.0
            } else {
                self.cost[j] - self.column_dot(j, &y)
            };
        }
    }

    /// Refactorises the current basis; on singularity falls back to the
    /// all-logical basis (which is always factorisable).
    fn refactorize_or_reset(&mut self) -> Result<(), LpError> {
        if self.refactorize().is_ok() {
            return Ok(());
        }
        self.cold_basis();
        if self.track_dse {
            // The basis itself changed wholesale; the weights describe the
            // old one.
            self.dse_reset_weights();
        }
        self.refactorize()
            .map_err(|_| LpError::InvalidModel("logical basis is singular".into()))
    }

    /// Extracts the solution in the model's original sense, consuming the
    /// solver (the factorisation moves into the returned [`Basis`]).
    fn extract(mut self) -> (LpSolution, Basis) {
        self.ensure_x_basic();
        let mut values = self.point();
        // Clamp round-off outside the bounds.
        for (j, v) in values.iter_mut().enumerate() {
            let (l, u) = (self.lp.lower_bounds()[j], self.lp.upper_bounds()[j]);
            *v = v.clamp(l.min(u), u.max(l));
        }
        let objective: f64 = self
            .lp
            .objective()
            .iter()
            .zip(&values)
            .map(|(c, x)| c * x)
            .sum();
        let solution = self.solution(values, objective);
        (solution, self.into_snapshot())
    }

    /// The outcome of a dual stopped at the cutoff: the confirmed basic
    /// point (not primal feasible) with its from-scratch objective in the
    /// model's own sense, and the work spent.
    fn cutoff_solution(&self) -> LpSolution {
        let sign = match self.lp.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.solution(self.point(), sign * self.objective)
    }

    fn solution(&self, values: Vec<f64>, objective: f64) -> LpSolution {
        LpSolution {
            values,
            objective,
            iterations: self.iterations,
            refactorizations: self.refactorizations,
            dual_iterations: self.dual_iterations,
            bound_flips: self.bound_flips,
        }
    }
}

/// Solves `lp`, optionally warm-starting from `warm` (see [`Basis`]).
pub(crate) fn solve(
    lp: &LinearProgram,
    warm: Option<&Basis>,
) -> Result<(LpSolution, Basis), LpError> {
    if crate::fault::fire("lp.revised.solve") {
        return Err(LpError::InvalidModel(
            "forced singular basis (failpoint)".into(),
        ));
    }
    static DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let debug = *DEBUG.get_or_init(|| std::env::var_os("RFIC_LP_DEBUG").is_some());
    let t0 = std::time::Instant::now();
    let mut solver = Solver::new(lp, warm)?;
    let mut dual_iters = 0;
    if warm.is_some() {
        let r = solver.dual();
        dual_iters = solver.iterations;
        if let DualOutcome::Cutoff = r? {
            return Err(LpError::Cutoff(solver.cutoff_solution()));
        }
        // Finish (or recover) with the primal: a no-op when the dual run
        // already reached the optimum.
    }
    let result = solver.primal();
    if debug && t0.elapsed() > std::time::Duration::from_millis(500) {
        eprintln!(
            "[lp] n={} m={} warm={} dual_iters={dual_iters} total_iters={} refactors={} stall={} elapsed={:?} result={result:?}",
            solver.n,
            solver.m,
            warm.is_some(),
            solver.iterations,
            solver.refactorizations,
            solver.stall,
            t0.elapsed()
        );
    }
    result?;
    Ok(solver.extract())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `coeff·v ≥ 5` over one variable `v` with bounds `[lower, upper]`,
    /// zero costs (so every basis is dual feasible) and the logical basis:
    /// the row's slack is basic and violated by 5, and `v` is its only
    /// column. Returns what the dual engine makes of it.
    fn dual_on_single_row(coeff: f64, lower: f64, upper: f64) -> Result<DualOutcome, LpError> {
        let mut lp = LinearProgram::new(1, Sense::Minimize);
        lp.set_bounds(0, lower, upper);
        lp.add_constraint(vec![(0, coeff)], ConstraintOp::Ge, 5.0);
        let mut solver = Solver::new(&lp, None).expect("logical basis");
        solver.dual()
    }

    /// A solve's stored basis and a refreshed basis keep their factors
    /// without scratch buffers.
    #[test]
    fn stored_basis_factor_holds_no_scratch() {
        let mut lp = LinearProgram::new(3, Sense::Maximize);
        for (j, c) in [3.0, 2.0, 4.0].into_iter().enumerate() {
            lp.set_objective_coeff(j, c);
            lp.set_bounds(j, 0.0, 10.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 2.0)], ConstraintOp::Le, 12.0);
        lp.add_constraint(vec![(0, 2.0), (1, -1.0), (2, 1.0)], ConstraintOp::Le, 8.0);
        let (_, mut basis) = lp.solve_warm(None).expect("optimal");
        let stored = |basis: &Basis| basis.factor.as_ref().expect("factor").scratch_is_empty();
        assert!(stored(&basis));
        // A warm start from the stored factor solves to the same optimum.
        let (cold, _) = lp.solve_warm(None).expect("optimal");
        let (warm, rewarm) = lp.solve_warm(Some(&basis)).expect("optimal");
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert!(stored(&rewarm));
        // Force the chain stale so `refresh_factor` refactorises.
        let mut stale = (**basis.factor.as_ref().unwrap()).clone();
        stale.make_stale();
        basis.factor = Some(std::sync::Arc::new(stale));
        assert!(refresh_factor(&lp, &mut basis));
        assert!(stored(&basis));
    }

    #[test]
    fn certified_ray_ends_the_dual_with_infeasible() {
        // No column helps at all, or only a boxed one whose reach (its
        // span times |α|) falls short of the violation by far more than
        // the margin: the ray is a proof.
        assert!(matches!(
            dual_on_single_row(-1.0, 0.0, 1.0),
            Err(LpError::Infeasible)
        ));
        assert!(matches!(
            dual_on_single_row(1e-10, 0.0, 1.0),
            Err(LpError::Infeasible)
        ));
        assert!(matches!(
            dual_on_single_row(1e-10, -3.0, 7.0),
            Err(LpError::Infeasible)
        ));
    }

    #[test]
    fn ray_with_a_free_or_one_sided_tiny_column_falls_through_to_the_primal() {
        // The ratio test skips |α| ≤ 1e-9, so these rows end in a ray, but
        // the skipped column could move the row without limit: no
        // certificate, the composite primal decides.
        for (lower, upper) in [
            (f64::NEG_INFINITY, f64::INFINITY),
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
        ] {
            let coeff = if upper > 0.0 { 1e-10 } else { -1e-10 };
            assert!(
                matches!(
                    dual_on_single_row(coeff, lower, upper),
                    Ok(DualOutcome::Abandoned)
                ),
                "bounds [{lower}, {upper}]"
            );
        }
    }

    #[test]
    fn ray_within_the_margin_falls_through_to_the_primal() {
        // Reach 4.99995 against violation 5: short by 5e-5, under the
        // margin of 1e-4·(1 + |0|), so no certificate.
        assert!(matches!(
            dual_on_single_row(1e-10, 0.0, 4.99995e10),
            Ok(DualOutcome::Abandoned)
        ));
        // Short by 1e-3: certified.
        assert!(matches!(
            dual_on_single_row(1e-10, 0.0, 4.999e10),
            Err(LpError::Infeasible)
        ));
    }
}
