//! Linear-program model types.

use std::fmt;

use crate::dense;
use crate::revised::{self, Basis};

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    /// Minimise the objective.
    #[default]
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Pricing rule of the simplex engines.
///
/// Both rules price the *primal* engine the same way: a full Dantzig
/// scan (every reduced cost recomputed each pivot, the most negative
/// enters) with an exact smallest-ratio test. They differ in the *dual*
/// engine, the warm branch-and-bound re-solve path. The default
/// [`PricingRule::DualSteepestEdge`] is what the layout flow runs;
/// [`PricingRule::Dantzig`] is the plain dual rule, kept as a rung of the
/// flow's numerical fallback ladder and as a cross-check for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Full Dantzig scan in the primal; the dual engine picks its leaving
    /// row by maximum bound violation with a single-breakpoint ratio
    /// test.
    Dantzig,
    /// Dual steepest-edge pricing with the bound-flipping (long-step)
    /// dual ratio test.
    ///
    /// The *dual* engine selects its leaving row by `δ²/β` (bound
    /// violation squared over a Forrest–Goldfarb reference weight
    /// approximating `‖B⁻ᵀeᵣ‖²`, maintained incrementally from the
    /// FTRAN'd entering column) instead of by maximum violation, and its
    /// ratio test sweeps multiple breakpoints of the piecewise-linear
    /// dual objective, flipping boxed nonbasic variables bound-to-bound
    /// in one batched step. The *primal* engine behaves exactly like
    /// [`PricingRule::Dantzig`].
    #[default]
    DualSteepestEdge,
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintOp::Le => f.write_str("<="),
            ConstraintOp::Ge => f.write_str(">="),
            ConstraintOp::Eq => f.write_str("=="),
        }
    }
}

/// A linear constraint `sum(coeff_i * x_i) op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficient list `(variable index, coefficient)`.
    pub coeffs: Vec<(usize, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// The solver-side view of the constraint matrix: CSC storage plus the
/// FNV-1a fingerprint of `(n, m, matrix)` that keys the warm-start
/// factorisation cache.
///
/// Building this costs one pass over every non-zero, which used to be paid
/// by *every* solve — including the thousands of warm branch-and-bound node
/// re-solves whose matrix never changes. It is therefore memoised on the
/// [`LinearProgram`] (shared behind an [`Arc`](std::sync::Arc), invalidated
/// by structural mutations; bound/objective/limit changes keep it).
#[derive(Debug)]
pub(crate) struct MatrixCache {
    /// Structural columns in compressed-sparse-column form.
    pub matrix: crate::sparse::CscMatrix,
    /// Row-major mirror of `matrix` for the dual simplex's sparse pivot-row
    /// pricing (see [`crate::sparse::CsrMatrix`]).
    pub rows: crate::sparse::CsrMatrix,
    /// FNV-1a fingerprint of `(num_vars, num_constraints, matrix)`.
    pub fingerprint: u64,
}

/// A shared cooperative cancellation flag, checked by the simplex pivot
/// loops at the same cadence as the [`LinearProgram::set_time_limit`]
/// deadline. Cloning shares the flag; once [`CancelToken::cancel`] is
/// called, every in-flight and future solve carrying the token aborts
/// with [`LpError::TimeLimit`] at its next limit check.
///
/// Equality is *identity* (two tokens compare equal when they share the
/// flag), so carrying a token does not break structural comparison of the
/// models holding it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation: every solve sharing this token stops at its
    /// next limit check. Irrevocable.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// A linear program over `num_vars` variables.
///
/// Variables default to bounds `[0, +inf)`; use
/// [`LinearProgram::set_bounds`] for other ranges (including free
/// variables via `f64::NEG_INFINITY` / `f64::INFINITY`).
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    sense: Sense,
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    constraints: Vec<Constraint>,
    iteration_limit: usize,
    time_limit: Option<std::time::Duration>,
    cancel: Option<CancelToken>,
    pricing: PricingRule,
    /// Memoised constraint-matrix view (see [`MatrixCache`]); cleared by
    /// [`LinearProgram::add_var`] and [`LinearProgram::add_constraint`].
    matrix_cache: std::sync::OnceLock<std::sync::Arc<MatrixCache>>,
    /// Set once the objective, constraint indices, coefficients and
    /// right-hand sides passed validation; cleared by every edit of them.
    /// Branch-and-bound node LPs are bound-mutated clones of one model, so
    /// only their bounds are re-checked per solve.
    structure_valid: std::sync::OnceLock<()>,
}

impl PartialEq for LinearProgram {
    fn eq(&self, other: &Self) -> bool {
        // The matrix cache is derived state, not model identity.
        self.num_vars == other.num_vars
            && self.sense == other.sense
            && self.objective == other.objective
            && self.lower == other.lower
            && self.upper == other.upper
            && self.constraints == other.constraints
            && self.iteration_limit == other.iteration_limit
            && self.time_limit == other.time_limit
            && self.cancel == other.cancel
            && self.pricing == other.pricing
    }
}

/// Result of a successful LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal value of every variable, indexed as in the model.
    pub values: Vec<f64>,
    /// Optimal objective value (in the model's own sense).
    pub objective: f64,
    /// Number of simplex pivots performed (both phases, primal and dual).
    pub iterations: usize,
    /// Number of from-scratch basis refactorisations performed (the other
    /// half of the solve cost next to the pivots; warm starts exist to
    /// drive this to zero).
    pub refactorizations: usize,
    /// Subset of `iterations` performed by the dual engine (the warm
    /// re-solve path dual steepest-edge pricing accelerates).
    pub dual_iterations: usize,
    /// Nonbasic bound flips applied by the long-step (bound-flipping)
    /// dual ratio test — each batch rides on one dual pivot, so a high
    /// flip-per-pivot ratio is the signature of the long-step test paying
    /// off on boxed degenerate models.
    pub bound_flips: usize,
}

/// Error returned by [`LinearProgram::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// The simplex iteration limit was exceeded (numerical cycling).
    IterationLimit,
    /// The wall-clock limit set via [`LinearProgram::set_time_limit`] was
    /// exceeded.
    TimeLimit,
    /// The model itself is malformed (bad index, NaN coefficient, crossed
    /// bounds, ...).
    InvalidModel(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => f.write_str("linear program is infeasible"),
            LpError::Unbounded => f.write_str("linear program is unbounded"),
            LpError::IterationLimit => f.write_str("simplex iteration limit exceeded"),
            LpError::TimeLimit => f.write_str("simplex wall-clock limit exceeded"),
            LpError::InvalidModel(msg) => write!(f, "invalid linear program: {msg}"),
        }
    }
}

impl std::error::Error for LpError {}

impl LinearProgram {
    /// Creates a linear program with `num_vars` variables, all with bounds
    /// `[0, +inf)` and objective coefficient `0`.
    pub fn new(num_vars: usize, sense: Sense) -> LinearProgram {
        LinearProgram {
            num_vars,
            sense,
            objective: vec![0.0; num_vars],
            lower: vec![0.0; num_vars],
            upper: vec![f64::INFINITY; num_vars],
            constraints: Vec::new(),
            iteration_limit: 50_000,
            time_limit: None,
            cancel: None,
            pricing: PricingRule::default(),
            matrix_cache: std::sync::OnceLock::new(),
            structure_valid: std::sync::OnceLock::new(),
        }
    }

    /// Adds a fresh variable with bounds `[0, +inf)` and returns its index.
    pub fn add_var(&mut self) -> usize {
        self.matrix_cache = std::sync::OnceLock::new();
        self.structure_valid = std::sync::OnceLock::new();
        self.objective.push(0.0);
        self.lower.push(0.0);
        self.upper.push(f64::INFINITY);
        self.num_vars += 1;
        self.num_vars - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Optimisation sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Variable bounds `(lower, upper)`.
    pub fn bounds(&self, var: usize) -> (f64, f64) {
        (self.lower[var], self.upper[var])
    }

    /// Constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sets the objective coefficient of one variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) {
        self.structure_valid = std::sync::OnceLock::new();
        self.objective[var] = coeff;
    }

    /// Sets the bounds of a variable. Use `f64::NEG_INFINITY` /
    /// `f64::INFINITY` for unbounded sides.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_bounds(&mut self, var: usize, lower: f64, upper: f64) {
        self.lower[var] = lower;
        self.upper[var] = upper;
    }

    /// Overrides the simplex iteration limit.
    pub fn set_iteration_limit(&mut self, limit: usize) {
        self.iteration_limit = limit;
    }

    /// Selects the pricing rule (default [`PricingRule::DualSteepestEdge`]).
    pub fn set_pricing(&mut self, pricing: PricingRule) {
        self.pricing = pricing;
    }

    /// The configured pricing rule.
    pub fn pricing(&self) -> PricingRule {
        self.pricing
    }

    /// Sets an optional wall-clock deadline for a solve; `None` (the
    /// default) means unlimited. Exceeding it returns
    /// [`LpError::TimeLimit`]. Callers running many solves under a global
    /// budget (branch and bound) use this to keep a single pathological LP
    /// from blowing the budget.
    pub fn set_time_limit(&mut self, limit: Option<std::time::Duration>) {
        self.time_limit = limit;
    }

    /// Attaches a cooperative [`CancelToken`], checked by the pivot loops
    /// at the same cadence as the wall-clock deadline; a cancelled solve
    /// returns [`LpError::TimeLimit`]. Clones of the program share the
    /// token, which is how branch-and-bound node LPs inherit a job-level
    /// cancellation.
    pub fn set_cancel_token(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Adds a constraint from a sparse coefficient list. Repeated indices
    /// are summed.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, op: ConstraintOp, rhs: f64) {
        self.matrix_cache = std::sync::OnceLock::new();
        self.structure_valid = std::sync::OnceLock::new();
        self.constraints.push(Constraint { coeffs, op, rhs });
    }

    /// The memoised CSC view of the constraint matrix with its fingerprint,
    /// built on first use and shared by every subsequent solve of this
    /// model (and its bound-mutated clones, which is what branch-and-bound
    /// node re-solves are).
    pub(crate) fn matrix_cache(&self) -> std::sync::Arc<MatrixCache> {
        self.matrix_cache
            .get_or_init(|| {
                let n = self.num_vars;
                let m = self.constraints.len();
                let columns: Vec<Vec<(usize, f64)>> = {
                    let mut cols = vec![Vec::new(); n];
                    for (r, con) in self.constraints.iter().enumerate() {
                        for &(v, c) in &con.coeffs {
                            cols[v].push((r, c));
                        }
                    }
                    cols
                };
                let matrix = crate::sparse::CscMatrix::from_columns(m, &columns);
                let rows = crate::sparse::CsrMatrix::from_rows(
                    n,
                    &self
                        .constraints
                        .iter()
                        .map(|con| con.coeffs.clone())
                        .collect::<Vec<_>>(),
                );
                let fingerprint = {
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    let mut mix = |x: u64| {
                        h ^= x;
                        h = h.wrapping_mul(0x100_0000_01b3);
                    };
                    mix(n as u64);
                    mix(m as u64);
                    for j in 0..n {
                        for (r, v) in matrix.col_iter(j) {
                            mix(r as u64);
                            mix(v.to_bits());
                        }
                    }
                    h
                };
                std::sync::Arc::new(MatrixCache {
                    matrix,
                    rows,
                    fingerprint,
                })
            })
            .clone()
    }

    /// Validates bounds on every call, and indices and coefficients once
    /// per unedited model (see `structure_valid`).
    fn validate(&self) -> Result<(), LpError> {
        for (i, (&l, &u)) in self.lower.iter().zip(&self.upper).enumerate() {
            if l.is_nan() || u.is_nan() {
                return Err(LpError::InvalidModel(format!("NaN bound on variable {i}")));
            }
            if l > u {
                return Err(LpError::InvalidModel(format!(
                    "variable {i} has crossed bounds [{l}, {u}]"
                )));
            }
        }
        if self.structure_valid.get().is_none() {
            self.validate_structure()?;
            let _ = self.structure_valid.set(());
        }
        Ok(())
    }

    /// Validates the objective and the constraint rows.
    fn validate_structure(&self) -> Result<(), LpError> {
        for (i, c) in self.objective.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "non-finite objective coefficient on variable {i}"
                )));
            }
        }
        for (ci, con) in self.constraints.iter().enumerate() {
            if !con.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "non-finite rhs in constraint {ci}"
                )));
            }
            for &(v, c) in &con.coeffs {
                if v >= self.num_vars {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {ci} references unknown variable {v}"
                    )));
                }
                if !c.is_finite() {
                    return Err(LpError::InvalidModel(format!(
                        "non-finite coefficient in constraint {ci}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Solves the linear program with the sparse bounded-variable revised
    /// simplex method (cold start).
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — no point satisfies all constraints/bounds.
    /// * [`LpError::Unbounded`] — the objective can be improved without limit.
    /// * [`LpError::IterationLimit`] — the pivot limit was exhausted.
    /// * [`LpError::InvalidModel`] — malformed input (NaN, bad index, ...).
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.validate()?;
        revised::solve(self, None).map(|(solution, _)| solution)
    }

    /// Presolves the model: removes fixed/empty columns and
    /// empty/singleton/redundant/forcing rows, tightens bounds from row
    /// activity, and equilibrates coefficients with power-of-two
    /// geometric-mean scaling.
    ///
    /// Returns the reduced problem together with a [`crate::Postsolve`]
    /// transform that restores full-space solutions and maps a [`Basis`]
    /// between the two spaces. `integer` optionally marks integer columns
    /// (same indexing as the variables): their bounds are rounded and
    /// they keep unit scale factors, so a MILP caller can branch in the
    /// reduced space.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — presolve proved the model infeasible.
    /// * [`LpError::Unbounded`] — an unconstrained column improves the
    ///   objective without limit.
    /// * [`LpError::InvalidModel`] — malformed input (NaN, bad index, ...).
    pub fn presolve(
        &self,
        config: &crate::PresolveConfig,
        integer: Option<&[bool]>,
    ) -> Result<crate::Presolved, LpError> {
        self.validate()?;
        crate::presolve::run(self, config, integer)
    }

    /// Solves the linear program, optionally warm-starting from the
    /// [`Basis`] of a previous solve, and returns the optimal basis for the
    /// next warm start.
    ///
    /// The warm basis may come from a *smaller* model: variables and
    /// constraints appended since the basis was taken are reconciled
    /// automatically (new rows enter with their logical variable basic),
    /// which makes branch-and-bound bound changes and lazy constraint
    /// separation cheap dual re-solves. A stale or singular basis silently
    /// falls back to a cold start.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LinearProgram::solve`].
    pub fn solve_warm(&self, warm: Option<&Basis>) -> Result<(LpSolution, Basis), LpError> {
        self.validate()?;
        revised::solve(self, warm)
    }

    /// Refactorises the factorisation cached on `basis` **in place** when
    /// its update chain has grown too long for warm starts to reuse it, so
    /// a basis that will seed several warm starts of this model (both
    /// branch-and-bound children and the rounding heuristic) is
    /// refactorised once instead of once per start. Warm solves from the
    /// refreshed basis are bit-identical to solves from the original: each
    /// would have computed this very factorisation itself. Returns `true`
    /// when the factor was replaced; a basis of another matrix, without a
    /// cached factor, with a short chain, or singular for this model is
    /// left untouched.
    pub fn refresh_basis(&self, basis: &mut Basis) -> bool {
        revised::refresh_factor(self, basis)
    }

    /// Solves with the legacy dense two-phase tableau simplex.
    ///
    /// Retained as a reference oracle for regression tests; production code
    /// paths use [`LinearProgram::solve`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`LinearProgram::solve`].
    #[doc(hidden)]
    pub fn solve_dense(&self) -> Result<LpSolution, LpError> {
        self.validate()?;
        dense::solve(self)
    }

    pub(crate) fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    pub(crate) fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    pub(crate) fn iteration_limit(&self) -> usize {
        self.iteration_limit
    }

    pub(crate) fn time_limit(&self) -> Option<std::time::Duration> {
        self.time_limit
    }

    pub(crate) fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accessors() {
        let mut lp = LinearProgram::new(2, Sense::Maximize);
        assert_eq!(lp.num_vars(), 2);
        let v = lp.add_var();
        assert_eq!(v, 2);
        assert_eq!(lp.num_vars(), 3);
        lp.set_objective_coeff(v, 4.0);
        lp.set_bounds(v, -1.0, 5.0);
        assert_eq!(lp.bounds(v), (-1.0, 5.0));
        assert_eq!(lp.objective()[v], 4.0);
        lp.add_constraint(vec![(0, 1.0), (2, -1.0)], ConstraintOp::Ge, 1.0);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.constraints()[0].op, ConstraintOp::Ge);
        assert_eq!(lp.sense(), Sense::Maximize);
    }

    #[test]
    fn validation_catches_bad_models() {
        let mut lp = LinearProgram::new(1, Sense::Minimize);
        lp.add_constraint(vec![(3, 1.0)], ConstraintOp::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::InvalidModel(_))));

        let mut lp = LinearProgram::new(1, Sense::Minimize);
        lp.set_bounds(0, 2.0, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::InvalidModel(_))));

        let mut lp = LinearProgram::new(1, Sense::Minimize);
        lp.set_objective_coeff(0, f64::NAN);
        assert!(matches!(lp.solve(), Err(LpError::InvalidModel(_))));

        let mut lp = LinearProgram::new(1, Sense::Minimize);
        lp.add_constraint(vec![(0, f64::INFINITY)], ConstraintOp::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn edits_after_a_validated_solve_are_validated_again() {
        let base = {
            let mut lp = LinearProgram::new(2, Sense::Minimize);
            lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 1.0);
            lp.solve().expect("valid model");
            lp
        };
        // Every edit of the remembered structure resets the memo; a bound
        // edit is checked on every solve anyway.
        let edits: [fn(&mut LinearProgram); 4] = [
            |lp| lp.set_objective_coeff(0, f64::NAN),
            |lp| lp.add_constraint(vec![(5, 1.0)], ConstraintOp::Le, 1.0),
            |lp| {
                let v = lp.add_var();
                lp.add_constraint(vec![(v, f64::NAN)], ConstraintOp::Le, 1.0);
            },
            |lp| lp.set_bounds(0, 3.0, 2.0),
        ];
        for (k, edit) in edits.iter().enumerate() {
            let mut lp = base.clone();
            edit(&mut lp);
            assert!(
                matches!(lp.solve(), Err(LpError::InvalidModel(_))),
                "edit {k}"
            );
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            LpError::Infeasible.to_string(),
            "linear program is infeasible"
        );
        assert!(LpError::InvalidModel("x".into()).to_string().contains("x"));
        assert_eq!(ConstraintOp::Le.to_string(), "<=");
    }
}
