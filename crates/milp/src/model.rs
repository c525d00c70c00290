//! MILP model builder.

use std::fmt;

use rfic_lp::{ConstraintOp, LinearProgram, Sense};

use crate::expr::LinExpr;
use crate::solve::{self, MilpError, MilpSolution, SolveOptions, WarmStart};

/// Identifier of a variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Position of the variable in the model (and in solution vectors).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Kind of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// 0-1 variable.
    Binary,
    /// General integer variable.
    Integer,
}

impl VarKind {
    /// `true` for binary and general integer variables.
    #[inline]
    pub fn is_integer(self) -> bool {
        !matches!(self, VarKind::Continuous)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub name: String,
    pub kind: VarKind,
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintData {
    pub expr: LinExpr,
    pub op: ConstraintOp,
    pub rhs: f64,
    pub name: Option<String>,
}

/// A mixed-integer linear program.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    pub(crate) vars: Vec<VarData>,
    pub(crate) constraints: Vec<ConstraintData>,
}

impl Model {
    /// Creates an empty model with the given optimisation sense.
    pub fn new(sense: Sense) -> Model {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimisation sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a variable and returns its id.
    ///
    /// Binary variables have their bounds clamped into `[0, 1]`.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        let (lower, upper) = match kind {
            VarKind::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        self.vars.push(VarData {
            name: name.into(),
            kind,
            lower,
            upper,
            objective,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds a continuous variable.
    pub fn add_continuous(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_var(name, VarKind::Continuous, lower, upper, objective)
    }

    /// Adds a binary (0-1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0, objective)
    }

    /// Adds a general integer variable.
    pub fn add_integer(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        self.add_var(name, VarKind::Integer, lower, upper, objective)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer (binary + general) variables.
    pub fn num_integer_vars(&self) -> usize {
        self.vars.iter().filter(|v| v.kind.is_integer()).count()
    }

    /// Name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var.0].name
    }

    /// Kind of a variable.
    pub fn var_kind(&self, var: VarId) -> VarKind {
        self.vars[var.0].kind
    }

    /// Bounds of a variable.
    pub fn var_bounds(&self, var: VarId) -> (f64, f64) {
        (self.vars[var.0].lower, self.vars[var.0].upper)
    }

    /// Overwrites the bounds of a variable.
    pub fn set_var_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        self.vars[var.0].lower = lower;
        self.vars[var.0].upper = upper;
    }

    /// Sets the objective coefficient of a variable.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: f64) {
        self.vars[var.0].objective = coeff;
    }

    /// Adds `objective_delta` to the objective coefficient of a variable.
    pub fn add_objective_coeff(&mut self, var: VarId, objective_delta: f64) {
        self.vars[var.0].objective += objective_delta;
    }

    /// Adds a constraint `expr op rhs`. The constant term of `expr` is moved
    /// to the right-hand side.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, op: ConstraintOp, rhs: f64) {
        let expr = expr.into();
        let constant = expr.constant();
        self.constraints.push(ConstraintData {
            expr,
            op,
            rhs: rhs - constant,
            name: None,
        });
    }

    /// Adds a named constraint (names are used in diagnostics only).
    pub fn add_named_constraint(
        &mut self,
        name: impl Into<String>,
        expr: impl Into<LinExpr>,
        op: ConstraintOp,
        rhs: f64,
    ) {
        self.add_constraint(expr, op, rhs);
        if let Some(last) = self.constraints.last_mut() {
            last.name = Some(name.into());
        }
    }

    /// Convenience: `expr <= rhs`.
    pub fn add_le(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Le, rhs);
    }

    /// Convenience: `expr >= rhs`.
    pub fn add_ge(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Ge, rhs);
    }

    /// Convenience: `expr == rhs`.
    pub fn add_eq(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Eq, rhs);
    }

    /// Convenience: `lhs <= rhs` between two expressions.
    pub fn add_le_expr(&mut self, lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) {
        let e = lhs.into() - rhs.into();
        self.add_constraint(e, ConstraintOp::Le, 0.0);
    }

    /// Convenience: `lhs >= rhs` between two expressions.
    pub fn add_ge_expr(&mut self, lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) {
        let e = lhs.into() - rhs.into();
        self.add_constraint(e, ConstraintOp::Ge, 0.0);
    }

    /// Convenience: `lhs == rhs` between two expressions.
    pub fn add_eq_expr(&mut self, lhs: impl Into<LinExpr>, rhs: impl Into<LinExpr>) {
        let e = lhs.into() - rhs.into();
        self.add_constraint(e, ConstraintOp::Eq, 0.0);
    }

    /// Checks a full assignment against every constraint, returning the
    /// violated constraint indices (useful for tests and for lazy-constraint
    /// separation loops).
    pub fn violated_constraints(&self, values: &[f64], tol: f64) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, c) in self.constraints.iter().enumerate() {
            let lhs = c.expr.evaluate(values) - c.expr.constant();
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                out.push(i);
            }
        }
        out
    }

    /// Builds the continuous (LP) relaxation of the model.
    pub fn relaxation(&self) -> LinearProgram {
        let mut lp = LinearProgram::new(self.vars.len(), self.sense);
        for (i, v) in self.vars.iter().enumerate() {
            lp.set_bounds(i, v.lower, v.upper);
            lp.set_objective_coeff(i, v.objective);
        }
        for c in &self.constraints {
            let coeffs: Vec<(usize, f64)> = c.expr.terms().map(|(v, coeff)| (v.0, coeff)).collect();
            lp.add_constraint(coeffs, c.op, c.rhs);
        }
        lp
    }

    /// FNV-1a fingerprint of the model's **structure**: optimisation
    /// sense, variable count, the integrality mask and every constraint's
    /// operator and sparse coefficient pattern. Variable bounds, objective
    /// coefficients and right-hand sides are deliberately **excluded** —
    /// two models with equal structure fingerprints differ only by values
    /// that [`LinearProgram::patch_bounds`] /
    /// [`LinearProgram::patch_costs`] / [`LinearProgram::patch_rhs`] can
    /// rewrite in place, which is what makes a built relaxation (and the
    /// factorised basis of its last solve) reusable across a parameter
    /// sweep.
    pub fn structure_fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        mix(match self.sense {
            Sense::Minimize => 1,
            Sense::Maximize => 2,
        });
        mix(self.vars.len() as u64);
        for v in &self.vars {
            mix(match v.kind {
                VarKind::Continuous => 0,
                VarKind::Binary => 1,
                VarKind::Integer => 2,
            });
        }
        mix(self.constraints.len() as u64);
        for c in &self.constraints {
            mix(match c.op {
                ConstraintOp::Le => 1,
                ConstraintOp::Ge => 2,
                ConstraintOp::Eq => 3,
            });
            for (var, coeff) in c.expr.terms() {
                mix(var.0 as u64);
                mix(coeff.to_bits());
            }
        }
        h
    }

    /// Rewrites `lp` — a relaxation previously built by
    /// [`Model::relaxation`] from a model with the same
    /// [`Model::structure_fingerprint`] — so it is value-for-value
    /// identical to `self.relaxation()`, using only the cache-preserving
    /// patch API: every variable's bounds and objective coefficient and
    /// every constraint's right-hand side are overwritten in place. The
    /// constraint matrix (equal by fingerprint) is untouched, so the
    /// matrix cache and any factorised [`rfic_lp::Basis`] keyed on it stay
    /// live.
    ///
    /// Returns `false` (leaving `lp` unspecified between patches) when the
    /// dimensions do not match — the caller must rebuild instead.
    pub fn patch_relaxation(&self, lp: &mut LinearProgram) -> bool {
        if lp.num_vars() != self.vars.len() || lp.num_constraints() != self.constraints.len() {
            return false;
        }
        for (i, v) in self.vars.iter().enumerate() {
            lp.patch_bounds(i, v.lower, v.upper);
            lp.patch_costs(&[(i, v.objective)]);
        }
        for (row, c) in self.constraints.iter().enumerate() {
            lp.patch_rhs(row, c.rhs);
        }
        true
    }

    /// Solves the model by branch and bound.
    ///
    /// # Errors
    ///
    /// See [`MilpError`]: infeasible or unbounded models are reported, as is
    /// hitting a limit before any integer-feasible solution was found.
    pub fn solve(&self, options: &SolveOptions) -> Result<MilpSolution, MilpError> {
        solve::branch_and_bound(self, options, None, None, None)
    }

    /// Solves the model by branch and bound, reusing and updating the
    /// warm-start state across calls. A fresh [`WarmStart::new`] solves
    /// cold, exactly as [`Model::solve`] does.
    ///
    /// This is the entry point for **incremental constraint addition** (lazy
    /// separation): solve, append violated constraints (and possibly new
    /// variables) to the same model, call `solve_warm` again — the root LP
    /// re-enters through the dual simplex from the previous root basis
    /// instead of cold-starting.
    ///
    /// `pool` schedules the tree search on a shared [`crate::SolverPool`]
    /// instead of spawning per-solve worker threads: the root LP still
    /// runs on the calling thread, the tree is registered with the pool
    /// and at most [`SolveOptions::threads`] of its workers attach. The
    /// search is identical either way, so the returned objective is too —
    /// only *which* threads run the workers changes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::solve`], plus
    /// [`MilpError::PoolShutdown`] if `pool` has been shut down.
    pub fn solve_warm(
        &self,
        options: &SolveOptions,
        warm: &mut WarmStart,
        pool: Option<&crate::SolverPool>,
    ) -> Result<MilpSolution, MilpError> {
        solve::branch_and_bound(self, options, Some(warm), pool, None)
    }

    /// [`Model::solve_warm`] against a caller-supplied **prebuilt
    /// relaxation** — the parameter-sweep fast path. `lp` must be a
    /// relaxation of a model with this model's
    /// [`Model::structure_fingerprint`], already value-patched via
    /// [`Model::patch_relaxation`]. The solve **bypasses presolve**
    /// entirely (the root runs on `lp` itself through an identity
    /// postsolve): re-running the reduction stack would re-derive the
    /// column maps from the patched bounds and demote the retained basis
    /// to the dead `from_mapping` form — exactly the re-pricing cost the
    /// fast path exists to avoid. Because the postsolve is the identity,
    /// the root basis stored back into `warm` keeps its factorisation and
    /// dual steepest-edge weights, so the *next* patched re-solve of the
    /// same structure re-enters fully live.
    ///
    /// `pool` schedules the tree search on a shared [`crate::SolverPool`]
    /// (`None` searches on the calling thread).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::solve`].
    pub fn solve_patched_in_pool(
        &self,
        options: &SolveOptions,
        warm: &mut WarmStart,
        pool: Option<&crate::SolverPool>,
        lp: &LinearProgram,
    ) -> Result<MilpSolution, MilpError> {
        solve::branch_and_bound(self, options, Some(warm), pool, Some(lp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_bookkeeping() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", -1.0, 2.0, 1.0);
        let b = m.add_binary("b", 0.5);
        let k = m.add_integer("k", 0.0, 7.0, -1.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.num_integer_vars(), 2);
        assert_eq!(m.var_name(x), "x");
        assert_eq!(m.var_kind(b), VarKind::Binary);
        assert_eq!(m.var_bounds(k), (0.0, 7.0));
        assert!(VarKind::Integer.is_integer());
        assert!(!VarKind::Continuous.is_integer());
        assert_eq!(x.index(), 0);
        assert_eq!(format!("{b}"), "x1");
    }

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::new(Sense::Minimize);
        let b = m.add_var("b", VarKind::Binary, -3.0, 9.0, 0.0);
        assert_eq!(m.var_bounds(b), (0.0, 1.0));
    }

    #[test]
    fn constraint_constant_folding() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0, 1.0);
        // x + 3 <= 7  ->  x <= 4
        m.add_le(LinExpr::from(x) + 3.0, 7.0);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.constraints[0].rhs, 4.0);
    }

    #[test]
    fn violated_constraints_reports_indices() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0, 0.0);
        let y = m.add_continuous("y", 0.0, 10.0, 0.0);
        m.add_le(LinExpr::from(x) + y, 5.0);
        m.add_ge(LinExpr::from(x) - y, 1.0);
        m.add_eq(LinExpr::from(y), 2.0);
        assert!(m.violated_constraints(&[3.0, 2.0], 1e-9).is_empty());
        assert_eq!(m.violated_constraints(&[5.0, 2.0], 1e-9), vec![0]);
        assert_eq!(m.violated_constraints(&[2.0, 3.0], 1e-9), vec![1, 2]);
    }

    #[test]
    fn relaxation_reflects_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 3.0);
        let y = m.add_continuous("y", 0.0, 4.0, 1.0);
        m.add_le(LinExpr::from(x) + (y, 2.0), 6.0);
        let lp = m.relaxation();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.bounds(x.index()), (0.0, 1.0));
        assert_eq!(lp.bounds(y.index()), (0.0, 4.0));
        let s = lp.solve().unwrap();
        assert!(
            (s.objective - 5.5).abs() < 1e-6,
            "relaxation optimum 3 + 2.5"
        );
    }

    #[test]
    fn named_constraints_are_stored() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 1.0, 1.0);
        m.add_named_constraint("cap", LinExpr::from(x), ConstraintOp::Le, 0.5);
        assert_eq!(m.constraints[0].name.as_deref(), Some("cap"));
    }
}
