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

/// A mixed-integer linear program: its LP relaxation plus an integrality
/// mask over the variables.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) lp: LinearProgram,
    /// `true` for every binary and general integer variable.
    pub(crate) is_integer: Vec<bool>,
}

impl Model {
    /// Creates an empty model with the given optimisation sense.
    pub fn new(sense: Sense) -> Model {
        Model {
            lp: LinearProgram::new(0, sense),
            is_integer: Vec::new(),
        }
    }

    /// Optimisation sense.
    pub fn sense(&self) -> Sense {
        self.lp.sense()
    }

    /// Adds a variable and returns its id.
    ///
    /// Binary variables have their bounds clamped into `[0, 1]`.
    pub fn add_var(&mut self, kind: VarKind, lower: f64, upper: f64, objective: f64) -> VarId {
        let (lower, upper) = match kind {
            VarKind::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        let j = self.lp.add_var();
        self.lp.set_bounds(j, lower, upper);
        self.lp.set_objective_coeff(j, objective);
        self.is_integer.push(kind.is_integer());
        VarId(j)
    }

    /// Adds a continuous variable.
    pub fn add_continuous(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        self.add_var(VarKind::Continuous, lower, upper, objective)
    }

    /// Adds a binary (0-1) variable.
    pub fn add_binary(&mut self, objective: f64) -> VarId {
        self.add_var(VarKind::Binary, 0.0, 1.0, objective)
    }

    /// Adds a general integer variable.
    pub fn add_integer(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        self.add_var(VarKind::Integer, lower, upper, objective)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lp.num_vars()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.lp.num_constraints()
    }

    /// Number of integer (binary + general) variables.
    pub fn num_integer_vars(&self) -> usize {
        self.is_integer.iter().filter(|&&i| i).count()
    }

    /// Adds a constraint `expr op rhs` as one row of the relaxation: the
    /// terms of `expr` in [`VarId`] order, its constant term moved to the
    /// right-hand side.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, op: ConstraintOp, rhs: f64) {
        let expr = expr.into();
        let coeffs = expr.terms().map(|(v, coeff)| (v.0, coeff)).collect();
        self.lp.add_constraint(coeffs, op, rhs - expr.constant());
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

    /// Checks an assignment against every constraint, returning the
    /// violated constraint indices (useful for tests and for lazy-constraint
    /// separation loops). Variables past the end of `values` — added since
    /// the assignment was taken — count as 0.
    pub fn violated_constraints(&self, values: &[f64], tol: f64) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, c) in self.lp.constraints().iter().enumerate() {
            let lhs: f64 = c
                .coeffs
                .iter()
                .map(|&(j, coeff)| coeff * values.get(j).copied().unwrap_or(0.0))
                .sum();
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

    /// A copy of the continuous (LP) relaxation the model holds.
    pub fn relaxation(&self) -> LinearProgram {
        self.lp.clone()
    }

    /// Solves the model by branch and bound.
    ///
    /// # Errors
    ///
    /// See [`MilpError`]: infeasible or unbounded models are reported, as is
    /// hitting a limit before any integer-feasible solution was found.
    pub fn solve(&self, options: &SolveOptions) -> Result<MilpSolution, MilpError> {
        solve::branch_and_bound(self, options, None, None)
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
        solve::branch_and_bound(self, options, Some(warm), pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_bookkeeping() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(-1.0, 2.0, 1.0);
        let b = m.add_binary(0.5);
        let k = m.add_integer(0.0, 7.0, -1.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.num_integer_vars(), 2);
        let lp = m.relaxation();
        assert_eq!(lp.bounds(x.index()), (-1.0, 2.0));
        assert_eq!(lp.bounds(k.index()), (0.0, 7.0));
        assert_eq!(lp.objective(), &[1.0, 0.5, -1.0]);
        assert_eq!(m.is_integer, vec![false, true, true]);
        assert!(VarKind::Integer.is_integer());
        assert!(!VarKind::Continuous.is_integer());
        assert_eq!(x.index(), 0);
        assert_eq!(format!("{b}"), "x1");
    }

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::new(Sense::Minimize);
        let b = m.add_var(VarKind::Binary, -3.0, 9.0, 0.0);
        assert_eq!(m.relaxation().bounds(b.index()), (0.0, 1.0));
    }

    #[test]
    fn constraint_constant_folding() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 10.0, 1.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        // (y + 3) + x + 2y <= 7  ->  one row x + 3y <= 4
        m.add_le(LinExpr::from(y) + 3.0 + x + (y, 2.0), 7.0);
        assert_eq!(m.num_constraints(), 1);
        let lp = m.relaxation();
        let row = &lp.constraints()[0];
        assert_eq!(row.coeffs, vec![(x.index(), 1.0), (y.index(), 3.0)]);
        assert_eq!(row.op, ConstraintOp::Le);
        assert_eq!(row.rhs, 4.0);
        // The row, not the expression, is what the check evaluates:
        // x + 3y = 4 sits on the bound, x + 3y = 5 violates it.
        assert!(m.violated_constraints(&[1.0, 1.0], 1e-9).is_empty());
        assert_eq!(m.violated_constraints(&[2.0, 1.0], 1e-9), vec![0]);
    }

    #[test]
    fn violated_constraints_reports_indices() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous(0.0, 10.0, 0.0);
        let y = m.add_continuous(0.0, 10.0, 0.0);
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
        let x = m.add_binary(3.0);
        let y = m.add_continuous(0.0, 4.0, 1.0);
        // 2y + x - 1 + y - y <= 5 folds to one row x + 2y <= 6.
        m.add_le((LinExpr::from(y) * 2.0 + x - 1.0) + y - y, 5.0);
        let lp = m.relaxation();
        assert_eq!(lp.sense(), Sense::Maximize);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.bounds(x.index()), (0.0, 1.0));
        assert_eq!(lp.bounds(y.index()), (0.0, 4.0));
        assert_eq!(lp.objective(), &[3.0, 1.0]);
        let row = &lp.constraints()[0];
        assert_eq!(row.coeffs, vec![(x.index(), 1.0), (y.index(), 2.0)]);
        assert_eq!(row.rhs, 6.0);
        assert!(m.violated_constraints(&[1.0, 2.5], 1e-9).is_empty());
        assert_eq!(m.violated_constraints(&[1.0, 3.0], 1e-9), vec![0]);
        let s = lp.solve().unwrap();
        assert!(
            (s.objective - 5.5).abs() < 1e-6,
            "relaxation optimum 3 + 2.5"
        );
    }
}
