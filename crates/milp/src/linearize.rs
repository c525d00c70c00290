//! Linearisation helpers for common non-linear constructs.
//!
//! The paper's ILP model multiplies 0-1 direction variables with differences
//! of continuous coordinates (equation (6)) and uses big-M disjunctions for
//! the non-overlap constraints (16)–(20); both are standard reformulations
//! from Chen, Batson and Dang, *Applied Integer Programming* (reference \[13\]
//! of the paper). This module collects those reformulations so the layout
//! model can state its intent directly.

use crate::expr::LinExpr;
use crate::model::{Model, VarId, VarKind};
use rfic_lp::ConstraintOp;

/// Adds a variable `z = b * x` where `b` is binary and `x` is a continuous
/// expression with known finite bounds `lo <= x <= hi`.
///
/// The standard four-inequality reformulation is used:
///
/// ```text
/// z <= hi * b            z >= lo * b
/// z <= x - lo * (1 - b)  z >= x - hi * (1 - b)
/// ```
///
/// # Panics
///
/// Panics if `lo > hi` or either bound is not finite.
///
/// # Examples
///
/// ```
/// use rfic_milp::{linearize, LinExpr, Model, Sense, SolveOptions};
///
/// let mut m = Model::new(Sense::Maximize);
/// let b = m.add_binary("b", 0.0);
/// let x = m.add_continuous("x", 0.0, 10.0, 0.0);
/// let z = linearize::product_binary_expr(&mut m, b, LinExpr::from(x), 0.0, 10.0);
/// m.set_objective_coeff(z, 1.0);
/// m.add_le(LinExpr::from(x), 7.0);
/// // maximising z forces b = 1 and x at its constrained maximum.
/// let s = m.solve(&SolveOptions::default())?;
/// assert!((s.values[z.index()] - 7.0).abs() < 1e-6);
/// # Ok::<(), rfic_milp::MilpError>(())
/// ```
pub fn product_binary_expr(model: &mut Model, b: VarId, x: LinExpr, lo: f64, hi: f64) -> VarId {
    assert!(
        lo.is_finite() && hi.is_finite() && lo <= hi,
        "product bounds must be finite and ordered"
    );
    let z = model.add_var(
        format!("prod_{}_{}", model.var_name(b).to_owned(), model.num_vars()),
        VarKind::Continuous,
        lo.min(0.0),
        hi.max(0.0),
        0.0,
    );
    // z <= hi*b
    model.add_constraint(LinExpr::from(z) - (b, hi), ConstraintOp::Le, 0.0);
    // z >= lo*b
    model.add_constraint(LinExpr::from(z) - (b, lo), ConstraintOp::Ge, 0.0);
    // z <= x - lo*(1-b)   <=>   z - x - lo*b <= -lo
    model.add_constraint(
        LinExpr::from(z) - x.clone() - (b, lo),
        ConstraintOp::Le,
        -lo,
    );
    // z >= x - hi*(1-b)   <=>   z - x - hi*b >= -hi
    model.add_constraint(LinExpr::from(z) - x - (b, hi), ConstraintOp::Ge, -hi);
    z
}

/// Adds the indicator constraint `b = 1  =>  expr <= rhs` using big-M.
///
/// `big_m` must be an upper bound on `expr - rhs` over the feasible region.
pub fn indicator_le(model: &mut Model, b: VarId, expr: LinExpr, rhs: f64, big_m: f64) {
    // expr <= rhs + M*(1 - b)
    model.add_constraint(expr + (b, big_m), ConstraintOp::Le, rhs + big_m);
}

/// Adds the indicator constraint `b = 1  =>  expr >= rhs` using big-M.
///
/// `big_m` must be an upper bound on `rhs - expr` over the feasible region.
pub fn indicator_ge(model: &mut Model, b: VarId, expr: LinExpr, rhs: f64, big_m: f64) {
    // expr >= rhs - M*(1 - b)
    model.add_constraint(expr - (b, big_m), ConstraintOp::Ge, rhs - big_m);
}

/// Adds the indicator constraint `b = 1  =>  expr == rhs` using big-M on
/// both sides.
pub fn indicator_eq(model: &mut Model, b: VarId, expr: LinExpr, rhs: f64, big_m: f64) {
    indicator_le(model, b, expr.clone(), rhs, big_m);
    indicator_ge(model, b, expr, rhs, big_m);
}

/// Adds a continuous variable `t >= |expr|` (the usual pair of inequalities).
/// Minimising `t` makes it equal to the absolute value.
///
/// `bound` is an upper bound on `|expr|` used for the variable's range.
pub fn abs_upper_bound(model: &mut Model, expr: LinExpr, bound: f64) -> VarId {
    let t = model.add_var(
        format!("abs_{}", model.num_vars()),
        VarKind::Continuous,
        0.0,
        bound,
        0.0,
    );
    model.add_constraint(LinExpr::from(t) - expr.clone(), ConstraintOp::Ge, 0.0);
    model.add_constraint(LinExpr::from(t) + expr, ConstraintOp::Ge, 0.0);
    t
}

/// Adds a disjunction `at least one of the given (expr <= rhs) alternatives
/// holds`, returning the selector binaries (one per alternative).
///
/// This is the structure of the non-overlap constraints (16)–(20) in the
/// paper: each pair of bounding boxes must satisfy at least one of the four
/// "left-of / below / right-of / above" alternatives.
pub fn at_least_one_le(
    model: &mut Model,
    alternatives: Vec<(LinExpr, f64)>,
    big_m: f64,
) -> Vec<VarId> {
    let selectors: Vec<VarId> = (0..alternatives.len())
        .map(|i| model.add_binary(format!("disj_{}_{}", model.num_vars(), i), 0.0))
        .collect();
    for (sel, (expr, rhs)) in selectors.iter().zip(alternatives) {
        // selector = 1 => expr <= rhs
        indicator_le(model, *sel, expr, rhs, big_m);
    }
    // at least one selector active
    model.add_constraint(
        LinExpr::sum(selectors.iter().copied()),
        ConstraintOp::Ge,
        1.0,
    );
    selectors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sense, SolveOptions};

    #[test]
    fn product_with_binary_zero_forces_zero() {
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_binary("b", -1.0); // prefer b = 0
        let x = m.add_continuous("x", 0.0, 5.0, 0.0);
        let z = product_binary_expr(&mut m, b, LinExpr::from(x), 0.0, 5.0);
        m.set_objective_coeff(z, 0.1); // small reward, not worth paying for b
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!(s.values[b.index()] < 0.5);
        assert!(s.values[z.index()].abs() < 1e-6);
    }

    #[test]
    fn product_with_binary_one_tracks_expression() {
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_binary("b", 0.0);
        let x = m.add_continuous("x", -3.0, 4.0, 0.0);
        let z = product_binary_expr(&mut m, b, LinExpr::from(x), -3.0, 4.0);
        m.set_objective_coeff(z, 1.0);
        m.add_eq(LinExpr::from(x), 2.5);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.values[z.index()] - 2.5).abs() < 1e-6);
        assert!(s.values[b.index()] > 0.5);
    }

    #[test]
    #[should_panic(expected = "product bounds")]
    fn product_rejects_bad_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let b = m.add_binary("b", 0.0);
        let x = m.add_continuous("x", 0.0, 1.0, 0.0);
        let _ = product_binary_expr(&mut m, b, LinExpr::from(x), 2.0, 1.0);
    }

    #[test]
    fn indicator_constraints_fire_only_when_selected() {
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_binary("b", 0.0);
        let x = m.add_continuous("x", 0.0, 10.0, 1.0);
        // b = 1 => x <= 3; force b = 1.
        indicator_le(&mut m, b, LinExpr::from(x), 3.0, 100.0);
        m.add_eq(LinExpr::from(b), 1.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.values[x.index()] - 3.0).abs() < 1e-6);

        // Without forcing b, the solver leaves b = 0 and x at its bound.
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_binary("b", 0.0);
        let x = m.add_continuous("x", 0.0, 10.0, 1.0);
        indicator_le(&mut m, b, LinExpr::from(x), 3.0, 100.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.values[x.index()] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn indicator_eq_pins_the_expression() {
        let mut m = Model::new(Sense::Minimize);
        let b = m.add_binary("b", 0.0);
        let x = m.add_continuous("x", 0.0, 10.0, 1.0);
        indicator_eq(&mut m, b, LinExpr::from(x), 6.0, 100.0);
        m.add_eq(LinExpr::from(b), 1.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.values[x.index()] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn abs_bound_measures_deviation() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, 10.0, 0.0);
        m.add_eq(LinExpr::from(x), 7.0);
        // minimise |x - 4| = 3
        let t = abs_upper_bound(&mut m, LinExpr::from(x) - 4.0, 100.0);
        m.set_objective_coeff(t, 1.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.values[t.index()] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn disjunction_requires_one_alternative() {
        // x must be <= 2 or >= 8 (expressed as -x <= -8); maximise x.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 10.0, 1.0);
        let sels = at_least_one_le(
            &mut m,
            vec![(LinExpr::from(x), 2.0), (LinExpr::from(x) * -1.0, -8.0)],
            100.0,
        );
        assert_eq!(sels.len(), 2);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.values[x.index()] - 10.0).abs() < 1e-6);

        // Now cap x at 6: the only way to satisfy the disjunction is x <= 2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 6.0, 1.0);
        at_least_one_le(
            &mut m,
            vec![(LinExpr::from(x), 2.0), (LinExpr::from(x) * -1.0, -8.0)],
            100.0,
        );
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.values[x.index()] - 2.0).abs() < 1e-6);
    }
}
