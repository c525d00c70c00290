//! Big-M indicator constraints.
//!
//! The paper's ILP model switches its segment-direction and boundary
//! constraints on and off with 0-1 selector variables; the big-M indicator
//! is the standard reformulation from Chen, Batson and Dang, *Applied
//! Integer Programming* (reference \[13\] of the paper). This module
//! collects it so the layout model can state its intent directly.

use crate::expr::LinExpr;
use crate::model::{Model, VarId};
use rfic_lp::ConstraintOp;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sense, SolveOptions};

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
}
