//! The objective cutoff of the warm dual re-solve
//! ([`LinearProgram::set_cutoff`]): a re-solve whose optimum lies past the
//! cutoff stops with [`LpError::Cutoff`] and reports the work it spent,
//! and a cutoff the solve never reaches changes nothing, bit for bit, in
//! either optimisation sense.

use rfic_lp::{Basis, ConstraintOp, LinearProgram, LpError, LpSolution, Sense};

/// A covering LP, `min Σ c_j·x_j` s.t. `A·x ≥ b`, `0 ≤ x ≤ 4`. Under
/// [`Sense::Maximize`] the costs are negated, so both senses share one
/// optimal point and their objectives differ only in sign.
fn covering(sense: Sense) -> LinearProgram {
    let costs = [3.0, 5.0, 4.0, 6.0, 2.0, 7.0, 5.0, 4.0, 3.5, 6.5];
    let rows: [(&[(usize, f64)], f64); 6] = [
        (&[(0, 1.0), (1, 2.0), (4, 1.0), (7, 1.0)], 6.0),
        (&[(1, 1.0), (2, 1.0), (5, 2.0), (8, 1.0)], 5.0),
        (&[(0, 2.0), (3, 1.0), (6, 1.0), (9, 1.0)], 7.0),
        (&[(2, 1.0), (4, 2.0), (6, 1.0), (8, 2.0)], 8.0),
        (&[(3, 2.0), (5, 1.0), (7, 1.0), (9, 2.0)], 6.0),
        (&[(0, 1.0), (2, 1.0), (4, 1.0), (6, 1.0), (8, 1.0)], 9.0),
    ];
    let sign = match sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut lp = LinearProgram::new(costs.len(), sense);
    for (j, c) in costs.into_iter().enumerate() {
        lp.set_objective_coeff(j, sign * c);
        lp.set_bounds(j, 0.0, 4.0);
    }
    for (coeffs, rhs) in rows {
        lp.add_constraint(coeffs.to_vec(), ConstraintOp::Ge, rhs);
    }
    lp
}

/// A branch-and-bound child of the covering LP: the optimum's positive
/// variables lose their upper bounds down to half their values, so the
/// parent basis is dual feasible but primal infeasible and the warm
/// re-solve runs the dual simplex. Returns the child, the parent basis
/// and the parent objective.
fn branched(sense: Sense) -> (LinearProgram, Basis, f64) {
    let mut lp = covering(sense);
    let (parent, basis) = lp.solve_warm(None).expect("the covering LP is feasible");
    for (j, &x) in parent.values.iter().enumerate() {
        if x > 1e-9 {
            lp.set_bounds(j, 0.0, x / 2.0);
        }
    }
    (lp, basis, parent.objective)
}

/// `true` when `objective` is no better than `cutoff` in the sense.
fn reached(sense: Sense, objective: f64, cutoff: f64) -> bool {
    match sense {
        Sense::Minimize => objective >= cutoff,
        Sense::Maximize => objective <= cutoff,
    }
}

fn assert_bit_identical(a: &LpSolution, b: &LpSolution) {
    let bits = |s: &LpSolution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b));
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(a, b, "the work counters match too");
}

#[test]
fn a_warm_dual_resolve_stops_at_a_cutoff_short_of_its_optimum() {
    for sense in [Sense::Minimize, Sense::Maximize] {
        let (child, basis, parent) = branched(sense);
        let (full, _) = child
            .solve_warm(Some(&basis))
            .expect("the child is feasible");
        assert!(full.dual_iterations >= 2, "{sense:?}: {full:?}");
        // Just past the parent optimum: the first pivot that moves the
        // dual objective at all reaches it.
        let cutoff = parent + 1e-3 * (full.objective - parent);
        let mut cut = child.clone();
        cut.set_cutoff(Some(cutoff));
        let Err(LpError::Cutoff(at)) = cut.solve_warm(Some(&basis)) else {
            panic!("{sense:?}: the dual must stop at the cutoff");
        };
        assert!(at.iterations >= 1, "{sense:?}: {at:?}");
        assert!(at.iterations < full.iterations, "{sense:?}: {at:?}");
        assert_eq!(at.iterations, at.dual_iterations, "{sense:?}");
        assert!(reached(sense, at.objective, cutoff), "{sense:?}: {at:?}");
        // The stop point's objective bounds the optimum.
        assert!(reached(sense, full.objective, at.objective), "{sense:?}");
        // A cold solve runs no dual and ignores the cutoff.
        let cold = cut.solve().expect("the child is feasible");
        assert!((cold.objective - full.objective).abs() < 1e-9, "{sense:?}");
    }
}

#[test]
fn a_cutoff_the_dual_never_reaches_changes_nothing() {
    for sense in [Sense::Minimize, Sense::Maximize] {
        let (child, basis, _) = branched(sense);
        let (full, full_basis) = child.solve_warm(Some(&basis)).expect("feasible");
        let past_optimum = match sense {
            Sense::Minimize => full.objective + 1.0,
            Sense::Maximize => full.objective - 1.0,
        };
        let mut cut = child.clone();
        cut.set_cutoff(Some(past_optimum));
        let (same, same_basis) = cut.solve_warm(Some(&basis)).expect("feasible");
        assert_bit_identical(&same, &full);
        assert_eq!(same_basis, full_basis, "{sense:?}");
    }
}
