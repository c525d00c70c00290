//! Pricing-rule equivalence and degeneracy regression suite.
//!
//! Dual steepest-edge (with the bound-flipping long-step dual ratio test)
//! is the default and the layout engine's rule; the plain Dantzig rule is
//! the fallback ladder's rung. Both must agree with each other and with
//! the dense-tableau oracle on objective and status for random bounded
//! LPs (cold and warm), the exact ratio test (plus the Bland fallback)
//! must terminate on classic degenerate/cycling instances, the long-step
//! test must actually batch bound flips on a boxed degenerate instance,
//! and the DSE weight-handoff contract (inherit on exact match, extend
//! with unit entries over appended rows, reset to unit otherwise) is
//! locked in by warm-chain and grown-model tests.

use proptest::prelude::*;
use rfic_lp::{ConstraintOp, LinearProgram, LpError, PricingRule, Sense};

const TOL: f64 = 1e-6;

/// Builds a random bounded LP from a seed (deterministic xorshift).
fn random_bounded_lp(vars: usize, rows: usize, seed: u64) -> LinearProgram {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1_000) as f64 / 500.0 - 1.0 // [-1, 1)
    };
    let sense = if seed.is_multiple_of(2) {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut lp = LinearProgram::new(vars, sense);
    for v in 0..vars {
        lp.set_objective_coeff(v, 5.0 * next());
        let lo = -3.0 + 2.0 * next();
        let hi = lo + 2.0 + 3.0 * next().abs();
        lp.set_bounds(v, lo, hi);
    }
    for r in 0..rows {
        let mut coeffs = Vec::new();
        for v in 0..vars {
            let c = next();
            if c.abs() > 0.3 {
                coeffs.push((v, c));
            }
        }
        if coeffs.is_empty() {
            coeffs.push((r % vars, 1.0 + next().abs()));
        }
        let op = match r % 3 {
            0 => ConstraintOp::Le,
            1 => ConstraintOp::Ge,
            _ => ConstraintOp::Eq,
        };
        lp.add_constraint(coeffs, op, 2.0 * next());
    }
    lp
}

/// Solves under the given pricing rule.
fn solve_with(lp: &LinearProgram, rule: PricingRule) -> Result<f64, LpError> {
    let mut lp = lp.clone();
    lp.set_pricing(rule);
    lp.solve().map(|s| s.objective)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dantzig and dual steepest-edge must agree with the dense oracle
    /// (objective and infeasible/unbounded status) on random bounded LPs.
    #[test]
    fn all_pricing_rules_match_the_dense_oracle(
        vars in 2usize..9,
        rows in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let lp = random_bounded_lp(vars, rows, seed);
        let dantzig = solve_with(&lp, PricingRule::Dantzig);
        let dse = solve_with(&lp, PricingRule::DualSteepestEdge);
        let oracle = lp.solve_dense().map(|s| s.objective);
        match (&dantzig, &dse, &oracle) {
            (Ok(b), Ok(d), Ok(c)) => {
                prop_assert!(
                    (b - c).abs() <= TOL * (1.0 + c.abs()),
                    "dantzig {b} != oracle {c}"
                );
                prop_assert!(
                    (d - c).abs() <= TOL * (1.0 + c.abs()),
                    "dual steepest-edge {d} != oracle {c}"
                );
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
            (Err(LpError::Unbounded), Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
            other => prop_assert!(false, "solver disagreement: {other:?}"),
        }
    }

    /// A feasible warm re-solve after a bound change must agree across all
    /// pricing rules (the warm path enters through the dual simplex, whose
    /// incremental reduced costs — and, under dual steepest-edge, whose
    /// weight framework and bound-flipping ratio test — this exercises).
    #[test]
    fn warm_resolve_agrees_across_pricing_rules(
        vars in 3usize..8,
        seed in 0u64..5_000,
    ) {
        let mut lp = random_bounded_lp(vars, 3, seed);
        let base = lp.clone();
        // An infeasible/unbounded base has nothing to re-solve warm.
        if let Ok((solution, basis)) = base.solve_warm(None) {
            // Tighten the first variable towards its current value.
            let (lo, hi) = base.bounds(0);
            let mid = solution.values[0].clamp(lo, hi);
            lp.set_bounds(0, lo, mid);
            for rule in [PricingRule::Dantzig, PricingRule::DualSteepestEdge] {
                let mut warm_lp = lp.clone();
                warm_lp.set_pricing(rule);
                let warm = warm_lp.solve_warm(Some(&basis)).map(|(s, _)| s.objective);
                let cold = warm_lp.solve().map(|s| s.objective);
                match (&warm, &cold) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        (a - b).abs() <= TOL * (1.0 + b.abs()),
                        "{rule:?}: warm {a} != cold {b}"
                    ),
                    (Err(ea), Err(eb)) => prop_assert!(ea == eb, "{rule:?}: {ea:?} vs {eb:?}"),
                    other => prop_assert!(false, "{rule:?}: warm/cold disagreement {other:?}"),
                }
            }
        }
    }
}

/// Bound-flip regression: on a boxed degenerate instance the dual
/// steepest-edge warm re-solve must take the long-step ratio test — one
/// dual pivot flipping several boxed nonbasics bound-to-bound — and still
/// land on the cold optimum.
#[test]
fn bound_flipping_ratio_test_flips_boxed_nonbasics() {
    // min x₁ + Σ_{j≥2} (j)·x_j  s.t.  Σ x_j ≥ 2,
    // x₁ ∈ [0,1], x_j ∈ [0,1/4] for j ≥ 2: the optimum fills the cheap
    // x₁ to 1 and four of the boxed quarters. Branching x₁ to zero rips a
    // violation of 1 into the row whose repair crosses four quarter-span
    // breakpoints — the textbook test grinds through them one degenerate
    // pivot at a time, the bound-flipping test flips through in a batch.
    let n = 10;
    let mut lp = LinearProgram::new(n, Sense::Minimize);
    lp.set_objective_coeff(0, 1.0);
    lp.set_bounds(0, 0.0, 1.0);
    for v in 1..n {
        lp.set_objective_coeff(v, 1.0 + v as f64);
        lp.set_bounds(v, 0.0, 0.25);
    }
    lp.add_constraint((0..n).map(|v| (v, 1.0)).collect(), ConstraintOp::Ge, 2.0);

    let (base, basis) = lp.solve_warm(None).expect("base solve");
    assert!(
        (base.objective - 4.5).abs() < 1e-9,
        "base {}",
        base.objective
    );

    // Branch x₁ down to zero and re-solve warm under dual steepest-edge.
    lp.set_bounds(0, 0.0, 0.0);
    let mut dse_lp = lp.clone();
    dse_lp.set_pricing(PricingRule::DualSteepestEdge);
    let (warm, _) = dse_lp.solve_warm(Some(&basis)).expect("warm DSE");
    let cold = lp.solve().expect("cold");
    assert!(
        (warm.objective - cold.objective).abs() <= TOL * (1.0 + cold.objective.abs()),
        "warm {} vs cold {}",
        warm.objective,
        cold.objective
    );
    assert!(
        warm.dual_iterations >= 1,
        "the re-solve must enter through the dual engine"
    );
    assert!(
        warm.bound_flips >= 2,
        "expected a batched bound flip, got {} flips over {} dual pivots",
        warm.bound_flips,
        warm.dual_iterations
    );
    // The long-step test must not pivot once per breakpoint: the flips
    // ride on strictly fewer dual pivots than flipped variables.
    assert!(
        warm.dual_iterations < warm.bound_flips + 4,
        "flips {} vs dual pivots {}",
        warm.bound_flips,
        warm.dual_iterations
    );
}

/// Warm-start weight handoff, part 1: a chain of warm re-solves under
/// dual steepest-edge (each inheriting the previous basis *and* its
/// weight framework, with mid-solve refactorisations resetting drifted
/// weights) must agree with a cold solve at every step.
#[test]
fn dse_weight_handoff_survives_a_warm_resolve_chain() {
    let mut lp = random_bounded_lp(24, 16, 7);
    lp.set_pricing(PricingRule::DualSteepestEdge);
    let (mut solution, mut basis) = lp.solve_warm(None).expect("base solve");
    for step in 0..6 {
        // Tighten a rotating variable towards its current value — the
        // branch-and-bound bound-change pattern.
        let v = (step * 5) % lp.num_vars();
        let (lo, hi) = lp.bounds(v);
        let mid = solution.values[v].clamp(lo, hi);
        lp.set_bounds(v, lo, mid);
        let warm = lp.solve_warm(Some(&basis));
        let cold = lp.solve();
        match (warm, cold) {
            (Ok((w, b)), Ok(c)) => {
                assert!(
                    (w.objective - c.objective).abs() <= TOL * (1.0 + c.objective.abs()),
                    "step {step}: warm {} vs cold {}",
                    w.objective,
                    c.objective
                );
                solution = w;
                basis = b;
            }
            (Err(we), Err(ce)) => {
                assert_eq!(we, ce, "step {step}");
                break;
            }
            other => panic!("step {step}: warm/cold disagreement {other:?}"),
        }
    }
}

/// Warm-start weight handoff, part 2: an *appended row* (the lazy
/// separation protocol) extends the inherited weight
/// framework with unit entries for the new logical instead of resetting
/// it — observable as the warm re-solve of the grown model still agreeing
/// with a cold solve.
#[test]
fn dse_weights_survive_appended_rows() {
    let mut lp = random_bounded_lp(12, 6, 3);
    lp.set_pricing(PricingRule::DualSteepestEdge);
    let (solution, basis) = lp.solve_warm(None).expect("base solve");
    // Append a violated-ish cut through the current point: the row
    // extension keeps the old positions' weights and gives the new
    // logical a unit weight.
    let coeffs: Vec<(usize, f64)> = (0..lp.num_vars()).map(|v| (v, 1.0)).collect();
    let total: f64 = solution.values.iter().sum();
    lp.add_constraint(coeffs, ConstraintOp::Le, total - 0.1);
    let warm = lp.solve_warm(Some(&basis)).map(|(s, _)| s.objective);
    let cold = lp.solve().map(|s| s.objective);
    match (warm, cold) {
        (Ok(a), Ok(b)) => assert!(
            (a - b).abs() <= TOL * (1.0 + b.abs()),
            "warm {a} vs cold {b}"
        ),
        (Err(a), Err(b)) => assert_eq!(a, b),
        other => panic!("warm/cold disagreement {other:?}"),
    }
}

/// Warm-start weight handoff, part 2b: a *column* addition is the edit
/// the row-extension rule must NOT cover — the inherited weights are
/// dropped back to the unit framework (old_n changes), and the warm
/// re-solve of the wider model must still agree with a cold solve.
#[test]
fn dse_weights_reset_on_added_columns() {
    let mut lp = random_bounded_lp(12, 6, 3);
    lp.set_pricing(PricingRule::DualSteepestEdge);
    let (_, basis) = lp.solve_warm(None).expect("base solve");
    // New structural column entering an existing-style row: the weight
    // framework no longer describes the basis and must reset to unit.
    let v = lp.add_var();
    lp.set_bounds(v, 0.0, 2.0);
    lp.set_objective_coeff(v, -1.0);
    lp.add_constraint(vec![(0, 1.0), (v, 1.0)], ConstraintOp::Le, 1.5);
    let warm = lp.solve_warm(Some(&basis)).map(|(s, _)| s.objective);
    let cold = lp.solve().map(|s| s.objective);
    match (warm, cold) {
        (Ok(a), Ok(b)) => assert!(
            (a - b).abs() <= TOL * (1.0 + b.abs()),
            "warm {a} vs cold {b}"
        ),
        (Err(a), Err(b)) => assert_eq!(a, b),
        other => panic!("warm/cold disagreement {other:?}"),
    }
}

/// Warm-start weight handoff, part 3: alternating bound tightenings and
/// appended cut rows, every re-solve
/// warm from the previous basis. The extended weight framework must never
/// steer the dual engine away from the optimum (weights are a pricing
/// heuristic, so the only observable contract is warm/cold agreement at
/// every step of the chain).
#[test]
fn dse_weight_extension_survives_a_branch_and_cut_chain() {
    let mut lp = random_bounded_lp(20, 12, 3);
    lp.set_pricing(PricingRule::DualSteepestEdge);
    let (mut solution, mut basis) = lp.solve_warm(None).expect("base solve");
    for step in 0..6 {
        if step % 2 == 0 {
            // Branching-style bound tightening.
            let v = (step * 7) % lp.num_vars();
            let (lo, hi) = lp.bounds(v);
            lp.set_bounds(v, lo, solution.values[v].clamp(lo, hi));
        } else {
            // Cut-style appended row through the current point.
            let coeffs: Vec<(usize, f64)> =
                (0..lp.num_vars()).step_by(2).map(|v| (v, 1.0)).collect();
            let total: f64 = coeffs.iter().map(|&(v, _)| solution.values[v]).sum();
            lp.add_constraint(coeffs, ConstraintOp::Le, total + 1.0);
        }
        let warm = lp.solve_warm(Some(&basis));
        let cold = lp.solve();
        match (warm, cold) {
            (Ok((w, b)), Ok(c)) => {
                assert!(
                    (w.objective - c.objective).abs() <= TOL * (1.0 + c.objective.abs()),
                    "step {step}: warm {} vs cold {}",
                    w.objective,
                    c.objective
                );
                solution = w;
                basis = b;
            }
            (Err(we), Err(ce)) => {
                assert_eq!(we, ce, "step {step}");
                break;
            }
            other => panic!("step {step}: warm/cold disagreement {other:?}"),
        }
    }
}

/// Beale's classic cycling example: plain Dantzig pricing with a naive
/// ratio test cycles forever on it. The larger-pivot tie-break plus the
/// Bland fallback must terminate at the optimum (−0.05) under both rules.
#[test]
fn beale_cycling_example_terminates() {
    // min −0.75x1 + 150x2 − 0.02x3 + 6x4
    //  s.t. 0.25x1 − 60x2 − 0.04x3 + 9x4 ≤ 0
    //       0.5x1 − 90x2 − 0.02x3 + 3x4 ≤ 0
    //       x3 ≤ 1,   x ≥ 0.
    for rule in [PricingRule::DualSteepestEdge, PricingRule::Dantzig] {
        let mut lp = LinearProgram::new(4, Sense::Minimize);
        for (v, c) in [(0, -0.75), (1, 150.0), (2, -0.02), (3, 6.0)] {
            lp.set_objective_coeff(v, c);
        }
        lp.add_constraint(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(vec![(2, 1.0)], ConstraintOp::Le, 1.0);
        lp.set_pricing(rule);
        lp.set_iteration_limit(1_000);
        let s = lp
            .solve()
            .unwrap_or_else(|e| panic!("{rule:?}: Beale LP failed: {e}"));
        assert!(
            (s.objective + 0.05).abs() < 1e-9,
            "{rule:?}: objective {} != -0.05",
            s.objective
        );
    }
}

/// Kuhn's degenerate example (another classical cycler) must terminate at
/// its optimum under both pricing rules.
#[test]
fn kuhn_degenerate_example_terminates() {
    // min −2x1 − 3x2 + x3 + 12x4
    //  s.t. −2x1 − 9x2 + x3 + 9x4 ≤ 0
    //        x1/3 + x2 − x3/3 − 2x4 ≤ 0
    //        2x1 + 3x2 − x3 − 12x4 ≤ 2,   x ≥ 0.
    for rule in [PricingRule::DualSteepestEdge, PricingRule::Dantzig] {
        let mut lp = LinearProgram::new(4, Sense::Minimize);
        for (v, c) in [(0, -2.0), (1, -3.0), (2, 1.0), (3, 12.0)] {
            lp.set_objective_coeff(v, c);
        }
        lp.add_constraint(
            vec![(0, -2.0), (1, -9.0), (2, 1.0), (3, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(0, 1.0 / 3.0), (1, 1.0), (2, -1.0 / 3.0), (3, -2.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(0, 2.0), (1, 3.0), (2, -1.0), (3, -12.0)],
            ConstraintOp::Le,
            2.0,
        );
        lp.set_pricing(rule);
        lp.set_iteration_limit(1_000);
        let s = lp
            .solve()
            .unwrap_or_else(|e| panic!("{rule:?}: Kuhn LP failed: {e}"));
        let oracle = lp.solve_dense().expect("oracle solves");
        assert!(
            (s.objective - oracle.objective).abs() < 1e-6 * (1.0 + oracle.objective.abs()),
            "{rule:?}: objective {} != oracle {}",
            s.objective,
            oracle.objective
        );
    }
}
