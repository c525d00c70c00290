//! Dual-ray certificate suite: a warm re-solve whose dual simplex ends in
//! a ray reports [`LpError::Infeasible`] straight from the row's reach
//! bound instead of re-proving it with the primal — and must agree with a
//! cold solve and with the dense tableau oracle every time.
//!
//! The programs are seeded packing LPs with one dominant column per row,
//! the shape a branch-and-bound child takes when a branching bound pushes
//! a row past what its other columns can absorb. Each seed is first solved
//! to optimality; the child is that program with one tightened bound,
//! re-solved warm from the optimal basis. Infeasible children cover the
//! certificate; feasible children (the same row, a milder bound) guard
//! against a certificate that fires when it must not. Children whose
//! violated row can also be moved by a free or one-sided column with a
//! tiny coefficient (skipped by the ratio test, so not certifiable) must
//! fall through to the primal and report what a cold solve reports. Which
//! engine decided is only observable inside the crate, so the hand-off
//! itself is unit-tested next to the engine (`revised.rs`).

use rfic_lp::{ConstraintOp, LinearProgram, LpError, PricingRule, Sense};

const TOL: f64 = 1e-6;

/// Deterministic xorshift stream in [0, 1).
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f64 / 10_000.0
    }
}

/// `max cᵀx` over boxed `x ∈ [0, u]` with packing rows `Σ a_ij x_j ≤ b_i`
/// (non-negative coefficients, about half dense). Column `dominant[i]`
/// of row `i` carries twice the row's remaining capacity `S`, and
/// `b_i = 1.8·S`, so forcing that column above `0.95·u` leaves the row
/// infeasible by at least `0.1·S`. Returns the program, the dominant
/// column per row and the upper bounds.
fn packing_lp(vars: usize, rows: usize, seed: u64) -> (LinearProgram, Vec<usize>, Vec<f64>) {
    let mut next = stream(seed);
    let mut lp = LinearProgram::new(vars, Sense::Maximize);
    let upper: Vec<f64> = (0..vars).map(|_| 1.0 + 4.0 * next()).collect();
    for (v, &u) in upper.iter().enumerate() {
        lp.set_objective_coeff(v, 0.5 + next());
        lp.set_bounds(v, 0.0, u);
    }
    let mut dominant = Vec::with_capacity(rows);
    for _ in 0..rows {
        let k = ((next() * vars as f64) as usize).min(vars - 1);
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for v in 0..vars {
            let (keep, a) = (next() < 0.5, 0.2 + next());
            if v != k && keep {
                coeffs.push((v, a));
            }
        }
        let others: f64 = coeffs
            .iter()
            .map(|&(v, a)| a * upper[v])
            .sum::<f64>()
            .max(1.0);
        coeffs.push((k, 2.0 * others / upper[k]));
        coeffs.sort_unstable_by_key(|&(v, _)| v);
        lp.add_constraint(coeffs, ConstraintOp::Le, 1.8 * others);
        dominant.push(k);
    }
    (lp, dominant, upper)
}

/// Every (seed, pricing rule) pair of the sweep.
fn cases() -> impl Iterator<Item = (u64, PricingRule)> {
    (0..40u64).flat_map(|seed| {
        [PricingRule::DualSteepestEdge, PricingRule::Dantzig]
            .into_iter()
            .map(move |rule| (seed, rule))
    })
}

#[test]
fn infeasible_children_report_infeasible_like_cold_and_dense() {
    for (seed, rule) in cases() {
        let (mut lp, dominant, upper) = packing_lp(24, 12, 0xCE27_0000 + seed);
        lp.set_pricing(rule);
        let (_, basis) = lp.solve_warm(None).expect("the root is feasible");
        let row = (seed as usize) % dominant.len();
        let k = dominant[row];
        let mut child = lp.clone();
        child.set_bounds(k, 0.95 * upper[k], upper[k]);
        let context = format!("seed {seed} {rule:?} row {row} column {k}");
        assert_eq!(
            child.solve_warm(Some(&basis)).err(),
            Some(LpError::Infeasible),
            "warm: {context}"
        );
        assert_eq!(
            child.solve().err(),
            Some(LpError::Infeasible),
            "cold: {context}"
        );
        assert_eq!(
            child.solve_dense().err(),
            Some(LpError::Infeasible),
            "dense: {context}"
        );
    }
}

#[test]
fn infeasible_after_several_bound_changes_reports_infeasible() {
    // A deeper node: every dominant column pushed up at once, so several
    // rows are violated when the warm dual starts and it pivots before
    // it meets a ray.
    for (seed, rule) in cases() {
        let (mut lp, dominant, upper) = packing_lp(30, 10, 0xCE27_1000 + seed);
        lp.set_pricing(rule);
        let (_, basis) = lp.solve_warm(None).expect("the root is feasible");
        let mut child = lp.clone();
        for &k in &dominant {
            child.set_bounds(k, 0.97 * upper[k], upper[k]);
        }
        let context = format!("seed {seed} {rule:?}");
        assert_eq!(
            child.solve_warm(Some(&basis)).err(),
            Some(LpError::Infeasible),
            "warm: {context}"
        );
        assert_eq!(
            child.solve().err(),
            Some(LpError::Infeasible),
            "cold: {context}"
        );
        assert_eq!(
            child.solve_dense().err(),
            Some(LpError::Infeasible),
            "dense: {context}"
        );
    }
}

#[test]
fn feasible_children_are_not_certified_infeasible() {
    // The same row with a bound its other columns can absorb: the warm
    // dual must reach the optimum the cold and dense solves agree on.
    for (seed, rule) in cases() {
        let (mut lp, dominant, upper) = packing_lp(24, 12, 0xCE27_0000 + seed);
        lp.set_pricing(rule);
        let (_, basis) = lp.solve_warm(None).expect("the root is feasible");
        let row = (seed as usize) % dominant.len();
        let k = dominant[row];
        let mut child = lp.clone();
        child.set_bounds(k, 0.85 * upper[k], upper[k]);
        let context = format!("seed {seed} {rule:?} row {row} column {k}");
        let (warm, _) = child
            .solve_warm(Some(&basis))
            .unwrap_or_else(|e| panic!("warm: {context}: {e}"));
        let cold = child
            .solve()
            .unwrap_or_else(|e| panic!("cold: {context}: {e}"));
        let dense = child
            .solve_dense()
            .unwrap_or_else(|e| panic!("dense: {context}: {e}"));
        assert!(
            (warm.objective - cold.objective).abs() <= TOL * (1.0 + cold.objective.abs()),
            "{context}"
        );
        assert!(
            (warm.objective - dense.objective).abs() <= TOL * (1.0 + dense.objective.abs()),
            "{context}"
        );
    }
}

#[test]
fn rays_with_tiny_unbounded_columns_fall_through_and_match_cold() {
    for (seed, rule) in cases() {
        let (base, dominant, upper) = packing_lp(24, 12, 0xCE27_2000 + seed);
        let row = (seed as usize) % dominant.len();
        // Rebuild with one extra column that enters only the row to be
        // violated, with a coefficient below the ratio test's pivot
        // tolerance: free for even seeds, `≤ 0` for odd ones (it can only
        // decrease, which relaxes a `≤` row).
        let n = base.num_vars();
        let mut lp = LinearProgram::new(n + 1, Sense::Maximize);
        for v in 0..n {
            lp.set_objective_coeff(v, base.objective()[v]);
            let (lo, hi) = base.bounds(v);
            lp.set_bounds(v, lo, hi);
        }
        let upper_extra = if seed % 2 == 0 { f64::INFINITY } else { 0.0 };
        lp.set_bounds(n, f64::NEG_INFINITY, upper_extra);
        for (i, con) in base.constraints().iter().enumerate() {
            let mut coeffs = con.coeffs.clone();
            if i == row {
                coeffs.push((n, 1e-10));
            }
            lp.add_constraint(coeffs, con.op, con.rhs);
        }
        lp.set_pricing(rule);
        let (_, basis) = lp.solve_warm(None).expect("the root is feasible");
        let k = dominant[row];
        let mut child = lp.clone();
        child.set_bounds(k, 0.95 * upper[k], upper[k]);
        let context = format!("seed {seed} {rule:?} row {row} column {k}");
        match (child.solve_warm(Some(&basis)), child.solve()) {
            (Ok((warm, _)), Ok(cold)) => assert!(
                (warm.objective - cold.objective).abs() <= TOL * (1.0 + cold.objective.abs()),
                "{context}"
            ),
            (warm, cold) => assert_eq!(warm.err(), cold.err(), "{context}"),
        }
    }
}
