//! Refresh-at-branching suite: [`LinearProgram::refresh_basis`]
//! refactorises a basis whose update chain is too long for warm starts to
//! reuse, once, so that both branch-and-bound children (and the rounding
//! heuristic) adopt it instead of each refactorising the same columns.
//!
//! The contract is bit-exactness: a child's warm solve from the refreshed
//! basis must equal the same solve from the long-chain basis in every
//! value, the objective, every pivot counter and the returned basis. The
//! programs are seeded mixed-sense LPs large enough that a cold solve
//! ends with a long Forrest–Tomlin chain; the children tighten one
//! fractional variable down and up, like a branching step.

use rfic_lp::{ConstraintOp, LinearProgram, LpSolution, PricingRule, Sense};

/// Deterministic xorshift stream in [-1, 1).
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 10_000) as f64 / 5_000.0 - 1.0
    }
}

/// `min cᵀx` over boxes `[l, l + span]` with sparse `≤`/`≥` rows whose
/// right-hand sides keep the box centre feasible.
fn mixed_lp(vars: usize, rows: usize, seed: u64) -> LinearProgram {
    let mut next = stream(seed);
    let mut lp = LinearProgram::new(vars, Sense::Minimize);
    let mut centre = Vec::with_capacity(vars);
    for v in 0..vars {
        let lo = 4.0 * next();
        let span = 1.0 + 6.0 * next().abs();
        lp.set_bounds(v, lo, lo + span);
        lp.set_objective_coeff(v, 3.0 * next());
        centre.push(lo + 0.5 * span);
    }
    for r in 0..rows {
        let mut coeffs = Vec::new();
        for v in 0..vars {
            let c = next();
            if c.abs() > 0.6 {
                coeffs.push((v, 5.0 * c));
            }
        }
        let activity: f64 = coeffs.iter().map(|&(v, c)| c * centre[v]).sum();
        let slack = 1.0 + 3.0 * next().abs();
        if r % 2 == 0 {
            lp.add_constraint(coeffs, ConstraintOp::Le, activity + slack);
        } else {
            lp.add_constraint(coeffs, ConstraintOp::Ge, activity - slack);
        }
    }
    lp
}

fn bits(solution: &LpSolution) -> (Vec<u64>, u64, [usize; 3]) {
    (
        solution.values.iter().map(|v| v.to_bits()).collect(),
        solution.objective.to_bits(),
        [
            solution.iterations,
            solution.dual_iterations,
            solution.bound_flips,
        ],
    )
}

#[test]
fn child_solves_from_a_refreshed_basis_are_bit_identical() {
    let mut refreshed_parents = 0;
    let mut compared_children = 0;
    for seed in 0..60u64 {
        for rule in [PricingRule::DualSteepestEdge, PricingRule::Dantzig] {
            let mut lp = mixed_lp(50, 36, 0xB4A5_0000 + seed);
            lp.set_pricing(rule);
            let Ok((parent, long_chain)) = lp.solve_warm(None) else {
                continue;
            };
            let mut refreshed = long_chain.clone();
            if !lp.refresh_basis(&mut refreshed) {
                continue;
            }
            refreshed_parents += 1;
            assert_eq!(
                refreshed, long_chain,
                "refreshing must not change the basis itself"
            );
            // A fresh factor has no chain left to refresh.
            assert!(!lp.refresh_basis(&mut refreshed.clone()));
            // Branch on the most fractional variable.
            let (var, value) = parent
                .values
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| {
                    let f = |x: f64| (x - x.floor() - 0.5).abs();
                    f(b.1).total_cmp(&f(a.1))
                })
                .expect("variables");
            let (lo, hi) = lp.bounds(var);
            for (child_lo, child_hi) in [(lo, value.floor().max(lo)), (value.ceil().min(hi), hi)] {
                let mut child = lp.clone();
                child.set_bounds(var, child_lo, child_hi);
                let context = format!("seed {seed} {rule:?} var {var} [{child_lo}, {child_hi}]");
                match (
                    child.solve_warm(Some(&long_chain)),
                    child.solve_warm(Some(&refreshed)),
                ) {
                    (Ok((a, basis_a)), Ok((b, basis_b))) => {
                        assert_eq!(bits(&a), bits(&b), "{context}");
                        assert_eq!(basis_a, basis_b, "{context}");
                        // The long-chain start pays the refactorisation
                        // the refreshed one inherited.
                        assert_eq!(a.refactorizations, b.refactorizations + 1, "{context}");
                        compared_children += 1;
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{context}"),
                    (a, b) => panic!("{context}: {:?} vs {:?}", a.err(), b.err()),
                }
            }
        }
    }
    assert!(
        refreshed_parents >= 20,
        "only {refreshed_parents} parents had a long chain"
    );
    assert!(
        compared_children >= 20,
        "only {compared_children} children solved"
    );
}

#[test]
fn refresh_leaves_bases_of_another_matrix_alone() {
    let (mut lp, basis) = (0..60u64)
        .find_map(|seed| {
            let lp = mixed_lp(50, 36, 0xB4A5_0000 + seed);
            let (_, basis) = lp.solve_warm(None).ok()?;
            lp.refresh_basis(&mut basis.clone()).then_some((lp, basis))
        })
        .expect("a seed whose optimal basis has a long chain");
    // Same shape, other coefficients: the factor belongs to the first
    // matrix and must not be rebuilt against the second.
    let other = mixed_lp(50, 36, 0xB4A5_1000);
    assert!(!other.refresh_basis(&mut basis.clone()));
    // A structural edit changes the fingerprint and the shape.
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 1e6);
    assert!(!lp.refresh_basis(&mut basis.clone()));
}
