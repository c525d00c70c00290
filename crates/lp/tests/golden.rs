//! Golden-LP regression suite.
//!
//! Asserts that the sparse revised simplex reproduces the objectives and
//! statuses of the previous production solver (the dense two-phase tableau,
//! retained as the hidden `solve_dense` oracle) on representative problem
//! classes, and that warm starts are behaviour-preserving: a warm re-solve
//! must reach the *same* optimum as a cold solve, in no more iterations.

use rfic_lp::{ConstraintOp, LinearProgram, LpError, Sense};

const TOL: f64 = 1e-6;

/// Cross-checks revised vs dense-oracle on one model.
fn assert_matches_oracle(lp: &LinearProgram, label: &str) {
    let revised = lp.solve();
    let dense = lp.solve_dense();
    match (&revised, &dense) {
        (Ok(r), Ok(d)) => {
            assert!(
                (r.objective - d.objective).abs() <= TOL * (1.0 + d.objective.abs()),
                "{label}: revised objective {} != dense objective {}",
                r.objective,
                d.objective
            );
        }
        (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
        (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
        (r, d) => panic!("{label}: revised {r:?} disagrees with dense oracle {d:?}"),
    }
}

/// Deterministic pseudo-random stream (no external dependency).
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn knapsack_relaxation(items: usize, seed: u64) -> LinearProgram {
    let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));
    let mut lp = LinearProgram::new(items, Sense::Maximize);
    let mut cap = Vec::with_capacity(items);
    let mut total_weight = 0.0;
    for i in 0..items {
        let value = 1.0 + 19.0 * rng.next_f64();
        let weight = 1.0 + 9.0 * rng.next_f64();
        lp.set_objective_coeff(i, value);
        lp.set_bounds(i, 0.0, 1.0);
        cap.push((i, weight));
        total_weight += weight;
    }
    lp.add_constraint(cap, ConstraintOp::Le, 0.5 * total_weight);
    lp
}

#[test]
fn golden_textbook_maximisation() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6).
    let mut lp = LinearProgram::new(2, Sense::Maximize);
    lp.set_objective_coeff(0, 3.0);
    lp.set_objective_coeff(1, 5.0);
    lp.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
    lp.add_constraint(vec![(1, 2.0)], ConstraintOp::Le, 12.0);
    lp.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
    let s = lp.solve().expect("solvable");
    assert!((s.objective - 36.0).abs() < TOL);
    assert!((s.values[0] - 2.0).abs() < TOL);
    assert!((s.values[1] - 6.0).abs() < TOL);
    assert_matches_oracle(&lp, "textbook");
}

#[test]
fn golden_knapsack_relaxations() {
    for items in [5, 12, 25] {
        for seed in 0..4 {
            let lp = knapsack_relaxation(items, seed);
            assert_matches_oracle(&lp, &format!("knapsack_{items}_{seed}"));
        }
    }
}

#[test]
fn golden_degenerate_cycling_guard() {
    // Highly degenerate: pairwise difference constraints through the
    // origin plus one budget row. Optimum 9 with all variables equal.
    let mut lp = LinearProgram::new(3, Sense::Maximize);
    for v in 0..3 {
        lp.set_objective_coeff(v, 1.0);
    }
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                lp.add_constraint(vec![(i, 1.0), (j, -1.0)], ConstraintOp::Le, 0.0);
            }
        }
    }
    lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Le, 9.0);
    let s = lp.solve().expect("terminates");
    assert!((s.objective - 9.0).abs() < TOL);
    assert_matches_oracle(&lp, "degenerate");
}

#[test]
fn golden_infeasible_and_unbounded() {
    let mut infeasible = LinearProgram::new(1, Sense::Minimize);
    infeasible.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 5.0);
    infeasible.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 3.0);
    assert_eq!(infeasible.solve(), Err(LpError::Infeasible));
    assert_matches_oracle(&infeasible, "infeasible");

    let mut unbounded = LinearProgram::new(1, Sense::Maximize);
    unbounded.set_objective_coeff(0, 1.0);
    unbounded.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 1.0);
    assert_eq!(unbounded.solve(), Err(LpError::Unbounded));
    assert_matches_oracle(&unbounded, "unbounded");

    // Unbounded through a free variable.
    let mut free_unbounded = LinearProgram::new(2, Sense::Minimize);
    free_unbounded.set_objective_coeff(0, 1.0);
    free_unbounded.set_bounds(0, f64::NEG_INFINITY, f64::INFINITY);
    free_unbounded.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 10.0);
    assert_eq!(free_unbounded.solve(), Err(LpError::Unbounded));
    assert_matches_oracle(&free_unbounded, "free_unbounded");
}

#[test]
fn golden_free_variables_and_ranges() {
    // min x + y, x free, y in [-5, -1], x + y >= -3 -> optimum -3.
    let mut lp = LinearProgram::new(2, Sense::Minimize);
    lp.set_objective_coeff(0, 1.0);
    lp.set_objective_coeff(1, 1.0);
    lp.set_bounds(0, f64::NEG_INFINITY, f64::INFINITY);
    lp.set_bounds(1, -5.0, -1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, -3.0);
    let s = lp.solve().expect("solvable");
    assert!((s.objective + 3.0).abs() < TOL);
    assert!(s.values[1] >= -5.0 - TOL && s.values[1] <= -1.0 + TOL);
    assert_matches_oracle(&lp, "free_and_ranged");

    // Fixed variable substitution.
    let mut fixed = LinearProgram::new(2, Sense::Minimize);
    fixed.set_objective_coeff(0, 1.0);
    fixed.set_objective_coeff(1, 10.0);
    fixed.set_bounds(1, 4.0, 4.0);
    fixed.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 6.0);
    let s = fixed.solve().expect("solvable");
    assert!((s.objective - 42.0).abs() < TOL);
    assert_matches_oracle(&fixed, "fixed_variable");
}

#[test]
fn golden_equalities_and_negative_rhs() {
    let mut lp = LinearProgram::new(2, Sense::Minimize);
    lp.set_objective_coeff(0, 1.0);
    lp.set_objective_coeff(1, 1.0);
    lp.add_constraint(vec![(0, 1.0), (1, 2.0)], ConstraintOp::Eq, 4.0);
    lp.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintOp::Eq, 8.0);
    let s = lp.solve().expect("solvable");
    assert!((s.objective - 3.0).abs() < TOL);
    assert_matches_oracle(&lp, "equalities");

    let mut neg = LinearProgram::new(2, Sense::Minimize);
    neg.set_objective_coeff(1, 1.0);
    neg.add_constraint(vec![(0, 1.0), (1, -1.0)], ConstraintOp::Le, -2.0);
    let s = neg.solve().expect("solvable");
    assert!((s.objective - 2.0).abs() < TOL);
    assert_matches_oracle(&neg, "negative_rhs");

    // Redundant (dependent) equalities keep the basis factorisable.
    let mut red = LinearProgram::new(2, Sense::Minimize);
    red.set_objective_coeff(0, 1.0);
    red.set_objective_coeff(1, 2.0);
    red.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
    red.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 5.0);
    red.add_constraint(vec![(0, 2.0), (1, 2.0)], ConstraintOp::Eq, 10.0);
    let s = red.solve().expect("solvable");
    assert!((s.objective - 5.0).abs() < TOL);
    assert_matches_oracle(&red, "redundant_eq");
}

#[test]
fn golden_random_cross_check_sweep() {
    // Broad randomized cross-check: mixed ops, mixed bound classes.
    for seed in 0..20u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let vars = 3 + (seed as usize % 6);
        let rows = 2 + (seed as usize % 5);
        let sense = if seed % 2 == 0 {
            Sense::Minimize
        } else {
            Sense::Maximize
        };
        let mut lp = LinearProgram::new(vars, sense);
        for v in 0..vars {
            lp.set_objective_coeff(v, -5.0 + 10.0 * rng.next_f64());
            match (seed + v as u64) % 4 {
                0 => lp.set_bounds(v, 0.0, 10.0 * rng.next_f64() + 0.5),
                1 => lp.set_bounds(v, -5.0 * rng.next_f64(), 5.0 + 5.0 * rng.next_f64()),
                2 => lp.set_bounds(v, 0.0, f64::INFINITY),
                _ => lp.set_bounds(v, -3.0, 3.0),
            }
        }
        for r in 0..rows {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for v in 0..vars {
                if rng.next_f64() < 0.7 {
                    coeffs.push((v, -2.0 + 4.0 * rng.next_f64()));
                }
            }
            if coeffs.is_empty() {
                continue;
            }
            let op = match r % 3 {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                _ => ConstraintOp::Eq,
            };
            lp.add_constraint(coeffs, op, -4.0 + 12.0 * rng.next_f64());
        }
        assert_matches_oracle(&lp, &format!("random_{seed}"));
    }
}

#[test]
fn warm_start_equals_cold_start_after_bound_change() {
    // Property: tightening one variable bound and re-solving warm yields
    // exactly the cold optimum, in no more iterations than the cold solve.
    let mut warm_total = 0usize;
    let mut cold_total = 0usize;
    for items in [8usize, 16, 24] {
        for seed in 0..6u64 {
            let lp = knapsack_relaxation(items, seed ^ 0xABCD);
            let (base, basis) = lp.solve_warm(None).expect("base solve");

            // Tighten the bound of the most fractional variable (the
            // branching step of B&B).
            let mut lp2 = lp.clone();
            let (branch, _) = base
                .values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, (v - v.round()).abs()))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("has variables");
            lp2.set_bounds(branch, 0.0, base.values[branch].floor().max(0.0));

            let (warm, _) = lp2.solve_warm(Some(&basis)).expect("warm solve");
            let cold = lp2.solve().expect("cold solve");
            assert!(
                (warm.objective - cold.objective).abs() <= TOL * (1.0 + cold.objective.abs()),
                "items={items} seed={seed}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            warm_total += warm.iterations;
            cold_total += cold.iterations;
        }
    }
    assert!(
        warm_total < cold_total,
        "warm re-solves should pivot less overall: warm {warm_total} vs cold {cold_total}"
    );
}

#[test]
fn warm_start_equals_cold_start_after_adding_constraint() {
    // Property: appending a violated cut and re-solving warm (dual entry
    // through the new logical) matches the cold optimum.
    let mut warm_total = 0usize;
    let mut cold_total = 0usize;
    for seed in 0..8u64 {
        let lp = knapsack_relaxation(14, seed ^ 0x5EED);
        let (base, basis) = lp.solve_warm(None).expect("base solve");

        // Cut off the current optimum: sum of the three largest values
        // must not exceed (their current sum - 0.4).
        let mut idx: Vec<usize> = (0..lp.num_vars()).collect();
        idx.sort_by(|&a, &b| base.values[b].partial_cmp(&base.values[a]).unwrap());
        let top: Vec<usize> = idx.into_iter().take(3).collect();
        let cut_rhs = top.iter().map(|&i| base.values[i]).sum::<f64>() - 0.4;
        let mut lp2 = lp.clone();
        lp2.add_constraint(
            top.iter().map(|&i| (i, 1.0)).collect(),
            ConstraintOp::Le,
            cut_rhs,
        );

        let (warm, _) = lp2.solve_warm(Some(&basis)).expect("warm solve");
        let cold = lp2.solve().expect("cold solve");
        assert!(
            (warm.objective - cold.objective).abs() <= TOL * (1.0 + cold.objective.abs()),
            "seed={seed}: warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        warm_total += warm.iterations;
        cold_total += cold.iterations;
    }
    assert!(
        warm_total < cold_total,
        "warm cut re-solves should pivot less overall: warm {warm_total} vs cold {cold_total}"
    );
}

#[test]
fn warm_start_with_stale_basis_falls_back_to_cold() {
    // A basis from a completely different (larger) model must not poison
    // the solve: solve_warm falls back to a cold start.
    let big = knapsack_relaxation(30, 7);
    let (_, big_basis) = big.solve_warm(None).expect("solve");
    let small = knapsack_relaxation(5, 3);
    let (warm, _) = small.solve_warm(Some(&big_basis)).expect("solve");
    let cold = small.solve().expect("solve");
    assert!((warm.objective - cold.objective).abs() < TOL * (1.0 + cold.objective.abs()));
}
