//! Determinism and equivalence guarantees of the parallel branch-and-bound
//! solver.
//!
//! The contract (see `DESIGN.md`): for any model and any thread count the
//! solver returns the **same optimal objective** and a **valid incumbent**
//! — the tree shape and which optimal solution is returned may vary, the
//! value may not. Presolve, warm starts and pool sharing likewise must
//! never change the optimum, only the effort needed to prove it.

use proptest::prelude::*;
use rfic_milp::{
    instances, LinExpr, MilpSolution, Model, Sense, SolveOptions, SolveStatus, SolverPool, VarKind,
    WarmStart,
};

/// Worker-thread counts the parallel determinism tests exercise.
///
/// Defaults to `{2, 4}` (next to the always-run serial reference); the
/// `RFIC_TEST_THREADS` environment variable overrides the list with
/// comma-separated counts so CI can pin the suite to what the runner can
/// actually schedule (`RFIC_TEST_THREADS=1` exercises the pool code on a
/// single worker, `=2` the real two-worker interleavings of a 2-vCPU
/// runner).
fn parallel_thread_counts() -> Vec<usize> {
    match std::env::var("RFIC_TEST_THREADS") {
        Ok(spec) => {
            let counts: Vec<usize> = spec
                .split(',')
                .filter_map(|part| part.trim().parse().ok())
                .filter(|&n| n >= 1)
                .collect();
            assert!(
                !counts.is_empty(),
                "RFIC_TEST_THREADS={spec:?} contains no usable thread counts"
            );
            counts
        }
        Err(_) => vec![2, 4],
    }
}

/// The golden MILP suite: one representative model per structural class the
/// layout engine generates.
fn golden_suite() -> Vec<(&'static str, Model)> {
    let mut suite = Vec::new();

    suite.push(("knapsack_small", instances::seeded_knapsack(12, 0xDAC2016)));
    suite.push(("knapsack_medium", instances::seeded_knapsack(22, 0x51)));
    suite.push(("facility_mixed", instances::seeded_facility(7, 0x99)));

    // Equality-constrained selection (the "choose exactly k" rows of the
    // segment-direction one-hot groups).
    let mut select = Model::new(Sense::Minimize);
    let xs: Vec<_> = (0..8)
        .map(|i| select.add_binary(1.0 + (i % 4) as f64))
        .collect();
    select.add_eq(LinExpr::sum(xs.iter().copied()), 3.0);
    select.add_ge(LinExpr::from(xs[0]) + xs[1] + xs[2], 1.0);
    suite.push(("equality_selection", select));

    // Big-M indicator structure (the non-overlap disjunctions).
    let mut bigm = Model::new(Sense::Minimize);
    let d1 = bigm.add_binary(0.0);
    let d2 = bigm.add_binary(0.0);
    let x = bigm.add_continuous(0.0, 100.0, 1.0);
    let y = bigm.add_continuous(0.0, 100.0, 1.0);
    bigm.add_ge(LinExpr::from(x) - (d1, 100.0), 30.0 - 100.0);
    bigm.add_ge(LinExpr::from(y) - (d2, 100.0), 40.0 - 100.0);
    bigm.add_le(LinExpr::from(d1) + d2, 1.0);
    bigm.add_ge(LinExpr::from(x) + y, 25.0);
    suite.push(("big_m_disjunction", bigm));

    // General integers with a fractional relaxation.
    let mut general = Model::new(Sense::Maximize);
    let a = general.add_integer(0.0, 9.0, 5.0);
    let b = general.add_integer(0.0, 9.0, 4.0);
    let c = general.add_var(VarKind::Integer, 0.0, 9.0, 3.0);
    general.add_le(LinExpr::from((a, 6.0)) + (b, 4.0) + (c, 5.0), 29.0);
    general.add_le(LinExpr::from((a, 1.0)) + (b, 3.0) + (c, 1.0), 11.0);
    suite.push(("general_integers", general));

    suite
}

fn assert_valid_incumbent(name: &str, model: &Model, solution: &MilpSolution) {
    assert!(
        model
            .violated_constraints(&solution.values, 1e-5)
            .is_empty(),
        "{name}: incumbent violates constraints"
    );
    let relaxation = model.relaxation();
    for (v, &value) in solution.values.iter().enumerate() {
        let (lo, hi) = relaxation.bounds(v);
        assert!(
            value >= lo - 1e-6 && value <= hi + 1e-6,
            "{name}: value {value} of var {v} outside [{lo}, {hi}]"
        );
    }
}

/// Same objective (and a valid incumbent) for `threads ∈ {1, 2, 4}` on the
/// whole golden suite — with root presolve on (the default) and off, in
/// every combination with the thread counts.
#[test]
fn golden_suite_objective_is_thread_count_invariant() {
    for (name, model) in golden_suite() {
        let reference = model
            .solve(&SolveOptions::default())
            .unwrap_or_else(|e| panic!("{name}: serial solve failed: {e}"));
        assert_eq!(reference.status, SolveStatus::Optimal, "{name}");
        assert_valid_incumbent(name, &model, &reference);
        let mut configs = vec![SolveOptions::default().without_presolve()];
        for threads in parallel_thread_counts() {
            configs.push(SolveOptions::default().with_threads(threads));
            configs.push(
                SolveOptions::default()
                    .without_presolve()
                    .with_threads(threads),
            );
        }
        for opts in configs {
            let parallel = model
                .solve(&opts)
                .unwrap_or_else(|e| panic!("{name}: solve failed ({opts:?}): {e}"));
            assert_eq!(parallel.status, SolveStatus::Optimal, "{name} ({opts:?})");
            assert!(
                (parallel.objective - reference.objective).abs()
                    <= 1e-6 * (1.0 + reference.objective.abs()),
                "{name}: objective {} != serial {} under {opts:?}",
                parallel.objective,
                reference.objective
            );
            assert_valid_incumbent(name, &model, &parallel);
        }
    }
}

/// Presolve must be *equivalence-preserving*: the reduced-space search
/// postsolves to the same optimum as the raw-relaxation search, and the
/// stats only report reductions when presolve is on.
#[test]
fn golden_suite_presolve_on_off_equivalence() {
    for (name, model) in golden_suite() {
        let with_presolve = model
            .solve(&SolveOptions::default())
            .unwrap_or_else(|e| panic!("{name}: presolve-on solve failed: {e}"));
        let without = model
            .solve(&SolveOptions::default().without_presolve())
            .unwrap_or_else(|e| panic!("{name}: presolve-off solve failed: {e}"));
        assert!(
            (with_presolve.objective - without.objective).abs()
                <= 1e-6 * (1.0 + without.objective.abs()),
            "{name}: presolve changed the optimum: {} vs {}",
            with_presolve.objective,
            without.objective
        );
        assert_valid_incumbent(name, &model, &with_presolve);
        assert_eq!(
            without.presolve.rows_removed + without.presolve.cols_removed,
            0,
            "{name}: presolve-off run reports reductions"
        );
    }
}

/// Pool sharing must be invisible: a tree scheduled on a shared
/// [`SolverPool`] returns the same objective as a dedicated scoped-thread
/// solve, for every thread count and *while another tree contends for the
/// same workers*. This is the many-tree generalisation of the
/// thread-count-invariance contract — a pool worker runs the identical
/// node loop, so k attached workers must be indistinguishable from a
/// k-thread solve no matter what else the pool is serving.
#[test]
fn golden_suite_objective_is_invariant_under_pool_sharing() {
    let counts = parallel_thread_counts();
    let max_threads = counts.iter().copied().max().unwrap_or(2);
    let pool = SolverPool::new(max_threads.max(2));
    for (name, model) in golden_suite() {
        let reference = model
            .solve(&SolveOptions::default())
            .unwrap_or_else(|e| panic!("{name}: serial solve failed: {e}"));
        for &threads in &counts {
            let opts = SolveOptions::default().with_threads(threads);
            let decoy_model = instances::seeded_knapsack(16, 0xF00 + threads as u64);
            std::thread::scope(|scope| {
                let decoy = scope.spawn(|| {
                    decoy_model
                        .solve_warm(
                            &SolveOptions::default().with_threads(2),
                            &mut WarmStart::new(),
                            Some(&pool),
                        )
                        .expect("decoy tree solves")
                        .objective
                });
                let pooled = model
                    .solve_warm(&opts, &mut WarmStart::new(), Some(&pool))
                    .unwrap_or_else(|e| panic!("{name}: pooled solve failed ({opts:?}): {e}"));
                assert_eq!(pooled.status, SolveStatus::Optimal, "{name} ({opts:?})");
                assert!(
                    (pooled.objective - reference.objective).abs()
                        <= 1e-6 * (1.0 + reference.objective.abs()),
                    "{name}: pooled objective {} != serial {} under {opts:?}",
                    pooled.objective,
                    reference.objective
                );
                assert_valid_incumbent(name, &model, &pooled);
                let decoy_obj = decoy.join().expect("decoy thread");
                let decoy_solo = decoy_model
                    .solve(&SolveOptions::default().with_threads(2))
                    .expect("decoy solo solve");
                assert!(
                    (decoy_obj - decoy_solo.objective).abs()
                        <= 1e-6 * (1.0 + decoy_solo.objective.abs()),
                    "decoy tree objective drifted under pool sharing"
                );
            });
        }
    }
    pool.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised determinism property: seeded knapsacks of arbitrary size
    /// and seed solve to the same objective for 1, 2 and 4 threads, warm
    /// or cold, with and without presolve.
    #[test]
    fn random_knapsack_objective_is_solver_config_invariant(
        items in 8usize..20,
        seed in 0u64..1000,
    ) {
        let model = instances::seeded_knapsack(items, seed);
        let reference = model.solve(&SolveOptions::default()).expect("serial");
        prop_assert_eq!(reference.status, SolveStatus::Optimal);
        let mut configs = vec![
            SolveOptions::default().cold(),
            SolveOptions::default().without_presolve(),
        ];
        for threads in parallel_thread_counts() {
            configs.push(SolveOptions::default().with_threads(threads));
        }
        for opts in configs {
            let other = model.solve(&opts).expect("solve");
            prop_assert_eq!(other.status, SolveStatus::Optimal);
            prop_assert!(
                (other.objective - reference.objective).abs()
                    <= 1e-6 * (1.0 + reference.objective.abs()),
                "objective {} != reference {} under {:?}",
                other.objective,
                reference.objective,
                opts
            );
            prop_assert!(model.violated_constraints(&other.values, 1e-5).is_empty());
        }
    }

    /// Mixed-integer models (continuous columns next to the binaries):
    /// presolve and threads never change the optimum.
    #[test]
    fn random_facility_objective_is_solver_config_invariant(
        facilities in 4usize..9,
        seed in 0u64..500,
    ) {
        let model = instances::seeded_facility(facilities, seed);
        let reference = model.solve(&SolveOptions::default()).expect("serial");
        let mut configs = vec![
            SolveOptions::default().without_presolve(),
        ];
        if let Some(&threads) = parallel_thread_counts().last() {
            configs.push(SolveOptions::default().with_threads(threads));
        }
        for opts in configs {
            let other = model.solve(&opts).expect("solve");
            prop_assert!(
                (other.objective - reference.objective).abs()
                    <= 1e-6 * (1.0 + reference.objective.abs()),
                "objective {} != reference {} under {:?}",
                other.objective,
                reference.objective,
                opts
            );
        }
    }
}
