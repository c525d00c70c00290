//! Fault-injection contracts of the MILP layer (compiled only with the
//! `failpoints` feature): a panicking pool worker fails its own tree and
//! nothing else, and a forced singular basis surfaces as the numerical
//! error the fallback ladder upstream keys on.

#![cfg(feature = "failpoints")]

use rfic_lp::fault::{Fault, FaultPlan};
use rfic_lp::LpError;
use rfic_milp::{instances, MilpError, SolveOptions, SolverPool, WarmStart};

/// A panic inside a pool worker is contained: the solve it was serving
/// fails with [`MilpError::Internal`], the worker thread survives, and
/// the next solve on the same pool reproduces the uninjected result.
#[test]
fn pool_survives_a_worker_panic() {
    let model = instances::bench_knapsack(24);
    let options = SolveOptions::default();
    // Every uninjected solve of this file holds the fault scope (an empty
    // plan), or a concurrent test's armed fault could fire inside it.
    let clean = {
        let _quiet = FaultPlan::new().install();
        model.solve(&options).expect("uninjected solve")
    };

    let pool = SolverPool::new(2);
    {
        let _guard = FaultPlan::new()
            .fail("milp.pool.worker", Fault::Panic)
            .install();
        let err = model
            .solve_warm(&options, &mut WarmStart::new(), Some(&pool))
            .expect_err("the injected panic must fail the solve");
        assert!(
            matches!(err, MilpError::Internal { .. }),
            "expected a contained-panic error, got {err:?}"
        );
        assert!(
            err.to_string().contains("failpoint:milp.pool.worker"),
            "the panic payload names the failpoint: {err}"
        );
    }

    // Guard dropped: the plan is disarmed and the same pool keeps
    // solving, bit-identical to the uninjected run.
    let after = {
        let _quiet = FaultPlan::new().install();
        model
            .solve_warm(&options, &mut WarmStart::new(), Some(&pool))
            .expect("pool must survive a contained worker panic")
    };
    assert_eq!(after.status, clean.status);
    assert_eq!(after.objective, clean.objective);
    assert_eq!(after.values, clean.values);
    pool.shutdown();
}

/// A forced singular basis at the root relaxation surfaces as
/// [`LpError::InvalidModel`] — the exact error class the flow-level
/// fallback ladder retries on.
#[test]
fn forced_singular_root_surfaces_as_invalid_model() {
    let model = instances::bench_knapsack(16);
    let _guard = FaultPlan::new()
        .fail("milp.solve.root", Fault::Singular)
        .install();
    let err = model
        .solve(&SolveOptions::default())
        .expect_err("the forced singular basis must fail the solve");
    assert!(
        matches!(err, MilpError::Lp(LpError::InvalidModel(_))),
        "expected a numerical-failure error, got {err:?}"
    );
}
