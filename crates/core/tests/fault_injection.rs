//! Fault-injection contracts of the layout-job flow (compiled only with
//! the `failpoints` feature): a panic anywhere inside a job — a solver
//! worker, the flow thread itself or one variant of a sweep — fails that
//! job (or variant) alone with [`PilpError::Internal`], the shared
//! context stays healthy, and the next identical job reproduces the
//! uninjected layout bit-for-bit. A forced singular basis instead
//! recovers in-place through the solver fallback ladder.

#![cfg(feature = "failpoints")]

use std::time::Duration;

use rfic_core::{JobContext, Pilp, PilpConfig, PilpError};
use rfic_lp::fault::{Fault, FaultPlan};
use rfic_netlist::benchmarks;

fn assert_full_quality(result: &rfic_core::PilpResult) {
    let report = result.report();
    assert_eq!(
        report.exact_lengths(),
        report.strips.len(),
        "every strip must reach its exact target length"
    );
    assert_eq!(report.drc_violations, 0, "the layout must be DRC-clean");
}

/// An injected panic inside a solver-pool worker fails only the job it
/// was serving; the next identical job on the same context reproduces
/// the uninjected result bit-for-bit.
#[test]
fn worker_panic_fails_one_job_and_the_pool_recovers_bit_identically() {
    let circuit = benchmarks::tiny_circuit();
    let pilp = Pilp::new(PilpConfig::fast());

    // Uninjected reference run on its own context. Every run of this
    // file holds the fault scope (an empty plan here), or a concurrent
    // test's armed fault could fire inside it.
    let reference = {
        let _quiet = FaultPlan::new().install();
        let ctx = JobContext::new(2);
        let result = pilp
            .submit_in(&circuit.netlist, &ctx)
            .wait()
            .expect("reference job");
        ctx.shutdown();
        result
    };

    let ctx = JobContext::new(2);
    {
        let _guard = FaultPlan::new()
            .fail("milp.pool.worker", Fault::Panic)
            .install();
        let err = pilp
            .submit_in(&circuit.netlist, &ctx)
            .wait()
            .expect_err("the injected panic must fail the job");
        match &err {
            PilpError::Internal { payload, .. } => assert!(
                payload.contains("failpoint:milp.pool.worker"),
                "the panic payload names the failpoint: {payload}"
            ),
            other => panic!("expected PilpError::Internal, got {other:?}"),
        }
    }

    // Guard dropped: the same context — same pool, same cache — solves
    // the identical request to the identical layout.
    let retry = {
        let _quiet = FaultPlan::new().install();
        pilp.submit_in(&circuit.netlist, &ctx)
            .wait()
            .expect("the pool must survive a contained worker panic")
    };
    assert_eq!(
        retry.layout, reference.layout,
        "the post-panic job must be bit-identical to an uninjected run"
    );
    assert_full_quality(&retry);
    ctx.shutdown();
}

/// A forced singular basis fails the first LP solve numerically; the
/// fallback ladder re-solves under a safe configuration and the job
/// finishes at full quality, counting the recovery in its totals.
#[test]
fn singular_basis_recovers_through_the_fallback_ladder() {
    let circuit = benchmarks::tiny_circuit();
    let ctx = JobContext::new(2);
    let _guard = FaultPlan::new()
        .fail("lp.revised.solve", Fault::Singular)
        .install();
    let result = Pilp::new(PilpConfig::fast())
        .submit_in(&circuit.netlist, &ctx)
        .wait()
        .expect("the fallback ladder must recover the solve");
    assert!(
        result.solver.fallback_attempts >= 1,
        "the ladder must have been entered: {:?}",
        result.solver
    );
    assert!(
        result.solver.fallback_recoveries >= 1,
        "the ladder must have recovered: {:?}",
        result.solver
    );
    assert_full_quality(&result);
    ctx.shutdown();
}

/// A panic on the flow thread itself (outside any solver) is caught at
/// the job boundary; the context survives and runs the next job.
#[test]
fn flow_thread_panic_is_contained_as_internal() {
    let circuit = benchmarks::tiny_circuit();
    let pilp = Pilp::new(PilpConfig::fast());
    let ctx = JobContext::new(1);
    {
        let _guard = FaultPlan::new()
            .fail("core.job.flow", Fault::Panic)
            .install();
        let err = pilp
            .submit_in(&circuit.netlist, &ctx)
            .wait()
            .expect_err("the flow-thread panic must fail the job");
        match &err {
            PilpError::Internal { site, payload } => {
                assert_eq!(site, "core.job.flow");
                assert!(
                    payload.contains("failpoint:core.job.flow"),
                    "payload: {payload}"
                );
            }
            other => panic!("expected PilpError::Internal, got {other:?}"),
        }
    }
    let retry = {
        let _quiet = FaultPlan::new().install();
        pilp.submit_in(&circuit.netlist, &ctx)
            .wait()
            .expect("the context must survive a contained flow panic")
    };
    assert!(retry.layout.is_complete(&circuit.netlist));
    ctx.shutdown();
}

/// A panic on a sweep variant's flow is caught at that variant's
/// boundary: the variant fails alone and the next variant of the same
/// sweep still lays out at full quality.
#[test]
fn sweep_variant_panic_fails_only_that_variant() {
    let circuit = benchmarks::tiny_circuit();
    let variants = vec![circuit.netlist.clone(), circuit.netlist.clone()];
    let ctx = JobContext::new(1);
    let results = {
        let _guard = FaultPlan::new()
            .fail("core.job.flow", Fault::Panic)
            .install();
        Pilp::new(PilpConfig::fast())
            .submit_sweep_in(&variants, &ctx)
            .wait()
    };
    assert_eq!(results.len(), 2);
    match &results[0] {
        Err(PilpError::Internal { site, payload }) => {
            // A sweep variant is a plain job: its panic site is the job's.
            assert_eq!(site, "core.job.flow");
            assert!(
                payload.contains("failpoint:core.job.flow"),
                "payload: {payload}"
            );
        }
        other => panic!("expected PilpError::Internal, got {other:?}"),
    }
    let survivor = results[1]
        .as_ref()
        .expect("the second variant must survive the first one's panic");
    assert_full_quality(survivor);
    ctx.shutdown();
}

/// A delay injected at a flow checkpoint pushes the job past its
/// deadline: the overall deadline wins over forward progress.
#[test]
fn checkpoint_delay_trips_the_deadline() {
    let circuit = benchmarks::tiny_circuit();
    let config = PilpConfig {
        deadline: Some(Duration::from_millis(50)),
        ..PilpConfig::fast()
    };
    let ctx = JobContext::new(1);
    let _guard = FaultPlan::new()
        .fail("core.job.checkpoint", Fault::Delay(200))
        .install();
    let err = Pilp::new(config)
        .submit_in(&circuit.netlist, &ctx)
        .wait()
        .expect_err("the delayed checkpoint must exceed the deadline");
    assert!(
        matches!(err, PilpError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    ctx.shutdown();
}
