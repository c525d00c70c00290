//! End-to-end contracts of the layout-job API: cancellation releases the
//! shared pool, identical requests replay from the solve-site cache, and
//! a job solves to the same layout whether it runs alone, next to
//! another job or after other jobs on the same context.

use std::time::{Duration, Instant};

use rfic_core::{render, JobContext, Pilp, PilpConfig, PilpError};
use rfic_netlist::json::Json;
use rfic_netlist::{benchmarks, wire, Netlist};

/// Cancellation mid-phase surfaces as [`PilpError::Cancelled`] and the
/// pool workers the job occupied become available again: a follow-up job
/// on the same context completes normally.
#[test]
fn cancelled_job_fails_fast_and_releases_the_pool() {
    let ctx = JobContext::new(2);
    let circuit = benchmarks::tiny_circuit();
    let job = Pilp::new(PilpConfig::fast()).submit_in(&circuit.netlist, &ctx);

    // Let the flow get into its first solves, then pull the plug.
    let start = Instant::now();
    while job.progress().solves == 0 && start.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(5));
    }
    job.cancel();
    assert!(job.is_cancelled());
    let result = job.wait();
    assert!(
        matches!(result, Err(PilpError::Cancelled)),
        "cancelled job must fail with Cancelled, got {result:?}"
    );
    assert!(job.progress().done);

    // The pool is still healthy: a fresh job runs to completion.
    let retry = Pilp::new(PilpConfig::fast()).submit_in(&circuit.netlist, &ctx);
    let layout = retry.wait().expect("pool stays usable after a cancel");
    assert!(layout.layout.is_complete(&circuit.netlist));
    ctx.shutdown();
}

/// Two identical requests against one context: the second replays every
/// solve site from the memoized cache — identical layout, counted cache
/// hits, measurably fewer solves and simplex pivots.
#[test]
fn identical_jobs_reuse_the_solve_site_cache() {
    let ctx = JobContext::new(2);
    let circuit = benchmarks::tiny_circuit();
    let pilp = Pilp::new(PilpConfig::fast());

    let first = pilp
        .submit_in(&circuit.netlist, &ctx)
        .wait()
        .expect("first job");
    assert!(!ctx.cache().is_empty(), "completed solve sites are cached");
    let hits_after_first = ctx.cache().hits();

    let second = pilp
        .submit_in(&circuit.netlist, &ctx)
        .wait()
        .expect("second job");
    assert!(
        ctx.cache().hits() > hits_after_first,
        "identical request must hit the cache ({} hits after first run, {} after second)",
        hits_after_first,
        ctx.cache().hits()
    );
    assert_eq!(
        first.layout, second.layout,
        "cache reuse must reproduce the identical layout"
    );
    assert!(
        second.solver.solves < first.solver.solves,
        "memoized replay must re-solve fewer sites: {} vs {}",
        second.solver.solves,
        first.solver.solves
    );
    assert!(
        second.solver.simplex_iterations < first.solver.simplex_iterations,
        "memoized replay must pivot less: {} vs {}",
        second.solver.simplex_iterations,
        first.solver.simplex_iterations
    );
    ctx.shutdown();
}

/// A sweep is its jobs: an 8-variant sweep yields layouts bit-identical
/// to the same variants submitted one at a time on a fresh context.
#[test]
fn sweep_matches_sequential_individual_submissions() {
    let circuit = benchmarks::tiny_circuit();
    let variants: Vec<_> = (0..8)
        .map(|i| circuit.netlist.with_target_scale(1.0 + 0.01 * i as f64))
        .collect();
    let pilp = Pilp::new(PilpConfig::fast());

    let sequential: Vec<_> = {
        let ctx = JobContext::new(2);
        let results: Vec<_> = variants
            .iter()
            .map(|netlist| {
                pilp.submit_in(netlist, &ctx)
                    .wait()
                    .expect("sequential variant")
            })
            .collect();
        ctx.shutdown();
        results
    };

    let ctx = JobContext::new(2);
    let sweep = pilp.submit_sweep_in(&variants, &ctx);
    let results = sweep.wait();
    assert_eq!(sweep.completed(), 8);
    ctx.shutdown();

    assert_eq!(results.len(), sequential.len());
    for (i, (swept, solo)) in results.iter().zip(&sequential).enumerate() {
        let swept = swept.as_ref().expect("sweep variant succeeds");
        assert_eq!(
            swept.layout, solo.layout,
            "sweep variant {i} must be bit-identical to its individual submission"
        );
    }
}

/// A job's result is independent of what else shares the pool: the tiny
/// circuit solves to the identical layout alone and next to a second,
/// different circuit running concurrently.
#[test]
fn job_layout_is_invariant_under_concurrent_neighbours() {
    let circuit = benchmarks::tiny_circuit();
    // A structurally different neighbour (different fingerprint, so the
    // shared cache cannot cross-seed between the two jobs).
    let neighbour = circuit.netlist.with_area(
        circuit.netlist.area().0 + 60.0,
        circuit.netlist.area().1 + 40.0,
    );
    let pilp = Pilp::new(PilpConfig::fast());

    let alone = {
        let ctx = JobContext::new(3);
        let result = pilp
            .submit_in(&circuit.netlist, &ctx)
            .wait()
            .expect("solo job");
        ctx.shutdown();
        result
    };

    let ctx = JobContext::new(3);
    let job = pilp.submit_in(&circuit.netlist, &ctx);
    let other = pilp.submit_in(&neighbour, &ctx);
    let alongside = job.wait().expect("job next to a neighbour");
    let neighbour_result = other.wait().expect("neighbour job");
    ctx.shutdown();

    assert_eq!(
        alone.layout, alongside.layout,
        "pool sharing must not change a job's layout"
    );
    assert_eq!(alone.solver.solves, alongside.solver.solves);
    assert!(neighbour_result.layout.is_complete(&neighbour));
}

/// `netlist` under another circuit name: the same structure with a new
/// fingerprint, so no solve site of one can hit the other's cache entry.
fn renamed(netlist: &Netlist, name: &str) -> Netlist {
    let mut doc = wire::to_json(netlist);
    if let Json::Object(map) = &mut doc {
        map.insert("name".to_owned(), Json::String(name.to_owned()));
    }
    wire::parse_netlist(&doc).expect("renamed netlist parses")
}

/// A job's layout does not depend on the jobs that ran before it on the
/// same context: the tiny circuit under a second name (the solve-site
/// cache cannot hit) lays out exactly as under the first name and as on a
/// fresh context, down to the rendered SVG.
#[test]
fn job_layout_is_independent_of_earlier_jobs() {
    let circuit = benchmarks::tiny_circuit();
    let first_name = renamed(&circuit.netlist, "tiny-first");
    let second_name = renamed(&circuit.netlist, "tiny-second");
    assert_ne!(first_name.fingerprint(), second_name.fingerprint());
    let pilp = Pilp::new(PilpConfig::fast());

    let ctx = JobContext::new(2);
    let first = pilp.submit_in(&first_name, &ctx).wait().expect("first job");
    let hits_before = ctx.cache().hits();
    let second = pilp
        .submit_in(&second_name, &ctx)
        .wait()
        .expect("second job");
    assert_eq!(
        ctx.cache().hits(),
        hits_before,
        "a new fingerprint must not hit the solve-site cache"
    );
    ctx.shutdown();

    let fresh = {
        let ctx = JobContext::new(2);
        let result = pilp
            .submit_in(&second_name, &ctx)
            .wait()
            .expect("job on a fresh context");
        ctx.shutdown();
        result
    };

    assert_eq!(second.layout, first.layout, "same structure, same layout");
    assert_eq!(
        second.layout, fresh.layout,
        "earlier jobs on the context must not change a job's layout"
    );
    let svg = render::svg(&second_name, &second.layout);
    assert_eq!(svg, render::svg(&first_name, &first.layout));
    assert_eq!(svg, render::svg(&second_name, &fresh.layout));
}
