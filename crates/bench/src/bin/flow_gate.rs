//! CI flow-regression gate: the end-to-end companion of `bench_gate`.
//!
//! The solver micro-benchmarks protect individual kernels; this gate
//! protects the *flow-level* result those kernels buy — the tiny-circuit
//! P-ILP run that must reach exact length on every strip in seconds, not
//! minutes. It measures the flow, job-API throughput (several concurrent
//! tiny-circuit jobs over one shared solver pool, recorded as
//! requests/sec) and a batched sweep; each measurement folds its layouts
//! into one [`FlowRecord`] (length matching, bends, DRC status and the
//! summed solver traffic). It writes the records to
//! `target/flow_current.json` and fails when any layout is not exact and
//! DRC-clean, or the wall time regresses past the threshold against the
//! committed `BENCH_flow.json` baseline.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rfic-bench --bin flow_gate -- \
//!     [--baseline BENCH_flow.json] \
//!     [--current target/flow_current.json]  # skip re-running the flow
//!     [--threshold 30]                      # percent wall-time regression
//!     [--record BENCH_flow.json]            # refresh the baseline instead
//! ```

use std::process::ExitCode;
use std::time::Instant;

use rfic_bench::gate::{flow_gate, flow_json, parse_flow_json, write_target_artifact, FlowRecord};
use rfic_core::{JobContext, Pilp, PilpConfig};
use rfic_netlist::benchmarks;

/// Number of concurrent layout jobs in the throughput measurement.
const CONCURRENT_JOBS: usize = 4;

/// Number of variants in the parameter-sweep measurement.
const SWEEP_VARIANTS: usize = 8;

/// Absolute wall-time regression floor (ms): differences smaller than this
/// are scheduler noise on a shared runner, never a lost optimisation. The
/// tiny flow runs ~7 s, so 2 s ≈ the noise band observed across CI hosts.
const MIN_ABS_REGRESSION_MS: f64 = 2_000.0;

fn fail(message: &str) -> ExitCode {
    eprintln!("flow-gate: error: {message}");
    ExitCode::from(2)
}

/// Runs the tiny-circuit flow once and measures it.
fn measure_tiny_flow() -> Result<FlowRecord, String> {
    let circuit = benchmarks::tiny_circuit();
    let netlist = &circuit.netlist;
    println!("flow-gate: running the tiny-circuit P-ILP flow (fast config) ...");
    let start = Instant::now();
    let result = Pilp::new(PilpConfig::fast())
        .run(netlist)
        .map_err(|e| format!("P-ILP run failed: {e}"))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    FlowRecord::from_results(netlist.name(), wall_ms, &[result])
}

/// Runs [`CONCURRENT_JOBS`] identical tiny-circuit jobs over one shared
/// [`JobContext`] (one solver pool, one solve-site cache) and measures
/// completed requests per second.
fn measure_concurrent_throughput() -> Result<FlowRecord, String> {
    let circuit = benchmarks::tiny_circuit();
    let netlist = &circuit.netlist;
    println!(
        "flow-gate: running {CONCURRENT_JOBS} concurrent tiny-circuit jobs over one shared pool ..."
    );
    let ctx = JobContext::new(0);
    let pilp = Pilp::new(PilpConfig::fast());
    let start = Instant::now();
    let handles: Vec<_> = (0..CONCURRENT_JOBS)
        .map(|_| pilp.submit_in(netlist, &ctx))
        .collect();
    let results = handles
        .iter()
        .enumerate()
        .map(|(i, handle)| {
            handle
                .wait()
                .map_err(|e| format!("concurrent job {i} failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ctx.shutdown();
    let name = format!("{} x{CONCURRENT_JOBS} jobs", netlist.name());
    Ok(FlowRecord {
        requests_per_sec: CONCURRENT_JOBS as f64 / (wall_ms / 1e3),
        ..FlowRecord::from_results(name, wall_ms, &results)?
    })
}

/// Target-length scales of the sweep measurement's variants — the fine
/// 0.5% perturbations a matching-network length sweep actually explores.
/// Scaling targets *up* keeps every variant routable in the fixed area.
/// Every scale on the list completes DRC-clean with all lengths exact
/// (1.015 is skipped: its refinement leaves one spacing violation), so
/// the gate measures sweeps rather than flow robustness.
const SWEEP_SCALES: [f64; SWEEP_VARIANTS] = [1.0, 1.005, 1.01, 1.02, 1.025, 1.03, 1.035, 1.04];

/// Measures a parameter sweep: [`SWEEP_VARIANTS`] tiny-circuit variants
/// ([`SWEEP_SCALES`]) as one batched [`Pilp::submit_sweep_in`] sweep over
/// a fresh [`JobContext`].
fn measure_sweep() -> Result<FlowRecord, String> {
    let circuit = benchmarks::tiny_circuit();
    let variants: Vec<_> = SWEEP_SCALES
        .iter()
        .map(|&scale| circuit.netlist.with_target_scale(scale))
        .collect();
    let pilp = Pilp::new(PilpConfig::fast());

    println!("flow-gate: running {SWEEP_VARIANTS} tiny-circuit variants as one batched sweep ...");
    let ctx = JobContext::new(0);
    let sweep_start = Instant::now();
    let outcomes = pilp.submit_sweep_in(&variants, &ctx).wait();
    let wall_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
    ctx.shutdown();
    let results = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| outcome.map_err(|e| format!("sweep variant {i} failed: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FlowRecord {
        sweep_variants: SWEEP_VARIANTS,
        ..FlowRecord::from_results(format!("tiny sweep x{SWEEP_VARIANTS}"), wall_ms, &results)?
    })
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_flow.json".to_string();
    let mut current_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut threshold_pct = 30.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => match args.next() {
                Some(v) => baseline_path = v,
                None => return fail("--baseline needs a path"),
            },
            "--current" => match args.next() {
                Some(v) => current_path = Some(v),
                None => return fail("--current needs a path"),
            },
            "--record" => match args.next() {
                Some(v) => record_path = Some(v),
                None => return fail("--record needs a path"),
            },
            "--threshold" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold_pct = v,
                None => return fail("--threshold needs a number (percent)"),
            },
            "--help" | "-h" => {
                println!(
                    "flow_gate [--baseline <json>] [--current <json>] [--threshold <pct>] \
                     [--record <json>]"
                );
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other}")),
        }
    }

    // Obtain the current measurement (a pre-recorded file, or a live run).
    let current = match &current_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => return fail(&format!("cannot read current run {path}: {e}")),
            };
            match parse_flow_json(&text) {
                Ok(records) => records,
                Err(e) => return fail(&format!("cannot parse current run {path}: {e}")),
            }
        }
        None => {
            let single = match measure_tiny_flow() {
                Ok(record) => record,
                Err(e) => return fail(&e),
            };
            let concurrent = match measure_concurrent_throughput() {
                Ok(record) => record,
                Err(e) => return fail(&e),
            };
            let sweep = match measure_sweep() {
                Ok(record) => record,
                Err(e) => return fail(&e),
            };
            vec![single, concurrent, sweep]
        }
    };
    for record in &current {
        println!("flow-gate: {record}");
    }

    // Persist the measurement for the CI artifact.
    let current_json = flow_json(&current);
    write_target_artifact("flow_current.json", &current_json);

    // Baseline-refresh mode: record and exit.
    if let Some(path) = record_path {
        return match std::fs::write(&path, &current_json) {
            Ok(()) => {
                println!("flow-gate: baseline written to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("cannot write baseline {path}: {e}")),
        };
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read baseline {baseline_path}: {e}")),
    };
    let baseline = match parse_flow_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot parse baseline {baseline_path}: {e}")),
    };

    let report = flow_gate(&baseline, &current, threshold_pct, MIN_ABS_REGRESSION_MS);
    for note in &report.notes {
        println!("  note  {note}");
    }
    for failure in &report.failures {
        println!("  FAIL  {failure}");
    }
    if report.ok() {
        println!("flow-gate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flow-gate: FAIL — investigate, or refresh the baseline with \
             `cargo run --release -p rfic-bench --bin flow_gate -- --record {baseline_path}` \
             if the change is intentional"
        );
        ExitCode::FAILURE
    }
}
