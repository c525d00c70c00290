//! Layout-service benchmark for the P-ILP flow.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold|replay|sweep --seed N --seconds S --trace 0|1 \
//!     [--circuit-seed N]
//! ```
//!
//! Sets up one shared `JobContext`, runs the workload's closed loop for
//! `--seconds`, verifies every request independently and prints a report
//! followed by one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (spans on) with `--trace 1`. Exits 1 when any request
//! failed. See README.md for the workloads and the metric map.

mod stats;
mod trace;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use stats::{median, Ratio, Summary};
use trace::{self_time_by_name, span_cost, to_json_lines, Tracer, SITE_REPLAY};
use workload::{peak_rss_mb, replay_sites, Bench, Window, Workload, DEFAULT_CIRCUIT_SEED};

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    circuit_seed: u64,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 0;
        let mut seconds = 10;
        let mut trace = false;
        let mut circuit_seed = DEFAULT_CIRCUIT_SEED;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number =
                || parse_u64(&value).ok_or_else(|| format!("{flag}: bad number `{value}`"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => trace = number()? != 0,
                "--circuit-seed" => circuit_seed = number()?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            circuit_seed,
        })
    }
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let bench = match Bench::setup(args.workload, args.seed, args.circuit_seed) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let window = bench.run_window(&tracer, Duration::from_secs(args.seconds));
    let mut report = String::new();
    let metrics = if args.trace {
        match traced_metrics(&bench, &window, &tracer, &mut report) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("perfbench: site replay failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        end_to_end_metrics(&bench, &window, &mut report)
    };
    bench.ctx.shutdown();

    let failed: Vec<_> = window
        .records
        .iter()
        .filter_map(|r| r.failure.as_ref())
        .collect();
    let mut classes: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &failed {
        *classes.entry(f.kind()).or_default() += 1;
    }
    print!("{report}");
    println!(
        "workload {} seed {} circuit-seed {:#x}: {} attempted, {} failed {:?}",
        args.workload.name(),
        args.seed,
        args.circuit_seed,
        window.records.len(),
        failed.len(),
        classes
    );
    for f in failed.iter().take(5) {
        println!("  failure: {f}");
    }
    println!(
        "{}",
        result_line(window.records.len(), failed.len(), &metrics)
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn samples<F: Fn(&workload::Record) -> f64>(window: &Window, f: F) -> Vec<f64> {
    window
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .map(f)
        .collect()
}

/// `job_s`, `jobs_per_min`, `bends_total`, `bends_max`, `setup_s`,
/// `peak_rss_mb`.
fn end_to_end_metrics(bench: &Bench, window: &Window, report: &mut String) -> Vec<Metric> {
    let job = Summary::of(&samples(window, |r| secs(r.wall)));
    let verified = window
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .count();
    let per_min = verified as f64 * 60.0 / window.elapsed.as_secs_f64();
    let bends_total = Summary::of(&samples(window, |r| r.bends_total as f64));
    let bends_max = Summary::of(&samples(window, |r| r.bends_max as f64));
    let _ = writeln!(report, "job_s         {job}");
    let walls: Vec<String> = window
        .records
        .iter()
        .map(|r| format!("{:.3}", secs(r.wall)))
        .collect();
    let _ = writeln!(report, "  requests    [{}]", walls.join(", "));
    let _ = writeln!(
        report,
        "jobs_per_min  {per_min:.4} ({verified} verified in {:.3} s, {} client(s))",
        window.elapsed.as_secs_f64(),
        bench.workload.clients()
    );
    let _ = writeln!(report, "bends_total   {bends_total}");
    let _ = writeln!(report, "bends_max     {bends_max}");
    let _ = writeln!(
        report,
        "setup_s       {:.6} (median of {} context/circuit/export set-ups {:.6} + cache fill {:.4})",
        bench.setup_s(),
        workload::SETUP_REPEATS,
        bench.setup_base_s,
        bench.setup_fill_s
    );
    vec![
        metric("job_s", job.median, "s"),
        metric("jobs_per_min", per_min, "1/min"),
        metric("bends_total", bends_total.median, "count"),
        metric("bends_max", bends_max.median, "count"),
        metric("setup_s", bench.setup_s(), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Span names of a request, in tree order, for the self-time table.
const REQUEST_SPANS: [&str; 10] = [
    "request",
    "netlist.parse",
    "job",
    "pilp.phase1",
    "pilp.phase2",
    "pilp.phase3",
    "verify",
    "length.check",
    "drc.check",
    "render.svg",
];

/// Span names of a site replay.
const SITE_SPANS: [&str; 5] = [
    "site.replay",
    "model.build",
    "lp.presolve",
    "lp.root",
    "milp.solve",
];

/// The per-layer metrics of a traced run.
fn traced_metrics(
    bench: &Bench,
    window: &Window,
    tracer: &Tracer,
    report: &mut String,
) -> Result<Vec<Metric>, String> {
    let n = window.records.len();
    let med = |f: &dyn Fn(&workload::Record) -> f64| median(&samples(window, f)).unwrap_or(0.0);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per = window.counters.per_request(n);
    let solves = med(&|r| r.solver.solves as f64);
    let nodes = med(&|r| r.solver.nodes as f64);
    let pivots = med(&|r| r.solver.simplex_iterations as f64);
    let nodes_per_solve = Ratio::new(nodes, solves);
    let pivots_per_node = Ratio::new(pivots, nodes);
    let flow_ratio = per.flow_hit_ratio();
    let model_ratio = per.model_hit_ratio();
    let cpu_util = Ratio::new(window.cpu_s, window.elapsed.as_secs_f64());

    // Site replay after the window, on the first verified layout.
    let (netlist, layout) = bench.first_layout().ok_or("no request verified")?;
    let sites = replay_sites(netlist, layout, bench.pilp.config(), tracer)?;
    let site_sum = |f: &dyn Fn(&workload::SiteCost) -> f64| sites.iter().map(f).sum::<f64>();

    let spans = tracer.spans();
    let (site_spans, request_spans): (Vec<_>, Vec<_>) = spans
        .iter()
        .cloned()
        .partition(|s| s.request == SITE_REPLAY);
    let selfs = self_time_by_name(&request_spans);
    let spans_per_request = Ratio::new(request_spans.len() as f64, n as f64);
    let cost = span_cost(10_000);
    let overhead_us = spans_per_request.value().unwrap_or(0.0) * cost.as_secs_f64() * 1e6;

    let _ = writeln!(
        report,
        "per-request self time (median over {n} request(s)):"
    );
    let wall = med(&|r| secs(r.wall));
    for name in REQUEST_SPANS {
        let v = median(selfs.get(name).map_or(&[][..], |v| v)).unwrap_or(0.0);
        let _ = writeln!(
            report,
            "  {name:<14} {:>10.3} ms  {:>5.1} % of request wall",
            v * 1e3,
            if wall > 0.0 { 100.0 * v / wall } else { 0.0 }
        );
    }
    let site_selfs = self_time_by_name(&site_spans);
    let _ = writeln!(
        report,
        "site replay self time ({} site(s), summed):",
        sites.len()
    );
    for name in SITE_SPANS {
        let v: f64 = site_selfs.get(name).map_or(0.0, |v| v.iter().sum());
        let _ = writeln!(report, "  {name:<14} {:>10.3} ms", v * 1e3);
    }
    let mut repeats: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    for r in window.records.iter().filter(|r| r.failure.is_none()) {
        let key = (r.solver.solves, r.solver.nodes, r.solver.simplex_iterations);
        *repeats.entry(key).or_default() += 1;
    }
    let _ = writeln!(report, "(solves, nodes, pivots) -> requests: {repeats:?}");
    let _ = writeln!(report, "milp.nodes_per_solve   {nodes_per_solve}");
    let _ = writeln!(report, "lp.pivots_per_node     {pivots_per_node}");
    let _ = writeln!(report, "cache.flow_hit_ratio   {flow_ratio}");
    let _ = writeln!(report, "cache.model_hit_ratio  {model_ratio}");
    let _ = writeln!(
        report,
        "proc.cpu_util          {cpu_util} (CPU s / wall s, {} pool workers)",
        workload::POOL_WORKERS
    );
    let _ = writeln!(
        report,
        "trace                  {:.1} spans/request x {:.3} us/span = {overhead_us:.2} us/request; traced job_s {:.4} (compare the untraced run's job_s)",
        spans_per_request.value().unwrap_or(0.0),
        cost.as_secs_f64() * 1e6,
        wall
    );
    write_trace(bench, &spans);

    let self_ms = |name: &str| median(selfs.get(name).map_or(&[][..], |v| v)).unwrap_or(0.0) * 1e3;
    Ok(vec![
        metric("netlist.parse_ms", med(&|r| ms(r.parse)), "ms"),
        metric("job.overhead_ms", med(&|r| ms(r.overhead())), "ms"),
        metric("pilp.phase1_s", med(&|r| secs(r.phases[0])), "s"),
        metric("pilp.phase2_s", med(&|r| secs(r.phases[1])), "s"),
        metric("pilp.phase3_s", med(&|r| secs(r.phases[2])), "s"),
        metric("milp.solves", solves, "count"),
        metric("milp.nodes", nodes, "count"),
        metric(
            "milp.nodes_per_solve",
            nodes_per_solve.value().unwrap_or(0.0),
            "ratio",
        ),
        metric("milp.trees", per.trees, "count"),
        metric("milp.uncounted_trees", per.trees - solves, "count"),
        metric("lp.pivots", pivots, "count"),
        metric(
            "lp.pivots_per_node",
            pivots_per_node.value().unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "lp.presolve_rows_removed",
            med(&|r| r.solver.presolve_rows_removed as f64),
            "count",
        ),
        metric(
            "lp.fallback_attempts",
            med(&|r| r.solver.fallback_attempts as f64),
            "count",
        ),
        metric(
            "lp.fallback_recoveries",
            med(&|r| r.solver.fallback_recoveries as f64),
            "count",
        ),
        metric("cache.flow_hits", per.flow_hits, "count"),
        metric("cache.flow_misses", per.flow_misses, "count"),
        metric(
            "cache.flow_hit_ratio",
            flow_ratio.value().unwrap_or(0.0),
            "ratio",
        ),
        metric("cache.model_hits", per.model_hits, "count"),
        metric("cache.model_misses", per.model_misses, "count"),
        metric(
            "cache.model_hit_ratio",
            model_ratio.value().unwrap_or(0.0),
            "ratio",
        ),
        metric("proc.cpu_util", cpu_util.value().unwrap_or(0.0), "cores"),
        metric("drc.check_ms", med(&|r| ms(r.drc)), "ms"),
        metric("render.svg_ms", med(&|r| ms(r.render)), "ms"),
        metric("model.build_ms", site_sum(&|s| ms(s.build)), "ms"),
        metric("lp.presolve_ms", site_sum(&|s| ms(s.presolve)), "ms"),
        metric("lp.root_ms", site_sum(&|s| ms(s.root)), "ms"),
        metric(
            "lp.root_pivots",
            site_sum(&|s| s.root_pivots as f64),
            "count",
        ),
        metric("milp.site_s", site_sum(&|s| secs(s.solve)), "s"),
        metric("milp.site_nodes", site_sum(&|s| s.nodes as f64), "count"),
        metric("lp.site_pivots", site_sum(&|s| s.pivots as f64), "count"),
        metric("self.request_ms", self_ms("request"), "ms"),
        metric(
            "self.pilp.phase3_share",
            Ratio::new(self_ms("pilp.phase3"), wall * 1e3)
                .value()
                .unwrap_or(0.0),
            "ratio",
        ),
        metric("trace.overhead_us", overhead_us, "us"),
        metric("trace.job_s", wall, "s"),
    ])
}

/// Writes every span as JSON lines under `perfbench/out/`.
fn write_trace(bench: &Bench, spans: &[trace::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        bench.workload.name(),
        bench.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, to_json_lines(spans)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
