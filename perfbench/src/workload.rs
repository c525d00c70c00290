//! The three workloads, driven through the library's public API the way a
//! layout service drives it: a request is a wire JSON document, parsed
//! with `wire::from_str`, submitted into one shared `JobContext` built
//! during set-up, waited on, then verified independently.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rfic_core::{
    IlpConfig, JobContext, Layout, LayoutIlp, Pilp, PilpConfig, PilpError, PilpResult, SolverTotals,
};
use rfic_geom::Rect;
use rfic_milp::{BranchRule, PresolveConfig, PricingRule, SolveOptions};
use rfic_netlist::generator::{generate, CircuitSpec};
use rfic_netlist::json::Json;
use rfic_netlist::{wire, Netlist, Technology};

use crate::stats::{median, ContextCounters};
use crate::trace::{Tracer, SITE_REPLAY};
use crate::verify::{verify, Failure, SpanSite};

/// Generator seed of `benchmarks::tiny_circuit()`, the default circuit.
pub const DEFAULT_CIRCUIT_SEED: u64 = 0x7117;

/// Target scales of one `sweep` request. 1.005 and 1.04 are left out
/// because their node counts drift between runs; 1.015 comes out
/// DRC-dirty (see README.md).
pub const SWEEP_SCALES: [f64; 2] = [1.0, 1.01];

/// Pool workers of the shared context: the two cores the workloads were
/// sized for. Fixed, so counters and timings do not depend on the host's
/// core count.
pub const POOL_WORKERS: usize = 2;

/// Times the cheap part of set-up (context, circuit, export) is repeated;
/// its median enters `setup_s`.
pub const SETUP_REPEATS: usize = 201;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, a fresh unique name per request: no FlowCache hit.
    Cold,
    /// Two clients, the same document set-up already laid out.
    Replay,
    /// One client, one two-variant target-scale sweep per request.
    Sweep,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "cold" => Ok(Workload::Cold),
            "replay" => Ok(Workload::Replay),
            "sweep" => Ok(Workload::Sweep),
            other => Err(format!("unknown workload `{other}` (cold|replay|sweep)")),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Replay => "replay",
            Workload::Sweep => "sweep",
        }
    }

    /// Closed-loop client count.
    pub fn clients(self) -> usize {
        match self {
            Workload::Replay => 2,
            Workload::Cold | Workload::Sweep => 1,
        }
    }

    /// Target scales of the variants one request lays out.
    pub fn scales(self) -> &'static [f64] {
        match self {
            Workload::Sweep => &SWEEP_SCALES,
            Workload::Cold | Workload::Replay => &SWEEP_SCALES[..1],
        }
    }
}

/// The tiny circuit's spec with another generator seed.
pub fn tiny_spec(name: &str, seed: u64) -> CircuitSpec {
    CircuitSpec {
        name: name.to_owned(),
        num_devices: 2,
        num_microstrips: 3,
        num_pads: 2,
        area: (380.0, 320.0),
        reduced_area: None,
        detour_fraction: 0.34,
        double_detours: 0,
        tech: Technology::cmos90(),
        seed,
    }
}

/// The wire document of `template` under another circuit name.
pub fn document(template: &Json, name: &str) -> String {
    let mut doc = template.clone();
    if let Json::Object(map) = &mut doc {
        map.insert("name".to_owned(), Json::String(name.to_owned()));
    }
    doc.to_string()
}

/// Everything set-up builds: the shared context and the request template,
/// plus the references requests are checked against.
pub struct Bench {
    /// Which workload runs.
    pub workload: Workload,
    /// Workload seed: it names the requests.
    pub seed: u64,
    /// The shared context every request runs in.
    pub ctx: JobContext,
    /// The flow every request runs.
    pub pilp: Pilp,
    /// The circuit's wire document (its `name` is replaced per request).
    pub template: Json,
    /// The SVG each variant of a request must reproduce byte for byte:
    /// set-up's cache fill for `replay`, otherwise the first request that
    /// verifies (see README.md).
    svgs: Vec<OnceLock<String>>,
    /// The first verified layout at target scale 1 (set-up's for
    /// `replay`): the layout the traced run replays solve sites from.
    first: OnceLock<(Netlist, Layout)>,
    /// Median seconds of context creation, circuit generation and wire
    /// export over [`SETUP_REPEATS`].
    pub setup_base_s: f64,
    /// Seconds `replay`'s set-up spent filling the cache (0 otherwise).
    pub setup_fill_s: f64,
}

impl Bench {
    /// Runs set-up: builds the context, generates the circuit and exports
    /// it [`SETUP_REPEATS`] times, keeping the last. `replay` then lays
    /// its document out once into the shared context: the cache fill.
    pub fn setup(workload: Workload, seed: u64, circuit_seed: u64) -> Result<Bench, String> {
        let mut base = Vec::with_capacity(SETUP_REPEATS);
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            let ctx = JobContext::new(POOL_WORKERS);
            let circuit = generate(&tiny_spec("perfbench tiny", circuit_seed))
                .map_err(|e| format!("circuit seed {circuit_seed:#x}: {e}"))?;
            let template = wire::to_json(&circuit.netlist);
            base.push(t0.elapsed().as_secs_f64());
            if let Some((old, _)) = built.replace((ctx, template)) {
                JobContext::shutdown(&old);
            }
        }
        let (ctx, template) = built.expect("SETUP_REPEATS > 0");
        let mut bench = Bench {
            workload,
            seed,
            ctx,
            pilp: Pilp::new(PilpConfig::fast()),
            template,
            svgs: workload.scales().iter().map(|_| OnceLock::new()).collect(),
            first: OnceLock::new(),
            setup_base_s: median(&base).expect("SETUP_REPEATS > 0"),
            setup_fill_s: 0.0,
        };
        if workload == Workload::Replay {
            let t0 = Instant::now();
            let text = document(&bench.template, &bench.request_name(0, 0));
            let netlist = wire::from_str(&text).map_err(|e| e.to_string())?;
            let outcome = bench.pilp.submit_in(&netlist, &bench.ctx).wait();
            let untraced = Tracer::new(false);
            let site = SpanSite {
                tracer: &untraced,
                parent: None,
                request: 0,
            };
            let verdict = verify(&netlist, &outcome, None, site)
                .map_err(|f| format!("the cache fill failed: {f}"))?;
            let layout = outcome.expect("verified").layout;
            bench.svgs[0].set(verdict.svg).expect("fresh cell");
            bench.first.set((netlist, layout)).expect("fresh cell");
            bench.setup_fill_s = t0.elapsed().as_secs_f64();
        }
        Ok(bench)
    }

    /// `setup_s`: the cheap part's median plus `replay`'s cache fill.
    pub fn setup_s(&self) -> f64 {
        self.setup_base_s + self.setup_fill_s
    }

    /// The first verified layout at target scale 1, if any.
    pub fn first_layout(&self) -> Option<&(Netlist, Layout)> {
        self.first.get()
    }

    /// The circuit name of one request: every `replay` request repeats
    /// set-up's.
    fn request_name(&self, client: usize, index: u64) -> String {
        match self.workload {
            Workload::Replay => format!("perfbench tiny s{}", self.seed),
            Workload::Cold | Workload::Sweep => {
                format!("perfbench tiny s{} c{client} r{index}", self.seed)
            }
        }
    }

    /// Submits one request and waits: a single job, or a sweep over
    /// [`SWEEP_SCALES`].
    fn submit(&self, netlist: &Netlist) -> (Vec<Netlist>, Vec<Result<PilpResult, PilpError>>) {
        match self.workload {
            Workload::Sweep => {
                let variants: Vec<Netlist> = SWEEP_SCALES
                    .iter()
                    .map(|&s| netlist.with_target_scale(s))
                    .collect();
                let outcomes = self.pilp.submit_sweep_in(&variants, &self.ctx).wait();
                (variants, outcomes)
            }
            Workload::Cold | Workload::Replay => {
                let outcome = self.pilp.submit_owned_in(netlist.clone(), &self.ctx).wait();
                (vec![netlist.clone()], vec![outcome])
            }
        }
    }

    /// Serves one request end to end and records what it cost.
    pub fn serve(&self, tracer: &Tracer, client: usize, index: u64) -> Record {
        let text = document(&self.template, &self.request_name(client, index));
        let request = ((client as u64) << 32) | index;
        let request_span = tracer.reserve();
        let mut record = Record::default();

        let t0 = Instant::now();
        let parsed = wire::from_str(&text);
        let t1 = Instant::now();
        tracer.leaf("netlist.parse", Some(request_span), request, t0, t1);
        record.parse = t1 - t0;
        let netlist = match parsed {
            Ok(netlist) => netlist,
            Err(e) => {
                record.failure = Some(Failure::Error(e.to_string()));
                record.wall = t1 - t0;
                return record;
            }
        };

        let job_span = tracer.reserve();
        let (variants, outcomes) = self.submit(&netlist);
        let t2 = Instant::now();
        let mut phase_start = t1;
        for result in outcomes.iter().flatten() {
            add_totals(&mut record.solver, &result.solver);
            for (i, snap) in result.snapshots.iter().enumerate().take(3) {
                record.phases[i] += snap.elapsed;
                let end = phase_start + snap.elapsed;
                let id = tracer.reserve();
                let name = ["pilp.phase1", "pilp.phase2", "pilp.phase3"][i];
                tracer.record(id, name, Some(job_span), request, phase_start, end, true);
                phase_start = end;
            }
        }
        tracer.record(job_span, "job", Some(request_span), request, t1, t2, false);

        let site = SpanSite {
            tracer,
            parent: Some(request_span),
            request,
        };
        for ((variant, outcome), svg) in variants.iter().zip(&outcomes).zip(&self.svgs) {
            match verify(variant, outcome, svg.get().map(String::as_str), site) {
                Ok(verdict) => {
                    record.bends_total += verdict.total_bends;
                    record.bends_max = record.bends_max.max(verdict.max_bends);
                    record.drc += verdict.drc;
                    record.render += verdict.render;
                    // The first verified request sets the references
                    // set-up did not; later ones are compared against them.
                    if svg.set(verdict.svg).is_ok() && self.first.get().is_none() {
                        let layout = &outcome.as_ref().expect("verified").layout;
                        let _ = self.first.set((variant.clone(), layout.clone()));
                    }
                }
                Err(failure) => {
                    record.failure.get_or_insert(failure);
                }
            }
        }
        let t3 = Instant::now();
        record.verify = t3 - t2;
        record.wall = t3 - t0;
        tracer.record(request_span, "request", None, request, t0, t3, false);
        record
    }

    /// Runs the closed loop: every client sends its next request once the
    /// previous one is verified, until `window` has passed. Requests in
    /// flight at the end of the window finish and count, so every client
    /// sends at least one.
    pub fn run_window(&self, tracer: &Tracer, window: Duration) -> Window {
        let before = ContextCounters::read(&self.ctx);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let records = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..self.workload.clients())
                .map(|client| {
                    scope.spawn(move || {
                        let mut records = Vec::new();
                        let mut index = 0;
                        loop {
                            records.push(self.serve(tracer, client, index));
                            index += 1;
                            if start.elapsed() >= window {
                                break records;
                            }
                        }
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        Window {
            records,
            elapsed,
            cpu_s: cpu_seconds() - cpu0,
            counters: ContextCounters::read(&self.ctx).since(&before),
        }
    }
}

/// What one request cost and how it ended.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Send → verified result.
    pub wall: Duration,
    /// `wire::from_str`.
    pub parse: Duration,
    /// Length recheck, DRC, SVG render and compare.
    pub verify: Duration,
    /// Time in `drc_check`.
    pub drc: Duration,
    /// Time in `render::svg`.
    pub render: Duration,
    /// `PhaseSnapshot::elapsed` per phase, summed over variants.
    pub phases: [Duration; 3],
    /// Solver totals, summed over variants.
    pub solver: SolverTotals,
    /// Total bends, summed over variants.
    pub bends_total: usize,
    /// Most bends on one strip, over variants.
    pub bends_max: usize,
    /// The first failure, if any.
    pub failure: Option<Failure>,
}

impl Record {
    /// Wall time not spent parsing, in the flow's phases or verifying.
    pub fn overhead(&self) -> Duration {
        let phases: Duration = self.phases.iter().sum();
        self.wall.saturating_sub(self.parse + phases + self.verify)
    }
}

fn add_totals(sum: &mut SolverTotals, t: &SolverTotals) {
    sum.solves += t.solves;
    sum.nodes += t.nodes;
    sum.simplex_iterations += t.simplex_iterations;
    sum.root_cuts += t.root_cuts;
    sum.tree_cuts += t.tree_cuts;
    sum.presolve_rows_removed += t.presolve_rows_removed;
    sum.presolve_cols_removed += t.presolve_cols_removed;
    sum.presolve_nonzeros_removed += t.presolve_nonzeros_removed;
    sum.fallback_attempts += t.fallback_attempts;
    sum.fallback_recoveries += t.fallback_recoveries;
}

/// One timed window.
pub struct Window {
    /// Every request, all clients.
    pub records: Vec<Record>,
    /// Window start → last request verified.
    pub elapsed: Duration,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// Context counter growth over the window.
    pub counters: ContextCounters,
}

/// Process CPU time (user + system, every thread) from `/proc/self/stat`,
/// in seconds at the kernel's `USER_HZ` of 100.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What re-solving one strip of a final layout as a single-strip
/// hard-length site cost, layer by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteCost {
    /// `LayoutIlp::build`.
    pub build: Duration,
    /// `relaxation().presolve(..)` with the flow's presolve settings.
    pub presolve: Duration,
    /// `relaxation().solve()`: the raw root LP.
    pub root: Duration,
    /// Root LP pivots.
    pub root_pivots: usize,
    /// `LayoutIlp::solve` with the flow's solve options.
    pub solve: Duration,
    /// Branch-and-bound nodes.
    pub nodes: usize,
    /// Simplex pivots across the search.
    pub pivots: usize,
}

/// The flow's per-solve options (`PilpConfig::fast`, phase 3), rebuilt
/// from their public parts.
fn site_options(config: &PilpConfig) -> SolveOptions {
    SolveOptions {
        time_limit: config.solve_time_limit,
        mip_gap: 1e-4,
        threads: 1,
        branching: BranchRule::MostFractional,
        cut_rounds: 0,
        cut_every: 0,
        max_cut_rounds: 0,
        local_cuts: false,
        pricing: PricingRule::DualSteepestEdge,
        presolve: site_presolve(),
        ..SolveOptions::default()
    }
}

fn site_presolve() -> PresolveConfig {
    PresolveConfig {
        substitute: false,
        scale_trigger: 0.0,
        ..PresolveConfig::default()
    }
}

/// The window phase 3 confines a strip to: its pins' bounding box grown by
/// `tau_d` plus half the excess length, clipped to the area.
fn strip_window(
    netlist: &Netlist,
    layout: &Layout,
    strip: &rfic_netlist::Microstrip,
    tau_d: f64,
) -> Rect {
    let pins: Vec<_> = strip
        .terminals()
        .iter()
        .filter_map(|t| layout.pin_position(netlist, t.device, t.pin))
        .collect();
    let rect = match pins.as_slice() {
        [a, b, ..] => Rect::from_corners(*a, *b),
        [a] => Rect::from_corners(*a, *a),
        [] => netlist.area_rect(),
    };
    let excess = (strip.target_length - rect.half_perimeter()).max(0.0);
    let grown = rect.expanded(tau_d + excess / 2.0);
    grown.intersection(&netlist.area_rect()).unwrap_or(grown)
}

/// Re-solves every strip of `layout` as a single-strip hard-length site
/// and records `site.replay` → `model.build`, `lp.presolve`, `lp.root`,
/// `milp.solve` spans.
pub fn replay_sites(
    netlist: &Netlist,
    layout: &Layout,
    config: &PilpConfig,
    tracer: &Tracer,
) -> Result<Vec<SiteCost>, String> {
    let options = site_options(config);
    let mut costs = Vec::new();
    for strip in netlist.microstrips() {
        let chain_points = layout
            .route(strip.id)
            .map_or(2, |r| r.simplified().num_chain_points())
            .max(strip.suggested_chain_points)
            .clamp(4, 9);
        let mut ilp_config = IlpConfig::single_strip(strip.id);
        ilp_config.weights = config.weights;
        ilp_config.chain_points.insert(strip.id, chain_points);
        ilp_config
            .strip_windows
            .insert(strip.id, strip_window(netlist, layout, strip, config.tau_d));

        let site = tracer.reserve();
        let t0 = Instant::now();
        let ilp = LayoutIlp::build(netlist, ilp_config, layout)
            .map_err(|e| format!("site {}: build: {e}", strip.name))?;
        let t1 = Instant::now();
        let relaxation = ilp.relaxation();
        // Presolved without an integer mask, as the solver bench's
        // `lp_presolve` group does: the model's public API names no
        // variable by index, so its integrality cannot be passed on.
        let t2 = Instant::now();
        relaxation
            .presolve(&site_presolve(), None)
            .map_err(|e| format!("site {}: presolve: {e}", strip.name))?;
        let t3 = Instant::now();
        let root = relaxation
            .solve()
            .map_err(|e| format!("site {}: root LP: {e}", strip.name))?;
        let t4 = Instant::now();
        let outcome = ilp
            .solve(&options)
            .map_err(|e| format!("site {}: MILP: {e}", strip.name))?;
        let t5 = Instant::now();
        tracer.leaf("model.build", Some(site), SITE_REPLAY, t0, t1);
        tracer.leaf("lp.presolve", Some(site), SITE_REPLAY, t2, t3);
        tracer.leaf("lp.root", Some(site), SITE_REPLAY, t3, t4);
        tracer.leaf("milp.solve", Some(site), SITE_REPLAY, t4, t5);
        tracer.record(site, "site.replay", None, SITE_REPLAY, t0, t5, false);
        costs.push(SiteCost {
            build: t1 - t0,
            presolve: t3 - t2,
            root: t4 - t3,
            root_pivots: root.iterations,
            solve: t5 - t4,
            nodes: outcome.solution.nodes,
            pivots: outcome.solution.simplex_iterations,
        });
    }
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;

    #[test]
    fn the_default_seed_is_the_tiny_circuit() {
        let ours = generate(&tiny_spec("tiny two-stage", DEFAULT_CIRCUIT_SEED)).unwrap();
        let theirs = benchmarks::tiny_circuit();
        assert_eq!(ours.netlist.fingerprint(), theirs.netlist.fingerprint());
    }

    #[test]
    fn a_request_document_differs_only_in_its_name() {
        let circuit = benchmarks::tiny_circuit();
        let template = wire::to_json(&circuit.netlist);
        let a = wire::from_str(&document(&template, "a")).unwrap();
        let b = wire::from_str(&document(&template, "b")).unwrap();
        assert_eq!(a.name(), "a");
        assert_ne!(a.fingerprint(), b.fingerprint(), "names key the FlowCache");
        let back = wire::from_str(&document(&template, circuit.netlist.name())).unwrap();
        assert_eq!(back.fingerprint(), circuit.netlist.fingerprint());
    }

    #[test]
    fn overhead_is_what_the_layers_do_not_cover() {
        let ms = Duration::from_millis;
        let record = Record {
            wall: ms(100),
            parse: ms(1),
            phases: [ms(10), ms(20), ms(60)],
            verify: ms(4),
            ..Record::default()
        };
        assert_eq!(record.overhead(), ms(5));
    }
}
