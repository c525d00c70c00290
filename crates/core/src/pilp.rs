//! The progressive ILP-based (P-ILP) layout generation flow (Section 5).
//!
//! The monolithic concurrent ILP of Section 4 is exact but intractable for
//! full circuits, so the paper solves simplified models in three phases:
//!
//! 1. **Planar microstrip routing with blurred devices** — device geometry
//!    is folded into the strip length targets and junction points; routes
//!    and junction positions are found with soft length matching and
//!    penalised overlap.
//! 2. **Device visualisation and overlap fixing** — devices appear with
//!    their real footprints at the Phase-1 junctions, overlaps are removed
//!    and routes are re-attached to the actual pins within confinement
//!    windows `τ_d`.
//! 3. **Iterative layout refinement** — chain points without bends are
//!    deleted, chain points are inserted where a strip cannot meet its exact
//!    length, devices may be rotated, and the windowed ILPs are re-solved
//!    until every length is exact and the layout is DRC clean (or the
//!    iteration limit is reached).
//!
//! Engineering deviations from the paper (documented in `DESIGN.md`): the
//! non-overlap constraints are separated lazily instead of being enumerated
//! up front, Phase 1 always routes strip by strip (strips that touch a pad
//! first, then by id), and Phase 2 removes the bulk of the device overlap
//! with a geometric legaliser before the windowed ILPs run. All of these
//! keep the individual MILPs within reach of the bundled
//! branch-and-bound solver while preserving the model semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};

use rfic_geom::{Point, Rect};
use rfic_milp::SolveOptions;
use rfic_netlist::{DeviceId, MicrostripId, Netlist};
use serde::{Deserialize, Serialize};

use crate::drc::{self, DrcOptions};
use crate::layout::{Layout, Placement};
use crate::model::{
    fixed_bend_floor, IlpConfig, IlpError, IlpWeights, LayoutIlp, ObjectId, PairSpec,
};
use crate::report::LayoutReport;

/// Optional per-phase wall-clock budgets for the individual MILP solves;
/// phases without a budget fall back to [`PilpConfig::solve_time_limit`].
///
/// The three phases have very different solve profiles — Phase 1 routes
/// blurred strips (cheap, many solves), Phase 3 repairs hard-length strips
/// (few solves, occasionally expensive) — so one global per-solve limit is
/// either too tight for refinement or too loose for routing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBudgets {
    /// Per-solve budget in Phase 1 (blurred global routing).
    pub routing: Option<Duration>,
    /// Per-solve budget in Phase 2 (device visualisation).
    pub visualization: Option<Duration>,
    /// Per-solve budget in Phase 3 (iterative refinement).
    pub refinement: Option<Duration>,
}

impl PhaseBudgets {
    /// The budget configured for `phase`, if any.
    pub fn for_phase(&self, phase: PilpPhase) -> Option<Duration> {
        match phase {
            PilpPhase::GlobalRouting => self.routing,
            PilpPhase::Visualization => self.visualization,
            PilpPhase::Refinement => self.refinement,
        }
    }
}

/// Configuration of the P-ILP flow.
#[derive(Debug, Clone, PartialEq)]
pub struct PilpConfig {
    /// Confinement window size `τ_d` (µm) for chain points and devices in
    /// Phases 2 and 3.
    pub tau_d: f64,
    /// Maximum Phase-3 refinement iterations.
    pub max_refine_iters: usize,
    /// Maximum lazy overlap-separation rounds per ILP solve.
    pub max_separation_rounds: usize,
    /// Time limit per individual MILP solve (the fallback when
    /// [`PilpConfig::phase_budgets`] has no entry for a phase).
    pub solve_time_limit: Duration,
    /// Overall wall-clock deadline for one flow run, measured from the
    /// start of the flow: for a job that is within a thread spawn of
    /// submission, for a sweep it is each variant's start. Individual
    /// solve time limits are capped to the time remaining, and a run that
    /// exceeds the deadline fails with [`PilpError::DeadlineExceeded`].
    /// `None` (the default) runs without a deadline.
    pub deadline: Option<Duration>,
    /// Optional per-phase overrides of the per-solve time limit.
    pub phase_budgets: PhaseBudgets,
    /// Branch-and-bound worker threads per MILP solve, handed unchanged
    /// to [`rfic_milp::SolveOptions::threads`]: `1` = serial, `0` = the
    /// machine's available parallelism (capped at 8, see
    /// [`rfic_milp::resolve_threads`]), so a deployment can opt into "use
    /// whatever the hardware has" without hard-coding a count.
    pub solver_threads: usize,
    /// Maximum extra chain points inserted on a strip during refinement.
    pub max_extra_chain_points: usize,
    /// Try rotating endpoint devices when a strip cannot be repaired by
    /// re-routing alone.
    pub try_rotations: bool,
    /// Objective weights handed to the ILP models.
    pub weights: IlpWeights,
}

impl Default for PilpConfig {
    fn default() -> Self {
        PilpConfig {
            tau_d: 150.0,
            max_refine_iters: 4,
            max_separation_rounds: 4,
            solve_time_limit: Duration::from_secs(10),
            deadline: None,
            phase_budgets: PhaseBudgets::default(),
            solver_threads: 1,
            max_extra_chain_points: 3,
            try_rotations: true,
            weights: IlpWeights::default(),
        }
    }
}

impl PilpConfig {
    /// A fast configuration for tests and small circuits.
    ///
    /// Two extra refinement iterations — the phase where exact-length
    /// repairs land — over the default, with a 5 s limit per solve. Most
    /// solves finish far below that limit, but not all: on the `tiny`
    /// circuit at target scale 1.04 (release, 2-core host) the
    /// 19,923-node cluster-repair solve takes 3.2–4.5 s, a later
    /// 91-variable repair solve 4.3–5.0 s and a 104-variable one stops
    /// at the limit in every run, so runs that stop a solve at a
    /// different point can end with a different incumbent and a
    /// different final layout.
    pub fn fast() -> PilpConfig {
        PilpConfig {
            max_refine_iters: 6,
            max_separation_rounds: 3,
            solve_time_limit: Duration::from_secs(5),
            max_extra_chain_points: 3,
            try_rotations: false,
            ..PilpConfig::default()
        }
    }

    /// A thorough configuration for the benchmark circuits: parallel node
    /// search and a larger refinement budget (Phase 3 is where hard-length
    /// solves occasionally need the extra headroom).
    ///
    /// The budgets are tuned to the Forrest–Tomlin solver: warm node
    /// re-solves now skip refactorisation almost always and the single
    /// strip solve runs ~30 % faster, so the per-solve ceilings shrank
    /// (20/10/30 s → 15/8/20 s) — a solve that would previously graze its
    /// budget finishes comfortably, and a truly pathological one is cut
    /// off sooner, returning its incumbent to the refinement loop earlier.
    pub fn thorough() -> PilpConfig {
        PilpConfig {
            max_refine_iters: 6,
            max_separation_rounds: 6,
            solve_time_limit: Duration::from_secs(15),
            phase_budgets: PhaseBudgets {
                routing: Some(Duration::from_secs(8)),
                visualization: None,
                refinement: Some(Duration::from_secs(20)),
            },
            solver_threads: 2,
            max_extra_chain_points: 4,
            try_rotations: true,
            ..PilpConfig::default()
        }
    }
}

/// Error returned by the P-ILP flow.
#[derive(Debug, Clone, PartialEq)]
pub enum PilpError {
    /// The input netlist failed validation.
    InvalidNetlist(String),
    /// An ILP phase failed irrecoverably.
    Phase {
        /// Which phase failed.
        phase: PilpPhase,
        /// Underlying error message.
        message: String,
    },
    /// The job was cancelled ([`crate::JobHandle::cancel`] or a dropped
    /// cancel token) before the flow finished.
    Cancelled,
    /// The run exceeded its overall [`PilpConfig::deadline`].
    DeadlineExceeded,
    /// The shared [`rfic_milp::SolverPool`] behind the job was shut down
    /// while the flow was still solving.
    PoolShutdown,
    /// A panic was caught inside the job (a solver worker or the flow
    /// thread itself). The panic was contained — sibling jobs on the same
    /// pool are unaffected — and the faulty job fails with this error
    /// instead of taking the process down.
    Internal {
        /// The containment boundary that caught the panic (e.g.
        /// `milp.worker`, `core.job.flow`).
        site: String,
        /// The panic payload text (for failpoint-injected panics,
        /// `failpoint:<site>`).
        payload: String,
    },
}

impl fmt::Display for PilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PilpError::InvalidNetlist(msg) => write!(f, "invalid netlist: {msg}"),
            PilpError::Phase { phase, message } => write!(f, "{phase} failed: {message}"),
            PilpError::Cancelled => f.write_str("layout job cancelled"),
            PilpError::DeadlineExceeded => f.write_str("layout job deadline exceeded"),
            PilpError::PoolShutdown => f.write_str("solver pool shut down during the layout job"),
            PilpError::Internal { site, payload } => {
                write!(f, "internal fault contained at {site}: {payload}")
            }
        }
    }
}

impl std::error::Error for PilpError {}

/// The three phases of the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PilpPhase {
    /// Planar routing with blurred devices.
    GlobalRouting,
    /// Device visualisation and overlap fixing.
    Visualization,
    /// Iterative refinement.
    Refinement,
}

impl fmt::Display for PilpPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PilpPhase::GlobalRouting => f.write_str("phase 1 (blurred routing)"),
            PilpPhase::Visualization => f.write_str("phase 2 (device visualisation)"),
            PilpPhase::Refinement => f.write_str("phase 3 (refinement)"),
        }
    }
}

/// Snapshot of the layout after one phase (the data behind Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Which phase produced this snapshot.
    pub phase: PilpPhase,
    /// The layout at the end of the phase.
    pub layout: Layout,
    /// Total bends at the end of the phase.
    pub total_bends: usize,
    /// Maximum absolute length error at the end of the phase, µm.
    pub max_length_error: f64,
    /// Wall-clock time spent in the phase.
    pub elapsed: Duration,
}

/// Aggregate MILP solver traffic of one P-ILP run — every windowed solve
/// of every phase, summed. This is what the flow-level CI gate records
/// next to the layout quality numbers: a layout can stay perfect while
/// the solver quietly does 10x the work, and these counters are where
/// that shows first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTotals {
    /// Individual MILP solves issued by the flow.
    pub solves: usize,
    /// Branch-and-bound nodes explored across them.
    pub nodes: usize,
    /// Simplex pivots across every node LP.
    pub simplex_iterations: usize,
    /// Always `0`: the solver separates no cutting planes. The field stays
    /// only because the layout-service benchmark names it.
    pub root_cuts: usize,
    /// Always `0`, like [`SolverTotals::root_cuts`]; kept only because the
    /// layout-service benchmark names it.
    pub tree_cuts: usize,
    /// Constraint rows removed by root presolve across the solves.
    pub presolve_rows_removed: usize,
    /// Structural columns removed by root presolve across the solves.
    pub presolve_cols_removed: usize,
    /// Constraint-matrix nonzeros removed by root presolve across the
    /// solves.
    pub presolve_nonzeros_removed: usize,
    /// Fallback-ladder re-solves attempted after numerically-failed
    /// solves (each rung tried counts once; `0` on a healthy run).
    pub fallback_attempts: usize,
    /// Numerically-failed solves the fallback ladder recovered to a
    /// usable solution.
    pub fallback_recoveries: usize,
}

impl SolverTotals {
    pub(crate) fn record(&mut self, solution: &rfic_milp::MilpSolution) {
        self.solves += 1;
        self.nodes += solution.nodes;
        self.simplex_iterations += solution.simplex_iterations;
        self.presolve_rows_removed += solution.presolve.rows_removed;
        self.presolve_cols_removed += solution.presolve.cols_removed;
        self.presolve_nonzeros_removed += solution.presolve.nonzeros_removed;
    }
}

impl std::ops::AddAssign for SolverTotals {
    /// Sums the counters of another run (several jobs, or a sweep's
    /// variants) into these.
    fn add_assign(&mut self, other: SolverTotals) {
        let SolverTotals {
            solves,
            nodes,
            simplex_iterations,
            root_cuts,
            tree_cuts,
            presolve_rows_removed,
            presolve_cols_removed,
            presolve_nonzeros_removed,
            fallback_attempts,
            fallback_recoveries,
        } = other;
        self.solves += solves;
        self.nodes += nodes;
        self.simplex_iterations += simplex_iterations;
        self.root_cuts += root_cuts;
        self.tree_cuts += tree_cuts;
        self.presolve_rows_removed += presolve_rows_removed;
        self.presolve_cols_removed += presolve_cols_removed;
        self.presolve_nonzeros_removed += presolve_nonzeros_removed;
        self.fallback_attempts += fallback_attempts;
        self.fallback_recoveries += fallback_recoveries;
    }
}

/// Result of a P-ILP run.
#[derive(Debug, Clone)]
pub struct PilpResult {
    /// The final layout.
    pub layout: Layout,
    /// Per-phase snapshots.
    pub snapshots: Vec<PhaseSnapshot>,
    /// Total wall-clock runtime.
    pub runtime: Duration,
    /// Aggregate solver work behind the layout.
    pub solver: SolverTotals,
    report: LayoutReport,
}

impl PilpResult {
    /// Quality report of the final layout.
    pub fn report(&self) -> &LayoutReport {
        &self.report
    }
}

/// The progressive ILP layout generator.
///
/// # Examples
///
/// ```
/// use rfic_core::{Pilp, PilpConfig};
/// use rfic_netlist::benchmarks;
///
/// let circuit = benchmarks::tiny_circuit();
/// let result = Pilp::new(PilpConfig::fast()).run(&circuit.netlist)?;
/// assert!(result.layout.is_complete(&circuit.netlist));
/// # Ok::<(), rfic_core::PilpError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pilp {
    config: PilpConfig,
}

impl Pilp {
    /// Creates a generator with the given configuration.
    pub fn new(config: PilpConfig) -> Pilp {
        Pilp { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PilpConfig {
        &self.config
    }

    /// Runs the full three-phase flow on a netlist, blocking until the
    /// layout is done.
    ///
    /// The run is one job on a [`crate::JobContext`] of its own, with
    /// [`PilpConfig::solver_threads`] pool workers (`0` resolves as
    /// [`rfic_milp::resolve_threads`] does), which is shut down before
    /// `run` returns. Nothing carries over between calls: every
    /// run starts from an empty [`crate::FlowCache`] and performs (and
    /// reports) the full solver work; only a site the flow revisits
    /// within the run replays from that run's cache. Callers that need
    /// cancellation, deadlines, progress, concurrent jobs or a cache
    /// shared across requests use [`Pilp::submit_in`] on a context they
    /// own.
    ///
    /// # Errors
    ///
    /// Returns [`PilpError::InvalidNetlist`] if the netlist fails validation
    /// and [`PilpError::Phase`] if a phase cannot produce a layout at all
    /// (individual strip failures are tolerated and surface as DRC
    /// violations in the report instead). With a
    /// [`PilpConfig::deadline`] configured the run can also fail with
    /// [`PilpError::DeadlineExceeded`].
    pub fn run(&self, netlist: &Netlist) -> Result<PilpResult, PilpError> {
        let ctx = crate::JobContext::new(self.config.solver_threads);
        let result = self.submit_in(netlist, &ctx).wait();
        ctx.shutdown();
        result
    }

    /// Submits the netlist as an asynchronous layout job on `ctx` (a
    /// shared [`rfic_milp::SolverPool`] plus the cross-request solve-site
    /// cache). Returns immediately with a [`crate::JobHandle`] for
    /// waiting, polling, progress and cancellation.
    ///
    /// # Examples
    ///
    /// ```
    /// use rfic_core::{JobContext, Pilp, PilpConfig};
    /// use rfic_netlist::benchmarks;
    ///
    /// let circuit = benchmarks::tiny_circuit();
    /// let ctx = JobContext::new(2);
    /// let job = Pilp::new(PilpConfig::fast()).submit_in(&circuit.netlist, &ctx);
    /// let result = job.wait()?;
    /// assert!(result.layout.is_complete(&circuit.netlist));
    /// ctx.shutdown();
    /// # Ok::<(), rfic_core::PilpError>(())
    /// ```
    pub fn submit_in(&self, netlist: &Netlist, ctx: &crate::JobContext) -> crate::JobHandle {
        self.submit_owned_in(netlist.clone(), ctx)
    }

    /// [`Pilp::submit_in`] taking the netlist by value, avoiding a clone
    /// when the caller already owns it — the natural entry point for
    /// services that parse netlists off the wire
    /// ([`rfic_netlist::wire`]) and have no further use for them.
    pub fn submit_owned_in(&self, netlist: Netlist, ctx: &crate::JobContext) -> crate::JobHandle {
        crate::job::spawn_job(self.clone(), netlist, ctx)
    }

    /// Submits a **parameter sweep** — a batch of netlist variants that
    /// typically share their circuit structure and differ only in
    /// parameter values (target lengths, layout area, spacing) — on
    /// `ctx`. Returns immediately with a [`crate::SweepHandle`].
    ///
    /// The variants run side by side, started in submission order on up
    /// to one runner thread per pool worker, each as a plain job on the
    /// shared pool and solve-site cache, so the layouts are bit-identical
    /// to submitting the same variants one at a time.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use rfic_core::{JobContext, Pilp, PilpConfig};
    /// use rfic_netlist::benchmarks;
    ///
    /// let circuit = benchmarks::tiny_circuit();
    /// let variants: Vec<_> = [0.96, 1.0, 1.04]
    ///     .iter()
    ///     .map(|s| circuit.netlist.with_target_scale(*s))
    ///     .collect();
    /// let ctx = JobContext::new(2);
    /// let sweep = Pilp::new(PilpConfig::fast()).submit_sweep_in(&variants, &ctx);
    /// for result in sweep.wait() {
    ///     println!("{}", result?.report());
    /// }
    /// ctx.shutdown();
    /// # Ok::<(), rfic_core::PilpError>(())
    /// ```
    pub fn submit_sweep_in(
        &self,
        variants: &[Netlist],
        ctx: &crate::JobContext,
    ) -> crate::SweepHandle {
        crate::job::spawn_sweep(self.clone(), variants.to_vec(), ctx)
    }

    /// The synchronous flow body: validate, run the three phases under
    /// `ctl` (cancellation, deadline, shared pool, warm cache, progress)
    /// and assemble the result.
    pub(crate) fn run_with(
        &self,
        netlist: &Netlist,
        ctl: &crate::job::FlowCtl,
    ) -> Result<PilpResult, PilpError> {
        netlist
            .validate()
            .map_err(|e| PilpError::InvalidNetlist(e.to_string()))?;
        ctl.check()?;
        let start = Instant::now();
        let mut snapshots = Vec::new();

        let t0 = Instant::now();
        ctl.note_phase(PilpPhase::GlobalRouting);
        let phase1 = self.phase1(netlist, ctl)?;
        snapshots.push(self.snapshot(netlist, PilpPhase::GlobalRouting, &phase1, t0.elapsed()));

        let t1 = Instant::now();
        ctl.note_phase(PilpPhase::Visualization);
        let phase2 = self.phase2(netlist, &phase1, ctl)?;
        snapshots.push(self.snapshot(netlist, PilpPhase::Visualization, &phase2, t1.elapsed()));

        let t2 = Instant::now();
        ctl.note_phase(PilpPhase::Refinement);
        let phase3 = self.phase3(netlist, phase2, ctl)?;
        snapshots.push(self.snapshot(netlist, PilpPhase::Refinement, &phase3, t2.elapsed()));

        ctl.check()?;
        let runtime = start.elapsed();
        let report = LayoutReport::new(netlist, &phase3, runtime);
        Ok(PilpResult {
            layout: phase3,
            snapshots,
            runtime,
            solver: ctl.totals(),
            report,
        })
    }

    fn snapshot(
        &self,
        netlist: &Netlist,
        phase: PilpPhase,
        layout: &Layout,
        elapsed: Duration,
    ) -> PhaseSnapshot {
        PhaseSnapshot {
            phase,
            layout: layout.clone(),
            total_bends: layout.total_bends(),
            max_length_error: layout.max_length_error(netlist),
            elapsed,
        }
    }

    fn solve_options(&self, phase: PilpPhase) -> SolveOptions {
        SolveOptions {
            time_limit: self
                .config
                .phase_budgets
                .for_phase(phase)
                .unwrap_or(self.config.solve_time_limit),
            mip_gap: 1e-4,
            threads: self.config.solver_threads,
            // Presolve: row/column elimination, activity bound tightening
            // and equilibration always run; the bound tightening in
            // particular shrinks the big-M boxes and is the biggest single
            // win on the tiny-flow wall clock. `scale_trigger: 0.0` scales
            // the layout models unconditionally (their ~1.4e3 spread sits
            // below the default 1e4 trigger): this is flow-level vertex
            // steering, the same class of tuning as the branching and
            // pricing defaults — the bend counts were tuned with
            // equilibrated models, and skipping the scaling pass measurably
            // worsens them.
            presolve: rfic_milp::PresolveConfig {
                scale_trigger: 0.0,
                ..rfic_milp::PresolveConfig::default()
            },
            // Branching and pricing are the solver defaults (most-fractional,
            // dual steepest-edge); DESIGN.md has the flow-level measurements
            // that chose them.
            ..SolveOptions::default()
        }
    }

    // --- phase 1 -----------------------------------------------------------

    /// Planar microstrip routing with blurred devices, strip by strip.
    ///
    /// Strips that terminate on a pad are routed first so the pads anchor
    /// their devices near the boundary; the remaining strips then grow the
    /// placement inwards at (roughly) their target distances.
    fn phase1(&self, netlist: &Netlist, ctl: &crate::job::FlowCtl) -> Result<Layout, PilpError> {
        let mut base = Layout::new(netlist.area());
        let mut order: Vec<&rfic_netlist::Microstrip> = netlist.microstrips().iter().collect();
        order.sort_by_key(|m| {
            let touches_pad = m.terminals().iter().any(|t| {
                netlist
                    .device(t.device)
                    .map(|d| d.is_pad())
                    .unwrap_or(false)
            });
            (!touches_pad, m.id)
        });
        for strip in order {
            ctl.check()?;
            let placed: BTreeSet<DeviceId> = base.placements.keys().copied().collect();
            let free_devices: BTreeSet<DeviceId> = strip
                .terminals()
                .iter()
                .map(|t| t.device)
                .filter(|d| !placed.contains(d))
                .collect();

            let mut config = IlpConfig::single_strip(strip.id);
            config.free_devices = free_devices;
            config.blur_devices = true;
            config.hard_length = false;
            config.overlap_slack = true;
            config.weights = self.config.weights;
            config
                .chain_points
                .insert(strip.id, strip.suggested_chain_points.clamp(3, 6));

            match self.solve_with_separation(netlist, config, &base, ctl) {
                Ok((layout, _)) => base = layout,
                Err(e) => {
                    // Fall back to a trivial two-point route between the
                    // junctions so the flow can continue; Phase 3 repairs it.
                    if !self.fallback_route(netlist, &mut base, strip.id) {
                        return Err(PilpError::Phase {
                            phase: PilpPhase::GlobalRouting,
                            message: format!("{strip_id}: {e}", strip_id = strip.id),
                        });
                    }
                }
            }
        }
        Ok(base)
    }

    /// Adds a straight-line (L-shaped) route between the junctions of a
    /// strip's endpoints, placing missing junctions at area-centre defaults.
    fn fallback_route(&self, netlist: &Netlist, base: &mut Layout, strip_id: MicrostripId) -> bool {
        let Some(strip) = netlist.microstrip(strip_id) else {
            return false;
        };
        let (aw, ah) = netlist.area();
        let mut endpoints = Vec::new();
        for terminal in strip.terminals() {
            let center = base
                .placement(terminal.device)
                .map(|p| p.center)
                .unwrap_or(Point::new(aw / 2.0, ah / 2.0));
            base.placements
                .entry(terminal.device)
                .or_insert(Placement::at(center));
            endpoints.push(center);
        }
        let (a, b) = (endpoints[0], endpoints[1]);
        let corner = Point::new(b.x, a.y);
        let pts = if a.approx_eq(corner) || b.approx_eq(corner) {
            vec![a, b]
        } else {
            vec![a, corner, b]
        };
        if let Ok(route) = rfic_geom::Polyline::new(pts) {
            base.routes.insert(strip_id, route);
            true
        } else {
            false
        }
    }

    // --- phase 2 -----------------------------------------------------------

    /// Device visualisation: place real device footprints at the Phase-1
    /// junctions, legalise overlaps geometrically, then re-attach every
    /// route to the real pins with windowed per-strip ILPs.
    fn phase2(
        &self,
        netlist: &Netlist,
        phase1: &Layout,
        ctl: &crate::job::FlowCtl,
    ) -> Result<Layout, PilpError> {
        let mut layout = phase1.clone();
        self.initial_placement(netlist, &mut layout);
        legalize_placements(netlist, &mut layout, self.config.tau_d);

        // Re-route every strip against the real pins.
        for strip in netlist.microstrips() {
            ctl.check()?;
            let mut config = IlpConfig::single_strip(strip.id);
            config.hard_length = false;
            config.weights = self.config.weights;
            config
                .chain_points
                .insert(strip.id, strip.suggested_chain_points.clamp(4, 7));
            config
                .strip_windows
                .insert(strip.id, self.strip_window(netlist, &layout, strip.id));
            if let Ok((updated, _)) = self.solve_with_separation(netlist, config, &layout, ctl) {
                layout = updated;
            }
            // Failures are tolerated here: Phase 3 will retry with more
            // chain points and rotations.
        }
        Ok(layout)
    }

    /// Clamp Phase-1 junction placements into legal device positions.
    fn initial_placement(&self, netlist: &Netlist, layout: &mut Layout) {
        let (aw, ah) = netlist.area();
        for device in netlist.devices() {
            let placement = layout
                .placements
                .get(&device.id)
                .copied()
                .unwrap_or(Placement::at(Point::new(aw / 2.0, ah / 2.0)));
            let mut center = placement.center;
            if device.is_pad() {
                // Snap the pad centre to the nearest boundary edge.
                let d_left = center.x;
                let d_right = aw - center.x;
                let d_bottom = center.y;
                let d_top = ah - center.y;
                let min = d_left.min(d_right).min(d_bottom).min(d_top);
                if min == d_left {
                    center.x = 0.0;
                } else if min == d_right {
                    center.x = aw;
                } else if min == d_bottom {
                    center.y = 0.0;
                } else {
                    center.y = ah;
                }
            } else {
                let (w, h) = device.footprint(placement.rotation);
                center.x = center.x.clamp(w / 2.0, aw - w / 2.0);
                center.y = center.y.clamp(h / 2.0, ah - h / 2.0);
            }
            layout.placements.insert(
                device.id,
                Placement {
                    center,
                    rotation: placement.rotation,
                },
            );
        }
    }

    /// Window for a strip's chain points: the bounding box of its endpoint
    /// pins expanded by `τ_d`.
    fn strip_window(&self, netlist: &Netlist, layout: &Layout, strip_id: MicrostripId) -> Rect {
        let strip = netlist.microstrip(strip_id).expect("strip exists");
        let mut pts = Vec::new();
        for t in strip.terminals() {
            if let Some(p) = layout.pin_position(netlist, t.device, t.pin) {
                pts.push(p);
            }
        }
        let mut rect = match pts.as_slice() {
            [] => netlist.area_rect(),
            [p] => Rect::from_corners(*p, *p),
            _ => Rect::from_corners(pts[0], pts[1]),
        };
        // Detours also need room for the excess length beyond the pin-to-pin
        // distance.
        let excess = (strip.target_length - rect.half_perimeter()).max(0.0);
        rect = rect.expanded(self.config.tau_d + excess / 2.0);
        rect.intersection(&netlist.area_rect()).unwrap_or(rect)
    }

    // --- phase 3 -----------------------------------------------------------

    /// Iterative refinement with chain-point deletion/insertion and device
    /// rotation until every strip matches its exact length and the layout is
    /// DRC clean.
    fn phase3(
        &self,
        netlist: &Netlist,
        mut layout: Layout,
        ctl: &crate::job::FlowCtl,
    ) -> Result<Layout, PilpError> {
        let mut extra_points: BTreeMap<MicrostripId, usize> = BTreeMap::new();
        for iteration in 0..self.config.max_refine_iters {
            ctl.check()?;
            let drc = drc::check(netlist, &layout, &DrcOptions::default());
            let mut pending: Vec<MicrostripId> = netlist
                .microstrips()
                .iter()
                .map(|m| m.id)
                .filter(|&id| {
                    layout.abs_length_error(netlist, id) > drc::LENGTH_TOLERANCE_UM
                        || !drc.for_strip(id).is_empty()
                })
                .collect();
            if pending.is_empty() {
                break;
            }
            // Work on the worst strips first (largest length error).
            pending.sort_by(|a, b| {
                let ea = layout.abs_length_error(netlist, *a);
                let eb = layout.abs_length_error(netlist, *b);
                eb.partial_cmp(&ea).unwrap_or(std::cmp::Ordering::Equal)
            });

            for strip_id in pending {
                ctl.check()?;
                let mut solved = self.refine_strip(
                    netlist,
                    &mut layout,
                    strip_id,
                    &mut extra_points,
                    iteration,
                    ctl,
                );
                if !solved && iteration > 0 {
                    // Re-routing alone cannot repair this strip (typically
                    // because its pins ended up farther apart than the exact
                    // length allows). Move one endpoint device and re-route
                    // all strips incident to it concurrently.
                    solved = self.cluster_repair(netlist, &mut layout, strip_id, ctl);
                }
                if !solved
                    && self.config.try_rotations
                    && iteration + 1 == self.config.max_refine_iters
                {
                    self.try_rotation_repair(
                        netlist,
                        &mut layout,
                        strip_id,
                        &mut extra_points,
                        ctl,
                    );
                }
            }
        }
        Ok(layout)
    }

    /// Re-routes a single strip with chain-point deletion (route
    /// simplification) and insertion (extra chain points) until its exact
    /// length is met. Returns `true` on success.
    ///
    /// The soft-length site is solved first. When its round 0 proves an
    /// objective above [`hard_length_ceiling`], no exact-length route
    /// exists at this site and the hard attempt is skipped: it could only
    /// end infeasible. Otherwise the hard attempt runs, and when it fails
    /// the soft layout is kept if it at least shortens the length error.
    fn refine_strip(
        &self,
        netlist: &Netlist,
        layout: &mut Layout,
        strip_id: MicrostripId,
        extra_points: &mut BTreeMap<MicrostripId, usize>,
        iteration: usize,
        ctl: &crate::job::FlowCtl,
    ) -> bool {
        let strip = netlist.microstrip(strip_id).expect("strip exists");
        // Chain-point deletion: start from the simplified current route.
        let current_points = layout
            .route(strip_id)
            .map(|r| r.simplified().num_chain_points())
            .unwrap_or(2);
        let extra = extra_points.entry(strip_id).or_insert(0);
        if iteration > 0 && *extra < self.config.max_extra_chain_points {
            // Chain-point insertion: allow one more corner than last time.
            *extra += 1;
        }
        let n = (current_points.max(strip.suggested_chain_points).max(4) + *extra).min(9);

        let mut config = IlpConfig::single_strip(strip_id);
        config.hard_length = false;
        config.weights = self.config.weights;
        config.chain_points.insert(strip_id, n);
        config
            .strip_windows
            .insert(strip_id, self.strip_window(netlist, layout, strip_id));
        let ceiling = hard_length_ceiling(
            &self.config.weights,
            n,
            fixed_bend_floor(netlist, &config, layout),
        );
        let soft = self.solve_with_separation(netlist, config.clone(), layout, ctl);
        let hopeless = matches!(soft, Ok((_, Some(bound))) if bound > ceiling + CEILING_MARGIN);
        if !hopeless {
            config.hard_length = true;
            if let Ok((updated, _)) = self.solve_with_separation(netlist, config, layout, ctl) {
                *layout = updated;
                return true;
            }
        }
        // The hard attempt failed or was skipped: keep the soft layout if
        // it shortens the length error; the next iteration retries with an
        // extra chain point.
        if let Ok((updated, _)) = soft {
            if updated.abs_length_error(netlist, strip_id)
                < layout.abs_length_error(netlist, strip_id)
            {
                *layout = updated;
            }
        }
        false
    }

    /// Concurrent placement-and-routing repair: frees one endpoint device of
    /// the failing strip and re-solves it together with every strip incident
    /// to that device (hard lengths), confined to a `τ_d` window. This is the
    /// step that exercises the *concurrent* nature of the paper's model —
    /// routing alone cannot shorten a pin-to-pin distance.
    fn cluster_repair(
        &self,
        netlist: &Netlist,
        layout: &mut Layout,
        strip_id: MicrostripId,
        ctl: &crate::job::FlowCtl,
    ) -> bool {
        let strip = netlist.microstrip(strip_id).expect("strip exists").clone();
        for terminal in strip.terminals() {
            let Some(device) = netlist.device(terminal.device) else {
                continue;
            };
            let incident: Vec<MicrostripId> = netlist
                .microstrips_at(device.id)
                .iter()
                .map(|m| m.id)
                .collect();
            if incident.len() > 3 {
                continue; // keep the cluster MILP small enough to solve
            }
            let mut config = IlpConfig::single_strip(strip_id);
            config.free_strips = incident.iter().copied().collect();
            config.free_devices = BTreeSet::from([device.id]);
            // Soft lengths with the default (length-dominated) weights: the
            // cluster solve's job is to move the device into a position from
            // which the per-strip hard-length solves can succeed.
            config.hard_length = false;
            config.weights = self.config.weights;
            for &id in &incident {
                let n = layout
                    .route(id)
                    .map(|r| r.simplified().num_chain_points())
                    .unwrap_or(2)
                    .clamp(4, 6);
                config.chain_points.insert(id, n);
                config
                    .strip_windows
                    .insert(id, self.strip_window(netlist, layout, id));
            }
            if let Some(p) = layout.placement(device.id) {
                config.device_windows.insert(
                    device.id,
                    Rect::centered(p.center, 2.0 * self.config.tau_d, 2.0 * self.config.tau_d),
                );
            }
            if let Ok((updated, _)) = self.solve_with_separation(netlist, config, layout, ctl) {
                let error_sum = |l: &Layout| -> f64 {
                    incident
                        .iter()
                        .map(|&id| l.abs_length_error(netlist, id))
                        .sum()
                };
                let before = error_sum(layout);
                let after = error_sum(&updated);
                if after + 1e-6 < before {
                    *layout = updated;
                    if after <= drc::LENGTH_TOLERANCE_UM * incident.len() as f64 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Tries rotating the (rotatable) endpoint devices of a failing strip
    /// and re-routing all strips incident to the rotated device; keeps the
    /// first rotation that repairs the strip.
    fn try_rotation_repair(
        &self,
        netlist: &Netlist,
        layout: &mut Layout,
        strip_id: MicrostripId,
        extra_points: &mut BTreeMap<MicrostripId, usize>,
        ctl: &crate::job::FlowCtl,
    ) {
        let strip = netlist.microstrip(strip_id).expect("strip exists").clone();
        for terminal in strip.terminals() {
            let Some(device) = netlist.device(terminal.device) else {
                continue;
            };
            if !device.rotatable {
                continue;
            }
            let original = *layout.placements.get(&device.id).expect("placed");
            for rotation in rfic_geom::Rotation::ALL.into_iter().skip(1) {
                let mut candidate = layout.clone();
                candidate.placements.insert(
                    device.id,
                    Placement {
                        center: original.center,
                        rotation: original.rotation.compose(rotation),
                    },
                );
                // Re-route every strip attached to the rotated device.
                let mut ok = true;
                for incident in netlist.microstrips_at(device.id) {
                    if !self.refine_strip(
                        netlist,
                        &mut candidate,
                        incident.id,
                        extra_points,
                        0,
                        ctl,
                    ) {
                        ok = false;
                        break;
                    }
                }
                if ok && candidate.abs_length_error(netlist, strip_id) <= drc::LENGTH_TOLERANCE_UM {
                    *layout = candidate;
                    return;
                }
            }
        }
    }

    // --- shared machinery --------------------------------------------------

    /// Builds one ILP and solves it to overlap-freedom, lazily separating
    /// violated non-overlap pairs up to the configured number of rounds.
    /// Returns the layout and, when round 0 was solved here (not replayed
    /// from the cache) to proven optimality, that round's proven lower
    /// bound on the objective (see [`proven_bound`]).
    ///
    /// The model is built **once**; every separation round appends the new
    /// pairs to the same model ([`LayoutIlp::add_overlap_pairs`]) and
    /// re-solves warm-started from the previous round's root basis
    /// ([`LayoutIlp::solve_warm`]) — appended rows enter through the dual
    /// simplex instead of triggering a cold rebuild-and-resolve.
    ///
    /// The solves honour the job's cancel token and deadline (per-round
    /// time limits are capped by the time remaining), run on the job's
    /// shared solver pool, and memoize through the job's
    /// [`crate::FlowCache`]: a completed site whose every round solved to
    /// proven optimality is stored under the solve-site key, and an
    /// identical later site (in this job or a later one on the same
    /// context) returns the memoized layout without touching the solver
    /// at all. (Seeding the warm *basis* instead was measured to diverge:
    /// the presolve projection drops the dual steepest-edge weights, so a
    /// seeded replay re-prices its pivots, lands on alternate optima and
    /// costs more than a cold run.)
    ///
    /// The site's phase — which keys and budgets it — is the one
    /// the control block reports ([`crate::job::FlowCtl::phase`]), and
    /// every solve is counted there.
    fn solve_with_separation(
        &self,
        netlist: &Netlist,
        config: IlpConfig,
        base: &Layout,
        ctl: &crate::job::FlowCtl,
    ) -> Result<(Layout, Option<f64>), IlpError> {
        let phase = ctl.phase();
        let mut options = self.solve_options(phase);
        options.cancel = Some(ctl.cancel_token().clone());
        let base_limit = options.time_limit;
        let site_key = solve_site_key(ctl.fingerprint(), phase, &config, &self.config, base);
        if let Some(layout) = ctl.cache().lookup(site_key) {
            return Ok((layout, None));
        }
        let mut ilp = LayoutIlp::build(netlist, config, base)?;
        let mut warm = rfic_milp::WarmStart::new();
        let mut best: Option<Layout> = None;
        let mut root_bound = None;
        // A site is memoizable only if it ran to its natural conclusion
        // (no cancellation/deadline abort) and every round was proven
        // optimal — a time-limit incumbent is timing-dependent and would
        // replay a result a cold run might not reproduce.
        let mut aborted = false;
        let mut provable = true;
        for round in 0..=self.config.max_separation_rounds {
            if ctl.cancel_token().is_cancelled() {
                aborted = true;
                break;
            }
            match ctl.remaining() {
                Some(remaining) if remaining.is_zero() => {
                    aborted = true;
                    break;
                }
                Some(remaining) => options.time_limit = base_limit.min(remaining),
                None => options.time_limit = base_limit,
            }
            let outcome = match solve_with_fallback(&ilp, &options, &mut warm, ctl) {
                Ok(outcome) => outcome,
                Err(e) => {
                    // Per-strip solve failures are tolerated by the phase
                    // loops by design — but a contained panic or a dead
                    // pool is a *flow* fault, not a numerical dead end.
                    // Record it on the control block so the next phase
                    // checkpoint aborts the whole job with the real error.
                    if let Some(fatal) = fatal_flow_error(&e) {
                        ctl.record_fatal(fatal);
                    }
                    return Err(e);
                }
            };
            ctl.record_solve(&outcome.solution);
            if outcome.solution.status != rfic_milp::SolveStatus::Optimal {
                provable = false;
            } else if round == 0 {
                root_bound = Some(proven_bound(&outcome.solution, options.mip_gap));
            }
            let new_pairs = violating_pairs(netlist, &outcome.layout, ilp.config());
            best = Some(outcome.layout);
            if new_pairs.is_empty() {
                break;
            }
            if ilp.add_overlap_pairs(&new_pairs)? == 0 {
                break; // nothing new to add; accept the solution
            }
        }
        if !aborted && provable {
            if let Some(layout) = &best {
                ctl.cache().store(site_key, layout.clone());
            }
        }
        best.map(|layout| (layout, root_bound))
            .ok_or(IlpError::Solver(rfic_milp::MilpError::LimitReached))
    }
}

/// Margin by which a soft site's proven bound must clear
/// [`hard_length_ceiling`] before the hard attempt is skipped. It absorbs
/// the solver's feasibility tolerances on the length rows; the bounds
/// that skip in practice clear the ceiling by tens to hundreds.
const CEILING_MARGIN: f64 = 1.0;

/// The most any exact-length route can score at a single-strip site with
/// `n` chain points, where `fixed_bends` is the largest bend count among
/// the strips the site keeps fixed ([`fixed_bend_floor`]).
///
/// The hard and soft models differ only in their length rows, so an
/// exact-length route is soft-feasible with zero length deviation, and
/// then only the bend terms score: `α·n_b,max + β·n_b` with
/// `n_b ≤ n − 2` bends and `n_b,max = max(n_b, fixed_bends)`. A soft
/// optimum proven above this ceiling therefore shows that no exact-length
/// route exists. With non-negative weights the maximum is
/// `α·max(n − 2, fixed_bends) + β·(n − 2)`.
fn hard_length_ceiling(weights: &IlpWeights, n: usize, fixed_bends: usize) -> f64 {
    (0..=n.saturating_sub(2))
        .map(|bends| weights.alpha * bends.max(fixed_bends) as f64 + weights.beta * bends as f64)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The lower bound a proven-optimal solve certifies on its model's
/// objective (minimisation). The search prunes subtrees within `mip_gap`
/// of the incumbent without reporting them in [`rfic_milp::MilpSolution::gap`],
/// so the larger of the two gaps applies.
fn proven_bound(solution: &rfic_milp::MilpSolution, mip_gap: f64) -> f64 {
    solution.objective - solution.gap.max(mip_gap) * solution.objective.abs().max(1.0)
}

/// Runs one separation-round solve, retrying a *numerically*-failed solve
/// down the deterministic fallback ladder.
///
/// The ladder only engages on [`ladder_eligible`] errors — in practice a
/// singular basis / numerical failure surfacing as
/// `MilpError::Lp(LpError::InvalidModel)`. Infeasibility, limits,
/// cancellation, pool shutdown and contained panics are never retried:
/// they are either the model's true answer or a fault the retry could
/// not fix.
///
/// Determinism: the rung order is fixed, every rung starts from a fresh
/// cold [`rfic_milp::WarmStart`], and the ladder runs only after a
/// failure — an uninjected healthy run never enters it, so its solve
/// sequence (and layout) is bit-identical with the ladder compiled in.
/// On recovery the rung's captured root basis replaces `warm`, so later
/// separation rounds warm-start from the solve that actually succeeded.
fn solve_with_fallback(
    ilp: &LayoutIlp,
    options: &SolveOptions,
    warm: &mut rfic_milp::WarmStart,
    ctl: &crate::job::FlowCtl,
) -> Result<crate::model::IlpOutcome, IlpError> {
    let mut last = match ilp.solve_warm(options, warm, ctl.pool()) {
        Ok(outcome) => return Ok(outcome),
        Err(e) if ladder_eligible(&e) => e,
        Err(e) => return Err(e),
    };
    for rung in fallback_ladder(options) {
        let mut cold = rfic_milp::WarmStart::new();
        let result = ilp.solve_warm(&rung, &mut cold, ctl.pool());
        ctl.record_fallback_rung(result.is_ok());
        match result {
            Ok(outcome) => {
                *warm = cold;
                return Ok(outcome);
            }
            Err(e) if ladder_eligible(&e) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// `true` for errors the fallback ladder may retry: numerical failures of
/// the LP kernel (a singular refactorisation or instability gate surfaces
/// as `InvalidModel`). Limits, infeasibility, shutdown and contained
/// panics are final.
fn ladder_eligible(err: &IlpError) -> bool {
    matches!(
        err,
        IlpError::Solver(rfic_milp::MilpError::Lp(rfic_lp::LpError::InvalidModel(_)))
    )
}

/// The deterministic escalation ladder for numerically-failed solves,
/// derived from the failing solve's own options: cold start, then
/// Dantzig pricing (the simplest, most robust rule), then no presolve at
/// all (the raw relaxation). Each rung keeps the earlier rungs'
/// simplifications. The flow already equilibrates unconditionally, so
/// there is no separate scaling rung.
fn fallback_ladder(base: &SolveOptions) -> Vec<SolveOptions> {
    let cold = base.clone().cold();
    let dantzig = cold.clone().with_pricing(rfic_milp::PricingRule::Dantzig);
    let bare = dantzig.clone().without_presolve();
    vec![cold, dantzig, bare]
}

/// Maps solve errors that must abort the whole flow (rather than be
/// tolerated as a per-strip failure) to their [`PilpError`] form.
fn fatal_flow_error(err: &IlpError) -> Option<PilpError> {
    match err {
        IlpError::Solver(rfic_milp::MilpError::Internal { site }) => Some(PilpError::Internal {
            site: "milp.worker".to_string(),
            payload: site.clone(),
        }),
        IlpError::Solver(rfic_milp::MilpError::PoolShutdown) => Some(PilpError::PoolShutdown),
        _ => None,
    }
}

/// Cache key of one solve site: the netlist fingerprint, the flow phase,
/// the full per-solve [`IlpConfig`], the flow-level [`PilpConfig`]
/// (budgets, presolve, threads — everything that steers how the site is
/// solved) and the base layout the model is built against, folded through
/// FNV-1a. The config and layout are hashed via their `Debug` renderings
/// — Rust's `f64` debug format is the shortest round-tripping decimal, so
/// distinct values render distinctly — which keeps the key in lockstep
/// with the model builder without a parallel field walk.
fn solve_site_key(
    fingerprint: u64,
    phase: PilpPhase,
    config: &IlpConfig,
    flow: &PilpConfig,
    base: &Layout,
) -> u64 {
    let fnv = |mut h: u64, bytes: &[u8]| -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv(h, &fingerprint.to_le_bytes());
    h = fnv(h, &[phase as u8]);
    h = fnv(h, format!("{config:?}").as_bytes());
    h = fnv(h, format!("{flow:?}").as_bytes());
    h = fnv(h, format!("{base:?}").as_bytes());
    h
}

/// Geometric legalisation of device placements: iteratively push apart
/// overlapping device outlines (pads slide along their boundary edge) until
/// the spacing rule holds or the iteration limit is reached.
pub fn legalize_placements(netlist: &Netlist, layout: &mut Layout, max_shift: f64) {
    let spacing = netlist.tech().spacing();
    let (aw, ah) = netlist.area();
    let devices: Vec<_> = netlist.devices().to_vec();
    for _pass in 0..60 {
        let mut moved = false;
        for i in 0..devices.len() {
            for j in (i + 1)..devices.len() {
                let (Some(oi), Some(oj)) = (
                    layout.device_outline(netlist, devices[i].id),
                    layout.device_outline(netlist, devices[j].id),
                ) else {
                    continue;
                };
                let required = spacing;
                let gap = oi.gap(&oj);
                if gap >= required {
                    continue;
                }
                moved = true;
                // Push the two devices apart along the axis with the larger
                // existing separation (cheapest direction to fix).
                let ci = oi.center();
                let cj = oj.center();
                let dx = cj.x - ci.x;
                let dy = cj.y - ci.y;
                let need_x = (oi.width() + oj.width()) / 2.0 + required - dx.abs();
                let need_y = (oi.height() + oj.height()) / 2.0 + required - dy.abs();
                let push_x = need_x < need_y;
                let push = 0.5 * if push_x { need_x } else { need_y } + 0.5;
                let push = push.min(max_shift);
                let (sx, sy) = if push_x {
                    (push * if dx >= 0.0 { 1.0 } else { -1.0 }, 0.0)
                } else {
                    (0.0, push * if dy >= 0.0 { 1.0 } else { -1.0 })
                };
                shift_device(netlist, layout, devices[i].id, -sx, -sy, aw, ah);
                shift_device(netlist, layout, devices[j].id, sx, sy, aw, ah);
            }
        }
        if !moved {
            break;
        }
    }
}

/// Shifts a device while keeping it inside the area (pads stay glued to
/// their boundary edge).
fn shift_device(
    netlist: &Netlist,
    layout: &mut Layout,
    id: DeviceId,
    dx: f64,
    dy: f64,
    aw: f64,
    ah: f64,
) {
    let Some(device) = netlist.device(id) else {
        return;
    };
    let Some(p) = layout.placements.get(&id).copied() else {
        return;
    };
    let mut center = p.center.translated(dx, dy);
    if device.is_pad() {
        // Keep the pad on whichever boundary edge it currently sits on.
        if p.center.x.abs() < 1e-6 || (p.center.x - aw).abs() < 1e-6 {
            center.x = p.center.x;
            center.y = center.y.clamp(0.0, ah);
        } else {
            center.y = p.center.y;
            center.x = center.x.clamp(0.0, aw);
        }
    } else {
        let (w, h) = device.footprint(p.rotation);
        center.x = center.x.clamp(w / 2.0, aw - w / 2.0);
        center.y = center.y.clamp(h / 2.0, ah - h / 2.0);
    }
    layout.placements.insert(
        id,
        Placement {
            center,
            rotation: p.rotation,
        },
    );
}

/// Finds non-overlap pairs violated by `layout` that involve at least one
/// free object of `config` (lazy constraint separation). Devices count
/// only at sites that do not blur them.
pub(crate) fn violating_pairs(
    netlist: &Netlist,
    layout: &Layout,
    config: &IlpConfig,
) -> Vec<PairSpec> {
    let margin = netlist.tech().expansion_margin();
    let mut pairs = Vec::new();

    // Collect expanded boxes of every routed segment and placed device.
    let mut segment_boxes: BTreeMap<(MicrostripId, usize), Rect> = BTreeMap::new();
    for strip in netlist.microstrips() {
        for (idx, seg) in layout.strip_segments(netlist, strip.id).iter().enumerate() {
            segment_boxes.insert((strip.id, idx), seg.bounding_box(margin));
        }
    }
    let mut device_boxes: BTreeMap<DeviceId, Rect> = BTreeMap::new();
    if !config.blur_devices {
        for device in netlist.devices() {
            if let Some(outline) = layout.device_outline(netlist, device.id) {
                device_boxes.insert(device.id, outline.expanded(margin));
            }
        }
    }

    let is_free_strip = |id: MicrostripId| config.free_strips.contains(&id);
    let is_free_device = |id: DeviceId| config.free_devices.contains(&id);

    // Segment-segment pairs.
    let keys: Vec<(MicrostripId, usize)> = segment_boxes.keys().copied().collect();
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            let (sa, ia) = keys[i];
            let (sb, ib) = keys[j];
            if sa == sb {
                continue;
            }
            if !is_free_strip(sa) && !is_free_strip(sb) {
                continue;
            }
            let strip_a = netlist.microstrip(sa).expect("strip");
            let strip_b = netlist.microstrip(sb).expect("strip");
            if strip_a
                .terminals()
                .iter()
                .any(|t| strip_b.touches(t.device))
            {
                continue; // electrically adjacent at a shared device
            }
            if segment_boxes[&keys[i]].overlaps(&segment_boxes[&keys[j]]) {
                pairs.push(PairSpec {
                    a: ObjectId::Segment(sa, ia),
                    b: ObjectId::Segment(sb, ib),
                });
            }
        }
    }

    // Segment-device pairs.
    for (&(strip_id, idx), seg_box) in &segment_boxes {
        let strip = netlist.microstrip(strip_id).expect("strip");
        for (&dev_id, dev_box) in &device_boxes {
            if strip.touches(dev_id) {
                continue;
            }
            if !is_free_strip(strip_id) && !is_free_device(dev_id) {
                continue;
            }
            if seg_box.overlaps(dev_box) {
                pairs.push(PairSpec {
                    a: ObjectId::Segment(strip_id, idx),
                    b: ObjectId::Device(dev_id),
                });
            }
        }
    }

    // Device-device pairs.
    let dev_keys: Vec<DeviceId> = device_boxes.keys().copied().collect();
    for i in 0..dev_keys.len() {
        for j in (i + 1)..dev_keys.len() {
            if !is_free_device(dev_keys[i]) && !is_free_device(dev_keys[j]) {
                continue;
            }
            if device_boxes[&dev_keys[i]].overlaps(&device_boxes[&dev_keys[j]]) {
                pairs.push(PairSpec {
                    a: ObjectId::Device(dev_keys[i]),
                    b: ObjectId::Device(dev_keys[j]),
                });
            }
        }
    }

    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfic_netlist::benchmarks;

    #[test]
    fn solver_threads_zero_resolves_to_available_parallelism() {
        let auto = Pilp::new(PilpConfig {
            solver_threads: 0,
            ..PilpConfig::fast()
        });
        let requested = auto.solve_options(PilpPhase::GlobalRouting).threads;
        assert_eq!(requested, 0, "the flow passes 0 through to the solver");
        let resolved = rfic_milp::resolve_threads(requested);
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        assert_eq!(resolved, expected, "0 resolves to the hardware threads");
        assert!(resolved >= 1, "never hand the solver a zero worker count");
        assert!(resolved <= 8, "the layout MILP worker cap must survive");

        // Explicit counts pass through untouched.
        let pinned = Pilp::new(PilpConfig {
            solver_threads: 3,
            ..PilpConfig::fast()
        });
        assert_eq!(pinned.solve_options(PilpPhase::Refinement).threads, 3);
    }

    #[test]
    fn fallback_ladder_rungs_are_pairwise_distinct() {
        for config in [PilpConfig::fast(), PilpConfig::thorough()] {
            let pilp = Pilp::new(config);
            for phase in [
                PilpPhase::GlobalRouting,
                PilpPhase::Visualization,
                PilpPhase::Refinement,
            ] {
                let base = pilp.solve_options(phase);
                let ladder = fallback_ladder(&base);
                for (i, rung) in ladder.iter().enumerate() {
                    assert_ne!(*rung, base, "{phase}: rung {i} repeats the failed solve");
                    for (j, later) in ladder.iter().enumerate().skip(i + 1) {
                        assert_ne!(rung, later, "{phase}: rungs {i} and {j} are equal");
                    }
                }
            }
        }
    }

    #[test]
    fn pilp_lays_out_the_tiny_circuit() {
        let circuit = benchmarks::tiny_circuit();
        let result = Pilp::new(PilpConfig::fast())
            .run(&circuit.netlist)
            .expect("pilp run");
        assert!(result.layout.is_complete(&circuit.netlist));
        assert_eq!(result.snapshots.len(), 3);
        assert_eq!(result.snapshots[0].phase, PilpPhase::GlobalRouting);
        assert_eq!(result.snapshots[2].phase, PilpPhase::Refinement);
        // The run reports its aggregate solver traffic (the flow gate's
        // node counter): every solve explores at least its root node.
        assert!(result.solver.solves > 0);
        assert!(result.solver.nodes >= result.solver.solves);
        assert!(result.solver.simplex_iterations > 0);
        // Lengths converge toward the exact targets. With the fast solver
        // limits a small residual can remain on a strip or two.
        let report = result.report();
        assert!(
            report.max_length_error < 30.0,
            "max length error {} µm",
            report.max_length_error
        );
        let exact = report.exact_lengths();
        assert!(
            exact * 2 >= report.strips.len(),
            "at least half of the strips reach their exact length ({exact}/{})",
            report.strips.len()
        );
        // Bend counts should not exceed the manual-style witness.
        assert!(result.layout.total_bends() <= circuit.witness.total_bends() + 2);
    }

    #[test]
    fn invalid_netlist_is_rejected() {
        // A zero layout area fails netlist validation, which the flow runs
        // before its first solve.
        let tiny = benchmarks::tiny_circuit();
        let err = Pilp::new(PilpConfig::fast())
            .run(&tiny.netlist.with_area(0.0, 0.0))
            .err();
        assert!(
            matches!(err, Some(PilpError::InvalidNetlist(_))),
            "expected InvalidNetlist, got {err:?}"
        );
    }

    #[test]
    fn legalizer_removes_device_overlaps() {
        let circuit = benchmarks::small_circuit();
        let netlist = &circuit.netlist;
        let mut layout = Layout::new(netlist.area());
        // Stack every device in the middle of the area.
        let (aw, ah) = netlist.area();
        for device in netlist.devices() {
            let mut center = Point::new(aw / 2.0, ah / 2.0);
            if device.is_pad() {
                center = Point::new(0.0, ah / 2.0);
            }
            layout.placements.insert(device.id, Placement::at(center));
        }
        legalize_placements(netlist, &mut layout, 400.0);
        let spacing = netlist.tech().spacing();
        let devices: Vec<_> = netlist.non_pad_devices().collect();
        for i in 0..devices.len() {
            for j in (i + 1)..devices.len() {
                let a = layout.device_outline(netlist, devices[i].id).unwrap();
                let b = layout.device_outline(netlist, devices[j].id).unwrap();
                assert!(
                    a.gap(&b) + 1e-6 >= spacing,
                    "devices {} and {} still too close ({} µm)",
                    devices[i].name,
                    devices[j].name,
                    a.gap(&b)
                );
            }
        }
    }

    /// Solves the soft and the hard round-0 site of `strip` with `n` chain
    /// points against `base`, as phase 3 does: returns the soft site's
    /// proven bound, the site's [`hard_length_ceiling`] and whether the
    /// hard site found an exact-length route.
    fn certificate_at(
        netlist: &Netlist,
        base: &Layout,
        strip: MicrostripId,
        n: usize,
    ) -> (f64, f64, bool) {
        let options = Pilp::new(PilpConfig::fast()).solve_options(PilpPhase::Refinement);
        let mut config = IlpConfig::single_strip(strip);
        config.hard_length = false;
        config.chain_points.insert(strip, n);
        let soft = LayoutIlp::build(netlist, config.clone(), base)
            .expect("build soft site")
            .solve(&options)
            .expect("the soft site always has a route");
        assert_eq!(soft.solution.status, rfic_milp::SolveStatus::Optimal);
        let bound = proven_bound(&soft.solution, options.mip_gap);
        let ceiling =
            hard_length_ceiling(&config.weights, n, fixed_bend_floor(netlist, &config, base));
        config.hard_length = true;
        let hard = LayoutIlp::build(netlist, config, base)
            .expect("build hard site")
            .solve(&options);
        (bound, ceiling, hard.is_ok())
    }

    #[test]
    fn hard_length_ceiling_takes_the_fixed_bend_floor() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        let strips: Vec<MicrostripId> = netlist.microstrips().iter().map(|m| m.id).collect();
        // A fixed strip with five bends, more than the n − 2 = 2 a free
        // strip with four chain points can have.
        let mut layout = Layout::from_witness(&circuit);
        let staircase = (0..7)
            .map(|i| Point::new(10.0 * ((i + 1) / 2) as f64, 10.0 * (i / 2) as f64))
            .collect();
        layout.routes.insert(
            strips[1],
            rfic_geom::Polyline::new(staircase).expect("route"),
        );
        assert_eq!(layout.bend_count(strips[1]), 5);
        let config = IlpConfig::single_strip(strips[0]);
        let floor = fixed_bend_floor(netlist, &config, &layout);
        assert_eq!(floor, 5);

        let w = IlpWeights::default();
        let ceiling = hard_length_ceiling(&w, 4, floor);
        assert!((ceiling - (w.alpha * 5.0 + w.beta * 2.0)).abs() < 1e-12);
        // Without the floor the free strip's own bends set the maximum.
        let ceiling = hard_length_ceiling(&w, 4, 0);
        assert!((ceiling - (w.alpha + w.beta) * 2.0).abs() < 1e-12);
        // A negative bend weight makes the straight route the worst one.
        let rewarded = IlpWeights {
            alpha: 0.0,
            beta: -1.0,
            ..w
        };
        assert_eq!(hard_length_ceiling(&rewarded, 4, 0), 0.0);
    }

    #[test]
    fn soft_bound_above_the_ceiling_proves_the_hard_site_infeasible() {
        let circuit = benchmarks::tiny_circuit();
        let base = Layout::from_witness(&circuit);
        let strip = circuit.netlist.microstrips()[0].clone();
        let pin = |t: rfic_netlist::Terminal| {
            base.pin_position(&circuit.netlist, t.device, t.pin)
                .expect("placed pin")
        };
        let (a, b) = (pin(strip.start), pin(strip.end));
        let manhattan = (a.x - b.x).abs() + (a.y - b.y).abs();
        // Half the pin-to-pin distance: no route can be that short.
        let netlist = circuit
            .netlist
            .with_target_scale(0.5 * manhattan / strip.target_length);
        let (bound, ceiling, hard_found) = certificate_at(&netlist, &base, strip.id, 6);
        assert!(
            bound > ceiling + CEILING_MARGIN,
            "bound {bound} must clear ceiling {ceiling}"
        );
        assert!(!hard_found, "the hard site must be infeasible");
    }

    #[test]
    fn reachable_target_keeps_the_soft_bound_under_the_ceiling() {
        let circuit = benchmarks::tiny_circuit();
        let base = Layout::from_witness(&circuit);
        let strip = circuit.netlist.microstrips()[0].id;
        let (bound, ceiling, hard_found) = certificate_at(&circuit.netlist, &base, strip, 6);
        assert!(hard_found, "the witness target is reachable");
        assert!(bound <= ceiling, "bound {bound} above ceiling {ceiling}");
    }

    #[test]
    fn violating_pairs_report_overlaps_involving_free_objects() {
        let circuit = benchmarks::tiny_circuit();
        let netlist = &circuit.netlist;
        // Base layout: witness, but squash two unrelated strips together by
        // translating one route on top of another.
        let mut layout = Layout::from_witness(&circuit);
        let strips: Vec<_> = netlist.microstrips().to_vec();
        // Find two strips that do not share a device.
        let mut pair = None;
        'outer: for i in 0..strips.len() {
            for j in (i + 1)..strips.len() {
                if !strips[i]
                    .terminals()
                    .iter()
                    .any(|t| strips[j].touches(t.device))
                {
                    pair = Some((strips[i].id, strips[j].id));
                    break 'outer;
                }
            }
        }
        let Some((a, b)) = pair else {
            return; // tiny circuit happens to be fully adjacent; nothing to test
        };
        let route_a = layout.routes[&a].clone();
        layout.routes.insert(b, route_a);
        let config = IlpConfig::single_strip(b);
        let pairs = violating_pairs(netlist, &layout, &config);
        assert!(
            pairs
                .iter()
                .any(|p| matches!((p.a, p.b), (ObjectId::Segment(x, _), ObjectId::Segment(y, _)) if (x == a && y == b) || (x == b && y == a))),
            "overlapping strips should be separated: {pairs:?}"
        );
    }

    #[test]
    fn phase_display_names() {
        assert!(PilpPhase::GlobalRouting.to_string().contains("phase 1"));
        assert!(PilpPhase::Visualization.to_string().contains("phase 2"));
        assert!(PilpPhase::Refinement.to_string().contains("phase 3"));
        let err = PilpError::Phase {
            phase: PilpPhase::Refinement,
            message: "x".into(),
        };
        assert!(err.to_string().contains("phase 3"));
    }
}
