//! The asynchronous layout-job API: submit netlists, share one solver
//! pool, wait/poll/cancel.
//!
//! [`crate::Pilp::run`] historically owned the whole machine for the
//! duration of one flow — every MILP solve spawned its own worker
//! threads, and a caller wanting two layouts at once paid for two full
//! thread sets with no way to stop a runaway run. This module inverts
//! the control flow:
//!
//! * [`crate::Pilp::submit_in`] returns a [`JobHandle`] immediately; the
//!   flow runs on a background thread and every MILP solve is scheduled
//!   on the [`JobContext`]'s shared [`rfic_milp::SolverPool`], so N
//!   concurrent jobs multiplex one fixed worker set instead of
//!   oversubscribing the cores.
//! * [`JobHandle::cancel`] trips a [`rfic_milp::CancelToken`] that the
//!   simplex kernel polls every few dozen pivots (the same plumbing a
//!   per-solve time limit uses): the in-flight solve returns promptly
//!   and the flow surfaces [`crate::PilpError::Cancelled`] at the next
//!   phase checkpoint — deliberately checked *outside* the per-strip
//!   solve loops, which tolerate individual solve failures by design.
//! * [`crate::PilpConfig::deadline`] bounds the whole run: per-solve
//!   time limits are capped by the time remaining and an exhausted
//!   deadline surfaces as [`crate::PilpError::DeadlineExceeded`].
//! * Jobs sharing a context also share its [`crate::FlowCache`] of
//!   memoized solve-site layouts, so a repeated identical request
//!   replays each solve site as a pure lookup — the identical layout
//!   with near-zero solver work.
//!
//! A job is a run of one netlist and a sweep ([`crate::Pilp::submit_sweep_in`])
//! is a run of many. A run starts one runner thread per netlist, at most
//! one per pool worker; each runner takes the next netlist in submission
//! order, lays it out under its own control block and panic boundary, and
//! fills that netlist's [`JobHandle`]. A sweep's variants therefore
//! overlap in time, each a plain job whose layout and solver counters do
//! not depend on what runs beside it. One write-once
//! [`rfic_lp::sync::Slot`] type serves the job results, the pool's tree
//! completions and a flow's fatal-error record.
//!
//! Every job runs on a [`JobContext`] its caller owns: servers keep one
//! for their whole lifetime, and [`crate::Pilp::run`] creates one per call
//! and shuts it down before it returns, so a run shares neither its pool
//! nor its cache with anything else in the process.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rfic_lp::sync::{LockExt, Slot};
use rfic_milp::{CancelToken, SolverPool};
use rfic_netlist::Netlist;

use crate::cache::{FlowCache, ModelCache};
use crate::pilp::{Pilp, PilpError, PilpPhase, PilpResult, SolverTotals};

/// Shared solving infrastructure for layout jobs: a persistent
/// [`SolverPool`] plus the cross-request [`FlowCache`] of memoized
/// solve-site layouts.
///
/// Every job submitted into the same context schedules its
/// branch-and-bound trees on the same fixed worker set and shares the
/// same cache.
pub struct JobContext {
    pool: SolverPool,
    cache: Arc<FlowCache>,
    models: Arc<ModelCache>,
}

impl JobContext {
    /// Creates a context with `workers` pool threads (`0` = hardware
    /// parallelism capped at 8) and default-capacity caches.
    pub fn new(workers: usize) -> JobContext {
        JobContext {
            pool: SolverPool::new(workers),
            cache: Arc::new(FlowCache::default()),
            models: Arc::new(ModelCache::with_capacity(1)),
        }
    }

    /// The shared solver pool.
    pub fn pool(&self) -> &SolverPool {
        &self.pool
    }

    /// The shared solve-site cache.
    pub fn cache(&self) -> &Arc<FlowCache> {
        &self.cache
    }

    /// An inert cache that nothing in the flow reads or writes; it stays
    /// only for its counters (see [`ModelCache`]).
    pub fn model_cache(&self) -> &Arc<ModelCache> {
        &self.models
    }

    /// Shuts the pool down: in-flight solves return their incumbents and
    /// jobs still running fail with [`PilpError::PoolShutdown`] at their
    /// next checkpoint.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}

/// Internal per-run control block threaded through the flow phases:
/// cancellation, deadline, the shared pool/cache, the current phase and
/// the job's solver totals — the one place a job's solver work is
/// counted.
pub(crate) struct FlowCtl {
    cancel: CancelToken,
    deadline: Option<Instant>,
    pool: SolverPool,
    cache: Arc<FlowCache>,
    /// [`Netlist::fingerprint`] of the job's circuit (cache keying).
    fingerprint: u64,
    progress: Arc<ProgressState>,
    /// Flow-fatal error recorded inside a tolerant per-strip solve loop
    /// (a contained worker panic, a dead pool); surfaced by the next
    /// [`FlowCtl::check`] so the phase loops abort instead of papering
    /// over the fault with their per-strip fallbacks.
    fatal: Slot<PilpError>,
}

impl FlowCtl {
    /// The abort checkpoint the phase loops poll between solves:
    /// cancellation, recorded fatal faults, deadline and pool liveness,
    /// in that priority order.
    pub(crate) fn check(&self) -> Result<(), PilpError> {
        let _ = rfic_lp::fault::fire("core.job.checkpoint");
        if self.cancel.is_cancelled() {
            return Err(PilpError::Cancelled);
        }
        if let Some(fatal) = self.fatal.poll() {
            return Err(fatal);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(PilpError::DeadlineExceeded);
            }
        }
        if self.pool.is_shut_down() {
            return Err(PilpError::PoolShutdown);
        }
        Ok(())
    }

    /// Records a flow-fatal error (first one wins); the next
    /// [`FlowCtl::check`] checkpoint returns it.
    pub(crate) fn record_fatal(&self, error: PilpError) {
        self.fatal.fill(error);
    }

    /// Time left until the deadline (`None` = no deadline).
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The job's cancel token (cloned into every `SolveOptions`).
    pub(crate) fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The shared pool every solve of the run is scheduled on.
    pub(crate) fn pool(&self) -> &SolverPool {
        &self.pool
    }

    /// The shared solve-site cache.
    pub(crate) fn cache(&self) -> &FlowCache {
        &self.cache
    }

    /// The netlist fingerprint for cache keying.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub(crate) fn note_phase(&self, phase: PilpPhase) {
        let stage = match phase {
            PilpPhase::GlobalRouting => 1,
            PilpPhase::Visualization => 2,
            PilpPhase::Refinement => 3,
        };
        self.progress.stage.store(stage, Ordering::Relaxed);
    }

    /// The phase the flow is in: it keys and budgets every solve site,
    /// and it is the phase [`JobHandle::progress`] reports.
    pub(crate) fn phase(&self) -> PilpPhase {
        stage_phase(self.progress.stage.load(Ordering::Relaxed)).expect("solves run inside a phase")
    }

    /// Counts one MILP solve of the job.
    pub(crate) fn record_solve(&self, solution: &rfic_milp::MilpSolution) {
        self.progress.totals.lock_recover().record(solution);
    }

    /// Counts one fallback-ladder rung, and the recovery if it solved.
    pub(crate) fn record_fallback_rung(&self, recovered: bool) {
        let mut totals = self.progress.totals.lock_recover();
        totals.fallback_attempts += 1;
        totals.fallback_recoveries += usize::from(recovered);
    }

    /// The job's solver work so far.
    pub(crate) fn totals(&self) -> SolverTotals {
        *self.progress.totals.lock_recover()
    }
}

/// What a flow's thread shares with its [`JobHandle`]: the stage
/// (0 = validating, 1–3 = the phases, 4 = finished), the solver work
/// counted so far, which is also the finished result's
/// [`PilpResult::solver`], and the result itself.
#[derive(Default)]
struct ProgressState {
    stage: AtomicUsize,
    totals: Mutex<SolverTotals>,
    result: Slot<Result<PilpResult, PilpError>>,
}

impl ProgressState {
    /// Marks the flow finished and publishes its result.
    fn finish(&self, result: Result<PilpResult, PilpError>) {
        self.stage.store(4, Ordering::Relaxed);
        self.result.fill(result);
    }
}

/// The phase a progress stage encodes (`None` while validating and after
/// the job finished).
fn stage_phase(stage: usize) -> Option<PilpPhase> {
    match stage {
        1 => Some(PilpPhase::GlobalRouting),
        2 => Some(PilpPhase::Visualization),
        3 => Some(PilpPhase::Refinement),
        _ => None,
    }
}

/// A point-in-time progress snapshot of a layout job
/// ([`JobHandle::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// The phase currently executing (`None` while validating and after
    /// the job finished).
    pub phase: Option<PilpPhase>,
    /// Individual MILP solves counted so far: the running
    /// [`crate::SolverTotals::solves`], equal to the result's
    /// [`PilpResult::solver`] count once the job is done.
    pub solves: usize,
    /// Whether the job has produced its result (success or error).
    pub done: bool,
}

/// Handle to a submitted layout job ([`Pilp::submit_in`]).
///
/// The handle is passive: dropping it neither cancels nor detaches the
/// job (the flow keeps running on the shared pool); cancel explicitly if
/// the result is no longer wanted.
pub struct JobHandle {
    cancel: CancelToken,
    progress: Arc<ProgressState>,
}

impl JobHandle {
    /// Blocks until the job finishes and returns (a clone of) its
    /// result. Can be called more than once.
    ///
    /// # Errors
    ///
    /// Whatever the flow returns — including
    /// [`PilpError::Cancelled`] after [`JobHandle::cancel`],
    /// [`PilpError::DeadlineExceeded`] past the configured deadline and
    /// [`PilpError::PoolShutdown`] if the context was shut down
    /// mid-flight.
    pub fn wait(&self) -> Result<PilpResult, PilpError> {
        self.progress.result.wait()
    }

    /// Non-blocking result check: `None` while the job is still running,
    /// otherwise a clone of the result.
    pub fn poll(&self) -> Option<Result<PilpResult, PilpError>> {
        self.progress.result.poll()
    }

    /// Requests cancellation. The running solve notices within a few
    /// dozen simplex pivots and the job finishes with
    /// [`PilpError::Cancelled`] at its next phase checkpoint; the pool
    /// workers it occupied move on to other jobs.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// `true` once [`JobHandle::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// A snapshot of the job's progress.
    pub fn progress(&self) -> JobProgress {
        let stage = self.progress.stage.load(Ordering::Relaxed);
        JobProgress {
            phase: stage_phase(stage),
            solves: self.progress.totals.lock_recover().solves,
            done: stage == 4,
        }
    }
}

/// Number of runner threads for a run of `netlists` flows on a pool of
/// `workers`: one per flow, at most one per worker, at least one while
/// there is a flow to run.
fn runner_count(netlists: usize, workers: usize) -> usize {
    netlists.min(workers.max(1))
}

/// Runs `netlists` on [`runner_count`] new threads, each flow under its
/// own control block and panic boundary, all sharing the context's pool
/// and solve-site cache. Each runner takes the next netlist in submission
/// order until none is left, so a run never has more flows in flight than
/// the pool has workers. Returns the run's cancel token and one
/// [`JobHandle`] per netlist, in order.
fn spawn_flows(
    pilp: Pilp,
    netlists: Vec<Netlist>,
    ctx: &JobContext,
) -> (CancelToken, Vec<JobHandle>) {
    let cancel = CancelToken::new();
    let handles: Vec<JobHandle> = netlists
        .iter()
        .map(|_| JobHandle {
            cancel: cancel.clone(),
            progress: Arc::default(),
        })
        .collect();
    let run = Arc::new(Run {
        pilp,
        flows: netlists
            .into_iter()
            .zip(handles.iter().map(|h| Arc::clone(&h.progress)))
            .collect(),
        next: AtomicUsize::new(0),
        cancel: cancel.clone(),
        pool: ctx.pool.clone(),
        cache: Arc::clone(&ctx.cache),
    });
    let mut started = 0;
    let mut spawn_error = None;
    for _ in 0..runner_count(run.flows.len(), ctx.pool.workers()) {
        let runner = Arc::clone(&run);
        match std::thread::Builder::new()
            .name("rfic-job".into())
            .spawn(move || runner.drain())
        {
            Ok(_) => started += 1,
            Err(e) => {
                spawn_error = Some(e);
                break;
            }
        }
    }
    if let (0, Some(e)) = (started, spawn_error) {
        // No runner started (resource exhaustion): every flow fails
        // immediately instead of panicking the submitter. One started
        // runner drains every flow on its own.
        for handle in &handles {
            handle.progress.finish(Err(PilpError::Internal {
                site: "core.job.spawn".to_string(),
                payload: e.to_string(),
            }));
        }
    }
    (cancel, handles)
}

/// What the runner threads of one run share: the flows to lay out, each
/// with the progress its [`JobHandle`] reads, and the index of the next
/// flow no runner has taken yet.
struct Run {
    pilp: Pilp,
    flows: Vec<(Netlist, Arc<ProgressState>)>,
    next: AtomicUsize,
    cancel: CancelToken,
    pool: SolverPool,
    cache: Arc<FlowCache>,
}

impl Run {
    /// A runner's loop: takes the next flow until none is left.
    fn drain(&self) {
        while let Some((netlist, flow)) = self.flows.get(self.next.fetch_add(1, Ordering::Relaxed))
        {
            // Panic boundary: whatever happens inside a flow, its result
            // slot is filled — a panicking flow fails itself, not the
            // other flows of the run or the waiters on it.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = rfic_lp::fault::fire("core.job.flow");
                let ctl = FlowCtl {
                    cancel: self.cancel.clone(),
                    deadline: self.pilp.config().deadline.map(|d| Instant::now() + d),
                    pool: self.pool.clone(),
                    cache: Arc::clone(&self.cache),
                    fingerprint: netlist.fingerprint(),
                    progress: Arc::clone(flow),
                    fatal: Slot::default(),
                };
                self.pilp.run_with(netlist, &ctl)
            }))
            .unwrap_or_else(|payload| {
                Err(PilpError::Internal {
                    site: "core.job.flow".to_string(),
                    payload: rfic_milp::panic_payload_string(payload.as_ref()),
                })
            });
            flow.finish(result);
        }
    }
}

/// Spawns one job: a run of one netlist.
pub(crate) fn spawn_job(pilp: Pilp, netlist: Netlist, ctx: &JobContext) -> JobHandle {
    let (_, mut handles) = spawn_flows(pilp, vec![netlist], ctx);
    handles.pop().expect("one handle per netlist")
}

/// Handle to a submitted parameter sweep ([`Pilp::submit_sweep_in`]).
///
/// A sweep is a run of many netlists: its variants **overlap**, started
/// in submission order on up to one runner thread per pool worker, and
/// share the context's solver pool and solve-site cache. Each variant is
/// a plain job, so its layout and solver counters are bit-identical to
/// submitting it on its own.
///
/// Like [`JobHandle`], the handle is passive: dropping it neither
/// cancels nor detaches the sweep.
pub struct SweepHandle {
    jobs: Vec<JobHandle>,
    cancel: CancelToken,
}

impl SweepHandle {
    /// Blocks until every variant finishes and returns (a clone of) the
    /// per-variant results, in submission order. Can be called more than
    /// once.
    pub fn wait(&self) -> Vec<Result<PilpResult, PilpError>> {
        self.jobs.iter().map(JobHandle::wait).collect()
    }

    /// Non-blocking result check: `None` while variants are still
    /// running, otherwise a clone of the per-variant results.
    pub fn poll(&self) -> Option<Vec<Result<PilpResult, PilpError>>> {
        self.jobs.iter().map(JobHandle::poll).collect()
    }

    /// Number of variants that have finished (success or error).
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|job| job.progress().done).count()
    }

    /// Total number of variants submitted.
    pub fn variants(&self) -> usize {
        self.jobs.len()
    }

    /// Requests cancellation of the whole sweep: every in-flight variant
    /// aborts at its next checkpoint and every variant not yet started
    /// fails with [`PilpError::Cancelled`]; variants already finished
    /// keep their results.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// `true` once [`SweepHandle::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

/// Spawns a sweep: a run of the variants, sharing the context's pool and
/// solve-site cache.
pub(crate) fn spawn_sweep(pilp: Pilp, variants: Vec<Netlist>, ctx: &JobContext) -> SweepHandle {
    let (cancel, jobs) = spawn_flows(pilp, variants, ctx);
    SweepHandle { jobs, cancel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pilp::PilpConfig;
    use rfic_netlist::benchmarks;

    #[test]
    fn submitted_job_reports_progress_and_result() {
        let ctx = JobContext::new(2);
        let circuit = benchmarks::tiny_circuit();
        let job = Pilp::new(PilpConfig::fast()).submit_in(&circuit.netlist, &ctx);
        let result = job.wait().expect("job completes");
        assert!(result.layout.is_complete(&circuit.netlist));
        let progress = job.progress();
        assert!(progress.done);
        assert_eq!(progress.phase, None);
        assert!(progress.solves > 0);
        // Progress and the result read the one set of solver totals.
        assert_eq!(progress.solves, result.solver.solves);
        // `poll` after completion returns the same result.
        let polled = job.poll().expect("finished").expect("ok");
        assert_eq!(polled.solver.solves, result.solver.solves);
        ctx.shutdown();
    }

    #[test]
    fn zero_deadline_fails_before_any_solve() {
        let ctx = JobContext::new(1);
        let circuit = benchmarks::tiny_circuit();
        let config = PilpConfig {
            deadline: Some(Duration::ZERO),
            ..PilpConfig::fast()
        };
        let job = Pilp::new(config).submit_in(&circuit.netlist, &ctx);
        assert!(matches!(job.wait(), Err(PilpError::DeadlineExceeded)));
        ctx.shutdown();
    }

    #[test]
    fn runners_are_one_per_flow_at_most_one_per_worker() {
        assert_eq!(runner_count(2, 2), 2);
        assert_eq!(runner_count(8, 2), 2);
        assert_eq!(runner_count(1, 4), 1);
        assert_eq!(runner_count(3, 1), 1);
        // At least one runner while there is a flow, none for an empty run.
        assert_eq!(runner_count(3, 0), 1);
        assert_eq!(runner_count(0, 2), 0);
    }

    /// Polls the variants of `sweep` until all are done; `true` when some
    /// poll saw every variant inside a phase before any had finished.
    fn saw_all_in_a_phase(sweep: &SweepHandle) -> bool {
        let mut overlapped = false;
        let mut any_done = false;
        while sweep.completed() < sweep.variants() {
            let progress: Vec<JobProgress> = sweep.jobs.iter().map(JobHandle::progress).collect();
            any_done |= progress.iter().any(|p| p.done);
            overlapped |= !any_done && progress.iter().all(|p| p.phase.is_some());
            std::thread::sleep(Duration::from_millis(2));
        }
        overlapped
    }

    /// The variants of a sweep on two workers run side by side, and each
    /// is still the plain job it would be alone: the same layout, SVG and
    /// solver counters as a solo submission on a fresh context.
    #[test]
    fn two_variant_sweep_overlaps_and_matches_solo_submissions() {
        let circuit = benchmarks::tiny_circuit();
        let variants: Vec<Netlist> = [1.0, 1.01]
            .iter()
            .map(|&scale| circuit.netlist.with_target_scale(scale))
            .collect();
        let pilp = Pilp::new(PilpConfig::fast());
        let solo: Vec<PilpResult> = variants
            .iter()
            .map(|netlist| {
                let ctx = JobContext::new(2);
                let result = pilp.submit_in(netlist, &ctx).wait().expect("solo variant");
                ctx.shutdown();
                result
            })
            .collect();

        let ctx = JobContext::new(2);
        let sweep = pilp.submit_sweep_in(&variants, &ctx);
        assert!(
            saw_all_in_a_phase(&sweep),
            "both variants must be inside a phase at once before either finishes"
        );
        let swept = sweep.wait();
        ctx.shutdown();
        for (i, ((netlist, swept), solo)) in variants.iter().zip(&swept).zip(&solo).enumerate() {
            let swept = swept.as_ref().expect("swept variant");
            assert_eq!(swept.layout, solo.layout, "variant {i}: layout");
            assert_eq!(
                crate::render::svg(netlist, &swept.layout),
                crate::render::svg(netlist, &solo.layout),
                "variant {i}: SVG"
            );
            assert_eq!(swept.solver, solo.solver, "variant {i}: solver totals");
        }
    }

    /// Cancelling a running sweep fills every slot: variants finished
    /// before the cancel keep their layouts, the rest fail as cancelled.
    #[test]
    fn cancelled_running_sweep_fills_every_slot() {
        let ctx = JobContext::new(2);
        let circuit = benchmarks::tiny_circuit();
        let variants: Vec<Netlist> = (0..4)
            .map(|i| circuit.netlist.with_target_scale(1.0 + 0.01 * i as f64))
            .collect();
        let sweep = Pilp::new(PilpConfig::fast()).submit_sweep_in(&variants, &ctx);
        while sweep.jobs.iter().all(|job| job.progress().phase.is_none()) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let finished_before: Vec<bool> = sweep.jobs.iter().map(|job| job.progress().done).collect();
        sweep.cancel();
        let results = sweep.wait();
        assert_eq!(sweep.completed(), sweep.variants());
        assert_eq!(results.len(), 4);
        for (i, (result, finished)) in results.iter().zip(finished_before).enumerate() {
            match result {
                Ok(_) => {}
                Err(PilpError::Cancelled) => assert!(!finished, "variant {i} finished before"),
                Err(e) => panic!("variant {i}: {e:?}"),
            }
        }
        // Runners take variants in order, so the last one had not started.
        assert!(matches!(results[3], Err(PilpError::Cancelled)));
        ctx.shutdown();
    }

    #[test]
    fn cancelled_sweep_fails_every_remaining_variant() {
        let ctx = JobContext::new(1);
        let circuit = benchmarks::tiny_circuit();
        let pilp = Pilp::new(PilpConfig::fast());
        let sweep = pilp.submit_sweep_in(&vec![circuit.netlist.clone(); 3], &ctx);
        sweep.cancel();
        let results = sweep.wait();
        assert_eq!(results.len(), 3);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(PilpError::Cancelled))));
        assert_eq!(sweep.completed(), 3);
        assert_eq!(sweep.variants(), 3);
        assert!(sweep.is_cancelled());
        // An empty sweep is finished the moment it is submitted.
        let empty = pilp.submit_sweep_in(&[], &ctx);
        assert!(empty.wait().is_empty());
        assert!(empty.poll().is_some_and(|results| results.is_empty()));
        ctx.shutdown();
    }
}
