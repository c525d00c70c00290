//! The asynchronous layout-job API: submit netlists, share one solver
//! pool, wait/poll/cancel.
//!
//! [`crate::Pilp::run`] historically owned the whole machine for the
//! duration of one flow — every MILP solve spawned its own worker
//! threads, and a caller wanting two layouts at once paid for two full
//! thread sets with no way to stop a runaway run. This module inverts
//! the control flow:
//!
//! * [`crate::Pilp::submit`] returns a [`JobHandle`] immediately; the
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
//! A job is a run of one netlist and a sweep ([`crate::Pilp::submit_sweep`])
//! is a run of many: one runner lays the netlists out in order on one
//! thread, each flow under its own control block and panic boundary, and
//! fills each netlist's [`JobHandle`]. One write-once
//! [`rfic_lp::sync::Slot`] type serves the job results, the pool's tree
//! completions and a flow's fatal-error record.
//!
//! The process-wide default context behind [`crate::Pilp::run`] and
//! [`crate::Pilp::submit`] is [`JobContext::global`]; servers that need
//! their own pool lifecycle construct a [`JobContext`] and use
//! [`crate::Pilp::submit_in`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

    /// The process-wide context used by [`Pilp::run`] and
    /// [`Pilp::submit`]. Created lazily on first use; its pool workers
    /// live for the rest of the process.
    pub fn global() -> &'static JobContext {
        static GLOBAL: OnceLock<JobContext> = OnceLock::new();
        GLOBAL.get_or_init(|| JobContext::new(0))
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
    cache: Option<Arc<FlowCache>>,
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

    /// The shared solve-site cache, if attached.
    pub(crate) fn cache(&self) -> Option<&FlowCache> {
        self.cache.as_deref()
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

/// Handle to a submitted layout job ([`Pilp::submit`]).
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

/// The thread name and the [`PilpError::Internal`] sites of one kind of
/// run: a job or a sweep.
struct RunNames {
    thread: &'static str,
    /// Site of a panic caught at a flow's boundary.
    panic: &'static str,
    /// Site of a failed thread spawn.
    spawn: &'static str,
}

/// Runs `netlists` in order on one new thread, each as a full flow under
/// its own control block and panic boundary, all sharing the context's
/// pool and, with `use_cache`, its solve-site cache. Returns
/// the run's cancel token and one [`JobHandle`] per netlist, in order.
///
/// `use_cache` is off only for [`Pilp::run`], so that repeated
/// measurement runs in one process always perform — and report — the
/// full solver work.
fn spawn_flows(
    pilp: Pilp,
    netlists: Vec<Netlist>,
    ctx: &JobContext,
    use_cache: bool,
    names: RunNames,
) -> (CancelToken, Vec<JobHandle>) {
    let cancel = CancelToken::new();
    let handles: Vec<JobHandle> = netlists
        .iter()
        .map(|_| JobHandle {
            cancel: cancel.clone(),
            progress: Arc::default(),
        })
        .collect();
    let flows: Vec<Arc<ProgressState>> = handles.iter().map(|h| Arc::clone(&h.progress)).collect();
    let thread_cancel = cancel.clone();
    let pool = ctx.pool.clone();
    let cache = use_cache.then(|| Arc::clone(&ctx.cache));
    let spawned = std::thread::Builder::new()
        .name(names.thread.into())
        .spawn(move || {
            for (netlist, flow) in netlists.iter().zip(&flows) {
                // Panic boundary: whatever happens inside a flow, its
                // result slot is filled — a panicking flow fails itself,
                // not the netlists after it or the waiters on it.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = rfic_lp::fault::fire("core.job.flow");
                    let ctl = FlowCtl {
                        cancel: thread_cancel.clone(),
                        deadline: pilp.config().deadline.map(|d| Instant::now() + d),
                        pool: pool.clone(),
                        cache: cache.clone(),
                        fingerprint: netlist.fingerprint(),
                        progress: Arc::clone(flow),
                        fatal: Slot::default(),
                    };
                    pilp.run_with(netlist, &ctl)
                }))
                .unwrap_or_else(|payload| {
                    Err(PilpError::Internal {
                        site: names.panic.to_string(),
                        payload: rfic_milp::panic_payload_string(payload.as_ref()),
                    })
                });
                flow.finish(result);
            }
        });
    if let Err(e) = spawned {
        // Thread spawn failed (resource exhaustion): every flow fails
        // immediately instead of panicking the submitter.
        for handle in &handles {
            handle.progress.finish(Err(PilpError::Internal {
                site: names.spawn.to_string(),
                payload: e.to_string(),
            }));
        }
    }
    (cancel, handles)
}

/// Spawns one job: a run of one netlist.
pub(crate) fn spawn_job(
    pilp: Pilp,
    netlist: Netlist,
    ctx: &JobContext,
    use_cache: bool,
) -> JobHandle {
    let names = RunNames {
        thread: "rfic-job",
        panic: "core.job.flow",
        spawn: "core.job.spawn",
    };
    let (_, mut handles) = spawn_flows(pilp, vec![netlist], ctx, use_cache, names);
    handles.pop().expect("one handle per netlist")
}

/// Handle to a submitted parameter sweep ([`Pilp::submit_sweep`]).
///
/// A sweep is a run of many netlists: its variants run **sequentially,
/// in submission order, on one background thread**, sharing the
/// context's solver pool and solve-site cache. Each variant is a plain
/// job, so its layout is bit-identical to submitting it on its own.
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

    /// Requests cancellation of the whole sweep: the in-flight variant
    /// aborts at its next checkpoint and every remaining variant fails
    /// with [`PilpError::Cancelled`].
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
    let names = RunNames {
        thread: "rfic-sweep",
        panic: "core.job.sweep",
        spawn: "core.job.sweep.spawn",
    };
    let (cancel, jobs) = spawn_flows(pilp, variants, ctx, true, names);
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
