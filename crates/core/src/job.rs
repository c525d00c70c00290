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
//! The process-wide default context behind [`crate::Pilp::run`] and
//! [`crate::Pilp::submit`] is [`JobContext::global`]; servers that need
//! their own pool lifecycle construct a [`JobContext`] and use
//! [`crate::Pilp::submit_in`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rfic_lp::sync::{self, LockExt};
use rfic_milp::{CancelToken, SolverPool};
use rfic_netlist::Netlist;

use crate::cache::{FlowCache, ModelCache};
use crate::pilp::{Pilp, PilpError, PilpPhase, PilpResult, SolverTotals};

/// Shared solving infrastructure for layout jobs: a persistent
/// [`SolverPool`] plus the cross-request [`FlowCache`] of memoized
/// solve-site layouts and the structure-keyed [`ModelCache`] of retained
/// model builds for the parameter-sweep fast path.
///
/// Every job submitted into the same context schedules its
/// branch-and-bound trees on the same fixed worker set and shares the
/// same caches.
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
            models: Arc::new(ModelCache::default()),
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

    /// The shared structure-keyed model cache (parameter-sweep fast
    /// path).
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
    models: Option<crate::cache::ModelView>,
    /// [`Netlist::fingerprint`] of the job's circuit (cache keying).
    fingerprint: u64,
    progress: Arc<ProgressState>,
    /// Flow-fatal error recorded inside a tolerant per-strip solve loop
    /// (a contained worker panic, a dead pool); surfaced by the next
    /// [`FlowCtl::check`] so the phase loops abort instead of papering
    /// over the fault with their per-strip fallbacks.
    fatal: Mutex<Option<PilpError>>,
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
        if let Some(fatal) = sync::lock(&self.fatal).clone() {
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
        let mut slot = sync::lock(&self.fatal);
        if slot.is_none() {
            *slot = Some(error);
        }
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

    /// This flow's deterministic view of the shared structure-keyed
    /// model cache, if attached.
    pub(crate) fn model_cache(&self) -> Option<&crate::cache::ModelView> {
        self.models.as_ref()
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

    /// The phase the flow is in: it keys, budgets and blurs every solve
    /// site, and it is the phase [`JobHandle::progress`] reports.
    pub(crate) fn phase(&self) -> PilpPhase {
        stage_phase(self.progress.stage.load(Ordering::Relaxed)).expect("solves run inside a phase")
    }

    /// Counts one MILP solve of the job.
    pub(crate) fn record_solve(&self, solution: &rfic_milp::MilpSolution) {
        sync::lock(&self.progress.totals).record(solution);
    }

    /// Counts one fallback-ladder rung, and the recovery if it solved.
    pub(crate) fn record_fallback_rung(&self, recovered: bool) {
        let mut totals = sync::lock(&self.progress.totals);
        totals.fallback_attempts += 1;
        totals.fallback_recoveries += usize::from(recovered);
    }

    /// The job's solver work so far.
    pub(crate) fn totals(&self) -> SolverTotals {
        *sync::lock(&self.progress.totals)
    }
}

/// Progress shared between the flow thread and the handle: the stage
/// (0 = validating, 1–3 = the phases, 4 = finished) and the solver work
/// counted so far, which is also the finished result's
/// [`PilpResult::solver`].
#[derive(Default)]
struct ProgressState {
    stage: AtomicUsize,
    totals: Mutex<SolverTotals>,
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

/// Result slot + wakeup for one job.
#[derive(Default)]
struct JobState {
    result: Mutex<Option<Result<PilpResult, PilpError>>>,
    cv: Condvar,
}

/// Handle to a submitted layout job ([`Pilp::submit`]).
///
/// The handle is passive: dropping it neither cancels nor detaches the
/// job (the flow keeps running on the shared pool); cancel explicitly if
/// the result is no longer wanted.
pub struct JobHandle {
    state: Arc<JobState>,
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
        let mut slot = self.state.result.lock_recover();
        while slot.is_none() {
            slot = sync::wait(&self.state.cv, slot);
        }
        slot.as_ref().expect("result present").clone()
    }

    /// Non-blocking result check: `None` while the job is still running,
    /// otherwise a clone of the result.
    pub fn poll(&self) -> Option<Result<PilpResult, PilpError>> {
        self.state.result.lock_recover().clone()
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
            solves: sync::lock(&self.progress.totals).solves,
            done: stage == 4,
        }
    }
}

/// Spawns the flow thread for one job and wires up its control block.
///
/// `use_cache` controls whether the job reads/feeds the context's
/// [`FlowCache`]: the job API shares it (identical requests replay from
/// memoized solve sites), while the legacy [`Pilp::run`] wrapper opts
/// out so that repeated measurement runs in one process always perform —
/// and report — the full solver work.
pub(crate) fn spawn_job(
    pilp: Pilp,
    netlist: Netlist,
    ctx: &JobContext,
    use_cache: bool,
) -> JobHandle {
    let cancel = CancelToken::new();
    let progress = Arc::new(ProgressState::default());
    let state = Arc::new(JobState::default());
    let ctl = FlowCtl {
        cancel: cancel.clone(),
        deadline: pilp.config().deadline.map(|d| Instant::now() + d),
        pool: ctx.pool.clone(),
        cache: use_cache.then(|| Arc::clone(&ctx.cache)),
        models: use_cache.then(|| crate::cache::ModelView::new(Arc::clone(&ctx.models))),
        fingerprint: netlist.fingerprint(),
        progress: Arc::clone(&progress),
        fatal: Mutex::new(None),
    };
    let thread_state = Arc::clone(&state);
    let thread_progress = Arc::clone(&progress);
    let spawned = std::thread::Builder::new()
        .name("rfic-job".into())
        .spawn(move || {
            // Panic boundary: whatever happens inside the flow, the result
            // slot is filled and waiters are woken — a panicking job must
            // fail itself, not strand every `JobHandle::wait` on it.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = rfic_lp::fault::fire("core.job.flow");
                pilp.run_with(&netlist, &ctl)
            }))
            .unwrap_or_else(|payload| {
                Err(PilpError::Internal {
                    site: "core.job.flow".to_string(),
                    payload: rfic_milp::panic_payload_string(payload.as_ref()),
                })
            });
            thread_progress.stage.store(4, Ordering::Relaxed);
            let mut slot = thread_state.result.lock_recover();
            *slot = Some(result);
            thread_state.cv.notify_all();
        });
    if let Err(e) = spawned {
        // Thread spawn failed (resource exhaustion): the job fails
        // immediately instead of panicking the submitter.
        progress.stage.store(4, Ordering::Relaxed);
        *state.result.lock_recover() = Some(Err(PilpError::Internal {
            site: "core.job.spawn".to_string(),
            payload: e.to_string(),
        }));
        state.cv.notify_all();
    }
    JobHandle {
        state,
        cancel,
        progress,
    }
}

/// Result slot + wakeup + progress for one parameter sweep.
#[derive(Default)]
struct SweepState {
    result: Mutex<Option<Vec<Result<PilpResult, PilpError>>>>,
    completed: AtomicUsize,
    cv: Condvar,
}

/// Handle to a submitted parameter sweep ([`Pilp::submit_sweep`]).
///
/// A sweep runs its variants **sequentially, in submission order, on one
/// background thread**, sharing the context's solver pool and caches.
/// Sequential execution is what makes the sweep fast *and* reproducible:
/// each variant's solves re-enter the structure-keyed [`ModelCache`]
/// entries its predecessor left warm, and the cache traversal is
/// identical to submitting the same variants one at a time — so the
/// layouts are bit-identical to sequential individual submissions.
///
/// Like [`JobHandle`], the handle is passive: dropping it neither
/// cancels nor detaches the sweep.
pub struct SweepHandle {
    state: Arc<SweepState>,
    cancel: CancelToken,
    variants: usize,
}

impl SweepHandle {
    /// Blocks until every variant finishes and returns (a clone of) the
    /// per-variant results, in submission order. Can be called more than
    /// once.
    pub fn wait(&self) -> Vec<Result<PilpResult, PilpError>> {
        let mut slot = self.state.result.lock_recover();
        while slot.is_none() {
            slot = sync::wait(&self.state.cv, slot);
        }
        slot.as_ref().expect("result present").clone()
    }

    /// Non-blocking result check: `None` while variants are still
    /// running, otherwise a clone of the per-variant results.
    pub fn poll(&self) -> Option<Vec<Result<PilpResult, PilpError>>> {
        self.state.result.lock_recover().clone()
    }

    /// Number of variants that have finished (success or error).
    pub fn completed(&self) -> usize {
        self.state
            .completed
            .load(Ordering::Relaxed)
            .min(self.variants)
    }

    /// Total number of variants submitted.
    pub fn variants(&self) -> usize {
        self.variants
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

/// Spawns the sweep thread: variants run sequentially in submission
/// order, each as a full flow under its own control block, all sharing
/// the context's pool, solve-site cache and model cache (that sharing is
/// the sweep fast path — see [`crate::cache::ModelCache`]).
pub(crate) fn spawn_sweep(pilp: Pilp, variants: Vec<Netlist>, ctx: &JobContext) -> SweepHandle {
    let cancel = CancelToken::new();
    let state = Arc::new(SweepState::default());
    let pool = ctx.pool.clone();
    let cache = Arc::clone(&ctx.cache);
    let models = Arc::clone(&ctx.models);
    let count = variants.len();
    let thread_state = Arc::clone(&state);
    let thread_cancel = cancel.clone();
    let spawned = std::thread::Builder::new()
        .name("rfic-sweep".into())
        .spawn(move || {
            let mut results = Vec::with_capacity(variants.len());
            for netlist in &variants {
                // Per-variant panic boundary, like `spawn_job`'s: a
                // panicking variant fails itself without stranding the
                // rest of the sweep or its waiters.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = rfic_lp::fault::fire("core.job.flow");
                    let ctl = FlowCtl {
                        cancel: thread_cancel.clone(),
                        deadline: pilp.config().deadline.map(|d| Instant::now() + d),
                        pool: pool.clone(),
                        cache: Some(Arc::clone(&cache)),
                        models: Some(crate::cache::ModelView::new(Arc::clone(&models))),
                        fingerprint: netlist.fingerprint(),
                        progress: Arc::new(ProgressState::default()),
                        fatal: Mutex::new(None),
                    };
                    pilp.run_with(netlist, &ctl)
                }))
                .unwrap_or_else(|payload| {
                    Err(PilpError::Internal {
                        site: "core.job.sweep".to_string(),
                        payload: rfic_milp::panic_payload_string(payload.as_ref()),
                    })
                });
                results.push(result);
                thread_state.completed.fetch_add(1, Ordering::Relaxed);
            }
            let mut slot = thread_state.result.lock_recover();
            *slot = Some(results);
            thread_state.cv.notify_all();
        });
    if let Err(e) = spawned {
        let failure = || {
            Err(PilpError::Internal {
                site: "core.job.sweep.spawn".to_string(),
                payload: e.to_string(),
            })
        };
        state.completed.store(count, Ordering::Relaxed);
        *state.result.lock_recover() = Some((0..count).map(|_| failure()).collect());
        state.cv.notify_all();
    }
    SweepHandle {
        state,
        cancel,
        variants: count,
    }
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
    fn invalid_netlist_surfaces_through_the_job_api() {
        // An empty netlist fails validation-by-construction later in the
        // flow: use an area-less netlist via the builder's error path
        // instead — here we just check the deadline error plumbing with a
        // zero deadline, which trips before any solve.
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
}
