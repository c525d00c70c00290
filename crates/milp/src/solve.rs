//! Parallel best-first branch-and-bound MILP solver over the LP relaxation,
//! with warm-started node re-solves and most-fractional branching.
//!
//! **Search organisation.** Open nodes live in a shared pool ordered by
//! their parent LP bound (best-first), tie-broken by a monotone sequence
//! number so the pop order is reproducible. A configurable number of worker
//! threads ([`SolveOptions::threads`]) pop the globally most promising node
//! and then *plunge*: after branching, the preferred child (the classical
//! up-first rule for binaries, LP-rounding for general integers) is kept on
//! the worker and explored immediately while the sibling is published to
//! the pool. Plunging preserves the incumbent-finding behaviour of the old
//! depth-first dive — with one thread the search is the old dive with
//! best-bound backtracking — while the pool gives idle workers the best
//! global bound to work on.
//!
//! **Warm starts.** Every node carries the optimal [`Basis`] of its parent
//! LP; a node differs from its parent by one variable bound, so the parent
//! basis stays dual feasible and the node LP is re-solved by a handful of
//! dual-simplex pivots. Each worker owns its LP workspace (`Basis` is
//! `Send`, asserted in `rfic-lp`), so node solves never contend.
//!
//! **Bounds and determinism.** The incumbent objective is shared through an
//! atomic (bit-cast `f64`), so bound pruning is lock-free on the hot path.
//! Workers only prune nodes whose bound cannot improve the incumbent by
//! more than the tolerance, which makes the *returned objective*
//! deterministic and independent of the thread count (the tree shape and
//! which optimal solution is returned may differ; see `DESIGN.md`).
//!
//! **No cutting planes.** Presolve and the root LP run on the calling
//! thread, and every worker then solves its nodes on a plain clone of that
//! relaxation: nothing is separated, at the root or below it (DESIGN.md
//! "No cutting planes" records why). [`WarmStart`] carries the root basis
//! between solves of a growing model, which is what the lazy
//! constraint-separation loop of the layout engine exploits.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rfic_lp::sync::{LockExt, Slot};

use rfic_lp::{
    Basis, CancelToken, LinearProgram, LpError, LpSolution, Postsolve, PresolveConfig,
    PresolveStats, PricingRule, Sense,
};

use crate::model::Model;
use crate::INT_TOLERANCE;

/// Limits and tolerances controlling a MILP solve.
///
/// The rounding primal heuristic is not optional: it runs at the root and
/// at every node until the search holds an incumbent.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Wall-clock limit; the best incumbent found so far is returned when it
    /// expires.
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes.
    pub node_limit: usize,
    /// Relative optimality gap at which the search stops.
    pub mip_gap: f64,
    /// Warm-start node LPs from the parent basis (dual simplex re-entry).
    /// Disable only for benchmarking cold-start behaviour.
    pub warm_start: bool,
    /// Branch-and-bound worker threads: `1` searches on the calling thread,
    /// `n > 1` spawns `n` workers over the shared node pool, `0` uses the
    /// available hardware parallelism (see [`crate::resolve_threads`]).
    pub threads: usize,
    /// Ignored: the search separates no cutting planes. The field stays
    /// only because the layout-service benchmark names it.
    pub cut_rounds: usize,
    /// Ignored, like [`SolveOptions::cut_rounds`]; kept only because the
    /// layout-service benchmark names it.
    pub cut_every: usize,
    /// Ignored, like [`SolveOptions::cut_rounds`]; kept only because the
    /// layout-service benchmark names it.
    pub max_cut_rounds: usize,
    /// Ignored, like [`SolveOptions::cut_rounds`]; kept only because the
    /// layout-service benchmark names it.
    pub local_cuts: bool,
    /// Branching-variable selection rule. [`BranchRule`] has a single
    /// variant; the field stays only because the layout-service benchmark
    /// names it.
    pub branching: BranchRule,
    /// Presolve configuration applied to the root relaxation: the entire
    /// tree is searched in the reduced (and scaled) variable space, with
    /// node bound changes mapped through the reduction stack and every
    /// incumbent postsolved back to the full model at offer time. On by
    /// default; [`SolveOptions::without_presolve`] switches it off (the
    /// golden/determinism suites cross-check both settings).
    pub presolve: PresolveConfig,
    /// Pricing rule handed to every LP solve (node re-solves, root,
    /// heuristics). The default [`PricingRule::DualSteepestEdge`] is what
    /// the layout engine runs: it accelerates exactly the warm dual node
    /// re-solves. [`PricingRule::Dantzig`] is the numerical fallback
    /// ladder's rung — see the enum docs.
    pub pricing: PricingRule,
    /// Optional cooperative cancellation token shared with the caller:
    /// checked between nodes and inside every node LP's pivot loop (at
    /// the `set_time_limit` cadence). A cancelled solve stops like a time
    /// limit — the best incumbent so far is returned, or
    /// [`MilpError::LimitReached`] if none exists. `None` (the default)
    /// disables the checks. Tokens compare by identity, so two otherwise
    /// equal option sets sharing a token still compare equal.
    pub cancel: Option<CancelToken>,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            time_limit: Duration::from_secs(60),
            node_limit: 200_000,
            mip_gap: 1e-6,
            warm_start: true,
            threads: 1,
            cut_rounds: 2,
            cut_every: 0,
            max_cut_rounds: 2,
            local_cuts: true,
            branching: BranchRule::default(),
            pricing: PricingRule::default(),
            presolve: PresolveConfig::default(),
            cancel: None,
        }
    }
}

impl SolveOptions {
    /// A configuration with a caller-chosen time limit and otherwise default
    /// settings.
    pub fn with_time_limit(time_limit: Duration) -> SolveOptions {
        SolveOptions {
            time_limit,
            ..SolveOptions::default()
        }
    }

    /// The same configuration with warm starts disabled (cold-start
    /// baseline for benchmarks and equivalence tests).
    pub fn cold(mut self) -> SolveOptions {
        self.warm_start = false;
        self
    }

    /// The same configuration with the given worker-thread count
    /// (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> SolveOptions {
        self.threads = threads;
        self
    }

    /// The same configuration with the given LP pricing rule.
    pub fn with_pricing(mut self, pricing: PricingRule) -> SolveOptions {
        self.pricing = pricing;
        self
    }

    /// The same configuration with root presolve disabled (the search runs
    /// on the raw relaxation — equivalence baseline for the golden and
    /// determinism suites).
    pub fn without_presolve(mut self) -> SolveOptions {
        self.presolve = PresolveConfig::off();
        self
    }
}

/// Which branching-variable selection rule the search uses.
///
/// The search only branches most-fractional. The enum (and
/// [`SolveOptions::branching`]) stays solely because the layout-service
/// benchmark names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchRule {
    /// Branch on the integer variable whose fractional part is closest to
    /// ½ (see DESIGN.md for why pseudocost scores lost on layout models).
    #[default]
    MostFractional,
}

/// How a MILP solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal (within the configured gap).
    Optimal,
    /// A feasible solution was found but a limit stopped the proof of
    /// optimality.
    Feasible,
}

/// Result of a successful MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Value of every variable, indexed by [`crate::VarId::index`].
    pub values: Vec<f64>,
    /// Objective value in the model's sense.
    pub objective: f64,
    /// Termination status.
    pub status: SolveStatus,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
    /// Final relative optimality gap (0 when proven optimal).
    pub gap: f64,
    /// Total simplex pivots across every node LP (and heuristic) solve —
    /// the cost metric the warm-start machinery optimises.
    pub simplex_iterations: usize,
    /// Total from-scratch basis refactorisations across those solves — the
    /// fixed cost the factorisation cache exists to avoid (reported next
    /// to the pivot count in the CI pivot report).
    pub lp_refactorizations: usize,
    /// Subset of `simplex_iterations` performed by the dual engine — the
    /// warm node re-solve path that dual steepest-edge pricing
    /// ([`PricingRule::DualSteepestEdge`]) accelerates.
    pub lp_dual_iterations: usize,
    /// Total nonbasic bound flips applied by the long-step dual ratio
    /// test across every node LP (each batch of flips rides on a single
    /// dual pivot).
    pub lp_bound_flips: usize,
    /// What root presolve removed from the relaxation the tree searched
    /// (all-zero counters when presolve is disabled or found nothing).
    pub presolve: PresolveStats,
    /// Node LPs stopped at the incumbent cutoff: their dual simplex proved
    /// the node bound-dominated before finishing, so the node was pruned
    /// as the bound check after a finished LP would have pruned it (0
    /// while the search holds no incumbent). Their pivots are part of
    /// [`MilpSolution::simplex_iterations`].
    pub cutoff_nodes: usize,
}

impl MilpSolution {
    /// Value of a variable.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.index()]
    }

    /// Rounded 0/1 value of a binary variable.
    pub fn binary_value(&self, var: crate::VarId) -> bool {
        self.values[var.index()] > 0.5
    }
}

/// Error returned by [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// The model has no integer-feasible solution.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// A limit (time or nodes) was reached before any feasible solution was
    /// found; optimality status is unknown.
    LimitReached,
    /// The solve was handed to a [`crate::SolverPool`] that had already
    /// been shut down.
    PoolShutdown,
    /// The underlying LP solver failed.
    Lp(LpError),
    /// A worker thread panicked while searching this tree. The panic was
    /// contained by the search's `catch_unwind` boundary — sibling trees
    /// and the process are unaffected — and `site` carries the panic
    /// payload (for failpoint-injected panics, `failpoint:<site>`).
    Internal {
        /// The panic payload / failpoint site that brought the tree down.
        site: String,
    },
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Infeasible => f.write_str("MILP is infeasible"),
            MilpError::Unbounded => f.write_str("MILP relaxation is unbounded"),
            MilpError::LimitReached => {
                f.write_str("solver limit reached before a feasible solution was found")
            }
            MilpError::PoolShutdown => f.write_str("solver pool has been shut down"),
            MilpError::Lp(e) => write!(f, "LP solver error: {e}"),
            MilpError::Internal { site } => {
                write!(f, "solver worker panicked (contained): {site}")
            }
        }
    }
}

impl std::error::Error for MilpError {}

impl From<LpError> for MilpError {
    fn from(e: LpError) -> Self {
        match e {
            LpError::Infeasible => MilpError::Infeasible,
            LpError::Unbounded => MilpError::Unbounded,
            other => MilpError::Lp(other),
        }
    }
}

/// Reusable warm-start state carried across [`Model::solve_warm`] calls of
/// a *growing* model (the lazy-separation protocol of the layout engine:
/// solve, separate violated constraints, append them, re-solve).
///
/// The stored root basis also survives added variables/constraints — the LP
/// layer reconciles the dimensions (see [`rfic_lp::Basis`]).
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    root_basis: Option<Basis>,
}

impl WarmStart {
    /// An empty warm-start state (the first solve is cold).
    pub fn new() -> WarmStart {
        WarmStart::default()
    }
}

/// A branch-and-bound node: bound tightenings relative to the root model,
/// plus the optimal basis of the parent LP for the dual warm start.
#[derive(Debug, Clone)]
struct Node {
    /// `(variable index, new lower bound, new upper bound)` changes.
    bound_changes: Vec<(usize, f64, f64)>,
    /// LP bound of the parent (used for best-bound ordering and pruning).
    parent_bound: f64,
    /// Optimal basis of the parent's LP relaxation.
    parent_basis: Option<Basis>,
}

/// An open node in the shared best-first pool. Ordered by `(key, seq)`
/// ascending — `seq` is a global counter, so the pop order is fully
/// determined for any fixed set of published nodes.
struct OpenNode {
    key: f64,
    seq: u64,
    node: Node,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse both components for min-pop.
        other
            .key
            .partial_cmp(&self.key)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Aggregated LP work counters, shared lock-free across the workers (and
/// reported on the [`MilpSolution`]): total pivots, refactorisations,
/// dual-engine pivots and long-step bound flips over every node,
/// heuristic and root LP solve.
#[derive(Debug, Default)]
struct LpWorkCounters {
    pivots: AtomicUsize,
    refactorizations: AtomicUsize,
    dual_pivots: AtomicUsize,
    bound_flips: AtomicUsize,
}

impl LpWorkCounters {
    fn record(&self, solution: &LpSolution) {
        self.pivots
            .fetch_add(solution.iterations, Ordering::Relaxed);
        self.refactorizations
            .fetch_add(solution.refactorizations, Ordering::Relaxed);
        self.dual_pivots
            .fetch_add(solution.dual_iterations, Ordering::Relaxed);
        self.bound_flips
            .fetch_add(solution.bound_flips, Ordering::Relaxed);
    }
}

/// Mutable pool state guarded by one mutex.
struct Pool {
    heap: BinaryHeap<OpenNode>,
    /// Nodes currently being plunged by workers.
    in_flight: usize,
    /// Nodes dropped on a per-LP limit: their subtree is unexplored, so
    /// optimality may not be claimed past them.
    dropped: bool,
    dropped_bound: f64,
}

/// Everything the workers of one branch-and-bound tree share. Owns its
/// search state outright (no borrows), so a tree can either be searched by
/// scoped threads on the submitting call stack or be handed to the
/// long-lived workers of a [`crate::SolverPool`] behind an `Arc`.
pub(crate) struct Shared {
    model: Model,
    options: SolveOptions,
    /// The presolved root relaxation every node LP clones.
    base_lp: LinearProgram,
    /// Original bounds of every variable (node bound resets).
    base_bounds: Vec<(f64, f64)>,
    integer_vars: Vec<usize>,
    /// Root presolve transform: restores reduced-space LP points to the
    /// full model (incumbents are always offered in full-model values) and
    /// carries the objective offset of the removed columns.
    postsolve: Postsolve,
    sense_sign: f64,
    start: Instant,
    pool: Mutex<Pool>,
    cv: Condvar,
    /// Best incumbent `(values, minimised objective)`.
    incumbent: Mutex<Option<(Vec<f64>, f64)>>,
    /// Bit-cast minimised incumbent objective for lock-free bound pruning.
    incumbent_bound: AtomicU64,
    /// Per-worker bound of the node currently being plunged (`f64::INFINITY`
    /// bits when idle); feeds the global gap computation.
    worker_bounds: Vec<AtomicU64>,
    nodes: AtomicUsize,
    /// Node LPs stopped at the incumbent cutoff ([`Shared::node_cutoff`]).
    cutoff_nodes: AtomicUsize,
    lp_work: LpWorkCounters,
    seq: AtomicU64,
    /// Workers blocked on the pool condvar (starvation signal: active
    /// workers donate local nodes when this is non-zero).
    waiting: AtomicUsize,
    stop: AtomicBool,
    limit_hit: AtomicBool,
    /// The tree's first worker-fatal error.
    error: Slot<MilpError>,
}

impl Shared {
    /// Worker slots this tree is searched with (the configured thread
    /// count — a pool attaches at most this many workers).
    pub(crate) fn slots(&self) -> usize {
        self.worker_bounds.len()
    }

    /// Requests an orderly stop of the search (pool shutdown): workers
    /// drain their local stacks back to the pool and return, and the
    /// result is assembled as if a limit had been hit.
    pub(crate) fn request_stop(&self) {
        self.limit_hit.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// `true` once the caller's cancellation token has fired.
    fn cancelled(&self) -> bool {
        self.options
            .cancel
            .as_ref()
            .is_some_and(|c| c.is_cancelled())
    }

    fn incumbent_bound(&self) -> f64 {
        f64::from_bits(self.incumbent_bound.load(Ordering::Acquire))
    }

    /// Minimised full-model bound of a reduced-space LP objective: the
    /// presolve offset (contribution of fixed columns) is added
    /// back so node bounds compare against incumbents evaluated on the
    /// full model.
    fn minimised_bound(&self, lp_objective: f64) -> f64 {
        self.sense_sign * (lp_objective + self.postsolve.objective_offset())
    }

    /// `true` when a subtree with LP bound `bound` cannot improve the
    /// incumbent by more than the configured gap — the bound-pruning rule.
    /// The relative-gap arm mirrors the serial solver's early stop: with a
    /// loose `mip_gap` (the layout flow runs at 1e-4) whole near-optimal
    /// subtrees are cut, which is where most of its wall-clock goes.
    fn dominated(&self, bound: f64) -> bool {
        let incumbent = self.incumbent_bound();
        if !incumbent.is_finite() {
            return false;
        }
        bound >= incumbent - 1e-9 || relative_gap(incumbent, bound) <= self.options.mip_gap
    }

    /// The objective cutoff for a node LP, in the presolved relaxation's
    /// own sense: the bound at which [`Shared::dominated`] starts to hold
    /// (either arm), with the sense and the presolve offset folded back
    /// out of [`Shared::minimised_bound`]. `None` without an incumbent.
    /// Read when the node starts; incumbents only improve, so a node LP
    /// that reaches this value is dominated under any later incumbent too.
    fn node_cutoff(&self) -> Option<f64> {
        let incumbent = self.incumbent_bound();
        if !incumbent.is_finite() {
            return None;
        }
        let gap_arm = incumbent - self.options.mip_gap * incumbent.abs().max(1.0);
        let threshold = (incumbent - 1e-9).min(gap_arm);
        Some(self.sense_sign * threshold - self.postsolve.objective_offset())
    }

    fn remaining_time(&self) -> Duration {
        self.options.time_limit.saturating_sub(self.start.elapsed())
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Publishes a node to the pool and wakes one waiting worker.
    fn publish(&self, node: Node) {
        let open = OpenNode {
            key: node.parent_bound,
            seq: self.next_seq(),
            node,
        };
        self.pool.lock_recover().heap.push(open);
        self.cv.notify_one();
    }

    /// Offers `values` as an incumbent; on improvement updates the shared
    /// bound and checks the global gap stop.
    fn offer_incumbent(&self, values: Vec<f64>, minimised_objective: f64) {
        let mut guard = self.incumbent.lock_recover();
        let improved = guard
            .as_ref()
            .map(|(_, best)| minimised_objective < *best - 1e-12)
            .unwrap_or(true);
        if !improved {
            return;
        }
        *guard = Some((values, minimised_objective));
        self.incumbent_bound
            .store(minimised_objective.to_bits(), Ordering::Release);
        drop(guard);
        // Gap-based early stop against the global open bound. An *infinite*
        // open bound means nothing is queued or in flight — the search is
        // draining on its own and must not be flagged as a gap stop (at the
        // root the heuristic incumbent arrives before any node is
        // published).
        let open = self.open_bound();
        if open.is_finite() && relative_gap(minimised_objective, open) <= self.options.mip_gap {
            self.stop.store(true, Ordering::SeqCst);
            self.cv.notify_all();
        }
    }

    /// Best (lowest) bound over queued nodes, in-flight plunges and dropped
    /// subtrees.
    fn open_bound(&self) -> f64 {
        let pool = self.pool.lock_recover();
        let mut open = pool
            .heap
            .iter()
            .map(|e| e.key)
            .fold(f64::INFINITY, f64::min);
        if pool.dropped {
            open = open.min(pool.dropped_bound);
        }
        drop(pool);
        for b in &self.worker_bounds {
            open = open.min(f64::from_bits(b.load(Ordering::Acquire)));
        }
        open
    }

    /// Most-fractional branching: pick the fractional integer variable
    /// with the largest `f·(1−f)`; ties go to the earliest variable.
    fn select_branch_var(&self, values: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (var, frac, f·(1−f))
        for &v in &self.integer_vars {
            let val = values[v];
            let frac = val - val.floor();
            if frac <= INT_TOLERANCE || frac >= 1.0 - INT_TOLERANCE {
                continue;
            }
            let tie = frac * (1.0 - frac);
            if best.map(|(_, _, t)| tie > t).unwrap_or(true) {
                best = Some((v, frac, tie));
            }
        }
        best.map(|(v, frac, _)| (v, frac))
    }
}

/// Resets the integer-variable bounds of a worker LP to the root bounds and
/// applies a node's tightenings (later entries override earlier ones).
fn load_node_bounds(lp: &mut LinearProgram, shared: &Shared, node: &Node) {
    for &v in &shared.integer_vars {
        let (l, u) = shared.base_bounds[v];
        lp.set_bounds(v, l, u);
    }
    for &(v, lo, hi) in &node.bound_changes {
        lp.set_bounds(v, lo, hi);
    }
}

/// `true` when warm-starting a node LP of this model is worth its fixed
/// costs. Reusing a basis buys skipped refactorisations and dual re-entry,
/// but pays for basis reconciliation, the factorisation clone and the dual
/// feasibility check — on tiny models (the 10-item knapsack: 11 columns)
/// a cold solve-from-logical finishes faster than that bookkeeping, which
/// showed up as `warm_knapsack_10` benchmarking *slower* than cold.
fn worth_warm_starting(lp: &LinearProgram) -> bool {
    lp.num_vars() + lp.num_constraints() >= 16
}

/// Solves one node LP, warm-starting from the parent basis when enabled
/// (and worth it — see [`worth_warm_starting`]).
fn solve_node_lp(
    lp: &LinearProgram,
    parent_basis: Option<&Basis>,
    options: &SolveOptions,
    counters: &LpWorkCounters,
) -> Result<(LpSolution, Option<Basis>), LpError> {
    let result = if options.warm_start && worth_warm_starting(lp) {
        lp.solve_warm(parent_basis)
            .map(|(solution, basis)| (solution, Some(basis)))
    } else {
        lp.solve().map(|solution| (solution, None))
    };
    if let Ok((solution, _)) | Err(LpError::Cutoff(solution)) = &result {
        counters.record(solution);
    }
    result
}

/// One worker: depth-first over a **worker-local LIFO stack** (the cheap,
/// incumbent-finding dive order), refilled from the shared best-bound pool
/// when the local stack drains, and **donating** its best-bound local node
/// to the pool whenever another worker is starving. With one thread this is
/// exactly the classical depth-first dive; with several, the pool keeps
/// every worker on the globally most promising open subtrees.
fn worker(shared: &Shared, worker_id: usize) {
    if rfic_lp::fault::fire("milp.pool.worker") {
        // `Singular` armed at a worker site: surface it as the same
        // numerical failure a singular refactorisation would produce.
        record_worker_failure(
            shared,
            MilpError::Lp(LpError::InvalidModel(
                "forced singular basis (failpoint)".into(),
            )),
        );
        return;
    }
    let mut lp = shared.base_lp.clone();
    let mut local: Vec<Node> = Vec::new();
    loop {
        let node = match local.pop() {
            Some(node) => node,
            None => match next_global(shared, worker_id) {
                Some(open) => open.node,
                None => return,
            },
        };
        process_node(shared, &mut lp, node, &mut local);
        if shared.stop.load(Ordering::SeqCst) {
            // Give unexplored local work back so the final open-bound
            // accounting still sees those subtrees.
            for n in local.drain(..) {
                shared.publish(n);
            }
        } else if shared.waiting.load(Ordering::SeqCst) > 0
            && local.len() >= 2
            && shared.incumbent_bound().is_finite()
        {
            // Feed starving workers — but never give away the last local
            // node (handing over the only fallback just moves the plunge to
            // another thread with a wake-up latency bill), and not before
            // an incumbent exists: pre-incumbent sibling subtrees are pure
            // speculation that the first dive's incumbent usually prunes.
            donate_best(shared, &mut local);
        }
        publish_worker_bound(shared, worker_id, &local);
        if local.is_empty() {
            finish_active(shared, worker_id);
        }
    }
}

/// Runs one worker loop inside a panic boundary.
///
/// A panicking worker must fail only its own tree: the panic is caught
/// here, recorded as [`MilpError::Internal`] on the tree's shared error
/// slot, and the search is stopped through the same flag a time limit
/// uses — sibling workers drain their local stacks and return normally.
/// The panicked worker never reaches [`finish_active`], so its
/// `in_flight` claim leaks; that is harmless because the stop flag
/// short-circuits [`next_global`]'s quiescence accounting.
pub(crate) fn worker_caught(shared: &Shared, worker_id: usize) {
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(shared, worker_id)));
    if let Err(payload) = result {
        record_worker_failure(
            shared,
            MilpError::Internal {
                site: panic_payload_string(payload.as_ref()),
            },
        );
    }
}

/// Records a worker-fatal error on the tree (first error wins) and stops
/// the search.
fn record_worker_failure(shared: &Shared, error: MilpError) {
    shared.error.fill(error);
    shared.request_stop();
}

/// Best-effort text form of a panic payload (`&str` and `String`
/// payloads cover `panic!`, asserts and failpoints). Shared with the
/// flow layer's own panic boundary.
pub fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Advertises the lowest bound over the worker's local stack (for the
/// global gap computation); `INFINITY` when the stack is empty.
fn publish_worker_bound(shared: &Shared, worker_id: usize, local: &[Node]) {
    let bound = local
        .iter()
        .map(|n| n.parent_bound)
        .fold(f64::INFINITY, f64::min);
    shared.worker_bounds[worker_id].store(bound.to_bits(), Ordering::Release);
}

/// Moves the best-bound local node into the shared pool — unless it is
/// already dominated (donating doomed work only buys wake-up latency).
fn donate_best(shared: &Shared, local: &mut Vec<Node>) {
    let Some(best) = local
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.parent_bound
                .partial_cmp(&b.1.parent_bound)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
    else {
        return;
    };
    if shared.dominated(local[best].parent_bound) {
        return;
    }
    let node = local.remove(best);
    shared.publish(node);
}

/// Blocks until global work is available, the search is exhausted, or a
/// stop is requested. Increments `in_flight` on success; the caller stays
/// "active" until its local stack drains ([`finish_active`]).
fn next_global(shared: &Shared, worker_id: usize) -> Option<OpenNode> {
    let mut pool = shared.pool.lock_recover();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            shared.cv.notify_all();
            return None;
        }
        if let Some(top) = pool.heap.pop() {
            pool.in_flight += 1;
            shared.worker_bounds[worker_id].store(top.key.to_bits(), Ordering::Release);
            return Some(top);
        }
        if pool.in_flight == 0 {
            shared.cv.notify_all();
            return None;
        }
        shared.waiting.fetch_add(1, Ordering::SeqCst);
        pool = rfic_lp::sync::wait(&shared.cv, pool);
        shared.waiting.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Marks the worker idle once its local stack has drained and wakes
/// everyone when the whole search has drained with it.
fn finish_active(shared: &Shared, worker_id: usize) {
    shared.worker_bounds[worker_id].store(f64::INFINITY.to_bits(), Ordering::Release);
    let (empty, in_flight) = {
        let mut pool = shared.pool.lock_recover();
        pool.in_flight -= 1;
        (pool.heap.is_empty(), pool.in_flight)
    };
    if empty && in_flight == 0 {
        shared.cv.notify_all();
    }
}

/// Solves one node, branches, and pushes the children onto the local
/// stack (preferred child last, so it is dived into first).
fn process_node(shared: &Shared, lp: &mut LinearProgram, current: Node, local: &mut Vec<Node>) {
    let options = &shared.options;
    // Prune against the shared incumbent using the parent bound.
    if shared.dominated(current.parent_bound) {
        return;
    }
    // Global limits (a fired cancellation token stops like a time limit).
    if shared.start.elapsed() >= options.time_limit
        || shared.nodes.load(Ordering::Relaxed) >= options.node_limit
        || shared.cancelled()
    {
        shared.limit_hit.store(true, Ordering::SeqCst);
        shared.stop.store(true, Ordering::SeqCst);
        shared.publish(current);
        shared.cv.notify_all();
        return;
    }
    shared.nodes.fetch_add(1, Ordering::Relaxed);
    let _ = rfic_lp::fault::fire("milp.solve.node");

    // Solve the node LP (dual-simplex re-entry from the parent basis: only
    // one bound changed, so the parent basis stays dual feasible). The node
    // LP inherits the remaining wall-clock budget so a single degenerate LP
    // cannot blow through the global time limit, and stops early once its
    // dual bound reaches the incumbent cutoff.
    load_node_bounds(lp, shared, &current);
    lp.set_time_limit(Some(shared.remaining_time()));
    lp.set_cutoff(shared.node_cutoff());
    let mut lp_result = solve_node_lp(lp, current.parent_basis.as_ref(), options, &shared.lp_work);
    if let Err(LpError::Cutoff(at)) = &lp_result {
        if shared.dominated(shared.minimised_bound(at.objective)) {
            // Pruned exactly as the bound check below would prune the
            // finished LP, whose bound is at least this one.
            shared.cutoff_nodes.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // The cutoff's threshold and the pruning rule disagree in the
        // last bit: finish the LP as if no cutoff had been set.
        lp.set_cutoff(None);
        lp_result = solve_node_lp(lp, current.parent_basis.as_ref(), options, &shared.lp_work);
    }
    let (lp_solution, mut node_basis) = match lp_result {
        Ok(pair) => pair,
        Err(LpError::Infeasible) | Err(LpError::Unbounded) => {
            // Tightening bounds cannot make a bounded relaxation unbounded,
            // so both outcomes prune this subtree.
            return;
        }
        Err(ref e @ (LpError::IterationLimit | LpError::TimeLimit)) => {
            if std::env::var_os("RFIC_MILP_DEBUG").is_some() {
                eprintln!("[node-lp-limit] {e:?}");
            }
            // A pathological node LP exhausted its pivot or wall-clock
            // budget: drop the node but remember that the search is no
            // longer exhaustive, like any other limit.
            shared.limit_hit.store(true, Ordering::SeqCst);
            let mut pool = shared.pool.lock_recover();
            pool.dropped = true;
            pool.dropped_bound = pool.dropped_bound.min(current.parent_bound);
            return;
        }
        Err(e) => {
            shared.error.fill(MilpError::Lp(e));
            shared.stop.store(true, Ordering::SeqCst);
            shared.cv.notify_all();
            return;
        }
    };
    let node_bound = shared.minimised_bound(lp_solution.objective);
    if shared.dominated(node_bound) {
        return; // bound-dominated
    }

    match shared.select_branch_var(&lp_solution.values) {
        None => {
            // Integer feasible: candidate incumbent. Rounding happens in
            // the reduced space (where the integer columns live at unit
            // scale), then the point is postsolved to full-model values.
            let reduced = round_integers(&lp_solution.values, &shared.integer_vars);
            let values = shared.postsolve.restore_values(&reduced);
            let objective = evaluate_objective(&shared.model, &values) * shared.sense_sign;
            shared.offer_incumbent(values, objective);
        }
        Some((var, _frac)) => {
            // Both children and the heuristic warm-start from this basis:
            // a factor worn past reuse is refactorised here, once, instead
            // of by each of them (bit-identical solves either way).
            if let Some(basis) = node_basis.as_mut() {
                lp.refresh_basis(basis);
            }
            // Optional rounding heuristic to seed the incumbent.
            if shared.incumbent_bound() == f64::INFINITY {
                if let Some((vals, objective)) = rounding_heuristic(
                    &shared.model,
                    &shared.base_lp,
                    &shared.base_bounds,
                    &shared.postsolve,
                    &current.bound_changes,
                    node_basis.as_ref(),
                    &lp_solution.values,
                    &shared.integer_vars,
                    shared.sense_sign,
                    options,
                    shared.remaining_time(),
                    &shared.lp_work,
                ) {
                    shared.offer_incumbent(vals, objective);
                }
            }
            let (preferred, sibling) =
                make_children(shared, &current, var, &lp_solution, node_bound, node_basis);
            if let Some(sibling) = sibling {
                local.push(sibling);
            }
            if let Some(child) = preferred {
                local.push(child);
            }
        }
    }
}

/// Builds the two children of a branching step and picks the plunge child:
/// the up branch for binaries (it decides "one-of" groups and relaxes big-M
/// disjunctions immediately), the LP-rounding side for general integers.
fn make_children(
    shared: &Shared,
    node: &Node,
    var: usize,
    lp_solution: &LpSolution,
    node_bound: f64,
    node_basis: Option<Basis>,
) -> (Option<Node>, Option<Node>) {
    let val = lp_solution.values[var];
    let frac = val - val.floor();
    let floor = val.floor();
    let ceil = val.ceil();
    let (lo, hi) = shared.base_bounds[var];
    let node_lo = node
        .bound_changes
        .iter()
        .rev()
        .find(|(i, _, _)| *i == var)
        .map(|&(_, l, _)| l)
        .unwrap_or(lo);
    let node_hi = node
        .bound_changes
        .iter()
        .rev()
        .find(|(i, _, _)| *i == var)
        .map(|&(_, _, h)| h)
        .unwrap_or(hi);

    let child = |up: bool, basis: Option<Basis>| -> Option<Node> {
        if up {
            (ceil <= node_hi + 1e-9).then(|| {
                let mut changes = node.bound_changes.clone();
                changes.push((var, ceil, node_hi));
                Node {
                    bound_changes: changes,
                    parent_bound: node_bound,
                    parent_basis: basis,
                }
            })
        } else {
            (floor >= node_lo - 1e-9).then(|| {
                let mut changes = node.bound_changes.clone();
                changes.push((var, node_lo, floor));
                Node {
                    bound_changes: changes,
                    parent_bound: node_bound,
                    parent_basis: basis,
                }
            })
        }
    };

    let is_binary = (node_hi - node_lo - 1.0).abs() < 1e-9 && node_lo.abs() < 1e-9;
    let up_first = if is_binary { true } else { frac > 0.5 };
    let first = child(up_first, node_basis.clone());
    let second = child(!up_first, node_basis);
    match first {
        Some(f) => (Some(f), second),
        None => (second, None),
    }
}

/// Solves `model` by parallel best-first branch and bound.
///
/// The root work (presolve, root LP) always runs on the calling thread.
/// The tree search then either runs on scoped threads owned by this call
/// (`worker_pool: None` — the classical path) or is registered with a
/// long-lived [`crate::SolverPool`] whose workers attach to the tree; both
/// execute the identical `worker` loop, so the returned objective is the
/// same either way.
///
/// `warm` seeds the root from (and receives) the full-space root basis;
/// `None` and an empty [`WarmStart`] both solve cold.
pub(crate) fn branch_and_bound(
    model: &Model,
    options: &SolveOptions,
    warm: Option<&mut WarmStart>,
    worker_pool: Option<&crate::pool::SolverPool>,
) -> Result<MilpSolution, MilpError> {
    let start = Instant::now();
    let sense_sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    if options.node_limit == 0 {
        return Err(MilpError::LimitReached);
    }

    // --- root presolve ------------------------------------------------------
    // The relaxation is presolved once; the ENTIRE tree then runs in the
    // reduced (and scaled) variable space — node bound changes only ever
    // shrink variable boxes, which keeps every root reduction valid in
    // every subtree. Integer columns keep unit scale factors, so branching
    // stays exact.
    let presolved = match model
        .lp
        .presolve(&options.presolve, Some(&model.is_integer))
    {
        Ok(p) => p,
        Err(LpError::Infeasible) => return Err(MilpError::Infeasible),
        Err(LpError::Unbounded) => return Err(MilpError::Unbounded),
        Err(e) => return Err(MilpError::Lp(e)),
    };
    let postsolve = presolved.postsolve;
    let presolve_stats = presolved.stats;
    // Reduced-space view of the integer structure (identical to the
    // model's own when presolve is off).
    let integer_vars: Vec<usize> = postsolve
        .kept_columns()
        .iter()
        .enumerate()
        .filter(|&(_, &fj)| model.is_integer[fj])
        .map(|(j, _)| j)
        .collect();

    // --- root node (serial) ------------------------------------------------
    let mut base_lp = presolved.lp;
    base_lp.set_pricing(options.pricing);
    base_lp.set_time_limit(Some(options.time_limit));
    // Every worker LP is a clone of the base relaxation, so attaching the
    // job's cancellation token here propagates it into every node and
    // heuristic re-solve of the tree.
    base_lp.set_cancel_token(options.cancel.clone());
    let base_bounds: Vec<(f64, f64)> = (0..base_lp.num_vars()).map(|j| base_lp.bounds(j)).collect();
    // The stored warm basis lives in the FULL variable space; project it
    // through the reduction stack (`None` → cold start).
    let root_warm = warm
        .as_ref()
        .and_then(|w| w.root_basis.as_ref())
        .filter(|_| options.warm_start)
        .and_then(|b| postsolve.basis_to_reduced(b));
    let lp_work = LpWorkCounters::default();
    if rfic_lp::fault::fire("milp.solve.root") {
        return Err(MilpError::Lp(LpError::InvalidModel(
            "forced singular basis (failpoint)".into(),
        )));
    }
    let (root_solution, mut root_basis) = match base_lp.solve_warm(root_warm.as_ref()) {
        Ok(pair) => pair,
        Err(LpError::Infeasible) => return Err(MilpError::Infeasible),
        Err(LpError::Unbounded) => return Err(MilpError::Unbounded),
        Err(LpError::IterationLimit) | Err(LpError::TimeLimit) => {
            return Err(MilpError::LimitReached)
        }
        Err(e) => return Err(MilpError::Lp(e)),
    };
    lp_work.record(&root_solution);
    // The root basis survives into the next solve of a grown model; it is
    // stored in full-model coordinates so it outlives this solve's
    // presolve.
    if let Some(w) = warm {
        w.root_basis = Some(postsolve.basis_to_full(&root_basis));
    }

    let root_bound = sense_sign * (root_solution.objective + postsolve.objective_offset());

    // --- shared search state ----------------------------------------------
    let thread_count = crate::resolve_threads(options.threads);
    let shared = std::sync::Arc::new(Shared {
        model: model.clone(),
        options: options.clone(),
        base_lp,
        base_bounds,
        integer_vars,
        postsolve,
        sense_sign,
        start,
        pool: Mutex::new(Pool {
            heap: BinaryHeap::new(),
            in_flight: 0,
            dropped: false,
            dropped_bound: f64::INFINITY,
        }),
        cv: Condvar::new(),
        incumbent: Mutex::new(None),
        incumbent_bound: AtomicU64::new(f64::INFINITY.to_bits()),
        worker_bounds: (0..thread_count)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect(),
        nodes: AtomicUsize::new(1), // the root
        cutoff_nodes: AtomicUsize::new(0),
        lp_work,
        seq: AtomicU64::new(0),
        waiting: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        limit_hit: AtomicBool::new(false),
        error: Slot::default(),
    });

    match shared.select_branch_var(&root_solution.values) {
        None => {
            // Root already integral: done.
            let reduced = round_integers(&root_solution.values, &shared.integer_vars);
            let values = shared.postsolve.restore_values(&reduced);
            let objective = evaluate_objective(model, &values) * sense_sign;
            shared.offer_incumbent(values, objective);
        }
        Some((var, _)) => {
            // Refactorise once for the heuristic and both children (see
            // `process_node`).
            shared.base_lp.refresh_basis(&mut root_basis);
            if let Some((vals, objective)) = rounding_heuristic(
                model,
                &shared.base_lp,
                &shared.base_bounds,
                &shared.postsolve,
                &[],
                Some(&root_basis),
                &root_solution.values,
                &shared.integer_vars,
                sense_sign,
                options,
                shared.remaining_time(),
                &shared.lp_work,
            ) {
                shared.offer_incumbent(vals, objective);
            }
            let root_node = Node {
                bound_changes: Vec::new(),
                parent_bound: root_bound,
                parent_basis: Some(root_basis.clone()),
            };
            let (preferred, sibling) = make_children(
                &shared,
                &root_node,
                var,
                &root_solution,
                root_bound,
                Some(root_basis),
            );
            // Publish in plunge order: the preferred child carries the lower
            // sequence number and is popped first on equal bounds.
            if let Some(child) = preferred {
                shared.publish(child);
            }
            if let Some(child) = sibling {
                shared.publish(child);
            }

            // --- the parallel search ---------------------------------------
            let already_done = {
                let inc = shared.incumbent_bound();
                inc.is_finite() && relative_gap(inc, root_bound) <= options.mip_gap
            };
            if !already_done {
                match worker_pool {
                    // Long-lived pool: register the tree and block until
                    // its workers have drained it. The pool runs the very
                    // same `worker` loop over at most `thread_count`
                    // slots, so the search is execution-equivalent to the
                    // scoped-thread path below.
                    Some(p) => p.run_tree(std::sync::Arc::clone(&shared))?,
                    None if thread_count == 1 => worker_caught(&shared, 0),
                    None => {
                        std::thread::scope(|scope| {
                            for id in 0..thread_count {
                                let shared = &*shared;
                                scope.spawn(move || worker_caught(shared, id));
                            }
                        });
                    }
                }
            }
        }
    }

    // --- assemble the result ----------------------------------------------
    let nodes_explored = shared.nodes.load(Ordering::Relaxed);
    let cutoff_nodes = shared.cutoff_nodes.load(Ordering::Relaxed);
    let simplex_iterations = shared.lp_work.pivots.load(Ordering::Relaxed);
    let lp_refactorizations = shared.lp_work.refactorizations.load(Ordering::Relaxed);
    let lp_dual_iterations = shared.lp_work.dual_pivots.load(Ordering::Relaxed);
    let lp_bound_flips = shared.lp_work.bound_flips.load(Ordering::Relaxed);
    let limit_hit = shared.limit_hit.load(Ordering::SeqCst);
    if let Some(err) = shared.error.poll() {
        return Err(err);
    }
    // Read through the locks rather than unwrapping the `Arc`: a pool
    // worker may still hold its clone for a few instructions after the
    // tree completion was signalled.
    let pool = shared.pool.lock_recover();
    let incumbent = shared.incumbent.lock_recover().take();

    // Per-solve diagnostic line for profiling the layout flow's solver
    // traffic (see DESIGN.md); off unless RFIC_MILP_DEBUG is set.
    if std::env::var_os("RFIC_MILP_DEBUG").is_some() {
        eprintln!(
            "[milp-solve] vars={} ints={} cons={} threads={thread_count} nodes={nodes_explored} cutoff_nodes={cutoff_nodes} pivots={simplex_iterations} elapsed={:?} incumbent={:?} limit_hit={limit_hit}",
            model.num_vars(),
            model.num_integer_vars(),
            model.num_constraints(),
            start.elapsed(),
            incumbent.as_ref().map(|(_, o)| *o),
        );
    }

    match incumbent {
        Some((values, min_obj)) => {
            let mut open_bound = pool
                .heap
                .iter()
                .map(|e| e.key)
                .fold(f64::INFINITY, f64::min);
            if pool.dropped {
                open_bound = open_bound.min(pool.dropped_bound);
            }
            let exhausted = pool.heap.is_empty() && !pool.dropped;
            let gap = if exhausted {
                0.0
            } else {
                relative_gap(min_obj, open_bound)
            };
            let status = if exhausted || gap <= options.mip_gap {
                SolveStatus::Optimal
            } else {
                SolveStatus::Feasible
            };
            Ok(MilpSolution {
                objective: min_obj * sense_sign,
                values,
                status,
                nodes: nodes_explored,
                gap: gap.max(0.0),
                simplex_iterations,
                lp_refactorizations,
                lp_dual_iterations,
                lp_bound_flips,
                presolve: presolve_stats,
                cutoff_nodes,
            })
        }
        None => {
            if limit_hit {
                Err(MilpError::LimitReached)
            } else {
                Err(MilpError::Infeasible)
            }
        }
    }
}

/// Relative gap between the incumbent and the best open bound (both in
/// minimised form).
fn relative_gap(incumbent: f64, open_bound: f64) -> f64 {
    if !open_bound.is_finite() {
        return 0.0;
    }
    (incumbent - open_bound).max(0.0) / incumbent.abs().max(1.0)
}

fn round_integers(values: &[f64], integer_vars: &[usize]) -> Vec<f64> {
    let mut out = values.to_vec();
    for &v in integer_vars {
        out[v] = out[v].round();
    }
    out
}

fn evaluate_objective(model: &Model, values: &[f64]) -> f64 {
    model
        .lp
        .objective()
        .iter()
        .zip(values)
        .map(|(c, x)| c * x)
        .sum()
}

/// Fix all integer variables at their rounded LP values and re-solve the LP
/// for the continuous variables; returns a feasible point (in FULL-model
/// values) if one exists and satisfies every model constraint.
/// Warm-started from the node basis (only bounds changed, so the dual
/// re-entry applies here too). Runs entirely in the reduced space —
/// `base_lp`, `base_bounds`, `bound_changes`, `lp_values` and
/// `integer_vars` all use reduced column indices — and postsolves the
/// resulting point before the full-model feasibility check.
#[allow(clippy::too_many_arguments)]
fn rounding_heuristic(
    model: &Model,
    base_lp: &LinearProgram,
    base_bounds: &[(f64, f64)],
    postsolve: &Postsolve,
    bound_changes: &[(usize, f64, f64)],
    node_basis: Option<&Basis>,
    lp_values: &[f64],
    integer_vars: &[usize],
    sense_sign: f64,
    options: &SolveOptions,
    remaining_time: Duration,
    counters: &LpWorkCounters,
) -> Option<(Vec<f64>, f64)> {
    let mut lp = base_lp.clone();
    for &(var, lo, hi) in bound_changes {
        lp.set_bounds(var, lo, hi);
    }
    // The heuristic LP shares the global wall-clock budget like any node LP.
    lp.set_time_limit(Some(remaining_time));
    for &v in integer_vars {
        let r = lp_values[v].round();
        let (lo, hi) = base_bounds[v];
        if r < lo - 1e-9 || r > hi + 1e-9 {
            return None;
        }
        lp.set_bounds(v, r, r);
    }
    let (sol, _) = solve_node_lp(&lp, node_basis, options, counters).ok()?;
    let reduced = round_integers(&sol.values, integer_vars);
    let values = postsolve.restore_values(&reduced);
    if !model.violated_constraints(&values, 1e-6).is_empty() {
        return None;
    }
    let objective = evaluate_objective(model, &values) * sense_sign;
    Some((values, objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instances, LinExpr, Model};

    #[test]
    fn pure_lp_model_is_solved_directly() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, 4.0, 1.0);
        let y = m.add_continuous(0.0, 4.0, 2.0);
        m.add_le(LinExpr::from(x) + y, 6.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.value(y) - 4.0).abs() < 1e-6);
        let _ = x;
    }

    #[test]
    fn knapsack_is_solved_to_optimality() {
        // Classic 0-1 knapsack, optimum 220 (items 2 and 3).
        let mut m = Model::new(Sense::Maximize);
        let weights = [10.0, 20.0, 30.0];
        let values = [60.0, 100.0, 120.0];
        let xs: Vec<_> = (0..3).map(|i| m.add_binary(values[i])).collect();
        let mut cap = LinExpr::new();
        for (x, w) in xs.iter().zip(weights) {
            cap.add_term(*x, w);
        }
        m.add_le(cap, 50.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 220.0).abs() < 1e-6);
        assert!(!s.binary_value(xs[0]));
        assert!(s.binary_value(xs[1]));
        assert!(s.binary_value(xs[2]));
    }

    #[test]
    fn integer_rounding_matters() {
        // max x s.t. 2x <= 7, x integer -> 3 (LP relaxation would give 3.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer(0.0, 10.0, 1.0);
        m.add_le(LinExpr::from((x, 2.0)), 7.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-9);
        assert!((s.value(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_binary_system() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.add_ge(LinExpr::from(a) + b, 3.0);
        assert_eq!(
            m.solve(&SolveOptions::default()),
            Err(MilpError::Infeasible)
        );
    }

    #[test]
    fn unbounded_relaxation_is_reported() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let b = m.add_binary(0.0);
        m.add_ge(LinExpr::from(x) + b, 1.0);
        assert_eq!(m.solve(&SolveOptions::default()), Err(MilpError::Unbounded));
    }

    #[test]
    fn equality_constrained_binaries() {
        // Choose exactly 2 of 4 items minimising cost.
        let mut m = Model::new(Sense::Minimize);
        let costs = [5.0, 1.0, 3.0, 2.0];
        let xs: Vec<_> = costs.iter().map(|&c| m.add_binary(c)).collect();
        m.add_eq(LinExpr::sum(xs.iter().copied()), 2.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-9);
        assert!(s.binary_value(xs[1]) && s.binary_value(xs[3]));
    }

    #[test]
    fn mixed_integer_continuous_interaction() {
        // min 3b + x  s.t. x >= 2 - 10b, x >= 0, b binary.
        // b = 0 -> x = 2 (cost 2); b = 1 -> x = 0 (cost 3). Optimum 2.
        let mut m = Model::new(Sense::Minimize);
        let b = m.add_binary(3.0);
        let x = m.add_continuous(0.0, 100.0, 1.0);
        m.add_ge(LinExpr::from(x) + (b, 10.0), 2.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9);
        assert!(!s.binary_value(b));
    }

    #[test]
    fn node_limit_without_solution_reports_limit() {
        let mut m = Model::new(Sense::Minimize);
        // A small but non-trivial model; a node limit of zero cannot find anything.
        let a = m.add_binary(1.0);
        let b = m.add_binary(1.0);
        m.add_ge(LinExpr::from(a) + b, 1.0);
        let opts = SolveOptions {
            node_limit: 0,
            ..SolveOptions::default()
        };
        assert_eq!(m.solve(&opts), Err(MilpError::LimitReached));
    }

    #[test]
    fn maximisation_and_minimisation_agree() {
        // max  x + y == -(min -x -y)
        let build = |sense| {
            let mut m = Model::new(sense);
            let x = m.add_integer(0.0, 5.0, if sense == Sense::Maximize { 1.0 } else { -1.0 });
            let y = m.add_integer(0.0, 5.0, if sense == Sense::Maximize { 1.0 } else { -1.0 });
            m.add_le(LinExpr::from((x, 2.0)) + (y, 3.0), 12.0);
            m
        };
        let max = build(Sense::Maximize)
            .solve(&SolveOptions::default())
            .unwrap();
        let min = build(Sense::Minimize)
            .solve(&SolveOptions::default())
            .unwrap();
        assert!((max.objective + min.objective).abs() < 1e-9);
    }

    #[test]
    fn gap_and_node_counters_are_reported() {
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..6).map(|i| m.add_binary((i + 1) as f64)).collect();
        m.add_le(LinExpr::sum(xs.iter().copied()), 3.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.nodes >= 1);
        assert!(s.gap <= 1e-6);
        assert!(s.simplex_iterations >= 1);
        assert!(
            (s.objective - 15.0).abs() < 1e-9,
            "pick the three most valuable items"
        );
    }

    #[test]
    fn warm_start_prunes_simplex_work_with_identical_objectives() {
        // The acceptance criterion of the solver refactor: across the bench
        // knapsacks, warm-started B&B reaches the same optima with fewer
        // total simplex pivots than cold-starting every node.
        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        for items in [10usize, 20, 30] {
            let m = instances::seeded_knapsack(items, 0xDAC2016);
            let warm = m.solve(&SolveOptions::default()).expect("warm solve");
            let cold = m
                .solve(&SolveOptions::default().cold())
                .expect("cold solve");
            assert_eq!(warm.status, SolveStatus::Optimal);
            assert_eq!(cold.status, SolveStatus::Optimal);
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "items={items}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            warm_total += warm.simplex_iterations;
            cold_total += cold.simplex_iterations;
        }
        assert!(
            warm_total < cold_total,
            "warm-started B&B must pivot less: warm {warm_total} vs cold {cold_total}"
        );
    }

    #[test]
    fn solve_warm_reuses_the_root_basis_across_growing_models() {
        // Lazy-separation protocol: solve, append a violated constraint,
        // re-solve warm. The warm re-solve must agree with a cold solve.
        let mut m = instances::seeded_knapsack(16, 11);
        let mut warm = WarmStart::new();
        let first = m
            .solve_warm(&SolveOptions::default(), &mut warm, None)
            .expect("first");
        assert!(warm.root_basis.is_some());

        // Append a cut excluding the current support.
        let chosen: Vec<_> = (0..m.num_vars())
            .map(crate::VarId)
            .filter(|&v| first.values[v.index()] > 0.5)
            .collect();
        let k = chosen.len() as f64;
        m.add_le(LinExpr::sum(chosen.iter().copied()), k - 1.0);

        let second = m
            .solve_warm(&SolveOptions::default(), &mut warm, None)
            .expect("second");
        let cold = m.solve(&SolveOptions::default().cold()).expect("cold");
        assert!(
            (second.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            second.objective,
            cold.objective
        );
        assert!(second.objective <= first.objective + 1e-9);
    }

    #[test]
    fn parallel_solve_matches_serial_objective() {
        let m = instances::seeded_knapsack(24, 0xBEEF);
        let serial = m.solve(&SolveOptions::default()).expect("serial");
        for threads in [2usize, 4] {
            let parallel = m
                .solve(&SolveOptions::default().with_threads(threads))
                .expect("parallel");
            assert_eq!(parallel.status, SolveStatus::Optimal);
            assert!(
                (parallel.objective - serial.objective).abs() < 1e-6,
                "threads={threads}: {} vs {}",
                parallel.objective,
                serial.objective
            );
            assert!(m.violated_constraints(&parallel.values, 1e-6).is_empty());
        }
    }

    #[test]
    fn node_lps_stop_at_the_incumbent_cutoff_without_moving_the_tree() {
        // Objective, status and node count of the bench knapsacks as
        // recorded (BENCH_pivots.txt) before node LPs had a cutoff.
        for (items, objective, nodes) in [(20, 650.0, 2547), (30, 946.0, 4343)] {
            let model = instances::bench_knapsack(items);
            for pricing in [PricingRule::DualSteepestEdge, PricingRule::Dantzig] {
                let s = model
                    .solve(&SolveOptions::default().with_pricing(pricing))
                    .expect("solve");
                let case = format!("knapsack_{items} {pricing:?}");
                assert_eq!(s.status, SolveStatus::Optimal, "{case}");
                assert_eq!(s.objective, objective, "{case}");
                assert_eq!(s.nodes, nodes, "{case}");
                assert!(s.cutoff_nodes > 0, "{case}");
            }
            // Cold node LPs run no dual simplex, so none stops early.
            let cold = model.solve(&SolveOptions::default().cold()).expect("cold");
            assert_eq!(cold.objective, objective);
            assert_eq!(cold.cutoff_nodes, 0);
        }
    }

    #[test]
    fn a_solve_settled_at_the_root_cuts_off_no_node() {
        // The root LP is integral: no node LP runs before the first
        // incumbent, here none runs at all, and only node LPs carry a
        // cutoff (the root and the rounding heuristic never do).
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<_> = [5.0, 1.0, 3.0, 2.0]
            .into_iter()
            .map(|c| m.add_binary(c))
            .collect();
        m.add_eq(LinExpr::sum(xs.iter().copied()), 2.0);
        let s = m.solve(&SolveOptions::default()).expect("solve");
        assert_eq!((s.nodes, s.cutoff_nodes), (1, 0));
    }

    #[test]
    fn cut_rounds_is_ignored() {
        let m = instances::bench_knapsack(20);
        let solve = |cut_rounds| {
            m.solve(&SolveOptions {
                cut_rounds,
                ..SolveOptions::default()
            })
            .expect("solve")
        };
        let (off, on) = (solve(0), solve(5));
        assert_eq!(off.values, on.values);
        assert_eq!(off.objective, on.objective);
        assert_eq!(off.nodes, on.nodes);
        assert_eq!(off.simplex_iterations, on.simplex_iterations);
    }
}
