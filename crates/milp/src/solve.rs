//! Parallel best-first branch-and-bound MILP solver over the LP relaxation,
//! with warm-started node re-solves, root-node Gomory cuts and
//! most-fractional branching.
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
//! **Cuts.** Before the search starts, up to [`SolveOptions::cut_rounds`]
//! rounds of Gomory mixed-integer cuts are separated from the root simplex
//! tableau ([`crate::cuts`]), tightening the root bound for the entire
//! tree. [`WarmStart`] keeps carrying the *pre-cut* root basis between
//! solves of a growing model, which is what the lazy constraint-separation
//! loop of the layout engine exploits.
//!
//! **Branch and cut.** With [`SolveOptions::cut_every`] non-zero,
//! separation also runs at non-root nodes (every `cut_every` depth
//! levels, up to [`SolveOptions::max_cut_rounds`] rounds per node)
//! against the node LP's own tableau. Each cut is tagged by validity:
//! **globally valid** cuts are lifted into a shared append-only pool (an
//! atomic prefix length makes the workers' "anything new?" check
//! lock-free) and join the base relaxation of every subtree that starts
//! after them, while **locally valid** cuts — GMI cuts whose bound shift
//! leaned on a node tightening — stay on the node, are inherited by its
//! children and die with the subtree on backtrack
//! ([`SolveOptions::local_cuts`]). Added rows re-solve through the
//! incremental-row warm-start path of the LP layer (the parent basis is
//! reconciled, dual steepest-edge weights are extended for the new
//! slacks), so a cut round costs a handful of dual pivots plus one
//! refactorisation, not a cold solve.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rfic_lp::sync::LockExt;

use rfic_lp::{
    Basis, CancelToken, ConstraintOp, LinearProgram, LpError, LpSolution, Postsolve,
    PresolveConfig, PresolveStats, PricingRule, Sense,
};

use crate::cuts::{self, Cut, CutPool};
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
    /// Rounds of root-node Gomory cut separation (`0` disables cuts).
    pub cut_rounds: usize,
    /// Maximum cuts accepted per separation round (violation-ranked).
    pub max_cuts_per_round: usize,
    /// Depth interval for cut separation at **non-root** nodes: a node at
    /// depth `d > 0` runs separation when `d % cut_every == 0`. `0` (the
    /// default) keeps separation root-only. Tree cuts require warm starts
    /// (the node tableau comes from the warm basis).
    pub cut_every: usize,
    /// Maximum separation rounds at one eligible non-root node (tree
    /// separation stops early once a round stops moving the node bound).
    pub max_cut_rounds: usize,
    /// Keep locally valid cuts — sound only under the node's bound
    /// tightenings — on the node, inherited by its subtree and dropped on
    /// backtrack. `false` restricts node separation to globally valid
    /// cuts. Irrelevant while `cut_every == 0`.
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
            max_cuts_per_round: 10,
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

    /// The same configuration with root Gomory cuts disabled (pure
    /// branch-and-bound baseline for benchmarks and equivalence tests).
    /// Tree cuts are disabled with them.
    pub fn without_cuts(mut self) -> SolveOptions {
        self.cut_rounds = 0;
        self.cut_every = 0;
        self
    }

    /// The same configuration with tree-wide (non-root) cut separation
    /// every `cut_every` depth levels. `0` restores root-only separation.
    pub fn with_tree_cuts(mut self, cut_every: usize) -> SolveOptions {
        self.cut_every = cut_every;
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
    /// Root Gomory, cover and clique cuts added to the relaxation before
    /// the search.
    pub cuts: usize,
    /// Cuts separated at non-root nodes (globally valid ones lifted into
    /// the shared pool plus locally valid ones pinned to their subtree);
    /// `0` unless [`SolveOptions::cut_every`] enables tree separation.
    pub tree_cuts: usize,
    /// What root presolve removed from the relaxation the tree searched
    /// (all-zero counters when presolve is disabled or found nothing).
    pub presolve: PresolveStats,
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
/// layer reconciles the dimensions (see [`rfic_lp::Basis`]). The basis kept
/// here is always the **pre-cut** root basis: Gomory cut rows are private
/// to one solve and would make the basis stale for the next model.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    root_basis: Option<Basis>,
}

impl WarmStart {
    /// An empty warm-start state (the first solve is cold).
    pub fn new() -> WarmStart {
        WarmStart::default()
    }

    /// `true` once a root basis has been captured.
    pub fn has_basis(&self) -> bool {
        self.root_basis.is_some()
    }

    /// A warm-start state seeded from a previously captured root basis
    /// (the cross-request warm-base cache's rehydration path).
    pub fn from_basis(basis: Basis) -> WarmStart {
        WarmStart {
            root_basis: Some(basis),
        }
    }

    /// The captured full-model root basis, if any.
    pub fn basis(&self) -> Option<&Basis> {
        self.root_basis.as_ref()
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
    depth: usize,
    /// Optimal basis of the parent's LP relaxation.
    parent_basis: Option<Basis>,
    /// Length of the shared tree-cut prefix the parent basis was produced
    /// under. Frozen while the subtree carries node cuts so the row layout
    /// under the basis stays a pure prefix of the child LPs.
    shared_rows: usize,
    /// Node-cut rows appended after the shared prefix: locally valid cuts
    /// plus globally valid node cuts still riding with their subtree.
    /// Inherited by children (cheap `Arc` clones) and dropped with the
    /// subtree on backtrack — that *is* the invalidation mechanism.
    node_cuts: Vec<std::sync::Arc<NodeCut>>,
}

/// One cut row owned by a subtree (see [`Node::node_cuts`]). The unique id
/// lets a worker LP decide with a prefix comparison whether its currently
/// appended rows can be reused for the next node.
#[derive(Debug)]
struct NodeCut {
    id: u64,
    cut: Cut,
}

/// Upper bound on node-cut rows per subtree: past this the LP rows would
/// cost more per node re-solve than the bound tightening saves.
const MAX_NODE_CUT_ROWS: usize = 48;
/// Upper bound on globally valid tree cuts lifted into the shared pool.
const MAX_SHARED_TREE_CUTS: usize = 64;

/// Append-only pool of globally valid tree cuts shared by the workers.
///
/// `len` mirrors `rows.len()` so the hot-path check "has anything been
/// published since my prefix?" is a single atomic load; the mutexes are
/// touched only to publish or to copy a missing suffix. The dedup pool is
/// seeded with the root cuts so tree separation never re-derives them.
struct SharedCutPool {
    rows: Mutex<Vec<std::sync::Arc<Cut>>>,
    len: AtomicUsize,
    pool: Mutex<CutPool>,
    /// Id source for [`NodeCut`]s.
    node_seq: AtomicU64,
    /// Total cuts separated at non-root nodes (reported on the solution).
    separated: AtomicUsize,
}

impl SharedCutPool {
    fn new(root_pool: CutPool) -> SharedCutPool {
        SharedCutPool {
            rows: Mutex::new(Vec::new()),
            len: AtomicUsize::new(0),
            pool: Mutex::new(root_pool),
            node_seq: AtomicU64::new(0),
            separated: AtomicUsize::new(0),
        }
    }

    /// Published prefix length (lock-free).
    fn prefix_len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Snapshot of the dedup pool for a node-scoped separation context.
    fn pool_snapshot(&self) -> CutPool {
        self.pool.lock_recover().clone()
    }

    /// Copies rows `[from, to)` of the shared prefix.
    fn slice(&self, from: usize, to: usize) -> Vec<std::sync::Arc<Cut>> {
        self.rows.lock_recover()[from..to].to_vec()
    }

    /// Lifts a globally valid node cut into the shared pool (deduplicated;
    /// silently dropped once the pool cap is reached — the originating
    /// subtree keeps its node-row copy either way).
    ///
    /// The cap is checked *before* the dedup registration: a cut refused
    /// for capacity must stay derivable by other subtrees as a node-local
    /// row, which a poisoned dedup key would suppress forever. `publish`
    /// is the only path taking both locks (rows, then pool), so the
    /// ordering cannot deadlock against `pool_snapshot`/`slice`.
    fn publish(&self, cut: &Cut) {
        let mut rows = self.rows.lock_recover();
        if rows.len() >= MAX_SHARED_TREE_CUTS {
            return;
        }
        if !self.pool.lock_recover().insert(cut) {
            return;
        }
        rows.push(std::sync::Arc::new(cut.clone()));
        self.len.store(rows.len(), Ordering::Release);
    }

    fn next_node_id(&self) -> u64 {
        self.node_seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// A worker's LP: the shared base relaxation, then `shared_rows` rows of
/// the shared tree-cut prefix, then the node-cut rows of the subtree
/// currently being explored. [`WorkerLp::prepare`] reconciles this layout
/// with the next node's requirements, preferring pure row appends (which
/// keep the parent basis warm through the LP layer's incremental-row
/// path) and falling back to a rebuild only on subtree switches.
struct WorkerLp {
    lp: LinearProgram,
    shared_rows: usize,
    /// Ids of the node-cut rows currently appended after the shared
    /// prefix, in row order.
    node_rows: Vec<u64>,
}

impl WorkerLp {
    fn new(base: &LinearProgram) -> WorkerLp {
        WorkerLp {
            lp: base.clone(),
            shared_rows: 0,
            node_rows: Vec::new(),
        }
    }

    /// Makes the LP's row set match `node`; returns the shared-prefix
    /// length adopted (what the node's children must freeze to).
    fn prepare(&mut self, base_lp: &LinearProgram, cuts: &SharedCutPool, node: &Node) -> usize {
        // A subtree carrying node cuts freezes its shared prefix: splicing
        // newer shared rows *between* the prefix and the node rows would
        // scramble the row layout under every inherited basis.
        let target_shared = if node.node_cuts.is_empty() {
            cuts.prefix_len().max(node.shared_rows)
        } else {
            node.shared_rows
        };
        let prefix_ok = self.node_rows.len() <= node.node_cuts.len()
            && self
                .node_rows
                .iter()
                .zip(&node.node_cuts)
                .all(|(id, c)| *id == c.id);
        if !(prefix_ok
            && (self.shared_rows == target_shared
                || (self.shared_rows < target_shared && self.node_rows.is_empty())))
        {
            // Subtree switch: rebuild from the base relaxation — this is
            // how a backtracked subtree's cut rows are pruned from the LP.
            self.lp = base_lp.clone();
            self.shared_rows = 0;
            self.node_rows.clear();
        }
        if self.shared_rows < target_shared {
            for cut in cuts.slice(self.shared_rows, target_shared) {
                self.lp
                    .add_constraint(cut.coeffs.clone(), ConstraintOp::Ge, cut.rhs);
            }
            self.shared_rows = target_shared;
        }
        for cut in &node.node_cuts[self.node_rows.len()..] {
            self.lp
                .add_constraint(cut.cut.coeffs.clone(), ConstraintOp::Ge, cut.cut.rhs);
            self.node_rows.push(cut.id);
        }
        target_shared
    }

    /// Appends a freshly separated node cut row.
    fn push_node_cut(&mut self, cut: &NodeCut) {
        self.lp
            .add_constraint(cut.cut.coeffs.clone(), ConstraintOp::Ge, cut.cut.rhs);
        self.node_rows.push(cut.id);
    }
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
    /// Root relaxation plus accepted Gomory cut rows.
    base_lp: LinearProgram,
    /// Original bounds of every variable (node bound resets).
    base_bounds: Vec<(f64, f64)>,
    integer_vars: Vec<usize>,
    /// `is_integer[v]` for every structural variable of the *reduced*
    /// relaxation (separator input).
    is_integer: Vec<bool>,
    /// Root presolve transform: restores reduced-space LP points to the
    /// full model (incumbents are always offered in full-model values) and
    /// carries the objective offset of the removed columns.
    postsolve: Postsolve,
    /// Globally valid tree cuts shared across the workers.
    cuts: SharedCutPool,
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
    lp_work: LpWorkCounters,
    seq: AtomicU64,
    /// Workers blocked on the pool condvar (starvation signal: active
    /// workers donate local nodes when this is non-zero).
    waiting: AtomicUsize,
    stop: AtomicBool,
    limit_hit: AtomicBool,
    error: Mutex<Option<MilpError>>,
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
    /// presolve offset (contribution of fixed/substituted columns) is added
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
    if let Ok((solution, _)) = &result {
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
pub(crate) fn worker(shared: &Shared, worker_id: usize) {
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
    let mut lp = WorkerLp::new(&shared.base_lp);
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
pub(crate) fn record_worker_failure(shared: &Shared, error: MilpError) {
    {
        let mut slot = shared.error.lock_recover();
        if slot.is_none() {
            *slot = Some(error);
        }
    }
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

/// Solves one node, optionally runs tree-cut rounds, branches, and pushes
/// the children onto the local stack (preferred child last, so it is dived
/// into first).
fn process_node(shared: &Shared, wlp: &mut WorkerLp, current: Node, local: &mut Vec<Node>) {
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

    // Reconcile the worker LP's cut rows with this node's subtree, then
    // solve the node LP (dual-simplex re-entry from the parent basis: only
    // one bound changed, so the parent basis stays dual feasible). The node
    // LP inherits the remaining wall-clock budget so a single degenerate LP
    // cannot blow through the global time limit.
    let shared_rows = wlp.prepare(&shared.base_lp, &shared.cuts, &current);
    load_node_bounds(&mut wlp.lp, shared, &current);
    wlp.lp.set_time_limit(Some(shared.remaining_time()));
    let lp_result = solve_node_lp(
        &wlp.lp,
        current.parent_basis.as_ref(),
        options,
        &shared.lp_work,
    );
    let (mut lp_solution, mut node_basis) = match lp_result {
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
            *shared.error.lock_recover() = Some(MilpError::Lp(e));
            shared.stop.store(true, Ordering::SeqCst);
            shared.cv.notify_all();
            return;
        }
    };
    let mut node_bound = shared.minimised_bound(lp_solution.objective);
    let mut branch_choice = shared.select_branch_var(&lp_solution.values);
    if shared.dominated(node_bound) {
        return; // bound-dominated
    }

    // --- tree-cut rounds ---------------------------------------------------
    let mut node_cuts = current.node_cuts.clone();
    let eligible = options.cut_every > 0
        && options.max_cut_rounds > 0
        && current.depth > 0
        && current.depth.is_multiple_of(options.cut_every)
        && branch_choice.is_some()
        && node_basis.is_some();
    if eligible {
        match tree_cut_rounds(
            shared,
            wlp,
            &mut node_cuts,
            &mut lp_solution,
            &mut node_basis,
            &mut node_bound,
        ) {
            CutStatus::Prune => return,
            CutStatus::Proceed => {
                if shared.dominated(node_bound) {
                    return; // the tightened bound alone prunes the subtree
                }
                // Re-select on the cut-tightened vertex.
                branch_choice = shared.select_branch_var(&lp_solution.values);
            }
        }
    }

    match branch_choice {
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
                wlp.lp.refresh_basis(basis);
            }
            // Optional rounding heuristic to seed the incumbent. The
            // heuristic solves over the cut-free base relaxation, so the
            // node basis is only a usable warm start while its row count
            // matches — a basis from a cut-augmented worker LP would be
            // silently rejected and degrade the heuristic to a cold solve.
            if shared.incumbent_bound() == f64::INFINITY {
                let base_compatible = node_basis
                    .as_ref()
                    .filter(|b| b.num_rows() == shared.base_lp.num_constraints());
                if let Some((vals, objective)) = rounding_heuristic(
                    &shared.model,
                    &shared.base_lp,
                    &shared.base_bounds,
                    &shared.postsolve,
                    &current.bound_changes,
                    base_compatible,
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
            let (preferred, sibling) = make_children(
                shared,
                &current,
                var,
                &lp_solution,
                node_bound,
                node_basis,
                shared_rows,
                &node_cuts,
            );
            if let Some(sibling) = sibling {
                local.push(sibling);
            }
            if let Some(child) = preferred {
                local.push(child);
            }
        }
    }
}

/// One full separation round over all three cut families: GMI from the
/// tableau first, then the basis-free cover and clique separators filling
/// whatever of the budget remains. Shared by the root loop (`node: None`)
/// and the tree-cut rounds (`node: Some(ctx)`), so the family order and
/// budget accounting cannot diverge between the two.
#[allow(clippy::too_many_arguments)]
fn separate_all_families(
    lp: &LinearProgram,
    basis: &Basis,
    values: &[f64],
    is_integer: &[bool],
    pool: &mut CutPool,
    budget: usize,
    node: Option<&cuts::NodeSeparation<'_>>,
) -> Vec<Cut> {
    let mut cuts = cuts::separate_gomory(lp, basis, values, is_integer, pool, budget, node);
    if cuts.len() < budget {
        cuts.extend(cuts::separate_covers(
            lp,
            values,
            is_integer,
            pool,
            budget - cuts.len(),
            node,
        ));
    }
    if cuts.len() < budget {
        cuts.extend(cuts::separate_cliques(
            lp,
            values,
            is_integer,
            pool,
            budget - cuts.len(),
            node,
        ));
    }
    cuts
}

/// Outcome of the tree-cut rounds at one node.
enum CutStatus {
    /// Keep processing the node (solution/basis/bound updated in place).
    Proceed,
    /// The cut-augmented LP is infeasible — no integer point satisfies the
    /// node's bound box, so the subtree is pruned outright.
    Prune,
}

/// Runs up to [`SolveOptions::max_cut_rounds`] separation rounds against
/// the node LP's tableau: accepted rows are appended to the worker LP and
/// to the node's cut list (globally valid ones are also lifted into the
/// shared pool), then the LP is re-solved warm through the LP layer's
/// incremental-row path. Rounds stop early once the node bound stops
/// moving — rows cannot be retracted, so a round is only started while
/// the previous one paid for itself.
fn tree_cut_rounds(
    shared: &Shared,
    wlp: &mut WorkerLp,
    node_cuts: &mut Vec<std::sync::Arc<NodeCut>>,
    solution: &mut LpSolution,
    basis: &mut Option<Basis>,
    bound: &mut f64,
) -> CutStatus {
    let options = &shared.options;
    // Node-scoped dedup context: the shared pool's keys plus this
    // subtree's own rows. Locally valid cuts only ever enter this
    // snapshot, never the shared pool.
    let mut pool = shared.cuts.pool_snapshot();
    for cut in node_cuts.iter() {
        pool.insert(&cut.cut);
    }
    // Validity context: rows past the base relaxation plus the shared
    // prefix are subtree-owned (constant across the rounds — freshly
    // appended rows only ever extend the subtree-owned range).
    let ctx = cuts::NodeSeparation {
        global_bounds: &shared.base_bounds,
        global_rows: shared.base_lp.num_constraints() + wlp.shared_rows,
    };
    for _round in 0..options.max_cut_rounds {
        if wlp.node_rows.len() >= MAX_NODE_CUT_ROWS {
            break;
        }
        let Some(node_basis) = basis.as_ref() else {
            break;
        };
        if !has_fractional(&solution.values, &shared.integer_vars) {
            break;
        }
        let mut cuts = separate_all_families(
            &wlp.lp,
            node_basis,
            &solution.values,
            &shared.is_integer,
            &mut pool,
            options.max_cuts_per_round,
            Some(&ctx),
        );
        if !options.local_cuts {
            cuts.retain(|c| !c.local);
        }
        if cuts.is_empty() {
            break;
        }
        shared
            .cuts
            .separated
            .fetch_add(cuts.len(), Ordering::Relaxed);
        for cut in cuts {
            if !cut.local {
                shared.cuts.publish(&cut);
            }
            let node_cut = std::sync::Arc::new(NodeCut {
                id: shared.cuts.next_node_id(),
                cut,
            });
            wlp.push_node_cut(&node_cut);
            node_cuts.push(node_cut);
        }
        // Warm re-solve through the incremental-row path: the parent basis
        // is reconciled over the appended rows (their logicals enter
        // basic) and the DSE weights are extended, so this costs a few
        // dual pivots plus one refactorisation.
        wlp.lp.set_time_limit(Some(shared.remaining_time()));
        match solve_node_lp(&wlp.lp, basis.as_ref(), options, &shared.lp_work) {
            Ok((new_solution, new_basis)) => {
                let new_bound = shared.minimised_bound(new_solution.objective);
                // Valid rows can only tighten the relaxation; the max
                // guards the pruning bound against numerical dips.
                let improved = new_bound > *bound + 1e-9 + 1e-7 * bound.abs();
                *solution = new_solution;
                *basis = new_basis;
                *bound = bound.max(new_bound);
                if shared.dominated(*bound) {
                    return CutStatus::Proceed; // caller prunes on the bound
                }
                if !improved {
                    break;
                }
            }
            Err(LpError::Infeasible) => {
                // Valid cuts plus the node box admit no feasible point at
                // all — the subtree contains no integer solution.
                return CutStatus::Prune;
            }
            Err(_) => {
                // Limits or numerical trouble on an optional re-solve: keep
                // the last good solution/bound and branch from it. The
                // appended rows are valid regardless and simply stay with
                // the subtree.
                break;
            }
        }
    }
    CutStatus::Proceed
}

/// Builds the two children of a branching step and picks the plunge child:
/// the up branch for binaries (it decides "one-of" groups and relaxes big-M
/// disjunctions immediately), the LP-rounding side for general integers.
#[allow(clippy::too_many_arguments)]
fn make_children(
    shared: &Shared,
    node: &Node,
    var: usize,
    lp_solution: &LpSolution,
    node_bound: f64,
    node_basis: Option<Basis>,
    shared_rows: usize,
    node_cuts: &[std::sync::Arc<NodeCut>],
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
                    depth: node.depth + 1,
                    parent_basis: basis,
                    shared_rows,
                    node_cuts: node_cuts.to_vec(),
                }
            })
        } else {
            (floor >= node_lo - 1e-9).then(|| {
                let mut changes = node.bound_changes.clone();
                changes.push((var, node_lo, floor));
                Node {
                    bound_changes: changes,
                    parent_bound: node_bound,
                    depth: node.depth + 1,
                    parent_basis: basis,
                    shared_rows,
                    node_cuts: node_cuts.to_vec(),
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

/// Solves `model` by parallel best-first branch and bound with root cuts.
///
/// The root work (presolve, root LP, cut rounds) always runs on the
/// calling thread. The tree search then either runs on scoped threads
/// owned by this call (`worker_pool: None` — the classical path) or is
/// registered with a long-lived [`crate::SolverPool`] whose workers
/// attach to the tree; both execute the identical `worker` loop, so the
/// returned objective is the same either way.
///
/// `warm` seeds the root from (and receives) the full-space root basis;
/// `None` and an empty [`WarmStart`] both solve cold. A `prebuilt`
/// relaxation bypasses presolve (identity postsolve over `lp` itself), so
/// the root re-enters from — and stores back — a **live** full-space
/// basis whose factorisation and DSE weights survive; see
/// [`Model::solve_patched_in_pool`] for the contract.
pub(crate) fn branch_and_bound(
    model: &Model,
    options: &SolveOptions,
    warm: Option<&mut WarmStart>,
    worker_pool: Option<&crate::pool::SolverPool>,
    prebuilt: Option<&LinearProgram>,
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
    // every subtree. Integer columns keep unit scale factors and are never
    // substituted away, so branching and cut separation stay exact.
    let full_is_integer: Vec<bool> = model.vars.iter().map(|v| v.kind.is_integer()).collect();
    // A prebuilt (patched) relaxation skips the reduction stack entirely:
    // the `off()` pass is the identity transform, returning a clone of
    // `lp` that still shares its matrix cache, so the retained basis of
    // the previous solve of this structure re-enters with factorisation
    // and DSE weights intact.
    let presolve_result = match prebuilt {
        Some(lp) => lp.presolve(&PresolveConfig::off(), Some(&full_is_integer)),
        None => model
            .relaxation()
            .presolve(&options.presolve, Some(&full_is_integer)),
    };
    let presolved = match presolve_result {
        Ok(p) => p,
        Err(LpError::Infeasible) => return Err(MilpError::Infeasible),
        Err(LpError::Unbounded) => return Err(MilpError::Unbounded),
        Err(e) => return Err(MilpError::Lp(e)),
    };
    let postsolve = presolved.postsolve;
    let presolve_stats = presolved.stats;
    // Reduced-space views of the integer structure and variable bounds
    // (identical to the model's own when presolve is off).
    let is_integer: Vec<bool> = postsolve
        .kept_columns()
        .iter()
        .map(|&fj| full_is_integer[fj])
        .collect();
    let integer_vars: Vec<usize> = is_integer
        .iter()
        .enumerate()
        .filter(|(_, &int)| int)
        .map(|(j, _)| j)
        .collect();

    // --- root node (serial) ------------------------------------------------
    let mut base_lp = presolved.lp;
    base_lp.set_pricing(options.pricing);
    base_lp.set_time_limit(Some(options.time_limit));
    // Every worker LP is a clone of the base relaxation, so attaching the
    // job's cancellation token here propagates it into every node,
    // heuristic and cut re-solve of the tree.
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
    let (root_solution, root_basis) = match base_lp.solve_warm(root_warm.as_ref()) {
        Ok(pair) => pair,
        Err(LpError::Infeasible) => return Err(MilpError::Infeasible),
        Err(LpError::Unbounded) => return Err(MilpError::Unbounded),
        Err(LpError::IterationLimit) | Err(LpError::TimeLimit) => {
            return Err(MilpError::LimitReached)
        }
        Err(e) => return Err(MilpError::Lp(e)),
    };
    lp_work.record(&root_solution);
    // The *pre-cut* root basis is what survives into the next solve of a
    // grown model (cut rows are private to this solve); it is stored in
    // full-model coordinates so it outlives this solve's presolve.
    if let Some(w) = warm {
        w.root_basis = Some(postsolve.basis_to_full(&root_basis));
    }

    // --- root Gomory cut rounds -------------------------------------------
    let mut cut_pool = CutPool::new();
    let mut cuts_added = 0usize;
    let mut current_solution = root_solution;
    let mut current_basis = root_basis;
    for _round in 0..options.cut_rounds {
        if !has_fractional(&current_solution.values, &integer_vars) {
            break;
        }
        let cuts = separate_all_families(
            &base_lp,
            &current_basis,
            &current_solution.values,
            &is_integer,
            &mut cut_pool,
            options.max_cuts_per_round,
            None,
        );
        if cuts.is_empty() {
            break;
        }
        let saved = base_lp.clone();
        let bound_before = sense_sign * (current_solution.objective + postsolve.objective_offset());
        for cut in &cuts {
            base_lp.add_constraint(cut.coeffs.clone(), ConstraintOp::Ge, cut.rhs);
        }
        base_lp.set_time_limit(Some(options.time_limit.saturating_sub(start.elapsed())));
        match base_lp.solve_warm(Some(&current_basis)) {
            Ok((solution, basis)) => {
                lp_work.record(&solution);
                // Keep the round only if it actually moved the root bound:
                // on the big-M layout models Gomory cuts are typically too
                // weak to pay for the extra rows in every node LP, and this
                // gate is what keeps them free there.
                let improvement =
                    sense_sign * (solution.objective + postsolve.objective_offset()) - bound_before;
                if improvement < 1e-9 + 1e-7 * bound_before.abs() {
                    base_lp = saved;
                    break;
                }
                cuts_added += cuts.len();
                current_solution = solution;
                current_basis = basis;
            }
            Err(_) => {
                // Numerical trouble on the cut LP: cutting is optional, so
                // fall back to the last good relaxation.
                base_lp = saved;
                break;
            }
        }
    }

    let root_bound = sense_sign * (current_solution.objective + postsolve.objective_offset());

    // --- shared search state ----------------------------------------------
    let thread_count = crate::resolve_threads(options.threads);
    let shared = std::sync::Arc::new(Shared {
        model: model.clone(),
        options: options.clone(),
        base_lp,
        base_bounds,
        integer_vars,
        is_integer,
        postsolve,
        // The shared tree-cut pool inherits the root dedup state so node
        // separation never re-derives a cut already in the relaxation.
        cuts: SharedCutPool::new(cut_pool),
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
        lp_work,
        seq: AtomicU64::new(0),
        waiting: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        limit_hit: AtomicBool::new(false),
        error: Mutex::new(None),
    });

    match shared.select_branch_var(&current_solution.values) {
        None => {
            // Root already integral: done.
            let reduced = round_integers(&current_solution.values, &shared.integer_vars);
            let values = shared.postsolve.restore_values(&reduced);
            let objective = evaluate_objective(model, &values) * sense_sign;
            shared.offer_incumbent(values, objective);
        }
        Some((var, _)) => {
            // Refactorise once for the heuristic and both children (see
            // `process_node`).
            shared.base_lp.refresh_basis(&mut current_basis);
            if let Some((vals, objective)) = rounding_heuristic(
                model,
                &shared.base_lp,
                &shared.base_bounds,
                &shared.postsolve,
                &[],
                Some(&current_basis),
                &current_solution.values,
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
                depth: 0,
                parent_basis: Some(current_basis.clone()),
                shared_rows: 0,
                node_cuts: Vec::new(),
            };
            let (preferred, sibling) = make_children(
                &shared,
                &root_node,
                var,
                &current_solution,
                root_bound,
                Some(current_basis),
                0,
                &[],
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
    let tree_cuts = shared.cuts.separated.load(Ordering::Relaxed);
    let simplex_iterations = shared.lp_work.pivots.load(Ordering::Relaxed);
    let lp_refactorizations = shared.lp_work.refactorizations.load(Ordering::Relaxed);
    let lp_dual_iterations = shared.lp_work.dual_pivots.load(Ordering::Relaxed);
    let lp_bound_flips = shared.lp_work.bound_flips.load(Ordering::Relaxed);
    let limit_hit = shared.limit_hit.load(Ordering::SeqCst);
    if let Some(err) = shared.error.lock_recover().take() {
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
            "[milp-solve] vars={} ints={} cons={} threads={thread_count} cuts={cuts_added} tree_cuts={tree_cuts} nodes={nodes_explored} pivots={simplex_iterations} elapsed={:?} incumbent={:?} limit_hit={limit_hit}",
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
                cuts: cuts_added,
                tree_cuts,
                presolve: presolve_stats,
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

/// `true` when any integer variable is fractional beyond the tolerance.
fn has_fractional(values: &[f64], integer_vars: &[usize]) -> bool {
    integer_vars.iter().any(|&v| {
        let frac = values[v] - values[v].floor();
        frac > INT_TOLERANCE && frac < 1.0 - INT_TOLERANCE
    })
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
        .vars
        .iter()
        .enumerate()
        .map(|(i, v)| v.objective * values[i])
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
        let x = m.add_continuous("x", 0.0, 4.0, 1.0);
        let y = m.add_continuous("y", 0.0, 4.0, 2.0);
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
        let xs: Vec<_> = (0..3)
            .map(|i| m.add_binary(format!("x{i}"), values[i]))
            .collect();
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
        let x = m.add_integer("x", 0.0, 10.0, 1.0);
        m.add_le(LinExpr::from((x, 2.0)), 7.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-9);
        assert!((s.value(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_binary_system() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
        m.add_ge(LinExpr::from(a) + b, 3.0);
        assert_eq!(
            m.solve(&SolveOptions::default()),
            Err(MilpError::Infeasible)
        );
    }

    #[test]
    fn unbounded_relaxation_is_reported() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 1.0);
        let b = m.add_binary("b", 0.0);
        m.add_ge(LinExpr::from(x) + b, 1.0);
        assert_eq!(m.solve(&SolveOptions::default()), Err(MilpError::Unbounded));
    }

    #[test]
    fn equality_constrained_binaries() {
        // Choose exactly 2 of 4 items minimising cost.
        let mut m = Model::new(Sense::Minimize);
        let costs = [5.0, 1.0, 3.0, 2.0];
        let xs: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_binary(format!("x{i}"), c))
            .collect();
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
        let b = m.add_binary("b", 3.0);
        let x = m.add_continuous("x", 0.0, 100.0, 1.0);
        m.add_ge(LinExpr::from(x) + (b, 10.0), 2.0);
        let s = m.solve(&SolveOptions::default()).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9);
        assert!(!s.binary_value(b));
    }

    #[test]
    fn node_limit_without_solution_reports_limit() {
        let mut m = Model::new(Sense::Minimize);
        // A small but non-trivial model; a node limit of zero cannot find anything.
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 1.0);
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
            let x = m.add_integer(
                "x",
                0.0,
                5.0,
                if sense == Sense::Maximize { 1.0 } else { -1.0 },
            );
            let y = m.add_integer(
                "y",
                0.0,
                5.0,
                if sense == Sense::Maximize { 1.0 } else { -1.0 },
            );
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
        let xs: Vec<_> = (0..6)
            .map(|i| m.add_binary(format!("x{i}"), (i + 1) as f64))
            .collect();
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
        // total simplex pivots than cold-starting every node. Cuts are off
        // so both sides search the same tree.
        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        for items in [10usize, 20, 30] {
            let m = instances::seeded_knapsack(items, 0xDAC2016);
            let warm = m
                .solve(&SolveOptions::default().without_cuts())
                .expect("warm solve");
            let cold = m
                .solve(&SolveOptions::default().without_cuts().cold())
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
        assert!(warm.has_basis());

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
    fn worker_lp_prunes_backtracked_node_cuts_and_freezes_the_prefix() {
        use std::sync::Arc;

        let base = {
            let mut lp = rfic_lp::LinearProgram::new(3, Sense::Maximize);
            for v in 0..3 {
                lp.set_bounds(v, 0.0, 1.0);
                lp.set_objective_coeff(v, 1.0);
            }
            lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Le, 2.0);
            lp
        };
        let cut = |v: usize, id: u64| {
            Arc::new(NodeCut {
                id,
                cut: Cut {
                    coeffs: vec![(v, -1.0)],
                    rhs: -1.0,
                    score: 0.0,
                    local: true,
                },
            })
        };
        let node = |shared_rows: usize, node_cuts: Vec<Arc<NodeCut>>| Node {
            bound_changes: Vec::new(),
            parent_bound: 0.0,
            depth: 1,
            parent_basis: None,
            shared_rows,
            node_cuts,
        };
        let cuts = SharedCutPool::new(CutPool::new());
        let mut wlp = WorkerLp::new(&base);

        // Plunge: the child extends the parent's node-cut list — rows are
        // appended, nothing rebuilt.
        let a = cut(0, 0);
        let b = cut(1, 1);
        wlp.prepare(&base, &cuts, &node(0, vec![a.clone()]));
        assert_eq!(wlp.node_rows, vec![0]);
        assert_eq!(wlp.lp.num_constraints(), base.num_constraints() + 1);
        wlp.prepare(&base, &cuts, &node(0, vec![a.clone(), b.clone()]));
        assert_eq!(wlp.node_rows, vec![0, 1]);

        // Backtrack to a sibling that never saw cut `b`: the stale row
        // cannot be retracted individually, so the LP is rebuilt without
        // it — the local cut is pruned from the whole subtree switch.
        wlp.prepare(&base, &cuts, &node(0, vec![a.clone()]));
        assert_eq!(wlp.node_rows, vec![0]);
        assert_eq!(wlp.lp.num_constraints(), base.num_constraints() + 1);

        // A fresh subtree syncs the shared prefix; one carrying node cuts
        // freezes it at its stored snapshot instead.
        cuts.publish(&Cut {
            coeffs: vec![(2, -1.0)],
            rhs: -1.0,
            score: 0.0,
            local: false,
        });
        let adopted = wlp.prepare(&base, &cuts, &node(0, Vec::new()));
        assert_eq!(adopted, 1, "fresh subtree adopts the published prefix");
        assert_eq!(wlp.lp.num_constraints(), base.num_constraints() + 1);
        assert!(wlp.node_rows.is_empty());
        let frozen = wlp.prepare(&base, &cuts, &node(0, vec![a]));
        assert_eq!(frozen, 0, "cut-carrying subtree keeps its snapshot");
        assert_eq!(wlp.shared_rows, 0);
        assert_eq!(wlp.node_rows, vec![0]);
    }

    #[test]
    fn tree_cuts_prune_nodes_without_changing_the_optimum() {
        // The branch-and-cut acceptance criterion: non-root separation must
        // shrink the tree by a measurable margin at an unchanged optimum.
        // 0xBEEF is the 24-item parallel-equivalence instance scaled up —
        // root-only needs four-digit node counts on it.
        let m = instances::seeded_knapsack(30, 0xBEEF);
        let root_only = m.solve(&SolveOptions::default()).expect("root-only");
        let tree = m
            .solve(&SolveOptions::default().with_tree_cuts(1))
            .expect("tree cuts");
        assert_eq!(tree.status, SolveStatus::Optimal);
        assert!(
            (tree.objective - root_only.objective).abs() < 1e-6,
            "tree cuts changed the optimum: {} vs {}",
            tree.objective,
            root_only.objective
        );
        assert!(tree.tree_cuts > 0, "expected non-root cuts on this model");
        assert_eq!(root_only.tree_cuts, 0);
        assert!(
            (tree.nodes as f64) <= 0.8 * root_only.nodes as f64,
            "tree cuts must prune >= 20 % of the nodes: {} vs {}",
            tree.nodes,
            root_only.nodes
        );
    }

    #[test]
    fn tree_cuts_without_local_cuts_stay_equivalent() {
        // Restricting node separation to globally valid cuts must also
        // preserve the optimum (and still count its separated cuts).
        let m = instances::seeded_knapsack(26, 0xC0FFEE);
        let reference = m
            .solve(&SolveOptions::default().without_cuts())
            .expect("reference");
        let global_only = m
            .solve(&SolveOptions {
                cut_every: 1,
                local_cuts: false,
                ..SolveOptions::default()
            })
            .expect("global-only tree cuts");
        assert!(
            (global_only.objective - reference.objective).abs() < 1e-6,
            "{} vs {}",
            global_only.objective,
            reference.objective
        );
        assert!(m.violated_constraints(&global_only.values, 1e-6).is_empty());
    }

    #[test]
    fn tree_cuts_are_thread_count_invariant_on_the_objective() {
        let m = instances::seeded_knapsack(24, 0xBEEF);
        let serial = m
            .solve(&SolveOptions::default().with_tree_cuts(2))
            .expect("serial");
        for threads in [2usize, 4] {
            let parallel = m
                .solve(
                    &SolveOptions::default()
                        .with_tree_cuts(2)
                        .with_threads(threads),
                )
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
    fn root_cuts_tighten_the_bound_without_changing_the_optimum() {
        let m = instances::seeded_knapsack(20, 0xC0FFEE);
        let with_cuts = m.solve(&SolveOptions::default()).expect("cuts on");
        let without = m
            .solve(&SolveOptions::default().without_cuts())
            .expect("cuts off");
        assert!(
            (with_cuts.objective - without.objective).abs() < 1e-6,
            "cuts must not change the optimum: {} vs {}",
            with_cuts.objective,
            without.objective
        );
        assert!(with_cuts.cuts > 0, "expected root cuts on this instance");
        assert_eq!(without.cuts, 0);
    }
}
