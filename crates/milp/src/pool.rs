//! A long-lived solver pool multiplexing **many** branch-and-bound trees
//! over one fixed set of worker threads.
//!
//! The per-solve search in [`crate::solve`] historically spawned
//! `SolveOptions::threads` scoped workers per call, so N concurrent MILP
//! solves cost N×threads OS threads all contending for the same cores.
//! A [`SolverPool`] inverts that: a fixed set of workers is spawned once,
//! and every tree registered through [`Model::solve_warm`] with
//! `Some(pool)` exposes up to
//! `SolveOptions::threads` **slots** that idle pool workers attach to.
//!
//! **Scheduling order.** Trees are served strictly in registration (FIFO)
//! order: an idle worker scans the queue front-to-back and attaches to
//! the first tree with a free slot. Within one tree, nodes keep the
//! existing deterministic `(bound, seq)` best-first order — the pool
//! worker runs the *same* `worker` loop as a scoped thread would, so the
//! returned objective of every job is independent of how many jobs share
//! the pool (the thread-count-invariance argument of `crate::solve`
//! carries over unchanged: a tree searched by k ≤ slots pool workers is
//! exactly a k-thread solve).
//!
//! **Completion.** A worker stays attached until the tree's `worker`
//! loop returns (stop flag, drained pool, or error); the first return
//! marks the tree finished (no further attachments), the last detachment
//! removes it from the queue and wakes the blocked submitter.
//!
//! **Shutdown.** [`SolverPool::shutdown`] (also run on drop) stops every
//! queued tree through the same flag a time limit uses — in-flight
//! solves return their best incumbent (or `MilpError::LimitReached`) and
//! later submissions fail with [`MilpError::PoolShutdown`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use rfic_lp::sync::{self, LockExt, Slot};

use crate::solve::{worker_caught, MilpError, Shared};

/// One registered tree: the shared search state plus slot bookkeeping.
struct QueuedTree {
    id: u64,
    tree: Arc<Shared>,
    /// Worker slots this tree accepts (its configured thread count).
    slots: usize,
    /// Slots handed out so far (monotone — slots are not reissued after a
    /// worker returns, because the first return means the search is over).
    taken: usize,
    /// Workers currently inside this tree's `worker` loop.
    attached: usize,
    /// Set by the first worker to return from the tree.
    finished: bool,
    /// Filled when the last worker detaches (wakes the submitter).
    done: Arc<Slot<()>>,
}

struct PoolState {
    queue: VecDeque<QueuedTree>,
    next_id: u64,
    completed: u64,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Workers park here while the queue has no attachable tree.
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size pool of persistent branch-and-bound workers shared by
/// many concurrent MILP solves — see the module docs for the scheduling
/// and determinism contract.
///
/// Cloning shares the pool. Dropping the **last** handle shuts the pool
/// down and joins its workers.
pub struct SolverPool {
    inner: Arc<PoolInner>,
    /// Join handles, owned by the handle group (drained on shutdown).
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    worker_count: usize,
}

impl Clone for SolverPool {
    fn clone(&self) -> Self {
        SolverPool {
            inner: Arc::clone(&self.inner),
            workers: Arc::clone(&self.workers),
            worker_count: self.worker_count,
        }
    }
}

impl SolverPool {
    /// Spawns a pool with `workers` persistent worker threads (`0` uses
    /// the available hardware parallelism, see [`crate::resolve_threads`]).
    pub fn new(workers: usize) -> SolverPool {
        let worker_count = crate::resolve_threads(workers);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                next_id: 0,
                completed: 0,
            }),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rfic-solver-{i}"))
                    .spawn(move || worker_main(inner))
                    .expect("spawn solver pool worker")
            })
            .collect();
        SolverPool {
            inner,
            workers: Arc::new(Mutex::new(handles)),
            worker_count,
        }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Trees served to completion since the pool started.
    pub fn completed_trees(&self) -> u64 {
        self.inner.state.lock_recover().completed
    }

    /// `true` once [`SolverPool::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stops the pool: every queued tree is stopped through the limit
    /// flag (in-flight solves return their incumbent), the workers are
    /// joined, and later pooled [`crate::Model::solve_warm`] calls fail with
    /// [`MilpError::PoolShutdown`]. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut state = self.inner.state.lock_recover();
            // Trees nobody attached to yet will never run: complete them
            // as stopped so their submitters wake with a limit result.
            let mut i = 0;
            while i < state.queue.len() {
                let entry = &state.queue[i];
                entry.tree.request_stop();
                if entry.attached == 0 && entry.taken == 0 {
                    let entry = state.queue.remove(i).unwrap();
                    state.completed += 1;
                    entry.done.fill(());
                } else {
                    i += 1;
                }
            }
            self.inner.work_cv.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock_recover());
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Registers a tree and blocks until the pool's workers have drained
    /// it. At most [`Shared::slots`] workers attach; with a single
    /// registered tree and `slots >= workers` this is indistinguishable
    /// from the scoped-thread search.
    pub(crate) fn run_tree(&self, tree: Arc<Shared>) -> Result<(), MilpError> {
        let done = Arc::new(Slot::default());
        {
            let mut state = self.inner.state.lock_recover();
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Err(MilpError::PoolShutdown);
            }
            let id = state.next_id;
            state.next_id += 1;
            let slots = tree.slots().max(1);
            state.queue.push_back(QueuedTree {
                id,
                tree,
                slots,
                taken: 0,
                attached: 0,
                finished: false,
                done: Arc::clone(&done),
            });
            self.inner.work_cv.notify_all();
        }
        done.wait();
        Ok(())
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        // Last handle out shuts the pool down (`workers` is shared by the
        // clone group, so the strong count tracks live handles).
        if Arc::strong_count(&self.workers) == 1 {
            self.shutdown();
        }
    }
}

/// Worker thread body: FIFO-scan the queue for an attachable tree, run
/// its `worker` loop on the claimed slot, detach, repeat.
fn worker_main(inner: Arc<PoolInner>) {
    loop {
        let claimed = {
            let mut state = inner.state.lock_recover();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let next = state
                    .queue
                    .iter_mut()
                    .find(|entry| !entry.finished && entry.taken < entry.slots);
                if let Some(entry) = next {
                    let slot = entry.taken;
                    entry.taken += 1;
                    entry.attached += 1;
                    break (entry.id, Arc::clone(&entry.tree), slot);
                }
                state = sync::wait(&inner.work_cv, state);
            }
        };
        let (id, tree, slot) = claimed;
        // A panicking solve fails only its own tree, while this worker
        // thread survives and moves on to the next queued tree — sibling
        // jobs keep their deterministic slot-index layout because the
        // claimed slot was consumed exactly as in a normal return.
        worker_caught(&tree, slot);
        drop(tree);
        let mut state = inner.state.lock_recover();
        if let Some(pos) = state.queue.iter().position(|entry| entry.id == id) {
            let entry = &mut state.queue[pos];
            entry.finished = true;
            entry.attached -= 1;
            if entry.attached == 0 {
                let entry = state.queue.remove(pos).unwrap();
                state.completed += 1;
                entry.done.fill(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instances, SolveOptions, WarmStart};

    #[test]
    fn pooled_solve_matches_direct_solve() {
        let pool = SolverPool::new(2);
        let model = instances::bench_knapsack(20);
        let options = SolveOptions::default().with_threads(2);
        let direct = model.solve(&options).unwrap();
        let pooled = model
            .solve_warm(&options, &mut WarmStart::new(), Some(&pool))
            .unwrap();
        assert_eq!(pooled.objective, direct.objective);
        pool.shutdown();
    }

    #[test]
    fn concurrent_trees_share_the_pool_deterministically() {
        let pool = SolverPool::new(3);
        let sizes = [15usize, 20, 25];
        let solo: Vec<f64> = sizes
            .iter()
            .map(|&n| {
                instances::bench_knapsack(n)
                    .solve(&SolveOptions::default())
                    .unwrap()
                    .objective
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = sizes
                .iter()
                .map(|&n| {
                    let pool = &pool;
                    scope.spawn(move || {
                        instances::bench_knapsack(n)
                            .solve_warm(&SolveOptions::default(), &mut WarmStart::new(), Some(pool))
                            .unwrap()
                            .objective
                    })
                })
                .collect();
            for (handle, expected) in handles.into_iter().zip(&solo) {
                assert_eq!(handle.join().unwrap(), *expected);
            }
        });
        assert_eq!(pool.completed_trees(), sizes.len() as u64);
        pool.shutdown();
    }

    #[test]
    fn shutdown_pool_rejects_new_trees() {
        let pool = SolverPool::new(1);
        pool.shutdown();
        let model = instances::bench_knapsack(10);
        assert!(matches!(
            model.solve_warm(&SolveOptions::default(), &mut WarmStart::new(), Some(&pool)),
            Err(MilpError::PoolShutdown)
        ));
    }
}
