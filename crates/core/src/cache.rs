//! Cross-request solve-site cache for the layout job API.
//!
//! Every P-ILP phase solves a sequence of small windowed MILPs, and an
//! identical request — the same netlist under the same flow
//! configuration — rebuilds and re-solves the very same models in the
//! very same order. The flow therefore memoizes each **solve site**: the
//! layout produced by one [`LayoutIlp`](crate::model::LayoutIlp) build
//! plus its lazy overlap-separation rounds. Replaying an identical
//! request turns every site into a pure lookup, reproducing the
//! identical layout with near-zero solver work.
//!
//! Memoizing the finished site (rather than seeding its warm basis) is a
//! deliberate choice: the presolve layer's basis projection drops the
//! dual steepest-edge weights and the factorisation, so a basis-seeded
//! replay re-prices its node solves differently, wanders to alternate
//! optimal vertices and — measured on the tiny-circuit flow — ends up
//! *more* expensive than a cold run while drifting the bend count. The
//! memoized layout is exact by construction.
//!
//! Keys combine the [`rfic_netlist::Netlist::fingerprint`] with the flow
//! phase, the full per-solve [`crate::model::IlpConfig`], the flow
//! configuration and the base layout the model was built against, so two
//! solve sites share an entry only when they build byte-identical models
//! and solve them under identical budgets. Only sites whose every round
//! solved to proven optimality are stored — a time-limit incumbent is
//! timing-dependent and must not be replayed. The cache is bounded (FIFO
//! eviction of the oldest entry) and fully thread-safe — concurrent jobs
//! of one [`crate::JobContext`] share it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rfic_lp::sync::LockExt;
use rfic_lp::{Basis, LinearProgram};

use crate::layout::Layout;

/// Default number of cached solve sites per [`FlowCache`]. A
/// tiny-circuit flow issues a few dozen distinct solve sites, so the
/// default comfortably holds several distinct circuits at once.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

/// Default number of retained model builds per [`ModelCache`]. A sweep
/// re-visits the same few dozen solve sites per variant, so the default
/// comfortably covers several circuits' worth of distinct structures.
pub const DEFAULT_MODEL_CACHE_CAPACITY: usize = 256;

struct CacheState<V> {
    entries: HashMap<u64, V>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

/// A bounded, thread-safe map from `u64` keys to cloneable values with
/// FIFO eviction of the oldest entry and hit/miss counters.
///
/// The flow uses it twice, as [`FlowCache`] and [`ModelCache`]; see their
/// docs for what each keys and stores.
pub struct BoundedCache<V> {
    capacity: usize,
    state: Mutex<CacheState<V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// A bounded map from solve-site fingerprints to the layouts those sites
/// produced.
///
/// See the module docs for the keying and reuse contract.
pub type FlowCache = BoundedCache<Layout>;

/// A bounded map from **structure fingerprints** (see
/// [`rfic_milp::Model::structure_fingerprint`]) to retained model builds.
///
/// Where [`FlowCache`] replays *exact* request repeats as pure lookups,
/// this cache catches the parameter-sweep shape: requests whose models
/// share their constraint pattern and integrality mask but differ in
/// bound/RHS/cost values. A hit is re-solved by value-patching the
/// retained [`LinearProgram`] in place
/// ([`rfic_milp::Model::patch_relaxation`]) and re-entering from the
/// retained basis with presolve bypassed — the warm path that keeps the
/// factorisation and DSE weights alive, where cross-request basis
/// *seeding* through the presolve projection measurably did not (see the
/// module docs above). Entries are shared by `Arc`, so a [`ModelView`]
/// snapshot copies no model.
pub type ModelCache = BoundedCache<Arc<ModelEntry>>;

impl Default for FlowCache {
    fn default() -> Self {
        FlowCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::with_capacity(DEFAULT_MODEL_CACHE_CAPACITY)
    }
}

impl<V: Clone> BoundedCache<V> {
    /// Creates a cache holding at most `capacity` entries (at least one).
    pub fn with_capacity(capacity: usize) -> BoundedCache<V> {
        BoundedCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.state.lock_recover().entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successful lookups since the cache was created.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Failed lookups since the cache was created.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Looks up the value for a key, counting the hit/miss.
    pub fn lookup(&self, key: u64) -> Option<V> {
        let value = self.state.lock_recover().entries.get(&key).cloned();
        self.count(value.is_some());
        value
    }

    /// Stores (or refreshes) the value for a key, evicting the oldest
    /// entry when full.
    pub fn store(&self, key: u64, value: V) {
        let mut state = self.state.lock_recover();
        if state.entries.insert(key, value).is_none() {
            state.order.push_back(key);
            while state.entries.len() > self.capacity {
                if let Some(old) = state.order.pop_front() {
                    state.entries.remove(&old);
                } else {
                    break;
                }
            }
        }
    }

    /// Drops the entry for a key — the recovery path when a patched
    /// re-solve of a retained model fails and the site falls back to a
    /// fresh build.
    pub fn invalidate(&self, key: u64) {
        let mut state = self.state.lock_recover();
        if state.entries.remove(&key).is_some() {
            state.order.retain(|&k| k != key);
        }
    }

    /// A point-in-time copy of every entry. [`ModelView`] anchors a
    /// flow's visibility to one of these.
    fn snapshot(&self) -> HashMap<u64, V> {
        self.state.lock_recover().entries.clone()
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One retained model build: the relaxation [`LinearProgram`] exactly as
/// the last solve of this structure left it, plus the full-space root
/// basis that solve returned.
#[derive(Clone)]
pub struct ModelEntry {
    /// The built relaxation. Its memoised matrix cache (and fingerprint)
    /// is what value-patching preserves, so cloning this entry hands the
    /// next solve a model whose retained basis still matches.
    pub lp: LinearProgram,
    /// Root basis of the last solve of this structure. Entries seeded
    /// from a presolved solve carry the *dead* full-space projection
    /// (statuses only — the first patched re-solve pays one
    /// refactorisation and re-prices); entries stored back from a patched
    /// re-solve carry the **live** basis with factorisation and dual
    /// steepest-edge weights.
    pub basis: Option<Basis>,
}

/// A flow's **deterministic view** of a shared [`ModelCache`]: the set of
/// entries that existed when the flow started (a point-in-time snapshot,
/// shared by `Arc` — no deep copies), overlaid with the flow's own stores
/// and invalidations.
///
/// The snapshot is what makes cross-request reuse safe under
/// concurrency. A retained-model re-solve may return a different (equally
/// optimal) vertex than the fresh path, so *when* a flow first observes
/// an entry changes its layout trajectory. Reading the live shared map
/// would make that observation point depend on scheduler timing —
/// concurrent identical jobs would wobble between trajectories
/// non-deterministically. Anchoring each flow to its submission-time
/// snapshot removes the race entirely: a flow's layout depends only on
/// the cache contents at submission, never on what neighbours store
/// mid-flight. Sequential submissions and sweep variants still see every
/// predecessor's stores, because each starts after the previous one
/// finished.
///
/// Stores and invalidations are applied to both the overlay (so the
/// owning flow sees its own writes immediately) and the shared cache (so
/// *later* flows inherit them).
pub struct ModelView {
    shared: Arc<ModelCache>,
    snapshot: HashMap<u64, Arc<ModelEntry>>,
    /// `Some(entry)` = stored by this flow; `None` = invalidated by this
    /// flow (masks a snapshot entry).
    overlay: Mutex<HashMap<u64, Option<Arc<ModelEntry>>>>,
}

impl ModelView {
    /// Opens a view anchored to the cache's current contents.
    pub fn new(shared: Arc<ModelCache>) -> ModelView {
        let snapshot = shared.snapshot();
        ModelView {
            shared,
            snapshot,
            overlay: Mutex::new(HashMap::new()),
        }
    }

    /// Looks up a structure fingerprint in the overlay, then the
    /// snapshot. Hit/miss counts land on the shared cache's counters.
    pub fn lookup(&self, key: u64) -> Option<ModelEntry> {
        let entry = match self.overlay.lock_recover().get(&key) {
            Some(stored) => stored.clone(),
            None => self.snapshot.get(&key).cloned(),
        };
        self.shared.count(entry.is_some());
        entry.map(|entry| ModelEntry::clone(&entry))
    }

    /// Stores a retained build: visible to this flow immediately and to
    /// flows that start after this point.
    pub fn store(&self, key: u64, entry: ModelEntry) {
        let entry = Arc::new(entry);
        self.overlay
            .lock_recover()
            .insert(key, Some(Arc::clone(&entry)));
        self.shared.store(key, entry);
    }

    /// Drops a retained build from this flow's view and from the shared
    /// cache.
    pub fn invalidate(&self, key: u64) {
        self.overlay.lock_recover().insert(key, None);
        self.shared.invalidate(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = FlowCache::with_capacity(4);
        assert!(cache.lookup(1).is_none());
        cache.store(1, Layout::default());
        assert!(cache.lookup(1).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn eviction_is_bounded_and_fifo() {
        let cache = FlowCache::with_capacity(2);
        cache.store(1, Layout::default());
        cache.store(2, Layout::default());
        cache.store(3, Layout::default());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_none(), "oldest entry is evicted first");
        assert!(cache.lookup(2).is_some());
        assert!(cache.lookup(3).is_some());
    }

    #[test]
    fn refreshing_a_key_does_not_grow_the_cache() {
        let cache = FlowCache::with_capacity(2);
        cache.store(1, Layout::default());
        cache.store(1, Layout::default());
        cache.store(2, Layout::default());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_some());
    }

    #[test]
    fn defaults_keep_their_capacities() {
        assert_eq!(FlowCache::default().capacity(), DEFAULT_CACHE_CAPACITY);
        assert_eq!(
            ModelCache::default().capacity(),
            DEFAULT_MODEL_CACHE_CAPACITY
        );
        assert_eq!(FlowCache::with_capacity(0).capacity(), 1);
    }

    fn tiny_entry() -> Arc<ModelEntry> {
        Arc::new(ModelEntry {
            lp: LinearProgram::new(1, rfic_lp::Sense::Minimize),
            basis: None,
        })
    }

    #[test]
    fn model_cache_counts_and_evicts_fifo() {
        let cache = ModelCache::with_capacity(2);
        assert!(cache.lookup(1).is_none());
        cache.store(1, tiny_entry());
        cache.store(2, tiny_entry());
        cache.store(3, tiny_entry());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_none(), "oldest entry is evicted first");
        assert!(cache.lookup(2).is_some());
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn model_cache_invalidate_drops_the_entry() {
        let cache = ModelCache::with_capacity(4);
        cache.store(7, tiny_entry());
        assert!(cache.lookup(7).is_some());
        cache.invalidate(7);
        assert!(cache.lookup(7).is_none());
        assert!(cache.is_empty());
        // Re-storing after invalidation must not double-count in the
        // FIFO order queue.
        cache.store(7, tiny_entry());
        cache.store(8, tiny_entry());
        cache.store(9, tiny_entry());
        cache.store(10, tiny_entry());
        cache.store(11, tiny_entry());
        assert_eq!(cache.len(), 4);
    }
}
