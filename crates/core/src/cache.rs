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
use std::sync::Mutex;

use rfic_lp::sync::LockExt;

use crate::layout::Layout;

/// Default number of cached solve sites per [`FlowCache`]. A
/// tiny-circuit flow issues a few dozen distinct solve sites, so the
/// default comfortably holds several distinct circuits at once.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

struct CacheState<V> {
    entries: HashMap<u64, V>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

/// A bounded, thread-safe map from `u64` keys to cloneable values with
/// FIFO eviction of the oldest entry and hit/miss counters.
///
/// The flow memoizes its solve sites in one, the [`FlowCache`]; see its
/// docs for what it keys and stores.
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

/// An inert bounded cache: nothing in the layout flow reads or writes it,
/// so a context's `ModelCache` counts zero hits and zero misses. It stays
/// only because the layout-service benchmark (`perfbench/`) reads these
/// counters; ROADMAP item 1 deletes the type together with that metric.
pub type ModelCache = BoundedCache<()>;

impl Default for FlowCache {
    fn default() -> Self {
        FlowCache::with_capacity(DEFAULT_CACHE_CAPACITY)
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

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
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
        assert_eq!(FlowCache::with_capacity(0).capacity(), 1);
    }
}
