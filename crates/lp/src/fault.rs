//! Named fault-injection sites ("failpoints") for exercising recovery
//! paths in tests.
//!
//! The solver stack promises to *contain* failures: a panicking worker
//! fails only its own branch-and-bound tree, a numerically-failed
//! simplex is retried through the fallback ladder, a blown deadline
//! surfaces as a typed error. Those promises are only worth anything if
//! tests can force each failure on demand — which in a deterministic
//! solver never happens by accident. This module plants **named sites**
//! through the stack (`lp.revised.solve`, `milp.solve.node`,
//! `milp.pool.worker`, `core.job.flow`, …) that tests arm with a
//! [`Fault`]:
//!
//! * [`Fault::Panic`] — panic with payload `failpoint:<site>`, proving
//!   the `catch_unwind` containment boundaries.
//! * [`Fault::Singular`] — the site reports a forced singular basis
//!   through its native error path, proving the fallback ladder.
//! * [`Fault::Delay`] — sleep before continuing, proving deadline
//!   accounting.
//!
//! Arming is either programmatic (`FaultPlan::install`, which also
//! serialises concurrent fault tests within one process) or via the
//! `RFIC_FAILPOINTS` environment variable
//! (`"site=panic;other=singular*2;slow=delay:500"` — `*N` fires the
//! fault `N` times, default once).
//!
//! Without the `failpoints` cargo feature every site compiles to an
//! inlined no-op returning `false`: production builds carry no registry,
//! no lock, no branch worth measuring.

/// A fault that a site can be armed to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic with payload `"failpoint:<site>"` when the site fires.
    Panic,
    /// Report a forced singular basis: [`fire`] returns `true` and the
    /// call site surfaces its native "singular basis" error. Only
    /// meaningful at sites documented to support it; other sites consume
    /// the fault without effect.
    Singular,
    /// Sleep for the given number of milliseconds before continuing
    /// (deadline-blowout injection).
    Delay(u64),
}

/// Fires the named site.
///
/// With the `failpoints` feature enabled and a fault armed for `site`,
/// the fault takes effect: [`Fault::Panic`] panics, [`Fault::Delay`]
/// sleeps, and [`Fault::Singular`] makes this call return `true` so the
/// site can produce its forced-singular error. Each armed fault fires a
/// bounded number of times (default once) and is inert afterwards.
///
/// Without the feature this is an inlined no-op returning `false`.
pub fn fire(site: &str) -> bool {
    imp::fire(site)
}

#[cfg(feature = "failpoints")]
pub use plan::{FaultGuard, FaultPlan};

#[cfg(feature = "failpoints")]
mod plan {
    use super::{imp, Fault};

    /// A programmatic set of armed fault sites (test-only; requires the
    /// `failpoints` feature).
    ///
    /// Build with [`FaultPlan::fail`] / [`FaultPlan::fail_times`], then
    /// [`FaultPlan::install`] it. Installation takes a process-global
    /// scope lock, so concurrent `#[test]`s that install plans serialise
    /// against each other instead of cross-firing.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        sites: Vec<(String, Fault, usize)>,
    }

    impl FaultPlan {
        /// Starts an empty plan.
        pub fn new() -> FaultPlan {
            FaultPlan::default()
        }

        /// Arms `site` to inject `fault` exactly once.
        pub fn fail(self, site: &str, fault: Fault) -> FaultPlan {
            self.fail_times(site, fault, 1)
        }

        /// Arms `site` to inject `fault` on its next `times` firings.
        pub fn fail_times(mut self, site: &str, fault: Fault, times: usize) -> FaultPlan {
            self.sites.push((site.to_string(), fault, times));
            self
        }

        /// Installs the plan, replacing any previously armed sites.
        ///
        /// The returned guard holds the global fault-test scope lock;
        /// dropping it disarms every site.
        pub fn install(self) -> FaultGuard {
            FaultGuard {
                _inner: imp::install(self.sites),
            }
        }
    }

    /// Scope guard for an installed [`FaultPlan`]: disarms all sites on
    /// drop and releases the global fault-test serialisation lock.
    #[derive(Debug)]
    pub struct FaultGuard {
        _inner: imp::Guard,
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::Fault;
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    struct Armed {
        fault: Fault,
        remaining: usize,
    }

    /// `None` = not yet initialised from `RFIC_FAILPOINTS`.
    static PLAN: Mutex<Option<HashMap<String, Armed>>> = Mutex::new(None);
    /// Serialises tests that install fault plans (held by [`Guard`]).
    static SCOPE: Mutex<()> = Mutex::new(());

    fn lock_plan() -> MutexGuard<'static, Option<HashMap<String, Armed>>> {
        PLAN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `"site=panic;other=singular*2;slow=delay:500"` — malformed
    /// entries are ignored.
    fn parse_env(spec: &str) -> HashMap<String, Armed> {
        let mut map = HashMap::new();
        for entry in spec.split(';') {
            let entry = entry.trim();
            let Some((site, rhs)) = entry.split_once('=') else {
                continue;
            };
            let (kind, times) = match rhs.split_once('*') {
                Some((kind, n)) => (kind, n.parse::<usize>().unwrap_or(1)),
                None => (rhs, 1),
            };
            let fault = if kind == "panic" {
                Fault::Panic
            } else if kind == "singular" {
                Fault::Singular
            } else if let Some(ms) = kind.strip_prefix("delay:") {
                match ms.parse::<u64>() {
                    Ok(ms) => Fault::Delay(ms),
                    Err(_) => continue,
                }
            } else {
                continue;
            };
            map.insert(
                site.to_string(),
                Armed {
                    fault,
                    remaining: times,
                },
            );
        }
        map
    }

    pub(super) fn fire(site: &str) -> bool {
        // Resolve and consume the fault with the lock held, act on it
        // after release: a panic must not poison the plan registry.
        let fault = {
            let mut plan = lock_plan();
            let map = plan.get_or_insert_with(|| {
                std::env::var("RFIC_FAILPOINTS")
                    .map(|spec| parse_env(&spec))
                    .unwrap_or_default()
            });
            match map.get_mut(site) {
                Some(armed) if armed.remaining > 0 => {
                    armed.remaining -= 1;
                    Some(armed.fault)
                }
                _ => None,
            }
        };
        match fault {
            Some(Fault::Panic) => panic!("failpoint:{site}"),
            Some(Fault::Singular) => true,
            Some(Fault::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                false
            }
            None => false,
        }
    }

    #[derive(Debug)]
    pub(super) struct Guard {
        _scope: MutexGuard<'static, ()>,
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            // Disarm everything; an empty (initialised) plan also stops
            // `RFIC_FAILPOINTS` from re-arming within this process.
            *lock_plan() = Some(HashMap::new());
        }
    }

    pub(super) fn install(sites: Vec<(String, Fault, usize)>) -> Guard {
        let scope = SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
        let mut map = HashMap::new();
        for (site, fault, times) in sites {
            map.insert(
                site,
                Armed {
                    fault,
                    remaining: times,
                },
            );
        }
        *lock_plan() = Some(map);
        Guard { _scope: scope }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    #[inline(always)]
    pub(super) fn fire(_site: &str) -> bool {
        false
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn singular_fires_the_armed_number_of_times() {
        let _guard = FaultPlan::new()
            .fail_times("test.site", Fault::Singular, 2)
            .install();
        assert!(fire("test.site"));
        assert!(fire("test.site"));
        assert!(!fire("test.site"), "exhausted after two firings");
        assert!(!fire("test.other"), "unarmed sites never fire");
    }

    #[test]
    fn panic_carries_the_site_name() {
        let _guard = FaultPlan::new().fail("test.boom", Fault::Panic).install();
        let err = std::panic::catch_unwind(|| fire("test.boom")).expect_err("panics");
        let payload = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(payload, "failpoint:test.boom");
        assert!(!fire("test.boom"), "consumed by the panic");
    }

    #[test]
    fn dropping_the_guard_disarms_sites() {
        {
            let _guard = FaultPlan::new()
                .fail("test.drop", Fault::Singular)
                .install();
        }
        assert!(!fire("test.drop"));
    }
}
