//! Poison-tolerant synchronisation helpers shared by the solver stack.
//!
//! `Mutex::lock` returns `Err` once any thread panicked while holding
//! the lock — and with the panic-isolation layer a worker panic is a
//! *survivable* event, not process death. Every protected structure in
//! the pool/job/cache paths is written so its invariants hold at each
//! unlock point (claims are single-field increments, result slots are
//! write-once), so the right response to poison is to keep going with
//! the inner guard rather than propagate a second panic. These helpers
//! centralise that policy; bare `.lock().unwrap()` is reserved for
//! test-only code.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Waits on `cv`, recovering the guard if the mutex was poisoned while
/// this thread was parked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant locking, so `mutex.lock().unwrap()` call sites
/// convert one-for-one to `mutex.lock_recover()`.
pub trait LockExt<T> {
    /// Locks, recovering the guard if the mutex was poisoned.
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockExt<T> for Mutex<T> {
    fn lock_recover(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A write-once value that threads can block on: the first
/// [`Slot::fill`] wins and wakes every waiter, later fills are ignored.
/// Like the rest of this module it tolerates poison, so a slot filled
/// before (or read after) a panic still reads.
pub struct Slot<T> {
    value: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            value: Mutex::new(None),
            cv: Condvar::new(),
        }
    }
}

impl<T> Slot<T> {
    /// Stores `value` unless the slot is already filled, and wakes every
    /// waiter.
    pub fn fill(&self, value: T) {
        let mut slot = self.value.lock_recover();
        if slot.is_none() {
            *slot = Some(value);
        }
        self.cv.notify_all();
    }
}

impl<T: Clone> Slot<T> {
    /// Blocks until the slot is filled and returns (a clone of) its
    /// value.
    pub fn wait(&self) -> T {
        let mut slot = self.value.lock_recover();
        loop {
            if let Some(value) = slot.as_ref() {
                return value.clone();
            }
            slot = wait(&self.cv, slot);
        }
    }

    /// Non-blocking read: `None` until the slot is filled, then (a clone
    /// of) its value.
    pub fn poll(&self) -> Option<T> {
        self.value.lock_recover().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let mutex = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("poison it");
        }));
        assert!(mutex.is_poisoned());
        assert_eq!(*mutex.lock_recover(), 7);
    }

    #[test]
    fn slot_keeps_the_first_fill() {
        let slot = Slot::default();
        assert_eq!(slot.poll(), None);
        slot.fill(1u32);
        slot.fill(2);
        assert_eq!(slot.poll(), Some(1));
        assert_eq!(slot.wait(), 1);
    }

    #[test]
    fn slot_wait_wakes_across_threads() {
        let slot = Slot::default();
        let value = std::thread::scope(|scope| {
            scope.spawn(|| slot.fill("done"));
            slot.wait()
        });
        assert_eq!(value, "done");
    }

    #[test]
    fn poisoned_slot_still_reads() {
        let slot = Slot::default();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = slot.value.lock().unwrap();
            panic!("poison it");
        }));
        assert!(slot.value.is_poisoned());
        assert_eq!(slot.poll(), None);
        slot.fill(3u8);
        assert_eq!(slot.wait(), 3);
    }
}
