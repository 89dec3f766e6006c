//! Poison-transparent lock wrappers — the workspace's only lock surface.
//!
//! `std::sync::{Mutex, RwLock}` poison their data when a holder panics,
//! which forces every acquisition site into `.lock().unwrap()` — a panic
//! path of exactly the kind the zero-panic boundary (DESIGN.md §2) bans,
//! and one that *amplifies* a single panic into a poisoned-forever server.
//! These wrappers recover the guard from a poisoned lock instead: the
//! workspace policy is that panics never cross the serving boundary in the
//! first place (every worker job runs under `catch_unwind`), so the data a
//! panicking holder left behind is either consistent (caches: the entry
//! simply isn't inserted) or re-derived (registry slots: the next open
//! replaces it). Propagating the poison could only turn one failed request
//! into a dead process.
//!
//! The workspace `clippy.toml` lists `std::sync::Mutex::lock`,
//! `RwLock::read` and `RwLock::write` under `disallowed-methods` (DESIGN.md
//! §9.1, rule lock-poisoning), for every target, tests included. That is
//! what keeps new code on these wrappers instead of the std types; the
//! three calls below are the only expected uses.

use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// [`std::sync::Mutex`] with poison-transparent acquisition: [`Mutex::lock`]
/// returns the guard directly, recovering it from a poisoned lock.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new unlocked mutex.
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consume the mutex and return its data, poison-transparently.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the calling thread. A lock poisoned by a
    /// panicking holder is recovered, not propagated — see the module docs
    /// for why that is the right policy here.
    ///
    /// The guard is the plain `std` guard, so it composes with
    /// [`std::sync::Condvar`] (re-acquire through [`crate::sync::wait`]).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the poison-transparent wrapper itself: a poisoned guard is recovered, never unwrapped"
        )]
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`std::sync::RwLock`] with poison-transparent acquisition.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value` in a new unlocked lock.
    pub fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Consume the lock and return its data, poison-transparently.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, recovering from poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the poison-transparent wrapper itself: a poisoned guard is recovered, never unwrapped"
        )]
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the exclusive write guard, recovering from poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the poison-transparent wrapper itself: a poisoned guard is recovered, never unwrapped"
        )]
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Block on `condvar` releasing `guard`, and re-acquire poison-transparently
/// — the [`std::sync::Condvar::wait`] companion to [`Mutex::lock`].
pub fn wait<'a, T>(
    condvar: &std::sync::Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1u32);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1u32]);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn poisoned_mutex_still_serves() {
        let m = Mutex::new(7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock();
            panic!("poison the lock");
        }));
        // The std type would now error every acquisition; the wrapper
        // recovers the guard and the data written before the panic.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(m.into_inner(), 8);
    }

    #[test]
    fn poisoned_rwlock_still_serves() {
        let l = RwLock::new(7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = l.write();
            panic!("poison the lock");
        }));
        assert_eq!(*l.read(), 7);
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn condvar_wait_wakes() {
        use std::sync::Condvar;
        let ready = Mutex::new(false);
        let cv = Condvar::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                *ready.lock() = true;
                cv.notify_all();
            });
            let mut guard = ready.lock();
            while !*guard {
                guard = wait(&cv, guard);
            }
        });
    }
}
