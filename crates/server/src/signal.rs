//! `SIGHUP` → hot reload and `SIGTERM` → graceful drain, with no libc
//! crate in the offline build.
//!
//! The vendored dependency set has no `libc`/`signal-hook`, but every Linux
//! binary already links the platform C library, so the two symbols this
//! needs (`signal`, `raise`) are declared directly. Each handler does the
//! only async-signal-safe thing possible — set an atomic flag — and a
//! watcher thread (see [`crate::Server::spawn_sighup_watcher`] and the
//! drain watcher in [`crate::Server::run`]) turns the flag into a
//! [`grepair_store::StoreRegistry::reload`] call or a drain at its
//! leisure. The drain watcher's `stop()` self-connect doubles as the
//! wakeup for *both* front ends: it unblocks the thread-mode `accept(2)`
//! and makes the epoll reactor's listener readable, so a `SIGTERM` drain
//! reaches either loop within one tick (DESIGN.md §10/§11). On non-Unix
//! targets the module compiles to a no-op: `RELOAD` and `SHUTDOWN` over
//! the socket are the portable paths; the signals are a Unix convenience.

#[cfg(unix)]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the `SIGHUP` handler, drained by [`take_hup`].
    static HUP: AtomicBool = AtomicBool::new(false);

    /// Set by the `SIGTERM` handler, drained by [`take_term`].
    static TERM: AtomicBool = AtomicBool::new(false);

    /// `SIGHUP` is 1 and `SIGTERM` is 15 on every platform this builds
    /// for (POSIX).
    const SIGHUP: i32 = 1;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// ISO C `signal(2)`; the previous handler return value is opaque
        /// to us, hence `usize`.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        /// ISO C `raise(3)` — used by the unit tests to deliver a real
        /// signal to this process.
        #[cfg_attr(not(test), allow(dead_code))]
        fn raise(signum: i32) -> i32;
    }

    extern "C" fn on_hup(_signum: i32) {
        // An atomic store is on the async-signal-safe list; nothing else
        // here is allowed to allocate, lock, or panic.
        HUP.store(true, Ordering::Relaxed);
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Relaxed);
    }

    pub fn install_hup_handler() {
        // SAFETY: `signal(2)` is an FFI call into the platform C library,
        // which every Linux binary already links. `SIGHUP` is a valid
        // signal number on every POSIX target this compiles for (the
        // module is `cfg(unix)`), and `on_hup` is an `extern "C" fn(i32)`
        // matching the handler ABI `signal` expects; the handler itself
        // only performs an async-signal-safe atomic store. Replacing a
        // previous handler is the intended effect, not a hazard.
        unsafe {
            signal(SIGHUP, on_hup);
        }
    }

    pub fn install_term_handler() {
        // SAFETY: identical argument to `install_hup_handler` — `SIGTERM`
        // is a valid POSIX signal number and `on_term` only performs an
        // async-signal-safe atomic store. Replacing the default handler
        // (which would terminate the process immediately) with the
        // drain-flag store is the entire point.
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub fn take_hup() -> bool {
        HUP.swap(false, Ordering::Relaxed)
    }

    pub fn take_term() -> bool {
        TERM.swap(false, Ordering::Relaxed)
    }

    #[cfg(test)]
    pub fn raise_for_test(signum: i32) {
        // SAFETY: `raise(3)` is an FFI call with no memory preconditions;
        // the tests only pass `SIGHUP`/`SIGTERM` and install our
        // async-signal-safe handlers first, so delivery runs them rather
        // than the default (which would terminate the process).
        unsafe {
            raise(signum);
        }
    }

    #[cfg(test)]
    pub fn raise_hup_for_test() {
        raise_for_test(SIGHUP);
    }

    #[cfg(test)]
    pub fn raise_term_for_test() {
        raise_for_test(SIGTERM);
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install_hup_handler() {}

    pub fn install_term_handler() {}

    pub fn take_hup() -> bool {
        false
    }

    pub fn take_term() -> bool {
        false
    }
}

pub use imp::{install_hup_handler, install_term_handler, take_hup, take_term};

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn sighup_sets_the_flag_once() {
        install_hup_handler();
        assert!(!take_hup(), "flag starts clear");
        imp::raise_hup_for_test();
        assert!(take_hup(), "a delivered SIGHUP must set the flag");
        assert!(!take_hup(), "take drains it");
    }

    #[test]
    fn sigterm_sets_its_own_flag() {
        install_hup_handler();
        install_term_handler();
        assert!(!take_term(), "flag starts clear");
        imp::raise_term_for_test();
        assert!(take_term(), "a delivered SIGTERM must set the flag");
        assert!(!take_term(), "take drains it");
        assert!(!take_hup(), "SIGTERM must not leak into the SIGHUP flag");
    }
}
