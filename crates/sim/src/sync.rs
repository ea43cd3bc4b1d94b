//! Minimal host-side lock for model-layer state.
//!
//! Model layers built on the kernel keep their own bookkeeping (channel
//! buffers, RTOS task tables, measurement sinks) behind a plain
//! mutual-exclusion lock shared by every clone of a handle. This module
//! wraps [`std::sync::Mutex`] with a `parking_lot`-style API — `lock()`
//! returns the guard directly — so the workspace stays dependency-free and
//! builds in hermetic/offline environments. The kernel's own state does
//! not use it: the executor is single-threaded and keeps that state in a
//! `RefCell`.
//!
//! Poisoning is deliberately ignored: a simulated process may panic while
//! holding a guard (the panic unwinds out of the executor's poll), and the
//! teardown path and the caller must still be able to inspect state
//! afterwards. The kernel already reports process panics as structured
//! [`RunError`](crate::RunError)s, so propagating poison would only turn
//! one reported failure into a second, less useful one.

use std::sync::PoisonError;

/// A mutual-exclusion lock with a `parking_lot`-style infallible `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current (host) thread.
    ///
    /// Never fails: a poisoned lock (a panic unwound while it was held)
    /// is recovered, because the kernel reports simulated-process panics
    /// through [`RunError`](crate::RunError) instead.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Mutex::new(7);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock();
            panic!("poison it");
        }));
        assert_eq!(*m.lock(), 7);
    }
}
