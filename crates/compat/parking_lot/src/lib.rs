//! Offline stand-in for `parking_lot`: this is **not** parking_lot, it is
//! `std::sync` with poisoning ignored.
//!
//! Wraps the `std::sync` primitives behind the slice of the parking_lot API
//! surface the workspace uses: `Mutex::lock` / `RwLock::read` /
//! `RwLock::write` return guards directly (a panicking holder does not
//! poison the lock for everyone else, as in parking_lot), and
//! `Condvar::wait` takes `&mut MutexGuard` instead of consuming it.  The
//! locks themselves are std's, with std's fairness and performance.
//!
//! The `drv-engine` worker pool additionally relies on
//! `Condvar::wait_while` / `wait_for` (with [`WaitTimeoutResult`]) and the
//! named [`RwLockReadGuard`] / [`RwLockWriteGuard`] types, all mirrored here
//! with parking_lot's signatures.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::Duration;

/// A mutual-exclusion lock with the parking_lot API.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // Option so Condvar::wait can move the std guard out and back.
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, returning the guard (ignores poisoning).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner)),
        }
    }

    /// Mutable access without locking (the `&mut self` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

/// A reader-writer lock with the parking_lot API.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// RAII shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
}

/// RAII exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard (ignores poisoning).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            guard: self.inner.read().unwrap_or_else(sync::PoisonError::into_inner),
        }
    }

    /// Acquires an exclusive write guard (ignores poisoning).
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            guard: self.inner.write().unwrap_or_else(sync::PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (the `&mut self` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Whether a [`Condvar::wait_for`] returned because the timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` when the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable whose `wait` takes `&mut MutexGuard`.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard's mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.guard.take().expect("guard present before wait");
        let reacquired = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.guard = Some(reacquired);
    }

    /// Blocks until notified *and* `condition` returns `false` (spurious
    /// wake-ups are re-checked, matching parking_lot's `wait_while`).
    pub fn wait_while<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) {
        let std_guard = guard.guard.take().expect("guard present before wait");
        let reacquired = self
            .inner
            .wait_while(std_guard, |value| condition(value))
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.guard = Some(reacquired);
    }

    /// Blocks until `condition` returns `false` or `timeout` elapses,
    /// re-checking on every (possibly spurious) wake-up — parking_lot's
    /// `wait_while_for`.
    pub fn wait_while_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        mut condition: impl FnMut(&mut T) -> bool,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.guard.take().expect("guard present before wait");
        let (reacquired, result) = self
            .inner
            .wait_timeout_while(std_guard, timeout, |value| condition(value))
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.guard = Some(reacquired);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.guard.take().expect("guard present before wait");
        let (reacquired, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.guard = Some(reacquired);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_get_mut_and_into_inner() {
        let mut m = Mutex::new(5);
        *m.get_mut() = 6;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn rwlock_guard_types() {
        let mut l = RwLock::new(String::from("a"));
        {
            let r1: RwLockReadGuard<'_, String> = l.read();
            let r2 = l.read();
            assert_eq!(&*r1, "a");
            assert_eq!(&*r2, "a");
        }
        {
            let mut w: RwLockWriteGuard<'_, String> = l.write();
            w.push('b');
        }
        l.get_mut().push('c');
        assert_eq!(l.into_inner(), "abc");
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
            })
        };
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn condvar_wait_while_sees_final_state() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut count = lock.lock();
                cv.wait_while(&mut count, |c| *c < 3);
                *count
            })
        };
        let (lock, cv) = &*pair;
        for _ in 0..3 {
            *lock.lock() += 1;
            cv.notify_all();
        }
        assert_eq!(waiter.join().unwrap(), 3);
    }

    #[test]
    fn condvar_wait_while_for_times_out_and_returns_early() {
        let lock = Mutex::new(0u32);
        let cv = Condvar::new();
        let mut guard = lock.lock();
        // Condition never satisfied: times out.
        let result = cv.wait_while_for(&mut guard, |c| *c < 1, Duration::from_millis(10));
        assert!(result.timed_out());
        // Condition already satisfied: returns immediately, no timeout.
        *guard = 5;
        let result = cv.wait_while_for(&mut guard, |c| *c < 1, Duration::from_secs(5));
        assert!(!result.timed_out());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = lock.lock();
        let result = cv.wait_for(&mut guard, Duration::from_millis(10));
        assert!(result.timed_out());
        // The guard is usable (and re-waitable) after the timeout.
        let again = cv.wait_for(&mut guard, Duration::from_millis(1));
        assert!(again.timed_out());
    }
}
