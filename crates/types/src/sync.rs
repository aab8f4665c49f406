//! Std-only synchronization primitives with explicit poison recovery.
//!
//! The runtime crates must build without any external dependency, so this
//! module wraps `std::sync` rather than `parking_lot`. The one semantic
//! difference is lock poisoning: std locks poison when a holder panics.
//! Panicking while holding a lock is itself a discipline violation (the
//! workspace's clippy lints deny panics in runtime code), so a poisoned lock
//! indicates a bug that has already been reported elsewhere; these wrappers
//! recover the inner guard and continue rather than propagating a second,
//! less informative failure. That recovery is the single place in the
//! workspace where poisoning is handled, which keeps `unwrap()` off every
//! lock acquisition site.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock` never fails: a poisoned mutex is
/// explicitly recovered (see module docs).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value (poison recovered).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Poison is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A reader-writer lock whose acquisitions never fail: a poisoned lock is
/// explicitly recovered (see module docs).
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value (poison recovered).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access. Poison is recovered.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access. Poison is recovered.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Attempts shared read access without blocking; `None` when the lock
    /// is contended. Poison is recovered.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(inner) => Some(RwLockReadGuard { inner }),
            Err(sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts exclusive write access without blocking; `None` when the
    /// lock is contended. Poison is recovered.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(inner) => Some(RwLockWriteGuard { inner }),
            Err(sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Condition variable paired with [`Mutex`]. Timed waits consume and
/// return the guard (std's API shape), with poison recovered on wake-up.
///
/// It counts its waiters, so that a notification nobody is waiting for
/// is one atomic load and not std's unconditional futex syscall — which
/// is what a latch release, a commit's unlock and a closing write window
/// almost always are. The count is raised while the waiter still holds
/// the mutex, so a notifier that changed the waited-for state **under
/// that mutex** (every user's discipline, and the only one under which a
/// condition variable loses no wake-up anyway) either sees the waiter
/// counted, or the waiter saw the new state before it decided to wait.
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
    /// Threads inside `wait`/`wait_for`.
    waiters: AtomicUsize,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified. Spurious wake-ups are possible; callers
    /// re-check their predicate in a loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self
            .inner
            .wait(guard.inner)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        MutexGuard { inner }
    }

    /// Blocks until notified or `timeout` elapses, whichever is first.
    pub fn wait_for<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, _timed_out) = self
            .inner
            .wait_timeout(guard.inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        MutexGuard { inner }
    }

    /// Wakes one waiter, if there is one.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiters, if there are any.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.inner.notify_all();
        }
    }
}

#[cfg(test)]
// The condvar tests bound their waits by the wall clock.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7i32));
        let m2 = Arc::clone(&m);
        // Poison the underlying std mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // The wrapper recovers instead of propagating the poison.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 9;
        assert_eq!(*m.lock(), 9);
    }

    #[test]
    fn rwlock_read_write_roundtrip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let start = Instant::now();
        let g = m.lock();
        let _g = cv.wait_for(g, Duration::from_millis(10));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    /// A waiter parked in the untimed `wait` has nothing but the
    /// notification to wake it: the notifier must see it counted.
    #[test]
    fn condvar_notify_wakes_a_parked_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        let (m, cv) = &*pair;
        // Parked for certain: counted under the mutex, and the mutex is
        // free again only once `wait` has let go of it.
        while cv.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        *m.lock() = true;
        cv.notify_all();
        h.join().expect("waiter thread panicked");
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn condvar_ping_pong_loses_no_wakeup() {
        // Each side waits (untimed) for the turn the other side hands it.
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        const ROUNDS: u32 = 10_000;
        let play = |pair: Arc<(Mutex<u32>, Condvar)>, mine: u32| {
            let (m, cv) = &*pair;
            for _ in 0..ROUNDS {
                let mut turn = m.lock();
                while *turn % 2 != mine {
                    turn = cv.wait(turn);
                }
                *turn += 1;
                drop(turn);
                cv.notify_all();
            }
        };
        let other = Arc::clone(&pair);
        let h = std::thread::spawn(move || play(other, 1));
        play(Arc::clone(&pair), 0);
        h.join().expect("ping-pong thread panicked");
        assert_eq!(*pair.0.lock(), 2 * ROUNDS);
    }

    #[test]
    fn condvar_notify_without_waiter_is_not_remembered() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_all();
        cv.notify_one();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        // A later waiter whose predicate stays false waits its time out
        // (std allows a wake-up for no reason, so it waits in a loop) and
        // leaves the count as it found it.
        let deadline = Instant::now() + Duration::from_millis(20);
        let mut g = m.lock();
        while let Some(left) = deadline.checked_duration_since(Instant::now()) {
            g = cv.wait_for(g, left);
        }
        drop(g);
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().expect("waiter thread panicked");
    }
}
