//! The workspace's one lock policy: a poisoned lock propagates the
//! panic.
//!
//! A `std` lock is poisoned when a thread panics while holding it, and
//! nothing guarantees the state behind it is whole: a `Store::update`
//! closure that panics halfway leaves an object changed but still filed
//! under its old index key, its resource version unbumped and no watch
//! event sent. So no lock here recovers its guard; every caller takes
//! the lock through one of these helpers, and a later caller panics
//! too. `#[track_caller]` makes that panic report the caller's line, so
//! no call site carries its own message.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The panic message of a poisoned lock (also the clock's condvar wait).
pub(crate) const POISONED: &str = "lock poisoned by an earlier panic";

/// Locks `mutex`, panicking if an earlier holder panicked.
#[inline]
#[track_caller]
pub fn locked<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(POISONED)
}

/// Takes shared read access to `lock`, panicking if it is poisoned.
#[inline]
#[track_caller]
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().expect(POISONED)
}

/// Takes exclusive write access to `lock`, panicking if it is poisoned.
#[inline]
#[track_caller]
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().expect(POISONED)
}
