//! Poison-recovering synchronization wrappers.
//!
//! Every shared structure in this crate (job table, queue, fleet
//! lease table) is guarded by a `Mutex`. The std mutex
//! poisons itself when a holder panics, and `lock().unwrap()` then
//! propagates that panic to every *other* thread that touches the lock —
//! one crashed connection handler used to take the whole daemon down
//! with it.
//!
//! Poisoning is only a heuristic ("a panic happened while held"), not a
//! guarantee of corruption. All our critical sections keep their
//! invariants by construction — they either mutate a single field or
//! finish a multi-field update before any call that can panic — so the
//! correct recovery is to take the data and keep serving. These helpers
//! centralize that decision; code in this crate calls [`lock`] / [`wait`]
//! / [`wait_timeout`] instead of unwrapping `LockResult`s at 40+ sites.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Lock `m`, recovering the guard if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Block on `cv`, recovering the re-acquired guard on poison.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Block on `cv` for at most `dur`, recovering the guard on poison.
/// Returns the guard and whether the wait timed out.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cv.wait_timeout(guard, dur) {
        Ok((g, timeout)) => (g, timeout.timed_out()),
        Err(poisoned) => {
            let (g, timeout) = poisoned.into_inner();
            (g, timeout.timed_out())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn lock_survives_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "mutex really is poisoned");
        assert_eq!(*lock(&m), 7, "data survives and stays reachable");
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn wait_timeout_reports_timeouts() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let (_g, timed_out) = wait_timeout(&cv, lock(&m), Duration::from_millis(1));
        assert!(timed_out);
    }
}
