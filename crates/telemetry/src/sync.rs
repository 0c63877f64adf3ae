//! Poison-recovering lock helpers shared across the serving stack.
//!
//! The pool worker's `catch_unwind` fault containment proved that
//! worker threads *can* panic (a buggy engine, a fault-injection
//! test); a panic while holding a [`Mutex`] poisons it, and the
//! default `.lock().unwrap()` idiom then cascades that one fault into
//! a panic in every other thread that touches the same state — a
//! single bad request tearing down metrics scrapes, fleet lookups, and
//! unrelated connections.
//!
//! [`lock_or_recover`] is the workspace-wide replacement: it takes the
//! guard, and on poison it *recovers* the inner data instead of
//! propagating. That is sound for every structure this workspace
//! guards — registries, caches, and maps whose invariants hold at
//! every panic site (`std` collections never leave themselves torn) —
//! and it is exactly what `Mutex::clear_poison` was stabilized for.
//! `clippy::unwrap_used`, denied at the serving crates' roots, bans the
//! panicking idiom on the request path; this is where it points.

use std::sync::{Mutex, MutexGuard};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// ```
/// use smm_telemetry::lock_or_recover;
/// use std::sync::Mutex;
///
/// let shared = Mutex::new(vec![1, 2, 3]);
/// lock_or_recover(&shared).push(4);
/// assert_eq!(lock_or_recover(&shared).len(), 4);
/// ```
pub fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn recovers_data_after_a_panic_poisons_the_lock() {
        let shared = Mutex::new(7u32);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.lock().unwrap();
            panic!("worker fault while holding the lock");
        }));
        assert!(result.is_err());
        assert!(shared.is_poisoned(), "the panic must have poisoned it");
        // The default idiom would now panic; recovery reads the value.
        assert_eq!(*lock_or_recover(&shared), 7);
        *lock_or_recover(&shared) = 8;
        assert_eq!(*lock_or_recover(&shared), 8);
    }
}
