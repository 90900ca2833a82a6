//! Deterministic, order-preserving parallel execution utilities.
//!
//! The ESTEEM reproduction runs hundreds of independent simulations per
//! figure (workload x technique x configuration). Each simulation is
//! single-threaded and deterministic; all parallelism in this repository
//! lives *above* the simulator, in this crate.
//!
//! The design intentionally avoids a global thread pool: every call to
//! [`parallel_map_with`] spins up scoped workers (via [`std::thread::scope`]) that
//! pull indices from a shared atomic cursor (dynamic self-scheduling, which
//! balances the very uneven run times of different benchmark simulations)
//! and write results into pre-allocated slots, preserving input order.
//!
//! Guarantees:
//! * Output order == input order, independent of thread count.
//! * A job panic is propagated to the caller (no lost results, no hangs).
//! * `threads == 1` degenerates to a plain sequential loop (no spawn), which
//!   makes `parallel_map_with` safe to call from within already-parallel
//!   code.

mod pool;

pub use pool::{panic_message, parallel_map_with, try_parallel_map_with, JobPanic};

use std::num::NonZeroUsize;

/// Number of worker threads to use by default: the machine parallelism,
/// clamped to the number of jobs by [`parallel_map_with`] at call time.
///
/// Honors the `ESTEEM_THREADS` environment variable when set (useful to make
/// CI runs or determinism tests single-threaded without code changes).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("ESTEEM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Mutex;

    /// `ESTEEM_THREADS` is process-global state: every test that touches
    /// it must hold this lock, or a concurrently running test could read
    /// a half-configured value.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Sets (or clears) `ESTEEM_THREADS` for the duration of a closure,
    /// restoring whatever was there before — even if the closure panics.
    fn with_threads_env<R>(value: Option<&str>, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prior = std::env::var("ESTEEM_THREADS").ok();
        struct Restore(Option<String>);
        impl Drop for Restore {
            fn drop(&mut self) {
                match &self.0 {
                    Some(v) => std::env::set_var("ESTEEM_THREADS", v),
                    None => std::env::remove_var("ESTEEM_THREADS"),
                }
            }
        }
        let _restore = Restore(prior);
        match value {
            Some(v) => std::env::set_var("ESTEEM_THREADS", v),
            None => std::env::remove_var("ESTEEM_THREADS"),
        }
        body()
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn env_override_respected() {
        with_threads_env(Some("3"), || {
            assert_eq!(default_threads(), 3);
        });
        with_threads_env(Some("0"), || {
            // Invalid values fall back to machine parallelism.
            assert!(default_threads() >= 1);
        });
    }
}
