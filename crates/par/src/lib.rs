//! Deterministic, order-preserving parallel execution utilities, and the
//! process-wide CPU claims that decide where a helper thread may run.
//!
//! The ESTEEM reproduction runs hundreds of independent simulations per
//! figure (workload x technique x configuration). Each simulation is
//! deterministic, and most of the parallelism in this repository lives
//! *above* the simulator, in this crate. One simulation may use a second
//! thread for its front end (see `esteem_core::Simulator::run`), but only
//! on a CPU nobody else has claimed ([`claim_spare_cpu`]).
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
//! * Every worker holds a CPU claim ([`hold_cpu`]) for its lifetime, so a
//!   sweep as wide as the machine leaves no spare CPU to its simulations.

mod pool;

pub use pool::{panic_message, parallel_map_with, try_parallel_map_with, JobPanic};

use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// CPUs claimed process-wide: one per thread holding [`hold_cpu`], plus
/// one per granted [`claim_spare_cpu`]. A plain count that publishes no
/// other data, so every access is `Relaxed`.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the current thread already holds a [`hold_cpu`] claim.
    static HOLDS: Cell<bool> = const { Cell::new(false) };
}

/// A claim on one of the [`default_threads`] CPUs, released when dropped.
/// Claims decide only *whether* a helper thread starts, never what a
/// computation produces.
#[must_use = "the claim is released when it is dropped"]
#[derive(Debug)]
pub struct CpuClaim {
    counted: bool,
    /// Set for the claim that marked its thread in `HOLDS`.
    marks_thread: bool,
    /// Released on the thread that took it.
    _not_send: PhantomData<*const ()>,
}

impl Drop for CpuClaim {
    fn drop(&mut self) {
        if self.counted {
            CLAIMED.fetch_sub(1, Ordering::Relaxed);
        }
        if self.marks_thread {
            HOLDS.with(|h| h.set(false));
        }
    }
}

/// Claims a CPU for the calling thread until the claim drops. It always
/// succeeds, even past [`default_threads`]: the thread runs either way. A
/// thread that already holds a claim gets an empty one, so a simulation
/// run on a sweep or daemon worker counts once.
pub fn hold_cpu() -> CpuClaim {
    let marks_thread = !HOLDS.with(|h| h.replace(true));
    if marks_thread {
        CLAIMED.fetch_add(1, Ordering::Relaxed);
    }
    CpuClaim {
        counted: marks_thread,
        marks_thread,
        _not_send: PhantomData,
    }
}

/// Claims one more CPU for a helper thread, if the process's claims stay
/// within [`default_threads`]; `None` otherwise (with `ESTEEM_THREADS=1`,
/// always `None` once the caller holds its own CPU).
pub fn claim_spare_cpu() -> Option<CpuClaim> {
    let limit = default_threads();
    CLAIMED
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < limit).then_some(n + 1)
        })
        .ok()
        .map(|_| CpuClaim {
            counted: true,
            marks_thread: false,
            _not_send: PhantomData,
        })
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
    fn spare_cpu_only_when_claims_fit() {
        // Other tests may hold claims of their own meanwhile; that only
        // makes a spare rarer.
        with_threads_env(Some("1"), || {
            let own = hold_cpu();
            assert!(claim_spare_cpu().is_none(), "one CPU: no spare");
            let nested = hold_cpu();
            assert!(!nested.counted, "a thread counts once");
            drop(nested);
            drop(own);
        });
        // Far more CPUs than the 64 workers another test here may run.
        with_threads_env(Some("1024"), || {
            let _own = hold_cpu();
            let spare = claim_spare_cpu().expect("1024 CPUs leave a spare");
            assert!(spare.counted && !spare.marks_thread);
        });
    }

    #[test]
    fn workers_hold_their_cpus() {
        // As many workers as CPUs: while they run, no spare is left. The
        // barriers keep both workers alive until both have asked.
        let barrier = std::sync::Barrier::new(2);
        with_threads_env(Some("2"), || {
            let spares = parallel_map_with(2, &[0u8, 1], |_| {
                barrier.wait();
                let spare = claim_spare_cpu().is_some();
                barrier.wait();
                spare
            });
            assert_eq!(spares, vec![false, false]);
        });
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
