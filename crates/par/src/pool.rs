//! Order-preserving dynamic-scheduling parallel map.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One job's caught panic: the input index it was processing and the
/// panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    pub index: usize,
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Renders a `catch_unwind` payload as text (`panic!` with a string or
/// `String` payload; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Applies `f` to every element of `items` on up to `threads` workers
/// and returns the results **in input order**. `threads` is clamped to
/// the job count; `1` runs inline.
///
/// Jobs are self-scheduled: workers repeatedly claim the next unclaimed
/// index from an atomic cursor. This gives good load balance when job
/// durations vary wildly (a `mcf` simulation is far slower than `gamess`).
///
/// # Panics
/// Propagates the panic of any job to the caller — but only after every
/// other job has finished (a panicking simulation no longer aborts the
/// rest of the sweep mid-flight; use [`try_parallel_map_with`] to observe
/// per-item failures without panicking).
pub fn parallel_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let results = try_parallel_map_with(threads, items, f);
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("{p}"),
        })
        .collect()
}

/// Panic-isolating [`parallel_map_with`]: each job runs under
/// `catch_unwind`, so one panicking item yields an `Err` slot while
/// every other item still completes and returns. Output order equals
/// input order.
pub fn try_parallel_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    let run_one = |i: usize| -> Result<R, JobPanic> {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(|payload| JobPanic {
            index: i,
            message: panic_message(payload.as_ref()),
        })
    };

    if threads <= 1 || n <= 1 {
        return (0..n).map(run_one).collect();
    }

    // Pre-allocated result slots; each index is written exactly once, by
    // the worker that claimed it, before the scope joins. `Option` lets us
    // avoid `R: Default` and assert full coverage at the end.
    let mut slots: Vec<Option<Result<R, JobPanic>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let cursor = AtomicUsize::new(0);

    {
        // Hand each worker a disjoint view of the slot vector through a
        // raw pointer wrapper; disjointness is guaranteed by the unique
        // claim of each index from `cursor`.
        struct SlotsPtr<R>(*mut Option<R>);
        unsafe impl<R: Send> Sync for SlotsPtr<R> {}
        let slots_ptr = SlotsPtr(slots.as_mut_ptr());

        // std::thread::scope joins every worker before returning; caught
        // job panics land in their slots instead of unwinding the worker.
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cursor = &cursor;
                let run_one = &run_one;
                let slots_ptr = &slots_ptr;
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = run_one(i);
                    // SAFETY: index `i` was claimed exactly once via the
                    // atomic fetch_add, so no other thread writes slot `i`;
                    // the scope guarantees `slots` outlives all workers.
                    unsafe {
                        *slots_ptr.0.add(i) = Some(r);
                    }
                });
            }
        });
    }

    slots
        .into_iter()
        .map(|s| s.expect("every slot written before scope join"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map_with(crate::default_threads(), &items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_independent_of_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let out = parallel_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        let out = parallel_map_with(crate::default_threads(), &items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let items = vec![41u32];
        let out = parallel_map_with(crate::default_threads(), &items, |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn uneven_job_durations_balance() {
        // Jobs with wildly different costs must still produce ordered output.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_with(crate::default_threads(), &items, |&x| {
            let spins = if x % 7 == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            // Return something order-dependent but cheap to verify.
            let _ = acc;
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic]
    fn job_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let _ = parallel_map_with(crate::default_threads(), &items, |&x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn try_map_isolates_panics_per_item() {
        // Regression: one panicking closure used to take down the whole
        // sweep; now it must flag only its own slot.
        let items: Vec<u32> = (0..64).collect();
        for threads in [1usize, 4] {
            let out = try_parallel_map_with(threads, &items, |&x| {
                if x % 13 == 7 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 13 == 7 {
                    let p = r.as_ref().expect_err("slot must flag the panic");
                    assert_eq!(p.index, i);
                    assert_eq!(p.message, format!("boom at {i}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn map_panic_still_completes_other_items() {
        // The panic propagates, but only after every job ran: the panic
        // message names the *first* failed index, proving the sweep was
        // not aborted mid-flight by an unwinding worker.
        let items: Vec<u32> = (0..32).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map_with(crate::default_threads(), &items, |&x| {
                if x == 3 {
                    panic!("item three");
                }
                x
            })
        })
        .expect_err("must propagate");
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("job 3"), "got: {msg}");
        assert!(msg.contains("item three"), "got: {msg}");
    }

    #[test]
    fn non_string_payload_is_rendered() {
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).expect_err("panics");
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn more_threads_than_items() {
        let items: Vec<u32> = (0..3).collect();
        let out = parallel_map_with(32, &items, |&x| x + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
