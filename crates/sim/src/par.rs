//! A small scoped worker pool over [`std::thread::scope`].
//!
//! The runtime layer parallelizes embarrassingly parallel host work —
//! solo-timing a batch of kernels, compiling autotune candidates, running
//! the ready wave of a functional graph — without taking on a thread-pool
//! dependency. [`parallel_map`] fans a work list out to scoped worker
//! threads with an atomic work-stealing cursor and returns the results
//! **in input order**, so callers stay deterministic regardless of which
//! worker finished first. A `parallelism` of 1 (or a single item) runs the
//! closure inline on the calling thread — byte-for-byte today's serial
//! behavior, with no threads spawned at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The number of worker threads the host offers (at least 1). Used as the
/// default parallelism of [`crate::Simulator`] and the runtime session.
///
/// The value is read once per process and memoized:
/// [`std::thread::available_parallelism`] re-reads the cgroup quota and
/// the affinity mask on every call, and every cold session asks. A
/// process that changes its own affinity after the first call keeps the
/// first answer.
#[must_use]
pub fn available() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Apply `f` to every item on up to `parallelism` scoped worker threads,
/// returning the results in input order.
///
/// Work is claimed item-by-item through an atomic cursor, so uneven item
/// costs balance across workers. With `parallelism <= 1` or fewer than two
/// items the map runs inline on the calling thread.
///
/// # Panics
///
/// A panic inside `f` is resumed on the calling thread once the scope
/// joins (the same observable behavior as the inline path).
pub fn parallel_map<T, R, F>(parallelism: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if parallelism <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = parallelism.min(n);
    // Each slot is claimed exactly once (the cursor hands every index to
    // one worker), so the mutexes are uncontended — they only make the
    // by-value move out of the shared list safe.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .take();
                        if let Some(item) = item {
                            local.push((i, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    for (i, r) in local {
                        results[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("the cursor hands every index to exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        for parallelism in [1, 2, 8] {
            let out = parallel_map(parallelism, (0..100).collect(), |x: usize| x * 3);
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_inputs_run_inline() {
        let empty: Vec<usize> = parallel_map(8, Vec::new(), |x: usize| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(8, vec![7], |x: usize| x + 1), vec![8]);
    }

    #[test]
    fn oversubscribed_parallelism_is_clamped_to_items() {
        let out = parallel_map(64, vec![1, 2, 3], |x: i32| -x);
        assert_eq!(out, vec![-1, -2, -3]);
    }

    #[test]
    fn errors_travel_as_values() {
        let out: Vec<Result<usize, String>> = parallel_map(4, (0..10).collect(), |x: usize| {
            if x.is_multiple_of(2) {
                Ok(x)
            } else {
                Err(format!("odd {x}"))
            }
        });
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 5);
        assert_eq!(out[4], Ok(4));
    }
}
