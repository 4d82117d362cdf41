//! Ordered parallel execution of independent trials.
//!
//! The harness binaries run Monte-Carlo trials that are independent by
//! construction: each trial derives its own RNG stream via
//! `SimRng::child("…-{trial}")`, a pure function of `(seed, label)`, so a
//! trial's result does not depend on which thread ran it or when. Running
//! them across threads and collecting results **in index order** therefore
//! yields output byte-identical to the serial run — the determinism
//! contract documented in DESIGN.md. Anything drawn from a *shared*
//! sequential RNG stream (e.g. the failure draws in `fig1c_cct`) must be
//! pre-sampled serially before the fan-out.
//!
//! Built on `std::thread::scope` only — no external thread-pool crates.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(0..n)` on up to `jobs` worker threads and return the results in
/// index order.
///
/// With `jobs <= 1` (or `n <= 1`) this degenerates to a plain serial loop
/// on the calling thread — no threads are spawned, so `--jobs 1` is
/// exactly the historical serial code path; `jobs == 0` deliberately
/// clamps to that same serial path rather than panicking or deadlocking
/// with zero workers. Workers pull indices from a
/// shared atomic counter (work-stealing), which keeps cores busy when
/// trial durations are uneven.
///
/// # Panics
/// Propagates a panic from any worker (via the scope join), and panics if
/// a result slot was left unfilled — impossible unless `f` panicked.
pub fn parallel_map_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                // Poisoning implies a worker already panicked, and that
                // panic is what surfaces.
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed and filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_path_preserves_order() {
        let out = parallel_map_indexed(1, 5, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn parallel_results_arrive_in_index_order() {
        let out = parallel_map_indexed(4, 64, |i| i * i);
        let expected: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // The determinism contract in miniature: a pure per-index function
        // gives identical vectors regardless of the job count.
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let serial = parallel_map_indexed(1, 100, f);
        for jobs in [2, 3, 8] {
            assert_eq!(parallel_map_indexed(jobs, 100, f), serial);
        }
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = parallel_map_indexed(16, 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = parallel_map_indexed(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_clamps_to_serial() {
        // jobs == 0 must not hang with no workers; it clamps to the
        // serial path and completes.
        let out = parallel_map_indexed(0, 4, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn zero_jobs_zero_items_is_fine() {
        let out: Vec<usize> = parallel_map_indexed(0, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panic_propagates() {
        // A panicking closure must surface on the caller, not hang the
        // scope or silently drop the slot.
        let _ = parallel_map_indexed(2, 8, |i| {
            assert!(i != 3, "trial 3 exploded");
            i
        });
    }
}
