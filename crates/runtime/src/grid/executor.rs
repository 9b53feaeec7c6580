//! Work-stealing task pool: the one pool every sample runs on, whether
//! it belongs to a grid or to a single cell
//! ([`crate::ExperimentRunner::run_cell`]).
//!
//! The unit of work is a single *(cell, sample)* pair, so a grid
//! parallelizes across cells as well as across the samples inside one
//! cell: a 1-cell × 50-sample grid and a 50-cell × 1-sample grid both
//! keep every worker busy. Workers own a deque each, seeded round-robin
//! from the caller's distribution order; an idle worker steals from the
//! opposite end of a victim's deque. One worker is the calling thread:
//! a spawn and join would cost more than a small cell takes to run.
//!
//! Determinism is structural, not scheduling-dependent: results are
//! written into a slot per task *index*, and the caller derives every
//! seed from the task index alone — so worker count, stealing order, and
//! the distribution order all leave the output unchanged.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f(task_index)` for every index in `order` (a permutation of
/// `0..order.len()`) on `threads` workers; returns results indexed by
/// task index (NOT by `order` position or completion time).
pub(crate) fn run_work_stealing<R, F>(threads: usize, order: &[usize], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let total = order.len();
    let workers = threads.clamp(1, total.max(1));
    let mut results: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
    if workers == 1 {
        // The calling thread, in the order a lone worker pops its deque.
        let slots = results.get_mut().expect("no panics hold the results");
        for &t in order.iter().rev() {
            slots[t] = Some(f(t));
        }
    } else {
        // Per-worker deques, seeded round-robin in distribution order.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                Mutex::new(
                    order
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .copied()
                        .collect::<VecDeque<usize>>(),
                )
            })
            .collect();
        let claimed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let deques = &deques;
                let claimed = &claimed;
                let results = &results;
                let f = &f;
                scope.spawn(move || loop {
                    // Own work first (LIFO end), then steal (FIFO end) from
                    // the next victims in ring order. `claimed` is bumped
                    // under the victim's deque lock, so "all deques empty"
                    // implies "claimed == total" with no window in between —
                    // an idle worker exits as soon as the last task is
                    // claimed (it never spins while that task executes).
                    let claim = |q: &Mutex<VecDeque<usize>>, back: bool| {
                        let mut q = q.lock().expect("no panics hold the deque");
                        let t = if back { q.pop_back() } else { q.pop_front() };
                        if t.is_some() {
                            claimed.fetch_add(1, Ordering::Relaxed);
                        }
                        t
                    };
                    let task = claim(&deques[w], true).or_else(|| {
                        (1..workers).find_map(|i| claim(&deques[(w + i) % workers], false))
                    });
                    match task {
                        Some(t) => {
                            let r = f(t);
                            results.lock().expect("no panics hold the results")[t] = Some(r);
                        }
                        None => {
                            // Every task is either in a deque or already
                            // claimed, so empty deques + all claimed = done.
                            if claimed.load(Ordering::Relaxed) >= total {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
    }
    results
        .into_inner()
        .expect("no panics hold the results")
        .into_iter()
        .map(|slot| slot.expect("every task ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_indexed_by_task_not_by_completion() {
        let order: Vec<usize> = (0..64).rev().collect();
        let out = run_work_stealing(4, &order, |t| t * 10);
        assert_eq!(out.len(), 64);
        for (t, v) in out.iter().enumerate() {
            assert_eq!(*v, t * 10);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let order: Vec<usize> = (0..37).collect();
        let a = run_work_stealing(1, &order, |t| t * t);
        let b = run_work_stealing(8, &order, |t| t * t);
        assert_eq!(a, b);
    }

    #[test]
    fn one_worker_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_| std::thread::current().id() == caller;
        let order: Vec<usize> = (0..5).collect();
        assert!(run_work_stealing(1, &order, on_caller)
            .into_iter()
            .all(|c| c));
        // One task needs one worker, however many are offered.
        assert_eq!(run_work_stealing(8, &[0], on_caller), [true]);
        // More than one worker spawns them all.
        assert!(!run_work_stealing(2, &order, on_caller)
            .into_iter()
            .any(|c| c));
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let order = vec![0usize, 1];
        let out = run_work_stealing(16, &order, |t| t + 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let out: Vec<usize> = run_work_stealing(4, &[], |t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once_under_contention() {
        let counter = AtomicUsize::new(0);
        let order: Vec<usize> = (0..500).collect();
        let out = run_work_stealing(8, &order, |t| {
            counter.fetch_add(1, Ordering::Relaxed);
            t
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }
}
