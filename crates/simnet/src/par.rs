//! Deterministic fork-join helpers for the study orchestrator.
//!
//! The whole workspace is seeded: every unit of work (a crawl period, a
//! blocklist feed, an Atlas probe) derives its randomness from its own
//! [`Seed`](crate::Seed) fork, so units are independent and can run on any
//! thread. The helpers here exploit that while keeping the core invariant —
//! results are always assembled in *input order*, so output is byte-identical
//! whether the work ran on one thread or sixteen.
//!
//! Thread count resolution order: explicit config value, then the
//! `AR_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].

use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "AR_THREADS";

/// The default worker-thread count: `AR_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism (at least 1).
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    host_threads()
}

/// The machine's real available parallelism (at least 1), ignoring
/// `AR_THREADS`. Benchmarks record this so a requested thread count can be
/// judged against what the host can actually run concurrently.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve an optional configured thread count against [`max_threads`].
pub fn resolve(configured: Option<usize>) -> usize {
    match configured {
        Some(n) if n > 0 => n,
        _ => max_threads(),
    }
}

/// Map `f` over `items` on up to `threads` scoped worker threads and return
/// the results **in input order**.
///
/// `items` may be any iterator of `Send` values, so a fan-out over
/// `v.iter_mut()` (each worker mutating its own elements in place) goes
/// through the same pool as a read-only one over `&v`.
///
/// Work is handed out one item at a time from a shared queue, so threads
/// that finish a cheap item immediately pick up the next one (no static
/// chunking imbalance). Each result is tagged with its input index and the
/// collected vector is re-sorted by that index before returning; combined
/// with per-item seeding this makes the output independent of the
/// schedule.
///
/// With `threads <= 1` or fewer than two items the map runs inline on the
/// caller's thread — the serial and parallel paths share `f` itself, so
/// equivalence is by construction. A panic in `f` is re-raised on the
/// caller with its original payload.
pub fn par_map<I, R, F>(threads: usize, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let len = items.len();
    if threads <= 1 || len < 2 {
        return items.into_iter().map(f).collect();
    }
    let workers = threads.min(len);
    // `next()` on a vector iterator cannot panic, so a poisoned lock
    // still guards a consistent queue.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(len);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((idx, item)) = next else {
                        break;
                    };
                    local.push((idx, f(item)));
                }
                local
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(local) => tagged.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_unstable_by_key(|&(idx, _)| idx);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, &items, |&x| x * x);
        let parallel = par_map(8, &items, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[200], 200 * 200);
    }

    #[test]
    fn unbalanced_work_still_ordered() {
        // Early items are much slower than late ones; the atomic cursor lets
        // idle workers steal ahead, but output order must not change.
        let items: Vec<u32> = (0..64).collect();
        let out = par_map(4, &items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        let expected: Vec<u32> = (1..=64).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |&x| x * 2), vec![14]);
    }

    #[test]
    fn mutates_through_iter_mut_in_input_order() {
        for threads in [1, 4] {
            let mut items: Vec<u64> = (0..33).collect();
            let old = par_map(threads, items.iter_mut(), |x| {
                let before = *x;
                *x = before * 10 + 1;
                before
            });
            assert_eq!(old, (0..33).collect::<Vec<u64>>(), "{threads} threads");
            let expected: Vec<u64> = (0..33).map(|x| x * 10 + 1).collect();
            assert_eq!(items, expected, "{threads} threads");
        }
    }

    #[test]
    fn a_worker_panic_re_raises_on_the_caller() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(4, &items, |&x| {
                if x == 11 {
                    panic!("item {x} failed");
                }
                x
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("panic! with format arguments carries a String");
        assert_eq!(message, "item 11 failed");
    }

    #[test]
    fn resolve_prefers_explicit_config() {
        assert_eq!(resolve(Some(3)), 3);
        assert!(resolve(None) >= 1);
        assert!(resolve(Some(0)) >= 1);
    }
}
