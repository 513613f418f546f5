//! Scoped-thread fan-out with deterministic result ordering.
//!
//! The experiment drivers, profile generators, trace synthesizers and
//! the intra-head crossbar and kernel stages of the SPRINT
//! reproduction are embarrassingly parallel: every item is independent
//! and the result order must match the input order so that reports,
//! seeds and tests stay reproducible. This crate has one executor,
//! [`fan_out`], the only code here that starts or joins threads (scoped
//! threads from the standard library, with no external dependencies:
//! the build environment is offline). The two maps are folds over it:
//!
//! - [`par_try_map_threads`] (and its [`par_map`] / [`par_try_map`]
//!   wrappers) hands items out from a shared cursor and puts each
//!   `(i, f(&items[i]))` back in slot `i` after the join, so the output
//!   is bit-identical across thread counts;
//! - [`par_chunk_try_map_threads`] gives each part one fixed
//!   [`chunk_ranges`] chunk and its own [`WorkerStats`], so a caller
//!   can pin per-worker state to a part.
//!
//! # Example
//!
//! ```
//! let squares = sprint_parallel::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Environment variable overriding the worker count (`0`/unset means
/// "use every available core").
pub const THREADS_ENV: &str = "SPRINT_THREADS";

/// The default worker count: `SPRINT_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
///
/// The parallelism is read once per process: on Linux each read walks
/// the affinity mask and the cgroup quota files (~15 µs), and every
/// `Engine::run_head` asks for its width.
pub fn max_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            *AVAILABLE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
        })
}

/// Per-worker execution counters from a chunked fan-out
/// ([`par_chunk_try_map_threads`]).
///
/// `busy_ns` is a part's **thread CPU time** where the platform
/// exposes it (Linux), so it counts only cycles the part actually
/// executed — on an oversubscribed or single-core host it stays an
/// honest measure of how the work was distributed, unlike wall-clock,
/// which also charges a part for time its thread spent descheduled.
/// `wall_ns` is the part's wall-clock span for comparison. A map of
/// one chunk runs it inline on the caller's thread and reports
/// `busy_ns == wall_ns`: with nothing to balance, it reads no CPU
/// clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's index (`0..workers`).
    pub worker: usize,
    /// Items this worker executed.
    pub items: usize,
    /// Thread CPU nanoseconds spent in the worker's chunk (wall-clock
    /// fallback on platforms without per-thread CPU clocks).
    pub busy_ns: u128,
    /// Wall-clock nanoseconds from the worker's first item to its last.
    pub wall_ns: u128,
}

/// The calling thread's CPU time in nanoseconds, or `None` where the
/// platform exposes no per-thread CPU clock.
///
/// Unlike wall-clock, two samples of this clock bracket only the
/// cycles *this thread* executed — the honest busy-time measure on
/// hosts where workers time-share cores. On Linux it is
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which includes the time of
/// the running slice. (The first field of `/proc/thread-self/schedstat`
/// is not this clock: the kernel folds a running thread's time into it
/// only at a tick or a switch, so a millisecond of spinning can read
/// zero there.)
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn thread_cpu_ns() -> Option<u128> {
    use std::os::raw::{c_int, c_long};
    /// `struct timespec` of the Linux C ABI (`time_t` is a `long`).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it on
    // Linux); it writes only the `timespec` it is given, which is a
    // live, exclusively borrowed value of the C layout.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    if status != 0 {
        return None;
    }
    let secs = u128::try_from(now.tv_sec).ok()?;
    let nanos = u128::try_from(now.tv_nsec).ok()?;
    Some(secs * 1_000_000_000 + nanos)
}

/// The calling thread's CPU time in nanoseconds, or `None` where the
/// platform exposes no per-thread CPU clock (this platform does not).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> Option<u128> {
    None
}

/// Splits `0..n` into at most `workers` contiguous, balanced,
/// deterministic ranges (sizes differ by at most one; earlier ranges
/// take the remainder). Returns an empty vector for `n == 0` and
/// never returns an empty range, so every returned chunk holds work.
///
/// This is the work-distribution rule of the chunked fan-out: the
/// mapping from item index to worker is a pure function of
/// `(n, workers)`, so which worker runs an item never depends on
/// scheduling — the precondition for pinning per-worker state without
/// cross-worker locks.
///
/// # Example
///
/// ```
/// let chunks = sprint_parallel::chunk_ranges(10, 4);
/// assert_eq!(chunks, vec![0..3, 3..6, 6..8, 8..10]);
/// assert!(sprint_parallel::chunk_ranges(0, 4).is_empty());
/// assert_eq!(sprint_parallel::chunk_ranges(2, 4).len(), 2);
/// ```
pub fn chunk_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let w = workers.max(1).min(n);
    if w == 0 {
        return Vec::new();
    }
    let base = n / w;
    let extra = n % w;
    let mut ranges = Vec::with_capacity(w);
    let mut start = 0;
    for i in 0..w {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Chunked fallible map with per-worker busy accounting, as a fold
/// over [`fan_out`]: one part per [`chunk_ranges`] chunk, and part `w`
/// runs item `i` of its chunk as `f(w, i, &items[i])`, in index order
/// on one thread.
///
/// The worker index passed to `f` is stable for the whole chunk, so
/// `f` can own per-worker state (a scratch arena, a pinned substrate
/// shard) for its entire run with no cross-worker locking and no
/// slot-stealing. Results come back in input order; the reported
/// error is the lowest-indexed failure (a failing part stops at its
/// first error, and chunks are index-ordered, so the first failing
/// chunk in order holds the globally lowest failing index).
///
/// Returns the results alongside one [`WorkerStats`] per chunk (a
/// single chunk runs inline and reports itself busy for its wall
/// time).
///
/// # Errors
///
/// The error of the lowest-indexed failing item.
///
/// # Panics
///
/// Panics if `threads` is zero; a panic in `f` reaches the caller with
/// its own payload.
#[allow(clippy::type_complexity)]
pub fn par_chunk_try_map_threads<T, U, E, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> Result<(Vec<U>, Vec<WorkerStats>), E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, usize, &T) -> Result<U, E> + Sync,
{
    assert!(threads > 0, "at least one worker is required");
    let ranges = chunk_ranges(items.len(), threads);
    let timed = ranges.len() > 1;
    let cpu_clock = || timed.then(thread_cpu_ns).flatten();
    let mut parts: Vec<(Vec<U>, WorkerStats)> = ranges
        .iter()
        .map(|range| (Vec::with_capacity(range.len()), WorkerStats::default()))
        .collect();
    fan_out(&mut parts, |worker, (out, stats)| {
        let wall = Instant::now();
        let cpu_start = cpu_clock();
        for i in ranges[worker].clone() {
            out.push(f(worker, i, &items[i])?);
        }
        let wall_ns = wall.elapsed().as_nanos();
        let busy_ns = match (cpu_start, cpu_clock()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => wall_ns,
        };
        *stats = WorkerStats {
            worker,
            items: out.len(),
            busy_ns,
            wall_ns,
        };
        Ok(())
    })?;
    let (chunks, stats): (Vec<Vec<U>>, Vec<WorkerStats>) = parts.into_iter().unzip();
    Ok((chunks.into_iter().flatten().collect(), stats))
}

/// Splits `0..n` into at most `parts` contiguous, non-empty ranges of
/// near-equal total `weight`: boundary `k` sits where the running
/// weight comes closest to `k/parts` of the total. Like
/// [`chunk_ranges`], the split is a pure function of its inputs.
///
/// The intra-head fan-out splits by work, not by item count: a head's
/// column tiles weigh their column counts (128, 128, 20 split as
/// 128 | 148, not 256 | 20), and its query rows weigh their kept keys
/// (padded rows weigh next to nothing).
///
/// # Example
///
/// ```
/// let tiles = [128, 128, 20];
/// let ranges = sprint_parallel::weighted_ranges(3, 2, |t| tiles[t]);
/// assert_eq!(ranges, vec![0..1, 1..3]);
/// ```
pub fn weighted_ranges(
    n: usize,
    parts: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n);
    let total: usize = (0..n).map(&weight).sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut start, mut end, mut below) = (0, 0, 0usize);
    for k in 1..parts {
        let target = total * k / parts;
        // Every range takes at least one item and leaves one for each
        // range after it.
        below += weight(end);
        end += 1;
        while end < n - (parts - k) {
            let next = below + weight(end);
            if next.abs_diff(target) >= below.abs_diff(target) {
                break;
            }
            below = next;
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    if parts > 0 {
        ranges.push(start..n);
    }
    ranges
}

/// Cuts `items` into the consecutive pieces `ranges` covers, each
/// `unit` items per range index: `ranges` must tile `0..n` from 0 in
/// order, as [`chunk_ranges`] and [`weighted_ranges`] return them, and
/// `items` hold at least `n · unit` items (a matrix of `unit`-wide rows
/// splits into row blocks this way).
///
/// # Panics
///
/// Panics if `items` is shorter than the ranges cover.
pub fn split_ranges_mut<'a, T>(
    mut items: &'a mut [T],
    ranges: &[Range<usize>],
    unit: usize,
) -> Vec<&'a mut [T]> {
    ranges
        .iter()
        .map(|range| {
            let (piece, rest) = std::mem::take(&mut items).split_at_mut(range.len() * unit);
            items = rest;
            piece
        })
        .collect()
}

thread_local! {
    /// A pending [`inject_worker_panic`]: `(fan-outs to let pass, worker)`.
    static INJECTED_PANIC: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Fault injection for robustness tests: makes part `worker` of a
/// later [`fan_out`] called from this thread panic once it has run.
/// The first `skip` fan-outs wide enough to have that part (the maps'
/// included) run normally; the one after them panics and clears the
/// injection. Other threads' fan-outs are never affected.
#[doc(hidden)]
pub fn inject_worker_panic(skip: usize, worker: usize) {
    INJECTED_PANIC.with(|slot| slot.set(Some((skip, worker))));
}

/// The worker a fan-out of `parts` parts must panic in, if any.
fn take_injected_panic(parts: usize) -> Option<usize> {
    INJECTED_PANIC.with(|slot| match slot.get() {
        Some((0, worker)) if worker < parts => {
            slot.set(None);
            Some(worker)
        }
        Some((skip, worker)) if worker < parts => {
            slot.set(Some((skip - 1, worker)));
            None
        }
        _ => None,
    })
}

/// Runs `f(w, &mut parts[w])` once for every part, on the calling
/// thread and `parts.len() - 1` scoped helpers at once. Parts are
/// claimed in index order from a shared cursor, so the caller also
/// runs parts: a helper that starts late (its core busy elsewhere)
/// costs its spawn, never a wait. A single part runs inline and spawns
/// nothing, so the width-1 case of a fan-out is the plain sequential
/// call.
///
/// This is the crate's one executor (the maps are folds over it) and
/// the intra-head fan-out: the caller hands each part
/// exclusive state (a group of crossbar tiles, a range of query rows,
/// that part's scratch), so parts share nothing mutable and every
/// part's result is independent of the width and of which thread ran
/// it. Results a part produces stay in the part for the caller to
/// fold after the join.
///
/// # Errors
///
/// The error of the lowest-indexed failing part; every part still runs
/// before the call returns.
///
/// # Panics
///
/// A panic in any part reaches the caller, with its own payload, after
/// every thread has stopped.
pub fn fan_out<P, E, F>(parts: &mut [P], f: F) -> Result<(), E>
where
    P: Send,
    E: Send,
    F: Fn(usize, &mut P) -> Result<(), E> + Sync,
{
    let injected = take_injected_panic(parts.len());
    let run = |w: usize, part: &mut P| {
        let out = f(w, part);
        if injected == Some(w) {
            panic!("injected panic in fan-out part {w}");
        }
        out
    };
    let n = parts.len();
    if n <= 1 {
        return parts.first_mut().map_or(Ok(()), |part| run(0, part));
    }
    // The cursor only hands out indices; a part itself passes between
    // threads through its slot's mutex, which one claimer ever locks.
    let slots: Vec<Mutex<Option<&mut P>>> = parts.iter_mut().map(|p| Mutex::new(Some(p))).collect();
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut errors = Vec::new();
        loop {
            let w = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(w) else {
                return errors;
            };
            let part = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("each part is claimed once");
            if let Err(e) = run(w, part) {
                errors.push((w, e));
            }
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..n).map(|_| scope.spawn(claim)).collect();
        let mut errors = claim();
        for helper in helpers {
            errors.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        errors
            .into_iter()
            .min_by_key(|(w, _)| *w)
            .map_or(Ok(()), |(_, e)| Err(e))
    })
}

/// Maps `f` over `items` on up to [`max_threads`] workers, returning
/// results in input order (slot `i` holds `f(&items[i])`): the
/// infallible [`par_try_map_threads`].
///
/// # Panics
///
/// A panic in `f` reaches the caller with its own payload.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_try_map_threads(max_threads(), items, |x| Ok::<_, Infallible>(f(x)))
        .unwrap_or_else(|never| match never {})
}

/// [`par_try_map_threads`] on up to [`max_threads`] workers.
///
/// # Errors
///
/// The first (by input index) error produced by `f`.
pub fn par_try_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    par_try_map_threads(max_threads(), items, f)
}

/// Fallible map as a fold over [`fan_out`]: `min(threads, n)` parts
/// claim items from a shared cursor, each keeping the `(i, f(&items[i]))`
/// pairs it claimed, and after the join the pairs go back into input
/// order. Slot `i` therefore always holds `f(&items[i])` regardless of
/// which part ran it or in which order, so the output is bit-identical
/// across thread counts. Every item runs, then the call returns either
/// all results or the error of the *lowest-indexed* failing item.
///
/// Cap `threads` for the *outer* level of a nested fan-out: it bounds
/// the total thread product when the mapped tasks fan out internally.
///
/// # Errors
///
/// The first (by input index) error produced by `f`.
///
/// # Panics
///
/// Panics if `threads` is zero; a panic in `f` reaches the caller with
/// its own payload.
pub fn par_try_map_threads<T, U, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    assert!(threads > 0, "at least one worker is required");
    let mut parts: Vec<Vec<(usize, Result<U, E>)>> =
        (0..threads.min(items.len())).map(|_| Vec::new()).collect();
    let cursor = AtomicUsize::new(0);
    fan_out(&mut parts, |_, claimed| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else {
            return Ok::<_, Infallible>(());
        };
        claimed.push((i, f(item)));
    })
    .unwrap_or_else(|never| match never {});
    let mut pairs: Vec<_> = parts.into_iter().flatten().collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(none.is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = par_try_map_threads(8, &items, |&i| {
            counter.fetch_add(1, Ordering::Relaxed);
            if i == 7 {
                Err(i)
            } else {
                Ok(i)
            }
        });
        assert_eq!(out, Err(7));
        assert_eq!(
            counter.load(Ordering::Relaxed),
            100,
            "items after a failure still run"
        );
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        let err = par_try_map(&items, |&i| if i % 10 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(err, Err(3), "error of the lowest failing index wins");
        let ok = par_try_map(&items, |&i| Ok::<_, ()>(i * 2));
        assert_eq!(ok.unwrap()[5], 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = par_try_map_threads(0, &[1], |&x: &i32| Ok::<_, ()>(x));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        let _ = par_try_map_threads(4, &items, |&i| {
            if i == 5 {
                panic!("boom");
            }
            Ok::<_, ()>(i)
        });
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_with_its_payload_in_both_maps() {
        let items: Vec<usize> = (0..8).collect();
        let boom = |i: usize| -> Result<usize, ()> {
            if i == 5 {
                panic!("item five");
            }
            Ok(i)
        };
        let caught = [
            std::panic::catch_unwind(|| par_try_map_threads(4, &items, |&i| boom(i))),
            std::panic::catch_unwind(|| {
                par_chunk_try_map_threads(4, &items, |_, _, &i| boom(i)).map(|(out, _)| out)
            }),
        ];
        for payload in caught.map(Result::unwrap_err) {
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item five"));
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn chunk_ranges_cover_everything_once_and_balance() {
        for n in 0..50usize {
            for workers in 1..9usize {
                let ranges = chunk_ranges(n, workers);
                assert!(ranges.len() <= workers);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "chunks must be contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    next = r.end;
                }
                assert_eq!(next, n, "chunks must cover 0..n");
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(Range::len).min(),
                    ranges.iter().map(Range::len).max(),
                ) {
                    assert!(max - min <= 1, "chunk sizes differ by at most one");
                }
            }
        }
    }

    #[test]
    fn chunked_map_matches_sequential_and_reports_stats() {
        let items: Vec<u64> = (0..101).collect();
        let sequential: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in 1..6usize {
            let (out, stats) =
                par_chunk_try_map_threads(threads, &items, |_, _, &x| Ok::<_, ()>(x * x + 1))
                    .unwrap();
            assert_eq!(out, sequential, "results identical at {threads} workers");
            assert_eq!(stats.len(), threads.min(items.len()));
            assert_eq!(
                stats.iter().map(|s| s.items).sum::<usize>(),
                items.len(),
                "every item accounted to exactly one worker"
            );
            for (w, s) in stats.iter().enumerate() {
                assert_eq!(s.worker, w);
                assert!(s.items > 0, "worker {w} must have run a non-empty chunk");
            }
        }
    }

    #[test]
    fn chunked_map_passes_stable_worker_index() {
        let items: Vec<usize> = (0..40).collect();
        let (assignments, _) = par_chunk_try_map_threads(4, &items, |worker, i, &x| {
            assert_eq!(i, x, "item index must match input position");
            Ok::<_, ()>(worker)
        })
        .unwrap();
        let expected: Vec<usize> = chunk_ranges(items.len(), 4)
            .into_iter()
            .enumerate()
            .flat_map(|(w, r)| r.map(move |_| w))
            .collect();
        assert_eq!(
            assignments, expected,
            "item-to-worker assignment is the pure chunk_ranges function"
        );
    }

    #[test]
    fn chunked_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..64).collect();
        for threads in 1..6usize {
            let err = par_chunk_try_map_threads(threads, &items, |_, _, &i| {
                if i % 10 == 3 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(err.err(), Some(3), "lowest failing index wins at {threads}");
        }
    }

    #[test]
    fn an_inline_chunk_reports_its_wall_time_as_busy() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let (_, stats) =
                par_chunk_try_map_threads(threads, &items[..1], |_, _, &x| Ok::<_, ()>(x + 1))
                    .unwrap();
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0].busy_ns, stats[0].wall_ns, "{threads} threads");
        }
    }

    #[test]
    fn chunked_map_handles_empty_input() {
        let (out, stats) =
            par_chunk_try_map_threads(4, &[] as &[u32], |_, _, &x| Ok::<_, ()>(x)).unwrap();
        assert!(out.is_empty());
        assert!(stats.is_empty());
    }

    #[test]
    fn thread_cpu_clock_advances_under_load() {
        let Some(before) = thread_cpu_ns() else {
            return; // platform without a per-thread CPU clock
        };
        // Spin enough to consume measurable CPU time on this thread.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i ^ (acc >> 3));
        }
        std::hint::black_box(acc);
        let after = thread_cpu_ns().expect("clock available above");
        assert!(after >= before, "per-thread CPU clock must be monotonic");
    }

    /// A fixed amount of CPU work, about a millisecond optimized.
    fn spin() -> u64 {
        let mut acc = 0u64;
        for i in 0..1_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_add(i ^ (acc >> 3)));
        }
        acc
    }

    #[test]
    fn every_part_of_an_oversubscribed_map_reports_its_whole_spin_as_busy() {
        // Four parts on a host of two cores or fewer time-share them,
        // and each part must still be charged the CPU time its spin
        // took, not the share the kernel had folded in at its last
        // tick (a lagging clock read 0 for whole millisecond spins).
        // The same work costs more CPU time while a sibling hardware
        // thread or another guest is busy, so the spin alone is the
        // fastest of ten taken around the map, and a map may still
        // catch every alone spin in a slow spell: an honest clock
        // passes one of five attempts, a lagging one none.
        if thread_cpu_ns().is_none() {
            return; // platform without a per-thread CPU clock
        }
        let alone = || {
            let started = thread_cpu_ns().unwrap();
            std::hint::black_box(spin());
            thread_cpu_ns().unwrap() - started
        };
        let attempt = || {
            let before = (0..5).map(|_| alone()).min().unwrap();
            let (_, stats) =
                par_chunk_try_map_threads(4, &[(); 4], |_, _, _| Ok::<_, ()>(spin())).unwrap();
            let fastest = (0..5).map(|_| alone()).fold(before, u128::min);
            assert!(fastest > 0, "a spin alone reads no CPU time");
            assert_eq!(stats.len(), 4);
            match stats.iter().find(|part| part.busy_ns * 10 < fastest * 8) {
                Some(part) => Err(format!(
                    "part {} busy {} ns, the same spin alone {fastest} ns",
                    part.worker, part.busy_ns
                )),
                None => Ok(()),
            }
        };
        let mut outcome = attempt();
        for _ in 1..5 {
            if outcome.is_ok() {
                break;
            }
            outcome = attempt();
        }
        outcome.unwrap();
    }

    #[test]
    fn weighted_ranges_split_by_weight_not_count() {
        let tiles = [128, 128, 20];
        assert_eq!(weighted_ranges(3, 2, |t| tiles[t]), vec![0..1, 1..3]);
        assert_eq!(weighted_ranges(3, 4, |t| tiles[t]), vec![0..1, 1..2, 2..3]);
        assert_eq!(weighted_ranges(3, 1, |t| tiles[t]), vec![0..3]);
        // 276 live rows of ~74 units, then 236 padded rows of one.
        let row = |i: usize| if i < 276 { 74 } else { 1 };
        let halves = weighted_ranges(512, 2, row);
        assert_eq!(halves.len(), 2);
        assert!((139..=141).contains(&halves[0].end), "{halves:?}");
        assert!(weighted_ranges(0, 3, |_| 1).is_empty());
        assert_eq!(weighted_ranges(4, 2, |_| 0), vec![0..1, 1..4]);
    }

    #[test]
    fn split_ranges_mut_cuts_rows_of_units() {
        let mut items: Vec<u32> = (0..12).collect();
        let pieces = split_ranges_mut(&mut items, &[0..1, 1..4], 3);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0], &[0, 1, 2]);
        assert_eq!(pieces[1], &[3, 4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn fan_out_runs_every_part_once_with_its_index() {
        for width in 1..6usize {
            let mut parts: Vec<(usize, Option<usize>)> =
                (0..width).map(|w| (w * 10, None)).collect();
            fan_out(&mut parts, |w, part| {
                part.1 = Some(w);
                Ok::<_, ()>(())
            })
            .unwrap();
            for (w, part) in parts.iter().enumerate() {
                assert_eq!(*part, (w * 10, Some(w)));
            }
        }
        assert_eq!(fan_out(&mut [] as &mut [u8], |_, _| Err(())), Ok(()));
    }

    #[test]
    fn fan_out_reports_the_lowest_failing_part() {
        let mut parts = vec![0u8; 4];
        let err = fan_out(&mut parts, |w, p| {
            *p = 1;
            if w >= 2 {
                Err(w)
            } else {
                Ok(())
            }
        });
        assert_eq!(err, Err(2));
        assert_eq!(parts, vec![1; 4], "every part ran to its end");
    }

    #[test]
    fn a_panicking_part_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            let mut parts = vec![0u8; 3];
            let _ = fan_out(&mut parts, |w, _| {
                if w == 2 {
                    panic!("part two");
                }
                Ok::<_, ()>(())
            });
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"part two"));
    }

    #[test]
    fn an_injected_panic_fires_once_in_the_chosen_fan_out() {
        let count = |_: usize, c: &mut usize| {
            *c += 1;
            Ok::<_, ()>(())
        };
        let mut calls = vec![0usize; 2];
        inject_worker_panic(1, 1);
        // Too narrow to have part 1: does not count.
        fan_out(&mut calls[..1], count).unwrap();
        fan_out(&mut calls, count).unwrap();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fan_out(&mut calls, count)));
        assert!(caught.is_err());
        assert_eq!(calls, vec![3, 2], "the panicking part ran first");
        fan_out(&mut calls, count).unwrap();
        // Another thread never sees this thread's injection.
        inject_worker_panic(0, 1);
        std::thread::spawn(|| fan_out(&mut [0u8; 2], |_, _| Ok::<_, ()>(())).unwrap())
            .join()
            .unwrap();
        let caught = std::panic::catch_unwind(|| fan_out(&mut [0u8; 2], |_, _| Ok::<_, ()>(())));
        assert!(caught.is_err());
    }

    proptest! {
        #[test]
        fn prop_weighted_ranges_cover_everything_once(
            weights in proptest::collection::vec(0usize..300, 0..64),
            parts in 1usize..9,
        ) {
            let ranges = weighted_ranges(weights.len(), parts, |i| weights[i]);
            prop_assert_eq!(ranges.len(), parts.min(weights.len()));
            let mut next = 0;
            for r in &ranges {
                prop_assert_eq!(r.start, next);
                prop_assert!(!r.is_empty());
                next = r.end;
            }
            prop_assert_eq!(next, weights.len());
        }
    }

    proptest! {
        #[test]
        fn prop_chunked_matches_unchunked(
            n in 0usize..150,
            threads in 1usize..9,
        ) {
            let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x517c_c1b7)).collect();
            let sequential: Vec<u64> = items.iter().map(|&x| x ^ (x >> 9)).collect();
            let (parallel, _) = par_chunk_try_map_threads(
                threads,
                &items,
                |_, _, &x| Ok::<_, ()>(x ^ (x >> 9)),
            ).unwrap();
            prop_assert_eq!(parallel, sequential);
        }
    }

    proptest! {
        #[test]
        fn prop_ordering_deterministic_across_thread_counts(
            n in 0usize..200,
            threads in 1usize..9,
        ) {
            let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
            let sequential: Vec<u64> = items.iter().map(|&x| x ^ (x >> 7)).collect();
            let parallel = par_try_map_threads(threads, &items, |&x| Ok::<_, ()>(x ^ (x >> 7)));
            prop_assert_eq!(parallel, Ok(sequential));
        }
    }
}
