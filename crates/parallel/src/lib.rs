//! A std-only scoped thread pool with *deterministic* work partitioning.
//!
//! This crate is the substrate for every multi-threaded tensor kernel in the
//! workspace. Its central contract is that **results are a function of the
//! configured thread count only**, never of scheduling:
//!
//! - Work is split into *shards* whose boundaries depend only on the problem
//!   size and [`num_threads`] (or, for reassociated reductions, on a fixed
//!   block size independent even of the thread count). Which OS thread
//!   executes a shard is irrelevant because shards own disjoint output and
//!   partial results are combined in shard order by the caller.
//! - The configured thread count is decoupled from the number of pooled OS
//!   threads: `STHSL_THREADS=4` on a single-core machine produces the same
//!   bits as on a 64-core machine, just slower.
//!
//! The pool itself is a lazily-spawned set of persistent workers woken through
//! a condvar. A parallel section publishes a closure by reference (the caller
//! blocks until every shard finished, so the borrow is sound), workers and the
//! caller claim shard indices from a shared counter, and a worker panic's
//! payload is rethrown by the caller after the section drains. Nested parallel
//! sections execute serially on the calling thread rather than deadlocking.
//!
//! Every `unsafe` site below carries a `SAFETY:` argument, checked
//! mechanically by clippy's `undocumented_unsafe_blocks` (rule R1, denied in
//! the workspace lint table); the same table's `[workspace.lints.rust]`
//! denies `unsafe_op_in_unsafe_fn`, so no unsafe operation can hide inside an
//! `unsafe fn` body without its own block. This crate is the one place threads and locks live (rule R2): its
//! pool items carry the only R2 exemptions outside test code.

// R7: a numeric `as` cast in kernel code can silently truncate (a `usize as
// f32` above 2^24 corrupts means and norms). Library code uses `From` /
// `try_from`; the grandfathered sites carry an `expect` with a reason.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_precision_loss,
        clippy::cast_sign_loss
    )
)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "R2: the pool is the one place threads and locks live"
)]
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// --------------------------------------------------------------------- config

/// Configured thread count; 0 means "not yet resolved".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the configured thread count (a runaway `STHSL_THREADS`
/// should not spawn thousands of OS threads).
pub const MAX_THREADS: usize = 256;

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn resolve_from_env() -> usize {
    std::env::var("STHSL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(hardware_threads)
        .min(MAX_THREADS)
}

/// The thread count parallel sections are partitioned for.
///
/// Resolved on first use from `STHSL_THREADS` (falling back to the number of
/// available cores), overridable at runtime with [`set_num_threads`].
pub fn num_threads() -> usize {
    let n = CONFIGURED.load(Ordering::Relaxed);
    if n != 0 {
        return n;
    }
    let resolved = resolve_from_env();
    // Racing initialisers all computed the same value; first store wins.
    let _ = CONFIGURED.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    CONFIGURED.load(Ordering::Relaxed)
}

/// Override the configured thread count. `0` re-resolves from the
/// environment. Takes effect for subsequent parallel sections; already-pooled
/// OS threads are reused (the pool only ever grows).
pub fn set_num_threads(n: usize) {
    let n = if n == 0 { resolve_from_env() } else { n.min(MAX_THREADS) };
    CONFIGURED.store(n, Ordering::Relaxed);
}

// ----------------------------------------------------------------------- pool

/// Type-erased reference to the section closure, lifetime-extended while the
/// caller blocks inside [`run_shards`].
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and outlives the job (the caller blocks until
// every shard completed before returning).
unsafe impl Send for TaskRef {}

struct Job {
    task: TaskRef,
    shards: usize,
    /// Next unclaimed shard index.
    next: usize,
    /// Shards currently executing.
    active: usize,
    /// First worker-panic payload, held for the caller to rethrow verbatim
    /// (via `resume_unwind`) once the section drains.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

#[expect(clippy::disallowed_types, reason = "R2: the pool is the one place threads and locks live")]
struct Shared {
    state: Mutex<Option<Job>>,
    work_cv: Condvar,
    done_cv: Condvar,
}

#[expect(clippy::disallowed_types, reason = "R2: the pool is the one place threads and locks live")]
struct Pool {
    shared: Arc<Shared>,
    /// Serialises concurrent callers; workers never take this lock.
    run_lock: Mutex<()>,
    spawned: Mutex<usize>,
}

thread_local! {
    /// Set while this thread executes a shard; nested sections run serially.
    static IN_SECTION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Recover the guard from a poisoned lock/wait. Pool state is plain
/// bookkeeping data whose invariants are restored by the drain logic, and a
/// panicked shard is already surfaced through `Job::panic` — propagating
/// the poison would only turn one diagnosable panic into a cascade.
fn recover<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: Arc<Shared>) {
    IN_SECTION.with(|f| f.set(true));
    let mut state = recover(shared.state.lock());
    loop {
        let claimed = match state.as_mut() {
            Some(job) if job.next < job.shards => {
                let shard = job.next;
                job.next += 1;
                job.active += 1;
                Some((shard, job.task))
            }
            _ => None,
        };
        match claimed {
            Some((shard, task)) => {
                drop(state);
                // SAFETY: the caller keeps the closure alive until the job
                // drains (it blocks in `run_shards`).
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(shard) }));
                state = recover(shared.state.lock());
                match state.as_mut() {
                    Some(job) => {
                        if let Err(payload) = result {
                            // Keep the first payload; later ones are usually
                            // knock-on failures of the same root cause.
                            job.panic.get_or_insert(payload);
                        }
                        job.active -= 1;
                        if job.next >= job.shards && job.active == 0 {
                            shared.done_cv.notify_all();
                        }
                    }
                    // The caller only clears the job after `active` drains to
                    // zero, so this arm is unreachable; dropping the
                    // bookkeeping beats unwinding inside the pool.
                    None => debug_assert!(false, "job cleared while shards active"),
                }
            }
            None => {
                state = recover(shared.work_cv.wait(state));
            }
        }
    }
}

#[expect(clippy::disallowed_types, reason = "R2: the pool is the one place threads and locks live")]
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            state: Mutex::new(None),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }),
        run_lock: Mutex::new(()),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Grow the worker set to `target` threads (never shrinks).
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: the pool is the one place threads and locks live"
    )]
    fn ensure_workers(&self, target: usize) {
        let mut spawned = recover(self.spawned.lock());
        while *spawned < target {
            let shared = Arc::clone(&self.shared);
            let built = std::thread::Builder::new()
                .name(format!("sthsl-worker-{spawned}"))
                .spawn(move || worker_loop(shared));
            if built.is_err() {
                // Degrade gracefully: the caller participates in every
                // section and partitioning depends on the *configured* count,
                // not the spawned count, so fewer workers only costs speed.
                break;
            }
            *spawned += 1;
        }
    }
}

/// Execute `task(0..shards)` with each shard running exactly once, possibly
/// concurrently. Blocks until every shard completed. If any shard panicked,
/// its original payload is rethrown (after draining) via `resume_unwind`, so
/// the message and any `downcast` survive the pool boundary. Nested calls
/// from inside a shard run serially.
pub fn run_shards(shards: usize, task: &(dyn Fn(usize) + Sync)) {
    match shards {
        0 => return,
        1 => {
            task(0);
            return;
        }
        _ => {}
    }
    if IN_SECTION.with(std::cell::Cell::get) {
        for i in 0..shards {
            task(i);
        }
        return;
    }
    let pool = pool();
    let guard = recover(pool.run_lock.lock());
    pool.ensure_workers(num_threads().saturating_sub(1));
    // SAFETY: we erase the lifetime of `task` but block below until the job
    // fully drains, so no worker can observe a dangling reference.
    let task_ref = TaskRef(unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) });
    let mut state = recover(pool.shared.state.lock());
    debug_assert!(state.is_none(), "run_lock must serialise jobs");
    *state = Some(Job { task: task_ref, shards, next: 0, active: 0, panic: None });
    pool.shared.work_cv.notify_all();
    // The caller participates in the section instead of idling.
    let mut caller_panic = None;
    loop {
        // The job lives in `state` until this function takes it back out
        // below, so `as_mut()` only fails if that invariant broke; stop
        // claiming shards rather than unwinding with the run lock held.
        let Some(job) = state.as_mut() else {
            debug_assert!(false, "job vanished mid-section");
            break;
        };
        if job.next >= job.shards {
            break;
        }
        let shard = job.next;
        job.next += 1;
        job.active += 1;
        drop(state);
        IN_SECTION.with(|f| f.set(true));
        let result = catch_unwind(AssertUnwindSafe(|| task(shard)));
        IN_SECTION.with(|f| f.set(false));
        state = recover(pool.shared.state.lock());
        match state.as_mut() {
            Some(job) => job.active -= 1,
            None => debug_assert!(false, "job vanished mid-section"),
        }
        if let Err(payload) = result {
            caller_panic = Some(payload);
        }
    }
    while state.as_ref().is_some_and(|job| job.next < job.shards || job.active > 0) {
        state = recover(pool.shared.done_cv.wait(state));
    }
    let worker_panic = state.take().and_then(|job| job.panic);
    drop(state);
    drop(guard);
    // Rethrow the caller's own shard panic first (it is the one a backtrace
    // points at), then any worker payload — verbatim, so `downcast` and the
    // panic message both survive the pool boundary.
    if let Some(payload) = caller_panic.or(worker_panic) {
        std::panic::resume_unwind(payload);
    }
}

// ----------------------------------------------------------- partition helpers

/// Split `[0, n)` into `parts` contiguous near-equal ranges (the first
/// `n % parts` ranges are one longer). Deterministic in `(n, parts)`.
pub fn split_bands(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let (q, r) = (n / parts, n % parts);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for b in 0..parts {
        let len = q + usize::from(b < r);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

fn band_count(items: usize, min_per_band: usize) -> usize {
    let by_size = items / min_per_band.max(1);
    num_threads().min(by_size).max(1)
}

/// Run `f` over contiguous index bands covering `[0, n)`, each at least
/// `min_chunk` long (subject to the thread count). `f` must only touch
/// disjoint state per band (it receives the band's range).
pub fn parallel_for<F: Fn(Range<usize>) + Sync>(n: usize, min_chunk: usize, f: F) {
    if n == 0 {
        return;
    }
    let bands = band_count(n, min_chunk);
    if bands <= 1 {
        f(0..n);
        return;
    }
    let ranges = split_bands(n, bands);
    run_shards(ranges.len(), &|i| f(ranges[i].clone()));
}

#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: `SendPtr` is only ever constructed in `parallel_rows_mut` over a
// `&mut [T]` whose `T: Send`, and each shard derives a *disjoint* sub-slice
// from it (asserted in debug builds), so moving the pointer to another
// thread transfers exclusive access to rows no other thread touches.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `SendPtr` across shard closures is sound for the same
// reason as `Send` above — the wrapper is opaque (the raw pointer is only
// reachable through `get`), and every dereference stays inside the caller's
// borrow of `data`, which outlives the section because `run_shards` blocks.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor so closures capture the wrapper (which is `Sync`), not the
    /// raw pointer field (which is not).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// View `data` as `rows` rows of `stride` elements and run `f` over
/// contiguous row bands, each band receiving `(row_range, band_slice)` with
/// exclusive access to its rows. Bands hold at least `min_rows` rows (subject
/// to the thread count); with one band, `f` runs inline on the caller — that
/// *is* the serial path, so serial and parallel execution are the same code.
pub fn parallel_rows_mut<T, F>(data: &mut [T], rows: usize, stride: usize, min_rows: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    // `checked_mul` keeps the overflow case inside the same assertion:
    // `Some(len) != None` reports overflow, without a separate `expect`.
    assert_eq!(
        Some(data.len()),
        rows.checked_mul(stride),
        "parallel_rows_mut: data length {} must equal rows * stride ({rows} * {stride})",
        data.len()
    );
    if rows == 0 {
        return;
    }
    if stride == 0 {
        f(0..rows, data);
        return;
    }
    let bands = band_count(rows, min_rows);
    if bands <= 1 {
        f(0..rows, data);
        return;
    }
    let ranges = split_bands(rows, bands);
    debug_assert_bands_partition(&ranges, rows);
    let ptr = SendPtr(data.as_mut_ptr());
    run_shards(ranges.len(), &|i| {
        let r = &ranges[i];
        // SAFETY: `split_bands` yields contiguous, ascending, non-overlapping
        // row ranges exactly covering `[0, rows)` (checked by
        // `debug_assert_bands_partition` above), and `data.len() ==
        // rows * stride` was asserted on entry, so `[r.start * stride,
        // r.end * stride)` is in-bounds and each shard's sub-slice is
        // disjoint from every other shard's. The caller's `&mut data` borrow
        // is alive for the whole section because `run_shards` blocks.
        let band = unsafe {
            std::slice::from_raw_parts_mut(ptr.get().add(r.start * stride), r.len() * stride)
        };
        f(r.clone(), band);
    });
}

/// Debug-build proof obligation for the `unsafe` in [`parallel_rows_mut`]:
/// the bands must be pairwise disjoint and exactly cover `[0, rows)`.
fn debug_assert_bands_partition(ranges: &[Range<usize>], rows: usize) {
    if cfg!(debug_assertions) {
        assert_eq!(check_bands_partition(ranges, rows), Ok(()), "invalid band partition");
    }
}

/// Whether `ranges` are pairwise disjoint and exactly cover `[0, rows)`.
/// Contiguity + ascending order implies both, so that is what is checked.
/// Compiled in every profile, so its tests run in release builds too.
fn check_bands_partition(ranges: &[Range<usize>], rows: usize) -> Result<(), String> {
    let mut expected_start = 0;
    for (i, r) in ranges.iter().enumerate() {
        if r.start != expected_start {
            return Err(format!(
                "band {i} starts at {} but the previous band ended at {expected_start}: \
                 bands must be contiguous (disjoint, gap-free)",
                r.start
            ));
        }
        if r.end < r.start {
            return Err(format!("band {i} is inverted"));
        }
        expected_start = r.end;
    }
    if expected_start != rows {
        return Err(format!("bands cover [0, {expected_start}) but the data has {rows} rows"));
    }
    Ok(())
}

// ------------------------------------------------------ deterministic reduce

/// Fixed block size for reassociated reductions. Independent of the thread
/// count so a blocked sum is bit-identical at *every* thread count.
pub const REDUCE_BLOCK: usize = 4096;

/// Deterministic blocked sum: `f` produces the partial sum of each
/// `block`-sized range of `[0, n)`; partials are computed in parallel and
/// combined in ascending block order. With a single block this degenerates to
/// one plain `f(0..n)` call (the fully serial association).
pub fn blocked_sum_f32<F: Fn(Range<usize>) -> f32 + Sync>(n: usize, block: usize, f: F) -> f32 {
    assert!(block > 0, "blocked_sum_f32: block must be positive");
    if n == 0 {
        return 0.0;
    }
    let nblocks = n.div_ceil(block);
    if nblocks == 1 {
        return f(0..n);
    }
    let mut partials = vec![0.0f32; nblocks];
    parallel_rows_mut(&mut partials, nblocks, 1, 1, |range, band| {
        for (bi, slot) in range.clone().zip(band.iter_mut()) {
            let start = bi * block;
            *slot = f(start..((start + block).min(n)));
        }
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serialises tests that mutate the global thread configuration.
    #[expect(clippy::disallowed_types, reason = "R2: the pool's own tests share one config lock")]
    fn config_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn split_bands_covers_and_balances() {
        for n in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 13] {
                let bands = split_bands(n, parts);
                let total: usize = bands.iter().map(std::iter::ExactSizeIterator::len).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                for w in bands.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "bands must be contiguous");
                    assert!(w[0].len() >= w[1].len(), "earlier bands take the remainder");
                }
            }
        }
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), 16, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn band_partition_assertion_accepts_partitions_and_rejects_overlap_and_gaps() {
        assert_eq!(check_bands_partition(&split_bands(97, 13), 97), Ok(()));
        assert_eq!(check_bands_partition(&[], 0), Ok(()));
        let one = |r: Range<usize>| vec![r]; // sidestep vec![a..b] init lint
        for bad in [
            vec![0..5, 4..10], // overlap
            vec![0..5, 6..10], // gap
            one(1..10),        // does not start at 0
            one(0..9),         // does not cover all rows
        ] {
            assert!(check_bands_partition(&bad, 10).is_err(), "accepted invalid partition {bad:?}");
        }
    }

    #[test]
    fn parallel_rows_mut_writes_disjoint_bands() {
        let (rows, stride) = (97, 13);
        let mut data = vec![0.0f32; rows * stride];
        parallel_rows_mut(&mut data, rows, stride, 1, |range, band| {
            assert_eq!(band.len(), range.len() * stride);
            for (local, row) in range.enumerate() {
                for c in 0..stride {
                    band[local * stride + c] = (row * stride + c) as f32;
                }
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn blocked_sum_is_thread_count_invariant() {
        let _guard = config_lock();
        let xs: Vec<f32> =
            (0..50_000).map(|i| ((i * 2654435761_usize) % 1000) as f32 * 0.01).collect();
        let sum_at = |threads: usize| {
            set_num_threads(threads);
            blocked_sum_f32(xs.len(), REDUCE_BLOCK, |r| xs[r].iter().sum())
        };
        let reference = sum_at(1);
        for threads in [2, 4, 8] {
            assert_eq!(sum_at(threads).to_bits(), reference.to_bits(), "threads={threads}");
        }
        set_num_threads(0);
    }

    #[test]
    fn nested_sections_run_serially_without_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for(64, 1, |outer| {
            for _ in outer {
                parallel_for(32, 1, |inner| {
                    total.fetch_add(inner.len() as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 32);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let _guard = config_lock();
        set_num_threads(4);
        let result = std::panic::catch_unwind(|| {
            run_shards(8, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        });
        // The original payload crosses the pool boundary intact — no
        // synthesized "a worker panicked" wrapper.
        let payload = result.expect_err("shard panic must surface");
        let msg = payload.downcast_ref::<&str>().copied();
        assert_eq!(msg, Some("boom"), "payload must be rethrown verbatim");
        set_num_threads(0);
        // The pool must still be usable after a panicked section.
        let hits = AtomicUsize::new(0);
        run_shards(8, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn set_num_threads_round_trips() {
        let _guard = config_lock();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
    }
}
