#![warn(missing_docs)]

//! Persistent parked-worker fan-out with chunked ranges and deterministic
//! result order.
//!
//! This crate is the workspace's entire threading model. A [`ThreadPool`] is
//! nothing but a worker count — a cheap `Copy` handle — while the actual OS
//! threads live in one process-wide worker set shared by every pool value:
//! workers are spawned lazily on the first parallel call that needs them,
//! then **parked on a condvar** between jobs. Dispatching a job is a mutex
//! lock, a job-descriptor write, and a few `notify_one`s — microseconds, not
//! the hundreds of microseconds a per-call `std::thread::spawn` costs — so
//! the trainer can fan out thousands of times per epoch without the dispatch
//! swamping the work.
//!
//! Work is always split into **contiguous index chunks** whose results come
//! back in chunk order, and the chunk boundaries are a pure function of
//! `(n, threads)` (see [`chunk_ranges`]) — never of how many workers happen
//! to be parked or which worker runs which chunk. Because each output element
//! is computed by exactly one task invocation from the same inputs in the
//! same per-element order, every operation built on this pool is
//! bit-identical across worker counts *and* across pool reuse — the property
//! the trainer's `threads = 1` vs `threads = N` regression tests pin down.
//!
//! # How a job runs
//!
//! The shared worker set keeps a single job slot behind a mutex, plus a
//! monotonically increasing **epoch** that numbers jobs. A submitter waits
//! for the slot to be free, publishes `{task, n_chunks}` with a fresh epoch,
//! and wakes up to `n_chunks − 1` parked workers. Chunks are then **claimed**
//! from a shared cursor: the submitter claims alongside the woken workers, so
//! a chunk never waits for a descheduled worker (on a single-core host the
//! submitter simply claims everything itself and the workers go back to
//! sleep). Each finished chunk bumps a completion counter; the submitter
//! joins by waiting until the counter reaches `n_chunks`, then clears the
//! slot. Claiming order does not affect results: chunks write disjoint
//! outputs, so only the fixed chunk *boundaries* matter for determinism.
//!
//! A panic inside any chunk is caught, carried through the job descriptor,
//! and re-raised on the submitting thread after every chunk has finished —
//! the workers themselves never die, so the pool stays usable after a panic.
//!
//! # Examples
//!
//! ```
//! use threadpool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! // Sum of squares, fanned out over 4 workers, summed in chunk order.
//! let partials = pool.run_chunks(1000, |range| {
//!     range.map(|i| i as u64 * i as u64).sum::<u64>()
//! });
//! let total: u64 = partials.into_iter().sum();
//! assert_eq!(total, (0..1000u64).map(|i| i * i).sum());
//! ```
//!
//! # Observability
//!
//! Besides the free-running [`spawned_workers`]/[`dispatched_jobs`]
//! counters, the pool keeps per-width job statistics — dispatch latency,
//! job wall-clock, and submitter-vs-worker chunk balance (see [`JobStats`]).
//! Collection is gated on the process-global [`obs::runtime_stats_enabled`]
//! flag so the dispatch path never reads the clock unless a metrics run
//! asked for it; read the table with [`job_stats`].

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// A fixed-width handle onto the process-wide parked-worker set.
///
/// Holds only the worker count; the persistent worker threads are shared by
/// all `ThreadPool` values and spawned lazily on first use, so constructing a
/// pool — even per call — is free. A pool of one worker runs everything
/// inline on the caller's thread (no dispatch at all), so
/// `ThreadPool::new(1)` is the zero-overhead sequential reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new(1)
    }
}

impl ThreadPool {
    /// Creates a pool of `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    #[must_use]
    pub fn available() -> Self {
        ThreadPool::new(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` once per contiguous chunk of `0..n` and returns the results
    /// in chunk order.
    ///
    /// The chunking is a pure function of `(n, threads)` — see
    /// [`chunk_ranges`] — so a given pool always hands workers the same
    /// ranges. An empty domain returns an empty vector.
    pub fn run_chunks<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        let ranges = chunk_ranges(n, self.threads);
        if ranges.len() <= 1 {
            return ranges.into_iter().map(f).collect();
        }
        // One slot per chunk; chunk i writes slot i exactly once, and the
        // submitter only reads after joining the job, so the lock is never
        // contended for more than the Option write.
        let slots: Vec<Mutex<Option<T>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        let task = |i: usize| {
            let out = f(ranges[i].clone());
            *slots[i].lock().expect("result slot poisoned") = Some(out);
        };
        fan_out(ranges.len(), &task);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every claimed chunk stores its result")
            })
            .collect()
    }

    /// Splits `data` into per-chunk sub-slices of `items` logical items of
    /// `item_len` elements each and hands each worker its chunk's item range
    /// plus the mutable sub-slice covering exactly those items.
    ///
    /// This is how parallel matrix products write disjoint row ranges of one
    /// output buffer without locks: `data` is the flat row-major buffer,
    /// `items` the row count, `item_len` the row width.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != items * item_len`.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], items: usize, item_len: usize, f: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        assert_eq!(
            data.len(),
            items * item_len,
            "buffer length must equal items * item_len"
        );
        let ranges = chunk_ranges(items, self.threads);
        if ranges.len() <= 1 {
            if let Some(range) = ranges.into_iter().next() {
                f(range, data);
            }
            return;
        }
        // Pre-split the buffer into disjoint per-chunk raw parts so that any
        // worker can pick up any chunk index. Reconstructing the `&mut [T]`
        // inside the task is sound: each index is claimed by exactly one
        // task invocation, the parts never overlap, and the submitter blocks
        // in `fan_out` until every chunk is done, keeping `data` borrowed.
        let mut parts: Vec<RawChunk<T>> = Vec::with_capacity(ranges.len());
        let mut rest: &mut [T] = data;
        for range in &ranges {
            let take = range.len() * item_len;
            let (chunk, tail) = rest.split_at_mut(take);
            rest = tail;
            parts.push(RawChunk {
                ptr: chunk.as_mut_ptr(),
                len: chunk.len(),
            });
        }
        let task = |i: usize| {
            let part = &parts[i];
            let chunk = unsafe { std::slice::from_raw_parts_mut(part.ptr, part.len) };
            f(ranges[i].clone(), chunk);
        };
        fan_out(ranges.len(), &task);
    }

    /// Runs every task in `tasks` concurrently across the pool, consuming
    /// each exactly once and passing its index along.
    ///
    /// Unlike [`for_each_chunk_mut`], which splits one flat buffer into
    /// per-chunk sub-slices, each task here carries its own pre-split state —
    /// for example several mutable sub-slices over *different* buffers plus a
    /// per-chunk optimizer — so callers can fan one job out over many
    /// disjoint buffers at once. Task boundaries are fixed by the caller, not
    /// by scheduling, so results are bit-identical at any worker count. With
    /// zero or one task, or a one-worker pool, everything runs inline on the
    /// caller's thread.
    ///
    /// Callers should build at most [`threads`](ThreadPool::threads) tasks;
    /// extra tasks still run (the claim cursor hands them out as workers
    /// free up) but buy no additional parallelism.
    ///
    /// [`for_each_chunk_mut`]: ThreadPool::for_each_chunk_mut
    pub fn for_each_task<T, F>(&self, tasks: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        if tasks.len() <= 1 || self.threads == 1 {
            for (i, t) in tasks.into_iter().enumerate() {
                f(i, t);
            }
            return;
        }
        // One slot per task; the claiming invocation takes the task out, so
        // each task value is moved into exactly one `f` call.
        let slots: Vec<Mutex<Option<T>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let task = |i: usize| {
            let t = slots[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("each task index is claimed exactly once");
            f(i, t);
        };
        fan_out(slots.len(), &task);
    }
}

/// A disjoint sub-slice of a caller-owned buffer, in raw-parts form so it
/// can cross into the worker set without a lifetime.
struct RawChunk<T> {
    ptr: *mut T,
    len: usize,
}

// Safety: a `RawChunk` is only ever turned back into a `&mut [T]` by the one
// task invocation that claims its index, and the submitter keeps the
// underlying buffer alive (and exclusively borrowed) until the job joins.
unsafe impl<T: Send> Send for RawChunk<T> {}
unsafe impl<T: Send> Sync for RawChunk<T> {}

/// The chunk runner of the currently published job, with its borrow lifetime
/// erased (see the safety argument in [`fan_out`]).
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// Safety: the pointee outlives the job (the submitter blocks until every
// chunk completes before returning or unwinding), and the pointee is `Sync`
// so shared calls from several workers are fine.
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// The job descriptor workers claim chunks from.
struct Job {
    task: TaskPtr,
    n_chunks: usize,
    /// Claim cursor: the next unclaimed chunk index.
    next: usize,
    /// Number of chunks that have finished running.
    completed: usize,
    /// First panic payload raised by any chunk, re-thrown by the submitter.
    panic: Option<Box<dyn Any + Send>>,
}

/// State shared between submitters and the parked workers.
struct PoolState {
    /// Job generation counter; bumped once per published job so parked
    /// workers can tell "a job I already drained" from "a new job".
    epoch: u64,
    /// Number of persistent workers spawned so far.
    spawned: usize,
    /// The single in-flight job, if any. The slot doubles as the submission
    /// lock: a submitter owns the slot from publish to join.
    job: Option<Job>,
}

struct PoolCore {
    state: Mutex<PoolState>,
    /// Parked workers wait here for a new epoch.
    work_cv: Condvar,
    /// Submitters wait here, both for the job slot and for chunk completion.
    done_cv: Condvar,
}

/// The process-wide worker set every [`ThreadPool`] value dispatches into.
static CORE: PoolCore = PoolCore {
    state: Mutex::new(PoolState {
        epoch: 0,
        spawned: 0,
        job: None,
    }),
    work_cv: Condvar::new(),
    done_cv: Condvar::new(),
};

thread_local! {
    /// Set on pool worker threads, and on a submitter while it runs claimed
    /// chunks. A nested fan-out from inside a task must not wait on the job
    /// slot its own job occupies, so it runs its chunks inline instead.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Number of persistent worker threads spawned so far, process-wide.
///
/// Monotonic: workers are never torn down. Grows to at most
/// `max(threads) − 1` over all pools ever dispatched through.
#[must_use]
pub fn spawned_workers() -> usize {
    CORE.state.lock().expect("pool state poisoned").spawned
}

/// Total number of parallel jobs dispatched through the shared worker set
/// (the pool's epoch counter). Inline runs — single-chunk domains, `threads
/// == 1`, nested fan-outs — do not count.
#[must_use]
pub fn dispatched_jobs() -> u64 {
    CORE.state.lock().expect("pool state poisoned").epoch
}

/// Dispatch/utilization statistics for all jobs of one fan-out width.
///
/// Collected only while [`obs::runtime_stats_enabled`] is on (off by
/// default), so the hot path never reads the clock in normal runs. One entry
/// exists per distinct `n_chunks` seen; widths are how the pool's callers
/// differ (a 4-thread trainer dispatches width-4 jobs), so per-width rows
/// separate, say, batch-assembly jobs from classify jobs at another width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// Fan-out width (`n_chunks`) this row aggregates.
    pub width: usize,
    /// Jobs dispatched at this width.
    pub jobs: u64,
    /// Total submitter-side dispatch overhead: slot wait + lazy spawn +
    /// publish + worker wakeup, summed over jobs, in nanoseconds.
    pub dispatch_ns_total: u64,
    /// Worst single-job dispatch overhead, in nanoseconds.
    pub dispatch_ns_max: u64,
    /// Total wall-clock from publish to join, summed over jobs, in
    /// nanoseconds.
    pub job_ns_total: u64,
    /// Chunks the submitting thread claimed and ran itself.
    pub submitter_chunks: u64,
    /// Chunks run by parked helper workers.
    pub worker_chunks: u64,
}

impl JobStats {
    /// Mean dispatch overhead per job, in nanoseconds (0 when no jobs).
    #[must_use]
    pub fn dispatch_ns_mean(&self) -> u64 {
        if self.jobs == 0 {
            0
        } else {
            self.dispatch_ns_total / self.jobs
        }
    }

    /// Chunk-balance gauge: fraction of chunks run by helper workers.
    ///
    /// `0.0` means the submitter drained every cursor itself (workers never
    /// won a claim — expected on a single core); the ideal on idle cores is
    /// `(width − 1) / width`.
    #[must_use]
    pub fn worker_share(&self) -> f64 {
        let total = self.submitter_chunks + self.worker_chunks;
        if total == 0 {
            0.0
        } else {
            self.worker_chunks as f64 / total as f64
        }
    }
}

/// Per-width job statistics, gated on [`obs::runtime_stats_enabled`].
static JOB_STATS: Mutex<Vec<JobStats>> = Mutex::new(Vec::new());

/// Returns the per-width job statistics collected so far, sorted by width.
///
/// Empty unless [`obs::set_runtime_stats`]`(true)` was called before the
/// jobs ran.
#[must_use]
pub fn job_stats() -> Vec<JobStats> {
    let mut stats = JOB_STATS.lock().expect("job stats poisoned").clone();
    stats.sort_by_key(|s| s.width);
    stats
}

/// Clears the per-width job statistics (for test isolation).
pub fn reset_job_stats() {
    JOB_STATS.lock().expect("job stats poisoned").clear();
}

fn record_job_stats(width: usize, dispatch_ns: u64, job_ns: u64, submitter_chunks: u64) {
    let mut stats = JOB_STATS.lock().expect("job stats poisoned");
    let row = match stats.iter_mut().find(|s| s.width == width) {
        Some(row) => row,
        None => {
            stats.push(JobStats {
                width,
                ..JobStats::default()
            });
            stats.last_mut().expect("just pushed")
        }
    };
    row.jobs += 1;
    row.dispatch_ns_total += dispatch_ns;
    row.dispatch_ns_max = row.dispatch_ns_max.max(dispatch_ns);
    row.job_ns_total += job_ns;
    row.submitter_chunks += submitter_chunks;
    row.worker_chunks += width as u64 - submitter_chunks;
}

/// Publishes a `n_chunks`-chunk job to the shared worker set, helps run it,
/// and joins it; re-raises the first chunk panic after the join.
fn fan_out(n_chunks: usize, task: &(dyn Fn(usize) + Sync)) {
    debug_assert!(n_chunks >= 2, "single-chunk jobs run inline");
    if IN_POOL.get() {
        // Nested fan-out (a task submitting work): run inline. The chunk
        // boundaries are unchanged, so results are too.
        for i in 0..n_chunks {
            task(i);
        }
        return;
    }
    // Stat collection is opt-in; when off (the default) this path never
    // reads the clock.
    let job_start = if obs::runtime_stats_enabled() {
        Some(Instant::now())
    } else {
        None
    };
    // Safety: workers only dereference this pointer between claiming a chunk
    // and marking it complete, and this function does not return or unwind
    // until `completed == n_chunks` — so the borrow outlives every use.
    let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let helpers = n_chunks - 1;
    {
        let mut state = CORE.state.lock().expect("pool state poisoned");
        // The job slot is exclusive; queue behind any in-flight job.
        while state.job.is_some() {
            state = CORE.done_cv.wait(state).expect("pool state poisoned");
        }
        while state.spawned < helpers {
            spawn_worker(state.spawned, state.epoch);
            state.spawned += 1;
        }
        state.epoch += 1;
        state.job = Some(Job {
            task: TaskPtr(erased),
            n_chunks,
            next: 0,
            completed: 0,
            panic: None,
        });
    }
    for _ in 0..helpers {
        CORE.work_cv.notify_one();
    }
    let dispatch_ns = job_start.map(|t| t.elapsed().as_nanos() as u64);
    // Claim chunks alongside the woken workers; on a single-core host the
    // submitter typically drains the whole cursor itself.
    IN_POOL.set(true);
    let mut submitter_chunks = 0u64;
    loop {
        let idx = {
            let mut state = CORE.state.lock().expect("pool state poisoned");
            let job = state.job.as_mut().expect("submitter owns the job slot");
            if job.next >= job.n_chunks {
                break;
            }
            let idx = job.next;
            job.next += 1;
            idx
        };
        run_chunk(task, idx);
        submitter_chunks += 1;
    }
    IN_POOL.set(false);
    // Join: wait for stragglers, free the slot, hand it to the next queued
    // submitter, then surface any chunk panic.
    let finished = {
        let mut state = CORE.state.lock().expect("pool state poisoned");
        while state
            .job
            .as_ref()
            .is_some_and(|job| job.completed < job.n_chunks)
        {
            state = CORE.done_cv.wait(state).expect("pool state poisoned");
        }
        state.job.take().expect("submitter owns the job slot")
    };
    CORE.done_cv.notify_all();
    if let (Some(start), Some(dispatch_ns)) = (job_start, dispatch_ns) {
        record_job_stats(
            n_chunks,
            dispatch_ns,
            start.elapsed().as_nanos() as u64,
            submitter_chunks,
        );
    }
    if let Some(payload) = finished.panic {
        panic::resume_unwind(payload);
    }
}

/// Runs one claimed chunk, then records completion (and any panic) in the
/// job descriptor.
fn run_chunk(task: &(dyn Fn(usize) + Sync), idx: usize) {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(idx)));
    let mut state = CORE.state.lock().expect("pool state poisoned");
    let job = state
        .job
        .as_mut()
        .expect("job lives until every chunk completes");
    job.completed += 1;
    if let Err(payload) = outcome {
        job.panic.get_or_insert(payload);
    }
    if job.completed == job.n_chunks {
        CORE.done_cv.notify_all();
    }
}

fn spawn_worker(index: usize, seen_epoch: u64) {
    thread::Builder::new()
        .name(format!("lehdc-pool-{index}"))
        .spawn(move || worker_loop(seen_epoch))
        .expect("failed to spawn pool worker");
}

/// The persistent worker body: park on the condvar until a new epoch shows
/// up, drain the claim cursor, park again. Workers never exit; they are
/// daemon threads reaped at process exit.
fn worker_loop(mut seen: u64) {
    IN_POOL.set(true);
    loop {
        let (task, idx) = {
            let mut state = CORE.state.lock().expect("pool state poisoned");
            loop {
                if state.epoch != seen {
                    if let Some(job) = state.job.as_mut() {
                        if job.next < job.n_chunks {
                            let idx = job.next;
                            job.next += 1;
                            break (job.task, idx);
                        }
                    }
                    // Current job fully claimed (or already joined): this
                    // worker is caught up with the epoch.
                    seen = state.epoch;
                }
                state = CORE.work_cv.wait(state).expect("pool state poisoned");
            }
        };
        // Safety: see `TaskPtr` — the submitter keeps the task alive until
        // this chunk's completion is recorded.
        let task = unsafe { &*task.0 };
        run_chunk(task, idx);
    }
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal length
/// (the first `n % parts` ranges are one longer), in ascending order.
///
/// Returns fewer than `parts` ranges when `n < parts`, and no ranges when
/// `n == 0`; every index appears in exactly one range.
///
/// # Examples
///
/// ```
/// let ranges = threadpool::chunk_ranges(10, 4);
/// assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
/// assert!(threadpool::chunk_ranges(0, 4).is_empty());
/// ```
#[must_use]
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_the_domain() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 1000] {
                let ranges = chunk_ranges(n, parts);
                let covered: usize = ranges.iter().map(ExactSizeIterator::len).sum();
                assert_eq!(covered, n, "n={n} parts={parts}");
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    expect = r.end;
                }
                assert!(ranges.len() <= parts.max(1));
                if n > 0 {
                    assert!(ranges.len() <= n);
                }
            }
        }
    }

    #[test]
    fn chunk_lengths_differ_by_at_most_one() {
        let ranges = chunk_ranges(11, 3);
        let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
        assert_eq!(lens, vec![4, 4, 3]);
    }

    #[test]
    fn run_chunks_is_deterministic_across_widths() {
        let reference: Vec<u64> = (0..257u64).map(|i| i * 31).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let parts = pool.run_chunks(257, |range| {
                range.map(|i| i as u64 * 31).collect::<Vec<u64>>()
            });
            let flat: Vec<u64> = parts.into_iter().flatten().collect();
            assert_eq!(flat, reference, "threads={threads}");
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_disjoint_rows() {
        for threads in [1, 2, 5] {
            let pool = ThreadPool::new(threads);
            let (rows, cols) = (13, 4);
            let mut buf = vec![0usize; rows * cols];
            pool.for_each_chunk_mut(&mut buf, rows, cols, |range, chunk| {
                assert_eq!(chunk.len(), range.len() * cols);
                for (local, row) in range.clone().enumerate() {
                    for c in 0..cols {
                        chunk[local * cols + c] = row * 100 + c;
                    }
                }
            });
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(buf[r * cols + c], r * 100 + c, "threads={threads}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "items * item_len")]
    fn for_each_chunk_mut_validates_buffer_shape() {
        let pool = ThreadPool::new(2);
        let mut buf = vec![0u8; 7];
        pool.for_each_chunk_mut(&mut buf, 2, 4, |_, _| {});
    }

    #[test]
    fn for_each_task_consumes_each_task_once() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut bufs = vec![vec![0usize; 3]; 4];
            let tasks: Vec<(usize, &mut [usize])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (10 * (i + 1), b.as_mut_slice()))
                .collect();
            pool.for_each_task(tasks, |i, (base, slice)| {
                for (j, v) in slice.iter_mut().enumerate() {
                    *v = base + i + j;
                }
            });
            for (i, b) in bufs.iter().enumerate() {
                let base = 10 * (i + 1);
                assert_eq!(b, &vec![base + i, base + i + 1, base + i + 2], "threads={threads}");
            }
        }
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(ThreadPool::default(), pool);
        assert!(ThreadPool::available().threads() >= 1);
    }

    #[test]
    fn pool_reuse_keeps_worker_set_and_results_stable() {
        // Warm the shared worker set up to this binary's widest pool (8 ⇒ 7
        // helper workers); no test in this binary uses a wider pool, so the
        // spawn count must stay put across hundreds of dispatches.
        let pool = ThreadPool::new(8);
        let reference = pool.run_chunks(500, |r| r.len());
        let before = spawned_workers();
        assert!(before >= 7, "widest dispatch spawns its helpers");
        let jobs_before = dispatched_jobs();
        for _ in 0..200 {
            assert_eq!(pool.run_chunks(500, |r| r.len()), reference);
        }
        assert_eq!(
            spawned_workers(),
            before,
            "workers must be reused, never respawned"
        );
        assert!(dispatched_jobs() >= jobs_before + 200, "each call is one job");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = panic::catch_unwind(|| {
            pool.run_chunks(8, |range| {
                assert!(!range.contains(&5), "boom in chunk");
                range.len()
            })
        });
        assert!(result.is_err(), "chunk panic must surface to the submitter");
        // The worker set must stay fully usable after surfacing a panic.
        for _ in 0..10 {
            let total: usize = pool.run_chunks(100, |r| r.len()).into_iter().sum();
            assert_eq!(total, 100);
        }
    }

    #[test]
    fn nested_fan_out_runs_inline_without_deadlock() {
        let outer = ThreadPool::new(4);
        let inner = ThreadPool::new(4);
        let sums = outer.run_chunks(8, |range| {
            inner.run_chunks(64, |r| r.len()).into_iter().sum::<usize>() + range.len()
        });
        assert_eq!(sums.into_iter().sum::<usize>(), 64 * 4 + 8);
    }

    #[test]
    fn concurrent_submitters_share_the_worker_set() {
        let results: Vec<(usize, usize)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    scope.spawn(move || {
                        let pool = ThreadPool::new(3);
                        let partials = pool.run_chunks(1000, |r| r.map(|i| i + t).sum::<usize>());
                        (t, partials.into_iter().sum::<usize>())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, sum) in results {
            assert_eq!(sum, (0..1000).map(|i| i + t).sum::<usize>(), "submitter {t}");
        }
    }

    #[test]
    fn job_stats_track_dispatch_and_chunk_balance_per_width() {
        let pool = ThreadPool::new(6);
        // Stats are off by default: these jobs must leave no width-6 row
        // beyond whatever an enabled phase below records.
        reset_job_stats();
        pool.run_chunks(600, |r| r.len());
        assert!(
            job_stats().iter().all(|s| s.width != 6),
            "stats must not collect while the runtime flag is off"
        );

        obs::set_runtime_stats(true);
        const JOBS: u64 = 20;
        for _ in 0..JOBS {
            let total: usize = pool.run_chunks(600, |r| r.len()).into_iter().sum();
            assert_eq!(total, 600);
        }
        obs::set_runtime_stats(false);

        let stats = job_stats();
        let row = stats
            .iter()
            .find(|s| s.width == 6)
            .expect("width-6 jobs were dispatched with stats on");
        // Concurrent tests may add width-6 jobs of their own; assert lower
        // bounds and internal consistency rather than exact counts.
        assert!(row.jobs >= JOBS, "saw {} jobs", row.jobs);
        assert_eq!(
            row.submitter_chunks + row.worker_chunks,
            6 * row.jobs,
            "every chunk is claimed by the submitter or a worker"
        );
        assert!(row.dispatch_ns_max <= row.dispatch_ns_total);
        assert!(row.dispatch_ns_mean() <= row.dispatch_ns_max);
        assert!(
            row.job_ns_total >= row.dispatch_ns_total,
            "a job lasts at least as long as its dispatch"
        );
        let share = row.worker_share();
        assert!((0.0..=1.0).contains(&share), "share {share} out of range");

        // Single-chunk and nested fan-outs run inline and never count.
        reset_job_stats();
        obs::set_runtime_stats(true);
        ThreadPool::new(1).run_chunks(100, |r| r.len());
        obs::set_runtime_stats(false);
        assert!(job_stats().iter().all(|s| s.width != 1));
    }
}
