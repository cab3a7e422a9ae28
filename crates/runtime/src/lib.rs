//! # pim-runtime
//!
//! A dependency-free (std-only) work-stealing thread pool with a
//! deterministic data-parallel API, built for the embarrassingly parallel
//! levels of the macromodeling workflow: independent scenario presets in
//! [`Pipeline::sweep_with`](https://docs.rs/pim-core), independent frequency
//! samples in the passivity assessment grids, and independent Gaussian draws
//! in the Monte Carlo sensitivity estimator.
//!
//! ## Determinism guarantee
//!
//! Every parallel entry point collects results **by input index**, so the
//! output of [`ThreadPool::par_map`] / [`ThreadPool::par_chunks`] is
//! *bit-identical* to the serial evaluation of the same closures, for every
//! thread count — the scheduling order can never leak into the numbers. This
//! is the invariant the workspace's parallel-vs-serial proptest suites
//! enforce; closures must only depend on their own `(index, item)` arguments
//! for it to hold (all in-tree call sites do).
//!
//! ## Thread-count selection
//!
//! [`global()`] sizes the shared pool once, on first use, from the
//! `PIM_THREADS` environment variable (a positive integer; `1` forces the
//! serial fallback path in every wired call site), falling back to
//! [`std::thread::available_parallelism`]. Explicit pools with any thread
//! count can be built with [`ThreadPool::new`] regardless of the
//! environment — the determinism test suites do exactly that.
//!
//! ## Example
//!
//! ```
//! use pim_runtime::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! // Results are collected by input index: bit-identical to the serial map.
//! let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Fixed-size chunks with per-chunk accumulators, reduced in chunk order:
//! // the chunk boundaries depend only on the chunk size, never on the
//! // thread count, so the reduction is reproducible on any machine.
//! let partial_sums = pool.par_chunks(&[1.0f64, 2.0, 3.0, 4.0, 5.0], 2, |_, c| -> f64 {
//!     c.iter().sum()
//! });
//! assert_eq!(partial_sums, vec![3.0, 7.0, 5.0]);
//! let total: f64 = partial_sums.iter().sum();
//! assert_eq!(total, 15.0);
//! ```
//!
//! ## Design
//!
//! A pool of `threads` has `threads − 1` background workers, each with its
//! own deque: tasks are pushed round-robin, a worker pops its own queue from
//! the front and steals from the back of the others, and the thread that
//! opened a [`ThreadPool::scope`] participates by draining tasks while it
//! waits — so a 1-thread pool has no workers at all and runs everything
//! inline on the caller (the serial fallback path). Panics inside tasks are
//! caught, the one with the lowest spawn index wins (deterministic payload),
//! and the winner is re-raised on the caller once the scope is complete.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A boxed task living in the worker queues. Scoped tasks are lifetime-erased
/// to `'static` before being enqueued; the erasure is sound because
/// [`ThreadPool::scope`] never returns before every task it spawned has
/// finished running.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// One deque per worker; owners pop from the front, thieves (other
    /// workers and waiting scope callers) steal from the back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Number of tasks currently sitting in the queues (not yet popped).
    queued: AtomicUsize,
    /// Sleep/wake machinery for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pops a task, preferring queue `me` (front) and stealing from the back
    /// of the others. `me == usize::MAX` marks an external (non-worker)
    /// caller, which steals from every queue.
    fn find_task(&self, me: usize) -> Option<Task> {
        let n = self.queues.len();
        if me != usize::MAX {
            if let Some(task) = self.queues[me].lock().expect("queue poisoned").pop_front() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                return Some(task);
            }
        }
        for k in 0..n {
            let q = if me == usize::MAX { k } else { (me + 1 + k) % n };
            if q == me {
                continue;
            }
            if let Some(task) = self.queues[q].lock().expect("queue poisoned").pop_back() {
                self.queued.fetch_sub(1, Ordering::AcqRel);
                return Some(task);
            }
        }
        None
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(task) = shared.find_task(me) {
            task();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let guard = shared.idle.lock().expect("idle mutex poisoned");
        if shared.queued.load(Ordering::Acquire) == 0 && !shared.shutdown.load(Ordering::Acquire) {
            // The timeout is a belt-and-braces recheck, not the wake path:
            // pushers notify under the idle mutex.
            let _ = shared.wake.wait_timeout(guard, Duration::from_millis(50));
        }
    }
}

/// Completion state of one [`ThreadPool::scope`]: outstanding-task counter
/// plus the winning (lowest spawn index) panic payload.
struct ScopeSync {
    pending: Mutex<usize>,
    done: Condvar,
    #[allow(clippy::type_complexity)]
    panic: Mutex<Option<(usize, Box<dyn Any + Send + 'static>)>>,
}

impl ScopeSync {
    fn new() -> Self {
        ScopeSync { pending: Mutex::new(0), done: Condvar::new(), panic: Mutex::new(None) }
    }

    /// Records a panic payload, keeping the one with the lowest spawn index
    /// so the propagated panic does not depend on scheduling order.
    fn record_panic(&self, index: usize, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().expect("panic slot poisoned");
        if slot.as_ref().is_none_or(|(held, _)| index < *held) {
            *slot = Some((index, payload));
        }
    }
}

/// A spawn handle tied to one [`ThreadPool::scope`] invocation. Closures
/// spawned through it may borrow from the enclosing environment: the scope
/// blocks until every spawned task has completed before returning.
pub struct Scope<'env> {
    pool: &'env ThreadPool,
    sync: Arc<ScopeSync>,
    spawned: AtomicUsize,
    /// Invariant over `'env`, mirroring crossbeam/std scoped threads: keeps
    /// the borrow checker from shortening the environment lifetime.
    _marker: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a task on the pool. On a 1-thread pool the task runs inline,
    /// immediately — the serial fallback path.
    ///
    /// Panics inside the task are caught and re-raised from the enclosing
    /// [`ThreadPool::scope`] call after all tasks finish; when several tasks
    /// panic, the one spawned earliest wins.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        let index = self.spawned.fetch_add(1, Ordering::Relaxed);
        if self.pool.shared.queues.is_empty() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                self.sync.record_panic(index, payload);
            }
            return;
        }
        {
            let mut pending = self.sync.pending.lock().expect("pending poisoned");
            *pending += 1;
        }
        let sync = Arc::clone(&self.sync);
        let wrapped = move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                sync.record_panic(index, payload);
            }
            let mut pending = sync.pending.lock().expect("pending poisoned");
            *pending -= 1;
            if *pending == 0 {
                sync.done.notify_all();
            }
        };
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: lifetime erasure `'env → 'static`, sound on two grounds.
        //
        // Scope outlives the task: `pending` was incremented above, before
        // the task becomes reachable by any worker, and is decremented only
        // after the closure has returned (or its panic was captured). Every
        // path out of `ThreadPool::scope` — normal return, task panic, or a
        // panic in the scope body itself — runs `wait_scope`, which blocks
        // the caller until `pending` is zero again. The `'env` borrows the
        // closure captures are borrows of that caller's environment, so they
        // remain live for strictly longer than any point at which the task
        // can execute; no worker can observe a dangling `'env` reference.
        // (`Scope` is invariant over `'env` via its PhantomData, so the
        // borrow checker cannot shorten the environment region under us.)
        //
        // Representation: the transmute only changes the *lifetime bound* of
        // the trait object, `Box<dyn FnOnce() + Send + 'env>` to
        // `Box<dyn FnOnce() + Send + 'static>`. Both are fat pointers of
        // identical layout — (data pointer, vtable pointer) — and the
        // vtable is for the same underlying closure type; lifetimes have no
        // runtime representation, so the bit pattern is reinterpreted, not
        // altered.
        let task: Task = unsafe { std::mem::transmute(task) };
        self.pool.push_task(task);
    }
}

/// A fixed-size pool of worker threads with per-worker work-stealing deques.
///
/// See the [crate docs](crate) for the determinism guarantee and the design
/// notes. Pools are cheap enough to build in tests (`ThreadPool::new(8)`);
/// production call sites share the [`global()`] pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    next_queue: AtomicUsize,
}

impl ThreadPool {
    /// Creates a pool with the given total parallelism. `threads` counts the
    /// caller: a pool of `n` spawns `n − 1` background workers, and the
    /// thread that opens a scope participates in executing tasks. `0` is
    /// treated as `1` (a pure serial pool with no workers).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let worker_count = threads - 1;
        let shared = Arc::new(Shared {
            queues: (0..worker_count).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pim-runtime-{me}"))
                    .spawn(move || worker_loop(shared, me))
                    .expect("failed to spawn pim-runtime worker")
            })
            .collect();
        ThreadPool { shared, workers, threads, next_queue: AtomicUsize::new(0) }
    }

    /// Total parallelism of the pool (including the scope-opening caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when the pool runs everything inline on the caller (one
    /// thread, no workers) — the serial fallback path.
    pub fn is_serial(&self) -> bool {
        self.workers.is_empty()
    }

    fn push_task(&self, task: Task) {
        let n = self.shared.queues.len();
        let qi = self.next_queue.fetch_add(1, Ordering::Relaxed) % n;
        self.shared.queues[qi].lock().expect("queue poisoned").push_back(task);
        self.shared.queued.fetch_add(1, Ordering::AcqRel);
        // Lock/unlock the idle mutex before notifying so a worker that just
        // found the queues empty is already parked in `wait` and cannot miss
        // the notification.
        drop(self.shared.idle.lock().expect("idle mutex poisoned"));
        self.shared.wake.notify_all();
    }

    /// Opens a scope whose spawned tasks may borrow from the caller's
    /// environment. Blocks until every task spawned inside has finished; the
    /// calling thread helps execute queued tasks while it waits. The first
    /// (lowest spawn index) task panic, if any, is re-raised here.
    pub fn scope<'env, R>(&'env self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            sync: Arc::new(ScopeSync::new()),
            spawned: AtomicUsize::new(0),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always drain before unwinding anything: tasks may borrow from the
        // environment that is about to unwind away.
        self.wait_scope(&scope.sync);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some((_, payload)) = scope.sync.panic.lock().expect("poisoned").take() {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Blocks until the scope's pending count reaches zero, executing queued
    /// tasks on the calling thread while waiting.
    ///
    /// Completion is checked **before** each steal: once this scope's own
    /// tasks are done the wait returns promptly instead of picking up an
    /// unrelated (possibly long) queued task — a nested scope inside a task
    /// must not serially absorb its siblings' work on the way out.
    fn wait_scope(&self, sync: &ScopeSync) {
        loop {
            if *sync.pending.lock().expect("pending poisoned") == 0 {
                return;
            }
            if let Some(task) = self.shared.find_task(usize::MAX) {
                task();
                continue;
            }
            let pending = sync.pending.lock().expect("pending poisoned");
            if *pending == 0 {
                return;
            }
            // Our remaining tasks are running on workers; sleep until the
            // count drops (timeout only to re-try stealing defensively).
            let (pending, _) = sync
                .done
                .wait_timeout(pending, Duration::from_millis(1))
                .expect("pending poisoned");
            if *pending == 0 {
                return;
            }
        }
    }

    /// Maps `f` over `items` in parallel, collecting results **by input
    /// index**: the output is bit-identical to
    /// `items.iter().enumerate().map(..).collect()` for every thread count.
    /// `f` receives `(index, &item)`.
    ///
    /// Work is split into contiguous chunks (about four per thread) that are
    /// executed work-stealingly; a panic inside `f` is re-raised on the
    /// caller after the whole map completes.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = items.len().div_ceil(self.threads * 4).max(1);
        self.collect_chunks(items, chunk, |base, part| {
            part.iter().enumerate().map(|(k, t)| f(base + k, t)).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Splits `items` into fixed-size chunks of `chunk_size` (the last chunk
    /// may be shorter), evaluates `f` on each chunk in parallel, and returns
    /// the per-chunk accumulators **in chunk order**.
    ///
    /// The chunk boundaries depend only on `chunk_size` — never on the
    /// thread count — so a reduction over the returned accumulators, folded
    /// left to right, is bit-identical on every machine and thread count.
    /// `f` receives `(start_index, chunk)` where `start_index` is the index
    /// of the chunk's first item in `items`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn par_chunks<T, A, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<A>
    where
        T: Sync,
        A: Send,
        F: Fn(usize, &[T]) -> A + Sync,
    {
        assert!(chunk_size > 0, "par_chunks requires a positive chunk size");
        if self.is_serial() || items.len() <= chunk_size {
            return items
                .chunks(chunk_size)
                .enumerate()
                .map(|(c, p)| f(c * chunk_size, p))
                .collect();
        }
        self.collect_chunks(items, chunk_size, f)
    }

    /// Shared chunked fan-out: spawns one task per `chunk_size` slice of
    /// `items` and returns the per-chunk results sorted back into chunk
    /// order.
    fn collect_chunks<T, A, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<A>
    where
        T: Sync,
        A: Send,
        F: Fn(usize, &[T]) -> A + Sync,
    {
        let n_chunks = items.len().div_ceil(chunk_size);
        let slots: Mutex<Vec<(usize, A)>> = Mutex::new(Vec::with_capacity(n_chunks));
        self.scope(|s| {
            for (ci, part) in items.chunks(chunk_size).enumerate() {
                let f = &f;
                let slots = &slots;
                s.spawn(move || {
                    let acc = f(ci * chunk_size, part);
                    slots.lock().expect("slots poisoned").push((ci, acc));
                });
            }
        });
        let mut slots = slots.into_inner().expect("slots poisoned");
        debug_assert_eq!(slots.len(), n_chunks);
        slots.sort_unstable_by_key(|(ci, _)| *ci);
        slots.into_iter().map(|(_, acc)| acc).collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.idle.lock());
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide shared pool, created on first use.
///
/// Its size comes from the `PIM_THREADS` environment variable when it parses
/// as a positive integer (`PIM_THREADS=1` forces the serial fallback path in
/// every wired call site; `0` and garbage are ignored), otherwise from
/// [`std::thread::available_parallelism`]. The variable is read once — set
/// it before the first parallel call.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads(std::env::var("PIM_THREADS").ok())))
}

/// Thread-count policy behind [`global()`], separated for unit testing.
fn default_threads(env_value: Option<String>) -> usize {
    match env_value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, usize::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_is_ordered_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, x)| x * 3 + i as u64).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let got = pool.par_map(&items, |i, &x| x * 3 + i as u64);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_boundaries_do_not_depend_on_threads() {
        let items: Vec<f64> = (0..100).map(|k| (k as f64) * 0.25 - 3.0).collect();
        let serial = ThreadPool::new(1)
            .par_chunks(&items, 7, |start, c| (start, c.iter().fold(0.0f64, |a, &b| a + b * b)));
        for threads in [2, 8] {
            let pool = ThreadPool::new(threads);
            let parallel = pool.par_chunks(&items, 7, |start, c| {
                (start, c.iter().fold(0.0f64, |a, &b| a + b * b))
            });
            assert_eq!(parallel.len(), serial.len());
            for ((sa, xa), (sb, xb)) in serial.iter().zip(&parallel) {
                assert_eq!(sa, sb);
                assert_eq!(xa.to_bits(), xb.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn par_chunks_rejects_zero_chunk() {
        ThreadPool::new(2).par_chunks(&[1, 2, 3], 0, |_, c| c.len());
    }

    #[test]
    fn scope_tasks_borrow_the_environment() {
        let pool = ThreadPool::new(4);
        let data: Vec<usize> = (0..64).collect();
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for part in data.chunks(5) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(part.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 63 / 2);
    }

    #[test]
    fn panics_propagate_with_the_lowest_spawn_index() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for k in 0..16 {
                        s.spawn(move || {
                            if k % 2 == 1 {
                                panic!("task {k} failed");
                            }
                        });
                    }
                });
            }));
            let payload = result.expect_err("scope must propagate the panic");
            let message = payload.downcast_ref::<String>().expect("string payload");
            assert_eq!(message, "task 1 failed", "threads={threads}");
        }
    }

    #[test]
    fn par_map_panic_reaches_the_caller() {
        let pool = ThreadPool::new(3);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&[1u32, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
                assert!(x != 5, "bad item");
                x
            })
        }));
        assert!(result.is_err());
        // The pool survives a panicked map and stays usable.
        assert_eq!(pool.par_map(&[1u32, 2], |_, &x| x + 1), vec![2, 3]);
    }

    #[test]
    fn nested_scopes_make_progress() {
        let pool = ThreadPool::new(2);
        let outer: Vec<usize> = (0..8).collect();
        let result = pool.par_map(&outer, |_, &k| {
            // A nested par_map on the same pool from inside a task: the
            // waiting thread participates, so this cannot deadlock.
            let inner: Vec<usize> = (0..k + 1).collect();
            pool.par_map(&inner, |_, &j| j).into_iter().sum::<usize>()
        });
        let expected: Vec<usize> = outer.iter().map(|&k| k * (k + 1) / 2).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.par_map(&empty, |_, &x| x).is_empty());
        assert!(pool.par_chunks(&empty, 3, |_, c| c.len()).is_empty());
        assert_eq!(pool.par_map(&[9u8], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn thread_count_policy() {
        assert_eq!(default_threads(Some("4".into())), 4);
        assert_eq!(default_threads(Some(" 2 ".into())), 2);
        assert_eq!(default_threads(Some("1".into())), 1);
        let auto = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(default_threads(Some("0".into())), auto);
        assert_eq!(default_threads(Some("lots".into())), auto);
        assert_eq!(default_threads(None), auto);
        assert!(global().threads() >= 1);
        assert_eq!(ThreadPool::new(0).threads(), 1);
        assert!(ThreadPool::new(1).is_serial());
        assert!(!ThreadPool::new(2).is_serial());
    }
}
