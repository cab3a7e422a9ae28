//! # pim-runtime
//!
//! A dependency-free (std-only) thread pool with one deterministic
//! data-parallel primitive, [`ThreadPool::par_map`], built for the
//! embarrassingly parallel levels of the macromodeling workflow: independent
//! boards of a `Corpus::run` batch in pim-core, the weighted and the
//! standard enforcement pass of one `Pipeline::report`, independent
//! frequency samples in the passivity assessment grids, and independent
//! per-frequency Gaussian draws in the Monte Carlo sensitivity estimator.
//!
//! ## Determinism guarantee
//!
//! [`ThreadPool::par_map`] collects results **by input index**, so its output
//! is *bit-identical* to the serial evaluation of the same closure, for every
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
//! ```
//!
//! ## Design
//!
//! A pool of `threads` has `threads − 1` persistent background workers and
//! one shared task deque. `par_map` queues its input as contiguous chunks
//! (about four per thread) at the back of the deque; workers take the
//! oldest task, and the calling thread runs tasks while it waits for its
//! chunks, so a `par_map` nested inside a task cannot deadlock. The waiting
//! caller runs its own queued chunks first, newest first; when none is
//! left it takes the newest task nested at least as deeply as its own
//! chunks, never a chunk of an enclosing `par_map`. A whole corpus board
//! taken up while waiting on one board's inner work would keep the caller
//! from its own map long after that work is done, and another board's
//! inner work taken up before its own would leave it waiting on a thread
//! that is busy with the rest of that board. A 1-thread pool
//! has no workers at all and maps inline on the caller (the serial fallback
//! path). A panic inside a chunk is caught, and once every chunk has
//! finished the panic of the lowest-index chunk (so of the lowest-index
//! item) is re-raised on the caller.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A queued chunk of a `par_map` call.
struct Task {
    /// The chunk's work, lifetime-erased to `'static` (see the SAFETY proof
    /// in [`ThreadPool::par_map`]).
    work: Box<dyn FnOnce() + Send + 'static>,
    /// The count of the call's unfinished chunks.
    pending: Arc<AtomicUsize>,
    /// The call's nesting depth (see [`DEPTH`]).
    depth: usize,
}

thread_local! {
    /// Nesting depth of the task this thread runs: 0 outside any task; the
    /// chunks of a `par_map` called at depth `d` run at depth `d + 1`.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The deque and the shutdown flag, guarded together by [`Shared::queue`].
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when tasks are queued, when a `par_map` call's last chunk
    /// finishes, and at shutdown.
    changed: Condvar,
}

impl Shared {
    /// Locks the queue. No code panics while holding the lock (tasks run
    /// outside it), so poisoning is ignored and locking never panics.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        self.changed.wait(queue).unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs a chunk, then counts it finished. The chunk's closure has
    /// returned, and with it every borrow it held, before the count drops;
    /// the last chunk of a call wakes the caller. Taking the lock before
    /// the wake orders it after the check a sleeping caller made under the
    /// lock, so the wake cannot be missed.
    fn run(&self, Task { work, pending, depth }: Task) {
        let outer = DEPTH.replace(depth);
        work();
        DEPTH.set(outer);
        // Release pairs with the Acquire load in `wait_for`: a caller that
        // sees zero also sees every chunk's slot write.
        if pending.fetch_sub(1, Ordering::Release) == 1 {
            drop(self.lock());
            self.changed.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            shared.run(task);
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wait(queue);
        }
    }
}

/// A fixed-size pool of persistent worker threads sharing one task deque.
///
/// See the [crate docs](crate) for the determinism guarantee and the design
/// notes. Pools are cheap enough to build in tests (`ThreadPool::new(8)`);
/// production call sites share the [`global()`] pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with the given total parallelism. `threads` counts the
    /// caller: a pool of `n` spawns `n − 1` background workers, and the
    /// thread that calls [`ThreadPool::par_map`] runs chunks too. `0` is
    /// treated as `1` (a pure serial pool with no workers).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue { tasks: VecDeque::new(), shutdown: false }),
            changed: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pim-runtime-{me}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pim-runtime worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Total parallelism of the pool (including the calling thread).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Maps `f` over `items` in parallel, collecting results **by input
    /// index**: the output is bit-identical to
    /// `items.iter().enumerate().map(..).collect()` for every thread count.
    /// `f` receives `(index, &item)`.
    ///
    /// Work is split into contiguous chunks (about four per thread); the
    /// caller runs its own queued chunks, then other queued chunks nested at
    /// least as deeply, while it waits. A panic inside `f` is re-raised on the caller after every
    /// chunk has finished; when several items panic, the lowest index wins.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.workers.is_empty() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = items.len().div_ceil(self.threads() * 4);
        // One slot per chunk: its results, or the panic that stopped it.
        let slots: Vec<Mutex<Option<std::thread::Result<Vec<R>>>>> =
            items.chunks(chunk).map(|_| Mutex::new(None)).collect();
        let pending = Arc::new(AtomicUsize::new(slots.len()));
        let f = &f;
        let depth = DEPTH.get() + 1;
        let mut tasks: Vec<Task> = Vec::with_capacity(slots.len());
        for (c, (part, slot)) in items.chunks(chunk).zip(&slots).enumerate() {
            let work: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    part.iter().enumerate().map(|(k, t)| f(c * chunk + k, t)).collect()
                }));
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
            // SAFETY: lifetime erasure to `'static`, sound because no
            // chunk can run, or hold a borrow, after `par_map` returns.
            //
            // `work` borrows `f`, its chunk of `items` and its slot, all of
            // which outlive this call. `Shared::run` decrements `pending`
            // only after `work` has returned and dropped those borrows.
            // Every exit from `par_map`, unwinding included, comes after
            // `wait_for` has seen `pending` reach zero: nothing between
            // queuing the chunks and that return can unwind, because
            // `wait_for` runs only chunks built here (each catches the
            // panic of `f`) and the pool's locks ignore poisoning. A chunk
            // dropped unqueued (if building `tasks` unwinds) drops its
            // borrows without using them.
            //
            // Representation: the transmute only changes the lifetime bound
            // of the trait object. Both types are fat pointers of identical
            // layout (data pointer, vtable pointer) to the same closure, and
            // lifetimes have no runtime representation, so the bits are
            // reinterpreted, not altered.
            #[allow(unsafe_code)]
            let work: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(work) };
            tasks.push(Task { work, pending: Arc::clone(&pending), depth });
        }
        self.shared.lock().tasks.extend(tasks);
        self.shared.changed.notify_all();
        self.wait_for(&pending, depth);
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(Ok(part)) => out.extend(part),
                Some(Err(payload)) => resume_unwind(payload),
                None => unreachable!("wait_for returned before every chunk ran"),
            }
        }
        out
    }

    /// Blocks until `pending` reaches zero, running queued tasks on the
    /// calling thread meanwhile: the call's own chunks (those counted by
    /// `pending`) newest first, then the newest task at least `depth` deep,
    /// never a chunk of an enclosing map. It sleeps only while its own
    /// chunks run on other threads. Completion is checked before each take,
    /// so a caller whose chunks are done returns instead of absorbing
    /// unrelated queued work.
    fn wait_for(&self, pending: &AtomicUsize, depth: usize) {
        let mut queue = self.shared.lock();
        while pending.load(Ordering::Acquire) != 0 {
            let tasks = &queue.tasks;
            let next = tasks
                .iter()
                .rposition(|task| std::ptr::eq(Arc::as_ptr(&task.pending), pending))
                .or_else(|| tasks.iter().rposition(|task| task.depth >= depth));
            if let Some(task) = next.and_then(|i| queue.tasks.remove(i)) {
                drop(queue);
                self.shared.run(task);
                queue = self.shared.lock();
            } else {
                queue = self.shared.wait(queue);
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.changed.notify_all();
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
    use std::thread::ThreadId;

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
    fn scope_tasks_borrow_the_environment() {
        let pool = ThreadPool::new(4);
        let data: Vec<usize> = (0..64).collect();
        let parts: Vec<&[usize]> = data.chunks(5).collect();
        let total = AtomicUsize::new(0);
        pool.par_map(&parts, |_, part| {
            total.fetch_add(part.iter().sum::<usize>(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 63 / 2);
    }

    #[test]
    fn panics_propagate_with_the_lowest_spawn_index() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map(&items, |_, &k| {
                    if k % 2 == 1 {
                        panic!("task {k} failed");
                    }
                })
            }));
            let payload = result.expect_err("par_map must propagate the panic");
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
    fn a_waiting_caller_never_takes_up_a_chunk_of_an_enclosing_map() {
        thread_local! {
            static IN_OUTER: Cell<bool> = const { Cell::new(false) };
        }
        let pool = ThreadPool::new(2);
        let stacked = AtomicUsize::new(0);
        let outer: Vec<usize> = (0..16).collect();
        pool.par_map(&outer, |_, _| {
            // An outer chunk that starts while this thread is already inside
            // one was taken up by a waiting nested call.
            if IN_OUTER.replace(true) {
                stacked.fetch_add(1, Ordering::Relaxed);
            }
            let inner: Vec<u64> = (0..4).collect();
            pool.par_map(&inner, |_, _| std::thread::sleep(std::time::Duration::from_millis(1)));
            IN_OUTER.set(false);
        });
        assert_eq!(stacked.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_pool_of_n_runs_every_closure_on_at_most_n_threads() {
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
            let record = || {
                let id = std::thread::current().id();
                let mut seen = seen.lock().expect("seen poisoned");
                if !seen.contains(&id) {
                    seen.push(id);
                }
            };
            let outer: Vec<usize> = (0..32).collect();
            pool.par_map(&outer, |_, &k| {
                record();
                let inner: Vec<usize> = (0..k % 9).collect();
                pool.par_map(&inner, |_, _| record());
            });
            let distinct = seen.lock().expect("seen poisoned").len();
            assert!(distinct <= threads, "threads={threads}: {distinct} OS threads");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.par_map(&empty, |_, &x| x).is_empty());
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
        assert_eq!(ThreadPool::new(3).threads(), 3);
    }
}
