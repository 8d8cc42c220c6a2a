//! A std-only work-stealing thread pool for batch workloads.
//!
//! The paper's economics (Sect. 6) compile every content model to a DFA
//! *once*; this crate amortizes that investment across cores. A
//! [`ThreadPool`] owns a fixed set of workers, each with its own job
//! deque: submitted jobs are distributed round-robin, a worker drains its
//! own deque from the front, and an idle worker steals from the back of
//! its siblings' deques — so an uneven batch (one giant document among
//! many small ones) still keeps every core busy.
//!
//! [`ThreadPool::map`] is the batch primitive the validation pipeline
//! uses: it fans a `Vec` of items out across the workers and returns the
//! results **in input order**, so callers observe exactly the sequential
//! semantics, just faster. Per-worker statistics (jobs executed, steals,
//! queue wait, job latency) are accumulated locally during the batch and
//! flushed to the `obs` metrics registry once at the end — workers never
//! contend on the global registry mid-batch.
//!
//! No external dependencies and no unsafe code: the deques are
//! `Mutex<VecDeque>`s, which for document-sized jobs (microseconds to
//! milliseconds each) are nowhere near contention.
//!
//! # Example
//!
//! ```
//! let pool = pool::ThreadPool::new(4);
//! let squares = pool.map((0u64..100).collect(), |n| n * n);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```
//!
//! # Panics in jobs
//!
//! A panicking job is caught on the worker; the worker survives and keeps
//! serving the pool (the panic is re-raised from [`ThreadPool::map`] on
//! the submitting thread). A wedge of the whole pool by one poisoned
//! document is exactly the failure mode this rules out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Where a worker found the job it is about to run.
struct JobCtx {
    /// Index of the executing worker.
    worker: usize,
    /// Whether the job was stolen from another worker's deque.
    stolen: bool,
    /// When the job was enqueued (for queue-wait accounting).
    queued: Instant,
}

type Job = Box<dyn FnOnce(&JobCtx) + Send + 'static>;

struct Shared {
    /// One deque per worker; `(job, enqueue time)`.
    queues: Vec<Mutex<VecDeque<(Job, Instant)>>>,
    /// Sleep coordination: workers wait here when every deque is empty.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Round-robin submission cursor.
    next: AtomicUsize,
}

impl Shared {
    /// Pops a job for worker `id`: its own deque first (front), then a
    /// steal from a sibling (back), scanning from its right neighbour.
    fn take(&self, id: usize) -> Option<(Job, Instant, bool)> {
        if let Some((job, queued)) = self.queues[id].lock().unwrap().pop_front() {
            return Some((job, queued, false));
        }
        let n = self.queues.len();
        for k in 1..n {
            let victim = (id + k) % n;
            if let Some((job, queued)) = self.queues[victim].lock().unwrap().pop_back() {
                return Some((job, queued, true));
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().unwrap().is_empty())
    }
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    loop {
        if let Some((job, queued, stolen)) = shared.take(id) {
            let ctx = JobCtx {
                worker: id,
                stolen,
                queued,
            };
            // A panicking job must not take the worker down with it; the
            // submitting side notices the missing result and re-raises.
            let _ = catch_unwind(AssertUnwindSafe(|| job(&ctx)));
            continue;
        }
        let guard = shared.sleep.lock().unwrap();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Re-check under the sleep lock: a submitter pushes, then takes
        // this lock to notify, so either we see the job here or we are
        // already waiting when the notification arrives.
        if shared.has_work() {
            continue;
        }
        drop(shared.wake.wait(guard).unwrap());
    }
}

/// Per-worker statistics for one batch, accumulated lock-locally (each
/// worker only ever touches its own slot) and flushed to `obs` once.
struct BatchStats {
    slots: Vec<Mutex<WorkerSlot>>,
}

#[derive(Default)]
struct WorkerSlot {
    jobs: u64,
    steals: u64,
    queue_wait: Vec<Duration>,
    job_time: Vec<Duration>,
}

impl BatchStats {
    fn new(workers: usize) -> BatchStats {
        BatchStats {
            slots: (0..workers).map(|_| Mutex::default()).collect(),
        }
    }

    fn record(&self, ctx: &JobCtx, queue_wait: Duration, job_time: Duration) {
        let mut slot = self.slots[ctx.worker].lock().unwrap();
        slot.jobs += 1;
        slot.steals += ctx.stolen as u64;
        slot.queue_wait.push(queue_wait);
        slot.job_time.push(job_time);
    }

    /// One flush per batch: per-worker counters and histograms land in
    /// the global registry here, not from the hot path.
    fn flush(&self) {
        let metrics = obs::metrics();
        for (worker, slot) in self.slots.iter().enumerate() {
            let slot = slot.lock().unwrap();
            if slot.jobs == 0 {
                continue;
            }
            let worker = worker.to_string();
            let labels: &[(&str, &str)] = &[("worker", &worker)];
            metrics
                .counter_with("pool_jobs_total", "Jobs executed, per worker.", labels)
                .inc_by(slot.jobs);
            metrics
                .counter_with(
                    "pool_steals_total",
                    "Jobs stolen from a sibling's deque, per worker.",
                    labels,
                )
                .inc_by(slot.steals);
            let wait = metrics.histogram_with(
                "pool_queue_wait_seconds",
                "Time a job sat queued before a worker picked it up.",
                labels,
                obs::DURATION_BUCKETS,
            );
            for d in &slot.queue_wait {
                wait.observe_duration(*d);
            }
            let job = metrics.histogram_with(
                "pool_job_seconds",
                "Wall time running one job, per worker.",
                labels,
                obs::DURATION_BUCKETS,
            );
            for d in &slot.job_time {
                job.observe_duration(*d);
            }
        }
    }
}

/// A fixed-size work-stealing thread pool. Dropping the pool blocks
/// until every job already queued has run, then joins the workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|id| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("pool-worker-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    fn push(&self, job: Job) {
        let n = self.threads();
        let i = self.shared.next.fetch_add(1, Ordering::Relaxed) % n;
        self.shared.queues[i]
            .lock()
            .unwrap()
            .push_back((job, Instant::now()));
        // Take the sleep lock before notifying so a worker that found all
        // deques empty but has not yet started waiting cannot miss this.
        let _guard = self.shared.sleep.lock().unwrap();
        self.shared.wake.notify_one();
    }

    /// Runs `f` on some worker, fire-and-forget.
    pub fn execute(&self, f: impl FnOnce() + Send + 'static) {
        self.push(Box::new(move |_ctx| f()));
    }

    /// Applies `f` to every item across the workers and returns the
    /// results **in input order**. Blocks until the whole batch is done.
    ///
    /// When `obs` instrumentation is enabled, per-worker job counts,
    /// steal counts, queue-wait and job-latency histograms are
    /// accumulated during the batch and flushed to the global registry
    /// once, on return.
    ///
    /// # Panics
    /// Re-raises on the calling thread if any job panicked (the workers
    /// themselves survive).
    ///
    /// Do not call `map` from inside a pool job of the same pool: the
    /// nested batch would wait on workers that are all busy waiting.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        self.map_cancellable(items, || false, f)
            .into_iter()
            .map(|r| r.expect("a never-cancelled batch completes every item"))
            .collect()
    }

    /// [`map`](Self::map) with cooperative cancellation: each worker
    /// calls `cancelled` once per item, *before* running `f` on it, and
    /// skips the item (yielding `None` in its slot) when it returns
    /// `true`. Items already running when cancellation is observed finish
    /// normally — jobs are never interrupted mid-document — so the result
    /// is `Some` for every item processed before the cut and `None`
    /// after, still in input order.
    ///
    /// The predicate is deliberately a plain closure rather than a
    /// concrete token type, so this crate stays dependency-free: callers
    /// pass `|| token.is_cancelled()`, `|| Instant::now() >= deadline`,
    /// or a combination.
    ///
    /// # Panics
    /// Re-raises on the calling thread if any job panicked (the workers
    /// themselves survive), exactly like [`map`](Self::map).
    pub fn map_cancellable<T, R, F, C>(&self, items: Vec<T>, cancelled: C, f: F) -> Vec<Option<R>>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
        C: Fn() -> bool + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let batch_span = obs::span!("pool.batch");
        // Captured while the batch span is open, so worker-side spans
        // parent to it — across threads — when the flight recorder flies.
        let trace_ctx = obs::trace::TraceCtx::current();
        let instrument = obs::enabled();
        let stats = Arc::new(BatchStats::new(self.threads()));
        let f = Arc::new(f);
        let cancelled = Arc::new(cancelled);
        let (tx, rx) = mpsc::channel::<(usize, Option<R>)>();
        for (idx, item) in items.into_iter().enumerate() {
            let f = f.clone();
            let cancelled = cancelled.clone();
            let tx = tx.clone();
            let stats = stats.clone();
            self.push(Box::new(move |ctx| {
                let _attach = trace_ctx.attach();
                let result = if cancelled() {
                    None
                } else {
                    if obs::trace::enabled() {
                        // the wait began on the submitting thread; record
                        // it as a completed interval under the batch span
                        obs::trace::complete_from("pool.queue_wait", ctx.queued);
                    }
                    let wait = instrument.then(|| ctx.queued.elapsed());
                    let run_span = obs::span!("pool.run");
                    let result = f(item);
                    // one end-of-job clock read, shared by the trace
                    // record and the job-latency histogram
                    let elapsed = run_span.finish();
                    if let (Some(wait), Some(elapsed)) = (wait, elapsed) {
                        stats.record(ctx, wait, elapsed);
                    }
                    Some(result)
                };
                // The receiver outlives the batch; a send only fails if
                // the submitting thread already panicked, in which case
                // the result is moot.
                let _ = tx.send((idx, result));
            }));
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        for (idx, result) in rx {
            out[idx] = result;
            received += 1;
        }
        let batch_elapsed = batch_span.finish();
        if instrument {
            stats.flush();
            let metrics = obs::metrics();
            metrics
                .counter("pool_batches_total", "Batches run through the pool.")
                .inc();
            if let Some(elapsed) = batch_elapsed {
                metrics
                    .histogram(
                        "pool_batch_seconds",
                        "Wall time for one whole batch.",
                        obs::DURATION_BUCKETS,
                    )
                    .observe_duration(elapsed);
            }
        }
        assert_eq!(
            received, n,
            "a pool job panicked before producing its result"
        );
        out
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let _guard = self.shared.sleep.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map((0u64..257).collect(), |n| n * 2);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 2);
        }
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![1, 2, 3], |n| n + 1), vec![2, 3, 4]);
    }

    #[test]
    fn zero_requested_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![5], |n| n), vec![5]);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.map(Vec::<u8>::new(), |n| n), Vec::<u8>::new());
    }

    #[test]
    fn execute_runs_fire_and_forget_jobs() {
        let pool = ThreadPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let hits = hits.clone();
            pool.execute(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while hits.load(Ordering::SeqCst) < 32 {
            assert!(Instant::now() < deadline, "jobs did not drain");
            thread::yield_now();
        }
    }

    #[test]
    fn uneven_work_is_stolen_not_serialized() {
        // 4 workers, round-robin puts every 4th job on the same deque;
        // one slow job must not make its deque-mates wait behind it.
        let pool = ThreadPool::new(4);
        let start = Instant::now();
        let out = pool.map((0..16).collect::<Vec<usize>>(), |i| {
            if i == 0 {
                thread::sleep(Duration::from_millis(200));
            }
            i
        });
        assert_eq!(out.len(), 16);
        // With stealing the batch is bounded by the one slow job, not by
        // slow + everything that was queued behind it sequentially.
        assert!(
            start.elapsed() < Duration::from_millis(600),
            "batch took {:?}; stealing is not happening",
            start.elapsed()
        );
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0, 1, 2], |n| {
                if n == 1 {
                    panic!("boom");
                }
                n
            })
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        // the pool still works afterwards
        assert_eq!(pool.map(vec![10, 20], |n| n + 1), vec![11, 21]);
    }

    #[test]
    fn map_cancellable_without_cancellation_matches_map() {
        let pool = ThreadPool::new(4);
        let out = pool.map_cancellable((0u64..100).collect(), || false, |n| n * 3);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i as u64 * 3));
        }
    }

    #[test]
    fn map_cancellable_skips_everything_when_already_cancelled() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = ran.clone();
        let out = pool.map_cancellable(
            (0..50).collect::<Vec<u32>>(),
            || true,
            move |n| {
                ran2.fetch_add(1, Ordering::SeqCst);
                n
            },
        );
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(Option::is_none));
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "no job may run after the cut"
        );
    }

    #[test]
    fn mid_batch_cancellation_yields_a_prefix() {
        // a single worker runs the jobs in submission order, so flipping
        // the flag while item 2 runs deterministically skips 3 onward
        let pool = ThreadPool::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        let observed = flag.clone();
        let flipper = flag.clone();
        let out = pool.map_cancellable(
            (0..10).collect::<Vec<u32>>(),
            move || observed.load(Ordering::SeqCst),
            move |n| {
                if n == 2 {
                    flipper.store(true, Ordering::SeqCst);
                }
                n
            },
        );
        assert_eq!(
            out,
            vec![
                Some(0),
                Some(1),
                Some(2),
                None,
                None,
                None,
                None,
                None,
                None,
                None
            ]
        );
    }

    #[test]
    fn batches_from_many_threads_interleave_safely() {
        let pool = Arc::new(ThreadPool::new(4));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let pool = pool.clone();
                thread::spawn(move || {
                    let out = pool.map((0u64..50).collect(), move |n| n + t);
                    assert_eq!(out[49], 49 + t);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
