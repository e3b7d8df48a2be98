//! A fixed-size thread pool with joinable task handles.
//!
//! The paper's architecture dispatches chunk decompression and marker
//! replacement as tasks to a shared pool (the `ThreadPool` / `JoiningThread`
//! classes in Figure 5).  This implementation uses a crossbeam MPMC channel
//! as the work queue and a small one-shot channel per task for the result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use rgz_metrics::{exponential_buckets, names, Counter, Gauge, Histogram, MetricsRegistry};
use rgz_trace::{Stage, TraceSink};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Point-in-time pool occupancy, readable whether or not a metrics registry
/// is attached (the counters below are always maintained; the registry
/// gauges mirror them when one is wired in).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatistics {
    /// Tasks submitted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Tasks currently executing on a worker.
    pub tasks_inflight: u64,
    /// Total tasks ever submitted to this pool.
    pub tasks_submitted: u64,
}

/// Always-on occupancy counters plus the optional registry mirrors.
struct PoolObservers {
    queued: AtomicI64,
    inflight: AtomicI64,
    submitted: AtomicU64,
    queue_depth_gauge: Gauge,
    inflight_gauge: Gauge,
    tasks_total: Counter,
    task_wait_seconds: Histogram,
    metrics: Arc<MetricsRegistry>,
}

impl PoolObservers {
    fn new(metrics: Arc<MetricsRegistry>) -> Self {
        Self {
            queued: AtomicI64::new(0),
            inflight: AtomicI64::new(0),
            submitted: AtomicU64::new(0),
            queue_depth_gauge: metrics.gauge(
                names::POOL_QUEUE_DEPTH,
                "Tasks submitted to the worker pool but not yet started.",
            ),
            inflight_gauge: metrics.gauge(
                names::POOL_TASKS_INFLIGHT,
                "Tasks currently executing on a pool worker.",
            ),
            tasks_total: metrics.counter(
                names::POOL_TASKS_TOTAL,
                "Total tasks submitted to the worker pool.",
            ),
            task_wait_seconds: metrics.histogram(
                names::POOL_TASK_WAIT_SECONDS,
                "Time a task spent queued before a worker picked it up.",
                &exponential_buckets(0.000_05, 4.0, 10),
            ),
            metrics,
        }
    }
}

/// Handle to a value being computed on the pool.
pub struct TaskHandle<T> {
    receiver: Receiver<std::thread::Result<T>>,
}

impl<T> TaskHandle<T> {
    /// Blocks until the task finishes and returns its result.
    ///
    /// Panics if the task itself panicked (propagating the panic payload),
    /// mirroring `std::thread::JoinHandle::join().unwrap()` semantics.
    pub fn wait(self) -> T {
        match self.receiver.recv() {
            Ok(Ok(value)) => value,
            Ok(Err(panic)) => std::panic::resume_unwind(panic),
            Err(_) => panic!("thread pool dropped the task without running it"),
        }
    }

    /// Returns the result if the task already finished.
    pub fn try_wait(&self) -> Option<std::thread::Result<T>> {
        self.receiver.try_recv().ok()
    }

    /// Whether the task has finished (successfully or by panicking).
    pub fn is_finished(&self) -> bool {
        !self.receiver.is_empty()
    }
}

/// A fixed-size worker pool.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    trace: Arc<TraceSink>,
    observers: Arc<PoolObservers>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns `size` worker threads (at least one).
    pub fn new(size: usize) -> Self {
        Self::new_traced(size, TraceSink::shared_disabled())
    }

    /// Spawns `size` worker threads that report queue-wait spans to `trace`.
    pub fn new_traced(size: usize, trace: Arc<TraceSink>) -> Self {
        Self::new_observed(size, trace, MetricsRegistry::shared_disabled())
    }

    /// Spawns `size` worker threads reporting to both `trace` and the live
    /// metrics registry (queue depth / inflight gauges, task-wait histogram).
    pub fn new_observed(size: usize, trace: Arc<TraceSink>, metrics: Arc<MetricsRegistry>) -> Self {
        let size = size.max(1);
        let (sender, receiver) = unbounded::<Job>();
        let workers = (0..size)
            .map(|index| {
                let receiver: Receiver<Job> = receiver.clone();
                std::thread::Builder::new()
                    .name(format!("rgz-worker-{index}"))
                    .spawn(move || {
                        while let Ok(job) = receiver.recv() {
                            job();
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            trace,
            observers: Arc::new(PoolObservers::new(metrics)),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Current queue depth / inflight / submitted counts.
    pub fn statistics(&self) -> PoolStatistics {
        PoolStatistics {
            queue_depth: self.observers.queued.load(Ordering::Relaxed).max(0) as u64,
            tasks_inflight: self.observers.inflight.load(Ordering::Relaxed).max(0) as u64,
            tasks_submitted: self.observers.submitted.load(Ordering::Relaxed),
        }
    }

    /// The metrics registry the pool reports to (the shared disabled one
    /// unless the pool was built with [`ThreadPool::new_observed`]).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.observers.metrics
    }

    /// The sink queue-wait spans are reported to (shared disabled sink when
    /// the pool was built with [`ThreadPool::new`]).
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// Submits a closure and returns a handle to its result.
    pub fn submit<T, F>(&self, task: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (result_sender, result_receiver) = unbounded();
        // One submit timestamp lets the worker record how long the task sat
        // in the queue, as a span and a histogram observation at once; no
        // `Instant::now` unless the sink or the registry is live.
        let submitted =
            (self.trace.is_enabled() || self.observers.metrics.is_enabled()).then(Instant::now);
        let trace = Arc::clone(&self.trace);
        let observers = Arc::clone(&self.observers);
        observers.queued.fetch_add(1, Ordering::Relaxed);
        observers.submitted.fetch_add(1, Ordering::Relaxed);
        observers.queue_depth_gauge.inc();
        observers.tasks_total.inc();
        let job: Job = Box::new(move || {
            observers.queued.fetch_sub(1, Ordering::Relaxed);
            observers.inflight.fetch_add(1, Ordering::Relaxed);
            observers.queue_depth_gauge.dec();
            observers.inflight_gauge.inc();
            if let Some(submitted) = submitted {
                trace.record_span_since(Stage::TaskWait, submitted, &observers.task_wait_seconds);
            }
            let outcome = catch_unwind(AssertUnwindSafe(task));
            observers.inflight.fetch_sub(1, Ordering::Relaxed);
            observers.inflight_gauge.dec();
            // The receiver may have been dropped if the caller lost interest;
            // that is fine, the work is simply discarded.
            let _ = result_sender.send(outcome);
        });
        self.sender
            .as_ref()
            .expect("thread pool already shut down")
            .send(job)
            .expect("worker threads terminated unexpectedly");
        TaskHandle {
            receiver: result_receiver,
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel makes the workers exit their receive loop.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn runs_tasks_and_returns_results() {
        let pool = ThreadPool::new(4);
        let handles: Vec<TaskHandle<usize>> =
            (0..100).map(|i| pool.submit(move || i * i)).collect();
        let results: Vec<usize> = handles.into_iter().map(TaskHandle::wait).collect();
        assert_eq!(results, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_actually_run_in_parallel() {
        let pool = ThreadPool::new(4);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let running = running.clone();
                let peak = peak.clone();
                pool.submit(move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    running.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for handle in handles {
            handle.wait();
        }
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "no observable parallelism"
        );
    }

    #[test]
    fn zero_size_is_clamped_to_one_worker() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.submit(|| 7u32).wait(), 7);
    }

    #[test]
    fn panicking_tasks_propagate_on_wait() {
        let pool = ThreadPool::new(2);
        let handle = pool.submit(|| -> u32 { panic!("task exploded") });
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| handle.wait()));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        assert_eq!(pool.submit(|| 1 + 1).wait(), 2);
    }

    #[test]
    fn is_finished_and_try_wait() {
        let pool = ThreadPool::new(1);
        let handle = pool.submit(|| {
            std::thread::sleep(Duration::from_millis(50));
            42
        });
        assert!(handle.try_wait().is_none() || handle.is_finished());
        assert_eq!(handle.wait(), 42);
    }

    #[test]
    fn traced_pool_records_queue_wait_spans() {
        let trace = Arc::new(rgz_trace::TraceSink::new_enabled());
        let pool = ThreadPool::new_traced(2, Arc::clone(&trace));
        let handles: Vec<_> = (0..10).map(|i| pool.submit(move || i)).collect();
        for handle in handles {
            handle.wait();
        }
        let waits: usize = trace
            .snapshot()
            .iter()
            .flat_map(|track| track.events.iter())
            .filter(|event| {
                matches!(
                    event.kind,
                    rgz_trace::EventKind::Span {
                        stage: rgz_trace::Stage::TaskWait,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(waits, 10, "one queue-wait span per submitted task");
    }

    #[test]
    fn untraced_pool_records_nothing() {
        let pool = ThreadPool::new(2);
        assert!(!pool.trace().is_enabled());
        for handle in (0..4).map(|i| pool.submit(move || i)).collect::<Vec<_>>() {
            handle.wait();
        }
        assert_eq!(pool.trace().event_count(), 0);
    }

    #[test]
    fn pool_statistics_track_queue_and_inflight() {
        let registry = Arc::new(rgz_metrics::MetricsRegistry::new_enabled());
        let pool = ThreadPool::new_observed(
            1,
            rgz_trace::TraceSink::shared_disabled(),
            Arc::clone(&registry),
        );
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let blocker = pool.submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        // One task running, queue another two behind it on the single worker.
        let queued: Vec<_> = (0..2).map(|i| pool.submit(move || i)).collect();
        let stats = pool.statistics();
        assert_eq!(stats.tasks_inflight, 1);
        assert_eq!(stats.queue_depth, 2);
        assert_eq!(stats.tasks_submitted, 3);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge(names::POOL_TASKS_INFLIGHT, &[]), Some(1));
        assert_eq!(snapshot.gauge(names::POOL_QUEUE_DEPTH, &[]), Some(2));
        assert_eq!(snapshot.counter(names::POOL_TASKS_TOTAL, &[]), Some(3));
        block_tx.send(()).unwrap();
        blocker.wait();
        for handle in queued {
            handle.wait();
        }
        let stats = pool.statistics();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.tasks_inflight, 0);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge(names::POOL_QUEUE_DEPTH, &[]), Some(0));
        assert_eq!(snapshot.gauge(names::POOL_TASKS_INFLIGHT, &[]), Some(0));
        assert_eq!(
            snapshot
                .histogram(names::POOL_TASK_WAIT_SECONDS, &[])
                .unwrap()
                .count,
            3
        );
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..50 {
                let counter = counter.clone();
                // Fire-and-forget: handles are dropped immediately.
                let _ = pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        // All submitted tasks ran before drop returned.
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn dropping_fresh_pools_never_hangs() {
        // Workers of a pool dropped right after creation race their first
        // receive against the disconnect; a lost wakeup hangs `drop` in
        // `join`, so the loop runs under a watchdog.
        let (done, finished) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..10_000 {
                drop(ThreadPool::new(2));
            }
            done.send(()).expect("watchdog gone");
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("dropping a thread pool hung");
        cycles.join().expect("pool cycling thread panicked");
    }
}
