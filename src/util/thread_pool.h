// Persistent work-stealing thread pool — the process-wide parallel runtime.
//
// The seed implementation spawned and joined fresh std::threads on every
// ParallelFor call, which costs ~10-100us per call and dominates short
// data-parallel regions (one BP sweep over a city graph is itself only a few
// hundred microseconds). This pool is created once, its workers sleep when
// idle, and a parallel region costs two atomic counters plus one wakeup.
//
// Design:
//   * One deque of tasks per worker, each guarded by its own mutex. Submit
//     from outside round-robins across queues; submit from a worker pushes
//     to that worker's own queue (cheap nested submission).
//   * Workers pop their own queue LIFO (cache-warm), steal FIFO from other
//     queues when theirs runs dry, and park on a condition variable when a
//     full sweep finds nothing.
//   * ParallelFor does not enqueue one task per chunk. It enqueues one
//     self-scheduling "runner" per worker; runners (and the calling thread,
//     which always participates) claim chunks from a shared atomic cursor.
//     Chunk boundaries depend only on (n, grain), never on timing, so any
//     per-index-deterministic callback yields identical results for every
//     thread count and every interleaving.
//   * The first exception thrown by a callback is captured, remaining chunks
//     are abandoned (claimed but not executed), and the exception is
//     rethrown on the calling thread once the region completes.
//
// Blocking a worker thread on an inner ParallelFor would deadlock a pool of
// cooperating runners, so parallel regions entered from inside a worker run
// inline on that worker (the outer region already owns the parallelism).

#ifndef TRENDSPEED_UTIL_THREAD_POOL_H_
#define TRENDSPEED_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace trendspeed {

class ThreadPool {
 public:
  /// Worker count of a pool that runs every task inline on the calling
  /// thread: Submit executes immediately and parallel regions are serial.
  static constexpr size_t kInline = 0;
  /// Worker count meaning EffectiveThreads(0) - 1: the calling thread
  /// participates in every parallel region, so hardware concurrency is
  /// reached without oversubscription. What Global() uses.
  static constexpr size_t kAutoWorkers = static_cast<size_t>(-1);

  /// Creates exactly `num_workers` worker threads (kInline for none), or
  /// the automatic count for kAutoWorkers.
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Process-wide pool, created on first use with the default worker count
  /// (honours TRENDSPEED_NUM_THREADS, see EffectiveThreads).
  static ThreadPool& Global();

  /// Enqueues a fire-and-forget task. Safe to call from worker threads
  /// (nested submission). Tasks must not throw; use ParallelFor for
  /// exception-propagating regions.
  void Submit(std::function<void()> task);

  /// Runs fn(begin, end) over contiguous chunks of ~`grain` indices covering
  /// [0, n). Blocks until every chunk completed; the calling thread works
  /// too. Concurrency is additionally capped at `max_concurrency` chunks in
  /// flight (0 = no cap beyond the worker count). Rethrows the first
  /// exception a callback threw.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& fn,
                   size_t max_concurrency = 0);

  /// Runs fn(chunk, begin, end) over exactly min(num_chunks, n) equal
  /// contiguous chunks. The chunk index is deterministic (chunk boundaries
  /// depend only on n and num_chunks), which lets callers do ordered
  /// per-chunk reductions — e.g. argmax with lowest-index tie-breaking.
  void ParallelForChunked(
      size_t n, size_t num_chunks,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

  /// True when called from one of this pool's worker threads.
  bool InWorker() const;

  /// Attaches (or, with nullptr, detaches) a metrics registry. Registers the
  /// trendspeed_pool_* series (obs/catalog.h) and starts recording task
  /// counts, steals, queue depth, and task wait/run latency histograms.
  /// Detached (the default) the hot paths pay one relaxed load + branch per
  /// record site. Safe to call while tasks are in flight; the registry must
  /// outlive the pool or a subsequent Detach.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);
  bool TryRunOneTask(size_t self);
  void RunChunked(
      size_t n, size_t chunk_size, size_t num_chunks,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn,
      size_t max_concurrency);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  size_t pending_ = 0;  // queued tasks, guarded by sleep_mu_
  bool stop_ = false;   // guarded by sleep_mu_
  std::atomic<size_t> next_queue_{0};

  // Metric handles; all null while no registry is attached. Individually
  // atomic so AttachMetrics is safe concurrently with running tasks.
  std::atomic<obs::Counter*> m_tasks_{nullptr};
  std::atomic<obs::Counter*> m_steals_{nullptr};
  std::atomic<obs::Gauge*> m_queue_depth_{nullptr};
  std::atomic<obs::Histogram*> m_task_wait_us_{nullptr};
  std::atomic<obs::Histogram*> m_task_run_us_{nullptr};
};

}  // namespace trendspeed

#endif  // TRENDSPEED_UTIL_THREAD_POOL_H_
