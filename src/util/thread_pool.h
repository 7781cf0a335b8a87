// Persistent fork-join thread pool — the process-wide parallel runtime.
//
// The seed implementation spawned and joined fresh std::threads on every
// ParallelFor call, which costs ~10-100us per call and dominates short
// data-parallel regions (one BP sweep over a city graph is itself only a few
// hundred microseconds). This pool is created once, its workers park on a
// condition variable between regions, and a region costs one publish, a few
// wakeups and two atomic counters.
//
// Design:
//   * The pool runs one blocking region at a time. The caller takes the
//     region mutex, publishes a shared region and a helper count under the
//     pool mutex, wakes that many parked workers, and works too: helpers and
//     caller claim chunk indices from the region's atomic cursor. The caller
//     waits until every chunk is done, then clears the region. Workers never
//     spin while parked.
//   * Chunk boundaries depend only on (n, num_chunks), never on timing, so
//     any per-index-deterministic callback yields identical results for
//     every thread count and every interleaving.
//   * A region runs inline on the calling thread when that thread is
//     already inside a region of this pool (a worker, or the caller inside
//     one of its own chunks): blocking there would deadlock the outer
//     region. It also runs inline when another thread holds the pool
//     (two serving threads sharing Global()); inline regions use the same
//     chunk boundaries, so results stay bitwise equal.
//   * The first exception thrown by a callback is captured, remaining chunks
//     are abandoned (claimed but not executed), and the exception is
//     rethrown on the calling thread once the region completes.

#ifndef TRENDSPEED_UTIL_THREAD_POOL_H_
#define TRENDSPEED_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace trendspeed {

class ThreadPool {
 public:
  /// Worker count of a pool that runs every region serially on the calling
  /// thread.
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

  /// Runs fn(chunk, begin, end) over exactly min(num_chunks, n) equal
  /// contiguous chunks covering [0, n) (fewer when ceil division leaves
  /// trailing chunks empty). Blocks until every chunk completed; the
  /// calling thread works too. The chunk index is deterministic (chunk
  /// boundaries depend only on n and num_chunks), which lets callers do
  /// ordered per-chunk reductions — e.g. argmax with lowest-index
  /// tie-breaking. Rethrows the first exception a callback threw.
  void ParallelForChunked(
      size_t n, size_t num_chunks,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

  /// Attaches (or, with nullptr, detaches) a metrics registry. Registers the
  /// trendspeed_pool_* series (obs/catalog.h) and starts recording helper
  /// joins and their wait/run latency histograms. Detached (the default)
  /// a region pays one relaxed load + branch per record site. Safe to call
  /// while regions run; the registry must outlive the pool or a subsequent
  /// detach.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct Region;

  void WorkerLoop();

  // Held by the caller for the whole of a region: one region at a time.
  std::mutex region_mu_;
  // Guards region_, helpers_wanted_ and stop_; workers park on cv_.
  std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<Region> region_;
  size_t helpers_wanted_ = 0;  // workers still to join region_
  bool stop_ = false;

  // Metric handles; all null while no registry is attached. Individually
  // atomic so AttachMetrics is safe concurrently with running regions.
  std::atomic<obs::Counter*> m_tasks_{nullptr};
  std::atomic<obs::Histogram*> m_task_wait_us_{nullptr};
  std::atomic<obs::Histogram*> m_task_run_us_{nullptr};

  // Last: workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_UTIL_THREAD_POOL_H_
