#include "util/thread_pool.h"

#include <algorithm>
#include <cstdint>
#include <exception>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "util/parallel.h"

namespace trendspeed {

namespace {

// The pools whose regions the current thread is inside, innermost first: a
// worker's own pool for its whole life, plus each region the thread is the
// caller of. A region entered on a pool in this chain runs inline; trying
// the pool's region mutex instead would be undefined for its owner.
struct RegionFrame {
  const ThreadPool* pool;
  const RegionFrame* outer;
};
thread_local const RegionFrame* tl_frames = nullptr;

bool InsideRegionOf(const ThreadPool* pool) {
  for (const RegionFrame* f = tl_frames; f != nullptr; f = f->outer) {
    if (f->pool == pool) return true;
  }
  return false;
}

}  // namespace

// Shared bookkeeping of one blocking parallel region. Threads claim chunk
// indices from `cursor`; every claimed chunk is counted in `done` whether it
// ran or was abandoned after a failure, so the caller's wait on
// done == num_chunks guarantees no thread will touch `fn` afterwards (which
// is why storing a pointer to the caller's std::function is safe, and why a
// helper that wakes after the region ended finds nothing left to claim).
struct ThreadPool::Region {
  const std::function<void(size_t chunk, size_t begin, size_t end)>* fn =
      nullptr;
  size_t n = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;
  uint64_t publish_ns = 0;  // set only while metrics are attached
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex mu;  // guards first_error; pairs with cv for the caller's wait
  std::condition_variable cv;

  void RunChunks() {
    for (;;) {
      size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      if (!failed.load(std::memory_order_acquire)) {
        size_t begin = c * chunk_size;
        size_t end = std::min(n, begin + chunk_size);
        try {
          (*fn)(c, begin, end);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_release);
        }
      }
      size_t finished = done.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (finished == num_chunks) {
        // Lock pairs with the caller's predicate check so the final notify
        // cannot slip between its predicate test and its wait.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(size_t num_workers) {
  if (num_workers == kAutoWorkers) {
    size_t hw = EffectiveThreads(0);
    num_workers = hw > 0 ? hw - 1 : 0;
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(kAutoWorkers);
  return pool;
}

void ThreadPool::AttachMetrics(obs::MetricsRegistry* registry) {
  // Null registry clears every handle via the null-safe Get* helpers.
  if (registry != nullptr) {
    obs::Set(registry->GetGauge(obs::kPoolWorkers),
             static_cast<double>(workers_.size()));
    // Registered so scrapes keep the series; a fork-join pool never steals.
    registry->GetCounter(obs::kPoolStealsTotal);
  }
  m_tasks_.store(obs::GetCounter(registry, obs::kPoolTasksTotal),
                 std::memory_order_release);
  m_task_wait_us_.store(obs::GetHistogram(registry, obs::kPoolTaskWaitUs),
                        std::memory_order_release);
  m_task_run_us_.store(obs::GetHistogram(registry, obs::kPoolTaskRunUs),
                       std::memory_order_release);
}

void ThreadPool::WorkerLoop() {
  RegionFrame frame{this, nullptr};
  tl_frames = &frame;
  for (;;) {
    std::shared_ptr<Region> region;
    obs::Counter* tasks = nullptr;
    obs::Histogram* wait_us = nullptr;
    obs::Histogram* run_us = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || helpers_wanted_ > 0; });
      if (stop_) return;
      --helpers_wanted_;
      region = region_;
      // Counted under mu_, so every join of a region is recorded before
      // its caller clears it.
      tasks = m_tasks_.load(std::memory_order_relaxed);
      wait_us = m_task_wait_us_.load(std::memory_order_relaxed);
      run_us = m_task_run_us_.load(std::memory_order_relaxed);
      obs::Add(tasks);
    }
    uint64_t start_ns = 0;
    if (tasks != nullptr) {
      start_ns = obs::MonotonicNanos();
      // publish_ns is 0 when the region was published before the attach.
      if (region->publish_ns != 0) {
        uint64_t waited = start_ns - std::min(start_ns, region->publish_ns);
        obs::Observe(wait_us, static_cast<double>(waited) * 1e-3);
      }
    }
    region->RunChunks();
    if (tasks != nullptr) {
      obs::Observe(run_us, static_cast<double>(obs::ElapsedNanosSince(
                               start_ns)) * 1e-3);
    }
  }
}

void ThreadPool::ParallelForChunked(
    size_t n, size_t num_chunks,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn) {
  if (n == 0) return;
  num_chunks = std::max<size_t>(1, std::min(num_chunks, n));
  size_t chunk_size = (n + num_chunks - 1) / num_chunks;
  // Ceil division can leave trailing empty chunks (e.g. n=10, chunks=7 ->
  // size 2, only 5 non-empty); recompute so every chunk is non-empty.
  num_chunks = (n + chunk_size - 1) / chunk_size;
  std::unique_lock<std::mutex> region_lock(region_mu_, std::defer_lock);
  if (num_chunks == 1 || workers_.empty() || InsideRegionOf(this) ||
      !region_lock.try_lock()) {
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t begin = c * chunk_size;
      fn(c, begin, std::min(n, begin + chunk_size));
    }
    return;
  }
  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->n = n;
  region->chunk_size = chunk_size;
  region->num_chunks = num_chunks;
  if (m_tasks_.load(std::memory_order_relaxed) != nullptr) {
    region->publish_ns = obs::MonotonicNanos();
  }
  size_t helpers = std::min(workers_.size(), num_chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    region_ = region;
    helpers_wanted_ = helpers;
  }
  for (size_t i = 0; i < helpers; ++i) cv_.notify_one();

  RegionFrame frame{this, tl_frames};
  tl_frames = &frame;
  region->RunChunks();  // catches every callback exception
  tl_frames = frame.outer;
  {
    std::unique_lock<std::mutex> lock(region->mu);
    region->cv.wait(lock, [&] {
      return region->done.load(std::memory_order_acquire) ==
             region->num_chunks;
    });
  }
  {
    // Workers not yet woken stay parked instead of joining a finished region.
    std::lock_guard<std::mutex> lock(mu_);
    region_.reset();
    helpers_wanted_ = 0;
  }
  if (region->first_error) std::rethrow_exception(region->first_error);
}

}  // namespace trendspeed
