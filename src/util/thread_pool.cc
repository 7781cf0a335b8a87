#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <utility>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "obs/flight.h"
#include "util/parallel.h"

namespace trendspeed {

namespace {

// Identifies the pool (if any) the current thread is a worker of, so
// parallel regions entered from inside a worker run inline instead of
// blocking a cooperating runner, and nested submissions land on the
// worker's own queue.
thread_local ThreadPool* tl_worker_pool = nullptr;
thread_local size_t tl_worker_index = 0;

// Shared bookkeeping of one blocking parallel region. Runners claim chunk
// indices from `cursor`; every claimed chunk is counted in `done` whether it
// ran or was abandoned after a failure, so the caller's wait on
// done == num_chunks guarantees no runner will touch `fn` afterwards (which
// is why storing a pointer to the caller's std::function is safe).
struct RegionState {
  const std::function<void(size_t chunk, size_t begin, size_t end)>* fn;
  size_t n = 0;
  size_t chunk_size = 0;
  size_t num_chunks = 0;
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> done{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex mu;
  std::condition_variable cv;
};

void RunRegion(const std::shared_ptr<RegionState>& state) {
  for (;;) {
    size_t c = state->cursor.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->num_chunks) return;
    if (!state->failed.load(std::memory_order_acquire)) {
      size_t begin = c * state->chunk_size;
      size_t end = std::min(state->n, begin + state->chunk_size);
      try {
        (*state->fn)(c, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->first_error) state->first_error = std::current_exception();
        state->failed.store(true, std::memory_order_release);
      }
    }
    size_t finished = state->done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (finished == state->num_chunks) {
      // Lock pairs with the caller's predicate check so the final notify
      // cannot slip between its predicate test and its wait.
      std::lock_guard<std::mutex> lock(state->mu);
      state->cv.notify_all();
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  if (num_workers == kAutoWorkers) {
    size_t hw = EffectiveThreads(0);
    num_workers = hw > 0 ? hw - 1 : 0;
  }
  queues_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(kAutoWorkers);
  return pool;
}

bool ThreadPool::InWorker() const { return tl_worker_pool == this; }

void ThreadPool::AttachMetrics(obs::MetricsRegistry* registry) {
  // Null registry clears every handle via the null-safe Get* helpers.
  if (registry != nullptr) {
    obs::Set(registry->GetGauge(obs::kPoolWorkers),
             static_cast<double>(workers_.size()));
  }
  m_tasks_.store(obs::GetCounter(registry, obs::kPoolTasksTotal),
                 std::memory_order_release);
  m_steals_.store(obs::GetCounter(registry, obs::kPoolStealsTotal),
                  std::memory_order_release);
  m_queue_depth_.store(obs::GetGauge(registry, obs::kPoolQueueDepth),
                       std::memory_order_release);
  m_task_wait_us_.store(obs::GetHistogram(registry, obs::kPoolTaskWaitUs),
                        std::memory_order_release);
  m_task_run_us_.store(obs::GetHistogram(registry, obs::kPoolTaskRunUs),
                       std::memory_order_release);
}

void ThreadPool::Submit(std::function<void()> task) {
  // Instrumented only while a registry is attached: the wrapper allocation
  // and clock reads never touch the detached path.
  obs::Counter* tasks = m_tasks_.load(std::memory_order_relaxed);
  obs::Histogram* wait_us = m_task_wait_us_.load(std::memory_order_relaxed);
  obs::Histogram* run_us = m_task_run_us_.load(std::memory_order_relaxed);
  if (tasks != nullptr || wait_us != nullptr || run_us != nullptr) {
    uint64_t enqueue_ns = obs::MonotonicNanos();
    task = [tasks, wait_us, run_us, enqueue_ns,
            inner = std::move(task)] {
      obs::Add(tasks);
      obs::Observe(wait_us, static_cast<double>(obs::ElapsedNanosSince(
                                enqueue_ns)) * 1e-3);
      uint64_t start_ns = obs::MonotonicNanos();
      inner();
      obs::Observe(run_us, static_cast<double>(obs::ElapsedNanosSince(
                               start_ns)) * 1e-3);
    };
  }
  if (workers_.empty()) {
    task();
    return;
  }
  // Nested submission lands on the submitting worker's own queue (idle
  // siblings steal it if this worker stays busy); external submission
  // round-robins across queues.
  size_t q = tl_worker_pool == this
                 ? tl_worker_index
                 : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                       queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    depth = ++pending_;
  }
  obs::Set(m_queue_depth_.load(std::memory_order_relaxed),
           static_cast<double>(depth));
  sleep_cv_.notify_one();
}

bool ThreadPool::TryRunOneTask(size_t self) {
  std::function<void()> task;
  {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());  // LIFO: cache-warm
      own.tasks.pop_back();
    }
  }
  if (!task) {
    size_t count = queues_.size();
    for (size_t i = 1; i < count && !task; ++i) {
      Queue& victim = *queues_[(self + i) % count];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());  // FIFO: steal the oldest
        victim.tasks.pop_front();
      }
    }
    if (task) obs::Add(m_steals_.load(std::memory_order_relaxed));
  }
  if (!task) return false;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    depth = --pending_;
  }
  obs::Set(m_queue_depth_.load(std::memory_order_relaxed),
           static_cast<double>(depth));
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  tl_worker_pool = this;
  tl_worker_index = self;
  // Name this worker's flight-recorder ring (and its Chrome-trace thread
  // row) after its pool slot, before any task can record a span from here.
  char label[32];
  std::snprintf(label, sizeof(label), "pool-%zu", self);
  obs::SetFlightThreadLabel(label);
  for (;;) {
    if (TryRunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_ && pending_ == 0) return;
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& fn,
                             size_t max_concurrency) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  std::function<void(size_t, size_t, size_t)> chunked =
      [&fn](size_t, size_t begin, size_t end) { fn(begin, end); };
  RunChunked(n, grain, (n + grain - 1) / grain, chunked, max_concurrency);
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
  RunChunked(n, chunk_size, num_chunks, fn, 0);
}

void ThreadPool::RunChunked(
    size_t n, size_t chunk_size, size_t num_chunks,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn,
    size_t max_concurrency) {
  if (num_chunks <= 1 || workers_.empty() || InWorker()) {
    // Inline: single chunk, no workers to hand off to, or we *are* a worker
    // (blocking here would deadlock the outer region's runner set).
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t begin = c * chunk_size;
      fn(c, begin, std::min(n, begin + chunk_size));
    }
    return;
  }
  auto state = std::make_shared<RegionState>();
  state->fn = &fn;
  state->n = n;
  state->chunk_size = chunk_size;
  state->num_chunks = num_chunks;
  size_t helpers = std::min(workers_.size(), num_chunks - 1);
  if (max_concurrency > 0) {
    helpers = std::min(helpers, max_concurrency - 1);
  }
  for (size_t i = 0; i < helpers; ++i) {
    Submit([state] { RunRegion(state); });
  }
  RunRegion(state);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->num_chunks;
    });
  }
  if (state->first_error) std::rethrow_exception(state->first_error);
}

}  // namespace trendspeed
