// Ingest queue throughput bench, emitted as JSON on stdout (saved as
// BENCH_ingest_throughput.json).
//
// Measures raw MpscBoundedQueue push+pop throughput, the lock-free floor
// the ingest front-end sits on, in three rows:
//
//   * spsc_mops     — one thread pushes until the queue is full, then pops
//                     it empty. No cross-thread handoff: every cell stays
//                     in that thread's cache. An upper bound, not a
//                     serving shape.
//   * mpsc_1p_mops  — one producer thread and one consumer thread. Every
//                     item crosses cores, but no producers contend for the
//                     tail. The handoff cost alone.
//   * mpsc_mops     — `mpsc_producers` producer threads and one consumer
//                     thread (one CPU is left to the consumer). The
//                     handoff plus producer contention on the tail.
//
// The full front-end loop (offer, flush, snapshot reads) is measured end
// to end by perfbench's crowd_burst workload.
//
// Flags:
//   --smoke   tiny instance, used by the `perf`-labelled CTest smoke entry.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_hardware.h"
#include "core/ingest.h"
#include "util/logging.h"
#include "util/mpsc_queue.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

struct ThroughputConfig {
  size_t queue_items = 2'000'000;
  size_t queue_capacity = 4096;
};

double QueueMopsSingleProducer(const ThroughputConfig& cfg) {
  MpscBoundedQueue<QueuedObservation> q(cfg.queue_capacity);
  WallTimer timer;
  size_t popped = 0;
  QueuedObservation item;
  for (size_t i = 0; i < cfg.queue_items; ++i) {
    while (!q.TryPush(QueuedObservation{i, SeedSpeed{0, 50.0}})) {
      while (q.TryPop(&item)) ++popped;
    }
  }
  while (q.TryPop(&item)) ++popped;
  double secs = timer.ElapsedSeconds();
  TS_CHECK_EQ(popped, cfg.queue_items);
  return static_cast<double>(cfg.queue_items) / secs / 1e6;
}

double QueueMopsMultiProducer(const ThroughputConfig& cfg, int producers) {
  MpscBoundedQueue<QueuedObservation> q(cfg.queue_capacity);
  const size_t per_producer = cfg.queue_items / producers;
  const size_t total = per_producer * producers;
  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (size_t i = 0; i < per_producer; ++i) {
        while (!q.TryPush(QueuedObservation{
            i, SeedSpeed{static_cast<RoadId>(p), 50.0}})) {
          std::this_thread::yield();
        }
      }
    });
  }
  size_t popped = 0;
  QueuedObservation item;
  while (popped < total) {
    if (q.TryPop(&item)) {
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  for (std::thread& t : threads) t.join();
  double secs = timer.ElapsedSeconds();
  return static_cast<double>(total) / secs / 1e6;
}

int Run(const ThroughputConfig& cfg) {
  std::printf("{\n");
  std::printf("  \"bench\": \"ingest_throughput\",\n");
  PrintHardwareStamp();

  // One CPU is left to the consumer thread, so on two or more CPUs the
  // producers and the consumer never outnumber the cores.
  const int producers =
      std::max(1, std::min(4, static_cast<int>(BenchUsableCpus()) - 1));
  double spsc_mops = QueueMopsSingleProducer(cfg);
  double mpsc_1p_mops = QueueMopsMultiProducer(cfg, 1);
  double mpsc_mops = QueueMopsMultiProducer(cfg, producers);
  std::printf("  \"queue\": {\n");
  std::printf("    \"capacity\": %zu,\n", cfg.queue_capacity);
  std::printf("    \"items\": %zu,\n", cfg.queue_items);
  std::printf("    \"spsc_mops\": %.2f,\n", spsc_mops);
  std::printf("    \"mpsc_1p_mops\": %.2f,\n", mpsc_1p_mops);
  std::printf("    \"mpsc_producers\": %d,\n", producers);
  std::printf("    \"consumer_threads\": 1,\n");
  std::printf("    \"mpsc_mops\": %.2f\n", mpsc_mops);
  std::printf("  }\n}\n");
  return 0;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  trendspeed::ThroughputConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.queue_items = 100'000;
      cfg.queue_capacity = 256;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return trendspeed::Run(cfg);
}
