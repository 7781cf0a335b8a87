#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "trend/belief_propagation.h"
#include "trend/factor_graph.h"
#include "util/random.h"

namespace trendspeed {
namespace {

// Chunk count that gives chunks of about `grain` indices.
size_t ChunksOf(size_t n, size_t grain) { return (n + grain - 1) / grain; }

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (size_t grain : {1u, 8u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h = 0;
      pool.ParallelForChunked(n, ChunksOf(n, grain),
                              [&](size_t, size_t begin, size_t end) {
                                for (size_t i = begin; i < end; ++i) ++hits[i];
                              });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "n=" << n << " grain=" << grain << " index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, SingleWorkerPoolStillCorrect) {
  ThreadPool pool(1);
  std::vector<int> out(100, 0);
  pool.ParallelForChunked(out.size(), ChunksOf(out.size(), 3),
                          [&](size_t, size_t begin, size_t end) {
                            for (size_t i = begin; i < end; ++i) {
                              out[i] = static_cast<int>(i);
                            }
                          });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
  // Single-chunk regions run inline on the caller.
  std::atomic<int> count{0};
  pool.ParallelForChunked(5, ChunksOf(5, 100),
                          [&](size_t, size_t begin, size_t end) {
                            count += static_cast<int>(end - begin);
                          });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForChunked(
                   1000, ChunksOf(1000, 10),
                   [&](size_t, size_t begin, size_t) {
                     if (begin >= 500) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> count{0};
  pool.ParallelForChunked(100, ChunksOf(100, 10),
                          [&](size_t, size_t begin, size_t end) {
                            count += static_cast<int>(end - begin);
                          });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SkewedChunkSizesAllComplete) {
  // One chunk carries ~100x the work of the others; one-index chunks let
  // the other threads claim the small ones while one grinds the big one.
  ThreadPool pool(4);
  const size_t n = 64;
  std::vector<double> out(n, 0.0);
  pool.ParallelForChunked(n, n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      size_t iters = (i == 0) ? 2000000 : 20000;
      double acc = 0.0;
      for (size_t t = 1; t <= iters; ++t) acc += 1.0 / static_cast<double>(t);
      out[i] = acc;
    }
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_GT(out[i], 0.0) << "index " << i << " never ran";
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(256);
  for (auto& h : hits) h = 0;
  pool.ParallelForChunked(16, 16, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Inner region entered from inside the outer one runs inline.
      pool.ParallelForChunked(16, 4, [&](size_t, size_t ib, size_t ie) {
        for (size_t j = ib; j < ie; ++j) ++hits[i * 16 + j];
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

// A region entered from one of the caller's own chunks runs on the caller:
// the caller holds the pool, so waiting for helpers there would deadlock.
TEST(ThreadPoolTest, NestedRegionOnCallerRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> caller_chunks{0};
  std::atomic<int> inner_off_caller{0};
  // Helpers may claim every outer chunk before the caller gets one; repeat
  // until the caller has run some.
  for (int attempt = 0; attempt < 1000 && caller_chunks.load() == 0;
       ++attempt) {
    pool.ParallelForChunked(8, 8, [&](size_t, size_t, size_t) {
      if (std::this_thread::get_id() != caller) return;
      ++caller_chunks;
      // Inner chunks long enough that parked helpers would wake and take
      // some if the inner region were published to them.
      pool.ParallelForChunked(64, 8, [&](size_t, size_t, size_t) {
        if (std::this_thread::get_id() != caller) ++inner_off_caller;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      });
    });
  }
  ASSERT_GT(caller_chunks.load(), 0);
  EXPECT_EQ(inner_off_caller.load(), 0);
}

// Two serving threads sharing one pool: whichever cannot take the pool runs
// its region inline, so both make progress and neither loses an index.
TEST(ThreadPoolTest, ConcurrentRegionsFromTwoThreads) {
  ThreadPool pool(3);
  const size_t n = 257;
  const int kRegions = 200;
  std::atomic<int> bad_indices{0};
  std::atomic<int> ready{0};
  auto run = [&] {
    std::vector<std::atomic<int>> hits(n);
    // Start together and make each index cost a little, so the two
    // threads' regions overlap.
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    for (int r = 0; r < kRegions; ++r) {
      for (auto& h : hits) h = 0;
      pool.ParallelForChunked(n, 4, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          volatile double acc = 0.0;
          for (int k = 1; k <= 50; ++k) acc = acc + 1.0 / k;
          ++hits[i];
        }
      });
      for (auto& h : hits) {
        if (h.load() != 1) ++bad_indices;
      }
    }
  };
  std::thread a(run);
  std::thread b(run);
  a.join();
  b.join();
  EXPECT_EQ(bad_indices.load(), 0);
}

TEST(ThreadPoolTest, StressManySmallRegions) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 300; ++round) {
    pool.ParallelForChunked(97, ChunksOf(97, 5),
                            [&](size_t, size_t begin, size_t end) {
                              total += static_cast<long>(end - begin);
                            });
  }
  EXPECT_EQ(total.load(), 300L * 97L);
}

TEST(ThreadPoolTest, ParallelForChunkedIndicesAreDeterministic) {
  ThreadPool pool(4);
  const size_t n = 1003;
  const size_t chunks = 7;
  std::vector<int> owner(n, -1);
  pool.ParallelForChunked(n, chunks, [&](size_t chunk, size_t begin,
                                         size_t end) {
    for (size_t i = begin; i < end; ++i) owner[i] = static_cast<int>(chunk);
  });
  // Boundaries must be the deterministic ceil-division split, independent of
  // which worker ran which chunk.
  size_t chunk_size = (n + chunks - 1) / chunks;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(owner[i], static_cast<int>(i / chunk_size)) << "index " << i;
  }
}

// Parallel BP must agree with serial BP. The sweep is two-phase, so the
// agreement is bitwise for *any* thread count; assert exact equality on a
// graph large enough to cross the parallel threshold.
TEST(ThreadPoolTest, ParallelBpMatchesSerialBitwise) {
  const size_t rows = 72, cols = 72;  // 5184 vars > kMinParallelVars
  const size_t n = rows * cols;
  PairwiseMrf mrf(n);
  Rng rng(99);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      size_t v = r * cols + c;
      double same = rng.Uniform(0.55, 0.9);
      double compat[2][2] = {{same, 1.0 - same}, {1.0 - same, same}};
      if (c + 1 < cols) mrf.AddEdge(v, v + 1, compat);
      if (r + 1 < rows) mrf.AddEdge(v, v + cols, compat);
    }
  }
  for (size_t v = 0; v < n; ++v) {
    mrf.SetPriorUp(v, rng.Uniform(0.1, 0.9));
  }
  BpOptions serial;
  serial.num_threads = 1;
  serial.max_iters = 8;
  BpResult want = InferMarginalsBp(mrf, serial);
  for (uint32_t threads : {2u, 3u, 8u}) {
    BpOptions opts = serial;
    opts.num_threads = threads;
    BpResult got = InferMarginalsBp(mrf, opts);
    ASSERT_EQ(got.p_up.size(), want.p_up.size());
    for (size_t v = 0; v < n; ++v) {
      ASSERT_EQ(got.p_up[v], want.p_up[v])
          << "var " << v << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace trendspeed
