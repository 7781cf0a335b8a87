// Parallel-runtime scaling bench: BP inference and greedy seed selection
// on a >= 50k-segment synthetic network, timed at 1/2/4/8 threads, plus
// the served one-sweep BP across network sizes at 1/2/4 threads (where
// the pool starts to pay for itself).
//
// Unlike the table/figure benches this one emits machine-readable JSON on
// stdout so BENCH_*.json trajectories can accumulate across machines and
// revisions. Correctness is asserted inline: every thread count must produce
// the single-thread marginals (bitwise, reported as max |diff|) and the
// single-thread seed sets (exactly).
//
// Flags:
//   --smoke   tiny instance + fewer thread counts; seconds instead of
//             minutes, used by the `perf`-labelled CTest smoke entry.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_hardware.h"
#include "seed/greedy.h"
#include "seed/lazy_greedy.h"
#include "seed/objective.h"
#include "trend/belief_propagation.h"
#include "trend/bp_kernel.h"
#include "trend/factor_graph.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

struct ScalingConfig {
  size_t rows = 230;
  size_t cols = 220;  // 50600 segments
  size_t greedy_k = 64;
  size_t lazy_k = 256;
  size_t cover_size = 24;
  int reps = 3;
  std::vector<uint32_t> threads = {1, 2, 4, 8};
  /// Served-BP size sweep: grid shapes (4,096 to 102,400 roads), threads,
  /// and repetitions per point (a sweep of a small grid takes tens of µs).
  std::vector<std::pair<size_t, size_t>> sweep_grids = {
      {64, 64}, {128, 128}, {200, 198}, {230, 220}, {320, 320}};
  std::vector<uint32_t> sweep_threads = {1, 2, 4};
  int sweep_reps = 31;
};

// Grid-structured associative MRF: the shape correlation mining produces
// (sparse, locally coupled), at a size the paper's city networks reach.
BpGraph MakeGridBpGraph(size_t rows, size_t cols, std::vector<double>* pot) {
  size_t n = rows * cols;
  PairwiseMrf mrf(n);
  Rng rng(2026);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      size_t v = r * cols + c;
      double same = rng.Uniform(0.55, 0.95);
      double compat[2][2] = {{same, 1.0 - same}, {1.0 - same, same}};
      if (c + 1 < cols) mrf.AddEdge(v, v + 1, compat);
      if (r + 1 < rows) mrf.AddEdge(v, v + cols, compat);
    }
  }
  pot->resize(2 * n);
  for (size_t v = 0; v < n; ++v) {
    double p = rng.Uniform(0.05, 0.95);
    (*pot)[2 * v] = 1.0 - p;
    (*pot)[2 * v + 1] = p;
  }
  return BpGraph::FromMrf(mrf);
}

// Synthetic influence model: each road covers `cover_size` random roads
// (plus itself at full strength), random variability weights.
InfluenceModel MakeInfluence(const ScalingConfig& cfg) {
  size_t n = cfg.rows * cfg.cols;
  Rng rng(4077);
  std::vector<std::vector<CoverEntry>> covers(n);
  std::vector<double> sigma(n);
  for (size_t j = 0; j < n; ++j) {
    sigma[j] = rng.Uniform(0.05, 1.0);
    auto& cover = covers[j];
    cover.reserve(cfg.cover_size + 1);
    cover.push_back(CoverEntry{static_cast<RoadId>(j), 1.0f});
    for (size_t t = 0; t < cfg.cover_size; ++t) {
      cover.push_back(
          CoverEntry{static_cast<RoadId>(rng.NextIndex(n)),
                     static_cast<float>(rng.Uniform(0.05, 0.9))});
    }
  }
  return InfluenceModel::FromCoverLists(n, std::move(covers),
                                        std::move(sigma));
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  TS_CHECK_EQ(a.size(), b.size());
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

template <typename Fn>
double BestMillis(int reps, const Fn& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

void PrintThreadRow(bool first, uint32_t threads, double ms, double base_ms,
                    double work_items, const char* extra_key,
                    double extra_value) {
  std::printf("%s\n      {\"threads\": %u, \"ms\": %.3f, "
              "\"items_per_sec\": %.0f, \"speedup_vs_1\": %.3f, "
              "\"%s\": %.3g}",
              first ? "" : ",", threads, ms, work_items / (ms / 1e3),
              base_ms / ms, extra_key, extra_value);
}

int Run(const ScalingConfig& cfg) {
  size_t n = cfg.rows * cfg.cols;

  std::printf("{\n");
  std::printf("  \"bench\": \"parallel_scaling\",\n");
  PrintHardwareStamp();
  std::printf("  \"hardware_concurrency\": %zu,\n", EffectiveThreads(0));
  std::printf("  \"segments\": %zu,\n", n);

  // --- BP inference -------------------------------------------------------
  std::vector<double> pot;
  BpGraph graph = MakeGridBpGraph(cfg.rows, cfg.cols, &pot);
  BpOptions bp;  // what served slots run: S = 1
  std::vector<double> serial_marginals;
  std::printf("  \"bp\": {\n    \"iterations\": %u,\n    \"runs\": [",
              bp.max_iters);
  double bp_base_ms = 0.0;
  for (size_t i = 0; i < cfg.threads.size(); ++i) {
    bp.num_threads = cfg.threads[i];
    BpResult result;
    double ms = BestMillis(cfg.reps,
                           [&] { result = InferMarginalsBpFlat(graph, pot, bp); });
    TS_CHECK_EQ(result.message_updates,
                uint64_t{bp.max_iters} * graph.off[graph.num_vars]);
    if (i == 0) {
      bp_base_ms = ms;
      serial_marginals = result.p_up;
    }
    double diff = MaxAbsDiff(serial_marginals, result.p_up);
    TS_CHECK_LT(diff, 1e-9);
    PrintThreadRow(i == 0, cfg.threads[i], ms, bp_base_ms,
                   static_cast<double>(n) * bp.max_iters,
                   "max_abs_diff_vs_1thread", diff);
  }
  std::printf("\n    ]\n  },\n");

  // --- Served BP across sizes: the thread crossover ----------------------
  // kMinParallelVars (trend/bp_kernel.h) runs smaller graphs serially; a
  // grid has about 4 message slots per road.
  std::printf("  \"bp_served_sizes\": {\n    \"iterations\": %u,\n"
              "    \"min_parallel_vars\": %zu,\n    \"sizes\": [",
              bp.max_iters, kMinParallelVars);
  for (size_t g = 0; g < cfg.sweep_grids.size(); ++g) {
    const auto [rows, cols] = cfg.sweep_grids[g];
    std::vector<double> sweep_pot;
    BpGraph sweep_graph = MakeGridBpGraph(rows, cols, &sweep_pot);
    const size_t vars = rows * cols;
    std::printf("%s\n      {\"segments\": %zu, \"slots_per_road\": %.2f, "
                "\"runs\": [",
                g == 0 ? "" : ",", vars,
                static_cast<double>(sweep_graph.off[vars]) / vars);
    std::vector<double> sweep_serial;
    double base_ms = 0.0;
    for (size_t i = 0; i < cfg.sweep_threads.size(); ++i) {
      bp.num_threads = cfg.sweep_threads[i];
      BpResult result;
      double ms = BestMillis(cfg.sweep_reps, [&] {
        result = InferMarginalsBpFlat(sweep_graph, sweep_pot, bp);
      });
      if (i == 0) {
        base_ms = ms;
        sweep_serial = result.p_up;
      }
      double diff = MaxAbsDiff(sweep_serial, result.p_up);
      TS_CHECK_LT(diff, 1e-9);
      std::printf("%s\n        {\"threads\": %u, \"ms\": %.4f, "
                  "\"speedup_vs_1\": %.3f, \"max_abs_diff_vs_1thread\": %.3g}",
                  i == 0 ? "" : ",", cfg.sweep_threads[i], ms, base_ms / ms,
                  diff);
    }
    std::printf("\n      ]}");
  }
  std::printf("\n    ]\n  },\n");

  // --- Seed selection -----------------------------------------------------
  InfluenceModel influence = MakeInfluence(cfg);
  struct Algo {
    const char* name;
    size_t k;
    Result<SeedSelectionResult> (*run)(const InfluenceModel&, size_t,
                                       const SeedSelectionOptions&);
  };
  const Algo algos[] = {
      {"greedy", cfg.greedy_k, SelectSeedsGreedy},
      {"lazy_greedy", cfg.lazy_k, SelectSeedsLazyGreedy},
  };
  for (size_t a = 0; a < 2; ++a) {
    const Algo& algo = algos[a];
    std::printf("  \"%s\": {\n    \"k\": %zu,\n    \"runs\": [", algo.name,
                algo.k);
    std::vector<RoadId> serial_seeds;
    double base_ms = 0.0;
    for (size_t i = 0; i < cfg.threads.size(); ++i) {
      SeedSelectionOptions opts;
      opts.num_threads = cfg.threads[i];
      Result<SeedSelectionResult> result = SeedSelectionResult{};
      double ms =
          BestMillis(cfg.reps, [&] { result = algo.run(influence, algo.k, opts); });
      TS_CHECK(result.ok()) << result.status().ToString();
      if (i == 0) {
        base_ms = ms;
        serial_seeds = result->seeds;
      }
      TS_CHECK(result->seeds == serial_seeds)
          << algo.name << " seed set changed at " << cfg.threads[i]
          << " threads";
      PrintThreadRow(i == 0, cfg.threads[i], ms, base_ms,
                     static_cast<double>(algo.k) * n, "gain_evaluations",
                     static_cast<double>(result->gain_evaluations));
    }
    std::printf("\n    ]\n  }%s\n", a == 0 ? "," : "");
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  trendspeed::ScalingConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.rows = 80;
      cfg.cols = 80;
      cfg.greedy_k = 8;
      cfg.lazy_k = 32;
      cfg.reps = 1;
      cfg.threads = {1, 2};
      cfg.sweep_grids = {{64, 64}};
      cfg.sweep_threads = {1, 2};
      cfg.sweep_reps = 3;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return trendspeed::Run(cfg);
}
