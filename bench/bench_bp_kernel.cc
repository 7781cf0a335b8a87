// BP kernel bench: the served one-sweep schedule (S = 1) on the scalar
// oracle vs the vectorized SoA kernel (trend/bp_kernel.h) on a 100k+
// segment grid MRF, at 1 and 4 threads.
//
// Emits machine-readable JSON on stdout (committed as BENCH_bp_kernel.json)
// with the uniform hardware stamp, so the headline speedup is always read
// together with the ISA and CPU count it was measured on. Correctness is
// asserted inline: both engines run the same sweep and the marginals must
// agree within the kernel's documented 1e-3 tolerance contract.
//
// Flags:
//   --smoke   tiny instance + 1 rep; used by the `perf`-labelled CTest
//             smoke entry.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_hardware.h"
#include "trend/belief_propagation.h"
#include "trend/bp_kernel.h"
#include "trend/factor_graph.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

struct KernelBenchConfig {
  size_t rows = 320;
  size_t cols = 320;  // 102400 segments
  int reps = 5;
  std::vector<uint32_t> threads = {1, 4};
};

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

/// Times one served-schedule run of each engine at `threads` and prints
/// one JSON row, without a trailing separator. Aborts when the SIMD
/// marginals drift more than 1e-3 off the oracle.
void RunServedRow(bool first, const BpGraph& g, const std::vector<double>& pot,
                  uint32_t threads, int reps) {
  const size_t dir_edges = g.off[g.num_vars];
  BpOptions bp;  // the served schedule: S = 1
  bp.num_threads = threads;
  const double work = static_cast<double>(dir_edges) * bp.max_iters;

  BpResult scalar;
  const double scalar_ms = BestMillis(
      reps, [&] { scalar = InferMarginalsBpScalar(g, pot, bp); });
  TS_CHECK_EQ(scalar.message_updates, dir_edges);
  std::printf("%s\n      {\"threads\": %u,\n", first ? "" : ",", threads);
  std::printf("       \"scalar\": {\"ms\": %.3f, \"msg_updates_per_sec\": "
              "%.3g},",
              scalar_ms, work / (scalar_ms / 1e3));
  if (BpSimdKernelAvailable()) {
    BpResult vec;
    const double simd_ms =
        BestMillis(reps, [&] { vec = InferMarginalsBpFlat(g, pot, bp); });
    TS_CHECK_EQ(vec.message_updates, dir_edges);
    const double diff = MaxAbsDiff(scalar.p_up, vec.p_up);
    TS_CHECK_LT(diff, 1e-3) << "SIMD marginals drifted off the oracle";
    std::printf("\n       \"simd\": {\"ms\": %.3f, \"msg_updates_per_sec\": "
                "%.3g},\n",
                simd_ms, work / (simd_ms / 1e3));
    std::printf("       \"speedup\": %.2f,\n", scalar_ms / simd_ms);
    std::printf("       \"max_abs_diff_vs_scalar\": %.3g}", diff);
  } else {
    std::printf("\n       \"simd\": null}");
  }
}

int Run(const KernelBenchConfig& cfg) {
  size_t n = cfg.rows * cfg.cols;
  std::vector<double> pot;
  BpGraph graph = MakeGridBpGraph(cfg.rows, cfg.cols, &pot);

  std::printf("{\n");
  std::printf("  \"bench\": \"bp_kernel\",\n");
  PrintHardwareStamp();
  std::printf("  \"segments\": %zu,\n", n);
  std::printf("  \"directed_edges\": %zu,\n", graph.off[n]);

  // --- served schedule ----------------------------------------------------
  // The default BpOptions sweep count (S = 1), which is the only schedule
  // the SIMD kernel runs: potential normalization, the closed-form sweep
  // and the beliefs pass, against the scalar oracle's general sweep.
  std::printf("  \"served_schedule\": {\n    \"iterations\": %u,\n"
              "    \"runs\": [",
              BpOptions{}.max_iters);
  for (size_t i = 0; i < cfg.threads.size(); ++i) {
    RunServedRow(i == 0, graph, pot, cfg.threads[i], cfg.reps);
  }
  std::printf("\n    ]\n  }\n}\n");
  return 0;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  trendspeed::KernelBenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.rows = 60;
      cfg.cols = 60;
      cfg.reps = 1;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return trendspeed::Run(cfg);
}
