// Warm-start BP replay bench: a multi-slot serving day on a grid MRF,
// cold-started vs warm-started inference.
//
// Each slot perturbs a small fraction of the node potentials (the
// steady-state shape of adjacent time slots: most of the city does not
// change in five minutes) and runs BP twice — once cold (the stateless
// schedule) and once seeded from the previous slot's fixed point through a
// persistent BpState. A third, cold run with the default kernel (kAuto:
// SIMD where the CPU has it) times the baseline a warm start has to beat
// in serving, reported as cold_simd_ms. Emits machine-readable JSON on
// stdout so BENCH_warm_start.json trajectories can accumulate across
// machines and revisions. Correctness is asserted inline: warm marginals must track the
// cold ones within 10x BpOptions::tol on every slot, and the warm replay
// must save at least 30% of the cold replay's total sweeps.
//
// Flags:
//   --smoke   tiny instance + fewer slots; used by the `perf`-labelled
//             CTest smoke entry.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_hardware.h"
#include "trend/belief_propagation.h"
#include "trend/factor_graph.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

struct WarmBenchConfig {
  size_t rows = 120;
  size_t cols = 120;  // 14400 segments
  size_t slots = 48;  // four replayed hours at 5-minute slots
  /// Fraction of variables whose potential is resampled each slot.
  double changed_frac = 0.01;
};

BpGraph MakeGridBpGraph(const WarmBenchConfig& cfg) {
  size_t n = cfg.rows * cfg.cols;
  PairwiseMrf mrf(n);
  Rng rng(2026);
  for (size_t r = 0; r < cfg.rows; ++r) {
    for (size_t c = 0; c < cfg.cols; ++c) {
      size_t v = r * cfg.cols + c;
      // Moderate associative couplings: strong enough to propagate trends,
      // weak enough that loopy BP reaches its fixed point (the cold column
      // must converge for the closeness claim to be well-defined).
      double same = rng.Uniform(0.55, 0.7);
      double compat[2][2] = {{same, 1.0 - same}, {1.0 - same, same}};
      if (c + 1 < cfg.cols) mrf.AddEdge(v, v + 1, compat);
      if (r + 1 < cfg.rows) mrf.AddEdge(v, v + cfg.cols, compat);
    }
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

int Run(const WarmBenchConfig& cfg) {
  size_t n = cfg.rows * cfg.cols;
  BpGraph graph = MakeGridBpGraph(cfg);
  // Production damping/tol, but a sweep budget that lets the cold schedule
  // converge: the 10x-tol closeness claim (and a meaningful sweeps-saved
  // number) is only defined against a converged cold run — the truncated
  // default (max_iters 6) stops wherever its budget ran out.
  BpOptions bp;
  bp.max_iters = 200;
  // The cold and warm columns are scalar-kernel runs; the 10x-tol check
  // compares warm and cold within one kernel.
  bp.kernel = BpKernel::kScalar;
  BpOptions bp_auto = bp;
  bp_auto.kernel = BpKernel::kAuto;

  // Slot 0 potentials; later slots drift `changed_frac` of them by a
  // bounded step — the steady-state shape of adjacent slots (congestion
  // onsets move a neighbourhood's trend odds, they do not resample the
  // whole city).
  Rng rng(4077);
  std::vector<double> p_up(n);
  std::vector<double> pot(2 * n);
  for (size_t v = 0; v < n; ++v) {
    p_up[v] = rng.Uniform(0.05, 0.95);
    pot[2 * v] = 1.0 - p_up[v];
    pot[2 * v + 1] = p_up[v];
  }
  size_t changed_per_slot =
      static_cast<size_t>(static_cast<double>(n) * cfg.changed_frac);

  BpState state;
  uint64_t cold_sweeps = 0, warm_sweeps = 0;
  uint64_t cold_updates = 0, warm_updates = 0;
  double cold_ms = 0.0, warm_ms = 0.0, cold_simd_ms = 0.0;
  double max_diff = 0.0;
  size_t active_sum = 0;

  for (size_t slot = 0; slot < cfg.slots; ++slot) {
    if (slot > 0) {
      for (size_t k = 0; k < changed_per_slot; ++k) {
        size_t v = rng.NextIndex(n);
        double p = p_up[v] + rng.Uniform(-0.15, 0.15);
        p_up[v] = std::min(0.95, std::max(0.05, p));
        pot[2 * v] = 1.0 - p_up[v];
        pot[2 * v + 1] = p_up[v];
      }
    }
    WallTimer cold_timer;
    BpResult cold = InferMarginalsBpFlat(graph, pot, bp);
    cold_ms += cold_timer.ElapsedMillis();
    WallTimer warm_timer;
    BpResult warm = InferMarginalsBpFlat(graph, pot, bp, &state);
    warm_ms += warm_timer.ElapsedMillis();
    WallTimer simd_timer;
    BpResult cold_simd = InferMarginalsBpFlat(graph, pot, bp_auto);
    cold_simd_ms += simd_timer.ElapsedMillis();
    // The scalar-vs-SIMD tolerance contract (tests/bp_kernel_test.cc).
    TS_CHECK_LE(MaxAbsDiff(cold.p_up, cold_simd.p_up), 1e-3)
        << "slot " << slot << ": kAuto marginals left the scalar oracle";

    TS_CHECK(cold.converged) << "slot " << slot
                             << ": raise max_iters, cold must converge";
    cold_sweeps += cold.iterations;
    warm_sweeps += warm.iterations;
    cold_updates += cold.message_updates;
    warm_updates += warm.message_updates;
    if (warm.warm) active_sum += warm.active_vars;
    double diff = MaxAbsDiff(cold.p_up, warm.p_up);
    if (diff > max_diff) max_diff = diff;
    // Slot 0 runs cold in both columns (the state is freshly seeded).
    TS_CHECK_EQ(warm.warm, slot > 0);
    TS_CHECK_LE(diff, 10.0 * bp.tol)
        << "slot " << slot << " warm marginals drifted";
  }

  double sweep_reduction =
      1.0 - static_cast<double>(warm_sweeps) / static_cast<double>(cold_sweeps);
  double update_reduction = 1.0 - static_cast<double>(warm_updates) /
                                      static_cast<double>(cold_updates);
  TS_CHECK_GE(sweep_reduction, 0.30)
      << "warm replay must save >= 30% of the cold replay's sweeps";

  std::printf("{\n");
  std::printf("  \"bench\": \"warm_start\",\n");
  PrintHardwareStamp();
  std::printf("  \"segments\": %zu,\n", n);
  std::printf("  \"slots\": %zu,\n", cfg.slots);
  std::printf("  \"changed_per_slot\": %zu,\n", changed_per_slot);
  std::printf("  \"cold\": {\"sweeps\": %llu, \"message_updates\": %llu, "
              "\"ms\": %.3f},\n",
              static_cast<unsigned long long>(cold_sweeps),
              static_cast<unsigned long long>(cold_updates), cold_ms);
  std::printf("  \"warm\": {\"sweeps\": %llu, \"message_updates\": %llu, "
              "\"ms\": %.3f},\n",
              static_cast<unsigned long long>(warm_sweeps),
              static_cast<unsigned long long>(warm_updates), warm_ms);
  std::printf("  \"cold_simd_ms\": %.3f,\n", cold_simd_ms);
  std::printf("  \"sweep_reduction\": %.4f,\n", sweep_reduction);
  std::printf("  \"message_update_reduction\": %.4f,\n", update_reduction);
  std::printf("  \"mean_active_vars\": %.1f,\n",
              cfg.slots > 1
                  ? static_cast<double>(active_sum) /
                        static_cast<double>(cfg.slots - 1)
                  : 0.0);
  std::printf("  \"max_abs_diff_vs_cold\": %.3g,\n", max_diff);
  std::printf("  \"tol\": %.1g\n", bp.tol);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  trendspeed::WarmBenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.rows = 40;
      cfg.cols = 40;
      cfg.slots = 12;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return trendspeed::Run(cfg);
}
