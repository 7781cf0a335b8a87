// Sharded metropolitan BP engine bench: a multi-district graph past 100k
// segments, flat (unsharded) BP vs the ShardedBpEngine at 2/4/8 shards
// over a replayed serving window with slot-to-slot potential drift.
//
// The engine's latency claim (docs/sharding.md) is *per-slot latency
// bounded by the largest shard* plus cheap boundary-exchange rounds: each
// exchange round solves every shard concurrently, so with one core per
// shard the critical path is max(shard sweep time) x rounds, not the
// whole-city sweep. This container is pinned to one CPU, so wall-clock
// time cannot show the concurrency win (scaling_valid in the hardware
// stamp says whether it could here); what the bench measures instead is
// scheduling-independent and stronger:
//
//   * largest_sweep_ms — the summed per-slot critical path (the slowest
//     shard's solve time each round), i.e. the latency an adequately
//     provisioned deployment would see;
//   * sum_sweep_ms — total solve work across shards, showing the halo
//     exchange adds only a few percent over the flat sweep;
//   * max_abs_diff_vs_flat — inline correctness: sharded marginals must
//     track the converged flat run within 10x BpOptions::tol (asserted).
//
// Emits machine-readable JSON on stdout for BENCH_sharded_engine.json.
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
#include "shard/sharded_bp.h"
#include "trend/belief_propagation.h"
#include "trend/factor_graph.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

struct ShardBenchConfig {
  size_t districts = 8;
  size_t rows = 115;
  size_t cols = 115;  // 8 x 115 x 115 = 105,800 segments
  /// Arterial links between each pair of adjacent districts.
  size_t cross_links = 24;
  size_t slots = 8;
  double changed_frac = 0.01;
  /// The critical-path-beats-flat assertion only holds once shards are big
  /// enough that solve time dominates per-round bookkeeping; the smoke
  /// instance (~2k segments) is below that and skips it.
  bool check_latency = true;
};

// D grid districts in a chain, joined by sparse arterial links — the
// multi-district topology the partitioner is built for: dense inside a
// district, a thin cut between districts.
BpGraph MakeMetroGraph(const ShardBenchConfig& cfg) {
  size_t per = cfg.rows * cfg.cols;
  size_t n = cfg.districts * per;
  PairwiseMrf mrf(n);
  Rng rng(2026);
  for (size_t d = 0; d < cfg.districts; ++d) {
    size_t base = d * per;
    for (size_t r = 0; r < cfg.rows; ++r) {
      for (size_t c = 0; c < cfg.cols; ++c) {
        size_t v = base + r * cfg.cols + c;
        double same = rng.Uniform(0.55, 0.7);
        double compat[2][2] = {{same, 1.0 - same}, {1.0 - same, same}};
        if (c + 1 < cfg.cols) mrf.AddEdge(v, v + 1, compat);
        if (r + 1 < cfg.rows) mrf.AddEdge(v, v + cfg.cols, compat);
      }
    }
    if (d + 1 < cfg.districts) {
      for (size_t k = 0; k < cfg.cross_links; ++k) {
        size_t u = base + rng.NextIndex(per);
        size_t w = base + per + rng.NextIndex(per);
        double same = rng.Uniform(0.55, 0.65);
        double compat[2][2] = {{same, 1.0 - same}, {1.0 - same, same}};
        mrf.AddEdge(u, w, compat);
      }
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

struct ShardColumn {
  uint32_t shards = 0;
  double cut_fraction = 0.0;
  size_t largest_shard_vars = 0;
  double total_ms = 0.0;         // wall clock on this machine
  double largest_sweep_ms = 0.0; // summed per-slot critical paths
  double sum_sweep_ms = 0.0;     // total solve work across shards
  double mean_rounds = 0.0;
  double max_diff = 0.0;
};

int Run(const ShardBenchConfig& cfg) {
  size_t n = cfg.districts * cfg.rows * cfg.cols;
  BpGraph graph = MakeMetroGraph(cfg);
  BpOptions bp;
  bp.max_iters = 200;  // the flat baseline must converge (asserted below)
  bp.kernel = BpKernel::kScalar;  // BENCH_sharded_engine.json is scalar

  // Slot-0 potentials plus per-slot drift, as in bench_warm_start.
  Rng rng(4077);
  std::vector<double> p_up(n);
  std::vector<std::vector<double>> slot_pot;
  {
    std::vector<double> pot(2 * n);
    for (size_t v = 0; v < n; ++v) {
      p_up[v] = rng.Uniform(0.05, 0.95);
      pot[2 * v] = 1.0 - p_up[v];
      pot[2 * v + 1] = p_up[v];
    }
    size_t changed =
        static_cast<size_t>(static_cast<double>(n) * cfg.changed_frac);
    for (size_t slot = 0; slot < cfg.slots; ++slot) {
      if (slot > 0) {
        for (size_t k = 0; k < changed; ++k) {
          size_t v = rng.NextIndex(n);
          double p = p_up[v] + rng.Uniform(-0.15, 0.15);
          p_up[v] = std::min(0.95, std::max(0.05, p));
          pot[2 * v] = 1.0 - p_up[v];
          pot[2 * v + 1] = p_up[v];
        }
      }
      slot_pot.push_back(pot);
    }
  }

  // Flat baseline replay (cold each slot: the latency reference).
  double flat_ms = 0.0;
  std::vector<std::vector<double>> flat_p_up;
  for (size_t slot = 0; slot < cfg.slots; ++slot) {
    WallTimer t;
    BpResult flat = InferMarginalsBpFlat(graph, slot_pot[slot], bp);
    flat_ms += t.ElapsedMillis();
    TS_CHECK(flat.converged) << "flat baseline must converge at slot " << slot;
    flat_p_up.push_back(std::move(flat.p_up));
  }

  std::vector<ShardColumn> columns;
  for (uint32_t shards : {2u, 4u, 8u}) {
    ShardingOptions so;
    so.num_shards = shards;
    so.max_exchange_rounds = 16;
    auto engine = ShardedBpEngine::Build(graph, so);
    TS_CHECK(engine.ok()) << engine.status().ToString();

    ShardColumn col;
    col.shards = shards;
    col.cut_fraction = engine->plan().CutEdgeFraction();
    col.largest_shard_vars = engine->plan().LargestShard();
    std::vector<BpState> states;  // warm across slots, as serving runs it
    uint64_t rounds = 0;
    for (size_t slot = 0; slot < cfg.slots; ++slot) {
      WallTimer t;
      ShardedBpResult r = engine->Infer(slot_pot[slot], bp, &states);
      col.total_ms += t.ElapsedMillis();
      TS_CHECK(r.converged) << shards << " shards, slot " << slot;
      rounds += r.exchange_rounds;
      col.largest_sweep_ms += r.LargestShardSweepMs();
      for (double ms : r.shard_sweep_ms) col.sum_sweep_ms += ms;
      double diff = MaxAbsDiff(r.p_up, flat_p_up[slot]);
      col.max_diff = std::max(col.max_diff, diff);
      TS_CHECK_LE(diff, 10.0 * bp.tol)
          << shards << " shards drifted at slot " << slot;
    }
    col.mean_rounds =
        static_cast<double>(rounds) / static_cast<double>(cfg.slots);
    // The latency claim, measured scheduling-independently: the summed
    // per-slot critical path (largest shard per round) must undercut the
    // flat whole-city replay.
    if (cfg.check_latency) {
      TS_CHECK_LT(col.largest_sweep_ms, flat_ms)
          << shards << " shards: critical path did not beat the flat sweep";
    }
    columns.push_back(col);
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"sharded_engine\",\n");
  PrintHardwareStamp();
  std::printf("  \"segments\": %zu,\n", n);
  std::printf("  \"districts\": %zu,\n", cfg.districts);
  std::printf("  \"cross_links_per_cut\": %zu,\n", cfg.cross_links);
  std::printf("  \"slots\": %zu,\n", cfg.slots);
  std::printf("  \"tol\": %.1g,\n", bp.tol);
  std::printf("  \"flat\": {\"ms\": %.3f},\n", flat_ms);
  std::printf("  \"sharded\": [\n");
  for (size_t i = 0; i < columns.size(); ++i) {
    const ShardColumn& c = columns[i];
    std::printf("    {\"shards\": %u, \"cut_edge_fraction\": %.5f, "
                "\"largest_shard_vars\": %zu, \"total_ms\": %.3f, "
                "\"largest_sweep_ms\": %.3f, \"sum_sweep_ms\": %.3f, "
                "\"mean_exchange_rounds\": %.2f, "
                "\"max_abs_diff_vs_flat\": %.3g}%s\n",
                c.shards, c.cut_fraction, c.largest_shard_vars, c.total_ms,
                c.largest_sweep_ms, c.sum_sweep_ms, c.mean_rounds, c.max_diff,
                i + 1 < columns.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  trendspeed::ShardBenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.districts = 4;
      cfg.rows = 24;
      cfg.cols = 24;
      cfg.cross_links = 6;
      cfg.slots = 3;
      cfg.check_latency = false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return trendspeed::Run(cfg);
}
