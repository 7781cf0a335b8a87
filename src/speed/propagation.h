// Online speed estimation from seed observations — Step 2's runtime.
//
// Two aggregation modes:
//
// kInfluence (default): one-shot aggregation — every road combines the
// deviations of ALL seeds within its influence neighbourhood (precomputed
// signed best-path products), then the hierarchical model maps (x, trend
// posterior) to a deviation. No estimate feeds another estimate, so there is
// no compounding shrinkage, and the pass is O(K * avg cover + V).
//
// kLayered: the BFS-layer cascade (layer 1 estimated from seeds, layer 2
// from layer 1, ...). Kept as the ablation comparison point.
//
// Both modes share the fallbacks: roads with no influence/correlation link
// to any seed get a discounted spatial pass over physical road adjacency,
// and roads beyond that get the trend-adjusted historical prior.

#ifndef TRENDSPEED_SPEED_PROPAGATION_H_
#define TRENDSPEED_SPEED_PROPAGATION_H_

#include <vector>

#include "corr/correlation_graph.h"
#include "probe/history.h"
#include "roadnet/road_network.h"
#include "seed/objective.h"
#include "speed/hierarchical_model.h"
#include "speed/seed_plan.h"
#include "trend/trend_model.h"
#include "util/status.h"

namespace trendspeed {

enum class AggregationMode { kInfluence, kLayered };

struct PropagationOptions {
  AggregationMode mode = AggregationMode::kInfluence;
  /// kLayered only: maximum BFS layers away from a seed.
  uint32_t max_layers = 8;
  /// Extra spatial-fallback layers over physical road adjacency for roads
  /// no seed influence reaches. 0 disables the fallback.
  uint32_t max_spatial_layers = 6;
  /// Deviations entering the spatial pass are discounted by this factor per
  /// physical hop.
  double spatial_discount = 0.7;
};

/// Layer marker for roads never reached from any seed.
inline constexpr uint32_t kUnreachedLayer = UINT32_MAX;

struct SpeedEstimateResult {
  std::vector<double> speed_kmh;   ///< final estimate per road
  std::vector<double> deviation;   ///< relative deviation used
  std::vector<uint32_t> layer;     ///< 0 = seed, k = k-th estimation wave
};

/// One-shot influence-mode estimation (see file comment). `plan` is
/// compiled for `seeds`' road list over `net`; `seed_deviation` holds each
/// seed's relative deviation from its historical mean at `slot`, and
/// `means` the plan's Aggregate of it. The spatial fallback takes the
/// plan's walk when the plan covers every seed and has at least
/// opts.max_spatial_layers layers, and compiles its own otherwise.
Result<SpeedEstimateResult> EstimateSpeedsInfluence(
    const RoadNetwork& net, const HistoricalDb& db,
    const HierarchicalSpeedModel& model, const TrendEstimate& trends,
    const std::vector<SeedSpeed>& seeds, const SeedSetPlan& plan,
    const std::vector<double>& means,
    const std::vector<double>& seed_deviation, uint64_t slot,
    const PropagationOptions& opts = {});

/// Layered (BFS cascade) estimation over the correlation graph.
Result<SpeedEstimateResult> PropagateSpeeds(
    const RoadNetwork& net, const CorrelationGraph& graph,
    const HistoricalDb& db, const HierarchicalSpeedModel& model,
    const TrendEstimate& trends, const std::vector<SeedSpeed>& seeds,
    uint64_t slot, const PropagationOptions& opts = {});

}  // namespace trendspeed

#endif  // TRENDSPEED_SPEED_PROPAGATION_H_
