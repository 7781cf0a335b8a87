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

/// The influence aggregate (speed/seed_plan.h) of `seeds` at `slot`,
/// through a plan compiled for this call.
InfluenceAggregate AggregateSeedDeviations(const InfluenceModel& influence,
                                           const RoadNetwork& net,
                                           const HistoricalDb& db,
                                           const std::vector<SeedSpeed>& seeds,
                                           uint64_t slot);

/// The same aggregate through a plan already compiled for `seeds`' road
/// list; bitwise equal to the overload above.
void AggregateSeedDeviations(const SeedSetPlan& plan, const RoadNetwork& net,
                             const HistoricalDb& db,
                             const std::vector<SeedSpeed>& seeds,
                             uint64_t slot, InfluenceAggregate* out);

/// One-shot influence-mode estimation (see file comment). `aggregate` must
/// come from AggregateSeedDeviations over the same seeds and slot.
/// `spatial` is the spatial fallback's precompiled plan (the
/// neighbour_means() of the SeedSetPlan `aggregate` came from, with at
/// least opts.max_spatial_layers layers, and only when every seed has
/// nonzero aggregate weight), or null to compile it for this call.
Result<SpeedEstimateResult> EstimateSpeedsInfluence(
    const RoadNetwork& net, const InfluenceModel& influence,
    const HistoricalDb& db, const HierarchicalSpeedModel& model,
    const TrendEstimate& trends, const std::vector<SeedSpeed>& seeds,
    const InfluenceAggregate& aggregate, uint64_t slot,
    const PropagationOptions& opts = {},
    const LayeredMeanPlan* spatial = nullptr);

/// Layered (BFS cascade) estimation over the correlation graph.
Result<SpeedEstimateResult> PropagateSpeeds(
    const RoadNetwork& net, const CorrelationGraph& graph,
    const HistoricalDb& db, const HierarchicalSpeedModel& model,
    const TrendEstimate& trends, const std::vector<SeedSpeed>& seeds,
    uint64_t slot, const PropagationOptions& opts = {});

}  // namespace trendspeed

#endif  // TRENDSPEED_SPEED_PROPAGATION_H_
