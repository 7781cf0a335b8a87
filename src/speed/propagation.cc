#include "speed/propagation.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace trendspeed {

namespace {

Status ValidateSeeds(const std::vector<SeedSpeed>& seeds, size_t n) {
  for (const SeedSpeed& s : seeds) {
    if (s.road >= n) return Status::InvalidArgument("seed road out of range");
    if (!std::isfinite(s.speed_kmh) || s.speed_kmh <= 0.0) {
      return Status::InvalidArgument("seed speed must be positive and finite");
    }
  }
  return Status::OK();
}

// Installs seed deviations/speeds as layer 0 of `out`.
void SeedLayer(const RoadNetwork& net, const HistoricalDb& db,
               const std::vector<SeedSpeed>& seeds, uint64_t slot,
               SpeedEstimateResult* out) {
  const HistoricalDb::BucketView hist = db.Bucket(slot);
  for (const SeedSpeed& s : seeds) {
    double mean = hist.MeanOr(s.road, net.road(s.road).free_flow_kmh);
    out->deviation[s.road] = mean > 0.0 ? s.speed_kmh / mean - 1.0 : 0.0;
    out->speed_kmh[s.road] = s.speed_kmh;
    out->layer[s.road] = 0;
  }
}

// Spatial fallback + prior fallback + deviation->speed conversion, shared
// by both aggregation modes. `base_layer` is the first layer id the spatial
// pass may assign. `spatial` is the fallback's plan, compiled from the roads
// `out` has already estimated; null compiles it here.
void FinishEstimate(const RoadNetwork& net, const HistoricalDb& db,
                    const HierarchicalSpeedModel& model,
                    const TrendEstimate& trends,
                    const PropagationOptions& opts,
                    const LayeredMeanPlan* spatial, uint32_t base_layer,
                    uint64_t slot, SpeedEstimateResult* out) {
  size_t n = net.num_roads();
  // Spatial fallback: unreached roads borrow a discounted deviation from
  // physically adjacent known roads, layer by layer over road adjacency.
  if (opts.max_spatial_layers > 0) {
    LayeredMeanPlan local;
    if (spatial == nullptr) {
      std::vector<uint8_t> known(n);
      for (RoadId v = 0; v < n; ++v) {
        known[v] = out->layer[v] != kUnreachedLayer ? 1 : 0;
      }
      local.Compile(net, known, opts.max_spatial_layers);
      spatial = &local;
    }
    spatial->Apply(opts.max_spatial_layers, out->deviation.data(),
                   [&](RoadId v, uint32_t step, double sum, uint32_t cnt) {
                     out->layer[v] = base_layer + step;
                     double x = opts.spatial_discount * sum /
                                static_cast<double>(cnt);
                     // Spatial adjacency is weak signal: a small fixed
                     // weight keeps the effective slope conservative.
                     out->deviation[v] = model.PredictDeviation(
                         v, x, /*weight=*/0.3, /*has_x=*/true,
                         trends.p_up[v]);
                   });
  }
  // Roads never reached by any pass: trend-adjusted historical prior.
  for (RoadId v = 0; v < n; ++v) {
    if (out->layer[v] == kUnreachedLayer) {
      out->deviation[v] = model.PredictDeviation(v, 0.0, /*weight=*/0.0,
                                                 /*has_x=*/false,
                                                 trends.p_up[v]);
    }
  }
  // Deviation -> speed, with physical clamps (seeds keep their speed).
  const HistoricalDb::BucketView hist = db.Bucket(slot);
  for (RoadId v = 0; v < n; ++v) {
    if (out->layer[v] == 0) continue;
    double free_flow = net.road(v).free_flow_kmh;
    double speed = hist.MeanOr(v, free_flow) * (1.0 + out->deviation[v]);
    out->speed_kmh[v] = std::clamp(speed, 2.0, free_flow * 1.3);
  }
}

}  // namespace

Result<SpeedEstimateResult> EstimateSpeedsInfluence(
    const RoadNetwork& net, const HistoricalDb& db,
    const HierarchicalSpeedModel& model, const TrendEstimate& trends,
    const std::vector<SeedSpeed>& seeds, const SeedSetPlan& plan,
    const std::vector<double>& means,
    const std::vector<double>& seed_deviation, uint64_t slot,
    const PropagationOptions& opts) {
  size_t n = net.num_roads();
  const std::vector<RoadId>& covered = plan.covered();
  const std::vector<double>& weight = plan.weight();
  if (db.num_roads() != n || trends.p_up.size() != n || weight.size() != n ||
      means.size() != covered.size() ||
      seed_deviation.size() != seeds.size()) {
    return Status::InvalidArgument("influence estimation size mismatch");
  }
  TS_RETURN_NOT_OK(ValidateSeeds(seeds, n));
  SpeedEstimateResult out;
  out.speed_kmh.assign(n, 0.0);
  out.deviation.assign(n, 0.0);
  out.layer.assign(n, kUnreachedLayer);
  for (size_t i = 0; i < seeds.size(); ++i) {
    out.deviation[seeds[i].road] = seed_deviation[i];
    out.speed_kmh[seeds[i].road] = seeds[i].speed_kmh;
    out.layer[seeds[i].road] = 0;
  }
  for (size_t i = 0; i < covered.size(); ++i) {
    const RoadId v = covered[i];
    if (out.layer[v] == 0) continue;
    out.deviation[v] = model.PredictDeviation(v, means[i], weight[v],
                                              /*has_x=*/true, trends.p_up[v]);
    out.layer[v] = 1;
  }
  // The fallback walks from the covered roads and the seeds: the plan's
  // walk when the seeds are among the covered roads.
  const bool plan_walk = plan.covers_every_seed() &&
                         plan.mean_layers() >= opts.max_spatial_layers;
  FinishEstimate(net, db, model, trends, opts,
                 plan_walk ? &plan.neighbour_means() : nullptr,
                 /*base_layer=*/2, slot, &out);
  return out;
}

Result<SpeedEstimateResult> PropagateSpeeds(
    const RoadNetwork& net, const CorrelationGraph& graph,
    const HistoricalDb& db, const HierarchicalSpeedModel& model,
    const TrendEstimate& trends, const std::vector<SeedSpeed>& seeds,
    uint64_t slot, const PropagationOptions& opts) {
  size_t n = net.num_roads();
  if (graph.num_roads() != n || db.num_roads() != n ||
      trends.p_up.size() != n) {
    return Status::InvalidArgument("propagation input size mismatch");
  }
  TS_RETURN_NOT_OK(ValidateSeeds(seeds, n));
  SpeedEstimateResult out;
  out.speed_kmh.assign(n, 0.0);
  out.deviation.assign(n, 0.0);
  out.layer.assign(n, kUnreachedLayer);

  std::vector<RoadId> frontier;
  SeedLayer(net, db, seeds, slot, &out);
  for (const SeedSpeed& s : seeds) frontier.push_back(s.road);

  // BFS layers over the correlation graph.
  for (uint32_t layer = 1; layer <= opts.max_layers && !frontier.empty();
       ++layer) {
    // Candidates: unvisited neighbours of the current frontier.
    std::vector<RoadId> candidates;
    for (RoadId u : frontier) {
      for (const CorrEdge& e : graph.Neighbors(u)) {
        if (out.layer[e.neighbor] == kUnreachedLayer) {
          out.layer[e.neighbor] = layer;  // tentative; estimates set below
          candidates.push_back(e.neighbor);
        }
      }
    }
    // Estimate every candidate from its already-known neighbours (all
    // candidates of this layer see only layers < layer, keeping the result
    // independent of intra-layer ordering).
    for (RoadId v : candidates) {
      double wsum = 0.0, xsum = 0.0;
      for (const CorrEdge& e : graph.Neighbors(v)) {
        if (out.layer[e.neighbor] >= layer) continue;  // not yet final
        double w = HierarchicalSpeedModel::EdgeWeight(e);
        if (w == 0.0) continue;
        wsum += std::fabs(w);
        xsum += w * out.deviation[e.neighbor];
      }
      double p_up = trends.p_up[v];
      double d;
      if (wsum > 0.0) {
        d = model.PredictDeviation(v, xsum / wsum, wsum, /*has_x=*/true,
                                   p_up);
      } else {
        d = model.PredictDeviation(v, 0.0, 0.0, /*has_x=*/false, p_up);
      }
      out.deviation[v] = d;
    }
    frontier = std::move(candidates);
  }

  FinishEstimate(net, db, model, trends, opts, /*spatial=*/nullptr,
                 /*base_layer=*/opts.max_layers + 1, slot, &out);
  return out;
}

}  // namespace trendspeed
