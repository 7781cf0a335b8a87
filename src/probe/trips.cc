#include "probe/trips.h"

#include "util/logging.h"

namespace trendspeed {

TripGenerator::TripGenerator(const RoadNetwork* net,
                             const TripGeneratorOptions& opts)
    : net_(net), opts_(opts), rng_(opts.seed) {
  TS_CHECK(net != nullptr);
  TS_CHECK_GE(net->num_nodes(), 2u);
  size_t h = std::min(opts.num_hotspots, net->num_nodes());
  for (size_t idx : rng_.SampleWithoutReplacement(net->num_nodes(), h)) {
    hotspots_.push_back(static_cast<NodeId>(idx));
  }
}

NodeId TripGenerator::DrawEndpoint() {
  if (!hotspots_.empty() && rng_.NextBool(opts_.hotspot_bias)) {
    return hotspots_[rng_.NextIndex(hotspots_.size())];
  }
  return static_cast<NodeId>(rng_.NextIndex(net_->num_nodes()));
}

Result<TripPlan> TripGenerator::Next() {
  for (int attempt = 0; attempt < 64; ++attempt) {
    NodeId o = DrawEndpoint();
    NodeId d = DrawEndpoint();
    if (o == d) continue;
    auto path = FastestPath(*net_, o, d, &scratch_);
    if (!path.ok()) continue;
    TripPlan plan;
    plan.origin = o;
    plan.destination = d;
    plan.roads = std::move(path).value();
    return plan;
  }
  return Status::NotFound("TripGenerator: no routable OD pair found");
}

}  // namespace trendspeed
