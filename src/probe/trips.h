// Probe-vehicle trip planning.
//
// The crowdsourced fleet (the stand-in for the paper's taxis) drives trips
// between random origin/destination intersections along fastest paths. Trip
// endpoints are biased toward a set of "hotspot" nodes so probe coverage is
// skewed, as real taxi coverage is: some roads are observed constantly,
// others almost never — the sparsity that motivates seed-based inference.

#ifndef TRENDSPEED_PROBE_TRIPS_H_
#define TRENDSPEED_PROBE_TRIPS_H_

#include <vector>

#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "util/random.h"
#include "util/status.h"

namespace trendspeed {

/// A planned trip: the road sequence to drive.
struct TripPlan {
  NodeId origin = kInvalidNode;
  NodeId destination = kInvalidNode;
  std::vector<RoadId> roads;
};

struct TripGeneratorOptions {
  /// Number of hotspot nodes; 0 disables skew (uniform OD).
  size_t num_hotspots = 8;
  /// Probability that a trip endpoint is drawn from the hotspot set.
  double hotspot_bias = 0.6;
  uint64_t seed = 97;
};

/// Draws OD pairs and routes them.
class TripGenerator {
 public:
  TripGenerator(const RoadNetwork* net, const TripGeneratorOptions& opts);

  /// Plans one trip; retries internally when an OD pair is disconnected.
  /// Fails only if no routable pair is found after many attempts.
  Result<TripPlan> Next();

  const std::vector<NodeId>& hotspots() const { return hotspots_; }

 private:
  NodeId DrawEndpoint();

  const RoadNetwork* net_;
  TripGeneratorOptions opts_;
  Rng rng_;
  std::vector<NodeId> hotspots_;
  SearchScratch scratch_;  ///< every trip's route search reuses it
};

}  // namespace trendspeed

#endif  // TRENDSPEED_PROBE_TRIPS_H_
