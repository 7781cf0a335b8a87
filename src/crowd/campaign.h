// Crowdsourcing campaign: per time slot, collect worker answers for every
// seed road and aggregate them into the SeedSpeed observations the
// estimation pipeline consumes. Tracks the answer budget spent and runs the
// online reliability quality control.

#ifndef TRENDSPEED_CROWD_CAMPAIGN_H_
#define TRENDSPEED_CROWD_CAMPAIGN_H_

#include <vector>

#include "crowd/aggregate.h"
#include "crowd/worker.h"
#include "roadnet/road_network.h"
#include "speed/propagation.h"
#include "util/random.h"
#include "util/status.h"

namespace trendspeed {

struct CampaignOptions {
  /// Workers asked per seed road per slot.
  uint32_t workers_per_seed = 3;
  AggregationMethod aggregation = AggregationMethod::kMedian;
  double trim_fraction = 0.2;
  uint64_t seed = 777;
};

/// Runs the per-slot collection loop against a worker pool.
class CrowdCampaign {
 public:
  /// The pool must be non-null and outlive the campaign.
  CrowdCampaign(const WorkerPool* pool, const CampaignOptions& opts);

  /// Collects answers for `seed_roads` whose true speeds are given by
  /// `true_speeds` (indexed by road id), returning the aggregated
  /// observations.
  Result<std::vector<SeedSpeed>> Collect(
      const std::vector<RoadId>& seed_roads,
      const std::vector<double>& true_speeds);

  /// Total worker answers purchased so far.
  uint64_t answers_spent() const { return answers_spent_; }

  const ReliabilityTracker& reliability() const { return tracker_; }

 private:
  const WorkerPool* pool_;
  CampaignOptions opts_;
  Rng rng_;
  ReliabilityTracker tracker_;
  uint64_t answers_spent_ = 0;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CROWD_CAMPAIGN_H_
