#include "crowd/campaign.h"

#include <algorithm>

#include "util/logging.h"

namespace trendspeed {
namespace {

// The tracker is sized from the pool in the initializer list, so the null
// check has to run there, before the first dereference.
const WorkerPool& CheckedPool(const WorkerPool* pool) {
  TS_CHECK(pool != nullptr);
  return *pool;
}

}  // namespace

CrowdCampaign::CrowdCampaign(const WorkerPool* pool,
                             const CampaignOptions& opts)
    : pool_(pool),
      opts_(opts),
      rng_(opts.seed),
      tracker_(CheckedPool(pool).size()) {
  TS_CHECK_GE(opts.workers_per_seed, 1u);
}

Result<std::vector<SeedSpeed>> CrowdCampaign::Collect(
    const std::vector<RoadId>& seed_roads,
    const std::vector<double>& true_speeds) {
  AggregateOptions agg;
  agg.method = opts_.aggregation;
  agg.trim_fraction = opts_.trim_fraction;
  agg.tracker = &tracker_;
  std::vector<SeedSpeed> out;
  out.reserve(seed_roads.size());
  for (RoadId road : seed_roads) {
    if (road >= true_speeds.size()) {
      return Status::InvalidArgument("seed road out of range");
    }
    std::vector<uint32_t> workers = pool_->Draw(opts_.workers_per_seed, &rng_);
    std::vector<WorkerAnswer> answers;
    answers.reserve(workers.size());
    for (uint32_t w : workers) {
      answers.push_back(pool_->Answer(w, true_speeds[road], &rng_));
    }
    answers_spent_ += answers.size();
    TS_ASSIGN_OR_RETURN(double speed, AggregateAnswers(answers, agg));
    out.push_back(SeedSpeed{road, std::max(1.0, speed)});
  }
  return out;
}

}  // namespace trendspeed
