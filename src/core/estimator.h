// TrafficSpeedEstimator — the library's primary public API.
//
// Lifecycle:
//   1. Train(net, history, config)      offline: mines the correlation
//      graph, trains the hierarchical speed model, precomputes influence.
//   2. SelectSeeds(K, strategy)         choose the K roads to crowdsource.
//   3. Estimate(slot, seed_speeds)      online, per time slot: infer trends
//      (Step 1) then speeds (Step 2) for every road. O(V + E).

#ifndef TRENDSPEED_CORE_ESTIMATOR_H_
#define TRENDSPEED_CORE_ESTIMATOR_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "corr/correlation_graph.h"
#include "obs/flight.h"
#include "probe/history.h"
#include "roadnet/road_network.h"
#include "seed/objective.h"
#include "speed/hierarchical_model.h"
#include "speed/propagation.h"
#include "speed/seed_plan.h"
#include "trend/trend_model.h"
#include "util/status.h"

namespace trendspeed {

/// Seed-selection algorithms exposed through the pipeline.
enum class SeedStrategy {
  kGreedy,
  kLazyGreedy,
  kStochasticGreedy,
  kRandom,
  kTopDegree,
  kTopVariance,
  kPageRank,
  kKCenter,
};

const char* SeedStrategyName(SeedStrategy strategy);

/// Per-stream scratch for TrafficSpeedEstimator::Estimate: the seed-set
/// plan (speed/seed_plan.h) of the last seed list seen, plus the slot's
/// buffers. A call whose ordered seed road list matches the last
/// one reuses the plan; any other list, the same roads reordered included,
/// recompiles it. Estimate stays order-sensitive; ServingSession hands it
/// seeds in road order, so a fixed road set compiles once whatever order
/// its reports arrive in. Results are bitwise identical with a fresh, a
/// reused or no workspace. One per serving stream, never shared between
/// threads; ServingSession owns one. The plan points into the estimator's
/// influence model, so a workspace must not outlive the estimator it
/// serves.
struct EstimateWorkspace {
  SeedSetPlan plan;
  /// Times `plan` was compiled (a diagnostic: a fixed seed set compiles
  /// once). The estimator's registry mirrors it as
  /// trendspeed_seed_plan_compiles_total.
  uint64_t plan_compiles = 0;
  /// The slot's influence-weighted mean seed deviation per covered road,
  /// in plan.covered() order (SeedSetPlan::Aggregate).
  std::vector<double> aggregate;
  std::vector<double> evidence;
};

class TrafficSpeedEstimator {
 public:
  /// Trains all offline components. `net` and `db` must outlive the
  /// estimator.
  static Result<TrafficSpeedEstimator> Train(const RoadNetwork* net,
                                             const HistoricalDb* db,
                                             const PipelineConfig& config);

  /// Assembles an estimator from pre-built (e.g. deserialized) components;
  /// see core/model_io.h for the save/load round trip. Components must be
  /// consistent with `net`/`db` sizes.
  static Result<TrafficSpeedEstimator> FromComponents(
      const RoadNetwork* net, const HistoricalDb* db,
      const PipelineConfig& config, CorrelationGraph graph,
      InfluenceModel influence, HierarchicalSpeedModel speed_model);

  /// Selects K seed roads; `rng_seed` affects only the randomized
  /// strategies.
  Result<SeedSelectionResult> SelectSeeds(size_t k, SeedStrategy strategy,
                                          uint64_t rng_seed = 1) const;

  /// One online estimation: trends then speeds for every road.
  struct Output {
    TrendEstimate trends;
    SpeedEstimateResult speeds;
  };
  /// `workspace` (caller-owned, may be null) keeps the seed-set plan and
  /// scratch across calls; null uses a temporary one. A non-null `flight`
  /// recorder (the serving session's: the estimator's own
  /// config_.observability has no recorder, since flight hookup is per
  /// serving session, not per model) records this call as `slot`'s
  /// `estimate` envelope span plus a nested `bp_solve` span. Null records
  /// nothing.
  Result<Output> Estimate(uint64_t slot, const std::vector<SeedSpeed>& seeds,
                          EstimateWorkspace* workspace = nullptr,
                          obs::FlightRecorder* flight = nullptr) const;

  const CorrelationGraph& correlation_graph() const { return *graph_; }
  const InfluenceModel& influence() const { return *influence_; }
  const HierarchicalSpeedModel& speed_model() const { return *speed_model_; }
  const TrendModel& trend_model() const { return *trend_model_; }
  const PipelineConfig& config() const { return config_; }
  const RoadNetwork& network() const { return *net_; }
  const HistoricalDb& history() const { return *db_; }

 private:
  TrafficSpeedEstimator() = default;

  const RoadNetwork* net_ = nullptr;
  const HistoricalDb* db_ = nullptr;
  PipelineConfig config_;
  // unique_ptr keeps the estimator cheaply movable.
  std::unique_ptr<CorrelationGraph> graph_;
  std::unique_ptr<InfluenceModel> influence_;
  std::unique_ptr<HierarchicalSpeedModel> speed_model_;
  std::unique_ptr<TrendModel> trend_model_;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_ESTIMATOR_H_
