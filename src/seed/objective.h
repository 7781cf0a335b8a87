// The seed-selection objective.
//
// Influence w_ij in [0, 1]: how well seed j's observation determines road
// i's state — the best path product of edge strengths (2 * same_prob - 1)
// over correlation-graph paths of at most `max_hops` edges (w_jj = 1).
// Variability sigma_i >= 0: the historical stddev of road i's relative
// deviation (roads that never deviate are trivially predictable and worth
// little coverage).
//
// Objective (monotone submodular):
//     f(S) = sum_i sigma_i * max_{j in S} w_ij
// Maximizing f under |S| <= K generalizes weighted Max-Cover (take w in
// {0, 1}), hence is NP-hard; the greedy algorithms in this module carry the
// classic (1 - 1/e) guarantee. tests/seed_objective_test.cc exercises the
// Max-Cover embedding and the submodularity property directly.

#ifndef TRENDSPEED_SEED_OBJECTIVE_H_
#define TRENDSPEED_SEED_OBJECTIVE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "corr/correlation_graph.h"
#include "obs/metrics.h"
#include "probe/history.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace trendspeed {

/// One (covered road, influence) entry of a candidate's cover list.
/// Influence is *signed*: negative when the best path has an odd number of
/// anti-correlated edges (the roads move in opposite trend directions).
/// Selection cares about |influence|; the speed model uses the sign.
struct CoverEntry {
  RoadId road = kInvalidRoad;
  float influence = 0.0f;
};

struct InfluenceOptions {
  /// Maximum path length (edges) influence may travel.
  uint32_t max_hops = 4;
  /// Influence magnitude below this is dropped from cover lists.
  double min_influence = 0.03;
  /// Worker threads for precomputation (0 = hardware concurrency).
  uint32_t num_threads = 0;
};

/// Precomputed influence structure: per candidate seed, the roads it covers.
class InfluenceModel {
 public:
  /// Derives influence from the correlation graph and variability weights
  /// from history. O(n * local neighbourhood * log).
  static Result<InfluenceModel> Build(const CorrelationGraph& graph,
                                      const HistoricalDb& db,
                                      const InfluenceOptions& opts);

  /// Builds directly from explicit cover lists and weights (tests,
  /// synthetic Max-Cover instances).
  static InfluenceModel FromCoverLists(
      size_t num_roads, std::vector<std::vector<CoverEntry>> covers,
      std::vector<double> sigma);

  size_t num_roads() const { return covers_.size(); }
  std::span<const CoverEntry> CoverList(RoadId j) const {
    return covers_[j];
  }
  double sigma(RoadId i) const { return sigma_[i]; }
  const std::vector<double>& sigmas() const { return sigma_; }

  /// Average cover-list length (density diagnostic).
  double AverageCoverSize() const;

  /// Binary (de)serialization for trained-model files.
  void Serialize(BinaryWriter* writer) const;
  static Result<InfluenceModel> Deserialize(BinaryReader* reader);

 private:
  InfluenceModel() = default;
  std::vector<std::vector<CoverEntry>> covers_;
  std::vector<double> sigma_;
};

/// Tuning knobs shared by the greedy selection algorithms. Results are
/// identical to the serial algorithms on any machine; parallelism only
/// changes wall time.
struct SeedSelectionOptions {
  /// Worker threads for parallel gain scans (0 = EffectiveThreads).
  uint32_t num_threads = 0;
  /// Observability hook (docs/observability.md): when attached, each run
  /// records the trendspeed_seed_* series (runs and gain evaluations per
  /// algorithm label, committed rounds, marginal-gain histogram, CELF
  /// re-pops). Null (default) records nothing; the selected set is
  /// identical either way. Must outlive the selection call.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Incremental evaluator of f(S); the workhorse of all greedy variants.
class ObjectiveState {
 public:
  explicit ObjectiveState(const InfluenceModel* model);

  /// f(current S).
  double value() const { return value_; }

  /// Marginal gain f(S + j) - f(S). O(|cover(j)|).
  double GainOf(RoadId j) const;

  /// Adds j to S.
  void Add(RoadId j);

  /// Current best influence covering road i.
  double BestCover(RoadId i) const { return best_[i]; }

  const std::vector<RoadId>& seeds() const { return seeds_; }

 private:
  const InfluenceModel* model_;
  std::vector<double> best_;
  std::vector<RoadId> seeds_;
  double value_ = 0.0;
};

/// Evaluates f(S) from scratch (reference implementation for tests).
double ObjectiveValue(const InfluenceModel& model,
                      const std::vector<RoadId>& seeds);

/// Outcome of any selection algorithm, with the bookkeeping the efficiency
/// experiments report.
struct SeedSelectionResult {
  std::vector<RoadId> seeds;
  double objective = 0.0;
  /// Number of GainOf evaluations performed (greedy-family cost metric).
  uint64_t gain_evaluations = 0;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_SEED_OBJECTIVE_H_
