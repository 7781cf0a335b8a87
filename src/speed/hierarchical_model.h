// Step 2 of the paper's estimator: the hierarchical linear model that turns
// inferred trends plus an influence-weighted seed-deviation aggregate into
// speeds.
//
// Hierarchy (most to least specific, each level consulted only when the
// previous lacks training data):
//   1. road level  — per-road affine trend model d = a + b*x + c*t
//   2. class level — shared per road class (highway / arterial / local)
//   3. global level — one model for the whole network
//
// Two prediction regimes per level: with neighbour information (x = the
// signed-influence-weighted deviation of known roads) and without (the
// trend-conditioned mean deviation). Training also fits the logistic
// calibration P(trend = up | x) used as soft evidence by the trend MRF.

#ifndef TRENDSPEED_SPEED_HIERARCHICAL_MODEL_H_
#define TRENDSPEED_SPEED_HIERARCHICAL_MODEL_H_

#include <vector>

#include "corr/correlation_graph.h"
#include "probe/history.h"
#include "roadnet/road_network.h"
#include "seed/objective.h"
#include "speed/linear_model.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace trendspeed {

struct HierarchicalModelOptions {
  /// Ridge penalty added to every level's normal equations; must be > 0.
  double ridge_lambda = 1.0;
  /// Minimum samples to train a road-level model.
  uint32_t min_road_samples = 25;
  /// Minimum samples to train a class-level model.
  uint32_t min_class_samples = 50;
  /// Influence magnitude below which a neighbour is ignored when forming x.
  double min_neighbor_weight = 0.03;
  /// Training-time neighbour sparsification: each sample keeps each
  /// neighbour with a probability drawn uniformly from
  /// [min_keep_prob, 1], so the fitted weight-interaction covers the sparse
  /// regimes online estimation actually sees (only K seeds are observed).
  double min_keep_prob = 0.08;
  uint64_t dropout_seed = 77;
  /// Worker threads for training (0 = hardware concurrency). Per-road RNG
  /// streams keep results identical for any value.
  uint32_t num_threads = 0;
};

/// Which level of the hierarchy served a prediction.
enum class ModelLevel { kRoad = 0, kClass = 1, kGlobal = 2 };
const char* ModelLevelName(ModelLevel level);

class HierarchicalSpeedModel {
 public:
  /// Trains all levels from history. For each road and each historical slot
  /// where the road and at least one influence-connected neighbour were
  /// observed, a sample (x = signed-influence-weighted neighbour deviation,
  /// y = own deviation, t = own trend) is added to the road's sufficient
  /// statistics (TrendFitStats); the per-road stats are merged upward in
  /// road order into the class and global models.
  static Result<HierarchicalSpeedModel> Train(
      const RoadNetwork& net, const HistoricalDb& db,
      const CorrelationGraph& graph, const InfluenceModel& influence,
      const HierarchicalModelOptions& opts);

  /// Predicts the relative deviation of `road`. `x` is the signed-influence
  /// weighted mean deviation of its known neighbours and `weight` the total
  /// influence magnitude backing it; pass `has_x = false` when no neighbour
  /// information is available. `p_up` is the trend posterior.
  double PredictDeviation(RoadId road, double x, double weight, bool has_x,
                          double p_up) const;

  /// The level PredictDeviation would use.
  ModelLevel LevelFor(RoadId road, bool has_x) const;

  /// Signed 1-hop correlation weight (kept for the layered propagation
  /// mode): +1 perfectly co-trending, -1 perfectly anti-correlated.
  static double EdgeWeight(const CorrEdge& e) {
    return 2.0 * static_cast<double>(e.same_prob) - 1.0;
  }

  /// Logistic calibration P(trend up | x) for MRF soft evidence.
  const LogisticCalibration& evidence() const { return evidence_; }

  /// Number of roads the model was trained on.
  size_t num_roads() const { return road_class_.size(); }

  /// Number of roads with a trained road-level model.
  size_t num_road_models() const;

  /// Global weight-aware line (diagnostics / tests).
  const WeightedTrendModel& global_line() const { return global_line_; }

  /// Binary (de)serialization for trained-model files.
  void Serialize(BinaryWriter* writer) const;
  static Result<HierarchicalSpeedModel> Deserialize(BinaryReader* reader);

  const HierarchicalModelOptions& options() const { return opts_; }

 private:
  HierarchicalSpeedModel() = default;

  HierarchicalModelOptions opts_;
  std::vector<RoadClass> road_class_;
  std::vector<WeightedTrendModel> road_lines_;
  std::vector<TrendMean> road_means_;
  WeightedTrendModel class_lines_[3];
  TrendMean class_means_[3];
  WeightedTrendModel global_line_;
  TrendMean global_mean_;
  LogisticCalibration evidence_;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_SPEED_HIERARCHICAL_MODEL_H_
