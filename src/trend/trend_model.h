// Step 1 of the paper's two-step estimator: infer the traffic trend of every
// road from the observed trends of the crowdsourced seed roads.
//
// The MRF structure is built once from the correlation graph; per time slot
// this model installs the historical trend priors as node potentials, clamps
// the seeds to their observed trends, and runs the selected inference engine.

#ifndef TRENDSPEED_TREND_TREND_MODEL_H_
#define TRENDSPEED_TREND_TREND_MODEL_H_

#include <vector>

#include "corr/correlation_graph.h"
#include "probe/history.h"
#include "trend/belief_propagation.h"
#include "trend/factor_graph.h"
#include "trend/gibbs.h"
#include "trend/icm.h"
#include "util/status.h"

namespace trendspeed {

enum class TrendEngine {
  kBeliefPropagation,
  kGibbs,
  kIcm,
  /// No graph inference: every road keeps its node potential (historical
  /// prior combined with any soft evidence). Ablation baseline isolating
  /// the value of message passing.
  kPriorOnly,
};

const char* TrendEngineName(TrendEngine engine);

struct TrendModelOptions {
  TrendEngine engine = TrendEngine::kBeliefPropagation;
  BpOptions bp;
  GibbsOptions gibbs;
  IcmOptions icm;
  /// Power applied to the mined edge compatibilities (temperature):
  /// 1 = use them as-is; < 1 tempers message passing. When per-node soft
  /// evidence is active, neighbouring nodes carry *redundant* information
  /// (it derives from the same seeds), and full-strength propagation
  /// double-counts it; tempering keeps BP a refinement rather than an
  /// amplifier.
  double edge_compat_power = 0.25;
  /// Pseudo-counts for the historical trend prior.
  double prior_pseudo_count = 3.0;
};

/// A seed's crowdsourced observation, reduced to its trend.
struct SeedTrend {
  RoadId road = kInvalidRoad;
  int trend = +1;  ///< +1 up, -1 down
};

/// Trend marginals for every road.
struct TrendEstimate {
  std::vector<double> p_up;  ///< P(trend = up)

  /// Hard decision of road v in {+1, -1}.
  int HardTrend(size_t v) const { return p_up[v] >= 0.5 ? +1 : -1; }
};

class TrendModel {
 public:
  /// The referenced graph and db must outlive the model.
  TrendModel(const CorrelationGraph* graph, const HistoricalDb* db,
             TrendModelOptions opts);

  /// Infers all-road trends at `slot` given seed observations.
  ///
  /// `evidence_log_odds` (optional, per road) is additional soft evidence in
  /// log-odds form — positive pushes toward "up" — typically the calibrated
  /// logistic of the influence-weighted seed deviation. Ignored for clamped
  /// (seed) roads.
  ///
  /// Calls carry no state from one slot to the next: the BP engine runs one
  /// cold InferMarginalsBpFlat over the cached flattened structure, so equal
  /// inputs give bitwise-equal marginals.
  Result<TrendEstimate> Infer(
      uint64_t slot, const std::vector<SeedTrend>& seeds,
      const std::vector<double>* evidence_log_odds = nullptr) const;

  const TrendModelOptions& options() const { return opts_; }

 private:
  const CorrelationGraph* graph_;
  const HistoricalDb* db_;
  TrendModelOptions opts_;
  PairwiseMrf structure_;  // potentials/evidence overwritten per call
  BpGraph bp_graph_;       // flattened structure cached for the BP engine
};

}  // namespace trendspeed

#endif  // TRENDSPEED_TREND_TREND_MODEL_H_
