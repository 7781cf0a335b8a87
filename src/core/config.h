// End-to-end pipeline configuration for the TrafficSpeedEstimator.

#ifndef TRENDSPEED_CORE_CONFIG_H_
#define TRENDSPEED_CORE_CONFIG_H_

#include "corr/correlation_graph.h"
#include "obs/metrics.h"
#include "seed/objective.h"
#include "speed/hierarchical_model.h"
#include "speed/propagation.h"
#include "trend/trend_model.h"
#include "util/status.h"

namespace trendspeed {

/// Pipeline-wide observability wiring (docs/observability.md). `metrics` is
/// borrowed and must outlive every estimator built from this config; null
/// (the default) disables all recording — instrumented hot paths then cost
/// one predicted branch per record site
/// (bench/bench_observability_overhead.cc quantifies this as < 2%). The
/// serving-only sink (the flight recorder) lives on
/// ServingOptions::observability (core/serving.h).
struct ObservabilityOptions {
  /// Destination for every trendspeed_* metric the pipeline emits.
  obs::MetricsRegistry* metrics = nullptr;
};

struct PipelineConfig {
  CorrelationGraphOptions corr;
  TrendModelOptions trend;
  HierarchicalModelOptions speed;
  PropagationOptions propagation;
  InfluenceOptions influence;
  /// Thread count for greedy seed selection (results are identical to
  /// serial selection; only wall time changes).
  SeedSelectionOptions seed_selection;
  /// Feed the calibrated logistic of the influence-weighted seed deviation
  /// into the trend MRF as soft node evidence (magnitude-aware Step 1).
  bool use_trend_evidence = true;
  /// Spatial evidence backfill: roads outside every seed's influence
  /// neighbourhood inherit damped evidence from physically adjacent covered
  /// roads, expanded breadth-first for this many hops (0 disables the
  /// backfill; roads outside all influence then carry prior-only
  /// potentials).
  uint32_t evidence_backfill_hops = 3;
  /// Factor applied to the neighbour-mean evidence at each backfill hop,
  /// in (0, 1]: inherited signal decays with distance from real coverage.
  double evidence_backfill_damping = 0.6;
  /// Metrics sink; propagated into the BP and seed-selection options by
  /// TrafficSpeedEstimator::FromComponents (per-stage pointers set
  /// explicitly here take precedence — FromComponents only fills the ones
  /// left null).
  ObservabilityOptions observability;

  /// Basic sanity validation; Build paths also validate individually.
  Status Validate() const;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_CONFIG_H_
