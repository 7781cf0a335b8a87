// End-to-end pipeline configuration for the TrafficSpeedEstimator.

#ifndef TRENDSPEED_CORE_CONFIG_H_
#define TRENDSPEED_CORE_CONFIG_H_

#include "corr/correlation_graph.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "seed/objective.h"
#include "speed/hierarchical_model.h"
#include "speed/propagation.h"
#include "trend/trend_model.h"
#include "util/status.h"

namespace trendspeed {

/// Pipeline-wide observability wiring (docs/observability.md). The two
/// sinks, `metrics` and `flight`, are borrowed and must outlive every
/// estimator / serving session built from this config; null (the default)
/// disables all recording — instrumented hot paths then cost one predicted
/// branch per record site (bench/bench_observability_overhead.cc
/// quantifies this as < 2%).
struct ObservabilityOptions {
  /// Destination for every trendspeed_* metric the pipeline emits.
  obs::MetricsRegistry* metrics = nullptr;
  /// Serving: an Ingest call slower than this bumps
  /// trendspeed_serving_slow_ingests_total. Must be positive and finite.
  double slow_ingest_ms = 250.0;
  /// Slot-causal flight recorder (obs/flight.h). Borrowed like `metrics`;
  /// when attached, every pipeline stage a slot passes through — queue
  /// wait, admission, estimate, BP solve, snapshot publish — records into
  /// per-thread rings that merge into one causal timeline per slot. Null
  /// (default): every flight site is one predicted branch and results are
  /// bitwise identical. Consumed by the serving layer only
  /// (ServingOptions::observability): the serving session hands the
  /// recorder down per call as an obs::FlightSink, so a recorder set on a
  /// PipelineConfig used purely for training is inert.
  obs::FlightRecorder* flight = nullptr;
  /// Per-stage latency SLO budgets + burn-rate policy (obs/slo.h). Only
  /// meaningful on the serving path; enabling any budget requires `flight`
  /// (the SLO engine consumes per-slot critical paths and dumps the flight
  /// ring on breach). Validated with the rest of the config.
  obs::SloOptions slo;
};

struct PipelineConfig {
  CorrelationGraphOptions corr;
  TrendModelOptions trend;
  HierarchicalModelOptions speed;
  PropagationOptions propagation;
  InfluenceOptions influence;
  /// Thread/batch tuning for greedy seed selection (results are identical
  /// to serial selection; only wall time changes).
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
  /// Metrics/tracing sinks; propagated into the BP and seed-selection
  /// options by TrafficSpeedEstimator::FromComponents (per-stage pointers
  /// set explicitly here take precedence — FromComponents only fills the
  /// ones left null).
  ObservabilityOptions observability;

  /// Basic sanity validation; Build paths also validate individually.
  Status Validate() const;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_CONFIG_H_
