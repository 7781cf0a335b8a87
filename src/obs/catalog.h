// The metric catalog: every metric the pipeline can emit, declared in one
// place.
//
// Instrumented code registers handles through these MetricDef constants —
// never through ad-hoc string literals — so the full set of emittable
// series is enumerable at compile time. AllMetricDefs() returns that set;
// tests/metrics_docs_test.cc diffs it against docs/observability.md in both
// directions, which is what keeps the documented catalog from rotting.
//
// Naming: Prometheus conventions — `trendspeed_<subsystem>_<what>[_total]`,
// `_total` suffix for monotone counters, base unit in the name for
// histograms (`_ms`, `_us`). Some names are registered under several fixed
// label sets (e.g. `algorithm="greedy|lazy_greedy|stochastic_greedy"`);
// each is one time series.

#ifndef TRENDSPEED_OBS_CATALOG_H_
#define TRENDSPEED_OBS_CATALOG_H_

#include <vector>

#include "obs/metrics.h"

namespace trendspeed {
namespace obs {

// --- trend/belief_propagation.cc -------------------------------------------
extern const MetricDef kBpRunsTotal;            ///< BP inference invocations
extern const MetricDef kBpConvergedTotal;       ///< retired, always 0
extern const MetricDef kBpSweepsTotal;          ///< message half-sweeps
extern const MetricDef kBpMessageUpdatesTotal;  ///< directed-edge messages
extern const MetricDef kBpKernelRunsScalar;     ///< runs on the scalar kernel
extern const MetricDef kBpKernelRunsSimd;       ///< runs on the SIMD kernel

// --- seed/{greedy,lazy_greedy,stochastic_greedy}.cc ------------------------
extern const MetricDef kSeedRunsGreedy;
extern const MetricDef kSeedRunsLazyGreedy;
extern const MetricDef kSeedRunsStochasticGreedy;
extern const MetricDef kSeedGainEvalsGreedy;
extern const MetricDef kSeedGainEvalsLazyGreedy;
extern const MetricDef kSeedGainEvalsStochasticGreedy;
extern const MetricDef kSeedRoundsTotal;      ///< committed seeds, all algos
extern const MetricDef kSeedLazyRepopsTotal;  ///< stale CELF heap re-pops
extern const MetricDef kSeedMarginalGain;     ///< histogram: committed gains

// --- util/thread_pool.cc ---------------------------------------------------
extern const MetricDef kPoolTasksTotal;   ///< worker joins of regions
extern const MetricDef kPoolStealsTotal;  ///< always 0 (no queues)
extern const MetricDef kPoolWorkers;      ///< gauge: worker thread count
extern const MetricDef kPoolTaskWaitUs;   ///< histogram: publish -> join
extern const MetricDef kPoolTaskRunUs;    ///< histogram: a join's run time

// --- core/estimator.cc -----------------------------------------------------
extern const MetricDef kEstimatesTotal;
extern const MetricDef kEstimateLatencyMs;
extern const MetricDef kSeedPlanCompilesTotal;  ///< seed-set plan compiles

// --- core/serving.cc -------------------------------------------------------
extern const MetricDef kServingIngestLatencyMs;
extern const MetricDef kServingStalenessSlots;  ///< gauge: current streak
// Registry mirrors of the ServingStats counters (same semantics, same
// values; see the ServingStats <-> registry equivalence test).
extern const MetricDef kServingSlotsEstimatedTotal;
extern const MetricDef kServingSlotsCarriedForwardTotal;
extern const MetricDef kServingDuplicateSlotsTotal;
extern const MetricDef kServingOutOfOrderSlotsTotal;
extern const MetricDef kServingRejectedBatchesTotal;
extern const MetricDef kServingObservationsFilteredTotal;
extern const MetricDef kServingObservationsDeduplicatedTotal;
extern const MetricDef kServingEstimationFailuresTotal;

// --- core/ingest.cc (lock-free MPSC ingest front-end) ----------------------
extern const MetricDef kServingIngestEnqueuedTotal;
extern const MetricDef kServingIngestRejectedBackpressureTotal;
extern const MetricDef kServingIngestQueueDepth;       ///< gauge
extern const MetricDef kServingIngestFlushedSlotsTotal;
extern const MetricDef kServingIngestStragglersTotal;

// --- core/snapshot.cc (speed snapshots shared by pointer) -------------------
extern const MetricDef kSnapshotPublishesTotal;
/// Always 0: no snapshot read retries. Nothing registers it; it stays
/// only because perfbench reports it as snapshot.read_retries.
extern const MetricDef kSnapshotReadRetriesTotal;
extern const MetricDef kSnapshotReadLatencyUs;  ///< histogram

// --- core/ingest.cc (per-slot straggler attribution) ------------------------
extern const MetricDef kServingIngestStragglerWorstSlot;   ///< gauge
extern const MetricDef kServingIngestStragglerWorstCount;  ///< gauge

// --- obs/flight.cc (slot flight recorder) ----------------------------------
extern const MetricDef kFlightEventsRecordedTotal;
extern const MetricDef kFlightEventsDroppedTotal;

// --- product/{profile,route_eta}.cc (read-side product layer) ---------------
extern const MetricDef kProductProfileFoldsTotal;
extern const MetricDef kProductProfileStaleSkipsTotal;
extern const MetricDef kProductEtaCacheHitsTotal;
extern const MetricDef kProductEtaCacheMissesTotal;
extern const MetricDef kProductEtaCacheInvalidationsTotal;
extern const MetricDef kProductBlendActivationsTotal;
extern const MetricDef kProductReadLatencyUs;  ///< histogram

/// Every catalog entry (one per (name, labels) series). Names may repeat
/// across label sets.
const std::vector<const MetricDef*>& AllMetricDefs();

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_CATALOG_H_
