#include "obs/catalog.h"

namespace trendspeed {
namespace obs {

namespace {

// Shared bucket layouts. Latencies are long-tailed, so bounds are roughly
// geometric.
constexpr double kLatencyMsBounds[] = {0.05, 0.1,  0.25, 0.5, 1.0,  2.5, 5.0,
                                       10.0, 25.0, 50.0, 100, 250,  1000};
constexpr double kMicrosBounds[] = {1,    2,    5,     10,    25,    50,
                                    100,  250,  1000,  5000,  25000, 100000};
constexpr double kGainBounds[] = {0.01, 0.05, 0.1, 0.25, 0.5, 1,
                                  2,    4,    8,   16,   32,  64};

constexpr size_t N(auto& a) { return sizeof(a) / sizeof(a[0]); }

}  // namespace

// --- BP --------------------------------------------------------------------
const MetricDef kBpRunsTotal = {
    "trendspeed_bp_runs_total", MetricType::kCounter,
    "Belief-propagation inference runs", "1"};
// Retired: BP runs a fixed number of sweeps and has no convergence test, so
// nothing increments this. It stays registered only while perfbench still
// reads it (trend.bp_converged_frac); both go in the next benchmark change.
const MetricDef kBpConvergedTotal = {
    "trendspeed_bp_converged_total", MetricType::kCounter,
    "Retired, always 0: BP runs a fixed sweep count", "1"};
const MetricDef kBpSweepsTotal = {
    "trendspeed_bp_sweeps_total", MetricType::kCounter,
    "Jacobi message half-sweeps executed", "1"};
const MetricDef kBpMessageUpdatesTotal = {
    "trendspeed_bp_message_updates_total", MetricType::kCounter,
    "Directed-edge message updates", "1"};
const MetricDef kBpKernelRunsScalar = {
    "trendspeed_bp_kernel_runs_total", MetricType::kCounter,
    "BP runs by executing message-update kernel", "1", "kernel=\"scalar\""};
const MetricDef kBpKernelRunsSimd = {
    "trendspeed_bp_kernel_runs_total", MetricType::kCounter,
    "BP runs by executing message-update kernel", "1", "kernel=\"simd\""};

// --- seed selection --------------------------------------------------------
const MetricDef kSeedRunsGreedy = {
    "trendspeed_seed_runs_total", MetricType::kCounter,
    "Seed-selection invocations", "1", "algorithm=\"greedy\""};
const MetricDef kSeedRunsLazyGreedy = {
    "trendspeed_seed_runs_total", MetricType::kCounter,
    "Seed-selection invocations", "1", "algorithm=\"lazy_greedy\""};
const MetricDef kSeedRunsStochasticGreedy = {
    "trendspeed_seed_runs_total", MetricType::kCounter,
    "Seed-selection invocations", "1", "algorithm=\"stochastic_greedy\""};
const MetricDef kSeedGainEvalsGreedy = {
    "trendspeed_seed_gain_evaluations_total", MetricType::kCounter,
    "Marginal-gain (GainOf) evaluations", "1", "algorithm=\"greedy\""};
const MetricDef kSeedGainEvalsLazyGreedy = {
    "trendspeed_seed_gain_evaluations_total", MetricType::kCounter,
    "Marginal-gain (GainOf) evaluations", "1", "algorithm=\"lazy_greedy\""};
const MetricDef kSeedGainEvalsStochasticGreedy = {
    "trendspeed_seed_gain_evaluations_total", MetricType::kCounter,
    "Marginal-gain (GainOf) evaluations", "1",
    "algorithm=\"stochastic_greedy\""};
const MetricDef kSeedRoundsTotal = {
    "trendspeed_seed_rounds_total", MetricType::kCounter,
    "Seeds committed across all greedy-family runs", "1"};
const MetricDef kSeedLazyRepopsTotal = {
    "trendspeed_seed_lazy_repops_total", MetricType::kCounter,
    "Stale CELF heap entries re-popped for re-evaluation", "1"};
const MetricDef kSeedMarginalGain = {
    "trendspeed_seed_marginal_gain", MetricType::kHistogram,
    "Marginal gain of each committed seed", "gain", "",
    kGainBounds, N(kGainBounds)};

// --- thread pool -----------------------------------------------------------
const MetricDef kPoolTasksTotal = {
    "trendspeed_pool_tasks_total", MetricType::kCounter,
    "Worker joins of parallel regions (helpers woken to claim chunks)", "1"};
const MetricDef kPoolStealsTotal = {
    "trendspeed_pool_steals_total", MetricType::kCounter,
    "Always 0: the fork-join pool has no queues to steal from", "1"};
const MetricDef kPoolWorkers = {
    "trendspeed_pool_workers", MetricType::kGauge,
    "Worker threads in the pool", "threads"};
const MetricDef kPoolTaskWaitUs = {
    "trendspeed_pool_task_wait_us", MetricType::kHistogram,
    "Helper wake-up: region publish to helper start", "us", "",
    kMicrosBounds, N(kMicrosBounds)};
const MetricDef kPoolTaskRunUs = {
    "trendspeed_pool_task_run_us", MetricType::kHistogram,
    "Helper time in one region, chunks claimed and run", "us", "",
    kMicrosBounds, N(kMicrosBounds)};

// --- estimator -------------------------------------------------------------
const MetricDef kEstimatesTotal = {
    "trendspeed_estimates_total", MetricType::kCounter,
    "Full-network Estimate() calls", "1"};
const MetricDef kEstimateLatencyMs = {
    "trendspeed_estimate_latency_ms", MetricType::kHistogram,
    "Wall time of one Estimate() call", "ms", "",
    kLatencyMsBounds, N(kLatencyMsBounds)};
const MetricDef kSeedPlanCompilesTotal = {
    "trendspeed_seed_plan_compiles_total", MetricType::kCounter,
    "Estimate() calls that compiled their seed-set plan (a fixed seed set "
    "compiles once per workspace)",
    "1"};

// --- serving ---------------------------------------------------------------
const MetricDef kServingIngestLatencyMs = {
    "trendspeed_serving_ingest_latency_ms", MetricType::kHistogram,
    "Wall time of one ServingSession::Ingest call", "ms", "",
    kLatencyMsBounds, N(kLatencyMsBounds)};
const MetricDef kServingStalenessSlots = {
    "trendspeed_serving_staleness_slots", MetricType::kGauge,
    "Current consecutive carried-forward slot streak", "slots"};
const MetricDef kServingSlotsEstimatedTotal = {
    "trendspeed_serving_slots_estimated_total", MetricType::kCounter,
    "Fresh estimates served", "1"};
const MetricDef kServingSlotsCarriedForwardTotal = {
    "trendspeed_serving_slots_carried_forward_total", MetricType::kCounter,
    "Stale re-serves of the last good estimate", "1"};
const MetricDef kServingDuplicateSlotsTotal = {
    "trendspeed_serving_duplicate_slots_total", MetricType::kCounter,
    "Idempotent duplicate-slot re-deliveries", "1"};
const MetricDef kServingOutOfOrderSlotsTotal = {
    "trendspeed_serving_out_of_order_slots_total", MetricType::kCounter,
    "Stale (out-of-order) slot arrivals rejected", "1"};
const MetricDef kServingRejectedBatchesTotal = {
    "trendspeed_serving_rejected_batches_total", MetricType::kCounter,
    "Batches failed by validation", "1"};
const MetricDef kServingObservationsFilteredTotal = {
    "trendspeed_serving_observations_filtered_total", MetricType::kCounter,
    "Malformed observations dropped under ValidationPolicy::kFilter", "1"};
const MetricDef kServingObservationsDeduplicatedTotal = {
    "trendspeed_serving_observations_deduplicated_total", MetricType::kCounter,
    "Duplicate road observations averaged into one", "1"};
const MetricDef kServingEstimationFailuresTotal = {
    "trendspeed_serving_estimation_failures_total", MetricType::kCounter,
    "Estimator errors and unservable speeds absorbed by carry-forward", "1"};

// --- ingest front-end (core/ingest.cc) -------------------------------------
const MetricDef kServingIngestEnqueuedTotal = {
    "trendspeed_serving_ingest_enqueued_total", MetricType::kCounter,
    "Observations accepted into the MPSC ingest queue", "1"};
const MetricDef kServingIngestRejectedBackpressureTotal = {
    "trendspeed_serving_ingest_rejected_backpressure_total",
    MetricType::kCounter,
    "Observations refused because the ingest queue was full", "1"};
const MetricDef kServingIngestQueueDepth = {
    "trendspeed_serving_ingest_queue_depth", MetricType::kGauge,
    "Observations queued but not yet drained", "observations"};
const MetricDef kServingIngestFlushedSlotsTotal = {
    "trendspeed_serving_ingest_flushed_slots_total", MetricType::kCounter,
    "Slot batches the drain loop handed to ServingSession::Ingest", "1"};
const MetricDef kServingIngestStragglersTotal = {
    "trendspeed_serving_ingest_stragglers_total", MetricType::kCounter,
    "Observations dropped because their slot batch was already flushed",
    "1"};

// --- speed snapshot (core/snapshot.cc) -------------------------------------
const MetricDef kSnapshotPublishesTotal = {
    "trendspeed_snapshot_publishes_total", MetricType::kCounter,
    "Speed-field snapshots published (one per served slot)", "1"};
const MetricDef kSnapshotReadRetriesTotal = {
    "trendspeed_snapshot_read_retries_total", MetricType::kCounter,
    "Always 0: a snapshot read takes a pointer and never retries", "1"};
const MetricDef kSnapshotReadLatencyUs = {
    "trendspeed_snapshot_read_latency_us", MetricType::kHistogram,
    "Wall time of one consistent SpeedSnapshot read", "us", "",
    kMicrosBounds, N(kMicrosBounds)};

// --- ingest straggler attribution (core/ingest.cc) -------------------------
const MetricDef kServingIngestStragglerWorstSlot = {
    "trendspeed_serving_ingest_straggler_worst_slot", MetricType::kGauge,
    "Slot id that has lost the most observations behind the flush watermark",
    "slot"};
const MetricDef kServingIngestStragglerWorstCount = {
    "trendspeed_serving_ingest_straggler_worst_count", MetricType::kGauge,
    "Straggler observations lost by that worst slot", "observations"};

// --- flight recorder (obs/flight.cc) ---------------------------------------
const MetricDef kFlightEventsRecordedTotal = {
    "trendspeed_flight_events_recorded_total", MetricType::kCounter,
    "Stage events written into the flight ring", "1"};
const MetricDef kFlightEventsDroppedTotal = {
    "trendspeed_flight_events_dropped_total", MetricType::kCounter,
    "Flight events lost to ring overwrites", "1"};

// --- read-side products (product/{profile,route_eta}.cc) -------------------
const MetricDef kProductProfileFoldsTotal = {
    "trendspeed_product_profile_folds_total", MetricType::kCounter,
    "Fresh snapshots folded into a time-of-day speed profile", "1"};
const MetricDef kProductProfileStaleSkipsTotal = {
    "trendspeed_product_profile_stale_skips_total", MetricType::kCounter,
    "Stale snapshots skipped by profile folding (carried-forward fields are "
    "not independent evidence)", "1"};
const MetricDef kProductEtaCacheHitsTotal = {
    "trendspeed_product_eta_cache_hits_total", MetricType::kCounter,
    "Route-ETA queries answered from a cache entry matching the current "
    "snapshot version", "1"};
const MetricDef kProductEtaCacheMissesTotal = {
    "trendspeed_product_eta_cache_misses_total", MetricType::kCounter,
    "Route-ETA queries that ran a fresh FastestRoute search", "1"};
const MetricDef kProductEtaCacheInvalidationsTotal = {
    "trendspeed_product_eta_cache_invalidations_total", MetricType::kCounter,
    "Cache entries discarded because the snapshot version moved on", "1"};
const MetricDef kProductBlendActivationsTotal = {
    "trendspeed_product_blend_activations_total", MetricType::kCounter,
    "Product reads that blended a stale snapshot toward the historical "
    "profile", "1"};
const MetricDef kProductReadLatencyUs = {
    "trendspeed_product_read_latency_us", MetricType::kHistogram,
    "Wall time of one product-layer read (snapshot read + ETA answer)", "us",
    "", kMicrosBounds, N(kMicrosBounds)};

const std::vector<const MetricDef*>& AllMetricDefs() {
  static const std::vector<const MetricDef*> all = {
      &kBpRunsTotal,
      &kBpConvergedTotal,
      &kBpSweepsTotal,
      &kBpMessageUpdatesTotal,
      &kBpKernelRunsScalar,
      &kBpKernelRunsSimd,
      &kSeedRunsGreedy,
      &kSeedRunsLazyGreedy,
      &kSeedRunsStochasticGreedy,
      &kSeedGainEvalsGreedy,
      &kSeedGainEvalsLazyGreedy,
      &kSeedGainEvalsStochasticGreedy,
      &kSeedRoundsTotal,
      &kSeedLazyRepopsTotal,
      &kSeedMarginalGain,
      &kPoolTasksTotal,
      &kPoolStealsTotal,
      &kPoolWorkers,
      &kPoolTaskWaitUs,
      &kPoolTaskRunUs,
      &kEstimatesTotal,
      &kEstimateLatencyMs,
      &kSeedPlanCompilesTotal,
      &kServingIngestLatencyMs,
      &kServingStalenessSlots,
      &kServingSlotsEstimatedTotal,
      &kServingSlotsCarriedForwardTotal,
      &kServingDuplicateSlotsTotal,
      &kServingOutOfOrderSlotsTotal,
      &kServingRejectedBatchesTotal,
      &kServingObservationsFilteredTotal,
      &kServingObservationsDeduplicatedTotal,
      &kServingEstimationFailuresTotal,
      &kServingIngestEnqueuedTotal,
      &kServingIngestRejectedBackpressureTotal,
      &kServingIngestQueueDepth,
      &kServingIngestFlushedSlotsTotal,
      &kServingIngestStragglersTotal,
      &kSnapshotPublishesTotal,
      &kSnapshotReadRetriesTotal,
      &kSnapshotReadLatencyUs,
      &kServingIngestStragglerWorstSlot,
      &kServingIngestStragglerWorstCount,
      &kFlightEventsRecordedTotal,
      &kFlightEventsDroppedTotal,
      &kProductProfileFoldsTotal,
      &kProductProfileStaleSkipsTotal,
      &kProductEtaCacheHitsTotal,
      &kProductEtaCacheMissesTotal,
      &kProductEtaCacheInvalidationsTotal,
      &kProductBlendActivationsTotal,
      &kProductReadLatencyUs,
  };
  return all;
}

}  // namespace obs
}  // namespace trendspeed
