// ServingSession: the hardened online ingestion/serving layer.
//
// The estimator assumes a well-behaved caller: one plausible observation
// per road. Production crowd streams guarantee none of that — reports
// arrive late, twice, with fat-fingered or sensor-garbage values, or not at
// all. ServingSession wraps the estimator behind a single
// Ingest(slot, observations) call that enforces the contract at the
// boundary and keeps the per-road alert state of the slots it serves:
//
//   * strict validation — NaN/negative/absurd speeds and out-of-range roads
//     are rejected with a Status (never a TS_CHECK abort), either failing
//     the whole batch (kStrict) or dropping the bad entries (kFilter);
//   * per-road deduplication: duplicate observations of a road are averaged
//     in fixed point, and the admitted seeds are handed to the estimator in
//     road order, so a slot's output depends only on the multiset of
//     reports, not on the order producers delivered them;
//   * idempotent duplicate slots — re-delivering the last slot returns the
//     cached report without double-applying alert state;
//   * graceful rejection of out-of-order (stale) slot arrivals;
//   * carry-forward — when a slot arrives empty (or estimation fails) the
//     last good estimate is re-served with a staleness flag, up to a
//     configurable limit;
//   * incident alerts — per-road EWMA-smoothed deviations with debounce and
//     hysteresis (the incident-detection consumer the paper's introduction
//     motivates), moved only by a freshly served slot;
//   * cumulative degradation counters (ServingStats) for operations.
//
// See docs/serving.md for the full contract and tests/fault_injection_test.cc
// for the harness that replays a clean scenario under injected faults.

#ifndef TRENDSPEED_CORE_SERVING_H_
#define TRENDSPEED_CORE_SERVING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator.h"
#include "core/snapshot.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace trendspeed {

/// Per-road congestion alerting on every freshly served slot.
struct MonitorOptions {
  /// Estimated relative deviation at or below this arms a road.
  double alert_deviation = -0.3;
  /// A road must stay below the threshold for this many consecutive
  /// freshly served slots before an alert is raised (debounce).
  uint32_t alert_after_slots = 2;
  /// An active alert clears once the deviation recovers above this.
  double clear_deviation = -0.15;
  /// EWMA factor for the per-road smoothed deviation.
  double ewma_alpha = 0.4;
  /// A road counts toward MonitorReport::congested_roads while its smoothed
  /// deviation sits below this (milder than alert_deviation: a dashboard
  /// statistic, not an alert).
  double congested_deviation = -0.15;
};

/// One raised or cleared alert.
struct TrafficAlert {
  RoadId road = kInvalidRoad;
  uint64_t slot = 0;
  bool raised = true;  ///< false = cleared
  double deviation = 0.0;
};

/// The estimate and alerting output of one freshly served slot.
struct MonitorReport {
  TrafficSpeedEstimator::Output estimate;
  std::vector<TrafficAlert> new_alerts;  ///< raised or cleared this slot
  double mean_speed_kmh = 0.0;
  size_t congested_roads = 0;  ///< smoothed deviation < congested_deviation
};

/// Handling of malformed observations (bad road id / non-finite,
/// non-positive, or implausibly large speed).
enum class ValidationPolicy {
  kStrict,  ///< any malformed observation fails the batch (default)
  kFilter,  ///< malformed observations are dropped and counted
};

/// Knobs for the optional lock-free MPSC ingest queue (core/ingest.h).
/// Off by default: a zero capacity means observation producers call
/// ServingSession::Ingest directly and IngestFrontEnd::Create is refused —
/// single-producer replays then stay bitwise identical to the pre-queue
/// serving loop by construction.
struct IngestQueueOptions {
  /// Bound on queued-but-undrained observations; rounded up to a power of
  /// two by the queue. 0 disables the front-end entirely.
  size_t capacity = 0;

  Status Validate() const;
};

/// Knobs for the read-side product layer (src/product: time-of-day speed
/// profiles and the route-ETA cache served from the published snapshot).
/// The serving loop itself never touches products — they run on reader
/// threads against SpeedSnapshotPublisher::Latest — but the knobs ride in
/// ServingOptions so one validated config describes a city end to end, and
/// enabling them requires the snapshot path they consume
/// (publish_snapshots). Detached (enabled = false, the default) the serving
/// path is bitwise identical to a product-free build; CityProducts
/// (product/products.h) is the consumer.
struct ProductOptions {
  bool enabled = false;
  /// Time-of-day buckets per day the profile store folds snapshots into
  /// (24 = hourly cells). Need not divide slots_per_day.
  uint32_t profile_buckets_per_day = 24;
  /// A profile cell participates in stale-snapshot blending only once it
  /// has folded at least this many fresh snapshots.
  uint64_t profile_min_samples = 4;
  /// Carried-forward slots over which the blend weight ramps from the
  /// snapshot toward the historical profile (at this streak the profile
  /// fully replaces the stale field).
  uint32_t blend_full_stale_slots = 6;
  /// Cached (from, to) route-ETA entries per cache.
  size_t eta_cache_capacity = 1024;

  Status Validate() const;
};

/// Observability sinks of one serving session (docs/observability.md).
/// Sinks are borrowed and must outlive the session; null (the default)
/// disables recording, and results are bitwise identical either way.
struct ServingObservabilityOptions {
  /// Destination for the trendspeed_serving_* series.
  obs::MetricsRegistry* metrics = nullptr;
  /// Slot flight recorder (obs/flight.h). When attached, every stage a
  /// slot passes through — queue wait, admission, estimate, BP solve,
  /// snapshot publish — records one (slot, stage, start, duration) event
  /// into the recorder's ring, which merges into one timeline per slot and
  /// may be shared by sessions on several threads; the session passes the
  /// recorder to Estimate. Null (default): every flight site is one
  /// predicted branch.
  obs::FlightRecorder* flight = nullptr;
};

struct ServingOptions {
  MonitorOptions monitor;
  /// Observed speeds above this are malformed (sensor garbage / unit
  /// mistakes), not merely fast traffic. At most kMaxSpeedCeilingKmh.
  double max_speed_kmh = 250.0;
  /// Ceiling on max_speed_kmh (2^20 km/h): it keeps an admitted speed in
  /// the duplicate merge's 2^-32 km/h fixed point at most 2^52 units.
  static constexpr double kMaxSpeedCeilingKmh = 1048576.0;
  ValidationPolicy validation = ValidationPolicy::kStrict;
  /// Consecutive carried-forward slots tolerated before an empty/failed
  /// slot is refused with FailedPrecondition instead of re-serving an
  /// ever-staler estimate. 0 disables carry-forward entirely.
  uint32_t max_stale_slots = 12;
  /// Observability sinks for this session: the trendspeed_serving_* series
  /// (per-Ingest latency histogram, staleness gauge, registry mirrors of
  /// every ServingStats field) and the flight recorder's per-slot stages.
  /// Sinks must outlive the session.
  ServingObservabilityOptions observability;
  /// Publish every served slot (fresh or carried forward) through a
  /// SpeedSnapshotPublisher, giving concurrent readers an immutable,
  /// consistent (slot, speeds, staleness) view shared by pointer — see
  /// core/snapshot.h and docs/serving.md. Off by default:
  /// snapshot_publisher() is then null.
  bool publish_snapshots = false;
  /// Lock-free MPSC ingest front-end sizing; capacity 0 (default) = off.
  IngestQueueOptions ingest_queue;
  /// Read-side product layer knobs (profiles + ETA cache); off by default.
  /// products.enabled requires publish_snapshots — the products are views
  /// over the published snapshot and have nothing to read without it.
  ProductOptions products;

  /// Full validation of every knob, MonitorOptions included; Create
  /// refuses any options this rejects.
  Status Validate() const;
};

/// Cumulative degradation counters — a point-in-time snapshot returned by
/// ServingSession::stats(). Monotone over the session lifetime; a healthy
/// stream keeps everything but slots_estimated at 0.
///
/// Internally every field is backed by a relaxed std::atomic bumped in the
/// same ServingSession::Count call as its registry mirror, so the snapshot
/// and the exported counters agree at quiescence even when producer
/// threads feed the session through the MPSC front-end (the pre-atomic
/// plain-uint64 fields silently lost increments under that regime while
/// the atomic mirrors did not — divergence pinned by tests/ingest_test.cc).
struct ServingStats {
  uint64_t slots_estimated = 0;        ///< fresh estimates served
  uint64_t slots_carried_forward = 0;  ///< stale re-serves of the last good
  uint64_t duplicate_slots = 0;        ///< idempotent re-deliveries
  uint64_t out_of_order_slots = 0;     ///< stale arrivals rejected
  uint64_t rejected_batches = 0;       ///< batches failed by validation
  /// Malformed observations dropped under ValidationPolicy::kFilter. A
  /// rising rate means upstream data quality is degrading — unlike
  /// observations_deduplicated, which is normal retry/multi-worker noise;
  /// the two were one conflated counter before and alerting on it was
  /// impossible.
  uint64_t observations_filtered = 0;
  /// Well-formed duplicate road observations averaged into one.
  uint64_t observations_deduplicated = 0;
  /// Estimator errors and non-finite or negative estimated speeds absorbed
  /// by carrying the last good estimate forward.
  uint64_t estimation_failures = 0;
};

class ServingSession {
 public:
  /// One served slot. `monitor` holds the estimate + alerting output; the
  /// remaining fields describe how degraded the serving of this slot was.
  struct SlotReport {
    uint64_t slot = 0;
    MonitorReport monitor;
    /// True when this is the last good estimate carried forward, not a
    /// fresh one; `monitor.new_alerts` is empty in that case.
    bool stale = false;
    /// Consecutive carried-forward slots ending at this one (0 = fresh).
    uint32_t stale_slots = 0;
    /// True when this report is the idempotent re-delivery of a slot
    /// already served.
    bool duplicate = false;
    size_t observations_used = 0;
    /// Observations removed from this batch (validation-filtered plus
    /// deduplicated; the cumulative ServingStats keep the two apart).
    size_t observations_dropped = 0;
  };

  /// The estimator must outlive the session.
  static Result<ServingSession> Create(const TrafficSpeedEstimator* estimator,
                                       const ServingOptions& opts = {});

  /// Ingests one slot of crowd observations and serves the estimate.
  ///
  /// Error statuses (all graceful — the session stays usable):
  ///   InvalidArgument      malformed batch under kStrict; the slot is NOT
  ///                        consumed, a corrected batch may be re-sent.
  ///   FailedPrecondition   stale (out-of-order) slot arrival, or an
  ///                        empty/failed slot with no carry-forward
  ///                        available (none yet, or staleness limit hit).
  Result<SlotReport> Ingest(uint64_t slot,
                            const std::vector<SeedSpeed>& observations);

  /// Point-in-time snapshot of the cumulative degradation counters.
  ServingStats stats() const;

  /// Snapshot read path; null unless options().publish_snapshots.
  /// Readers on any thread call snapshot_publisher()->Latest() or Read();
  /// neither holds the publisher's mutex beyond a pointer copy, so they
  /// never stall Ingest. The pointer is stable for the session's lifetime.
  const SpeedSnapshotPublisher* snapshot_publisher() const {
    return snapshot_.get();
  }

  /// True once any slot has been served (fresh or carried forward).
  bool has_estimate() const { return has_report_; }
  /// Last served report. Precondition: has_estimate().
  const SlotReport& last_report() const { return last_report_; }

  /// Roads currently under an active alert.
  std::vector<RoadId> ActiveAlerts() const;

  /// Smoothed deviation of a road (0 before its first served slot).
  double SmoothedDeviation(RoadId road) const { return ewma_[road]; }

  const ServingOptions& options() const { return opts_; }

  /// The session's Estimate workspace (docs/serving.md). Single-threaded
  /// contract, like stats().
  const EstimateWorkspace& estimate_workspace() const { return workspace_; }

 private:
  ServingSession(const TrafficSpeedEstimator* estimator,
                 const ServingOptions& opts);

  /// Validates + deduplicates one batch into admitted_: one entry per
  /// road, in road order, each the fixed-point mean of the road's reports
  /// (a single report passes through bit for bit). Any permutation of a
  /// batch admits the same bits. On success sets *filtered /
  /// *deduplicated to the number removed by validation and by dedup
  /// respectively.
  Status Sanitize(const std::vector<SeedSpeed>& observations,
                  size_t* filtered, size_t* deduplicated);

  /// Serves the last good estimate for `slot` with the staleness flag, or
  /// explains why it cannot.
  Result<SlotReport> CarryForward(uint64_t slot, size_t dropped);

  /// Folds a freshly served estimate into the per-road alert state and
  /// fills the rest of *report (alerts, mean speed, congested count).
  void UpdateAlerts(uint64_t slot, MonitorReport* report);

  /// Atomic backing store for ServingStats; field order matches. Heap-held
  /// so the session stays movable (Result<ServingSession> moves it out of
  /// Create) while the atomics themselves never move.
  struct AtomicStats {
    std::atomic<uint64_t> slots_estimated{0};
    std::atomic<uint64_t> slots_carried_forward{0};
    std::atomic<uint64_t> duplicate_slots{0};
    std::atomic<uint64_t> out_of_order_slots{0};
    std::atomic<uint64_t> rejected_batches{0};
    std::atomic<uint64_t> observations_filtered{0};
    std::atomic<uint64_t> observations_deduplicated{0};
    std::atomic<uint64_t> estimation_failures{0};
  };

  /// Bumps a ServingStats field and its registry mirror in one call, both
  /// through atomics, so the struct snapshot and the exported counter agree
  /// at quiescence from any thread — tests/obs_test.cc and
  /// tests/ingest_test.cc pin this equivalence.
  void Count(std::atomic<uint64_t>& field, obs::Counter* mirror,
             uint64_t n = 1) {
    field.fetch_add(n, std::memory_order_relaxed);
    obs::Add(mirror, n);
  }

  /// Publishes the last served report as a new speed snapshot (no-op
  /// when snapshots are off); records the kPublish flight stage when a
  /// recorder is attached.
  void PublishSnapshot();

  const TrafficSpeedEstimator* estimator_;
  ServingOptions opts_;
  std::unique_ptr<AtomicStats> stats_;
  std::unique_ptr<SpeedSnapshotPublisher> snapshot_;
  bool has_report_ = false;
  SlotReport last_report_;
  uint32_t stale_streak_ = 0;
  /// Estimate's seed-set plan and per-slot scratch, passed on every slot;
  /// a fixed seed set compiles once.
  EstimateWorkspace workspace_;
  /// Sanitize's road -> index-in-batch map, SIZE_MAX between batches.
  std::vector<size_t> pos_;
  /// One road's reports in the duplicate merge: their speeds summed in
  /// 2^-32 km/h units. Each report is at most 2^52 units (the max_speed_kmh
  /// ceiling) and a batch holds fewer than 2^64 reports, so the sum stays
  /// below 2^116. Integer addition commutes, so the sum is order-free.
  struct RoadMerge {
    unsigned __int128 units = 0;
    uint64_t reports = 0;
  };
  /// Sanitize's output and per-entry merge, parallel; kept across slots so
  /// a warm session admits a batch without allocating.
  std::vector<SeedSpeed> admitted_;
  std::vector<RoadMerge> merge_;
  /// Per-road alert state, moved only by UpdateAlerts. ewma_seeded_[r] is 1
  /// once road r's EWMA has been seeded by a directly observed slot; until
  /// then the EWMA accumulates from 0 at the normal alpha, so backfilled or
  /// carried-forward deviations can never arm a road at full weight on its
  /// first appearance.
  std::vector<double> ewma_;
  std::vector<uint8_t> ewma_seeded_;
  std::vector<uint32_t> below_streak_;
  std::vector<bool> alert_active_;

  // Metric handles; all null when no registry is configured.
  obs::Counter* m_slots_estimated_ = nullptr;
  obs::Counter* m_slots_carried_forward_ = nullptr;
  obs::Counter* m_duplicate_slots_ = nullptr;
  obs::Counter* m_out_of_order_slots_ = nullptr;
  obs::Counter* m_rejected_batches_ = nullptr;
  obs::Counter* m_observations_filtered_ = nullptr;
  obs::Counter* m_observations_deduplicated_ = nullptr;
  obs::Counter* m_estimation_failures_ = nullptr;
  obs::Histogram* m_ingest_latency_ = nullptr;
  obs::Gauge* m_staleness_ = nullptr;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_SERVING_H_
