#include "core/serving.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/catalog.h"
#include "obs/clock.h"

namespace trendspeed {

namespace {

/// Fixed-point scale of the duplicate merge: 2^32 units per km/h, a
/// resolution of 2.3e-10 km/h. Dividing by a power of two is exact.
constexpr double kUnitsPerKmh = 4294967296.0;

/// Records the enclosing Ingest call's latency on destruction, whichever
/// return path is taken. A null histogram makes this a no-op that never
/// reads the clock.
class IngestLatencyScope {
 public:
  explicit IngestLatencyScope(obs::Histogram* latency_ms)
      : latency_ms_(latency_ms),
        start_ns_(latency_ms != nullptr ? obs::MonotonicNanos() : 0) {}
  ~IngestLatencyScope() {
    if (latency_ms_ == nullptr) return;
    latency_ms_->Observe(
        obs::NanosToMillis(obs::ElapsedNanosSince(start_ns_)));
  }

 private:
  obs::Histogram* latency_ms_;
  uint64_t start_ns_;
};

/// True when every speed is finite and non-negative: the only fields the
/// session serves.
bool Servable(const std::vector<double>& speed_kmh) {
  return std::all_of(speed_kmh.begin(), speed_kmh.end(), [](double v) {
    return std::isfinite(v) && v >= 0.0;
  });
}

}  // namespace

Status IngestQueueOptions::Validate() const {
  // The queue rounds capacity up to a power of two; bound the request so a
  // fat-fingered capacity cannot ask for a multi-GB ring.
  if (capacity > (size_t{1} << 30)) {
    return Status::InvalidArgument(
        "ingest_queue.capacity must be <= 2^30 (0 disables the queue)");
  }
  return Status::OK();
}

Status ProductOptions::Validate() const {
  if (!enabled) return Status::OK();
  if (profile_buckets_per_day == 0) {
    return Status::InvalidArgument(
        "products.profile_buckets_per_day must be positive");
  }
  if (profile_buckets_per_day > 86400) {
    return Status::InvalidArgument(
        "products.profile_buckets_per_day must be <= 86400 (sub-second "
        "time-of-day buckets are a config mistake)");
  }
  if (profile_min_samples == 0) {
    return Status::InvalidArgument(
        "products.profile_min_samples must be positive (a zero-sample cell "
        "has no mean to blend)");
  }
  if (blend_full_stale_slots == 0) {
    return Status::InvalidArgument(
        "products.blend_full_stale_slots must be positive");
  }
  if (eta_cache_capacity == 0) {
    return Status::InvalidArgument(
        "products.eta_cache_capacity must be positive");
  }
  return Status::OK();
}

Status ServingOptions::Validate() const {
  // `!(a < b)` style keeps NaN-poisoned options invalid too.
  if (!(monitor.ewma_alpha > 0.0) || !(monitor.ewma_alpha <= 1.0)) {
    return Status::InvalidArgument("monitor.ewma_alpha must be in (0, 1]");
  }
  if (!(monitor.alert_deviation < monitor.clear_deviation)) {
    return Status::InvalidArgument(
        "monitor.alert_deviation must be below monitor.clear_deviation");
  }
  if (!(monitor.congested_deviation < 0.0)) {
    return Status::InvalidArgument(
        "monitor.congested_deviation must be negative");
  }
  if (monitor.alert_after_slots == 0) {
    return Status::InvalidArgument("monitor.alert_after_slots must be positive");
  }
  if (!(max_speed_kmh > 0.0) || !(max_speed_kmh <= kMaxSpeedCeilingKmh)) {
    return Status::InvalidArgument(
        "max_speed_kmh must be positive and at most 2^20 (1048576)");
  }
  TS_RETURN_NOT_OK(ingest_queue.Validate());
  TS_RETURN_NOT_OK(products.Validate());
  if (products.enabled && !publish_snapshots) {
    return Status::InvalidArgument(
        "products.enabled requires publish_snapshots (the product layer "
        "reads the speed snapshot; there is nothing to serve without it)");
  }
  return Status::OK();
}

ServingSession::ServingSession(const TrafficSpeedEstimator* estimator,
                               const ServingOptions& opts)
    : estimator_(estimator),
      opts_(opts),
      stats_(std::make_unique<AtomicStats>()),
      pos_(estimator->network().num_roads(), SIZE_MAX),
      ewma_(estimator->network().num_roads(), 0.0),
      ewma_seeded_(estimator->network().num_roads(), 0),
      below_streak_(estimator->network().num_roads(), 0),
      alert_active_(estimator->network().num_roads(), false) {
  // Register handles once; every hot-path record is then a pointer check.
  obs::MetricsRegistry* reg = opts_.observability.metrics;
  if (opts_.publish_snapshots) {
    snapshot_ = std::make_unique<SpeedSnapshotPublisher>(
        estimator->network().num_roads());
    snapshot_->AttachMetrics(reg);
  }
  m_slots_estimated_ = obs::GetCounter(reg, obs::kServingSlotsEstimatedTotal);
  m_slots_carried_forward_ =
      obs::GetCounter(reg, obs::kServingSlotsCarriedForwardTotal);
  m_duplicate_slots_ = obs::GetCounter(reg, obs::kServingDuplicateSlotsTotal);
  m_out_of_order_slots_ =
      obs::GetCounter(reg, obs::kServingOutOfOrderSlotsTotal);
  m_rejected_batches_ = obs::GetCounter(reg, obs::kServingRejectedBatchesTotal);
  m_observations_filtered_ =
      obs::GetCounter(reg, obs::kServingObservationsFilteredTotal);
  m_observations_deduplicated_ =
      obs::GetCounter(reg, obs::kServingObservationsDeduplicatedTotal);
  m_estimation_failures_ =
      obs::GetCounter(reg, obs::kServingEstimationFailuresTotal);
  m_ingest_latency_ = obs::GetHistogram(reg, obs::kServingIngestLatencyMs);
  m_staleness_ = obs::GetGauge(reg, obs::kServingStalenessSlots);
  if (opts_.observability.flight != nullptr) {
    opts_.observability.flight->AttachMetrics(reg);
  }
}

Result<ServingSession> ServingSession::Create(
    const TrafficSpeedEstimator* estimator, const ServingOptions& opts) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("null estimator");
  }
  TS_RETURN_NOT_OK(opts.Validate());
  return ServingSession(estimator, opts);
}

Status ServingSession::Sanitize(const std::vector<SeedSpeed>& observations,
                                size_t* filtered, size_t* deduplicated) {
  const size_t num_roads = estimator_->network().num_roads();
  admitted_.clear();
  merge_.clear();
  // Every road this batch indexes in pos_ is in admitted_; resetting those
  // entries hands the next batch an all-SIZE_MAX index without an
  // O(num_roads) fill.
  auto reset_pos = [&] {
    for (const SeedSpeed& s : admitted_) pos_[s.road] = SIZE_MAX;
  };

  for (const SeedSpeed& s : observations) {
    const char* problem = nullptr;
    if (s.road >= num_roads) {
      problem = "road id out of range";
    } else if (!std::isfinite(s.speed_kmh)) {
      problem = "speed is not finite";
    } else if (s.speed_kmh <= 0.0) {
      problem = "speed is not positive";
    } else if (s.speed_kmh > opts_.max_speed_kmh) {
      problem = "speed exceeds max_speed_kmh";
    }
    if (problem != nullptr) {
      if (opts_.validation == ValidationPolicy::kStrict) {
        reset_pos();
        return Status::InvalidArgument("malformed observation for road " +
                                       std::to_string(s.road) + ": " +
                                       problem);
      }
      ++*filtered;
      continue;
    }
    // The speed is in (0, 2^20], so this is in [1, 2^52]; at least one
    // unit keeps every merged mean positive.
    const uint64_t units = std::max<uint64_t>(
        1, static_cast<uint64_t>(s.speed_kmh * kUnitsPerKmh + 0.5));
    size_t& pos = pos_[s.road];
    if (pos != SIZE_MAX) {
      merge_[pos].units += units;
      ++merge_[pos].reports;
      ++*deduplicated;
      continue;
    }
    pos = admitted_.size();
    admitted_.push_back(s);
    merge_.push_back({units, 1});
  }
  reset_pos();
  for (size_t i = 0; i < admitted_.size(); ++i) {
    const RoadMerge& m = merge_[i];
    if (m.reports > 1) {
      admitted_[i].speed_kmh = static_cast<double>(m.units) / kUnitsPerKmh /
                               static_cast<double>(m.reports);
    }
  }
  // Only the distinct entries are sorted. A fixed road set then reaches
  // the estimator as the same list every slot, so its seed-set plan is
  // compiled once.
  std::sort(admitted_.begin(), admitted_.end(),
            [](const SeedSpeed& a, const SeedSpeed& b) {
              return a.road < b.road;
            });
  return Status::OK();
}

Result<ServingSession::SlotReport> ServingSession::CarryForward(
    uint64_t slot, size_t dropped) {
  if (!has_report_) {
    return Status::FailedPrecondition(
        "no estimate available to carry forward");
  }
  if (stale_streak_ >= opts_.max_stale_slots) {
    return Status::FailedPrecondition(
        "estimate too stale: already " + std::to_string(stale_streak_) +
        " consecutive carried-forward slots");
  }
  Count(stats_->slots_carried_forward, m_slots_carried_forward_);
  ++stale_streak_;
  obs::Set(m_staleness_, static_cast<double>(stale_streak_));
  last_report_.slot = slot;
  last_report_.stale = true;
  last_report_.stale_slots = stale_streak_;
  last_report_.duplicate = false;
  // Alerts belong to the slot they were raised in; a re-served estimate
  // raises nothing new.
  last_report_.monitor.new_alerts.clear();
  last_report_.observations_used = 0;
  last_report_.observations_dropped = dropped;
  PublishSnapshot();
  return last_report_;
}

void ServingSession::PublishSnapshot() {
  if (snapshot_ == nullptr || !has_report_) return;
  obs::FlightSpan span(opts_.observability.flight, last_report_.slot,
                       obs::FlightStage::kPublish);
  const SpeedEstimateResult& speeds = last_report_.monitor.estimate.speeds;
  snapshot_->Publish(last_report_.slot, speeds.speed_kmh, speeds.deviation,
                     last_report_.stale_slots,
                     last_report_.monitor.mean_speed_kmh);
}

ServingStats ServingSession::stats() const {
  ServingStats out;
  out.slots_estimated =
      stats_->slots_estimated.load(std::memory_order_relaxed);
  out.slots_carried_forward =
      stats_->slots_carried_forward.load(std::memory_order_relaxed);
  out.duplicate_slots =
      stats_->duplicate_slots.load(std::memory_order_relaxed);
  out.out_of_order_slots =
      stats_->out_of_order_slots.load(std::memory_order_relaxed);
  out.rejected_batches =
      stats_->rejected_batches.load(std::memory_order_relaxed);
  out.observations_filtered =
      stats_->observations_filtered.load(std::memory_order_relaxed);
  out.observations_deduplicated =
      stats_->observations_deduplicated.load(std::memory_order_relaxed);
  out.estimation_failures =
      stats_->estimation_failures.load(std::memory_order_relaxed);
  return out;
}

Result<ServingSession::SlotReport> ServingSession::Ingest(
    uint64_t slot, const std::vector<SeedSpeed>& observations) {
  obs::FlightRecorder* flight = opts_.observability.flight;
  obs::FlightSpan envelope(flight, slot, obs::FlightStage::kIngest);
  IngestLatencyScope latency(m_ingest_latency_);
  if (has_report_) {
    if (slot == last_report_.slot) {
      // Idempotent re-delivery: serve the cached report, mutate nothing.
      Count(stats_->duplicate_slots, m_duplicate_slots_);
      SlotReport replay = last_report_;
      replay.duplicate = true;
      return replay;
    }
    if (slot < last_report_.slot) {
      Count(stats_->out_of_order_slots, m_out_of_order_slots_);
      return Status::FailedPrecondition(
          "stale slot " + std::to_string(slot) + " arrived after slot " +
          std::to_string(last_report_.slot) + " was served");
    }
  }

  size_t filtered = 0;
  size_t deduplicated = 0;
  Status sanitized = [&] {
    obs::FlightSpan admission(flight, slot, obs::FlightStage::kAdmission);
    return Sanitize(observations, &filtered, &deduplicated);
  }();
  if (!sanitized.ok()) {
    // The slot is not consumed: a corrected batch may be re-sent.
    Count(stats_->rejected_batches, m_rejected_batches_);
    return sanitized;
  }
  Count(stats_->observations_filtered, m_observations_filtered_, filtered);
  Count(stats_->observations_deduplicated, m_observations_deduplicated_,
        deduplicated);
  const size_t dropped = filtered + deduplicated;
  if (admitted_.empty()) return CarryForward(slot, dropped);

  Result<TrafficSpeedEstimator::Output> estimate =
      estimator_->Estimate(slot, admitted_, &workspace_, flight);
  // Never serve a non-finite or negative speed, whatever the estimator
  // produced; degrade to the last good estimate instead. The check runs
  // before UpdateAlerts, so a refused field moves no alert state.
  if (!estimate.ok() || !Servable(estimate->speeds.speed_kmh)) {
    Count(stats_->estimation_failures, m_estimation_failures_);
    return CarryForward(slot, dropped);
  }

  Count(stats_->slots_estimated, m_slots_estimated_);
  stale_streak_ = 0;
  obs::Set(m_staleness_, 0.0);
  last_report_ = SlotReport{};
  last_report_.slot = slot;
  last_report_.monitor.estimate = std::move(*estimate);
  UpdateAlerts(slot, &last_report_.monitor);
  last_report_.observations_used = admitted_.size();
  last_report_.observations_dropped = dropped;
  has_report_ = true;
  PublishSnapshot();
  return last_report_;
}

void ServingSession::UpdateAlerts(uint64_t slot, MonitorReport* report) {
  const MonitorOptions& m = opts_.monitor;
  const SpeedEstimateResult& speeds = report->estimate.speeds;
  // Only a real observation may seed a road's EWMA at full weight: an
  // inferred deviation seeded at full weight could cross alert_deviation
  // before a single direct measurement existed (regression-tested in
  // monitor_test.cc). Unseeded roads accumulate from 0 at the usual alpha,
  // so an inferred slowdown still alarms after the same debounce every
  // other road gets. admitted_ is road-sorted and distinct, so one cursor
  // walks the observed roads.
  auto observed = admitted_.begin();
  double speed_sum = 0.0;
  for (RoadId r = 0; r < ewma_.size(); ++r) {
    const double d = speeds.deviation[r];
    const bool seen = observed != admitted_.end() && observed->road == r;
    if (seen) ++observed;
    if (seen && !ewma_seeded_[r]) {
      ewma_[r] = d;
      ewma_seeded_[r] = 1;
    } else {
      ewma_[r] = (1.0 - m.ewma_alpha) * ewma_[r] + m.ewma_alpha * d;
    }
    speed_sum += speeds.speed_kmh[r];
    if (ewma_[r] < m.congested_deviation) ++report->congested_roads;

    if (!alert_active_[r]) {
      if (ewma_[r] <= m.alert_deviation) {
        if (++below_streak_[r] >= m.alert_after_slots) {
          alert_active_[r] = true;
          report->new_alerts.push_back(TrafficAlert{r, slot, true, ewma_[r]});
        }
      } else {
        below_streak_[r] = 0;
      }
    } else if (ewma_[r] >= m.clear_deviation) {
      alert_active_[r] = false;
      below_streak_[r] = 0;
      report->new_alerts.push_back(TrafficAlert{r, slot, false, ewma_[r]});
    }
  }
  report->mean_speed_kmh = speed_sum / static_cast<double>(ewma_.size());
}

std::vector<RoadId> ServingSession::ActiveAlerts() const {
  std::vector<RoadId> out;
  for (RoadId r = 0; r < alert_active_.size(); ++r) {
    if (alert_active_[r]) out.push_back(r);
  }
  return out;
}

}  // namespace trendspeed
