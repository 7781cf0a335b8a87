#include "core/snapshot.h"

#include <utility>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "util/logging.h"

namespace trendspeed {

SpeedSnapshotPublisher::SpeedSnapshotPublisher(size_t num_roads)
    : num_roads_(num_roads) {
  TS_CHECK_GT(num_roads, 0u);
}

void SpeedSnapshotPublisher::AttachMetrics(obs::MetricsRegistry* registry) {
  m_publishes_ = obs::GetCounter(registry, obs::kSnapshotPublishesTotal);
  m_read_latency_us_ =
      obs::GetHistogram(registry, obs::kSnapshotReadLatencyUs);
}

void SpeedSnapshotPublisher::Publish(uint64_t slot,
                                     const std::vector<double>& speed_kmh,
                                     const std::vector<double>& deviation,
                                     uint32_t stale_slots,
                                     double mean_speed_kmh) {
  TS_CHECK_EQ(speed_kmh.size(), num_roads_);
  TS_CHECK_EQ(deviation.size(), num_roads_);
  auto next = std::make_shared<SpeedSnapshot>();
  next->slot = slot;
  next->speed_kmh = speed_kmh;
  next->deviation = deviation;
  next->stale = stale_slots > 0;
  next->stale_slots = stale_slots;
  next->mean_speed_kmh = mean_speed_kmh;
  // Declared before the lock so the previous field, when no reader holds
  // it any more, is freed after the mutex is released.
  std::shared_ptr<const SpeedSnapshot> previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next->version = latest_ == nullptr ? 1 : latest_->version + 1;
    previous = std::exchange(latest_, std::move(next));
  }
  obs::Add(m_publishes_);
}

std::shared_ptr<const SpeedSnapshot> SpeedSnapshotPublisher::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

uint64_t SpeedSnapshotPublisher::publishes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_ == nullptr ? 0 : latest_->version;
}

bool SpeedSnapshotPublisher::Read(SpeedSnapshot* out) const {
  // The clock is read only when the latency histogram is attached.
  const uint64_t start_ns =
      m_read_latency_us_ != nullptr ? obs::MonotonicNanos() : 0;
  const std::shared_ptr<const SpeedSnapshot> latest = Latest();
  if (latest == nullptr) {
    // A failed read must leave no residue: a reused SpeedSnapshot
    // previously filled from another publisher would otherwise keep that
    // publisher's slot/version and payload — a stale field that a
    // multi-city poller cycling one object across per-city publishers
    // could mistake for this city's. clear() keeps capacity, so the reuse
    // stays allocation-free.
    out->speed_kmh.clear();
    out->deviation.clear();
    out->slot = 0;
    out->version = 0;
    out->stale = false;
    out->stale_slots = 0;
    out->mean_speed_kmh = 0.0;
    return false;
  }
  *out = *latest;
  if (m_read_latency_us_ != nullptr) {
    obs::Observe(m_read_latency_us_,
                 obs::NanosToMillis(obs::ElapsedNanosSince(start_ns)) *
                     1000.0);
  }
  return true;
}

}  // namespace trendspeed
