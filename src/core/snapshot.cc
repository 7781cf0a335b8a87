#include "core/snapshot.h"

#include "obs/catalog.h"
#include "obs/clock.h"
#include "util/logging.h"

namespace trendspeed {

SpeedSnapshotPublisher::SpeedSnapshotPublisher(size_t num_roads)
    : num_roads_(num_roads),
      speed_(std::make_unique<std::atomic<double>[]>(num_roads)),
      deviation_(std::make_unique<std::atomic<double>[]>(num_roads)) {
  TS_CHECK_GT(num_roads, 0u);
  for (size_t i = 0; i < num_roads_; ++i) {
    speed_[i].store(0.0, std::memory_order_relaxed);
    deviation_[i].store(0.0, std::memory_order_relaxed);
  }
}

void SpeedSnapshotPublisher::AttachMetrics(obs::MetricsRegistry* registry) {
  m_publishes_ = obs::GetCounter(registry, obs::kSnapshotPublishesTotal);
  m_read_retries_ = obs::GetCounter(registry, obs::kSnapshotReadRetriesTotal);
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
  uint64_t s = seq_.load(std::memory_order_relaxed);
  // Odd = write in progress. The release fence orders the odd store before
  // every payload store in the visibility order a racing reader sees, so a
  // reader that observes any of this publish's payload also observes the
  // odd (or the final even) sequence and retries.
  seq_.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < num_roads_; ++i) {
    speed_[i].store(speed_kmh[i], std::memory_order_relaxed);
    deviation_[i].store(deviation[i], std::memory_order_relaxed);
  }
  slot_.store(slot, std::memory_order_relaxed);
  stale_slots_.store(stale_slots, std::memory_order_relaxed);
  mean_speed_.store(mean_speed_kmh, std::memory_order_relaxed);
  seq_.store(s + 2, std::memory_order_release);
  obs::Add(m_publishes_);
}

bool SpeedSnapshotPublisher::Read(SpeedSnapshot* out) const {
  // The clock is read only when the latency histogram is attached.
  const uint64_t start_ns =
      m_read_latency_us_ != nullptr ? obs::MonotonicNanos() : 0;
  // A failed read must leave no residue: a reused SpeedSnapshot previously
  // filled from another publisher would otherwise keep that publisher's
  // slot/version and a resize()-truncated head of its payload — a stale
  // tail that a multi-city poller cycling one object across per-city
  // publishers could mistake for this city's field. clear() keeps capacity,
  // so the reuse stays allocation-free.
  if (seq_.load(std::memory_order_acquire) == 0) {
    out->speed_kmh.clear();
    out->deviation.clear();
    out->slot = 0;
    out->version = 0;
    out->stale = false;
    out->stale_slots = 0;
    out->mean_speed_kmh = 0.0;
    return false;  // nothing published yet
  }
  out->speed_kmh.resize(num_roads_);
  out->deviation.resize(num_roads_);
  for (;;) {
    uint64_t s1 = seq_.load(std::memory_order_acquire);
    if (s1 == 0) return false;  // unreachable: seq_ never decreases
    if ((s1 & 1) == 0) {
      for (size_t i = 0; i < num_roads_; ++i) {
        out->speed_kmh[i] = speed_[i].load(std::memory_order_relaxed);
        out->deviation[i] = deviation_[i].load(std::memory_order_relaxed);
      }
      out->slot = slot_.load(std::memory_order_relaxed);
      out->stale_slots = stale_slots_.load(std::memory_order_relaxed);
      out->mean_speed_kmh = mean_speed_.load(std::memory_order_relaxed);
      // Pairs with the writer's release fence: if any payload load above
      // saw a concurrent publish, this seq re-read sees its odd store.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) {
        out->version = s1 / 2;
        out->stale = out->stale_slots > 0;
        if (m_read_latency_us_ != nullptr) {
          obs::Observe(m_read_latency_us_,
                       obs::NanosToMillis(obs::ElapsedNanosSince(start_ns)) *
                           1000.0);
        }
        return true;
      }
    }
    obs::Add(m_read_retries_);
  }
}

}  // namespace trendspeed
