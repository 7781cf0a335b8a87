// SpeedSnapshotPublisher: a seqlock-published, never-blocking read path for
// the served speed field.
//
// Millions of navigator/route-ETA readers and one estimator writer must
// share the per-slot speed field without the readers ever blocking the
// serving loop (or each other). The publisher keeps one fixed-size payload
// of relaxed std::atomic cells guarded by a sequence word:
//
//   writer   seq: even -> odd, write payload, odd -> even   (one per slot)
//   reader   read seq (even?), copy payload, re-read seq; retry on change
//
// Readers therefore take no locks, perform no allocation after the first
// Read into a given SpeedSnapshot, and can never observe a torn mix of two
// slots: any overlap with the writer flips the sequence and the reader
// retries. Because every payload cell is an atomic accessed with relaxed
// ordering (fences carry the ordering), the scheme is data-race-free by
// the letter of the memory model — the seqlock torture test runs clean
// under ThreadSanitizer (tests/snapshot_test.cc).
//
// The writer publishes at most once per slot (ServingSession does it after
// Ingest returns), so reader retries are vanishingly rare; the
// trendspeed_snapshot_read_retries_total counter makes them observable.

#ifndef TRENDSPEED_CORE_SNAPSHOT_H_
#define TRENDSPEED_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace trendspeed {

/// One consistent reader-side view of the served speed field. All fields
/// come from the same publish: `slot`, the staleness flags, and every
/// element of the two vectors are mutually consistent.
struct SpeedSnapshot {
  uint64_t slot = 0;
  /// Monotone publish count (1 = first publish). Lets a poller detect
  /// "nothing new since my last read" without comparing payloads.
  uint64_t version = 0;
  std::vector<double> speed_kmh;  ///< served estimate per road
  std::vector<double> deviation;  ///< relative deviation per road
  /// True when the payload is a carried-forward estimate, not a fresh one.
  bool stale = false;
  /// Consecutive carried-forward slots ending at this publish (0 = fresh).
  uint32_t stale_slots = 0;
  double mean_speed_kmh = 0.0;
};

class SpeedSnapshotPublisher {
 public:
  explicit SpeedSnapshotPublisher(size_t num_roads);

  SpeedSnapshotPublisher(const SpeedSnapshotPublisher&) = delete;
  SpeedSnapshotPublisher& operator=(const SpeedSnapshotPublisher&) = delete;

  /// Registers the trendspeed_snapshot_* series. Null detaches (the
  /// default); must be called before readers/writers race.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Writer side — exactly one thread at a time (the serving loop).
  /// `speed_kmh` and `deviation` must both have num_roads() elements.
  void Publish(uint64_t slot, const std::vector<double>& speed_kmh,
               const std::vector<double>& deviation, uint32_t stale_slots,
               double mean_speed_kmh);

  /// Reader side — any number of threads, lock-free, non-blocking.
  /// Returns false while nothing has been published yet; *out is then reset
  /// to an empty snapshot (slot/version 0, vectors cleared) so a reused
  /// SpeedSnapshot can never present a *previous* publisher's payload under
  /// this publisher's identity — the stale-tail bug multi-city pollers hit
  /// when cycling one snapshot object across per-city publishers of
  /// different num_roads (tests/snapshot_test.cc pins it). On true, *out is
  /// one internally consistent snapshot; the payload vectors are resized to
  /// this publisher's num_roads() every call (a no-op re-read, and clears
  /// keep capacity), so a reused SpeedSnapshot makes Read allocation-free
  /// after the first successful read against the largest publisher polled.
  bool Read(SpeedSnapshot* out) const;

  size_t num_roads() const { return num_roads_; }

  /// Version of the latest *completed* publish (== publishes so far). An
  /// acquire load: every publish that completed before this call began is
  /// counted, so a reader holding a snapshot of this version holds the
  /// latest field. A publish in progress (odd sequence) is not counted yet.
  uint64_t publishes() const {
    return seq_.load(std::memory_order_acquire) / 2;
  }

 private:
  const size_t num_roads_;
  /// Even = payload stable (seq/2 publishes completed); odd = writer busy.
  std::atomic<uint64_t> seq_{0};

  // Payload: plain-old-data cells, every one an atomic accessed relaxed.
  std::unique_ptr<std::atomic<double>[]> speed_;
  std::unique_ptr<std::atomic<double>[]> deviation_;
  std::atomic<uint64_t> slot_{0};
  std::atomic<uint32_t> stale_slots_{0};
  std::atomic<double> mean_speed_{0.0};

  obs::Counter* m_publishes_ = nullptr;
  obs::Counter* m_read_retries_ = nullptr;
  obs::Histogram* m_read_latency_us_ = nullptr;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_SNAPSHOT_H_
