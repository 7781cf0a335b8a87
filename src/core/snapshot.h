// SpeedSnapshotPublisher: each served speed field is published as an
// immutable SpeedSnapshot and shared by pointer.
//
// One estimator writer and any number of navigator/route-ETA readers share
// the per-slot speed field. Publish builds a fresh snapshot outside any
// lock, then swaps it in as the latest under a mutex held only for the
// pointer swap; Latest() copies that pointer under the same mutex. A
// published snapshot never changes, so a reader holding one reads one
// consistent field for as long as it likes without holding up the writer,
// and a replaced field is freed when its last holder lets go (each reader
// keeps at most the one it holds alive). Every step is a mutex or a
// shared_ptr reference count, which ThreadSanitizer models, so the torture
// tests in tests/snapshot_test.cc check the whole protocol under
// TRENDSPEED_SANITIZE=thread.

#ifndef TRENDSPEED_CORE_SNAPSHOT_H_
#define TRENDSPEED_CORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
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

  /// Reader side — any number of threads. The latest published snapshot,
  /// or null before the first publish. The snapshot never changes, and
  /// holding the pointer keeps that one field alive across later
  /// publishes.
  std::shared_ptr<const SpeedSnapshot> Latest() const;

  /// Reader side — a copy of *Latest() into a caller-owned buffer.
  /// Returns false while nothing has been published yet; *out is then reset
  /// to an empty snapshot (slot/version 0, vectors cleared) so a reused
  /// SpeedSnapshot can never present a *previous* publisher's payload under
  /// this publisher's identity — the stale-tail bug multi-city pollers hit
  /// when cycling one snapshot object across per-city publishers of
  /// different num_roads (tests/snapshot_test.cc pins it). On true, *out is
  /// one internally consistent snapshot whose vectors have this publisher's
  /// num_roads() elements. Copies and clears keep capacity, so a reused
  /// SpeedSnapshot makes Read allocation-free after the first successful
  /// read against the largest publisher polled.
  bool Read(SpeedSnapshot* out) const;

  size_t num_roads() const { return num_roads_; }

  /// Version of the latest publish (== publishes so far; 0 before the
  /// first). Every publish that returned before this call began is counted.
  uint64_t publishes() const;

 private:
  const size_t num_roads_;
  mutable std::mutex mu_;
  std::shared_ptr<const SpeedSnapshot> latest_;  ///< guarded by mu_

  obs::Counter* m_publishes_ = nullptr;
  obs::Histogram* m_read_latency_us_ = nullptr;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_SNAPSHOT_H_
