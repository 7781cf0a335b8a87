// CityProducts: the read-side product stack for one city — a profile store
// and a route-ETA cache fed from the city's snapshot publisher.
//
// The serving (writer) thread never knows this object exists. Everything
// here runs on reader threads against SpeedSnapshotPublisher::Latest, which
// holds the publisher's mutex only to copy a pointer, so a reader never
// holds up a publish for longer than that (the product torture test runs
// one writer against N folding/routing readers under TSan to hold the
// line). That is also why "products off" is bitwise identical on the
// serving path: attaching products adds zero instructions to Ingest.
//
// Single-reader contract per CityProducts instance: Poll/Eta mutate the
// profile and cache, so one instance serves one reader thread. Many reader
// threads = many CityProducts over the same publisher; the shared surface
// is only the publisher's latest-snapshot pointer.

#ifndef TRENDSPEED_PRODUCT_PRODUCTS_H_
#define TRENDSPEED_PRODUCT_PRODUCTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/serving.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "product/profile.h"
#include "product/route_eta.h"
#include "roadnet/road_network.h"
#include "util/status.h"

namespace trendspeed {

class CityProducts {
 public:
  /// `net` and `publisher` must outlive the products (the publisher is the
  /// session's — see ServingSession::snapshot_publisher()). `opts` must
  /// have enabled = true and validate; `slots_per_day` is the serving slot
  /// grid (traffic::kDefaultSlotsPerDay for the simulator's 10-minute
  /// slots).
  static Result<CityProducts> Create(const RoadNetwork& net,
                                     const SpeedSnapshotPublisher* publisher,
                                     uint32_t slots_per_day,
                                     const ProductOptions& opts);

  /// Convenience: builds products over a session's own network-sized
  /// publisher using the session's validated ServingOptions::products.
  /// Fails when the session does not publish snapshots or products are
  /// not enabled in its options.
  static Result<CityProducts> ForSession(const RoadNetwork& net,
                                         const ServingSession& session,
                                         uint32_t slots_per_day);

  /// Registers every trendspeed_product_* series. Null detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Reads the latest snapshot and folds it into the profile (fresh fields
  /// only; duplicates and stale fields are skipped by the store). Returns
  /// true when a snapshot was read (even if skipped); false when nothing
  /// has been published yet. Call after each served slot, or on a timer —
  /// folding is version-deduplicated, so over-polling is harmless.
  bool Poll();

  /// Fastest-route ETA against the latest snapshot, answered through the
  /// version-invalidated cache (product/route_eta.h). FailedPrecondition
  /// before the first publish. The read latency lands in
  /// trendspeed_product_read_latency_us.
  Result<RouteEtaCache::EtaResult> Eta(NodeId from, NodeId to);

  /// Blended per-road speed for the latest snapshot (profile semantics —
  /// see SpeedProfileStore::BlendQuery). FailedPrecondition before the
  /// first publish.
  Result<SpeedProfileStore::BlendedSpeed> RoadSpeed(RoadId road);

  const SpeedProfileStore& profile() const { return *profile_; }
  const RouteEtaCache& eta_cache() const { return *eta_cache_; }
  /// The last snapshot Poll/Eta/RoadSpeed read (an empty snapshot with
  /// version 0 before the first successful read).
  const SpeedSnapshot& last_snapshot() const;

 private:
  CityProducts(const RoadNetwork& net, const SpeedSnapshotPublisher* publisher,
               std::unique_ptr<SpeedProfileStore> profile,
               std::unique_ptr<RouteEtaCache> eta_cache);

  /// Points snap_ at the publisher's latest snapshot; false before the
  /// first publish.
  bool ReadLatest();

  const RoadNetwork* net_;
  const SpeedSnapshotPublisher* publisher_;
  /// Heap-held so CityProducts stays movable (Result<CityProducts> moves it
  /// out of Create) while the cache's pointer into the profile never moves.
  std::unique_ptr<SpeedProfileStore> profile_;
  std::unique_ptr<RouteEtaCache> eta_cache_;
  /// The latest snapshot read from publisher_; null before the first.
  std::shared_ptr<const SpeedSnapshot> snap_;

  obs::Histogram* m_read_latency_ = nullptr;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_PRODUCT_PRODUCTS_H_
