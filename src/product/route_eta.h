// Route-ETA cache: memoized fastest-route answers over the latest published
// snapshot, invalidated by snapshot version.
//
// The serving loop publishes one speed field per slot; between publishes the
// field is immutable, so every (from, to) query against the same
// `SpeedSnapshot::version` has exactly one answer. The cache exploits that:
// a hit returns the stored result without searching, a miss runs one route
// search and stores it, and the moment the version moves on every stored
// entry is dead (checked lazily per entry — no publish-side hook, so the
// writer never knows the cache exists).
//
// Correctness contract (tests/product_test.cc pins both):
//   * cached answers are bitwise-equal to an uncached FastestRoute against
//     the same snapshot — roads, travel_seconds and length_m, ties included;
//     the cache may never change a route;
//   * a stale snapshot can never produce an unflagged ETA: provenance
//     (fresh | carried_forward | profile_blend) rides on every result.
//
// With a SpeedProfileStore attached, stale-snapshot queries are priced on
// the profile-blended speed field instead of the raw carry-forward.
//
// Per-version pass. The first query against a new (version, staleness)
// identity prices every road with RoadSeconds (+inf when impassable), on
// the snapshot's speeds or the profile blend, and finds the smallest finite
// road cost and ρ = max over roads of pricing speed ÷ free-flow speed, ≥ 1.
//
// Misses: landmark A* (ALT), which is the shared node search
// (roadnet/shortest_path.h) with a landmark potential, on the cache's one
// reusable scratch. At Create, 4 landmarks are picked farthest-first on
// free-flow seconds, and the free-flow seconds from and to each landmark
// are stored node-major (4 × 2 × num_nodes × 8 B, 0.64 MB for a
// 10,000-node city; 9 zero-potential runs of the search on that scratch,
// forward and in reverse, build them). Every query bounds with all 4
// (picking 4 of 16 per query was slower: EXPERIMENTS.md M11, M16). No road
// is faster than ρ times its free-flow speed in any servable field, so
//   h(u) = max(0, landmark bound − slack) ÷ ρ × (1 − 1e-9)
// never overestimates, and no snapshot needs per-version landmark work. The
// slack bounds the rounding in the stored landmark seconds; the 1e-9
// margin covers the rest.
//
// Tie rule. The search settles nodes in (g + h, g, node) order and keeps
// the first road that strictly improved a node. With h ≡ 0 that is
// FastestRoute's search: (g, node) order and, of parallel roads, the first
// in OutRoads(u). The landmark h settles a different set, so a miss
// rebuilds the route from `to` backwards, taking at each node w the settled
// in-neighbour u with g(u) + cost == g(w) and the smallest (g(u), u,
// position in OutRoads(u)); among equal g + h the smaller g settles first,
// so every such u is settled before `to`. Both add the same priced seconds
// in the same order, so the result is bitwise FastestRoute's. That holds
// while no road cost is lost in the rounding of a g value; when the
// smallest road cost is at most 1e-6 × the found travel time (zero-length
// roads, +inf speeds), the miss re-runs the search on the same scratch
// with h ≡ 0.

#ifndef TRENDSPEED_PRODUCT_ROUTE_ETA_H_
#define TRENDSPEED_PRODUCT_ROUTE_ETA_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/routing.h"
#include "core/serving.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "product/profile.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "util/status.h"

namespace trendspeed {

class RouteEtaCache {
 public:
  /// One answered ETA query.
  struct EtaResult {
    RouteResult route;  ///< roads, travel_seconds, length_m + staleness stamp
    /// Provenance of the speed field that priced the route.
    SpeedProvenance provenance = SpeedProvenance::kFresh;
    /// Snapshot identity the answer is valid for.
    uint64_t snapshot_version = 0;
    bool cache_hit = false;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t blends = 0;  ///< queries priced on a profile-blended field
  };

  /// `net` must outlive the cache. `profile` is optional (null = no blend;
  /// stale snapshots then serve carried-forward) and must outlive the cache
  /// when given. Fails on zero capacity or an empty network.
  static Result<RouteEtaCache> Create(const RoadNetwork& net,
                                      const ProductOptions& opts,
                                      const SpeedProfileStore* profile);

  /// Registers the trendspeed_product_eta_* series. Null detaches.
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Answers a fastest-route ETA against `snap`. NotFound when `to` is
  /// unreachable, as from FastestRoute; `from == to` is a defined degenerate
  /// query (empty route, zero seconds) and caches like any other. Results
  /// for an older snapshot version are discarded on sight, so a query can
  /// never be answered from a field the publisher has since replaced.
  Result<EtaResult> Eta(const SpeedSnapshot& snap, NodeId from, NodeId to);

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  RouteEtaCache(const RoadNetwork& net, const ProductOptions& opts,
                const SpeedProfileStore* profile);

  /// (from, to) packed collision-free: from * num_nodes + to.
  uint64_t KeyOf(NodeId from, NodeId to) const {
    return static_cast<uint64_t>(from) * num_nodes_ + to;
  }

  /// Drops every entry not stamped with `version` and runs the per-version
  /// pass: the per-road seconds (on the snapshot's speeds, or the profile
  /// blend when stale), ρ and the smallest road cost.
  void SyncToSnapshot(const SpeedSnapshot& snap);

  /// Picks the landmarks and stores their free-flow seconds (at Create).
  void BuildLandmarks();

  /// FastestRoute's answer on road_seconds_, found by landmark A*.
  Result<RouteResult> LandmarkRoute(NodeId from, NodeId to);

  const RoadNetwork* net_;
  const SpeedProfileStore* profile_;  ///< may be null (no blending)
  size_t capacity_;
  uint64_t num_nodes_;

  /// Identity of the snapshot the priced seconds and entries belong to.
  uint64_t synced_version_ = 0;
  uint32_t synced_stale_slots_ = 0;
  std::vector<double> pricing_speeds_;  ///< BlendSnapshot's output buffer
  SpeedProvenance field_provenance_ = SpeedProvenance::kFresh;
  std::vector<double> road_seconds_;  ///< per road; +inf when impassable
  double rho_ = 1.0;                  ///< max pricing ÷ free-flow speed, ≥ 1
  double min_road_seconds_ = 0.0;     ///< smallest finite road cost

  /// Landmark free-flow seconds, node-major: [node * 4 + l].
  std::vector<double> from_landmark_;  ///< landmark l -> node
  std::vector<double> to_landmark_;    ///< node -> landmark l
  /// Upper bound on the rounding error of one landmark bound (seconds).
  double landmark_slack_ = 0.0;

  /// The landmark build's and every miss's node search.
  SearchScratch search_;

  std::unordered_map<uint64_t, EtaResult> entries_;
  Stats stats_;

  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_invalidations_ = nullptr;
  obs::Counter* m_blends_ = nullptr;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_PRODUCT_ROUTE_ETA_H_
