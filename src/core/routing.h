// Live-speed routing: the navigation application the paper's introduction
// motivates. Consumes the all-road speed estimates produced each slot and
// answers travel-time and fastest-route queries against *current* (not
// free-flow) conditions.
//
// Two families of entry points:
//
//   * plain speed-vector overloads — pure functions of (network, speeds);
//     the caller owns any provenance of where the speeds came from;
//   * SpeedSnapshot overloads — consume the published serving snapshot
//     (core/snapshot.h) and propagate its staleness provenance
//     into the result. Feeding `SpeedSnapshot::speed_kmh` through the plain
//     overloads silently discards the `stale`/`stale_slots` flags, so a
//     route ETA computed from a carried-forward field looked exactly like a
//     fresh one — the staleness-blind-routing bug this split fixes
//     (tests/routing_test.cc pins it).

#ifndef TRENDSPEED_CORE_ROUTING_H_
#define TRENDSPEED_CORE_ROUTING_H_

#include <cstdint>
#include <vector>

#include "core/snapshot.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "util/status.h"

namespace trendspeed {

/// Travel time (seconds) along a road sequence at the given per-road speeds.
/// Fails if the sequence is not a contiguous drivable path or any speed is
/// not above 0 (zero, negative or NaN). An empty path is InvalidArgument
/// (there is no origin to anchor a zero-length trip to; FastestRoute with
/// from == to is the defined way to get one).
Result<double> PathTravelTime(const RoadNetwork& net,
                              const std::vector<double>& speeds_kmh,
                              const std::vector<RoadId>& path);

struct RouteResult {
  std::vector<RoadId> roads;
  double travel_seconds = 0.0;
  double length_m = 0.0;
  /// Staleness provenance, stamped by the SpeedSnapshot overloads (the
  /// plain speed-vector overloads leave the defaults: fresh, slot 0). True
  /// when the speeds were a carried-forward estimate, not a fresh one —
  /// an ETA computed from them is a guess that ages with `stale_slots`.
  bool stale = false;
  /// Consecutive carried-forward slots behind the speeds used (0 = fresh).
  uint32_t stale_slots = 0;
  /// Slot the speeds were served for (snapshot overloads only).
  uint64_t slot = 0;
};

/// A forward search's route to `to`; NotFound when it did not reach `to`.
Result<RouteResult> RouteTo(const RoadNetwork& net,
                            const SearchScratch& search, NodeId to);

/// Fastest route under the given per-road speeds, priced by RoadSeconds.
/// NotFound when `to` is unreachable from `from`. `from == to` is a defined
/// degenerate query: an empty route with zero travel time and length.
Result<RouteResult> FastestRoute(const RoadNetwork& net,
                                 const std::vector<double>& speeds_kmh,
                                 NodeId from, NodeId to);

/// Snapshot-aware overload: routes on `snap.speed_kmh` and stamps the
/// snapshot's staleness provenance (stale, stale_slots, slot) into the
/// result so downstream consumers can tell a fresh ETA from an aged guess.
Result<RouteResult> FastestRoute(const RoadNetwork& net,
                                 const SpeedSnapshot& snap, NodeId from,
                                 NodeId to);

/// Travel time along a known path plus the provenance of the speeds that
/// priced it — what the snapshot overload of PathTravelTime returns.
struct PathEta {
  double travel_seconds = 0.0;
  bool stale = false;
  uint32_t stale_slots = 0;
  uint64_t slot = 0;
};

/// Snapshot-aware overload of PathTravelTime: same validation, staleness
/// provenance carried alongside the seconds.
Result<PathEta> PathTravelTime(const RoadNetwork& net,
                               const SpeedSnapshot& snap,
                               const std::vector<RoadId>& path);

/// Convenience: how much longer the current-conditions fastest route takes
/// than the free-flow fastest route between the same endpoints (>= ~1;
/// the classic congestion "travel time index"). `from == to` is defined as
/// 1.0 (an empty trip is never congested) rather than the 0/0 it used to
/// reject.
Result<double> CongestionRatio(const RoadNetwork& net,
                               const std::vector<double>& speeds_kmh,
                               NodeId from, NodeId to);

/// Congestion ratio plus the staleness provenance of the speeds behind it.
struct CongestionResult {
  double ratio = 1.0;
  bool stale = false;
  uint32_t stale_slots = 0;
  uint64_t slot = 0;
};

/// Snapshot-aware overload of CongestionRatio.
Result<CongestionResult> CongestionRatio(const RoadNetwork& net,
                                         const SpeedSnapshot& snap,
                                         NodeId from, NodeId to);

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_ROUTING_H_
