#include "core/routing.h"

namespace trendspeed {

Result<double> PathTravelTime(const RoadNetwork& net,
                              const std::vector<double>& speeds_kmh,
                              const std::vector<RoadId>& path) {
  if (speeds_kmh.size() != net.num_roads()) {
    return Status::InvalidArgument("speeds size mismatch");
  }
  if (path.empty()) return Status::InvalidArgument("empty path");
  double seconds = 0.0;
  for (size_t i = 0; i < path.size(); ++i) {
    RoadId r = path[i];
    if (r >= net.num_roads()) {
      return Status::InvalidArgument("path road out of range");
    }
    if (i > 0 && net.road(path[i - 1]).to != net.road(r).from) {
      return Status::InvalidArgument("path is not contiguous");
    }
    if (!(speeds_kmh[r] > 0.0)) {
      return Status::InvalidArgument("speed not above 0 on path");
    }
    seconds += RoadSeconds(net.road(r).length_m, speeds_kmh[r]);
  }
  return seconds;
}

Result<PathEta> PathTravelTime(const RoadNetwork& net,
                               const SpeedSnapshot& snap,
                               const std::vector<RoadId>& path) {
  TS_ASSIGN_OR_RETURN(double seconds,
                      PathTravelTime(net, snap.speed_kmh, path));
  PathEta eta;
  eta.travel_seconds = seconds;
  eta.stale = snap.stale;
  eta.stale_slots = snap.stale_slots;
  eta.slot = snap.slot;
  return eta;
}

Result<RouteResult> RouteTo(const RoadNetwork& net,
                            const SearchScratch& search, NodeId to) {
  RouteResult result;
  TS_ASSIGN_OR_RETURN(result.roads, PathTo(net, search, to));
  result.travel_seconds = search.seconds(to);
  // Summed from `to` back to the source.
  for (auto r = result.roads.rbegin(); r != result.roads.rend(); ++r) {
    result.length_m += net.road(*r).length_m;
  }
  return result;
}

Result<RouteResult> FastestRoute(const RoadNetwork& net,
                                 const std::vector<double>& speeds_kmh,
                                 NodeId from, NodeId to) {
  if (speeds_kmh.size() != net.num_roads()) {
    return Status::InvalidArgument("speeds size mismatch");
  }
  if (from >= net.num_nodes() || to >= net.num_nodes()) {
    return Status::InvalidArgument("node out of range");
  }
  auto seconds = [&](RoadId r) {
    return RoadSeconds(net.road(r).length_m, speeds_kmh[r]);
  };
  SearchScratch scratch;
  SearchNodes(net, from, seconds, SearchDirection::kForward, to, &scratch);
  return RouteTo(net, scratch, to);
}

Result<RouteResult> FastestRoute(const RoadNetwork& net,
                                 const SpeedSnapshot& snap, NodeId from,
                                 NodeId to) {
  TS_ASSIGN_OR_RETURN(RouteResult result,
                      FastestRoute(net, snap.speed_kmh, from, to));
  result.stale = snap.stale;
  result.stale_slots = snap.stale_slots;
  result.slot = snap.slot;
  return result;
}

Result<double> CongestionRatio(const RoadNetwork& net,
                               const std::vector<double>& speeds_kmh,
                               NodeId from, NodeId to) {
  TS_ASSIGN_OR_RETURN(RouteResult current,
                      FastestRoute(net, speeds_kmh, from, to));
  // Free-flow speeds are positive, so `to` is reached here as well.
  auto free_flow = [&net](RoadId r) { return net.FreeFlowSeconds(r); };
  SearchScratch scratch;
  SearchNodes(net, from, free_flow, SearchDirection::kForward, to, &scratch);
  const double base_seconds = scratch.seconds(to);
  if (base_seconds <= 0.0) {
    // Both routes are zero-length exactly when from == to (free-flow speeds
    // are positive, so any real road contributes time): the trip exists and
    // is trivially uncongested. Only a zero-length base under a *non*-zero
    // current route would be an internal inconsistency.
    if (current.travel_seconds <= 0.0) return 1.0;
    return Status::Internal("degenerate free-flow route");
  }
  return current.travel_seconds / base_seconds;
}

Result<CongestionResult> CongestionRatio(const RoadNetwork& net,
                                         const SpeedSnapshot& snap,
                                         NodeId from, NodeId to) {
  TS_ASSIGN_OR_RETURN(double ratio,
                      CongestionRatio(net, snap.speed_kmh, from, to));
  CongestionResult result;
  result.ratio = ratio;
  result.stale = snap.stale;
  result.stale_slots = snap.stale_slots;
  result.slot = snap.slot;
  return result;
}

}  // namespace trendspeed
