// Graph traversals over the road network: road-level hop BFS (spatial
// locality for correlation mining / kNN / k-center) and the node-level
// Dijkstra that every route search except the ETA cache's A* runs on.

#ifndef TRENDSPEED_ROADNET_SHORTEST_PATH_H_
#define TRENDSPEED_ROADNET_SHORTEST_PATH_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "roadnet/road_network.h"

namespace trendspeed {

inline constexpr uint32_t kUnreachable = UINT32_MAX;

/// Hop distances from `source` over the *undirected* road-adjacency graph
/// (successors + predecessors), truncated at `max_hops`. Entries beyond
/// max_hops are kUnreachable. O(V+E) within the horizon.
std::vector<uint32_t> RoadHopDistances(const RoadNetwork& net, RoadId source,
                                       uint32_t max_hops);

/// Multi-source variant: distance to the nearest of `sources`.
std::vector<uint32_t> RoadHopDistancesMulti(const RoadNetwork& net,
                                            const std::vector<RoadId>& sources,
                                            uint32_t max_hops);

/// All roads within `max_hops` of `source` (excluding source), with their
/// hop distance, in BFS order.
struct RoadHop {
  RoadId road;
  uint32_t hops;
};
std::vector<RoadHop> RoadsWithinHops(const RoadNetwork& net, RoadId source,
                                     uint32_t max_hops);

/// Seconds of a node no search reached; a road cost of +inf never relaxes.
inline constexpr double kNotReached = 1e300;

/// Per node: best seconds from the source, and the road that set them
/// (kInvalidRoad at the source and where not reached).
struct NodeSearch {
  std::vector<double> seconds;
  std::vector<RoadId> via;
};

/// kForward searches out of the source (OutRoads), kReverse into it (InRoads).
enum class SearchDirection { kForward, kReverse };

/// Dijkstra from `source` at `road_cost(RoadId)` seconds per road. Nodes
/// settle in (seconds, node) order and keep the first road that strictly
/// improved them. Stops once `target` settles (kInvalidNode: never).
template <typename RoadCost>
NodeSearch SearchNodes(const RoadNetwork& net, NodeId source,
                       RoadCost road_cost, SearchDirection direction,
                       NodeId target) {
  const bool reverse = direction == SearchDirection::kReverse;
  NodeSearch s{std::vector<double>(net.num_nodes(), kNotReached),
               std::vector<RoadId>(net.num_nodes(), kInvalidRoad)};
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  s.seconds[source] = 0.0;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > s.seconds[u]) continue;
    if (u == target) break;
    for (RoadId r : reverse ? net.InRoads(u) : net.OutRoads(u)) {
      const NodeId w = reverse ? net.road(r).from : net.road(r).to;
      const double nd = d + road_cost(r);
      if (nd < s.seconds[w]) {
        s.seconds[w] = nd;
        s.via[w] = r;
        pq.emplace(nd, w);
      }
    }
  }
  return s;
}

/// The roads of a forward search's path to `to`, from the source on, or
/// NotFound when the search did not reach `to`.
Result<std::vector<RoadId>> PathTo(const RoadNetwork& net,
                                   const NodeSearch& search, NodeId to);

/// The shared search on free-flow travel time. Returns the sequence of
/// *roads* on the fastest path from `from` to `to`, or NotFound when
/// disconnected.
Result<std::vector<RoadId>> FastestPath(const RoadNetwork& net, NodeId from,
                                        NodeId to);

/// True when every road can reach every other road over undirected
/// road-adjacency (sanity check for generators).
bool IsRoadGraphConnected(const RoadNetwork& net);

}  // namespace trendspeed

#endif  // TRENDSPEED_ROADNET_SHORTEST_PATH_H_
