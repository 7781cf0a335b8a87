// Graph traversals over the road network: road-level hop BFS (spatial
// locality for correlation mining / kNN / k-center) and the one node-level
// search every route runs on: Dijkstra with a zero potential, the ETA
// cache's landmark A* with a landmark one.

#ifndef TRENDSPEED_ROADNET_SHORTEST_PATH_H_
#define TRENDSPEED_ROADNET_SHORTEST_PATH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <tuple>
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

/// Caller-owned state of one node search, reused from search to search. A
/// node's entry belongs to the latest search only when stamped with its
/// `stamp`, so a search costs no O(num_nodes) reset.
struct SearchScratch {
  struct Node {
    double g = 0.0;  ///< best seconds from the source so far
    double h = 0.0;  ///< potential: a lower bound on the seconds still to go
    RoadId via = kInvalidRoad;  ///< the road that set g
    uint32_t reached = 0, settled = 0;  ///< stamps of the last to do so
  };
  struct HeapEntry {
    double f, g;  ///< f = g + h
    NodeId node;
  };
  std::vector<Node> nodes;
  std::vector<HeapEntry> heap;
  uint32_t stamp = 0;

  /// Best seconds to (or from) `u`; kNotReached when not reached.
  double seconds(NodeId u) const {
    return nodes[u].reached == stamp ? nodes[u].g : kNotReached;
  }
  /// The road that set seconds(u); kInvalidRoad at the source or unreached.
  RoadId via(NodeId u) const {
    return nodes[u].reached == stamp ? nodes[u].via : kInvalidRoad;
  }
  bool settled(NodeId u) const { return nodes[u].settled == stamp; }
};

/// kForward searches out of the source (OutRoads), kReverse into it (InRoads).
enum class SearchDirection { kForward, kReverse };

/// h ≡ 0: the search is Dijkstra.
struct ZeroPotential {
  double operator()(NodeId) const { return 0.0; }
};

/// The one node search: from `source` at `road_cost(RoadId)` seconds per
/// road, guided by `potential(NodeId)`, a lower bound on a node's seconds
/// still to go (+inf: the target cannot be reached from it, so it is never
/// settled). Nodes settle in (g + h, g, node) order, which for h ≡ 0 is
/// Dijkstra's (seconds, node) order, and keep the first road that strictly
/// improved them. Stops once `target` settles (kInvalidNode: never).
template <typename RoadCost, typename Potential = ZeroPotential>
void SearchNodes(const RoadNetwork& net, NodeId source, RoadCost road_cost,
                 SearchDirection direction, NodeId target,
                 SearchScratch* scratch, Potential potential = {}) {
  using Node = SearchScratch::Node;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Node>& nodes = scratch->nodes;
  std::vector<SearchScratch::HeapEntry>& heap = scratch->heap;
  if (nodes.size() != net.num_nodes() || ++scratch->stamp == 0) {
    nodes.assign(net.num_nodes(), Node{});  // new network, or the stamp wrapped
    scratch->stamp = 1;
  }
  const uint32_t stamp = scratch->stamp;
  auto reach = [&](NodeId u) -> Node& {
    Node& n = nodes[u];
    if (n.reached != stamp) {
      n.reached = stamp;
      n.g = kNotReached;
      n.h = potential(u);
      n.via = kInvalidRoad;
    }
    return n;
  };
  auto later = [](const auto& a, const auto& b) {
    return std::tie(a.f, a.g, a.node) > std::tie(b.f, b.g, b.node);
  };

  const bool reverse = direction == SearchDirection::kReverse;
  heap.clear();
  Node& start = reach(source);
  start.g = 0.0;
  if (start.h != kInf) heap.push_back({start.h, 0.0, source});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const SearchScratch::HeapEntry top = heap.back();
    heap.pop_back();
    Node& u = nodes[top.node];
    if (top.g > u.g) continue;  // superseded by a shorter g
    u.settled = stamp;
    if (top.node == target) break;
    for (RoadId r : reverse ? net.InRoads(top.node) : net.OutRoads(top.node)) {
      const double nd = top.g + road_cost(r);
      if (!(nd < kNotReached)) continue;  // impassable, or beyond the sentinel
      const NodeId w = reverse ? net.road(r).from : net.road(r).to;
      Node& wn = reach(w);
      if (!(nd < wn.g)) continue;
      wn.g = nd;
      wn.via = r;
      if (wn.h == kInf) continue;
      heap.push_back({nd + wn.h, nd, w});
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

/// The roads of a forward search's path to `to`, from the source on, or
/// NotFound when the search did not reach `to`.
Result<std::vector<RoadId>> PathTo(const RoadNetwork& net,
                                   const SearchScratch& search, NodeId to);

/// The shared search on free-flow travel time, on the caller's scratch.
/// Returns the sequence of *roads* on the fastest path from `from` to `to`,
/// or NotFound when disconnected.
Result<std::vector<RoadId>> FastestPath(const RoadNetwork& net, NodeId from,
                                        NodeId to, SearchScratch* scratch);

/// True when every road can reach every other road over undirected
/// road-adjacency (sanity check for generators).
bool IsRoadGraphConnected(const RoadNetwork& net);

}  // namespace trendspeed

#endif  // TRENDSPEED_ROADNET_SHORTEST_PATH_H_
