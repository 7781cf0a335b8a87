#include "roadnet/shortest_path.h"

#include <algorithm>
#include <queue>

namespace trendspeed {

namespace {

// Shared BFS over undirected road adjacency from multiple sources.
std::vector<uint32_t> RoadBfs(const RoadNetwork& net,
                              const std::vector<RoadId>& sources,
                              uint32_t max_hops) {
  std::vector<uint32_t> dist(net.num_roads(), kUnreachable);
  std::queue<RoadId> queue;
  for (RoadId s : sources) {
    if (dist[s] != kUnreachable) continue;
    dist[s] = 0;
    queue.push(s);
  }
  while (!queue.empty()) {
    RoadId u = queue.front();
    queue.pop();
    if (dist[u] >= max_hops) continue;
    auto visit = [&](RoadId v) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push(v);
      }
    };
    for (RoadId v : net.RoadSuccessors(u)) visit(v);
    for (RoadId v : net.RoadPredecessors(u)) visit(v);
    // The reverse twin is the same physical street; spatially 1 hop.
    RoadId twin = net.ReverseTwin(u);
    if (twin != kInvalidRoad) visit(twin);
  }
  return dist;
}

}  // namespace

std::vector<uint32_t> RoadHopDistances(const RoadNetwork& net, RoadId source,
                                       uint32_t max_hops) {
  return RoadBfs(net, {source}, max_hops);
}

std::vector<uint32_t> RoadHopDistancesMulti(const RoadNetwork& net,
                                            const std::vector<RoadId>& sources,
                                            uint32_t max_hops) {
  return RoadBfs(net, sources, max_hops);
}

std::vector<RoadHop> RoadsWithinHops(const RoadNetwork& net, RoadId source,
                                     uint32_t max_hops) {
  std::vector<uint32_t> dist = RoadBfs(net, {source}, max_hops);
  std::vector<RoadHop> out;
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    if (r != source && dist[r] != kUnreachable) {
      out.push_back(RoadHop{r, dist[r]});
    }
  }
  std::sort(out.begin(), out.end(), [](const RoadHop& a, const RoadHop& b) {
    return a.hops != b.hops ? a.hops < b.hops : a.road < b.road;
  });
  return out;
}

Result<std::vector<RoadId>> PathTo(const RoadNetwork& net,
                                   const SearchScratch& search, NodeId to) {
  if (search.seconds(to) >= kNotReached) {
    return Status::NotFound("target unreachable");
  }
  std::vector<RoadId> path;
  for (RoadId r = search.via(to); r != kInvalidRoad;
       r = search.via(net.road(r).from)) {
    path.push_back(r);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Result<std::vector<RoadId>> FastestPath(const RoadNetwork& net, NodeId from,
                                        NodeId to, SearchScratch* scratch) {
  if (from >= net.num_nodes() || to >= net.num_nodes()) {
    return Status::InvalidArgument("FastestPath: node out of range");
  }
  auto seconds = [&net](RoadId r) { return net.FreeFlowSeconds(r); };
  SearchNodes(net, from, seconds, SearchDirection::kForward, to, scratch);
  return PathTo(net, *scratch, to);
}

bool IsRoadGraphConnected(const RoadNetwork& net) {
  if (net.num_roads() == 0) return true;
  std::vector<uint32_t> dist = RoadHopDistances(net, 0, kUnreachable - 1);
  return std::all_of(dist.begin(), dist.end(),
                     [](uint32_t d) { return d != kUnreachable; });
}

}  // namespace trendspeed
