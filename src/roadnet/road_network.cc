#include "roadnet/road_network.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace trendspeed {

const char* RoadClassName(RoadClass c) {
  switch (c) {
    case RoadClass::kHighway:
      return "highway";
    case RoadClass::kArterial:
      return "arterial";
    case RoadClass::kLocal:
      return "local";
  }
  return "?";
}

NodeId RoadNetwork::Builder::AddNode(double x, double y) {
  nodes_.push_back(Node{x, y});
  return static_cast<NodeId>(nodes_.size() - 1);
}

RoadId RoadNetwork::Builder::AddRoad(NodeId from, NodeId to,
                                     RoadClass road_class,
                                     double free_flow_kmh) {
  TS_CHECK_LT(from, nodes_.size());
  TS_CHECK_LT(to, nodes_.size());
  double dx = nodes_[to].x - nodes_[from].x;
  double dy = nodes_[to].y - nodes_[from].y;
  Road r;
  r.from = from;
  r.to = to;
  r.length_m = std::sqrt(dx * dx + dy * dy);
  r.road_class = road_class;
  r.free_flow_kmh = free_flow_kmh;
  roads_.push_back(r);
  return static_cast<RoadId>(roads_.size() - 1);
}

RoadId RoadNetwork::Builder::AddTwoWay(NodeId a, NodeId b,
                                       RoadClass road_class,
                                       double free_flow_kmh) {
  RoadId fwd = AddRoad(a, b, road_class, free_flow_kmh);
  AddRoad(b, a, road_class, free_flow_kmh);
  return fwd;
}

namespace {

// Builds a CSR from (source, target) pairs with `n` sources.
void BuildCsr(size_t n, const std::vector<std::pair<uint32_t, RoadId>>& edges,
              std::vector<uint32_t>* offsets, std::vector<RoadId>* targets) {
  offsets->assign(n + 1, 0);
  for (const auto& [src, dst] : edges) {
    (void)dst;
    ++(*offsets)[src + 1];
  }
  for (size_t i = 1; i <= n; ++i) (*offsets)[i] += (*offsets)[i - 1];
  targets->resize(edges.size());
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (const auto& [src, dst] : edges) {
    (*targets)[cursor[src]++] = dst;
  }
}

}  // namespace

Result<RoadNetwork> RoadNetwork::Builder::Finish() {
  for (size_t i = 0; i < roads_.size(); ++i) {
    const Road& r = roads_[i];
    if (r.from >= nodes_.size() || r.to >= nodes_.size()) {
      return Status::InvalidArgument("road " + std::to_string(i) +
                                     " references missing node");
    }
    if (r.from == r.to) {
      return Status::InvalidArgument("road " + std::to_string(i) +
                                     " is a self-loop");
    }
    if (r.free_flow_kmh <= 0.0) {
      return Status::InvalidArgument("road " + std::to_string(i) +
                                     " has non-positive free-flow speed");
    }
  }

  RoadNetwork net;
  net.nodes_ = std::move(nodes_);
  net.roads_ = std::move(roads_);
  nodes_.clear();
  roads_.clear();

  std::vector<std::pair<uint32_t, RoadId>> out_edges, in_edges;
  out_edges.reserve(net.roads_.size());
  in_edges.reserve(net.roads_.size());
  for (RoadId i = 0; i < net.roads_.size(); ++i) {
    out_edges.emplace_back(net.roads_[i].from, i);
    in_edges.emplace_back(net.roads_[i].to, i);
  }
  BuildCsr(net.nodes_.size(), out_edges, &net.node_out_.offsets,
           &net.node_out_.targets);
  BuildCsr(net.nodes_.size(), in_edges, &net.node_in_.offsets,
           &net.node_in_.targets);

  // Reverse-twin lookup (first matching opposite road wins).
  net.twin_.assign(net.roads_.size(), kInvalidRoad);
  for (RoadId i = 0; i < net.roads_.size(); ++i) {
    if (net.twin_[i] != kInvalidRoad) continue;
    const Road& r = net.roads_[i];
    for (RoadId j : net.node_out_.Row(r.to)) {
      if (j != i && net.roads_[j].to == r.from &&
          net.twin_[j] == kInvalidRoad) {
        net.twin_[i] = j;
        net.twin_[j] = i;
        break;
      }
    }
  }

  // Road adjacency: successor roads start where this road ends; skip the
  // reverse twin (same endpoints swapped), which would make every two-way
  // street its own neighbour.
  std::vector<std::pair<uint32_t, RoadId>> succ_edges, pred_edges;
  for (RoadId i = 0; i < net.roads_.size(); ++i) {
    const Road& r = net.roads_[i];
    for (RoadId j : net.node_out_.Row(r.to)) {
      const Road& s = net.roads_[j];
      if (s.to == r.from && s.from == r.to) continue;  // reverse twin
      succ_edges.emplace_back(i, j);
      pred_edges.emplace_back(j, i);
    }
  }
  BuildCsr(net.roads_.size(), succ_edges, &net.road_succ_.offsets,
           &net.road_succ_.targets);
  BuildCsr(net.roads_.size(), pred_edges, &net.road_pred_.offsets,
           &net.road_pred_.targets);
  return net;
}

std::span<const RoadId> RoadNetwork::OutRoads(NodeId node) const {
  TS_CHECK_LT(node, nodes_.size());
  return node_out_.Row(node);
}

std::span<const RoadId> RoadNetwork::InRoads(NodeId node) const {
  TS_CHECK_LT(node, nodes_.size());
  return node_in_.Row(node);
}

std::span<const RoadId> RoadNetwork::RoadSuccessors(RoadId road) const {
  TS_CHECK_LT(road, roads_.size());
  return road_succ_.Row(road);
}

std::span<const RoadId> RoadNetwork::RoadPredecessors(RoadId road) const {
  TS_CHECK_LT(road, roads_.size());
  return road_pred_.Row(road);
}

Node RoadNetwork::Midpoint(RoadId id) const {
  const Road& r = road(id);
  const Node& a = node(r.from);
  const Node& b = node(r.to);
  return Node{(a.x + b.x) * 0.5, (a.y + b.y) * 0.5};
}

std::vector<size_t> RoadNetwork::CountByClass() const {
  std::vector<size_t> counts(3, 0);
  for (const Road& r : roads_) ++counts[static_cast<size_t>(r.road_class)];
  return counts;
}

}  // namespace trendspeed
