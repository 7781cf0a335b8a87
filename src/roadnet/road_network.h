// Road network model: intersections (nodes) and directed road segments, with
// CSR adjacency over both nodes and roads.
//
// The inference stack works at the *road* granularity: two roads are adjacent
// when one can be driven immediately after the other (head of one is the tail
// of the next). Road-level hop distance over that adjacency is the spatial
// locality notion used by correlation mining, kNN, and seed selection.

#ifndef TRENDSPEED_ROADNET_ROAD_NETWORK_H_
#define TRENDSPEED_ROADNET_ROAD_NETWORK_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace trendspeed {

using NodeId = uint32_t;
using RoadId = uint32_t;

inline constexpr RoadId kInvalidRoad = UINT32_MAX;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// The road price: seconds to drive `length_m` at `kmh`, +inf (impassable)
/// when the speed is not above 0. Every route is priced by it.
inline double RoadSeconds(double length_m, double kmh) {
  return kmh > 0.0 ? length_m / (kmh / 3.6)
                   : std::numeric_limits<double>::infinity();
}

/// Functional class of a road segment; drives free-flow speed and congestion
/// profile defaults.
enum class RoadClass : uint8_t { kHighway = 0, kArterial = 1, kLocal = 2 };

const char* RoadClassName(RoadClass c);

/// Planar intersection position (meters, local tangent plane).
struct Node {
  double x = 0.0;
  double y = 0.0;
};

/// One directed road segment.
struct Road {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double length_m = 0.0;
  double free_flow_kmh = 50.0;
  RoadClass road_class = RoadClass::kLocal;
};

/// Immutable road network; construct through Builder. Default-constructed
/// instances are empty and only useful as assignment targets.
class RoadNetwork {
 public:
  RoadNetwork() = default;
  /// Incremental construction helper; Finish() validates and freezes.
  class Builder {
   public:
    NodeId AddNode(double x, double y);
    RoadId AddRoad(NodeId from, NodeId to, RoadClass road_class,
                   double free_flow_kmh);
    /// Adds both directions; returns the forward id (reverse is id+1).
    RoadId AddTwoWay(NodeId a, NodeId b, RoadClass road_class,
                     double free_flow_kmh);

    size_t num_nodes() const { return nodes_.size(); }
    size_t num_roads() const { return roads_.size(); }

    /// Validates endpoints and builds adjacency indexes. The builder is left
    /// empty afterwards.
    Result<RoadNetwork> Finish();

   private:
    std::vector<Node> nodes_;
    std::vector<Road> roads_;
  };

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_roads() const { return roads_.size(); }

  const Node& node(NodeId id) const { return nodes_[id]; }
  const Road& road(RoadId id) const { return roads_[id]; }
  const std::vector<Road>& roads() const { return roads_; }

  /// Roads leaving `node`.
  std::span<const RoadId> OutRoads(NodeId node) const;
  /// Roads entering `node`.
  std::span<const RoadId> InRoads(NodeId node) const;

  /// Roads drivable immediately after `road` (successors) and immediately
  /// before it (predecessors) — the directed road-adjacency used by the
  /// correlation graph. Excludes the exact reverse twin of `road`, which
  /// shares both endpoints but is not a continuation.
  std::span<const RoadId> RoadSuccessors(RoadId road) const;
  std::span<const RoadId> RoadPredecessors(RoadId road) const;

  /// The opposite direction of the same physical street (same endpoints,
  /// swapped), or kInvalidRoad for one-way segments. Twins are excluded
  /// from successor/predecessor lists but are spatially coincident, so
  /// hop-distance searches treat them as adjacent.
  RoadId ReverseTwin(RoadId id) const { return twin_[id]; }

  /// Free-flow traversal time in seconds.
  double FreeFlowSeconds(RoadId id) const {
    return RoadSeconds(roads_[id].length_m, roads_[id].free_flow_kmh);
  }

  /// Euclidean midpoint of the segment (for kNN-style geometric queries).
  Node Midpoint(RoadId id) const;

  /// Number of roads per class, indexed by static_cast<size_t>(RoadClass).
  std::vector<size_t> CountByClass() const;

 private:
  friend class Builder;

  struct Csr {
    std::vector<uint32_t> offsets;  // size+1 entries
    std::vector<RoadId> targets;
    std::span<const RoadId> Row(size_t i) const {
      return {targets.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }
  };

  std::vector<Node> nodes_;
  std::vector<Road> roads_;
  std::vector<RoadId> twin_;
  Csr node_out_;
  Csr node_in_;
  Csr road_succ_;
  Csr road_pred_;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_ROADNET_ROAD_NETWORK_H_
