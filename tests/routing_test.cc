#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "core/routing.h"
#include "core/snapshot.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"
#include "test_util.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::PathNetwork;
using testing_util::SmallGrid;

std::vector<double> FreeFlow(const RoadNetwork& net) {
  std::vector<double> speeds(net.num_roads());
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    speeds[r] = net.road(r).free_flow_kmh;
  }
  return speeds;
}

TEST(PathTravelTimeTest, SumsSegmentTimes) {
  RoadNetwork net = PathNetwork();
  std::vector<double> speeds(net.num_roads(), 36.0);  // 10 m/s
  auto t = PathTravelTime(net, speeds, {0, 2});  // 1000 m total
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(*t, 100.0, 1e-9);
}

TEST(PathTravelTimeTest, ValidatesPath) {
  RoadNetwork net = PathNetwork();
  std::vector<double> speeds(net.num_roads(), 36.0);
  EXPECT_FALSE(PathTravelTime(net, speeds, {}).ok());
  EXPECT_FALSE(PathTravelTime(net, speeds, {0, 3}).ok());  // not contiguous
  EXPECT_FALSE(PathTravelTime(net, speeds, {99}).ok());
  speeds[0] = 0.0;
  EXPECT_FALSE(PathTravelTime(net, speeds, {0, 2}).ok());
  speeds[0] = std::nan("");
  EXPECT_EQ(PathTravelTime(net, speeds, {0, 2}).status().code(),
            StatusCode::kInvalidArgument);
  // size mismatch (explicit vector: braces would be ambiguous against the
  // SpeedSnapshot overload)
  EXPECT_FALSE(PathTravelTime(net, std::vector<double>{1.0}, {0}).ok());
}

TEST(FastestRouteTest, MatchesFreeFlowPathfinding) {
  RoadNetwork net = SmallGrid();
  auto route = FastestRoute(net, FreeFlow(net), 0, 15);
  ASSERT_TRUE(route.ok());
  EXPECT_FALSE(route->roads.empty());
  EXPECT_GT(route->travel_seconds, 0.0);
  EXPECT_GT(route->length_m, 0.0);
  // Verify the reported time is consistent with PathTravelTime.
  auto t = PathTravelTime(net, FreeFlow(net), route->roads);
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(*t, route->travel_seconds, 1e-9);
  // Endpoints connect.
  EXPECT_EQ(net.road(route->roads.front()).from, 0u);
  EXPECT_EQ(net.road(route->roads.back()).to, 15u);
}

TEST(FastestRouteTest, ReroutesAroundCongestion) {
  // Two routes A->C: direct fast road vs detour. Congest the direct road
  // and the router must switch.
  RoadNetwork::Builder b;
  NodeId a = b.AddNode(0, 0);
  NodeId c = b.AddNode(1000, 0);
  NodeId via = b.AddNode(500, 200);
  RoadId direct = b.AddRoad(a, c, RoadClass::kArterial, 60.0);
  RoadId leg1 = b.AddRoad(a, via, RoadClass::kLocal, 40.0);
  RoadId leg2 = b.AddRoad(via, c, RoadClass::kLocal, 40.0);
  auto net = b.Finish();
  ASSERT_TRUE(net.ok());
  std::vector<double> speeds = {60.0, 40.0, 40.0};
  auto clear_route = FastestRoute(*net, speeds, a, c);
  ASSERT_TRUE(clear_route.ok());
  EXPECT_EQ(clear_route->roads, std::vector<RoadId>{direct});
  speeds[direct] = 5.0;  // jammed
  auto jam_route = FastestRoute(*net, speeds, a, c);
  ASSERT_TRUE(jam_route.ok());
  EXPECT_EQ(jam_route->roads, (std::vector<RoadId>{leg1, leg2}));
}

TEST(FastestRouteTest, ImpassableRoadsAreSkipped) {
  RoadNetwork net = PathNetwork();
  std::vector<double> speeds(net.num_roads(), 40.0);
  speeds[0] = 0.0;  // A->B closed; no other way from node 0 to node 2
  auto route = FastestRoute(net, speeds, 0, 2);
  EXPECT_EQ(route.status().code(), StatusCode::kNotFound);
}

TEST(FastestRouteTest, ValidatesInput) {
  RoadNetwork net = PathNetwork();
  EXPECT_FALSE(FastestRoute(net, std::vector<double>{1.0}, 0, 2).ok());
  EXPECT_FALSE(FastestRoute(net, FreeFlow(net), 0, 99).ok());
}

TEST(CongestionRatioTest, OneUnderFreeFlowAndAboveUnderJam) {
  RoadNetwork net = SmallGrid();
  auto clear = CongestionRatio(net, FreeFlow(net), 0, 15);
  ASSERT_TRUE(clear.ok());
  EXPECT_NEAR(*clear, 1.0, 1e-9);
  std::vector<double> jammed = FreeFlow(net);
  for (double& v : jammed) v *= 0.5;
  auto jam = CongestionRatio(net, jammed, 0, 15);
  ASSERT_TRUE(jam.ok());
  EXPECT_NEAR(*jam, 2.0, 1e-9);
}

// Regression for the degenerate-query bug: from == to used to reach the
// 0/0 congestion ratio and fail with Internal (and callers that divided
// anyway got NaN). An empty trip is defined: ratio 1.0, never congested.
TEST(CongestionRatioTest, SameEndpointIsDefinedAsOne) {
  RoadNetwork net = SmallGrid();
  auto ratio = CongestionRatio(net, FreeFlow(net), 7, 7);
  ASSERT_TRUE(ratio.ok()) << ratio.status().ToString();
  EXPECT_DOUBLE_EQ(*ratio, 1.0);
  EXPECT_TRUE(std::isfinite(*ratio));
}

TEST(FastestRouteTest, SameEndpointIsEmptyRoute) {
  RoadNetwork net = SmallGrid();
  auto route = FastestRoute(net, FreeFlow(net), 3, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->roads.empty());
  EXPECT_EQ(route->travel_seconds, 0.0);
  EXPECT_EQ(route->length_m, 0.0);
}

// ---------------------------------------------------------------------------
// Snapshot-aware overloads: staleness provenance must survive routing.
// ---------------------------------------------------------------------------

SpeedSnapshot GridSnapshot(const RoadNetwork& net, uint64_t slot,
                           uint64_t version, uint32_t stale_slots) {
  SpeedSnapshot snap;
  snap.slot = slot;
  snap.version = version;
  snap.stale_slots = stale_slots;
  snap.stale = stale_slots > 0;
  snap.speed_kmh = FreeFlow(net);
  snap.deviation.assign(net.num_roads(), 0.0);
  snap.mean_speed_kmh = 50.0;
  return snap;
}

// Regression for the staleness-blind-routing bug: routing on
// snap.speed_kmh through the plain overloads silently discarded
// stale/stale_slots, so an ETA priced on a 40-minute-old carried-forward
// field was indistinguishable from a fresh one. The snapshot overloads
// must stamp the provenance into every result. (This test fails against
// the pre-fix API by not compiling at all — the overloads did not exist —
// and the product layer builds its unflagged-stale-ETA guarantee on it.)
TEST(SnapshotRoutingTest, FastestRoutePropagatesStaleness) {
  RoadNetwork net = SmallGrid();
  SpeedSnapshot fresh = GridSnapshot(net, 10, 3, 0);
  auto fresh_route = FastestRoute(net, fresh, 0, 15);
  ASSERT_TRUE(fresh_route.ok());
  EXPECT_FALSE(fresh_route->stale);
  EXPECT_EQ(fresh_route->stale_slots, 0u);
  EXPECT_EQ(fresh_route->slot, 10u);

  SpeedSnapshot stale = GridSnapshot(net, 14, 7, 4);
  auto stale_route = FastestRoute(net, stale, 0, 15);
  ASSERT_TRUE(stale_route.ok());
  EXPECT_TRUE(stale_route->stale);
  EXPECT_EQ(stale_route->stale_slots, 4u);
  EXPECT_EQ(stale_route->slot, 14u);
  // The route itself is the same as the plain overload's — provenance is
  // a stamp, not a different algorithm.
  auto plain = FastestRoute(net, stale.speed_kmh, 0, 15);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(stale_route->roads, plain->roads);
  EXPECT_EQ(stale_route->travel_seconds, plain->travel_seconds);
}

TEST(SnapshotRoutingTest, PathTravelTimePropagatesStaleness) {
  RoadNetwork net = PathNetwork();
  SpeedSnapshot stale;
  stale.slot = 99;
  stale.version = 5;
  stale.stale = true;
  stale.stale_slots = 2;
  stale.speed_kmh.assign(net.num_roads(), 36.0);
  stale.deviation.assign(net.num_roads(), 0.0);
  auto eta = PathTravelTime(net, stale, {0, 2});
  ASSERT_TRUE(eta.ok());
  EXPECT_NEAR(eta->travel_seconds, 100.0, 1e-9);
  EXPECT_TRUE(eta->stale);
  EXPECT_EQ(eta->stale_slots, 2u);
  EXPECT_EQ(eta->slot, 99u);
  // Validation still applies through the snapshot overload.
  EXPECT_FALSE(PathTravelTime(net, stale, {}).ok());
}

TEST(SnapshotRoutingTest, CongestionRatioPropagatesStaleness) {
  RoadNetwork net = SmallGrid();
  SpeedSnapshot stale = GridSnapshot(net, 21, 9, 6);
  for (double& v : stale.speed_kmh) v *= 0.5;
  auto result = CongestionRatio(net, stale, 0, 15);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->ratio, 2.0, 1e-9);
  EXPECT_TRUE(result->stale);
  EXPECT_EQ(result->stale_slots, 6u);
  EXPECT_EQ(result->slot, 21u);
  // Degenerate + stale composes: defined ratio, provenance intact.
  auto degenerate = CongestionRatio(net, stale, 4, 4);
  ASSERT_TRUE(degenerate.ok());
  EXPECT_DOUBLE_EQ(degenerate->ratio, 1.0);
  EXPECT_TRUE(degenerate->stale);
}

// ---------------------------------------------------------------------------
// Pinned answer bits. FastestRoute, FastestPath and CongestionRatio are
// hashed over seeded queries on three networks and speed fields that hold
// impassable (0, negative, NaN) and zero-cost (+inf) roads. The ETA cache's
// property test compares the cache against FastestRoute, so it cannot see a
// change in FastestRoute's own answers; this hash can.
// ---------------------------------------------------------------------------

void HashWord(uint64_t* h, uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (bits >> (8 * byte)) & 0xffu;
    *h *= 0x100000001b3ull;
  }
}

void HashDouble(uint64_t* h, double v) {
  HashWord(h, std::bit_cast<uint64_t>(v));
}

void HashRoads(uint64_t* h, const std::vector<RoadId>& roads) {
  HashWord(h, roads.size());
  for (RoadId r : roads) HashWord(h, r);
}

/// Two two-way rings of 5 and 8 nodes with no road between them.
RoadNetwork TwoDisconnectedRings() {
  RoadNetwork::Builder b;
  for (size_t ring = 0; ring < 2; ++ring) {
    const size_t size = 5 + 3 * ring;
    const double x0 = 10000.0 * ring;
    const NodeId first = b.AddNode(x0, 0.0);
    NodeId prev = first;
    for (size_t i = 1; i < size; ++i) {
      const NodeId node = b.AddNode(x0 + 300.0 * i, 150.0 * (i % 3));
      b.AddTwoWay(prev, node, RoadClass::kLocal, 40.0);
      prev = node;
    }
    b.AddTwoWay(prev, first, RoadClass::kLocal, 40.0);
  }
  auto net = b.Finish();
  TS_CHECK(net.ok()) << net.status().ToString();
  return std::move(net).value();
}

constexpr uint64_t kRoutingAnswersHash = 0xc141ef6e4f3059b3ull;

/// The ring-radial city, a 12×12 grid with 20% dropout and two
/// disconnected rings.
std::vector<RoadNetwork> RoutingBitsNetworks() {
  GridNetworkOptions dropout_grid;
  dropout_grid.rows = 12;
  dropout_grid.cols = 12;
  dropout_grid.dropout = 0.2;
  std::vector<RoadNetwork> nets;
  nets.push_back(MakeRingRadialNetwork(RingRadialOptions{}).value());
  nets.push_back(MakeGridNetwork(dropout_grid).value());
  nets.push_back(TwoDisconnectedRings());
  return nets;
}

TEST(RoutingBitsTest, AnswersHashToPinnedBits) {
  const std::vector<RoadNetwork> nets = RoutingBitsNetworks();
  const double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -12.5, kInf, std::nan("")};

  uint64_t h = 0xcbf29ce484222325ull;
  Rng rng(35);
  auto random_node = [&rng](const RoadNetwork& net) {
    return static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
  };
  size_t found = 0, not_found = 0;
  for (const RoadNetwork& net : nets) {
    // Integer tenths keep the speeds themselves libm-free.
    std::vector<std::vector<double>> fields;
    fields.push_back(FreeFlow(net));
    for (int f = 0; f < 3; ++f) {
      std::vector<double>& field = fields.emplace_back(net.num_roads());
      for (double& v : field) {
        v = 5.0 + rng.NextBounded(850) / 10.0;
        if (f > 0 && rng.NextBounded(10) == 0) v = specials[rng.NextIndex(4)];
      }
    }
    for (const std::vector<double>& speeds : fields) {
      for (int q = 0; q < 50; ++q) {
        const NodeId from = random_node(net);
        const NodeId to = random_node(net);
        auto route = FastestRoute(net, speeds, from, to);
        HashWord(&h, static_cast<uint64_t>(route.status().code()));
        ++(route.ok() ? found : not_found);
        if (route.ok()) {
          HashRoads(&h, route->roads);
          HashDouble(&h, route->travel_seconds);
          HashDouble(&h, route->length_m);
        }
        auto ratio = CongestionRatio(net, speeds, from, to);
        HashWord(&h, static_cast<uint64_t>(ratio.status().code()));
        if (ratio.ok()) HashDouble(&h, *ratio);
      }
    }
    SearchScratch scratch;
    for (int q = 0; q < 50; ++q) {
      const NodeId from = random_node(net);
      const NodeId to = random_node(net);
      auto path = FastestPath(net, from, to, &scratch);
      HashWord(&h, static_cast<uint64_t>(path.status().code()));
      if (path.ok()) HashRoads(&h, *path);
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_GT(not_found, 0u);
  EXPECT_EQ(h, kRoutingAnswersHash)
      << std::hex << "0x" << h << ": a routing answer changed its bits.";
}

// One scratch serves every search: interleaved forward and reverse,
// targeted and untargeted, zero-potential and straight-line-potential
// searches on it answer bit for bit as a fresh scratch per search does,
// across a wrap of the scratch's stamp.
TEST(SearchNodesTest, ReusedScratchMatchesFreshScratch) {
  Rng rng(36);
  SearchScratch reused;
  size_t routes = 0;
  for (const RoadNetwork& net : RoutingBitsNetworks()) {
    // Priced on free-flow speeds with one road in ten impassable.
    std::vector<double> speeds = FreeFlow(net);
    for (double& v : speeds) {
      if (rng.NextBounded(10) == 0) v = 0.0;
    }
    auto cost = [&](RoadId r) {
      return RoadSeconds(net.road(r).length_m, speeds[r]);
    };
    double fastest_mps = 0.0;
    for (const Road& road : net.roads()) {
      fastest_mps = std::max(fastest_mps, road.free_flow_kmh / 3.6);
    }
    auto random_node = [&] {
      return static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
    };
    for (int q = 0; q < 96; ++q) {
      // The first search is untargeted and, on a fresh scratch, runs at
      // stamp 1. The wrap puts the targeted one after it at stamp 1 again,
      // so it must clear every mark the first one left.
      if (q == 1) reused.stamp = UINT32_MAX;
      const NodeId source = random_node();
      const auto direction =
          q % 2 == 0 ? SearchDirection::kForward : SearchDirection::kReverse;
      const NodeId aim = random_node();
      const NodeId target = q % 4 == 1 || q % 4 == 2 ? aim : kInvalidNode;
      // Straight-line metres to `aim` at the fastest free-flow speed.
      auto straight_line = [&](NodeId u) {
        return std::hypot(net.node(u).x - net.node(aim).x,
                          net.node(u).y - net.node(aim).y) /
               fastest_mps;
      };
      SearchScratch fresh;
      for (SearchScratch* scratch : {&fresh, &reused}) {
        if (q / 4 % 2 == 0) {
          SearchNodes(net, source, cost, direction, target, scratch);
        } else {
          SearchNodes(net, source, cost, direction, target, scratch,
                      straight_line);
        }
      }
      for (NodeId u = 0; u < net.num_nodes(); ++u) {
        ASSERT_EQ(std::bit_cast<uint64_t>(reused.seconds(u)),
                  std::bit_cast<uint64_t>(fresh.seconds(u)))
            << "query " << q << " node " << u;
        ASSERT_EQ(reused.via(u), fresh.via(u)) << "query " << q;
        ASSERT_EQ(reused.settled(u), fresh.settled(u)) << "query " << q;
      }
      if (direction == SearchDirection::kReverse) continue;
      auto fresh_route = RouteTo(net, fresh, aim);
      auto reused_route = RouteTo(net, reused, aim);
      ASSERT_EQ(reused_route.status().code(), fresh_route.status().code());
      if (!fresh_route.ok()) continue;
      ++routes;
      EXPECT_EQ(reused_route->roads, fresh_route->roads);
      EXPECT_EQ(std::bit_cast<uint64_t>(reused_route->travel_seconds),
                std::bit_cast<uint64_t>(fresh_route->travel_seconds));
      EXPECT_EQ(std::bit_cast<uint64_t>(reused_route->length_m),
                std::bit_cast<uint64_t>(fresh_route->length_m));
    }
  }
  EXPECT_GT(routes, 0u);
  EXPECT_LT(reused.stamp, 1000u);  // it wrapped
}

}  // namespace
}  // namespace trendspeed
