#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "roadnet/generators.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::PathNetwork;
using testing_util::SmallGrid;

TEST(RoadNetworkBuilderTest, BuildsValidNetwork) {
  RoadNetwork::Builder b;
  NodeId a = b.AddNode(0, 0);
  NodeId c = b.AddNode(300, 400);
  RoadId r = b.AddRoad(a, c, RoadClass::kLocal, 40.0);
  auto net = b.Finish();
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_nodes(), 2u);
  EXPECT_EQ(net->num_roads(), 1u);
  EXPECT_DOUBLE_EQ(net->road(r).length_m, 500.0);  // 3-4-5 triangle
}

TEST(RoadNetworkBuilderTest, RejectsSelfLoop) {
  RoadNetwork::Builder b;
  NodeId a = b.AddNode(0, 0);
  b.AddNode(1, 1);
  b.AddRoad(a, a, RoadClass::kLocal, 40.0);
  EXPECT_EQ(b.Finish().status().code(), StatusCode::kInvalidArgument);
}

TEST(RoadNetworkBuilderTest, RejectsNonPositiveSpeed) {
  RoadNetwork::Builder b;
  NodeId a = b.AddNode(0, 0);
  NodeId c = b.AddNode(1, 0);
  b.AddRoad(a, c, RoadClass::kLocal, 0.0);
  EXPECT_EQ(b.Finish().status().code(), StatusCode::kInvalidArgument);
}

TEST(RoadNetworkTest, TwoWayCreatesTwinPair) {
  RoadNetwork net = PathNetwork();
  // Roads 0/1 are the A<->B pair; 2/3 the B<->C pair.
  EXPECT_EQ(net.road(0).from, net.road(1).to);
  EXPECT_EQ(net.road(0).to, net.road(1).from);
}

TEST(RoadNetworkTest, RoadAdjacencyExcludesReverseTwin) {
  RoadNetwork net = PathNetwork();
  // Road 0 (A->B): successors should include B->C (road 2) but not B->A
  // (road 1, its reverse twin).
  auto succ = net.RoadSuccessors(0);
  EXPECT_TRUE(std::find(succ.begin(), succ.end(), RoadId{2}) != succ.end());
  EXPECT_TRUE(std::find(succ.begin(), succ.end(), RoadId{1}) == succ.end());
}

TEST(RoadNetworkTest, SuccessorsAndPredecessorsAreConsistent) {
  RoadNetwork net = SmallGrid();
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    for (RoadId s : net.RoadSuccessors(r)) {
      auto preds = net.RoadPredecessors(s);
      EXPECT_TRUE(std::find(preds.begin(), preds.end(), r) != preds.end())
          << "succ " << s << " of " << r << " missing reverse link";
    }
  }
}

TEST(RoadNetworkTest, NodeInOutRoads) {
  RoadNetwork net = PathNetwork();
  // Middle node (id 1) has 2 outgoing (B->A, B->C) and 2 incoming roads.
  EXPECT_EQ(net.OutRoads(1).size(), 2u);
  EXPECT_EQ(net.InRoads(1).size(), 2u);
}

TEST(RoadNetworkTest, FreeFlowSecondsAndMidpoint) {
  RoadNetwork net = PathNetwork();
  // 500 m at 60 km/h = 30 s.
  EXPECT_NEAR(net.FreeFlowSeconds(0), 30.0, 1e-9);
  Node mid = net.Midpoint(0);
  EXPECT_DOUBLE_EQ(mid.x, 250.0);
  EXPECT_DOUBLE_EQ(mid.y, 0.0);
}

TEST(GridGeneratorTest, NodeAndRoadCounts) {
  GridNetworkOptions opts;
  opts.rows = 3;
  opts.cols = 4;
  opts.arterial_every = 0;
  opts.dropout = 0.0;
  auto net = MakeGridNetwork(opts);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_nodes(), 12u);
  // Edges: 3*3 horizontal + 2*4 vertical = 17 two-way = 34 directed.
  EXPECT_EQ(net->num_roads(), 34u);
  EXPECT_TRUE(IsRoadGraphConnected(*net));
}

TEST(GridGeneratorTest, DropoutKeepsConnectivity) {
  GridNetworkOptions opts;
  opts.rows = 12;
  opts.cols = 12;
  opts.dropout = 0.3;
  opts.seed = 99;
  auto net = MakeGridNetwork(opts);
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(IsRoadGraphConnected(*net));
  GridNetworkOptions dense = opts;
  dense.dropout = 0.0;
  auto full = MakeGridNetwork(dense);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(net->num_roads(), full->num_roads());
}

TEST(GridGeneratorTest, ArterialsPresent) {
  auto net = MakeGridNetwork({});
  ASSERT_TRUE(net.ok());
  auto counts = net->CountByClass();
  EXPECT_GT(counts[static_cast<size_t>(RoadClass::kArterial)], 0u);
  EXPECT_GT(counts[static_cast<size_t>(RoadClass::kLocal)], 0u);
}

TEST(GridGeneratorTest, RejectsBadOptions) {
  GridNetworkOptions opts;
  opts.rows = 1;
  EXPECT_FALSE(MakeGridNetwork(opts).ok());
  opts.rows = 5;
  opts.dropout = 0.9;
  EXPECT_FALSE(MakeGridNetwork(opts).ok());
}

TEST(RingRadialGeneratorTest, StructureAndConnectivity) {
  RingRadialOptions opts;
  opts.num_rings = 4;
  opts.num_spokes = 8;
  auto net = MakeRingRadialNetwork(opts);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_nodes(), 1u + 4u * 8u);
  EXPECT_TRUE(IsRoadGraphConnected(*net));
  auto counts = net->CountByClass();
  EXPECT_GT(counts[static_cast<size_t>(RoadClass::kHighway)], 0u);
}

TEST(RingRadialGeneratorTest, RejectsDegenerate) {
  RingRadialOptions opts;
  opts.num_spokes = 2;
  EXPECT_FALSE(MakeRingRadialNetwork(opts).ok());
}

TEST(RandomPlanarGeneratorTest, ConnectedAndSized) {
  RandomPlanarOptions opts;
  opts.num_nodes = 80;
  opts.k_nearest = 3;
  auto net = MakeRandomPlanarNetwork(opts);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_nodes(), 80u);
  EXPECT_GT(net->num_roads(), 160u);  // at least the spanning chain * 2
  EXPECT_TRUE(IsRoadGraphConnected(*net));
}

TEST(ShortestPathTest, HopDistancesOnPath) {
  RoadNetwork net = PathNetwork();
  // From road 0 (A->B): road 2 (B->C) is 1 hop, road 3 (C->B) is 2 hops
  // through the undirected adjacency; road 1 (B->A, reverse twin) is
  // reachable only through other roads.
  auto dist = RoadHopDistances(net, 0, 10);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[2], 1u);
  ASSERT_NE(dist[3], kUnreachable);
  EXPECT_LE(dist[3], 2u);
}

TEST(ShortestPathTest, TruncationAtMaxHops) {
  RoadNetwork net = SmallGrid();
  auto d1 = RoadHopDistances(net, 0, 1);
  auto dinf = RoadHopDistances(net, 0, 1000);
  size_t reach1 = 0, reach_all = 0;
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    if (d1[r] != kUnreachable) {
      ++reach1;
      EXPECT_LE(d1[r], 1u);
    }
    if (dinf[r] != kUnreachable) ++reach_all;
  }
  EXPECT_LT(reach1, reach_all);
  EXPECT_EQ(reach_all, net.num_roads());  // grid is connected
}

TEST(ShortestPathTest, MultiSourceTakesNearest) {
  RoadNetwork net = SmallGrid();
  auto d0 = RoadHopDistances(net, 0, 1000);
  auto d5 = RoadHopDistances(net, 5, 1000);
  auto multi = RoadHopDistancesMulti(net, {0, 5}, 1000);
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    EXPECT_EQ(multi[r], std::min(d0[r], d5[r]));
  }
}

TEST(ShortestPathTest, RoadsWithinHopsSortedAndBounded) {
  RoadNetwork net = SmallGrid();
  auto hops = RoadsWithinHops(net, 3, 2);
  uint32_t prev = 0;
  std::set<RoadId> seen;
  for (const RoadHop& h : hops) {
    EXPECT_GE(h.hops, prev);
    EXPECT_LE(h.hops, 2u);
    EXPECT_NE(h.road, 3u);
    EXPECT_TRUE(seen.insert(h.road).second) << "duplicate road";
    prev = h.hops;
  }
}

TEST(FastestPathTest, FindsDirectPath) {
  RoadNetwork net = PathNetwork();
  SearchScratch scratch;
  auto path = FastestPath(net, 0, 2, &scratch);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->size(), 2u);
  EXPECT_EQ(net.road((*path)[0]).from, 0u);
  EXPECT_EQ(net.road((*path)[1]).to, 2u);
}

TEST(FastestPathTest, PrefersFasterRoute) {
  // Two routes A->B: direct slow local road vs detour via fast highway.
  RoadNetwork::Builder b;
  NodeId a = b.AddNode(0, 0);
  NodeId c = b.AddNode(1000, 0);
  NodeId via = b.AddNode(500, 100);
  RoadId slow = b.AddRoad(a, c, RoadClass::kLocal, 10.0);
  b.AddRoad(a, via, RoadClass::kHighway, 100.0);
  b.AddRoad(via, c, RoadClass::kHighway, 100.0);
  auto net = b.Finish();
  ASSERT_TRUE(net.ok());
  SearchScratch scratch;
  auto path = FastestPath(*net, a, c, &scratch);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->size(), 2u);
  EXPECT_TRUE(std::find(path->begin(), path->end(), slow) == path->end());
}

TEST(FastestPathTest, UnreachableIsNotFound) {
  RoadNetwork::Builder b;
  NodeId a = b.AddNode(0, 0);
  NodeId c = b.AddNode(100, 0);
  NodeId d = b.AddNode(200, 0);
  NodeId e = b.AddNode(300, 0);
  b.AddTwoWay(a, c, RoadClass::kLocal, 40.0);
  b.AddTwoWay(d, e, RoadClass::kLocal, 40.0);
  auto net = b.Finish();
  ASSERT_TRUE(net.ok());
  SearchScratch scratch;
  EXPECT_EQ(FastestPath(*net, a, e, &scratch).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(IsRoadGraphConnected(*net));
}

TEST(FastestPathTest, RejectsOutOfRangeNodes) {
  RoadNetwork net = PathNetwork();
  SearchScratch scratch;
  EXPECT_EQ(FastestPath(net, 0, 99, &scratch).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CompositeCityTest, DistrictsConnectedByHighwayLinks) {
  CompositeCityOptions opts;
  opts.core.num_rings = 3;
  opts.core.num_spokes = 8;
  opts.suburb.rows = 5;
  opts.suburb.cols = 5;
  opts.num_links = 2;
  auto net = MakeCompositeCity(opts);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  // Node/road counts are the districts' sums plus the links.
  auto core = MakeRingRadialNetwork(opts.core);
  auto suburb = MakeGridNetwork(opts.suburb);
  ASSERT_TRUE(core.ok());
  ASSERT_TRUE(suburb.ok());
  EXPECT_EQ(net->num_nodes(), core->num_nodes() + suburb->num_nodes());
  EXPECT_EQ(net->num_roads(),
            core->num_roads() + suburb->num_roads() + 2 * opts.num_links);
  // One connected city.
  EXPECT_TRUE(IsRoadGraphConnected(*net));
  // The links are highways and actually bridge the districts.
  size_t bridges = 0;
  for (RoadId r = 0; r < net->num_roads(); ++r) {
    bool from_core = net->road(r).from < core->num_nodes();
    bool to_core = net->road(r).to < core->num_nodes();
    if (from_core != to_core) {
      ++bridges;
      EXPECT_EQ(net->road(r).road_class, RoadClass::kHighway);
    }
  }
  EXPECT_EQ(bridges, 2 * opts.num_links);
}

TEST(CompositeCityTest, RejectsZeroLinks) {
  CompositeCityOptions opts;
  opts.num_links = 0;
  EXPECT_FALSE(MakeCompositeCity(opts).ok());
}

}  // namespace
}  // namespace trendspeed
