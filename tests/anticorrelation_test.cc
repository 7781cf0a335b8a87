// Tests for the anti-correlation pathway: downstream-starvation physics in
// the incident model, mining of anti-correlated edges, signed influence, and
// sign-correct propagation through them.

#include <cmath>

#include <gtest/gtest.h>

#include "corr/correlation_graph.h"
#include "seed/objective.h"
#include "speed/hierarchical_model.h"
#include "speed/propagation.h"
#include "test_util.h"
#include "traffic/incidents.h"
#include "trend/trend_model.h"

namespace trendspeed {
namespace {

using testing_util::AggregateSeeds;
using testing_util::SeedAggregate;
using testing_util::SmallGrid;

TEST(IncidentStarvationTest, DownstreamSpeedsUpUpstreamSlowsDown) {
  RoadNetwork net = SmallGrid();
  IncidentOptions opts;
  opts.rate_per_slot = 3.0;  // force arrivals
  opts.spill_hops = 1;
  opts.starvation_hops = 1;
  opts.starvation_boost = 0.3;
  IncidentProcess proc(&net, opts, Rng(21));
  const auto& factors = proc.FactorsAt(0);
  ASSERT_FALSE(proc.active().empty());
  bool found_boost = false, found_slow = false;
  for (double f : factors) {
    if (f > 1.0) found_boost = true;
    if (f < 1.0) found_slow = true;
  }
  EXPECT_TRUE(found_slow);
  EXPECT_TRUE(found_boost);
  // The incident road itself is always slowed, never boosted.
  for (const Incident& inc : proc.active()) {
    EXPECT_LE(factors[inc.road], inc.severity + 1e-9);
  }
}

TEST(IncidentStarvationTest, ZeroBoostDisablesSpeedups) {
  RoadNetwork net = SmallGrid();
  IncidentOptions opts;
  opts.rate_per_slot = 3.0;
  opts.starvation_boost = 0.0;
  IncidentProcess proc(&net, opts, Rng(22));
  for (double f : proc.FactorsAt(0)) EXPECT_LE(f, 1.0 + 1e-12);
}

/// History where roads 0 and its corr partner are anti-correlated and all
/// other roads follow road 0.
HistoricalDb AntiHistory(const RoadNetwork& net, RoadId anti,
                         uint64_t num_slots = 1008) {
  HistoricalDb::Builder builder(net.num_roads(), num_slots, 144);
  for (uint64_t slot = 0; slot < num_slots; ++slot) {
    bool up = testing_util::AlternatingUp(slot);
    for (RoadId r = 0; r < net.num_roads(); ++r) {
      bool road_up = (r == anti) ? !up : up;
      double factor = road_up ? 1.2 : 0.8;
      builder.Add(r, slot, net.road(r).free_flow_kmh * 0.8 * factor);
    }
  }
  return builder.Finish();
}

class AntiCorrelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = SmallGrid();
    // Pick an anti road adjacent to road 0 so an edge is minable.
    anti_ = net_.RoadSuccessors(0)[0];
    db_ = AntiHistory(net_, anti_);
    CorrelationGraphOptions copts;
    copts.min_co_observed = 10;
    // Every pair in this fixture is near-perfectly (anti-)correlated; relax
    // the degree cap so tie-breaking cannot drop the edge under test.
    copts.max_degree = 100;
    auto graph = CorrelationGraph::Build(net_, db_, copts);
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<CorrelationGraph>(std::move(graph).value());
  }

  RoadNetwork net_;
  RoadId anti_ = 0;
  HistoricalDb db_;
  std::unique_ptr<CorrelationGraph> graph_;
};

TEST_F(AntiCorrelationTest, MinerKeepsAntiCorrelatedEdge) {
  bool found = false;
  for (const CorrEdge& e : graph_->Neighbors(0)) {
    if (e.neighbor == anti_) {
      found = true;
      EXPECT_LT(e.same_prob, 0.1f);  // strongly anti-correlated
      EXPECT_LT(e.pearson, -0.8f);
      // Compatibility favours disagreement.
      EXPECT_GT(e.compat[0][1], e.compat[0][0]);
    }
  }
  EXPECT_TRUE(found) << "anti-correlated edge 0-" << anti_ << " not mined";
}

TEST_F(AntiCorrelationTest, SignedEdgeWeightIsNegative) {
  for (const CorrEdge& e : graph_->Neighbors(0)) {
    if (e.neighbor == anti_) {
      EXPECT_LT(HierarchicalSpeedModel::EdgeWeight(e), -0.8);
    }
  }
}

TEST_F(AntiCorrelationTest, InfluenceCarriesNegativeSign) {
  auto influence = InfluenceModel::Build(*graph_, db_, {});
  ASSERT_TRUE(influence.ok());
  bool found = false;
  for (const CoverEntry& c : influence->CoverList(0)) {
    if (c.road == anti_) {
      found = true;
      EXPECT_LT(c.influence, 0.0f);
      EXPECT_GT(std::fabs(c.influence), 0.5f);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AntiCorrelationTest, MrfInfersOppositeTrendForAntiRoad) {
  TrendModelOptions topts;
  topts.edge_compat_power = 1.0;
  TrendModel model(&*graph_, &db_, topts);
  // Clamp several normal roads "down" (enough to flip the network-wide
  // belief against the mildly-up priors): the anti road must come out "up"
  // while ordinary unclamped roads come out "down".
  std::vector<SeedTrend> seeds;
  for (RoadId r : {0u, 8u, 16u, 24u, 32u}) {
    if (r != anti_) seeds.push_back({r, -1});
  }
  auto est = model.Infer(/*slot=*/2, seeds);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->HardTrend(anti_), +1)
      << "p_up(anti) = " << est->p_up[anti_];
  // A normal unclamped neighbour of a seed follows the seeds downward.
  RoadId normal = net_.RoadSuccessors(0)[1];
  ASSERT_NE(normal, anti_);
  EXPECT_EQ(est->HardTrend(normal), -1);
}

TEST_F(AntiCorrelationTest, AggregationFlipsSignThroughNegativeEdge) {
  auto influence = InfluenceModel::Build(*graph_, db_, {});
  ASSERT_TRUE(influence.ok());
  uint64_t slot = 4;
  double hist = db_.HistoricalMeanOr(0, slot, net_.road(0).free_flow_kmh);
  std::vector<SeedSpeed> seeds = {{0, hist * 0.8}};  // seed is down 20%
  SeedAggregate agg = AggregateSeeds(*influence, net_, db_, seeds, slot);
  ASSERT_GT(agg.plan.weight()[anti_], 0.0);
  // Anti-correlated road receives a POSITIVE expected deviation.
  EXPECT_GT(agg.x[anti_], 0.05);
}

}  // namespace
}  // namespace trendspeed
