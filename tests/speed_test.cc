#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "corr/correlation_graph.h"
#include "speed/hierarchical_model.h"
#include "speed/linear_model.h"
#include "speed/propagation.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::AggregateSeeds;
using testing_util::AlternatingHistory;
using testing_util::SeedAggregate;
using testing_util::SmallGrid;

TEST(TrendMeanTest, PerTrendAverages) {
  TrendFitStats stats;
  for (int i = 0; i < 50; ++i) {
    stats.Add(0.0, 0.1, 1, 0.0);
    stats.Add(0.0, -0.3, 0, 0.0);
  }
  TrendMean mean = FitTrendMean(stats, 20);
  EXPECT_NEAR(mean.PredictHard(1), 0.1, 1e-12);
  EXPECT_NEAR(mean.PredictHard(0), -0.3, 1e-12);
  EXPECT_NEAR(mean.Predict(0.5), -0.1, 1e-12);
  TrendMean empty = FitTrendMean(TrendFitStats{}, 5);
  EXPECT_DOUBLE_EQ(empty.PredictHard(1), 0.0);
}

TEST(TrendMeanTest, UntrainedBranchFallsBack) {
  TrendFitStats stats;
  for (int i = 0; i < 40; ++i) stats.Add(0.0, 0.2, 1, 0.0);
  for (int i = 0; i < 5; ++i) stats.Add(0.0, -0.4, 0, 0.0);
  TrendMean mean = FitTrendMean(stats, 20);
  EXPECT_TRUE(mean.trained[1]);
  EXPECT_FALSE(mean.trained[0]);
  EXPECT_EQ(mean.samples[0], 5u);
  // The down branch reuses the up mean, so blending is flat.
  EXPECT_NEAR(mean.PredictHard(0), 0.2, 1e-12);
  EXPECT_NEAR(mean.Predict(0.3), 0.2, 1e-12);
}

class HierarchicalModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = SmallGrid();
    db_ = AlternatingHistory(net_, 1008, 144, 0.25);
    CorrelationGraphOptions copts;
    copts.min_co_observed = 10;
    auto graph = CorrelationGraph::Build(net_, db_, copts);
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<CorrelationGraph>(std::move(graph).value());
    auto influence = InfluenceModel::Build(*graph_, db_, {});
    ASSERT_TRUE(influence.ok());
    influence_ =
        std::make_unique<InfluenceModel>(std::move(influence).value());
  }

  Result<HierarchicalSpeedModel> TrainModel(
      const HierarchicalModelOptions& opts = {}) {
    return HierarchicalSpeedModel::Train(net_, db_, *graph_, *influence_,
                                         opts);
  }

  RoadNetwork net_;
  HistoricalDb db_;
  std::unique_ptr<CorrelationGraph> graph_;
  std::unique_ptr<InfluenceModel> influence_;
};

TEST_F(HierarchicalModelTest, TrainsRoadLevelModels) {
  auto model = TrainModel();
  ASSERT_TRUE(model.ok());
  // Dense perfectly-correlated history: most roads get their own model.
  EXPECT_GT(model->num_road_models(), net_.num_roads() / 2);
  EXPECT_EQ(model->LevelFor(0, true), ModelLevel::kRoad);
}

TEST_F(HierarchicalModelTest, PredictsNeighbourDeviation) {
  auto model = TrainModel();
  ASSERT_TRUE(model.ok());
  // In the alternating history, a road's deviation equals its neighbours';
  // with a strong backing weight the prediction should track x closely.
  double d =
      model->PredictDeviation(0, 0.25, /*weight=*/2.0, /*has_x=*/true, 1.0);
  EXPECT_NEAR(d, 0.25, 0.08);
  double d2 = model->PredictDeviation(0, -0.25, 2.0, true, 0.0);
  EXPECT_NEAR(d2, -0.25, 0.08);
}

TEST_F(HierarchicalModelTest, WeightModulatesSlope) {
  auto model = TrainModel();
  ASSERT_TRUE(model.ok());
  // The global line's effective slope must not decrease with weight.
  const WeightedTrendModel& line = model->global_line();
  ASSERT_TRUE(line.trained);
  EXPECT_GE(line.SlopeAt(2.0), line.SlopeAt(0.1) - 1e-9);
}

TEST_F(HierarchicalModelTest, FallsBackThroughHierarchy) {
  HierarchicalModelOptions opts;
  opts.min_road_samples = 100000;  // untrainable at road level
  auto model = TrainModel(opts);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_road_models(), 0u);
  EXPECT_EQ(model->LevelFor(0, true), ModelLevel::kClass);
  opts.min_class_samples = 10000000;
  auto model2 = TrainModel(opts);
  ASSERT_TRUE(model2.ok());
  EXPECT_EQ(model2->LevelFor(0, true), ModelLevel::kGlobal);
  // Even the global model keeps predicting sensibly.
  double d = model2->PredictDeviation(0, 0.25, 1.5, true, 1.0);
  EXPECT_GT(d, 0.05);
}

TEST_F(HierarchicalModelTest, ClampsImplausibleDeviations) {
  auto model = TrainModel();
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model->PredictDeviation(0, -100.0, 1.0, true, 0.0), -0.9);
  EXPECT_LE(model->PredictDeviation(0, 100.0, 1.0, true, 1.0), 1.5);
}

TEST_F(HierarchicalModelTest, RejectsMismatchedInputs) {
  RoadNetwork other = testing_util::PathNetwork();
  auto model =
      HierarchicalSpeedModel::Train(other, db_, *graph_, *influence_, {});
  EXPECT_FALSE(model.ok());
}

class PropagationTest : public HierarchicalModelTest {
 protected:
  void SetUp() override {
    HierarchicalModelTest::SetUp();
    auto model = TrainModel();
    ASSERT_TRUE(model.ok());
    model_ = std::make_unique<HierarchicalSpeedModel>(std::move(model).value());
  }

  TrendEstimate UniformTrends(double p_up) {
    TrendEstimate t;
    t.p_up.assign(net_.num_roads(), p_up);
    return t;
  }

  std::unique_ptr<HierarchicalSpeedModel> model_;
};

TEST_F(PropagationTest, SeedsKeepTheirObservedSpeed) {
  TrendEstimate trends = UniformTrends(1.0);
  std::vector<SeedSpeed> seeds = {{0, 31.5}, {7, 44.0}};
  auto est = PropagateSpeeds(net_, *graph_, db_, *model_, trends, seeds,
                             /*slot=*/2, {});
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->speed_kmh[0], 31.5);
  EXPECT_DOUBLE_EQ(est->speed_kmh[7], 44.0);
  EXPECT_EQ(est->layer[0], 0u);
  EXPECT_EQ(est->layer[7], 0u);
}

TEST_F(PropagationTest, LayersGrowOutwardFromSeeds) {
  TrendEstimate trends = UniformTrends(0.5);
  std::vector<SeedSpeed> seeds = {{0, 30.0}};
  PropagationOptions popts;
  popts.max_spatial_layers = 0;  // correlation pass only
  auto est =
      PropagateSpeeds(net_, *graph_, db_, *model_, trends, seeds, 2, popts);
  ASSERT_TRUE(est.ok());
  // Layer of a road exceeds that of some correlation neighbour by exactly 1.
  for (RoadId v = 0; v < net_.num_roads(); ++v) {
    if (est->layer[v] == 0 || est->layer[v] == kUnreachedLayer) continue;
    bool has_parent = false;
    for (const CorrEdge& e : graph_->Neighbors(v)) {
      if (est->layer[e.neighbor] == est->layer[v] - 1) has_parent = true;
    }
    EXPECT_TRUE(has_parent) << "road " << v << " layer " << est->layer[v];
  }
}

TEST_F(PropagationTest, SeedDeviationPropagatesToNeighbours) {
  TrendEstimate trends = UniformTrends(0.0);  // strongly down
  // Seed far below its historical mean.
  double hist = db_.HistoricalMeanOr(0, 3, net_.road(0).free_flow_kmh);
  std::vector<SeedSpeed> seeds = {{0, hist * 0.7}};
  auto est = PropagateSpeeds(net_, *graph_, db_, *model_, trends, seeds, 3, {});
  ASSERT_TRUE(est.ok());
  size_t checked = 0;
  for (const CorrEdge& e : graph_->Neighbors(0)) {
    if (est->layer[e.neighbor] != 1) continue;
    EXPECT_LT(est->deviation[e.neighbor], -0.05) << "road " << e.neighbor;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(PropagationTest, MaxLayersBoundsNeighbourEstimates) {
  TrendEstimate trends = UniformTrends(0.5);
  std::vector<SeedSpeed> seeds = {{0, 30.0}};
  PropagationOptions popts;
  popts.max_layers = 1;
  popts.max_spatial_layers = 0;
  auto est = PropagateSpeeds(net_, *graph_, db_, *model_, trends, seeds, 2,
                             popts);
  ASSERT_TRUE(est.ok());
  for (uint32_t layer : est->layer) {
    EXPECT_TRUE(layer <= 1 || layer == kUnreachedLayer);
  }
}

TEST_F(PropagationTest, SpatialFallbackReachesCorrIsolatedRoads) {
  // An empty correlation graph leaves every non-seed road unreached by the
  // correlation pass; the spatial pass must still walk road adjacency.
  CorrelationGraphOptions copts;
  copts.min_co_observed = 100000;  // impossible: graph has no edges
  auto empty_graph = CorrelationGraph::Build(net_, db_, copts);
  ASSERT_TRUE(empty_graph.ok());
  ASSERT_EQ(empty_graph->num_edges(), 0u);
  TrendEstimate trends = UniformTrends(0.0);
  double hist = db_.HistoricalMeanOr(0, 3, net_.road(0).free_flow_kmh);
  std::vector<SeedSpeed> seeds = {{0, hist * 0.7}};
  auto est = PropagateSpeeds(net_, *empty_graph, db_, *model_, trends, seeds,
                             3, {});
  ASSERT_TRUE(est.ok());
  // Physically adjacent roads received spatial-layer estimates below their
  // historical mean.
  size_t spatial = 0;
  for (RoadId v = 1; v < net_.num_roads(); ++v) {
    if (est->layer[v] != kUnreachedLayer && est->layer[v] > 0) ++spatial;
  }
  EXPECT_GT(spatial, net_.num_roads() / 2);
  for (RoadId u : net_.RoadSuccessors(0)) {
    EXPECT_LT(est->deviation[u], 0.0) << "road " << u;
  }
}

TEST_F(PropagationTest, UnreachedRoadsGetPriorBasedSpeeds) {
  TrendEstimate trends = UniformTrends(0.5);
  std::vector<SeedSpeed> seeds = {{0, 30.0}};
  PropagationOptions popts;
  popts.max_layers = 1;
  auto est = PropagateSpeeds(net_, *graph_, db_, *model_, trends, seeds, 2,
                             popts);
  ASSERT_TRUE(est.ok());
  for (RoadId v = 0; v < net_.num_roads(); ++v) {
    EXPECT_GT(est->speed_kmh[v], 0.0) << "road " << v;
  }
}

TEST_F(PropagationTest, RejectsInvalidSeeds) {
  TrendEstimate trends = UniformTrends(0.5);
  EXPECT_FALSE(PropagateSpeeds(net_, *graph_, db_, *model_, trends,
                               {{99999, 30.0}}, 2, {})
                   .ok());
  EXPECT_FALSE(
      PropagateSpeeds(net_, *graph_, db_, *model_, trends, {{0, -5.0}}, 2, {})
          .ok());
}

TEST_F(PropagationTest, RejectsNonFiniteSeedSpeeds) {
  TrendEstimate trends = UniformTrends(0.5);
  SeedAggregate agg = AggregateSeeds(*influence_, net_, db_, {{0, 30.0}}, 2);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    std::vector<SeedSpeed> seeds = {{0, bad}};
    EXPECT_FALSE(
        PropagateSpeeds(net_, *graph_, db_, *model_, trends, seeds, 2, {})
            .ok())
        << bad;
    EXPECT_FALSE(EstimateSpeedsInfluence(net_, db_, *model_, trends, seeds,
                                         agg.plan, agg.means,
                                         agg.seed_deviation, 2, {})
                     .ok())
        << bad;
  }
}

TEST_F(PropagationTest, EstimatesAreBoundedPhysically) {
  TrendEstimate trends = UniformTrends(1.0);
  std::vector<SeedSpeed> seeds = {{0, 200.0}};  // absurd but positive
  auto est = PropagateSpeeds(net_, *graph_, db_, *model_, trends, seeds, 2, {});
  ASSERT_TRUE(est.ok());
  for (RoadId v = 1; v < net_.num_roads(); ++v) {
    EXPECT_LE(est->speed_kmh[v], net_.road(v).free_flow_kmh * 1.3 + 1e-9);
    EXPECT_GE(est->speed_kmh[v], 2.0);
  }
}

}  // namespace
}  // namespace trendspeed
