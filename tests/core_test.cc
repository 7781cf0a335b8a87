#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/evaluator.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

class CoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(est.ok()) << est.status().ToString();
    estimator_ = new TrafficSpeedEstimator(std::move(est).value());
  }

  const Dataset& ds() { return SharedTinyDataset(); }
  const TrafficSpeedEstimator& est() { return *estimator_; }

  static TrafficSpeedEstimator* estimator_;
};

TrafficSpeedEstimator* CoreTest::estimator_ = nullptr;

TEST_F(CoreTest, TrainBuildsAllComponents) {
  EXPECT_EQ(est().correlation_graph().num_roads(), ds().net.num_roads());
  EXPECT_GT(est().correlation_graph().num_edges(), 0u);
  EXPECT_EQ(est().influence().num_roads(), ds().net.num_roads());
}

TEST_F(CoreTest, TrainRejectsInvalidConfig) {
  PipelineConfig bad;
  bad.corr.min_same_prob = 0.2;
  EXPECT_FALSE(
      TrafficSpeedEstimator::Train(&ds().net, &ds().history, bad).ok());
  EXPECT_FALSE(TrafficSpeedEstimator::Train(nullptr, &ds().history, {}).ok());
}

TEST_F(CoreTest, SeedStrategiesAllWork) {
  for (SeedStrategy strategy :
       {SeedStrategy::kGreedy, SeedStrategy::kLazyGreedy,
        SeedStrategy::kStochasticGreedy, SeedStrategy::kRandom,
        SeedStrategy::kTopDegree, SeedStrategy::kTopVariance,
        SeedStrategy::kPageRank, SeedStrategy::kKCenter}) {
    auto result = est().SelectSeeds(5, strategy);
    ASSERT_TRUE(result.ok()) << SeedStrategyName(strategy);
    EXPECT_EQ(result->seeds.size(), 5u) << SeedStrategyName(strategy);
    std::set<RoadId> uniq(result->seeds.begin(), result->seeds.end());
    EXPECT_EQ(uniq.size(), 5u);
  }
}

TEST_F(CoreTest, GreedyEqualsLazyGreedy) {
  auto g = est().SelectSeeds(8, SeedStrategy::kGreedy);
  auto l = est().SelectSeeds(8, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(g->seeds, l->seeds);
  EXPECT_LE(l->gain_evaluations, g->gain_evaluations);
}

TEST_F(CoreTest, EstimateProducesFullCoverage) {
  auto seeds_result = est().SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds_result.ok());
  Evaluator eval(&ds());
  Rng rng(5);
  uint64_t slot = ds().first_test_slot() + 10;
  auto obs = eval.ObserveSeeds(slot, seeds_result->seeds, 0.0, &rng);
  auto out = est().Estimate(slot, obs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->speeds.speed_kmh.size(), ds().net.num_roads());
  EXPECT_EQ(out->trends.p_up.size(), ds().net.num_roads());
  for (RoadId r = 0; r < ds().net.num_roads(); ++r) {
    EXPECT_GT(out->speeds.speed_kmh[r], 0.0);
    EXPECT_TRUE(out->trends.HardTrend(r) == 1 ||
                out->trends.HardTrend(r) == -1);
    EXPECT_GE(out->trends.p_up[r], 0.0);
    EXPECT_LE(out->trends.p_up[r], 1.0);
  }
  // Seeds echo their observations.
  for (const SeedSpeed& s : obs) {
    EXPECT_DOUBLE_EQ(out->speeds.speed_kmh[s.road], s.speed_kmh);
  }
}

TEST_F(CoreTest, EstimateRejectsBadSeeds) {
  EXPECT_FALSE(est().Estimate(0, {{99999, 30.0}}).ok());
}

// Regression: Estimate used to accept NaN/inf/non-positive seed speeds and
// silently poison every interpolated road (log of a non-positive speed, NaN
// spreading through the propagation weights). They must be rejected at the
// API boundary instead.
TEST_F(CoreTest, EstimateRejectsNonFiniteAndNonPositiveSeedSpeeds) {
  const RoadId road = 0;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(), 0.0, -12.5}) {
    auto out = est().Estimate(0, {{road, bad}});
    EXPECT_FALSE(out.ok()) << "speed " << bad << " was accepted";
  }
  // A plausible speed on the same road still works.
  EXPECT_TRUE(est().Estimate(0, {{road, 30.0}}).ok());
}

TEST_F(CoreTest, EvaluatorTestSlotsHonourStride) {
  Evaluator eval(&ds());
  auto all = eval.TestSlots(1);
  auto strided = eval.TestSlots(4);
  EXPECT_EQ(all.size(), ds().test_days * 144u);
  EXPECT_EQ(strided.size(), (all.size() + 3) / 4);
  EXPECT_EQ(all.front(), ds().first_test_slot());
}

TEST_F(CoreTest, ObserveSeedsAddsBoundedNoise) {
  Evaluator eval(&ds());
  Rng rng(7);
  std::vector<RoadId> seeds = {0, 1, 2};
  uint64_t slot = ds().first_test_slot();
  auto clean = eval.ObserveSeeds(slot, seeds, 0.0, &rng);
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_DOUBLE_EQ(clean[i].speed_kmh, ds().truth.at(slot, seeds[i]));
  }
  auto noisy = eval.ObserveSeeds(slot, seeds, 2.0, &rng);
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_GT(noisy[i].speed_kmh, 0.0);
    EXPECT_NEAR(noisy[i].speed_kmh, clean[i].speed_kmh, 10.0);
  }
}

TEST_F(CoreTest, RunProducesMetricsAndTiming) {
  auto seeds = est().SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  auto suite = BuildMethodSuite(ds(), est(), /*include_mc=*/false);
  ASSERT_TRUE(suite.ok());
  Evaluator eval(&ds());
  EvalOptions opts;
  opts.slot_stride = 12;
  for (const MethodAdapter& method : suite->methods) {
    auto result = eval.Run(method, seeds->seeds, opts);
    ASSERT_TRUE(result.ok()) << method.name;
    EXPECT_GT(result->slots, 0u);
    EXPECT_GT(result->metrics.count, 0u);
    EXPECT_GT(result->metrics.mae, 0.0) << method.name;
    EXPECT_LT(result->metrics.mape, 1.0) << method.name;
    EXPECT_GE(result->ms_per_slot, 0.0);
  }
}

TEST_F(CoreTest, PipelineBeatsHistoricalMean) {
  auto seeds = est().SelectSeeds(10, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  auto suite = BuildMethodSuite(ds(), est(), false);
  ASSERT_TRUE(suite.ok());
  Evaluator eval(&ds());
  EvalOptions opts;
  opts.slot_stride = 6;
  double ours = 0.0, hist = 0.0;
  for (const MethodAdapter& method : suite->methods) {
    auto result = eval.Run(method, seeds->seeds, opts);
    ASSERT_TRUE(result.ok());
    if (method.name == "TrendSpeed") ours = result->metrics.mae;
    if (method.name == "HistoricalMean") hist = result->metrics.mae;
  }
  ASSERT_GT(ours, 0.0);
  ASSERT_GT(hist, 0.0);
  EXPECT_LT(ours, hist);
}

TEST_F(CoreTest, TrendAccuracyAboveMajorityBaseline) {
  auto seeds = est().SelectSeeds(10, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  Evaluator eval(&ds());
  EvalOptions opts;
  opts.slot_stride = 6;
  auto acc = eval.RunTrendAccuracy(est(), seeds->seeds, opts);
  ASSERT_TRUE(acc.ok());
  EXPECT_GT(*acc, 0.55);
  EXPECT_LE(*acc, 1.0);
}

TEST_F(CoreTest, MoreSeedsNeverHurtMuch) {
  Evaluator eval(&ds());
  EvalOptions opts;
  opts.slot_stride = 12;
  auto run_k = [&](size_t k) {
    auto seeds = est().SelectSeeds(k, SeedStrategy::kLazyGreedy);
    TS_CHECK(seeds.ok());
    auto suite = BuildMethodSuite(ds(), est(), false);
    TS_CHECK(suite.ok());
    auto result = eval.Run(suite->methods[0], seeds->seeds, opts);
    TS_CHECK(result.ok());
    return result->metrics.mae;
  };
  double mae_small = run_k(2);
  double mae_large = run_k(16);
  EXPECT_LT(mae_large, mae_small * 1.1);
}

TEST_F(CoreTest, RunRepeatedReportsSpread) {
  auto seeds = est().SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  auto suite = BuildMethodSuite(ds(), est(), false);
  ASSERT_TRUE(suite.ok());
  Evaluator eval(&ds());
  EvalOptions opts;
  opts.slot_stride = 24;
  auto rep = eval.RunRepeated(suite->methods[0], seeds->seeds, opts, 4);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->repetitions, 4u);
  EXPECT_GT(rep->mae_mean, 0.0);
  // Different noise draws -> nonzero but small spread relative to the mean.
  EXPECT_GT(rep->mae_stddev, 0.0);
  EXPECT_LT(rep->mae_stddev, rep->mae_mean * 0.5);
  EXPECT_FALSE(
      eval.RunRepeated(suite->methods[0], seeds->seeds, opts, 0).ok());
}

TEST(SeedStrategyNameTest, AllNamed) {
  EXPECT_STREQ(SeedStrategyName(SeedStrategy::kGreedy), "greedy");
  EXPECT_STREQ(SeedStrategyName(SeedStrategy::kKCenter), "k-center");
}

}  // namespace
}  // namespace trendspeed
