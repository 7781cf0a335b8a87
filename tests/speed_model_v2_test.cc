// Tests for the weight-aware speed model and its sufficient-statistics fit,
// logistic evidence calibration, influence aggregation, and influence-mode
// estimation.

#include <algorithm>
#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "corr/correlation_graph.h"
#include "speed/hierarchical_model.h"
#include "speed/linear_model.h"
#include "speed/propagation.h"
#include "test_util.h"
#include "util/matrix.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::AggregateSeeds;
using testing_util::AlternatingHistory;
using testing_util::SeedAggregate;
using testing_util::SmallGrid;

TEST(FitLogisticTest, RecoversSigmoidParameters) {
  Rng rng(7);
  std::vector<TrendPoint> points;
  const double kBias = 0.3, kGamma = 4.0;
  for (int i = 0; i < 5000; ++i) {
    TrendPoint s;
    s.x = rng.Uniform(-1.0, 1.0);
    double p = 1.0 / (1.0 + std::exp(-(kBias + kGamma * s.x)));
    s.t = rng.NextBool(p) ? 1 : 0;
    points.push_back(s);
  }
  LogisticCalibration cal = FitLogistic({points});
  ASSERT_TRUE(cal.trained);
  EXPECT_NEAR(cal.bias, kBias, 0.15);
  EXPECT_NEAR(cal.gamma, kGamma, 0.4);
  EXPECT_GT(cal.LogOdds(1.0), cal.LogOdds(-1.0));
}

TEST(FitLogisticTest, UntrainedOnTinySamples) {
  LogisticCalibration cal = FitLogistic({}, 50);
  EXPECT_FALSE(cal.trained);
  EXPECT_DOUBLE_EQ(cal.LogOdds(5.0), 0.0);
}

TEST(FitLogisticTest, SeparableDataStaysFinite) {
  // Perfectly separable data would push gamma to infinity without the
  // ridge; verify it stays finite and correctly oriented.
  std::vector<TrendPoint> points;
  for (int i = 0; i < 200; ++i) {
    TrendPoint s;
    s.x = (i % 2 == 0) ? 0.5 : -0.5;
    s.t = (i % 2 == 0) ? 1 : 0;
    points.push_back(s);
  }
  LogisticCalibration cal = FitLogistic({points});
  ASSERT_TRUE(cal.trained);
  EXPECT_TRUE(std::isfinite(cal.gamma));
  EXPECT_GT(cal.gamma, 0.0);
}

TEST(WeightedTrendModelTest, FitRecoversWeightInteraction) {
  // y = (0.3 + 0.3*min(w,2)) * x + 0.1*t.
  Rng rng(11);
  TrendFitStats stats;
  for (int i = 0; i < 2000; ++i) {
    double x = rng.Uniform(-0.5, 0.5);
    double w = rng.Uniform(0.0, 3.0);
    int t = rng.NextBool(0.5) ? 1 : 0;
    double wc = std::min(w, 2.0);
    double y = (0.3 + 0.3 * wc) * x + 0.1 * (t == 1 ? 1 : -1) +
               rng.Gaussian(0.0, 0.02);
    stats.Add(x, y, t, w);
  }
  WeightedTrendModel m = FitWeightedTrendModel(stats, 1e-6, 100);
  ASSERT_TRUE(m.trained);
  EXPECT_EQ(m.samples, 2000u);
  EXPECT_NEAR(m.b0, 0.3, 0.05);
  EXPECT_NEAR(m.b1, 0.3, 0.05);
  EXPECT_NEAR(m.c, 0.1, 0.02);
  // Slope saturates at the cap.
  EXPECT_NEAR(m.SlopeAt(2.0), m.SlopeAt(5.0), 1e-12);
}

TEST(WeightedTrendModelTest, RecoversExactLine) {
  // y = 0.05 - 0.1t + (0.6 + 0.2*min(w,2)) x, no noise, tiny lambda.
  Rng rng(13);
  TrendFitStats stats;
  for (int i = 0; i < 200; ++i) {
    double x = rng.Uniform(-0.5, 0.5);
    double w = rng.Uniform(0.0, 3.0);
    int t = i % 2;
    double y = 0.05 - 0.1 * (t == 1 ? 1 : -1) +
               (0.6 + 0.2 * std::min(w, 2.0)) * x;
    stats.Add(x, y, t, w);
  }
  WeightedTrendModel m = FitWeightedTrendModel(stats, 1e-9, 50);
  ASSERT_TRUE(m.trained);
  EXPECT_NEAR(m.a, 0.05, 1e-5);
  EXPECT_NEAR(m.c, -0.1, 1e-5);
  EXPECT_NEAR(m.b0, 0.6, 1e-5);
  EXPECT_NEAR(m.b1, 0.2, 1e-5);
}

TEST(WeightedTrendModelTest, RecoversSharedSlopeAndShift) {
  // y = 0.1 + 0.8x + 0.15t with no weight backing x (w = 0): the
  // interaction column is all zero and the fit is a shared slope plus a
  // trend shift.
  Rng rng(3);
  TrendFitStats stats;
  for (int i = 0; i < 400; ++i) {
    double x = rng.Uniform(-0.5, 0.5);
    int t = rng.NextBool(0.5) ? 1 : 0;
    double y = 0.1 + 0.8 * x + 0.15 * (t == 1 ? 1.0 : -1.0) +
               rng.Gaussian(0.0, 0.02);
    stats.Add(x, y, t, 0.0);
  }
  WeightedTrendModel m = FitWeightedTrendModel(stats, 1e-6, 50);
  ASSERT_TRUE(m.trained);
  EXPECT_NEAR(m.b0, 0.8, 0.03);
  EXPECT_DOUBLE_EQ(m.b1, 0.0);
  EXPECT_NEAR(m.c, 0.15, 0.03);
  EXPECT_NEAR(m.a, 0.1, 0.03);
}

TEST(WeightedTrendModelTest, SingleTrendStaysUntrained) {
  // The trend shift is not identifiable from one trend: pass-through.
  Rng rng(5);
  TrendFitStats stats;
  for (int i = 0; i < 100; ++i) {
    double x = rng.Uniform(-0.5, 0.5);
    stats.Add(x, 0.5 * x, 1, 1.0);
  }
  WeightedTrendModel m = FitWeightedTrendModel(stats, 1e-6, 50);
  EXPECT_FALSE(m.trained);
  EXPECT_EQ(m.samples, 100u);
  EXPECT_DOUBLE_EQ(m.Predict(0.3, 1.0, 1.0), 0.3);
}

TEST(WeightedTrendModelTest, UntrainedBelowMinSamples) {
  TrendFitStats stats;
  for (int i = 0; i < 5; ++i) stats.Add(0.0, 0.0, i % 2, 0.0);
  WeightedTrendModel m = FitWeightedTrendModel(stats, 1.0, 50);
  EXPECT_FALSE(m.trained);
  EXPECT_EQ(m.samples, 5u);
}

TEST(WeightedTrendModelTest, ShrinksTowardZeroWithLargeLambda) {
  // y = 10x on both trends.
  TrendFitStats stats;
  for (int i = 1; i <= 3; ++i) {
    stats.Add(i, 10.0 * i, 0, 0.0);
    stats.Add(i, 10.0 * i, 1, 0.0);
  }
  WeightedTrendModel small = FitWeightedTrendModel(stats, 1e-6, 1);
  WeightedTrendModel large = FitWeightedTrendModel(stats, 1e6, 1);
  ASSERT_TRUE(small.trained);
  ASSERT_TRUE(large.trained);
  EXPECT_NEAR(small.b0, 10.0, 1e-3);
  EXPECT_GT(std::fabs(small.b0), std::fabs(large.b0));
  EXPECT_NEAR(large.b0, 0.0, 1e-3);
}

TEST(WeightedTrendModelTest, CollinearDesignStaysFinite) {
  // w = 1 everywhere makes the interaction column x * min(w, 2) a copy of
  // the x column: least squares is ill-posed, ridge is fine.
  TrendFitStats stats;
  for (int i = 1; i <= 20; ++i) {
    double x = 0.05 * i;
    stats.Add(x, 2.0 * x, i % 2, 1.0);
  }
  WeightedTrendModel m = FitWeightedTrendModel(stats, 0.5, 10);
  ASSERT_TRUE(m.trained);
  EXPECT_TRUE(std::isfinite(m.b0));
  EXPECT_TRUE(std::isfinite(m.b1));
  // Symmetric solution splits the slope between the duplicate columns.
  EXPECT_NEAR(m.b0, m.b1, 1e-9);
}

TEST(WeightedTrendModelTest, UntrainedIsPassThrough) {
  WeightedTrendModel m;
  EXPECT_DOUBLE_EQ(m.Predict(0.4, 1.0, 0.5), 0.4);
}

TEST(WeightedTrendModelTest, BlendingMovesWithPosterior) {
  WeightedTrendModel m;
  m.trained = true;
  m.a = 0.0;
  m.c = 0.2;
  m.b0 = 1.0;
  m.b1 = 0.0;
  EXPECT_NEAR(m.Predict(0.0, 1.0, 1.0), 0.2, 1e-12);
  EXPECT_NEAR(m.Predict(0.0, 1.0, 0.0), -0.2, 1e-12);
  EXPECT_NEAR(m.Predict(0.0, 1.0, 0.5), 0.0, 1e-12);
}

// The sample-based fit that TrendFitStats replaced, kept as its oracle: one
// design row (1, ±1, x, x * min(w, cap)) per sample, dense normal equations
// X^T X + lambda I and X^T y, then Cholesky.
struct Sample {
  double x = 0.0;
  double y = 0.0;
  int t = 0;
  double w = 0.0;
};

WeightedTrendModel DenseWeightedFit(const std::vector<Sample>& samples,
                                    double lambda, uint32_t min_samples) {
  WeightedTrendModel model;
  uint32_t per_trend[2] = {0, 0};
  for (const Sample& s : samples) ++per_trend[s.t];
  model.samples = static_cast<uint32_t>(samples.size());
  if (samples.size() < min_samples || per_trend[0] == 0 ||
      per_trend[1] == 0) {
    return model;
  }
  std::vector<std::vector<double>> design;
  std::vector<double> targets;
  for (const Sample& s : samples) {
    double wc = std::min(s.w, WeightedTrendModel::kWeightCap);
    design.push_back({1.0, s.t == 1 ? 1.0 : -1.0, s.x, s.x * wc});
    targets.push_back(s.y);
  }
  Matrix gram(4, 4);
  std::vector<double> xty(4, 0.0);
  for (size_t i = 0; i < design.size(); ++i) {
    const std::vector<double>& row = design[i];
    for (size_t a = 0; a < 4; ++a) {
      if (row[a] != 0.0) {
        for (size_t b = a; b < 4; ++b) gram(a, b) += row[a] * row[b];
      }
      xty[a] += row[a] * targets[i];
    }
  }
  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = 0; b < a; ++b) gram(a, b) = gram(b, a);
    gram(a, a) += lambda;
  }
  auto fit = CholeskySolve(gram, xty);
  if (!fit.ok()) return model;
  model.a = (*fit)[0];
  model.c = (*fit)[1];
  model.b0 = (*fit)[2];
  model.b1 = (*fit)[3];
  model.trained = true;
  return model;
}

TrendMean DenseTrendMean(const std::vector<Sample>& samples,
                         uint32_t min_samples) {
  TrendMean out;
  double sum[2] = {0.0, 0.0};
  for (const Sample& s : samples) {
    sum[s.t] += s.y;
    ++out.samples[s.t];
  }
  for (int t = 0; t < 2; ++t) {
    if (out.samples[t] >= min_samples) {
      out.mean[t] = sum[t] / out.samples[t];
      out.trained[t] = true;
    }
  }
  return out;
}

LogisticCalibration FlatLogistic(const std::vector<Sample>& samples) {
  LogisticCalibration cal;
  if (samples.size() < 50) return cal;
  double w0 = 0.0, w1 = 0.0;
  for (int iter = 0; iter < 12; ++iter) {
    double g0 = 1e-6 * w0, g1 = 1e-6 * w1;
    double h00 = 1e-6, h01 = 0.0, h11 = 1e-6;
    for (const Sample& s : samples) {
      double z = w0 + w1 * s.x;
      double p = 1.0 / (1.0 + std::exp(-z));
      double y = s.t == 1 ? 1.0 : 0.0;
      double diff = p - y;
      g0 += diff;
      g1 += diff * s.x;
      double v = p * (1.0 - p);
      h00 += v;
      h01 += v * s.x;
      h11 += v * s.x * s.x;
    }
    double det = h00 * h11 - h01 * h01;
    if (std::fabs(det) < 1e-12) break;
    double d0 = (h11 * g0 - h01 * g1) / det;
    double d1 = (h00 * g1 - h01 * g0) / det;
    w0 -= d0;
    w1 -= d1;
    if (std::fabs(d0) + std::fabs(d1) < 1e-10) break;
  }
  cal.bias = w0;
  cal.gamma = w1;
  cal.trained = true;
  return cal;
}

// Seeded road samples shaped like training's: some slots have no neighbour
// information (x = 0, w = 0), the rest follow
// y = 0.05 + 0.1t + (0.4 + 0.25 * min(w, 2)) x + noise.
std::vector<Sample> RoadSamples(Rng* rng, int n) {
  std::vector<Sample> out;
  for (int i = 0; i < n; ++i) {
    Sample s;
    s.t = rng->NextBool(0.4) ? 1 : 0;
    if (rng->NextBool(0.8)) {
      s.x = rng->Uniform(-0.6, 0.6);
      s.w = rng->Uniform(0.01, 3.0);
    }
    s.y = 0.05 + 0.1 * (s.t == 1 ? 1.0 : -1.0) +
          (0.4 + 0.25 * std::min(s.w, 2.0)) * s.x + rng->Gaussian(0.0, 0.05);
    out.push_back(s);
  }
  return out;
}

TrendFitStats StatsOf(const std::vector<Sample>& samples) {
  TrendFitStats stats;
  for (const Sample& s : samples) stats.Add(s.x, s.y, s.t, s.w);
  return stats;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectBitwiseEqual(const WeightedTrendModel& got,
                        const WeightedTrendModel& want) {
  EXPECT_EQ(got.trained, want.trained);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(Bits(got.a), Bits(want.a));
  EXPECT_EQ(Bits(got.c), Bits(want.c));
  EXPECT_EQ(Bits(got.b0), Bits(want.b0));
  EXPECT_EQ(Bits(got.b1), Bits(want.b1));
}

void ExpectBitwiseEqual(const TrendMean& got, const TrendMean& want) {
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(got.trained[t], want.trained[t]);
    EXPECT_EQ(got.samples[t], want.samples[t]);
    EXPECT_EQ(Bits(got.mean[t]), Bits(want.mean[t]));
  }
}

void ExpectRelNear(double got, double want) {
  EXPECT_LE(std::fabs(got - want), 1e-9 * std::fabs(want))
      << got << " vs " << want;
}

TEST(TrendFitStatsTest, RoadFitsMatchDenseNormalEquationsBitwise) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Sample> samples = RoadSamples(&rng, 10 + trial * 7);
    TrendFitStats stats = StatsOf(samples);
    ExpectBitwiseEqual(FitWeightedTrendModel(stats, 1.0, 25),
                       DenseWeightedFit(samples, 1.0, 25));
    ExpectBitwiseEqual(FitTrendMean(stats, 25), DenseTrendMean(samples, 25));
  }
}

TEST(TrendFitStatsTest, ChunkedLogisticMatchesFlatFitBitwise) {
  Rng rng(25);
  std::vector<std::vector<TrendPoint>> chunks;
  std::vector<Sample> flat;
  for (int road = 0; road < 40; ++road) {
    std::vector<TrendPoint> chunk;
    for (const Sample& s : RoadSamples(&rng, road % 5 == 0 ? 0 : road)) {
      chunk.push_back({s.x, s.t});
      flat.push_back(s);
    }
    chunks.push_back(std::move(chunk));
  }
  LogisticCalibration got = FitLogistic(chunks);
  LogisticCalibration want = FlatLogistic(flat);
  ASSERT_TRUE(want.trained);
  EXPECT_EQ(got.trained, want.trained);
  EXPECT_EQ(Bits(got.bias), Bits(want.bias));
  EXPECT_EQ(Bits(got.gamma), Bits(want.gamma));
}

TEST(TrendFitStatsTest, MergedRoadStatsMatchPooledFit) {
  // Class and global levels pool every road's samples; merging per-road
  // stats in road order changes only the summation order.
  Rng rng(27);
  TrendFitStats class_stats[3];
  TrendFitStats global_stats;
  std::vector<Sample> class_samples[3];
  std::vector<Sample> global_samples;
  for (int road = 0; road < 60; ++road) {
    std::vector<Sample> samples = RoadSamples(&rng, 20 + 13 * (road % 7));
    TrendFitStats stats = StatsOf(samples);
    class_stats[road % 3].Merge(stats);
    global_stats.Merge(stats);
    class_samples[road % 3].insert(class_samples[road % 3].end(),
                                   samples.begin(), samples.end());
    global_samples.insert(global_samples.end(), samples.begin(),
                          samples.end());
  }
  auto expect_close = [](const TrendFitStats& stats,
                         const std::vector<Sample>& samples) {
    WeightedTrendModel got = FitWeightedTrendModel(stats, 1.0, 50);
    WeightedTrendModel want = DenseWeightedFit(samples, 1.0, 50);
    ASSERT_TRUE(want.trained);
    EXPECT_TRUE(got.trained);
    EXPECT_EQ(got.samples, want.samples);
    ExpectRelNear(got.a, want.a);
    ExpectRelNear(got.c, want.c);
    ExpectRelNear(got.b0, want.b0);
    ExpectRelNear(got.b1, want.b1);
    TrendMean got_mean = FitTrendMean(stats, 50);
    TrendMean want_mean = DenseTrendMean(samples, 50);
    for (int t = 0; t < 2; ++t) {
      EXPECT_EQ(got_mean.samples[t], want_mean.samples[t]);
      ExpectRelNear(got_mean.mean[t], want_mean.mean[t]);
    }
  };
  for (int c = 0; c < 3; ++c) expect_close(class_stats[c], class_samples[c]);
  expect_close(global_stats, global_samples);
}

class InfluenceAggregationTest : public ::testing::Test {
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

  RoadNetwork net_;
  HistoricalDb db_;
  std::unique_ptr<CorrelationGraph> graph_;
  std::unique_ptr<InfluenceModel> influence_;
};

TEST_F(InfluenceAggregationTest, SeedDeviationReachesCoveredRoads) {
  uint64_t slot = 4;
  double hist = db_.HistoricalMeanOr(0, slot, net_.road(0).free_flow_kmh);
  std::vector<SeedSpeed> seeds = {{0, hist * 0.8}};  // -20% deviation
  SeedAggregate agg = AggregateSeeds(*influence_, net_, db_, seeds, slot);
  // The seed covers itself with weight 1 and exact deviation.
  EXPECT_NEAR(agg.plan.weight()[0], 1.0, 1e-6);
  EXPECT_NEAR(agg.x[0], -0.2, 1e-6);
  // Covered roads carry the (possibly attenuated) negative signal.
  size_t covered = 0;
  for (RoadId r = 1; r < net_.num_roads(); ++r) {
    if (agg.plan.weight()[r] > 0.0) {
      ++covered;
      EXPECT_LT(agg.x[r], 0.0) << "road " << r;
    }
  }
  EXPECT_GT(covered, 3u);
}

TEST_F(InfluenceAggregationTest, MultipleSeedsAverageByWeight) {
  uint64_t slot = 4;
  // Two seeds with opposite deviations: covered roads land in between.
  double h0 = db_.HistoricalMeanOr(0, slot, net_.road(0).free_flow_kmh);
  double h9 = db_.HistoricalMeanOr(9, slot, net_.road(9).free_flow_kmh);
  std::vector<SeedSpeed> seeds = {{0, h0 * 0.8}, {9, h9 * 1.2}};
  SeedAggregate agg = AggregateSeeds(*influence_, net_, db_, seeds, slot);
  for (RoadId r = 0; r < net_.num_roads(); ++r) {
    if (agg.plan.weight()[r] > 0.0) {
      EXPECT_GE(agg.x[r], -0.2 - 1e-6);
      EXPECT_LE(agg.x[r], 0.2 + 1e-6);
    }
  }
}

TEST_F(InfluenceAggregationTest, InfluenceEstimationCoversEveryRoad) {
  auto model = HierarchicalSpeedModel::Train(net_, db_, *graph_, *influence_,
                                             {});
  ASSERT_TRUE(model.ok());
  TrendEstimate trends;
  trends.p_up.assign(net_.num_roads(), 0.5);
  uint64_t slot = 4;
  double hist = db_.HistoricalMeanOr(0, slot, net_.road(0).free_flow_kmh);
  std::vector<SeedSpeed> seeds = {{0, hist * 0.8}};
  SeedAggregate agg = AggregateSeeds(*influence_, net_, db_, seeds, slot);
  auto est = EstimateSpeedsInfluence(net_, db_, *model, trends, seeds,
                                     agg.plan, agg.means, agg.seed_deviation,
                                     slot, {});
  ASSERT_TRUE(est.ok());
  for (RoadId r = 0; r < net_.num_roads(); ++r) {
    EXPECT_GT(est->speed_kmh[r], 0.0);
  }
  EXPECT_DOUBLE_EQ(est->speed_kmh[0], hist * 0.8);
  EXPECT_EQ(est->layer[0], 0u);
  // Covered roads are layer 1.
  for (RoadId r = 1; r < net_.num_roads(); ++r) {
    if (agg.plan.weight()[r] > 0.0) {
      EXPECT_EQ(est->layer[r], 1u);
    }
  }
}

TEST_F(InfluenceAggregationTest, EstimationValidatesInput) {
  auto model = HierarchicalSpeedModel::Train(net_, db_, *graph_, *influence_,
                                             {});
  ASSERT_TRUE(model.ok());
  TrendEstimate trends;
  trends.p_up.assign(net_.num_roads(), 0.5);
  SeedAggregate agg = AggregateSeeds(*influence_, net_, db_, {}, 0);
  // One deviation for the one seed, so the seed itself is what fails.
  EXPECT_FALSE(EstimateSpeedsInfluence(net_, db_, *model, trends,
                                       {{99999, 10.0}}, agg.plan, agg.means,
                                       {0.0}, 0, {})
                   .ok());
  TrendEstimate bad;
  bad.p_up.assign(3, 0.5);
  EXPECT_FALSE(EstimateSpeedsInfluence(net_, db_, *model, bad, {}, agg.plan,
                                       agg.means, agg.seed_deviation, 0, {})
                   .ok());
}

}  // namespace
}  // namespace trendspeed
