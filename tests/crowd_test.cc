#include <cmath>

#include <gtest/gtest.h>

#include "crowd/aggregate.h"
#include "crowd/campaign.h"
#include "crowd/worker.h"
#include "util/stats.h"

namespace trendspeed {
namespace {

WorkerPool::Options CleanPoolOptions() {
  WorkerPool::Options opts;
  opts.num_workers = 50;
  opts.bias_spread_kmh = 0.0;
  opts.noise_min_kmh = 1.0;
  opts.noise_max_kmh = 1.0;
  opts.max_outlier_prob = 0.0;
  return opts;
}

TEST(WorkerPoolTest, ProfilesWithinConfiguredRanges) {
  WorkerPool::Options opts;
  opts.num_workers = 300;
  opts.bias_spread_kmh = 2.0;
  opts.noise_min_kmh = 1.0;
  opts.noise_max_kmh = 5.0;
  opts.max_outlier_prob = 0.1;
  WorkerPool pool(opts);
  EXPECT_EQ(pool.size(), 300u);
  OnlineStats bias;
  for (uint32_t w = 0; w < pool.size(); ++w) {
    const WorkerProfile& p = pool.profile(w);
    bias.Add(p.bias_kmh);
    EXPECT_GE(p.noise_kmh, 1.0);
    EXPECT_LE(p.noise_kmh, 5.0);
    EXPECT_GE(p.outlier_prob, 0.0);
    EXPECT_LE(p.outlier_prob, 0.1);
  }
  EXPECT_NEAR(bias.mean(), 0.0, 0.5);
  EXPECT_NEAR(bias.stddev(), 2.0, 0.5);
}

TEST(WorkerPoolTest, HonestAnswersCenterOnTruthPlusBias) {
  WorkerPool pool(CleanPoolOptions());
  Rng rng(1);
  OnlineStats answers;
  for (int i = 0; i < 2000; ++i) {
    answers.Add(pool.Answer(7, 50.0, &rng).speed_kmh);
  }
  EXPECT_NEAR(answers.mean(), 50.0 + pool.profile(7).bias_kmh, 0.2);
  EXPECT_NEAR(answers.stddev(), 1.0, 0.1);
}

TEST(WorkerPoolTest, AnswersFlooredAtOne) {
  WorkerPool pool(CleanPoolOptions());
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(pool.Answer(0, 0.5, &rng).speed_kmh, 1.0);
  }
}

TEST(WorkerPoolTest, DrawReturnsDistinctWorkers) {
  WorkerPool pool(CleanPoolOptions());
  Rng rng(3);
  auto drawn = pool.Draw(10, &rng);
  EXPECT_EQ(drawn.size(), 10u);
  std::sort(drawn.begin(), drawn.end());
  EXPECT_TRUE(std::adjacent_find(drawn.begin(), drawn.end()) == drawn.end());
  // Asking for more than exist caps at pool size.
  EXPECT_EQ(pool.Draw(1000, &rng).size(), pool.size());
}

std::vector<WorkerAnswer> MakeAnswers(std::vector<double> values) {
  std::vector<WorkerAnswer> out;
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back(WorkerAnswer{static_cast<uint32_t>(i), values[i]});
  }
  return out;
}

TEST(AggregateTest, MeanMedianTrimmed) {
  auto answers = MakeAnswers({40, 42, 44, 46, 120});  // one outlier
  AggregateOptions mean_opts;
  mean_opts.method = AggregationMethod::kMean;
  auto mean = AggregateAnswers(answers, mean_opts);
  ASSERT_TRUE(mean.ok());
  EXPECT_NEAR(*mean, 58.4, 1e-9);

  AggregateOptions median_opts;
  median_opts.method = AggregationMethod::kMedian;
  auto median = AggregateAnswers(answers, median_opts);
  ASSERT_TRUE(median.ok());
  EXPECT_NEAR(*median, 44.0, 1e-9);

  AggregateOptions trim_opts;
  trim_opts.method = AggregationMethod::kTrimmedMean;
  trim_opts.trim_fraction = 0.2;  // drops 1 from each end
  auto trimmed = AggregateAnswers(answers, trim_opts);
  ASSERT_TRUE(trimmed.ok());
  EXPECT_NEAR(*trimmed, 44.0, 1e-9);
}

TEST(AggregateTest, MedianOfEvenCountInterpolates) {
  auto answers = MakeAnswers({40, 50});
  AggregateOptions opts;
  opts.method = AggregationMethod::kMedian;
  auto median = AggregateAnswers(answers, opts);
  ASSERT_TRUE(median.ok());
  EXPECT_NEAR(*median, 45.0, 1e-9);
}

TEST(AggregateTest, ValidatesInput) {
  AggregateOptions opts;
  EXPECT_FALSE(AggregateAnswers({}, opts).ok());
  opts.method = AggregationMethod::kReliabilityWeighted;
  EXPECT_FALSE(AggregateAnswers(MakeAnswers({1}), opts).ok());
  opts.method = AggregationMethod::kTrimmedMean;
  opts.trim_fraction = 0.6;
  EXPECT_FALSE(AggregateAnswers(MakeAnswers({1}), opts).ok());
}

TEST(ReliabilityTrackerTest, DownWeightsConsistentlyWrongWorkers) {
  ReliabilityTracker tracker(2);
  EXPECT_DOUBLE_EQ(tracker.WeightOf(0), 1.0);
  for (int i = 0; i < 50; ++i) {
    tracker.Record(0, 50.0, 50.0);  // always matches consensus
    tracker.Record(1, 80.0, 50.0);  // always 30 km/h off
  }
  EXPECT_GT(tracker.WeightOf(0), 0.9);
  EXPECT_LT(tracker.WeightOf(1), 0.2);
  EXPECT_NEAR(tracker.MeanAbsError(1), 30.0, 2.0);
  EXPECT_EQ(tracker.AnswerCount(0), 50u);
}

TEST(AggregateTest, ReliabilityWeightingSuppressesBadWorker) {
  ReliabilityTracker tracker(3);
  // Teach the tracker that worker 2 is unreliable.
  for (int i = 0; i < 40; ++i) {
    tracker.Record(0, 50.0, 50.0);
    tracker.Record(1, 51.0, 50.0);
    tracker.Record(2, 90.0, 50.0);
  }
  std::vector<WorkerAnswer> answers = {{0, 40.0}, {1, 42.0}, {2, 100.0}};
  AggregateOptions opts;
  opts.method = AggregationMethod::kReliabilityWeighted;
  opts.tracker = &tracker;
  auto result = AggregateAnswers(answers, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(*result, 50.0);  // far closer to the good workers than the mean
}

TEST(CampaignTest, CollectsAggregatedSeedSpeeds) {
  WorkerPool::Options popts = CleanPoolOptions();
  popts.num_workers = 100;
  WorkerPool pool(popts);
  CampaignOptions copts;
  copts.workers_per_seed = 5;
  CrowdCampaign campaign(&pool, copts);
  std::vector<double> truth = {30.0, 45.0, 60.0};
  auto obs = campaign.Collect({0, 2}, truth);
  ASSERT_TRUE(obs.ok());
  ASSERT_EQ(obs->size(), 2u);
  EXPECT_EQ((*obs)[0].road, 0u);
  EXPECT_NEAR((*obs)[0].speed_kmh, 30.0, 4.0);
  EXPECT_NEAR((*obs)[1].speed_kmh, 60.0, 4.0);
  EXPECT_EQ(campaign.answers_spent(), 10u);
}

TEST(CampaignTest, MoreWorkersReduceObservationError) {
  WorkerPool::Options popts;
  popts.num_workers = 400;
  popts.noise_min_kmh = 4.0;
  popts.noise_max_kmh = 8.0;
  popts.max_outlier_prob = 0.1;
  popts.seed = 9;
  WorkerPool pool(popts);
  auto observe_error = [&](uint32_t workers_per_seed, uint64_t seed) {
    CampaignOptions copts;
    copts.workers_per_seed = workers_per_seed;
    copts.seed = seed;
    CrowdCampaign campaign(&pool, copts);
    std::vector<double> truth(50, 40.0);
    std::vector<RoadId> roads;
    for (RoadId r = 0; r < 50; ++r) roads.push_back(r);
    OnlineStats err;
    for (int round = 0; round < 20; ++round) {
      auto obs = campaign.Collect(roads, truth);
      TS_CHECK(obs.ok());
      for (const SeedSpeed& s : *obs) err.Add(std::fabs(s.speed_kmh - 40.0));
    }
    return err.mean();
  };
  double err1 = observe_error(1, 11);
  double err7 = observe_error(7, 12);
  EXPECT_LT(err7, err1 * 0.6);
}

TEST(CampaignTest, RejectsOutOfRangeRoads) {
  WorkerPool pool(CleanPoolOptions());
  CrowdCampaign campaign(&pool, {});
  std::vector<double> truth = {30.0};
  EXPECT_FALSE(campaign.Collect({5}, truth).ok());
}

TEST(CampaignTest, NullPoolFailsItsCheck) {
  // The check must fire before the constructor sizes its tracker from the
  // pool; a dereference first would crash without the message.
  EXPECT_DEATH({ CrowdCampaign campaign(nullptr, CampaignOptions{}); },
               "pool != nullptr");
}

}  // namespace
}  // namespace trendspeed
