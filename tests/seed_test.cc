#include <algorithm>
#include <queue>
#include <set>

#include <gtest/gtest.h>

#include "corr/correlation_graph.h"
#include "seed/exact.h"
#include "seed/greedy.h"
#include "seed/heuristics.h"
#include "seed/lazy_greedy.h"
#include "seed/objective.h"
#include "seed/stochastic_greedy.h"
#include "test_util.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::AlternatingHistory;
using testing_util::SmallGrid;

/// Max-Cover embedding: element roads have empty cover lists and sigma 1;
/// set roads cover their elements with influence 1.
InfluenceModel MaxCoverInstance(
    size_t num_elements, const std::vector<std::vector<RoadId>>& sets) {
  size_t n = num_elements + sets.size();
  std::vector<std::vector<CoverEntry>> covers(n);
  std::vector<double> sigma(n, 0.0);
  for (size_t e = 0; e < num_elements; ++e) sigma[e] = 1.0;
  for (size_t s = 0; s < sets.size(); ++s) {
    for (RoadId e : sets[s]) {
      covers[num_elements + s].push_back(CoverEntry{e, 1.0f});
    }
  }
  return InfluenceModel::FromCoverLists(n, std::move(covers),
                                        std::move(sigma));
}

/// Random weighted instance for property checks.
InfluenceModel RandomInstance(size_t n, Rng* rng) {
  std::vector<std::vector<CoverEntry>> covers(n);
  std::vector<double> sigma(n);
  for (size_t i = 0; i < n; ++i) {
    sigma[i] = rng->Uniform(0.1, 2.0);
    covers[i].push_back(CoverEntry{static_cast<RoadId>(i), 1.0f});
    size_t extra = rng->NextIndex(5);
    for (size_t k = 0; k < extra; ++k) {
      covers[i].push_back(
          CoverEntry{static_cast<RoadId>(rng->NextIndex(n)),
                     static_cast<float>(rng->Uniform(0.05, 0.95))});
    }
  }
  return InfluenceModel::FromCoverLists(n, std::move(covers),
                                        std::move(sigma));
}

/// Test-local serial CELF: the initial scan, then one stale re-evaluation
/// per pop, with lower roads winning gain ties. Lazy greedy must follow
/// exactly this schedule at every thread count.
SeedSelectionResult SerialCelf(const InfluenceModel& model, size_t k) {
  struct Entry {
    double gain;
    RoadId road;
    size_t round;
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return road > other.road;
    }
  };
  SeedSelectionResult out;
  ObjectiveState state(&model);
  std::priority_queue<Entry> pq;
  for (RoadId j = 0; j < model.num_roads(); ++j) {
    pq.push(Entry{state.GainOf(j), j, 1});
    ++out.gain_evaluations;
  }
  for (size_t round = 1; round <= k && !pq.empty();) {
    Entry top = pq.top();
    pq.pop();
    if (top.round == round) {
      state.Add(top.road);
      ++round;
      continue;
    }
    top.gain = state.GainOf(top.road);
    top.round = round;
    ++out.gain_evaluations;
    pq.push(top);
  }
  out.seeds = state.seeds();
  out.objective = state.value();
  return out;
}

TEST(ObjectiveTest, ValueMatchesDefinition) {
  // 3 roads; road 2 covers 0 and 1 with weight 0.5; sigmas 1, 2, 4.
  std::vector<std::vector<CoverEntry>> covers(3);
  covers[2] = {{0, 0.5f}, {1, 0.5f}, {2, 1.0f}};
  covers[0] = {{0, 1.0f}};
  covers[1] = {{1, 1.0f}};
  InfluenceModel model =
      InfluenceModel::FromCoverLists(3, std::move(covers), {1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(ObjectiveValue(model, {2}), 0.5 * 1 + 0.5 * 2 + 1.0 * 4);
  EXPECT_DOUBLE_EQ(ObjectiveValue(model, {0}), 1.0);
  // Adding road 0 after 2 upgrades its coverage from 0.5 to 1.0.
  EXPECT_DOUBLE_EQ(ObjectiveValue(model, {2, 0}),
                   ObjectiveValue(model, {2}) + 0.5 * 1.0);
}

TEST(ObjectiveTest, IncrementalStateMatchesScratch) {
  Rng rng(3);
  InfluenceModel model = RandomInstance(40, &rng);
  ObjectiveState state(&model);
  std::vector<RoadId> chosen;
  for (int i = 0; i < 10; ++i) {
    RoadId j = static_cast<RoadId>(rng.NextIndex(40));
    double gain = state.GainOf(j);
    double before = state.value();
    state.Add(j);
    chosen.push_back(j);
    EXPECT_NEAR(state.value(), before + gain, 1e-9);
    EXPECT_NEAR(state.value(), ObjectiveValue(model, chosen), 1e-9);
  }
}

TEST(ObjectiveTest, MonotoneAndSubmodularOnRandomInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    InfluenceModel model = RandomInstance(25, &rng);
    // Random nested sets S ⊂ T and an element j ∉ T.
    std::vector<RoadId> perm(25);
    for (size_t i = 0; i < 25; ++i) perm[i] = static_cast<RoadId>(i);
    rng.Shuffle(&perm);
    size_t s_size = 1 + rng.NextIndex(8);
    size_t t_size = s_size + 1 + rng.NextIndex(8);
    RoadId j = perm[t_size];  // outside both
    ObjectiveState small(&model), large(&model);
    for (size_t i = 0; i < s_size; ++i) small.Add(perm[i]);
    for (size_t i = 0; i < t_size; ++i) large.Add(perm[i]);
    // Monotonicity.
    EXPECT_GE(large.value(), small.value() - 1e-12);
    EXPECT_GE(small.GainOf(j), -1e-12);
    // Submodularity: gain shrinks on the larger set.
    EXPECT_GE(small.GainOf(j), large.GainOf(j) - 1e-12);
  }
}

TEST(GreedyTest, SolvesMaxCoverGreedily) {
  // Elements 0..5; set A covers {0,1,2}, B {2,3}, C {4}, D {3,4,5}.
  InfluenceModel model =
      MaxCoverInstance(6, {{0, 1, 2}, {2, 3}, {4}, {3, 4, 5}});
  auto result = SelectSeedsGreedy(model, 2);
  ASSERT_TRUE(result.ok());
  // Greedy picks A (3 elements) then D (+3): covers everything.
  std::set<RoadId> seeds(result->seeds.begin(), result->seeds.end());
  EXPECT_TRUE(seeds.count(6));  // set A
  EXPECT_TRUE(seeds.count(9));  // set D
  EXPECT_DOUBLE_EQ(result->objective, 6.0);
}

TEST(GreedyTest, RejectsBadK) {
  Rng rng(9);
  InfluenceModel model = RandomInstance(10, &rng);
  EXPECT_FALSE(SelectSeedsGreedy(model, 0).ok());
  EXPECT_FALSE(SelectSeedsGreedy(model, 11).ok());
}

TEST(LazyGreedyTest, MatchesPlainGreedyExactly) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    InfluenceModel model = RandomInstance(60, &rng);
    for (size_t k : {1u, 3u, 8u}) {
      auto plain = SelectSeedsGreedy(model, k);
      auto lazy = SelectSeedsLazyGreedy(model, k);
      ASSERT_TRUE(plain.ok());
      ASSERT_TRUE(lazy.ok());
      EXPECT_NEAR(plain->objective, lazy->objective, 1e-9)
          << "trial " << trial << " k " << k;
      EXPECT_EQ(plain->seeds, lazy->seeds);
    }
  }
}

TEST(LazyGreedyTest, FarFewerEvaluationsThanPlain) {
  Rng rng(13);
  InfluenceModel model = RandomInstance(300, &rng);
  auto plain = SelectSeedsGreedy(model, 20);
  auto lazy = SelectSeedsLazyGreedy(model, 20);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(lazy.ok());
  EXPECT_LT(lazy->gain_evaluations, plain->gain_evaluations / 2);
}

TEST(LazyGreedyTest, SameSeedsAndEvaluationsAtEveryThreadCount) {
  Rng rng(19);
  InfluenceModel model = RandomInstance(3000, &rng);
  const size_t k = 40;
  SeedSelectionResult reference = SerialCelf(model, k);
  for (uint32_t threads : {1u, 2u, 4u}) {
    SeedSelectionOptions opts;
    opts.num_threads = threads;
    auto lazy = SelectSeedsLazyGreedy(model, k, opts);
    ASSERT_TRUE(lazy.ok());
    EXPECT_EQ(lazy->seeds, reference.seeds) << threads << " threads";
    EXPECT_EQ(lazy->gain_evaluations, reference.gain_evaluations)
        << threads << " threads";
    EXPECT_EQ(lazy->objective, reference.objective) << threads << " threads";
  }
}

TEST(StochasticGreedyTest, NearGreedyQuality) {
  Rng rng(17);
  InfluenceModel model = RandomInstance(200, &rng);
  auto plain = SelectSeedsGreedy(model, 15);
  ASSERT_TRUE(plain.ok());
  StochasticGreedyOptions opts;
  opts.epsilon = 0.05;
  auto sto = SelectSeedsStochasticGreedy(model, 15, opts);
  ASSERT_TRUE(sto.ok());
  EXPECT_EQ(sto->seeds.size(), 15u);
  EXPECT_GT(sto->objective, 0.8 * plain->objective);
  EXPECT_FALSE(SelectSeedsStochasticGreedy(model, 15, {1.5, 1}).ok());
}

TEST(StochasticGreedyTest, SeedsAreDistinct) {
  Rng rng(19);
  InfluenceModel model = RandomInstance(50, &rng);
  auto sto = SelectSeedsStochasticGreedy(model, 20);
  ASSERT_TRUE(sto.ok());
  std::set<RoadId> uniq(sto->seeds.begin(), sto->seeds.end());
  EXPECT_EQ(uniq.size(), 20u);
}

TEST(ExactTest, OptimalOnMaxCover) {
  // Greedy is suboptimal here: elements {0..3}; A={0,1}, B={1,2,3}, C={0},
  // D={2,3}. Optimum of size 2 is {A, D} (4) or {B, C} (4); greedy picks B
  // first (3) then A (+1) = 4 too — craft a harder one:
  // A={0,1,2} (3), B={0,1}, C={2,3}, D={4,5}, E={3,4,5}.
  // Greedy: A(3) then E(+3)=6 -> optimal anyway. Verify exact >= greedy on
  // random instances instead, plus equality of value on this instance.
  InfluenceModel model =
      MaxCoverInstance(6, {{0, 1, 2}, {0, 1}, {2, 3}, {4, 5}, {3, 4, 5}});
  auto exact = SelectSeedsExact(model, 2);
  auto greedy = SelectSeedsGreedy(model, 2);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(exact->objective, greedy->objective - 1e-12);
  EXPECT_DOUBLE_EQ(exact->objective, 6.0);
}

TEST(ExactTest, GreedyWithinOneMinusOneOverE) {
  Rng rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    InfluenceModel model = RandomInstance(14, &rng);
    for (size_t k : {2u, 4u}) {
      auto exact = SelectSeedsExact(model, k);
      auto greedy = SelectSeedsGreedy(model, k);
      ASSERT_TRUE(exact.ok());
      ASSERT_TRUE(greedy.ok());
      EXPECT_GE(exact->objective, greedy->objective - 1e-9);
      EXPECT_GE(greedy->objective, (1.0 - 1.0 / M_E) * exact->objective - 1e-9)
          << "approximation guarantee violated, trial " << trial;
    }
  }
}

TEST(ExactTest, RejectsLargeInstances) {
  Rng rng(29);
  InfluenceModel model = RandomInstance(kMaxExactCandidates + 1, &rng);
  EXPECT_FALSE(SelectSeedsExact(model, 2).ok());
}

TEST(HeuristicsTest, AllReturnDistinctSeedsOfSizeK) {
  RoadNetwork net = SmallGrid();
  HistoricalDb db = AlternatingHistory(net);
  CorrelationGraphOptions copts;
  copts.min_co_observed = 10;
  auto graph = CorrelationGraph::Build(net, db, copts);
  ASSERT_TRUE(graph.ok());
  auto influence = InfluenceModel::Build(*graph, db, {});
  ASSERT_TRUE(influence.ok());
  const size_t k = 6;
  std::vector<Result<SeedSelectionResult>> results;
  results.push_back(SelectSeedsRandom(*influence, k, 1));
  results.push_back(SelectSeedsTopDegree(*influence, *graph, k));
  results.push_back(SelectSeedsTopVariance(*influence, k));
  results.push_back(SelectSeedsPageRank(*influence, *graph, k));
  results.push_back(SelectSeedsKCenter(*influence, *graph, k, 1));
  for (auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->seeds.size(), k);
    std::set<RoadId> uniq(r->seeds.begin(), r->seeds.end());
    EXPECT_EQ(uniq.size(), k);
    EXPECT_GE(r->objective, 0.0);
  }
}

TEST(HeuristicsTest, GreedyBeatsRandomOnInfluence) {
  RoadNetwork net = SmallGrid();
  HistoricalDb db = AlternatingHistory(net);
  CorrelationGraphOptions copts;
  copts.min_co_observed = 10;
  auto graph = CorrelationGraph::Build(net, db, copts);
  ASSERT_TRUE(graph.ok());
  auto influence = InfluenceModel::Build(*graph, db, {});
  ASSERT_TRUE(influence.ok());
  auto greedy = SelectSeedsGreedy(*influence, 5);
  ASSERT_TRUE(greedy.ok());
  double random_avg = 0.0;
  for (uint64_t s = 0; s < 10; ++s) {
    auto r = SelectSeedsRandom(*influence, 5, s);
    ASSERT_TRUE(r.ok());
    random_avg += r->objective;
  }
  random_avg /= 10.0;
  EXPECT_GT(greedy->objective, random_avg);
}

TEST(InfluenceModelTest, BuildsSelfCoverAndDecays) {
  RoadNetwork net = SmallGrid();
  HistoricalDb db = AlternatingHistory(net);
  CorrelationGraphOptions copts;
  copts.min_co_observed = 10;
  auto graph = CorrelationGraph::Build(net, db, copts);
  ASSERT_TRUE(graph.ok());
  InfluenceOptions iopts;
  iopts.max_hops = 2;
  auto influence = InfluenceModel::Build(*graph, db, iopts);
  ASSERT_TRUE(influence.ok());
  for (RoadId j = 0; j < influence->num_roads(); ++j) {
    bool self = false;
    for (const CoverEntry& c : influence->CoverList(j)) {
      EXPECT_GE(c.influence, iopts.min_influence);
      EXPECT_LE(c.influence, 1.0f);
      if (c.road == j) {
        self = true;
        EXPECT_FLOAT_EQ(c.influence, 1.0f);
      }
    }
    EXPECT_TRUE(self) << "road " << j << " does not cover itself";
  }
  EXPECT_GT(influence->AverageCoverSize(), 1.0);
  // Larger horizon -> no smaller covers.
  InfluenceOptions wide = iopts;
  wide.max_hops = 4;
  auto influence2 = InfluenceModel::Build(*graph, db, wide);
  ASSERT_TRUE(influence2.ok());
  EXPECT_GE(influence2->AverageCoverSize(), influence->AverageCoverSize());
}

}  // namespace
}  // namespace trendspeed
