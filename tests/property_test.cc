// Parameterized property-style suites sweeping configurations and random
// instances for the library's key invariants.

#include <cmath>

#include <gtest/gtest.h>

#include "seed/greedy.h"
#include "seed/lazy_greedy.h"
#include "seed/objective.h"
#include "test_util.h"
#include "trend/belief_propagation.h"
#include "trend/exact.h"
#include "trend/factor_graph.h"
#include "trend/gibbs.h"
#include "util/random.h"
#include "util/stats.h"

namespace trendspeed {
namespace {

// ---------------------------------------------------------------------------
// BP is exact on random trees of any shape and coupling strength.
// ---------------------------------------------------------------------------

struct TreeCase {
  size_t num_vars;
  double coupling;  // psi(same); psi(diff) = 1/coupling
  uint64_t seed;
};

class BpTreeExactness : public ::testing::TestWithParam<TreeCase> {};

TEST_P(BpTreeExactness, MatchesEnumeration) {
  TreeCase param = GetParam();
  Rng rng(param.seed);
  PairwiseMrf mrf(param.num_vars);
  for (size_t v = 0; v < param.num_vars; ++v) {
    mrf.SetPriorUp(v, rng.Uniform(0.1, 0.9));
  }
  // Random tree: each node v > 0 attaches to a random earlier node.
  for (size_t v = 1; v < param.num_vars; ++v) {
    size_t parent = rng.NextIndex(v);
    double s = param.coupling * rng.Uniform(0.8, 1.2);
    double compat[2][2] = {{s, 1.0 / s}, {1.0 / s, s}};
    mrf.AddEdge(parent, v, compat);
  }
  // Clamp one random variable.
  mrf.Clamp(rng.NextIndex(param.num_vars), rng.NextBool(0.5) ? 1 : 0);
  auto exact = InferMarginalsExact(mrf);
  ASSERT_TRUE(exact.ok());
  BpOptions opts;
  opts.max_iters = 200;
  opts.damping = 0.0;  // trees need no damping
  BpResult bp = InferMarginalsBp(mrf, opts);
  for (size_t v = 0; v < param.num_vars; ++v) {
    EXPECT_NEAR(bp.p_up[v], (*exact)[v], 1e-5) << "var " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BpTreeExactness,
    ::testing::Values(TreeCase{4, 1.5, 1}, TreeCase{8, 2.0, 2},
                      TreeCase{12, 3.0, 3}, TreeCase{16, 1.2, 4},
                      TreeCase{16, 5.0, 5}, TreeCase{20, 2.5, 6},
                      TreeCase{10, 8.0, 7}, TreeCase{6, 1.05, 8}));

// ---------------------------------------------------------------------------
// Gibbs converges to exact marginals as sample count grows.
// ---------------------------------------------------------------------------

class GibbsConvergence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GibbsConvergence, ErrorShrinksWithMoreSamples) {
  Rng rng(GetParam());
  PairwiseMrf mrf(8);
  for (size_t v = 0; v < 8; ++v) mrf.SetPriorUp(v, rng.Uniform(0.25, 0.75));
  for (size_t u = 0; u < 8; ++u) {
    for (size_t v = u + 1; v < 8; ++v) {
      if (!rng.NextBool(0.3)) continue;
      double s = rng.Uniform(1.2, 2.5);
      double compat[2][2] = {{s, 1.0 / s}, {1.0 / s, s}};
      mrf.AddEdge(u, v, compat);
    }
  }
  auto exact = InferMarginalsExact(mrf);
  ASSERT_TRUE(exact.ok());
  auto max_err = [&](uint32_t sweeps) {
    GibbsOptions opts;
    opts.burn_in_sweeps = 200;
    opts.sample_sweeps = sweeps;
    opts.seed = GetParam() * 31 + 7;
    GibbsResult g = InferMarginalsGibbs(mrf, opts);
    double err = 0.0;
    for (size_t v = 0; v < 8; ++v) {
      err = std::max(err, std::fabs(g.p_up[v] - (*exact)[v]));
    }
    return err;
  };
  EXPECT_LT(max_err(8000), 0.06);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GibbsConvergence,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Greedy == lazy greedy across instance sizes and K.
// ---------------------------------------------------------------------------

struct GreedyCase {
  size_t n;
  size_t k;
  uint64_t seed;
};

class GreedyEquivalence : public ::testing::TestWithParam<GreedyCase> {};

InfluenceModel RandomInstance(size_t n, Rng* rng) {
  std::vector<std::vector<CoverEntry>> covers(n);
  std::vector<double> sigma(n);
  for (size_t i = 0; i < n; ++i) {
    sigma[i] = rng->Uniform(0.05, 3.0);
    covers[i].push_back(CoverEntry{static_cast<RoadId>(i), 1.0f});
    size_t extra = rng->NextIndex(8);
    for (size_t e = 0; e < extra; ++e) {
      covers[i].push_back(
          CoverEntry{static_cast<RoadId>(rng->NextIndex(n)),
                     static_cast<float>(rng->Uniform(0.02, 0.98))});
    }
  }
  return InfluenceModel::FromCoverLists(n, std::move(covers), std::move(sigma));
}

TEST_P(GreedyEquivalence, SameSeedsAndObjective) {
  GreedyCase param = GetParam();
  Rng rng(param.seed);
  InfluenceModel model = RandomInstance(param.n, &rng);
  auto plain = SelectSeedsGreedy(model, param.k);
  auto lazy = SelectSeedsLazyGreedy(model, param.k);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(plain->seeds, lazy->seeds);
  EXPECT_NEAR(plain->objective, lazy->objective, 1e-9);
  // Objective is reported consistently with a scratch evaluation.
  EXPECT_NEAR(plain->objective, ObjectiveValue(model, plain->seeds), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyEquivalence,
    ::testing::Values(GreedyCase{10, 2, 1}, GreedyCase{50, 5, 2},
                      GreedyCase{50, 25, 3}, GreedyCase{120, 10, 4},
                      GreedyCase{120, 40, 5}, GreedyCase{250, 12, 6},
                      GreedyCase{33, 33, 7}));

// ---------------------------------------------------------------------------
// Greedy objective is monotone in K (diminishing but non-negative returns).
// ---------------------------------------------------------------------------

class GreedyMonotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GreedyMonotonicity, ValueRisesGainsFall) {
  Rng rng(GetParam());
  InfluenceModel model = RandomInstance(80, &rng);
  ObjectiveState state(&model);
  double prev_value = 0.0;
  double prev_gain = 1e18;
  for (size_t round = 0; round < 20; ++round) {
    double best_gain = -1.0;
    RoadId best = kInvalidRoad;
    for (RoadId j = 0; j < 80; ++j) {
      double gain = state.GainOf(j);
      if (gain > best_gain) {
        best_gain = gain;
        best = j;
      }
    }
    state.Add(best);
    EXPECT_GE(state.value(), prev_value - 1e-12);
    EXPECT_LE(best_gain, prev_gain + 1e-9)
        << "greedy gains must be non-increasing";
    prev_value = state.value();
    prev_gain = best_gain;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GreedyMonotonicity,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Metrics invariants under random prediction/truth pairs.
// ---------------------------------------------------------------------------

class MetricsInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsInvariants, Hold) {
  Rng rng(GetParam());
  size_t n = 50 + rng.NextIndex(200);
  std::vector<double> truth(n), pred(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = rng.Uniform(5.0, 100.0);
    pred[i] = std::max(0.5, truth[i] + rng.Gaussian(0.0, 8.0));
  }
  SpeedMetrics m = ComputeSpeedMetrics(pred, truth, 0.2);
  EXPECT_EQ(m.count, n);
  EXPECT_GE(m.rmse, m.mae);          // Jensen
  EXPECT_GE(m.mae, 0.0);
  EXPECT_GE(m.error_rate, 0.0);
  EXPECT_LE(m.error_rate, 1.0);
  // Scaling both truth and prediction leaves MAPE and error rate unchanged.
  std::vector<double> truth2(n), pred2(n);
  for (size_t i = 0; i < n; ++i) {
    truth2[i] = truth[i] * 3.0;
    pred2[i] = pred[i] * 3.0;
  }
  SpeedMetrics m2 = ComputeSpeedMetrics(pred2, truth2, 0.2);
  EXPECT_NEAR(m2.mape, m.mape, 1e-12);
  EXPECT_NEAR(m2.error_rate, m.error_rate, 1e-12);
  EXPECT_NEAR(m2.mae, 3.0 * m.mae, 1e-9);
  // Identical prediction is a fixed point.
  SpeedMetrics zero = ComputeSpeedMetrics(truth, truth, 0.2);
  EXPECT_DOUBLE_EQ(zero.mae, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MetricsInvariants,
                         ::testing::Values(7, 17, 27, 37, 47, 57));

// ---------------------------------------------------------------------------
// Historical DB: averaging and bucket means are order-independent.
// ---------------------------------------------------------------------------

class HistoryOrderIndependence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoryOrderIndependence, ShuffledInsertsGiveSameDb) {
  Rng rng(GetParam());
  struct Rec {
    RoadId road;
    uint64_t slot;
    double speed;
  };
  std::vector<Rec> recs;
  for (int i = 0; i < 500; ++i) {
    recs.push_back(Rec{static_cast<RoadId>(rng.NextIndex(5)),
                       rng.NextIndex(288), rng.Uniform(10.0, 80.0)});
  }
  HistoricalDb::Builder b1(5, 288, 144);
  for (const Rec& r : recs) b1.Add(r.road, r.slot, r.speed);
  HistoricalDb db1 = b1.Finish();
  rng.Shuffle(&recs);
  HistoricalDb::Builder b2(5, 288, 144);
  for (const Rec& r : recs) b2.Add(r.road, r.slot, r.speed);
  HistoricalDb db2 = b2.Finish();
  for (RoadId road = 0; road < 5; ++road) {
    EXPECT_EQ(db1.CoverageCount(road), db2.CoverageCount(road));
    for (uint64_t slot = 0; slot < 288; ++slot) {
      ASSERT_EQ(db1.HasObservation(road, slot),
                db2.HasObservation(road, slot));
      if (db1.HasObservation(road, slot)) {
        EXPECT_NEAR(db1.Observation(road, slot), db2.Observation(road, slot),
                    1e-3);
      }
      EXPECT_NEAR(db1.HistoricalMeanOr(road, slot, 1.0),
                  db2.HistoricalMeanOr(road, slot, 1.0), 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HistoryOrderIndependence,
                         ::testing::Values(3, 13, 23));

}  // namespace
}  // namespace trendspeed
