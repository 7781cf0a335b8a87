#include <cmath>

#include <gtest/gtest.h>

#include "corr/correlation_graph.h"
#include "test_util.h"
#include "trend/belief_propagation.h"
#include "trend/exact.h"
#include "trend/factor_graph.h"
#include "trend/gibbs.h"
#include "trend/icm.h"
#include "trend/trend_model.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::AlternatingHistory;
using testing_util::SmallGrid;

// Attractive coupling table: psi(same) = s, psi(diff) = 1/s.
void Attractive(double s, double out[2][2]) {
  out[0][0] = out[1][1] = s;
  out[0][1] = out[1][0] = 1.0 / s;
}

// Random small MRF for cross-engine comparisons.
PairwiseMrf RandomMrf(size_t n, double edge_prob, Rng* rng) {
  PairwiseMrf mrf(n);
  for (size_t v = 0; v < n; ++v) {
    mrf.SetPriorUp(v, rng->Uniform(0.2, 0.8));
  }
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = u + 1; v < n; ++v) {
      if (!rng->NextBool(edge_prob)) continue;
      double compat[2][2];
      Attractive(rng->Uniform(1.2, 3.0), compat);
      mrf.AddEdge(u, v, compat);
    }
  }
  return mrf;
}

TEST(PairwiseMrfTest, PotentialAndEvidence) {
  PairwiseMrf mrf(3);
  mrf.SetPriorUp(0, 0.7);
  EXPECT_NEAR(mrf.NodePotential(0, 1), 0.7, 1e-6);
  EXPECT_NEAR(mrf.NodePotential(0, 0), 0.3, 1e-6);
  EXPECT_FALSE(mrf.IsClamped(0));
  mrf.Clamp(0, 1);
  EXPECT_TRUE(mrf.IsClamped(0));
  EXPECT_EQ(mrf.ClampedState(0), 1);
  EXPECT_DOUBLE_EQ(mrf.EffectivePotential(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(mrf.EffectivePotential(0, 1), 1.0);
  EXPECT_EQ(mrf.num_clamped(), 1u);
  mrf.ClearEvidence();
  EXPECT_EQ(mrf.num_clamped(), 0u);
  EXPECT_FALSE(mrf.IsClamped(0));
}

TEST(PairwiseMrfTest, PriorClipping) {
  PairwiseMrf mrf(1);
  mrf.SetPriorUp(0, 0.0);
  EXPECT_GT(mrf.NodePotential(0, 1), 0.0);
  mrf.SetPriorUp(0, 1.0);
  EXPECT_GT(mrf.NodePotential(0, 0), 0.0);
}

TEST(PairwiseMrfTest, LogScoreMatchesHandComputation) {
  PairwiseMrf mrf(2);
  mrf.SetNodePotential(0, 0.4, 0.6);
  mrf.SetNodePotential(1, 0.5, 0.5);
  double compat[2][2];
  Attractive(2.0, compat);
  mrf.AddEdge(0, 1, compat);
  // State (1, 1): phi0(1)*phi1(1)*psi(1,1) = 0.6*0.5*2. Potentials are
  // stored as floats, hence the loose tolerance.
  EXPECT_NEAR(mrf.LogScore({1, 1}), std::log(0.6 * 0.5 * 2.0), 1e-6);
  // State (1, 0): 0.6*0.5*0.5.
  EXPECT_NEAR(mrf.LogScore({1, 0}), std::log(0.6 * 0.5 * 0.5), 1e-6);
  mrf.Clamp(0, 1);
  EXPECT_LT(mrf.LogScore({0, 1}), -1e200);  // violates evidence
}

TEST(ExactTest, SingleNodeMatchesPrior) {
  PairwiseMrf mrf(1);
  mrf.SetPriorUp(0, 0.7);
  auto p = InferMarginalsExact(mrf);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR((*p)[0], 0.7, 1e-6);
}

TEST(ExactTest, TwoNodeCoupling) {
  PairwiseMrf mrf(2);
  mrf.SetPriorUp(0, 0.5);
  mrf.SetPriorUp(1, 0.5);
  double compat[2][2];
  Attractive(3.0, compat);
  mrf.AddEdge(0, 1, compat);
  mrf.Clamp(0, 1);
  auto p = InferMarginalsExact(mrf);
  ASSERT_TRUE(p.ok());
  // P(x1 = up | x0 = up) = 3 / (3 + 1/3) = 0.9.
  EXPECT_NEAR((*p)[1], 0.9, 1e-6);
  EXPECT_DOUBLE_EQ((*p)[0], 1.0);
}

TEST(ExactTest, RejectsTooManyVariables) {
  PairwiseMrf mrf(kMaxExactVars + 1);
  EXPECT_FALSE(InferMarginalsExact(mrf).ok());
}

TEST(BpTest, ExactOnTrees) {
  // Chain of 6 with random priors/couplings: BP must match enumeration.
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    PairwiseMrf mrf(6);
    for (size_t v = 0; v < 6; ++v) mrf.SetPriorUp(v, rng.Uniform(0.1, 0.9));
    for (size_t v = 0; v + 1 < 6; ++v) {
      double compat[2][2];
      Attractive(rng.Uniform(1.1, 4.0), compat);
      mrf.AddEdge(v, v + 1, compat);
    }
    mrf.Clamp(0, trial % 2);
    auto exact = InferMarginalsExact(mrf);
    ASSERT_TRUE(exact.ok());
    BpOptions full;
    full.max_iters = 200;
    full.damping = 0.0;
    BpResult bp = InferMarginalsBp(mrf, full);
    for (size_t v = 0; v < 6; ++v) {
      EXPECT_NEAR(bp.p_up[v], (*exact)[v], 1e-4) << "trial " << trial
                                                 << " var " << v;
    }
  }
}

TEST(BpTest, UsefulOnLoopyGraphs) {
  // Loopy BP is approximate and over-confident on dense attractive loops;
  // what matters downstream is that it lands on the right side of 0.5 for
  // every marginal the exact posterior is confident about, and stays within
  // a coarse band elsewhere.
  Rng rng(7);
  size_t confident = 0, agree = 0;
  for (int trial = 0; trial < 8; ++trial) {
    PairwiseMrf mrf = RandomMrf(10, 0.3, &rng);
    mrf.Clamp(0, 1);
    auto exact = InferMarginalsExact(mrf);
    ASSERT_TRUE(exact.ok());
    // Six sweeps reach across the 10-variable graphs this test compares
    // with the exact posterior; the served default is truncated shorter.
    BpOptions opts;
    opts.max_iters = 6;
    BpResult bp = InferMarginalsBp(mrf, opts);
    for (size_t v = 0; v < 10; ++v) {
      EXPECT_NEAR(bp.p_up[v], (*exact)[v], 0.35) << "trial " << trial;
      if (std::fabs((*exact)[v] - 0.5) > 0.2) {
        ++confident;
        if ((bp.p_up[v] >= 0.5) == ((*exact)[v] >= 0.5)) ++agree;
      }
    }
  }
  ASSERT_GT(confident, 20u);
  EXPECT_GT(static_cast<double>(agree) / confident, 0.95);
}

TEST(BpTest, ClampedNodesReportHardMarginals) {
  Rng rng(9);
  PairwiseMrf mrf = RandomMrf(8, 0.4, &rng);
  mrf.Clamp(2, 0);
  mrf.Clamp(5, 1);
  BpResult bp = InferMarginalsBp(mrf);
  EXPECT_DOUBLE_EQ(bp.p_up[2], 0.0);
  EXPECT_DOUBLE_EQ(bp.p_up[5], 1.0);
}

TEST(BpTest, IsolatedNodeKeepsPrior) {
  PairwiseMrf mrf(2);
  mrf.SetPriorUp(0, 0.8);
  mrf.SetPriorUp(1, 0.3);
  BpResult bp = InferMarginalsBp(mrf);
  EXPECT_NEAR(bp.p_up[0], 0.8, 1e-6);
  EXPECT_NEAR(bp.p_up[1], 0.3, 1e-6);
}

TEST(BpTest, EvidencePropagatesAlongChain) {
  // Strongly coupled chain, uniform priors: clamping one end pulls all.
  PairwiseMrf mrf(5);
  for (size_t v = 0; v < 5; ++v) mrf.SetPriorUp(v, 0.5);
  double compat[2][2];
  Attractive(4.0, compat);
  for (size_t v = 0; v + 1 < 5; ++v) mrf.AddEdge(v, v + 1, compat);
  mrf.Clamp(0, 1);
  // Enough sweeps to reach the far end of the 5-variable chain.
  BpOptions opts;
  opts.max_iters = 6;
  BpResult bp = InferMarginalsBp(mrf, opts);
  double prev = 1.0;
  for (size_t v = 1; v < 5; ++v) {
    EXPECT_GT(bp.p_up[v], 0.5);
    EXPECT_LE(bp.p_up[v], prev + 1e-9);  // influence decays with distance
    prev = bp.p_up[v];
  }
}

// BP is a fixed truncated schedule: after S sweeps a road's marginal has
// heard from roads at most S hops away and from nothing farther. A chain
// clamped up at one end, with uniform potentials and a symmetric coupling
// elsewhere, shows exactly that front: roads within S hops lean up, every
// road beyond reads exactly 0.5 (its messages are all still uniform). The
// coupling {{3, 1}, {1, 3}} keeps a uniform message exactly uniform in the
// SIMD kernel's float arithmetic too. The chain is long enough for the
// parallel sweep path at 4 threads.
TEST(BpTest, TruncatedScheduleReachesExactlySHops) {
  const size_t n = 5000;
  PairwiseMrf mrf(n);
  double compat[2][2] = {{3.0, 1.0}, {1.0, 3.0}};
  for (size_t v = 0; v + 1 < n; ++v) mrf.AddEdge(v, v + 1, compat);
  BpGraph graph = BpGraph::FromMrf(mrf);
  std::vector<double> pot(2 * n, 0.5);
  pot[0] = 0.0;  // road 0 clamped up
  pot[1] = 1.0;
  const uint32_t s = BpOptions{}.max_iters;
  ASSERT_LT(s, n - 1);
  for (auto infer : {InferMarginalsBpScalar, InferMarginalsBpFlat}) {
    for (uint32_t threads : {1u, 4u}) {
      BpOptions opts;
      opts.num_threads = threads;
      BpResult r = infer(graph, pot, opts);
      ASSERT_EQ(r.p_up.size(), n);
      EXPECT_EQ(r.message_updates, uint64_t{s} * 2 * (n - 1));
      EXPECT_EQ(r.p_up[0], 1.0);
      for (size_t hop = 1; hop < n; ++hop) {
        if (hop <= s) {
          EXPECT_GT(r.p_up[hop], 0.5) << "hop " << hop << ", " << threads
                                      << " threads";
        } else {
          ASSERT_EQ(r.p_up[hop], 0.5) << "hop " << hop << ", " << threads
                                      << " threads";
        }
      }
    }
  }
}

TEST(GibbsTest, MatchesExactOnSmallGraphs) {
  Rng rng(11);
  PairwiseMrf mrf = RandomMrf(8, 0.35, &rng);
  mrf.Clamp(1, 1);
  auto exact = InferMarginalsExact(mrf);
  ASSERT_TRUE(exact.ok());
  GibbsOptions opts;
  opts.burn_in_sweeps = 500;
  opts.sample_sweeps = 6000;
  GibbsResult gibbs = InferMarginalsGibbs(mrf, opts);
  for (size_t v = 0; v < 8; ++v) {
    EXPECT_NEAR(gibbs.p_up[v], (*exact)[v], 0.05) << "var " << v;
  }
}

TEST(GibbsTest, RespectsClamps) {
  Rng rng(13);
  PairwiseMrf mrf = RandomMrf(6, 0.4, &rng);
  mrf.Clamp(0, 0);
  GibbsResult gibbs = InferMarginalsGibbs(mrf);
  EXPECT_DOUBLE_EQ(gibbs.p_up[0], 0.0);
}

TEST(IcmTest, ConvergesToLocalOptimum) {
  Rng rng(17);
  PairwiseMrf mrf = RandomMrf(12, 0.3, &rng);
  mrf.Clamp(0, 1);
  IcmResult icm = InferMapIcm(mrf);
  EXPECT_TRUE(icm.converged);
  EXPECT_EQ(icm.state[0], 1);
  // Local optimality: flipping any single free variable cannot raise the
  // joint score.
  double base = mrf.LogScore(icm.state);
  for (size_t v = 1; v < 12; ++v) {
    std::vector<int> flipped = icm.state;
    flipped[v] = 1 - flipped[v];
    EXPECT_LE(mrf.LogScore(flipped), base + 1e-9) << "var " << v;
  }
}

TEST(TrendModelTest, SeedsDriveNeighbourTrends) {
  RoadNetwork net = SmallGrid();
  HistoricalDb db = AlternatingHistory(net);
  CorrelationGraphOptions copts;
  copts.min_co_observed = 10;
  auto graph = CorrelationGraph::Build(net, db, copts);
  ASSERT_TRUE(graph.ok());
  TrendModelOptions topts;
  TrendModel model(&*graph, &db, topts);
  // Clamp several spread-out seeds to "down" — since co-trend history is
  // perfectly aligned, inferred trends should go down around them.
  std::vector<SeedTrend> seeds = {{0, -1}, {10, -1}, {20, -1}};
  auto est = model.Infer(/*slot=*/3, seeds);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->HardTrend(0), -1);
  size_t down = 0;
  for (size_t v = 0; v < est->p_up.size(); ++v) {
    if (est->HardTrend(v) == -1) ++down;
  }
  EXPECT_GT(down, net.num_roads() / 2);
}

TEST(TrendModelTest, AllEnginesAgreeOnStrongEvidence) {
  RoadNetwork net = SmallGrid();
  HistoricalDb db = AlternatingHistory(net);
  CorrelationGraphOptions copts;
  copts.min_co_observed = 10;
  auto graph = CorrelationGraph::Build(net, db, copts);
  ASSERT_TRUE(graph.ok());
  std::vector<SeedTrend> seeds = {{0, +1}, {5, +1}, {15, +1}, {30, +1}};
  std::vector<int> reference;
  for (TrendEngine engine : {TrendEngine::kBeliefPropagation,
                             TrendEngine::kGibbs, TrendEngine::kIcm}) {
    TrendModelOptions topts;
    topts.engine = engine;
    TrendModel model(&*graph, &db, topts);
    auto est = model.Infer(2, seeds);
    ASSERT_TRUE(est.ok());
    if (reference.empty()) {
      for (size_t v = 0; v < est->p_up.size(); ++v) {
        reference.push_back(est->HardTrend(v));
      }
    } else {
      size_t agree = 0;
      for (size_t v = 0; v < reference.size(); ++v) {
        if (reference[v] == est->HardTrend(v)) ++agree;
      }
      EXPECT_GT(static_cast<double>(agree) / reference.size(), 0.9)
          << TrendEngineName(engine);
    }
  }
}

TEST(TrendModelTest, RejectsBadSeeds) {
  RoadNetwork net = SmallGrid();
  HistoricalDb db = AlternatingHistory(net);
  auto graph = CorrelationGraph::Build(net, db, {});
  ASSERT_TRUE(graph.ok());
  TrendModel model(&*graph, &db, {});
  EXPECT_FALSE(model.Infer(0, {{9999, 1}}).ok());
  EXPECT_FALSE(model.Infer(0, {{0, 2}}).ok());
}

TEST(TrendModelTest, PriorOnlyIgnoresGraph) {
  RoadNetwork net = SmallGrid();
  HistoricalDb db = AlternatingHistory(net);
  auto graph = CorrelationGraph::Build(net, db, {});
  ASSERT_TRUE(graph.ok());
  TrendModelOptions topts;
  topts.engine = TrendEngine::kPriorOnly;
  TrendModel model(&*graph, &db, topts);
  auto est = model.Infer(2, {{0, -1}});
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->HardTrend(0), -1);  // the clamp itself
  // Non-seed roads follow the historical prior: slot 2 is an "up" slot in
  // the alternating history.
  EXPECT_EQ(est->HardTrend(5), +1);
}

}  // namespace
}  // namespace trendspeed
