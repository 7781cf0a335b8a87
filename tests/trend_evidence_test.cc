// Tests for soft deviation evidence in the trend MRF and the flattened BP
// fast path.

#include <cmath>

#include <gtest/gtest.h>

#include "corr/correlation_graph.h"
#include "test_util.h"
#include "trend/belief_propagation.h"
#include "trend/factor_graph.h"
#include "trend/trend_model.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::AlternatingHistory;
using testing_util::SmallGrid;

TEST(BpFlatTest, MatchesWrapperOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    PairwiseMrf mrf(12);
    for (size_t v = 0; v < 12; ++v) mrf.SetPriorUp(v, rng.Uniform(0.2, 0.8));
    for (size_t u = 0; u < 12; ++u) {
      for (size_t v = u + 1; v < 12; ++v) {
        if (!rng.NextBool(0.25)) continue;
        double s = rng.Uniform(1.2, 2.5);
        double compat[2][2] = {{s, 1.0 / s}, {1.0 / s, s}};
        mrf.AddEdge(u, v, compat);
      }
    }
    mrf.Clamp(0, 1);
    // The wrapper builds the flat graph internally; verify an explicitly
    // built flat graph + potentials produce the same marginals.
    BpGraph graph = BpGraph::FromMrf(mrf);
    std::vector<double> pot(24);
    for (size_t v = 0; v < 12; ++v) {
      pot[2 * v] = mrf.EffectivePotential(v, 0);
      pot[2 * v + 1] = mrf.EffectivePotential(v, 1);
    }
    BpResult a = InferMarginalsBp(mrf);
    BpResult b = InferMarginalsBpFlat(graph, pot);
    ASSERT_EQ(a.p_up.size(), b.p_up.size());
    for (size_t v = 0; v < 12; ++v) {
      EXPECT_NEAR(a.p_up[v], b.p_up[v], 1e-12);
    }
  }
}

TEST(BpFlatTest, HardPotentialsActAsClamps) {
  PairwiseMrf mrf(3);
  double compat[2][2] = {{2.0, 0.5}, {0.5, 2.0}};
  mrf.AddEdge(0, 1, compat);
  mrf.AddEdge(1, 2, compat);
  BpGraph graph = BpGraph::FromMrf(mrf);
  std::vector<double> pot = {0.0, 1.0, 0.5, 0.5, 0.5, 0.5};  // var 0 hard up
  // Var 2 is two hops from the clamp: run enough sweeps to reach it.
  BpOptions opts;
  opts.max_iters = 6;
  BpResult r = InferMarginalsBpFlat(graph, pot, opts);
  EXPECT_DOUBLE_EQ(r.p_up[0], 1.0);
  EXPECT_GT(r.p_up[1], 0.5);
  EXPECT_GT(r.p_up[2], 0.5);
}

class EvidenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = SmallGrid();
    db_ = AlternatingHistory(net_);
    CorrelationGraphOptions copts;
    copts.min_co_observed = 10;
    auto graph = CorrelationGraph::Build(net_, db_, copts);
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<CorrelationGraph>(std::move(graph).value());
  }

  RoadNetwork net_;
  HistoricalDb db_;
  std::unique_ptr<CorrelationGraph> graph_;
};

TEST_F(EvidenceTest, PositiveEvidencePushesTrendUp) {
  TrendModel model(&*graph_, &db_, {});
  std::vector<double> evidence(net_.num_roads(), 3.0);  // strong "up"
  auto with = model.Infer(3, {}, &evidence);
  auto without = model.Infer(3, {});
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  for (RoadId r = 0; r < net_.num_roads(); ++r) {
    EXPECT_GT(with->p_up[r], without->p_up[r]) << "road " << r;
    EXPECT_GT(with->p_up[r], 0.5);
  }
}

TEST_F(EvidenceTest, EvidenceIsClampedToSaneOdds) {
  // Potentials-only engine exposes the node beliefs directly: even infinite
  // evidence log-odds must be clamped before entering the potential.
  TrendModelOptions topts;
  topts.engine = TrendEngine::kPriorOnly;
  TrendModel model(&*graph_, &db_, topts);
  std::vector<double> extreme(net_.num_roads(), 1e9);
  auto est = model.Infer(3, {}, &extreme);
  ASSERT_TRUE(est.ok());
  for (double p : est->p_up) {
    EXPECT_LE(p, 0.981);  // soft evidence never reaches certainty
  }
}

TEST_F(EvidenceTest, EvidenceIgnoredOnSeeds) {
  TrendModel model(&*graph_, &db_, {});
  std::vector<double> evidence(net_.num_roads(), 4.0);  // says "up"
  auto est = model.Infer(3, {{0, -1}}, &evidence);  // seed says "down"
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->HardTrend(0), -1);
  EXPECT_DOUBLE_EQ(est->p_up[0], 0.0);
}

TEST_F(EvidenceTest, RejectsWrongSizeEvidence) {
  TrendModel model(&*graph_, &db_, {});
  std::vector<double> bad(3, 0.0);
  EXPECT_FALSE(model.Infer(3, {}, &bad).ok());
}

TEST_F(EvidenceTest, PriorOnlyEngineUsesEvidence) {
  TrendModelOptions topts;
  topts.engine = TrendEngine::kPriorOnly;
  TrendModel model(&*graph_, &db_, topts);
  std::vector<double> evidence(net_.num_roads(), 0.0);
  evidence[5] = -3.0;
  auto est = model.Infer(2, {}, &evidence);
  ASSERT_TRUE(est.ok());
  // Slot 2 is an "up"-leaning slot; the strong negative evidence overrides.
  EXPECT_EQ(est->HardTrend(5), -1);
}

TEST_F(EvidenceTest, TemperedEdgesWeakerThanFull) {
  TrendModelOptions strong;
  strong.edge_compat_power = 1.0;
  TrendModelOptions weak;
  weak.edge_compat_power = 0.1;
  TrendModel m_strong(&*graph_, &db_, strong);
  TrendModel m_weak(&*graph_, &db_, weak);
  auto s = m_strong.Infer(3, {{0, -1}});
  auto w = m_weak.Infer(3, {{0, -1}});
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(w.ok());
  // Stronger couplings pull neighbours further toward the seed's state.
  double pull_strong = 0.0, pull_weak = 0.0;
  for (const CorrEdge& e : graph_->Neighbors(0)) {
    pull_strong += 0.5 - s->p_up[e.neighbor];
    pull_weak += 0.5 - w->p_up[e.neighbor];
  }
  EXPECT_GT(pull_strong, pull_weak);
}

}  // namespace
}  // namespace trendspeed
