// Cross-cutting pipeline properties: structural symmetries, graceful
// degradation, and invariance to parallelism.

#include <algorithm>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/evaluator.h"
#include "core/serving.h"
#include "crowd/campaign.h"
#include "test_util.h"
#include "util/binary_io.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

class PipelinePropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(est.ok());
    estimator_ = new TrafficSpeedEstimator(std::move(est).value());
  }
  const Dataset& ds() { return SharedTinyDataset(); }
  static TrafficSpeedEstimator* estimator_;
};

TrafficSpeedEstimator* PipelinePropertyTest::estimator_ = nullptr;

TEST_F(PipelinePropertyTest, InfluenceIsSymmetric) {
  // Best-path products over an undirected graph are symmetric in magnitude
  // and sign: w_ij == w_ji.
  const InfluenceModel& infl = estimator_->influence();
  for (RoadId i = 0; i < infl.num_roads(); ++i) {
    for (const CoverEntry& c : infl.CoverList(i)) {
      bool found = false;
      for (const CoverEntry& back : infl.CoverList(c.road)) {
        if (back.road == i) {
          found = true;
          EXPECT_NEAR(back.influence, c.influence, 1e-6)
              << "asymmetric influence " << i << " <-> " << c.road;
        }
      }
      EXPECT_TRUE(found) << "one-sided influence " << i << " -> " << c.road;
    }
  }
}

TEST_F(PipelinePropertyTest, EmptySeedSetDegradesToPrior) {
  uint64_t slot = ds().first_test_slot() + 7;
  auto out = estimator_->Estimate(slot, {});
  ASSERT_TRUE(out.ok());
  // With no observations, speeds should stay near the historical norm.
  for (RoadId r = 0; r < ds().net.num_roads(); ++r) {
    double hist = ds().history.HistoricalMeanOr(
        r, slot, ds().net.road(r).free_flow_kmh);
    EXPECT_GT(out->speeds.speed_kmh[r], 0.0);
    EXPECT_NEAR(out->speeds.speed_kmh[r], hist, 0.35 * hist) << "road " << r;
  }
}

TEST_F(PipelinePropertyTest, DuplicateSeedsAreHarmless) {
  uint64_t slot = ds().first_test_slot() + 3;
  std::vector<SeedSpeed> once = {{0, 30.0}, {5, 40.0}};
  std::vector<SeedSpeed> twice = {{0, 30.0}, {5, 40.0}, {0, 30.0}};
  auto a = estimator_->Estimate(slot, once);
  auto b = estimator_->Estimate(slot, twice);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (RoadId r = 0; r < ds().net.num_roads(); ++r) {
    // Duplicates double the aggregation weight of seed 0 but carry the same
    // deviation, so results stay close (and seeds identical).
    EXPECT_NEAR(a->speeds.speed_kmh[r], b->speeds.speed_kmh[r], 3.0);
  }
  EXPECT_DOUBLE_EQ(b->speeds.speed_kmh[0], 30.0);
}

TEST_F(PipelinePropertyTest, TrainingInvariantToThreadCount) {
  const Dataset& d = ds();
  PipelineConfig one;
  one.corr.min_co_observed = 8;
  one.corr.num_threads = 1;
  one.speed.num_threads = 1;
  one.influence.num_threads = 1;
  PipelineConfig four = one;
  four.corr.num_threads = 4;
  four.speed.num_threads = 4;
  four.influence.num_threads = 4;
  auto est1 = TrafficSpeedEstimator::Train(&d.net, &d.history, one);
  auto est4 = TrafficSpeedEstimator::Train(&d.net, &d.history, four);
  ASSERT_TRUE(est1.ok());
  ASSERT_TRUE(est4.ok());
  EXPECT_EQ(est1->correlation_graph().num_edges(),
            est4->correlation_graph().num_edges());
  auto s1 = est1->SelectSeeds(6, SeedStrategy::kGreedy);
  auto s4 = est4->SelectSeeds(6, SeedStrategy::kGreedy);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s4.ok());
  EXPECT_EQ(s1->seeds, s4->seeds);
  uint64_t slot = d.first_test_slot();
  std::vector<SeedSpeed> obs;
  for (RoadId r : s1->seeds) obs.push_back({r, d.truth.at(slot, r)});
  auto o1 = est1->Estimate(slot, obs);
  auto o4 = est4->Estimate(slot, obs);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o4.ok());
  EXPECT_EQ(o1->speeds.speed_kmh, o4->speeds.speed_kmh);
  // Every road, class and global coefficient, not just those one slot's
  // speeds reach.
  BinaryWriter w1, w4;
  est1->speed_model().Serialize(&w1);
  est4->speed_model().Serialize(&w4);
  EXPECT_TRUE(w1.buffer() == w4.buffer());
}

TEST_F(PipelinePropertyTest, CrowdObservationsFlowThroughPipeline) {
  // End-to-end: crowd campaign -> estimator, vs perfect observations.
  auto seeds = estimator_->SelectSeeds(8, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  WorkerPool::Options popts;
  popts.num_workers = 100;
  popts.noise_min_kmh = 1.0;
  popts.noise_max_kmh = 3.0;
  popts.max_outlier_prob = 0.02;
  WorkerPool pool(popts);
  CampaignOptions copts;
  copts.workers_per_seed = 3;
  CrowdCampaign campaign(&pool, copts);
  uint64_t slot = ds().first_test_slot() + 11;
  auto obs = campaign.Collect(seeds->seeds, ds().truth.speeds[slot]);
  ASSERT_TRUE(obs.ok());
  auto out = estimator_->Estimate(slot, *obs);
  ASSERT_TRUE(out.ok());
  std::vector<SeedSpeed> perfect;
  for (RoadId r : seeds->seeds) perfect.push_back({r, ds().truth.at(slot, r)});
  auto out_perfect = estimator_->Estimate(slot, perfect);
  ASSERT_TRUE(out_perfect.ok());
  // Crowd-noised results stay close to the perfect-observation results.
  for (RoadId r = 0; r < ds().net.num_roads(); ++r) {
    EXPECT_NEAR(out->speeds.speed_kmh[r], out_perfect->speeds.speed_kmh[r],
                8.0)
        << "road " << r;
  }
}


// ---------------------------------------------------------------------------
// Seed-set plans (speed/seed_plan.h) against a reference copy of the direct
// passes they replaced: the influence scatter, the evidence backfill walk and
// Step 2's spatial-fallback walk, run per call with no plan. Every output
// must be bitwise equal.

struct ReferenceOutput {
  std::vector<double> p_up;
  std::vector<double> speed_kmh;
  std::vector<double> deviation;
  std::vector<uint32_t> layer;
};

double RefSeedDeviation(const TrafficSpeedEstimator& est, const SeedSpeed& s,
                        uint64_t slot) {
  double hist = est.history().HistoricalMeanOr(
      s.road, slot, est.network().road(s.road).free_flow_kmh);
  return hist > 0.0 ? s.speed_kmh / hist - 1.0 : 0.0;
}

// The aggregate spread over every road: x[v] is the weighted mean
// deviation, weight[v] the total influence magnitude (0 = uncovered).
struct RefSeedAggregate {
  std::vector<double> x;
  std::vector<double> weight;
};

RefSeedAggregate RefAggregate(const TrafficSpeedEstimator& est,
                                   const std::vector<SeedSpeed>& seeds,
                                   uint64_t slot) {
  const InfluenceModel& influence = est.influence();
  size_t n = influence.num_roads();
  RefSeedAggregate agg;
  agg.x.assign(n, 0.0);
  agg.weight.assign(n, 0.0);
  std::vector<double> xsum(n, 0.0);
  for (const SeedSpeed& s : seeds) {
    double dev = RefSeedDeviation(est, s, slot);
    for (const CoverEntry& c : influence.CoverList(s.road)) {
      xsum[c.road] += static_cast<double>(c.influence) * dev;
      agg.weight[c.road] += std::fabs(static_cast<double>(c.influence));
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (agg.weight[v] > 0.0) agg.x[v] = xsum[v] / agg.weight[v];
  }
  return agg;
}

std::vector<double> RefEvidence(const TrafficSpeedEstimator& est,
                                const RefSeedAggregate& aggregate) {
  const RoadNetwork& net = est.network();
  const PipelineConfig& config = est.config();
  const LogisticCalibration& cal = est.speed_model().evidence();
  size_t n = net.num_roads();
  std::vector<double> evidence(n, 0.0);
  std::vector<bool> assigned(n, false);
  for (RoadId v = 0; v < n; ++v) {
    if (aggregate.weight[v] > 0.0) {
      evidence[v] = cal.LogOdds(aggregate.x[v]);
      assigned[v] = true;
    }
  }
  std::vector<RoadId> frontier;
  for (RoadId v = 0; v < n; ++v) {
    if (assigned[v]) frontier.push_back(v);
  }
  for (uint32_t step = 0;
       step < config.evidence_backfill_hops && !frontier.empty(); ++step) {
    std::vector<RoadId> next;
    std::vector<bool> pending(n, false);
    for (RoadId u : frontier) {
      auto consider = [&](RoadId v) {
        if (!assigned[v] && !pending[v]) {
          pending[v] = true;
          next.push_back(v);
        }
      };
      for (RoadId v : net.RoadSuccessors(u)) consider(v);
      for (RoadId v : net.RoadPredecessors(u)) consider(v);
      RoadId twin = net.ReverseTwin(u);
      if (twin != kInvalidRoad) consider(twin);
    }
    for (RoadId v : next) {
      double sum = 0.0;
      size_t cnt = 0;
      auto take = [&](RoadId u) {
        if (assigned[u]) {
          sum += evidence[u];
          ++cnt;
        }
      };
      for (RoadId u : net.RoadSuccessors(v)) take(u);
      for (RoadId u : net.RoadPredecessors(v)) take(u);
      RoadId twin = net.ReverseTwin(v);
      if (twin != kInvalidRoad) take(twin);
      if (cnt > 0) {
        evidence[v] =
            config.evidence_backfill_damping * sum / static_cast<double>(cnt);
      }
    }
    for (RoadId v : next) assigned[v] = true;
    frontier = std::move(next);
  }
  return evidence;
}

void RefFinish(const TrafficSpeedEstimator& est, const TrendEstimate& trends,
               uint32_t base_layer, uint64_t slot, ReferenceOutput* out) {
  const RoadNetwork& net = est.network();
  const PropagationOptions& opts = est.config().propagation;
  const HierarchicalSpeedModel& model = est.speed_model();
  size_t n = net.num_roads();
  if (opts.max_spatial_layers > 0) {
    std::vector<RoadId> frontier;
    for (RoadId v = 0; v < n; ++v) {
      if (out->layer[v] != kUnreachedLayer) frontier.push_back(v);
    }
    for (uint32_t step = 0;
         step < opts.max_spatial_layers && !frontier.empty(); ++step) {
      uint32_t layer = base_layer + step;
      std::vector<RoadId> candidates;
      auto consider = [&](RoadId u) {
        if (out->layer[u] == kUnreachedLayer) {
          out->layer[u] = layer;
          candidates.push_back(u);
        }
      };
      for (RoadId u : frontier) {
        for (RoadId v : net.RoadSuccessors(u)) consider(v);
        for (RoadId v : net.RoadPredecessors(u)) consider(v);
        RoadId twin = net.ReverseTwin(u);
        if (twin != kInvalidRoad) consider(twin);
      }
      for (RoadId v : candidates) {
        double sum = 0.0;
        size_t cnt = 0;
        auto take = [&](RoadId u) {
          if (out->layer[u] < layer) {
            sum += out->deviation[u];
            ++cnt;
          }
        };
        for (RoadId u : net.RoadSuccessors(v)) take(u);
        for (RoadId u : net.RoadPredecessors(v)) take(u);
        RoadId twin = net.ReverseTwin(v);
        if (twin != kInvalidRoad) take(twin);
        double x = cnt > 0
                       ? opts.spatial_discount * sum / static_cast<double>(cnt)
                       : 0.0;
        out->deviation[v] = model.PredictDeviation(v, x, /*weight=*/0.3,
                                                   /*has_x=*/cnt > 0,
                                                   trends.p_up[v]);
      }
      frontier = std::move(candidates);
    }
  }
  for (RoadId v = 0; v < n; ++v) {
    if (out->layer[v] == kUnreachedLayer) {
      out->deviation[v] = model.PredictDeviation(
          v, 0.0, /*weight=*/0.0, /*has_x=*/false, trends.p_up[v]);
    }
  }
  for (RoadId v = 0; v < n; ++v) {
    if (out->layer[v] == 0) continue;
    double free_flow = net.road(v).free_flow_kmh;
    double hist = est.history().HistoricalMeanOr(v, slot, free_flow);
    double speed = hist * (1.0 + out->deviation[v]);
    out->speed_kmh[v] = std::clamp(speed, 2.0, free_flow * 1.3);
  }
}

ReferenceOutput RefEstimate(const TrafficSpeedEstimator& est, uint64_t slot,
                            const std::vector<SeedSpeed>& seeds) {
  const RoadNetwork& net = est.network();
  const PipelineConfig& config = est.config();
  const HierarchicalSpeedModel& model = est.speed_model();
  size_t n = net.num_roads();
  std::vector<SeedTrend> seed_trends;
  for (const SeedSpeed& s : seeds) {
    seed_trends.push_back(
        {s.road, est.history().TrendOf(s.road, slot, s.speed_kmh,
                                       net.road(s.road).free_flow_kmh)});
  }
  RefSeedAggregate aggregate = RefAggregate(est, seeds, slot);
  std::vector<double> evidence;
  const std::vector<double>* evidence_ptr = nullptr;
  if (config.use_trend_evidence && model.evidence().trained) {
    evidence = RefEvidence(est, aggregate);
    evidence_ptr = &evidence;
  }
  auto trends = est.trend_model().Infer(slot, seed_trends, evidence_ptr);
  TS_CHECK(trends.ok());

  ReferenceOutput out;
  out.p_up = trends->p_up;
  out.speed_kmh.assign(n, 0.0);
  out.deviation.assign(n, 0.0);
  out.layer.assign(n, kUnreachedLayer);
  for (const SeedSpeed& s : seeds) {
    out.deviation[s.road] = RefSeedDeviation(est, s, slot);
    out.speed_kmh[s.road] = s.speed_kmh;
    out.layer[s.road] = 0;
  }
  const PropagationOptions& opts = config.propagation;
  if (opts.mode == AggregationMode::kInfluence) {
    for (RoadId v = 0; v < n; ++v) {
      if (out.layer[v] == 0 || aggregate.weight[v] <= 0.0) continue;
      out.deviation[v] =
          model.PredictDeviation(v, aggregate.x[v], aggregate.weight[v],
                                 /*has_x=*/true, trends->p_up[v]);
      out.layer[v] = 1;
    }
    RefFinish(est, *trends, /*base_layer=*/2, slot, &out);
    return out;
  }
  const CorrelationGraph& graph = est.correlation_graph();
  std::vector<RoadId> frontier;
  for (const SeedSpeed& s : seeds) frontier.push_back(s.road);
  for (uint32_t layer = 1; layer <= opts.max_layers && !frontier.empty();
       ++layer) {
    std::vector<RoadId> candidates;
    for (RoadId u : frontier) {
      for (const CorrEdge& e : graph.Neighbors(u)) {
        if (out.layer[e.neighbor] == kUnreachedLayer) {
          out.layer[e.neighbor] = layer;
          candidates.push_back(e.neighbor);
        }
      }
    }
    for (RoadId v : candidates) {
      double wsum = 0.0, xsum = 0.0;
      for (const CorrEdge& e : graph.Neighbors(v)) {
        if (out.layer[e.neighbor] >= layer) continue;
        double w = HierarchicalSpeedModel::EdgeWeight(e);
        if (w == 0.0) continue;
        wsum += std::fabs(w);
        xsum += w * out.deviation[e.neighbor];
      }
      double p_up = trends->p_up[v];
      out.deviation[v] =
          wsum > 0.0
              ? model.PredictDeviation(v, xsum / wsum, wsum, true, p_up)
              : model.PredictDeviation(v, 0.0, 0.0, false, p_up);
    }
    frontier = std::move(candidates);
  }
  RefFinish(est, *trends, /*base_layer=*/opts.max_layers + 1, slot, &out);
  return out;
}

void ExpectMatchesReference(const TrafficSpeedEstimator& est, uint64_t slot,
                            const std::vector<SeedSpeed>& seeds,
                            const TrafficSpeedEstimator::Output& got) {
  ReferenceOutput want = RefEstimate(est, slot, seeds);
  EXPECT_EQ(got.trends.p_up, want.p_up);
  EXPECT_EQ(got.speeds.speed_kmh, want.speed_kmh);
  EXPECT_EQ(got.speeds.deviation, want.deviation);
  EXPECT_EQ(got.speeds.layer, want.layer);
}

class SeedPlanPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    // Short influence reach leaves roads for both walks to fill.
    config.influence.max_hops = 1;
    auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(est.ok());
    base_ = new TrafficSpeedEstimator(std::move(est).value());
  }

  // An estimator sharing base_'s trained components under `config`.
  static TrafficSpeedEstimator WithConfig(const PipelineConfig& config) {
    const Dataset& ds = SharedTinyDataset();
    auto est = TrafficSpeedEstimator::FromComponents(
        &ds.net, &ds.history, config, base_->correlation_graph(),
        base_->influence(), base_->speed_model());
    TS_CHECK(est.ok());
    return std::move(est).value();
  }

  // `count` distinct seed roads drawn by `rng`, observed at truth speeds.
  static std::vector<SeedSpeed> RandomSeeds(size_t count, uint64_t slot,
                                            Rng* rng) {
    const Dataset& ds = SharedTinyDataset();
    std::vector<RoadId> roads(ds.net.num_roads());
    for (RoadId r = 0; r < roads.size(); ++r) roads[r] = r;
    for (size_t i = 0; i < count; ++i) {
      size_t j = i + rng->NextIndex(roads.size() - i);
      std::swap(roads[i], roads[j]);
    }
    std::vector<SeedSpeed> seeds;
    for (size_t i = 0; i < count; ++i) {
      seeds.push_back({roads[i], ds.truth.at(slot, roads[i])});
    }
    return seeds;
  }

  static TrafficSpeedEstimator* base_;
};

TrafficSpeedEstimator* SeedPlanPropertyTest::base_ = nullptr;

TEST_F(SeedPlanPropertyTest, FixturePlansReachUncoveredRoads) {
  // The comparisons below only mean something if both walks have work.
  const TrafficSpeedEstimator& est = *base_;
  ASSERT_TRUE(est.speed_model().evidence().trained);
  uint64_t slot = SharedTinyDataset().first_test_slot();
  Rng rng(5);
  EstimateWorkspace ws;
  ASSERT_TRUE(est.Estimate(slot, RandomSeeds(2, slot, &rng), &ws)
                  .ok());
  EXPECT_GT(ws.plan.neighbour_means().num_roads(), 0u);
  EXPECT_GE(ws.plan.neighbour_means().num_layers(), 2u);
  EXPECT_LT(ws.plan.covered().size(), est.network().num_roads());
}

TEST_F(SeedPlanPropertyTest, SeedSetsABAMatchReferenceAndRecompile) {
  const TrafficSpeedEstimator& est = *base_;
  uint64_t slot = SharedTinyDataset().first_test_slot() + 4;
  // Dense enough that many roads sum three or more seeds' terms, where the
  // summation order shows in the bits. The Rng seed is picked so that the
  // two orders round apart with and without FMA contraction (-march=native
  // contracts a*b+c and lets some orders meet).
  Rng rng(6);
  std::vector<SeedSpeed> a = RandomSeeds(24, slot, &rng);
  std::vector<SeedSpeed> b = a;
  std::reverse(b.begin(), b.end());  // same roads, another summation order
  {
    auto in_order = est.Estimate(slot, a);
    auto reversed = est.Estimate(slot, b);
    ASSERT_TRUE(in_order.ok());
    ASSERT_TRUE(reversed.ok());
    ASSERT_NE(in_order->speeds.deviation, reversed->speeds.deviation)
        << "fixture too sparse to tell summation orders apart";
  }
  b.push_back(RandomSeeds(1, slot, &rng)[0]);
  EstimateWorkspace ws;
  const std::vector<SeedSpeed>* order[] = {&a, &b, &a, &a};
  const uint64_t compiles[] = {1, 2, 3, 3};  // only a change recompiles
  for (size_t i = 0; i < 4; ++i) {
    auto out = est.Estimate(slot, *order[i], &ws);
    ASSERT_TRUE(out.ok());
    ExpectMatchesReference(est, slot, *order[i], *out);
    EXPECT_EQ(ws.plan_compiles, compiles[i]);
  }
  // The stateless overload runs the same path on a temporary workspace.
  auto stateless = est.Estimate(slot, b);
  ASSERT_TRUE(stateless.ok());
  ExpectMatchesReference(est, slot, b, *stateless);
}

TEST_F(SeedPlanPropertyTest, RandomSeedListsAcrossSlotsMatchReference) {
  const TrafficSpeedEstimator& est = *base_;
  const Dataset& ds = SharedTinyDataset();
  Rng rng(29);
  EstimateWorkspace ws;
  std::vector<SeedSpeed> seeds;
  for (uint64_t slot = ds.first_test_slot(); slot < ds.first_test_slot() + 12;
       ++slot) {
    // Keep the road list (new speeds) two slots in three; redraw it
    // otherwise.
    if (seeds.empty() || slot % 3 == 0) {
      seeds = RandomSeeds(1 + rng.NextIndex(8), slot, &rng);
    } else {
      for (SeedSpeed& s : seeds) s.speed_kmh = ds.truth.at(slot, s.road);
    }
    auto out = est.Estimate(slot, seeds, &ws);
    ASSERT_TRUE(out.ok());
    ExpectMatchesReference(est, slot, seeds, *out);
  }
  EXPECT_LT(ws.plan_compiles, 12u);
}

TEST_F(SeedPlanPropertyTest, DuplicateSeedsMatchReference) {
  const TrafficSpeedEstimator& est = *base_;
  uint64_t slot = SharedTinyDataset().first_test_slot() + 6;
  Rng rng(13);
  std::vector<SeedSpeed> seeds = RandomSeeds(3, slot, &rng);
  seeds.push_back(seeds[0]);
  seeds.push_back({seeds[1].road, seeds[1].speed_kmh * 0.8});
  EstimateWorkspace ws;
  auto out = est.Estimate(slot, seeds, &ws);
  ASSERT_TRUE(out.ok());
  ExpectMatchesReference(est, slot, seeds, *out);
}

TEST_F(SeedPlanPropertyTest, EmptySeedSetMatchesReference) {
  const TrafficSpeedEstimator& est = *base_;
  uint64_t slot = SharedTinyDataset().first_test_slot() + 8;
  EstimateWorkspace ws;
  auto out = est.Estimate(slot, {}, &ws);
  ASSERT_TRUE(out.ok());
  ExpectMatchesReference(est, slot, {}, *out);
  EXPECT_TRUE(ws.plan.covered().empty());
  EXPECT_EQ(ws.plan.neighbour_means().num_roads(), 0u);
}

TEST_F(SeedPlanPropertyTest, ConfigVariantsMatchReference) {
  std::vector<PipelineConfig> configs;
  PipelineConfig no_backfill = base_->config();
  no_backfill.evidence_backfill_hops = 0;
  configs.push_back(no_backfill);
  PipelineConfig no_spatial = base_->config();
  no_spatial.propagation.max_spatial_layers = 0;
  configs.push_back(no_spatial);
  PipelineConfig neither = no_backfill;
  neither.propagation.max_spatial_layers = 0;
  configs.push_back(neither);
  PipelineConfig layered = base_->config();
  layered.propagation.mode = AggregationMode::kLayered;
  layered.propagation.max_layers = 1;
  configs.push_back(layered);
  PipelineConfig layered_plain = layered;
  layered_plain.use_trend_evidence = false;
  configs.push_back(layered_plain);
  PipelineConfig influence_plain = base_->config();
  influence_plain.use_trend_evidence = false;
  configs.push_back(influence_plain);

  const Dataset& ds = SharedTinyDataset();
  for (size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE("config " + std::to_string(c));
    TrafficSpeedEstimator est = WithConfig(configs[c]);
    Rng rng(17 + c);
    EstimateWorkspace ws;
    for (uint64_t slot = ds.first_test_slot();
         slot < ds.first_test_slot() + 3; ++slot) {
      std::vector<SeedSpeed> seeds = RandomSeeds(2 + slot % 3, slot, &rng);
      auto out = est.Estimate(slot, seeds, &ws);
      ASSERT_TRUE(out.ok());
      ExpectMatchesReference(est, slot, seeds, *out);
    }
  }
}

TEST_F(SeedPlanPropertyTest, SeedsOutsideTheirOwnCoverMatchReference) {
  // Trained influence models let every seed cover itself, so one walk
  // serves both passes. Without self-cover the spatial fallback starts from
  // more roads than the backfill and compiles its own walk per call.
  const InfluenceModel& trained = base_->influence();
  std::vector<std::vector<CoverEntry>> covers(trained.num_roads());
  for (RoadId r = 0; r < trained.num_roads(); ++r) {
    for (const CoverEntry& c : trained.CoverList(r)) {
      if (c.road != r) covers[r].push_back(c);
    }
  }
  const Dataset& ds = SharedTinyDataset();
  auto est = TrafficSpeedEstimator::FromComponents(
      &ds.net, &ds.history, base_->config(), base_->correlation_graph(),
      InfluenceModel::FromCoverLists(trained.num_roads(), std::move(covers),
                                     trained.sigmas()),
      base_->speed_model());
  ASSERT_TRUE(est.ok());
  uint64_t slot = ds.first_test_slot() + 2;
  Rng rng(31);
  std::vector<SeedSpeed> seeds = RandomSeeds(3, slot, &rng);
  EstimateWorkspace ws;
  auto out = est->Estimate(slot, seeds, &ws);
  ASSERT_TRUE(out.ok());
  ExpectMatchesReference(*est, slot, seeds, *out);
  EXPECT_FALSE(ws.plan.covers_every_seed())
      << "no seed outside the cover: the per-call fallback walk is untested";
}

TEST_F(SeedPlanPropertyTest, TwoSessionsOnOneEstimatorFromTwoThreads) {
  // Each session owns its workspace, so concurrent sessions on one
  // estimator never share a plan; both must match the reference slot for
  // slot while the other thread recompiles on its own schedule.
  const TrafficSpeedEstimator& est = *base_;
  const Dataset& ds = SharedTinyDataset();
  constexpr uint64_t kSlots = 10;
  auto run = [&](uint64_t rng_seed, size_t redraw_every,
                 std::vector<std::vector<SeedSpeed>>* inputs,
                 std::vector<TrafficSpeedEstimator::Output>* outputs,
                 uint64_t* compiles) {
    auto session = ServingSession::Create(&est, ServingOptions{});
    TS_CHECK(session.ok());
    Rng rng(rng_seed);
    std::vector<SeedSpeed> seeds;
    for (uint64_t i = 0; i < kSlots; ++i) {
      uint64_t slot = ds.first_test_slot() + i;
      if (i % redraw_every == 0) {
        seeds = RandomSeeds(2 + rng.NextIndex(4), slot, &rng);
      } else {
        for (SeedSpeed& s : seeds) s.speed_kmh = ds.truth.at(slot, s.road);
      }
      auto report = session->Ingest(slot, seeds);
      TS_CHECK(report.ok());
      inputs->push_back(seeds);
      outputs->push_back(report->monitor.estimate);
    }
    *compiles = session->estimate_workspace().plan_compiles;
  };
  std::vector<std::vector<SeedSpeed>> in1, in2;
  std::vector<TrafficSpeedEstimator::Output> out1, out2;
  uint64_t compiles1 = 0, compiles2 = 0;
  std::thread t1(run, 41, 1, &in1, &out1, &compiles1);
  std::thread t2(run, 43, 5, &in2, &out2, &compiles2);
  t1.join();
  t2.join();
  for (uint64_t i = 0; i < kSlots; ++i) {
    uint64_t slot = ds.first_test_slot() + i;
    ExpectMatchesReference(est, slot, in1[i], out1[i]);
    ExpectMatchesReference(est, slot, in2[i], out2[i]);
  }
  EXPECT_EQ(compiles1, kSlots);
  EXPECT_EQ(compiles2, kSlots / 5);
}

}  // namespace
}  // namespace trendspeed
