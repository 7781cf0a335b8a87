// Experiments A1-A3 — ablations of the design choices DESIGN.md calls out.
//
// A1: correlation-graph mining knobs (same-trend threshold theta, candidate
//     hop horizon h) — graph density vs estimation accuracy.
// A2: history length — how many days of probe data the offline phase needs.
// A3: model components — full pipeline vs prior-only trends (no graph
//     inference) vs no-hierarchy (class/global regressions only) vs
//     flat-global; isolates the contribution of each step.
// A4: crowdsourcing quality (workers per seed x aggregation).
// A5: adaptive (per-period) vs static seed sets.
// A6: Step 1's sweep count: prior-only and BP truncated at 1, 2, 3 and 6
//     sweeps, on both cities at K = 20/40/80. BpOptions::max_iters
//     defaults to the smallest count this table supports, and the run
//     aborts if the default breaks that rule.
//
//   --smoke   A6 only, at K = 40 with one evaluation seed: the tier-1
//             check that the default sweep count keeps its accuracy.

#include <algorithm>
#include <cstring>

#include "bench_util.h"
#include "crowd/campaign.h"
#include "seed/adaptive.h"
#include "util/stats.h"

namespace trendspeed {
namespace {

constexpr size_t kBudget = 40;

double Mape(const Dataset& ds, const PipelineConfig& config,
            uint32_t stride = 6) {
  TrafficSpeedEstimator est = bench::TrainDefault(ds, config);
  auto seeds = est.SelectSeeds(kBudget, SeedStrategy::kLazyGreedy);
  TS_CHECK(seeds.ok());
  auto suite = BuildMethodSuite(ds, est, false);
  TS_CHECK(suite.ok());
  Evaluator eval(&ds);
  auto r = eval.Run(suite->methods[0], seeds->seeds, bench::DefaultEval(stride));
  TS_CHECK(r.ok());
  return r->metrics.mape;
}

void A1(const Dataset& ds) {
  bench::PrintTitle("A1 correlation-mining knobs (CityA, K=40)");
  bench::Table t({"theta", "hops", "corr-edges", "isolated", "MAPE"}, 13);
  t.PrintHeader();
  for (double theta : {0.55, 0.62, 0.70, 0.80}) {
    for (uint32_t hops : {1u, 2u, 3u}) {
      PipelineConfig config;
      config.corr.min_same_prob = theta;
      config.corr.max_hops = hops;
      auto graph =
          CorrelationGraph::Build(ds.net, ds.history, config.corr);
      TS_CHECK(graph.ok());
      t.Row({bench::Fmt(theta), std::to_string(hops),
             std::to_string(graph->num_edges()),
             std::to_string(graph->CountIsolated()),
             bench::FmtPct(Mape(ds, config, 8))});
    }
  }
}

void A2() {
  bench::PrintTitle("A2 history length (CityA, K=40)");
  bench::Table t({"history-days", "records", "MAPE"}, 15);
  t.PrintHeader();
  for (uint32_t days : {3u, 7u, 14u, 21u}) {
    DatasetOptions opts;
    opts.history_days = days;
    opts.test_days = 2;
    opts.use_probe_fleet = true;
    opts.fleet.trips_per_slot = 15;
    auto ds = BuildCityA(opts);
    TS_CHECK(ds.ok());
    t.Row({std::to_string(days),
           std::to_string(ds->history.TotalObservations()),
           bench::FmtPct(Mape(*ds, {}, 8))});
  }
}

void A3(const Dataset& ds) {
  bench::PrintTitle("A3 model-component ablation (CityA, K=40)");
  bench::Table t({"variant", "MAPE"}, 44);
  t.PrintHeader();

  PipelineConfig full;
  t.Row({"full (evidence + BP + hierarchy)", bench::FmtPct(Mape(ds, full))});

  PipelineConfig no_mp = full;
  no_mp.trend.engine = TrendEngine::kPriorOnly;
  t.Row({"  - message passing (potentials only)",
         bench::FmtPct(Mape(ds, no_mp))});

  PipelineConfig no_ev = full;
  no_ev.use_trend_evidence = false;
  no_ev.trend.bp.max_iters = 40;  // without evidence BP must carry the load
  t.Row({"  - deviation evidence (BP only)", bench::FmtPct(Mape(ds, no_ev))});

  PipelineConfig no_step1 = full;
  no_step1.use_trend_evidence = false;
  no_step1.trend.engine = TrendEngine::kPriorOnly;
  t.Row({"  - Step 1 entirely (historical prior)",
         bench::FmtPct(Mape(ds, no_step1))});

  PipelineConfig layered = full;
  layered.propagation.mode = AggregationMode::kLayered;
  t.Row({"layered cascade instead of influence",
         bench::FmtPct(Mape(ds, layered))});

  PipelineConfig no_road = full;
  no_road.speed.min_road_samples = 1u << 20;  // road level untrainable
  t.Row({"no road-level models (class+global)",
         bench::FmtPct(Mape(ds, no_road))});

  PipelineConfig flat = no_road;
  flat.speed.min_class_samples = 1u << 20;  // class level untrainable too
  t.Row({"global model only (flat)", bench::FmtPct(Mape(ds, flat))});

  PipelineConfig icm = full;
  icm.trend.engine = TrendEngine::kIcm;
  t.Row({"ICM trends instead of BP", bench::FmtPct(Mape(ds, icm))});

  PipelineConfig gibbs = full;
  gibbs.trend.engine = TrendEngine::kGibbs;
  t.Row({"Gibbs trends instead of BP", bench::FmtPct(Mape(ds, gibbs))});
}

// A4: crowdsourcing quality — workers per seed x aggregation method. Both
// the raw seed-observation error and the downstream estimation error.
void A4(const Dataset& ds) {
  TrafficSpeedEstimator est = bench::TrainDefault(ds);
  auto seeds = est.SelectSeeds(kBudget, SeedStrategy::kLazyGreedy);
  TS_CHECK(seeds.ok());
  std::vector<bool> is_seed(ds.net.num_roads(), false);
  for (RoadId r : seeds->seeds) is_seed[r] = true;

  WorkerPool::Options popts;
  popts.num_workers = 500;
  popts.bias_spread_kmh = 2.5;
  popts.noise_min_kmh = 2.0;
  popts.noise_max_kmh = 8.0;
  popts.max_outlier_prob = 0.08;
  WorkerPool pool(popts);

  Evaluator eval(&ds);
  bench::PrintTitle("A4 crowdsourcing quality (CityA, K=40)");
  bench::Table t({"workers/seed", "aggregation", "obs-MAE", "est-MAPE",
                  "answers"},
                 15);
  t.PrintHeader();
  for (uint32_t workers : {1u, 3u, 5u}) {
    for (AggregationMethod method :
         {AggregationMethod::kMean, AggregationMethod::kMedian,
          AggregationMethod::kTrimmedMean,
          AggregationMethod::kReliabilityWeighted}) {
      if (workers == 1 && method != AggregationMethod::kMean) continue;
      CampaignOptions copts;
      copts.workers_per_seed = workers;
      copts.aggregation = method;
      CrowdCampaign campaign(&pool, copts);
      OnlineStats obs_err;
      std::vector<double> predicted, truth;
      for (uint64_t slot : eval.TestSlots(8)) {
        auto obs = campaign.Collect(seeds->seeds, ds.truth.speeds[slot]);
        TS_CHECK(obs.ok());
        for (const SeedSpeed& s : *obs) {
          obs_err.Add(std::fabs(s.speed_kmh - ds.truth.at(slot, s.road)));
        }
        auto out = est.Estimate(slot, *obs);
        TS_CHECK(out.ok());
        for (RoadId r = 0; r < ds.net.num_roads(); ++r) {
          if (is_seed[r]) continue;
          predicted.push_back(out->speeds.speed_kmh[r]);
          truth.push_back(ds.truth.at(slot, r));
        }
      }
      SpeedMetrics metrics = ComputeSpeedMetrics(predicted, truth);
      t.Row({std::to_string(workers), AggregationMethodName(method),
             bench::Fmt(obs_err.mean()), bench::FmtPct(metrics.mape),
             std::to_string(campaign.answers_spent())});
    }
  }
}

// A5: adaptive (per-period) seed sets vs one static set at equal budget.
void A5(const Dataset& ds) {
  TrafficSpeedEstimator est = bench::TrainDefault(ds);
  auto static_seeds = est.SelectSeeds(kBudget, SeedStrategy::kLazyGreedy);
  TS_CHECK(static_seeds.ok());
  AdaptivePlanOptions aopts;
  auto plan = AdaptiveSeedPlan::Build(est.correlation_graph(), ds.history,
                                      kBudget, aopts);
  TS_CHECK(plan.ok());

  Evaluator eval(&ds);
  Rng rng(123);
  auto run = [&](auto seeds_for_slot) {
    std::vector<double> predicted, truth;
    for (uint64_t slot : eval.TestSlots(6)) {
      const std::vector<RoadId>& roads = seeds_for_slot(slot);
      std::vector<bool> is_seed(ds.net.num_roads(), false);
      for (RoadId r : roads) is_seed[r] = true;
      auto obs = eval.ObserveSeeds(slot, roads, 1.5, &rng);
      auto out = est.Estimate(slot, obs);
      TS_CHECK(out.ok());
      for (RoadId r = 0; r < ds.net.num_roads(); ++r) {
        if (is_seed[r]) continue;
        predicted.push_back(out->speeds.speed_kmh[r]);
        truth.push_back(ds.truth.at(slot, r));
      }
    }
    return ComputeSpeedMetrics(predicted, truth);
  };
  SpeedMetrics stat = run([&](uint64_t) -> const std::vector<RoadId>& {
    return static_seeds->seeds;
  });
  SpeedMetrics adap = run([&](uint64_t slot) -> const std::vector<RoadId>& {
    return plan->SeedsFor(slot);
  });
  bench::PrintTitle("A5 static vs time-adaptive seed sets (CityA, K=40)");
  bench::Table t({"plan", "MAPE", "MAE", "periods"}, 16);
  t.PrintHeader();
  t.Row({"static", bench::FmtPct(stat.mape), bench::Fmt(stat.mae), "1"});
  t.Row({"adaptive", bench::FmtPct(adap.mape), bench::Fmt(adap.mae),
         std::to_string(plan->num_periods())});
}

// A6: the sweep budget of Step 1. Row 0 is prior-only (the node
// potentials with no message passing); every other row runs BP for exactly
// that many sweeps. A sweep count is admissible when its MAPE is within
// kSweepMapeSlack of the best row for every city and budget.
constexpr double kSweepMapeSlack = 0.0005;  // 0.05 pp

struct StepOneScore {
  double mape = 0.0;
  double error_rate = 0.0;
  double trend_accuracy = 0.0;
};

TrafficSpeedEstimator WithSweeps(const Dataset& ds,
                                 const TrafficSpeedEstimator& trained,
                                 uint32_t sweeps) {
  PipelineConfig config = trained.config();
  if (sweeps == 0) {
    config.trend.engine = TrendEngine::kPriorOnly;
  } else {
    config.trend.bp.max_iters = sweeps;
  }
  auto est = TrafficSpeedEstimator::FromComponents(
      &ds.net, &ds.history, config, trained.correlation_graph(),
      trained.influence(), trained.speed_model());
  TS_CHECK(est.ok()) << est.status().ToString();
  return std::move(est).value();
}

// Speed and trend scores over non-seed roads, averaged over `eval_seeds`
// observation-noise seeds (the seeds Evaluator::RunRepeated draws). One
// Estimate per test slot feeds all three scores.
StepOneScore ScoreStepOne(const Dataset& ds, const TrafficSpeedEstimator& est,
                          const std::vector<RoadId>& seeds,
                          size_t eval_seeds) {
  Evaluator eval(&ds);
  EvalOptions opts = bench::DefaultEval(2);
  std::vector<bool> is_seed(ds.net.num_roads(), false);
  for (RoadId r : seeds) is_seed[r] = true;
  StepOneScore mean;
  for (size_t rep = 0; rep < eval_seeds; ++rep) {
    Rng rng(opts.rng_seed + 1000003 * rep);
    std::vector<double> predicted, truth;
    std::vector<int> trend, true_trend;
    for (uint64_t slot : eval.TestSlots(opts.slot_stride)) {
      auto obs = eval.ObserveSeeds(slot, seeds, opts.seed_noise_kmh, &rng);
      auto out = est.Estimate(slot, obs);
      TS_CHECK(out.ok()) << out.status().ToString();
      std::vector<int> slot_trends = eval.TrueTrends(slot);
      for (RoadId r = 0; r < ds.net.num_roads(); ++r) {
        if (is_seed[r]) continue;
        predicted.push_back(out->speeds.speed_kmh[r]);
        truth.push_back(ds.truth.at(slot, r));
        trend.push_back(out->trends.HardTrend(r));
        true_trend.push_back(slot_trends[r]);
      }
    }
    SpeedMetrics m = ComputeSpeedMetrics(predicted, truth, opts.error_rate_tau);
    mean.mape += m.mape / static_cast<double>(eval_seeds);
    mean.error_rate += m.error_rate / static_cast<double>(eval_seeds);
    mean.trend_accuracy +=
        TrendAccuracy(trend, true_trend) / static_cast<double>(eval_seeds);
  }
  return mean;
}

void A6(bool smoke) {
  const uint32_t default_sweeps = BpOptions{}.max_iters;
  std::vector<uint32_t> rows = {0, 1, 2, 3, 6};
  if (std::find(rows.begin(), rows.end(), default_sweeps) == rows.end()) {
    rows.push_back(default_sweeps);
    std::sort(rows.begin(), rows.end());
  }
  const std::vector<size_t> budgets =
      smoke ? std::vector<size_t>{40} : std::vector<size_t>{20, 40, 80};
  const size_t eval_seeds = smoke ? 1 : 3;
  // admissible[i]: row i is within the slack at every (city, K) so far.
  std::vector<bool> admissible(rows.size(), true);

  bench::PrintTitle("A6 Step-1 sweep count (mean of " +
                    std::to_string(eval_seeds) +
                    " evaluation seeds; 0 = prior only)");
  bench::Table t({"city", "K", "sweeps", "MAPE", "err-rate", "trend-acc",
                  "MAPE-best"},
                 11);
  t.PrintHeader();
  for (const char* city : {"CityA", "CityB"}) {
    auto ds = bench::MakeCity(city);
    TrafficSpeedEstimator trained = bench::TrainDefault(*ds);
    for (size_t k : budgets) {
      auto seeds = trained.SelectSeeds(k, SeedStrategy::kLazyGreedy);
      TS_CHECK(seeds.ok());
      std::vector<StepOneScore> scores;
      for (uint32_t sweeps : rows) {
        scores.push_back(ScoreStepOne(*ds, WithSweeps(*ds, trained, sweeps),
                                      seeds->seeds, eval_seeds));
      }
      double best = scores[0].mape;
      for (const StepOneScore& s : scores) best = std::min(best, s.mape);
      for (size_t i = 0; i < rows.size(); ++i) {
        double gap = scores[i].mape - best;
        if (gap > kSweepMapeSlack) admissible[i] = false;
        t.Row({city, std::to_string(k),
               std::to_string(rows[i]) +
                   (rows[i] == default_sweeps ? " *" : ""),
               bench::FmtPct(scores[i].mape, 2),
               bench::FmtPct(scores[i].error_rate, 2),
               bench::FmtPct(scores[i].trend_accuracy, 2),
               "+" + bench::Fmt(gap * 100.0, 3) + "pp"});
      }
    }
  }
  size_t pick = rows.size();
  size_t default_row = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] > 0 && admissible[i] && pick == rows.size()) pick = i;
    if (rows[i] == default_sweeps) default_row = i;
  }
  std::printf("smallest sweep count within %.2f pp of the best row: %s; "
              "BpOptions default (*): %u\n",
              kSweepMapeSlack * 100.0,
              pick < rows.size() ? std::to_string(rows[pick]).c_str()
                                 : "none",
              default_sweeps);
  std::fflush(stdout);
  TS_CHECK(admissible[default_row])
      << "the default sweep count " << default_sweeps
      << " is more than 0.05 pp MAPE behind the best row";
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!smoke) {
    auto ds = trendspeed::bench::MakeCity("CityA");
    trendspeed::A1(*ds);
    trendspeed::A2();
    trendspeed::A3(*ds);
    trendspeed::A4(*ds);
    trendspeed::A5(*ds);
  }
  trendspeed::A6(smoke);
  return 0;
}
