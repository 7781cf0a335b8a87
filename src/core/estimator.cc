#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "seed/exact.h"
#include "seed/greedy.h"
#include "seed/heuristics.h"
#include "seed/lazy_greedy.h"
#include "seed/stochastic_greedy.h"

namespace trendspeed {

const char* SeedStrategyName(SeedStrategy strategy) {
  switch (strategy) {
    case SeedStrategy::kGreedy:
      return "greedy";
    case SeedStrategy::kLazyGreedy:
      return "lazy-greedy";
    case SeedStrategy::kStochasticGreedy:
      return "stochastic-greedy";
    case SeedStrategy::kRandom:
      return "random";
    case SeedStrategy::kTopDegree:
      return "top-degree";
    case SeedStrategy::kTopVariance:
      return "top-variance";
    case SeedStrategy::kPageRank:
      return "pagerank";
    case SeedStrategy::kKCenter:
      return "k-center";
  }
  return "?";
}

Result<TrafficSpeedEstimator> TrafficSpeedEstimator::Train(
    const RoadNetwork* net, const HistoricalDb* db,
    const PipelineConfig& config) {
  if (net == nullptr || db == nullptr) {
    return Status::InvalidArgument("null network or history");
  }
  TS_RETURN_NOT_OK(config.Validate());
  TS_ASSIGN_OR_RETURN(CorrelationGraph graph,
                      CorrelationGraph::Build(*net, *db, config.corr));
  TS_ASSIGN_OR_RETURN(InfluenceModel influence,
                      InfluenceModel::Build(graph, *db, config.influence));
  TS_ASSIGN_OR_RETURN(
      HierarchicalSpeedModel speed_model,
      HierarchicalSpeedModel::Train(*net, *db, graph, influence,
                                    config.speed));
  return FromComponents(net, db, config, std::move(graph),
                        std::move(influence), std::move(speed_model));
}

Result<TrafficSpeedEstimator> TrafficSpeedEstimator::FromComponents(
    const RoadNetwork* net, const HistoricalDb* db,
    const PipelineConfig& config, CorrelationGraph graph,
    InfluenceModel influence, HierarchicalSpeedModel speed_model) {
  if (net == nullptr || db == nullptr) {
    return Status::InvalidArgument("null network or history");
  }
  TS_RETURN_NOT_OK(config.Validate());
  if (graph.num_roads() != net->num_roads() ||
      influence.num_roads() != net->num_roads() ||
      speed_model.num_roads() != net->num_roads()) {
    return Status::InvalidArgument("components / network size mismatch");
  }
  // TrendModel takes each edge compatibility raised to edge_compat_power
  // as an MRF potential, which must be finite and > 0. Like TrendModel, it
  // reads each edge from its lower-numbered end only.
  for (RoadId v = 0; v < graph.num_roads(); ++v) {
    for (const CorrEdge& e : graph.Neighbors(v)) {
      if (e.neighbor <= v) continue;
      for (float c : {e.compat[0][0], e.compat[0][1], e.compat[1][0],
                      e.compat[1][1]}) {
        const double psi = std::pow(double{c}, config.trend.edge_compat_power);
        if (!(psi > 0.0 && std::isfinite(psi))) {
          return Status::InvalidArgument(
              "edge compatibility potential is not finite and > 0");
        }
      }
    }
  }
  TrafficSpeedEstimator est;
  est.net_ = net;
  est.db_ = db;
  est.config_ = config;
  // Fan the pipeline-wide observability sinks out to the per-stage option
  // structs (only where the caller left them null, so explicit per-stage
  // wiring wins). Must happen before the TrendModel copies config_.trend.
  const ObservabilityOptions& o = config.observability;
  if (est.config_.trend.bp.metrics == nullptr) {
    est.config_.trend.bp.metrics = o.metrics;
  }
  if (est.config_.seed_selection.metrics == nullptr) {
    est.config_.seed_selection.metrics = o.metrics;
  }
  est.graph_ = std::make_unique<CorrelationGraph>(std::move(graph));
  est.influence_ = std::make_unique<InfluenceModel>(std::move(influence));
  est.speed_model_ =
      std::make_unique<HierarchicalSpeedModel>(std::move(speed_model));
  est.trend_model_ =
      std::make_unique<TrendModel>(est.graph_.get(), db, est.config_.trend);
  return est;
}

Result<SeedSelectionResult> TrafficSpeedEstimator::SelectSeeds(
    size_t k, SeedStrategy strategy, uint64_t rng_seed) const {
  switch (strategy) {
    case SeedStrategy::kGreedy:
      return SelectSeedsGreedy(*influence_, k, config_.seed_selection);
    case SeedStrategy::kLazyGreedy:
      return SelectSeedsLazyGreedy(*influence_, k, config_.seed_selection);
    case SeedStrategy::kStochasticGreedy: {
      StochasticGreedyOptions opts;
      opts.seed = rng_seed;
      opts.metrics = config_.seed_selection.metrics;
      return SelectSeedsStochasticGreedy(*influence_, k, opts);
    }
    case SeedStrategy::kRandom:
      return SelectSeedsRandom(*influence_, k, rng_seed);
    case SeedStrategy::kTopDegree:
      return SelectSeedsTopDegree(*influence_, *graph_, k);
    case SeedStrategy::kTopVariance:
      return SelectSeedsTopVariance(*influence_, k);
    case SeedStrategy::kPageRank:
      return SelectSeedsPageRank(*influence_, *graph_, k);
    case SeedStrategy::kKCenter:
      return SelectSeedsKCenter(*influence_, *graph_, k, rng_seed);
  }
  return Status::InvalidArgument("unknown seed strategy");
}

Result<TrafficSpeedEstimator::Output> TrafficSpeedEstimator::Estimate(
    uint64_t slot, const std::vector<SeedSpeed>& seeds,
    EstimateWorkspace* workspace, obs::FlightRecorder* flight) const {
  const ObservabilityOptions& o = config_.observability;
  // The estimate envelope overlaps bp_solve and is excluded from
  // critical-path attribution (obs/flight.h), but keeps the timeline whole.
  obs::FlightSpan flight_span(flight, slot, obs::FlightStage::kEstimate);
  // A detached estimator never reads the clock.
  const uint64_t start_ns = o.metrics != nullptr ? obs::MonotonicNanos() : 0;
  // Each seed's trend and relative deviation come from comparing the
  // crowdsourced speed with the road's historical mean.
  std::vector<SeedTrend> seed_trends;
  std::vector<double> seed_deviation;
  seed_trends.reserve(seeds.size());
  seed_deviation.reserve(seeds.size());
  const HistoricalDb::BucketView hist = db_->Bucket(slot);
  for (const SeedSpeed& s : seeds) {
    if (s.road >= net_->num_roads()) {
      return Status::InvalidArgument("seed road out of range");
    }
    if (!std::isfinite(s.speed_kmh) || s.speed_kmh <= 0.0) {
      // A NaN here would otherwise poison the trend and the influence
      // aggregate for every road the seed covers.
      return Status::InvalidArgument("seed speed must be positive and finite");
    }
    const double mean = hist.MeanOr(s.road, net_->road(s.road).free_flow_kmh);
    seed_trends.push_back({s.road, s.speed_kmh >= mean ? +1 : -1});
    seed_deviation.push_back(mean > 0.0 ? s.speed_kmh / mean - 1.0 : 0.0);
  }
  EstimateWorkspace temporary;
  EstimateWorkspace& ws = workspace != nullptr ? *workspace : temporary;
  const bool use_evidence =
      config_.use_trend_evidence && speed_model_->evidence().trained;
  const bool influence_mode =
      config_.propagation.mode == AggregationMode::kInfluence;
  const uint32_t mean_layers = std::max(
      use_evidence ? config_.evidence_backfill_hops : 0u,
      influence_mode ? config_.propagation.max_spatial_layers : 0u);
  if (!ws.plan.CompiledFor(*influence_, seeds, mean_layers)) {
    ws.plan.Compile(*influence_, *net_, seeds, mean_layers);
    ++ws.plan_compiles;
    obs::Add(obs::GetCounter(o.metrics, obs::kSeedPlanCompilesTotal));
  }
  // The influence-weighted seed-deviation aggregate is shared by both
  // steps: trend evidence in Step 1, the regression input in Step 2.
  ws.plan.Aggregate(seed_deviation, &ws.aggregate);

  // Step 1: trends.
  Output out;
  const std::vector<double>* evidence_ptr = nullptr;
  if (use_evidence) {
    const LogisticCalibration& cal = speed_model_->evidence();
    std::vector<double>& evidence = ws.evidence;
    evidence.assign(net_->num_roads(), 0.0);
    const std::vector<RoadId>& covered = ws.plan.covered();
    for (size_t i = 0; i < covered.size(); ++i) {
      evidence[covered[i]] = cal.LogOdds(ws.aggregate[i]);
    }
    // Spatial backfill: roads outside every seed's influence neighbourhood
    // inherit damped evidence from physically adjacent covered roads, so
    // the whole network gets at least weak real-time signal.
    ws.plan.neighbour_means().Apply(
        config_.evidence_backfill_hops, evidence.data(),
        [&](RoadId v, uint32_t, double sum, uint32_t cnt) {
          evidence[v] = config_.evidence_backfill_damping * sum /
                        static_cast<double>(cnt);
        });
    evidence_ptr = &evidence;
  }
  {  // Scoped so the bp_solve span closes before Step 2.
    obs::FlightSpan bp_span(flight, slot, obs::FlightStage::kBpSolve);
    TS_ASSIGN_OR_RETURN(out.trends,
                        trend_model_->Infer(slot, seed_trends, evidence_ptr));
  }

  // Step 2: speeds.
  if (influence_mode) {
    TS_ASSIGN_OR_RETURN(
        out.speeds,
        EstimateSpeedsInfluence(*net_, *db_, *speed_model_, out.trends, seeds,
                                ws.plan, ws.aggregate, seed_deviation, slot,
                                config_.propagation));
  } else {
    TS_ASSIGN_OR_RETURN(
        out.speeds,
        PropagateSpeeds(*net_, *graph_, *db_, *speed_model_, out.trends,
                        seeds, slot, config_.propagation));
  }
  obs::Add(obs::GetCounter(o.metrics, obs::kEstimatesTotal));
  if (o.metrics != nullptr) {
    obs::Observe(obs::GetHistogram(o.metrics, obs::kEstimateLatencyMs),
                 obs::NanosToMillis(obs::ElapsedNanosSince(start_ns)));
  }
  return out;
}

}  // namespace trendspeed
