#include "core/evaluator.h"

#include <memory>

#include "baseline/global_lsq.h"
#include "baseline/historical_mean.h"
#include "baseline/knn.h"
#include "baseline/label_propagation.h"
#include "baseline/matrix_completion.h"
#include "util/logging.h"
#include "util/timer.h"

namespace trendspeed {

Evaluator::Evaluator(const Dataset* dataset) : dataset_(dataset) {
  TS_CHECK(dataset != nullptr);
}

std::vector<uint64_t> Evaluator::TestSlots(uint32_t stride) const {
  TS_CHECK_GE(stride, 1u);
  std::vector<uint64_t> slots;
  for (uint64_t s = dataset_->first_test_slot(); s < dataset_->num_slots();
       s += stride) {
    slots.push_back(s);
  }
  return slots;
}

std::vector<SeedSpeed> Evaluator::ObserveSeeds(
    uint64_t slot, const std::vector<RoadId>& seeds, double noise_kmh,
    Rng* rng) const {
  std::vector<SeedSpeed> out;
  out.reserve(seeds.size());
  for (RoadId r : seeds) {
    double truth = dataset_->truth.at(slot, r);
    double observed = truth;
    if (noise_kmh > 0.0 && rng != nullptr) {
      observed = std::max(1.0, truth + rng->Gaussian(0.0, noise_kmh));
    }
    out.push_back(SeedSpeed{r, observed});
  }
  return out;
}

std::vector<int> Evaluator::TrueTrends(uint64_t slot) const {
  const RoadNetwork& net = dataset_->net;
  std::vector<int> trends(net.num_roads());
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    trends[r] = dataset_->history.TrendOf(r, slot, dataset_->truth.at(slot, r),
                                          net.road(r).free_flow_kmh);
  }
  return trends;
}

Result<EvalResult> Evaluator::Run(const MethodAdapter& method,
                                  const std::vector<RoadId>& seeds,
                                  const EvalOptions& opts) const {
  Rng rng(opts.rng_seed);
  std::vector<bool> is_seed(dataset_->net.num_roads(), false);
  for (RoadId r : seeds) is_seed[r] = true;

  std::vector<double> predicted, truth;
  EvalResult result;
  WallTimer timer;
  double estimation_seconds = 0.0;
  for (uint64_t slot : TestSlots(opts.slot_stride)) {
    std::vector<SeedSpeed> obs =
        ObserveSeeds(slot, seeds, opts.seed_noise_kmh, &rng);
    timer.Restart();
    TS_ASSIGN_OR_RETURN(std::vector<double> est, method.estimate(slot, obs));
    estimation_seconds += timer.ElapsedSeconds();
    if (est.size() != dataset_->net.num_roads()) {
      return Status::Internal(method.name + ": wrong output size");
    }
    for (RoadId r = 0; r < est.size(); ++r) {
      if (is_seed[r]) continue;  // score inference, not the free lunch
      predicted.push_back(est[r]);
      truth.push_back(dataset_->truth.at(slot, r));
    }
    ++result.slots;
  }
  result.metrics = ComputeSpeedMetrics(predicted, truth, opts.error_rate_tau);
  result.seconds_total = estimation_seconds;
  result.ms_per_slot =
      result.slots > 0 ? estimation_seconds * 1e3 / result.slots : 0.0;
  return result;
}

Result<Evaluator::RepeatedResult> Evaluator::RunRepeated(
    const MethodAdapter& method, const std::vector<RoadId>& seeds,
    const EvalOptions& opts, size_t repetitions) const {
  if (repetitions == 0) {
    return Status::InvalidArgument("repetitions must be positive");
  }
  OnlineStats mae, mape;
  for (size_t rep = 0; rep < repetitions; ++rep) {
    EvalOptions local = opts;
    local.rng_seed = opts.rng_seed + 1000003 * rep;
    TS_ASSIGN_OR_RETURN(EvalResult r, Run(method, seeds, local));
    mae.Add(r.metrics.mae);
    mape.Add(r.metrics.mape);
  }
  RepeatedResult out;
  out.mae_mean = mae.mean();
  out.mae_stddev = mae.stddev();
  out.mape_mean = mape.mean();
  out.mape_stddev = mape.stddev();
  out.repetitions = repetitions;
  return out;
}

Result<double> Evaluator::RunTrendAccuracy(
    const TrafficSpeedEstimator& estimator, const std::vector<RoadId>& seeds,
    const EvalOptions& opts) const {
  Rng rng(opts.rng_seed);
  std::vector<bool> is_seed(dataset_->net.num_roads(), false);
  for (RoadId r : seeds) is_seed[r] = true;
  std::vector<int> predicted, truth;
  for (uint64_t slot : TestSlots(opts.slot_stride)) {
    std::vector<SeedSpeed> obs =
        ObserveSeeds(slot, seeds, opts.seed_noise_kmh, &rng);
    TS_ASSIGN_OR_RETURN(TrafficSpeedEstimator::Output out,
                        estimator.Estimate(slot, obs));
    std::vector<int> true_trends = TrueTrends(slot);
    for (RoadId r = 0; r < dataset_->net.num_roads(); ++r) {
      if (is_seed[r]) continue;
      predicted.push_back(out.trends.HardTrend(r));
      truth.push_back(true_trends[r]);
    }
  }
  return TrendAccuracy(predicted, truth);
}

Result<MethodSuite> BuildMethodSuite(const Dataset& dataset,
                                     const TrafficSpeedEstimator& estimator,
                                     bool include_matrix_completion) {
  MethodSuite suite;

  suite.methods.push_back(MethodAdapter{
      "TrendSpeed",
      [&estimator](uint64_t slot, const std::vector<SeedSpeed>& seeds)
          -> Result<std::vector<double>> {
        TS_ASSIGN_OR_RETURN(TrafficSpeedEstimator::Output out,
                            estimator.Estimate(slot, seeds));
        return std::move(out.speeds.speed_kmh);
      }});

  auto hist = std::make_shared<HistoricalMeanEstimator>(&dataset.net,
                                                        &dataset.history);
  suite.owners.push_back(hist);
  suite.methods.push_back(MethodAdapter{
      "HistoricalMean",
      [hist](uint64_t slot, const std::vector<SeedSpeed>& seeds) {
        return hist->Estimate(slot, seeds);
      }});

  auto knn =
      std::make_shared<KnnEstimator>(&dataset.net, &dataset.history);
  suite.owners.push_back(knn);
  suite.methods.push_back(MethodAdapter{
      "kNN", [knn](uint64_t slot, const std::vector<SeedSpeed>& seeds) {
        return knn->Estimate(slot, seeds);
      }});

  auto lp = std::make_shared<LabelPropagationEstimator>(&dataset.net,
                                                        &dataset.history);
  suite.owners.push_back(lp);
  suite.methods.push_back(MethodAdapter{
      "LabelProp", [lp](uint64_t slot, const std::vector<SeedSpeed>& seeds) {
        return lp->Estimate(slot, seeds);
      }});

  auto lsq = std::make_shared<GlobalLsqEstimator>(&dataset.net,
                                                  &dataset.history);
  suite.owners.push_back(lsq);
  suite.methods.push_back(MethodAdapter{
      "GlobalLSQ", [lsq](uint64_t slot, const std::vector<SeedSpeed>& seeds) {
        return lsq->Estimate(slot, seeds);
      }});

  if (include_matrix_completion) {
    TS_ASSIGN_OR_RETURN(
        MatrixCompletionEstimator mc,
        MatrixCompletionEstimator::Train(&dataset.net, &dataset.history));
    auto mc_ptr = std::make_shared<MatrixCompletionEstimator>(std::move(mc));
    suite.owners.push_back(mc_ptr);
    suite.methods.push_back(MethodAdapter{
        "MatrixCompletion",
        [mc_ptr](uint64_t slot, const std::vector<SeedSpeed>& seeds) {
          return mc_ptr->Estimate(slot, seeds);
        }});
  }
  return suite;
}

}  // namespace trendspeed
