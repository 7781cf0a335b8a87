#include "core/monitor.h"

#include "util/logging.h"

namespace trendspeed {

OnlineTrafficMonitor::OnlineTrafficMonitor(
    const TrafficSpeedEstimator* estimator, const MonitorOptions& opts)
    : estimator_(estimator),
      opts_(opts),
      ewma_(estimator->network().num_roads(), 0.0),
      ewma_seeded_(estimator->network().num_roads(), 0),
      below_streak_(estimator->network().num_roads(), 0),
      alert_active_(estimator->network().num_roads(), false),
      observed_(estimator->network().num_roads(), 0) {
  TS_CHECK(estimator != nullptr);
  TS_CHECK_GT(opts.ewma_alpha, 0.0);
  TS_CHECK_LE(opts.ewma_alpha, 1.0);
  TS_CHECK_LT(opts.alert_deviation, opts.clear_deviation);
  TS_CHECK_LT(opts.congested_deviation, 0.0);
}

Result<OnlineTrafficMonitor::SlotReport> OnlineTrafficMonitor::Process(
    uint64_t slot, const std::vector<SeedSpeed>& observations,
    EstimateWorkspace* workspace,
    const obs::FlightSink& flight) {
  if (slots_processed_ > 0 && slot <= last_slot_) {
    return Status::InvalidArgument(
        "slots must be processed in strictly increasing order");
  }
  SlotReport report;
  TS_ASSIGN_OR_RETURN(
      report.estimate,
      estimator_->Estimate(slot, observations, workspace, flight));
  const RoadNetwork& net = estimator_->network();
  // Roads directly observed this slot: only a real observation may seed a
  // road's EWMA at full weight. Seeding every road from the first slot's
  // deviation handed unobserved roads their carried-forward/backfilled
  // deviation at full weight, which could instantly cross alert_deviation
  // before a single direct measurement existed (regression-tested in
  // monitor_test.cc). Unseeded roads instead accumulate from 0 at the
  // usual alpha, so an inferred slowdown still alarms — after the same
  // debounce every other road gets.
  for (const SeedSpeed& s : observations) {
    if (s.road < net.num_roads()) observed_[s.road] = 1;
  }
  double speed_sum = 0.0;
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    double d = report.estimate.speeds.deviation[r];
    if (!ewma_seeded_[r] && observed_[r]) {
      ewma_[r] = d;
      ewma_seeded_[r] = 1;
    } else {
      ewma_[r] =
          (1.0 - opts_.ewma_alpha) * ewma_[r] + opts_.ewma_alpha * d;
    }
    speed_sum += report.estimate.speeds.speed_kmh[r];
    if (ewma_[r] < opts_.congested_deviation) ++report.congested_roads;

    if (!alert_active_[r]) {
      if (ewma_[r] <= opts_.alert_deviation) {
        ++below_streak_[r];
        if (below_streak_[r] >= opts_.alert_after_slots) {
          alert_active_[r] = true;
          report.new_alerts.push_back(TrafficAlert{r, slot, true, ewma_[r]});
        }
      } else {
        below_streak_[r] = 0;
      }
    } else if (ewma_[r] >= opts_.clear_deviation) {
      alert_active_[r] = false;
      below_streak_[r] = 0;
      report.new_alerts.push_back(TrafficAlert{r, slot, false, ewma_[r]});
    }
  }
  for (const SeedSpeed& s : observations) {
    if (s.road < net.num_roads()) observed_[s.road] = 0;
  }
  report.mean_speed_kmh =
      speed_sum / static_cast<double>(net.num_roads());
  last_slot_ = slot;
  ++slots_processed_;
  return report;
}

std::vector<RoadId> OnlineTrafficMonitor::ActiveAlerts() const {
  std::vector<RoadId> out;
  for (RoadId r = 0; r < alert_active_.size(); ++r) {
    if (alert_active_[r]) out.push_back(r);
  }
  return out;
}

}  // namespace trendspeed
