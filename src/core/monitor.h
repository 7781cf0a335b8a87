// OnlineTrafficMonitor: the production-shaped streaming wrapper around the
// estimator. Each time slot it ingests the crowdsourced observations,
// produces all-road estimates, maintains per-road congestion state with
// hysteresis, and raises/clears alerts for sustained abnormal slowdowns
// (the incident-detection consumer the paper's introduction motivates).

#ifndef TRENDSPEED_CORE_MONITOR_H_
#define TRENDSPEED_CORE_MONITOR_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "util/status.h"

namespace trendspeed {

struct MonitorOptions {
  /// Estimated relative deviation at or below this arms a road.
  double alert_deviation = -0.3;
  /// A road must stay below the threshold for this many consecutive
  /// processed slots before an alert is raised (debounce).
  uint32_t alert_after_slots = 2;
  /// An active alert clears once the deviation recovers above this.
  double clear_deviation = -0.15;
  /// EWMA factor for the per-road smoothed deviation.
  double ewma_alpha = 0.4;
  /// A road counts toward SlotReport::congested_roads while its smoothed
  /// deviation sits below this (milder than alert_deviation: a dashboard
  /// statistic, not an alert).
  double congested_deviation = -0.15;
};

/// One raised or cleared alert.
struct TrafficAlert {
  RoadId road = kInvalidRoad;
  uint64_t slot = 0;
  bool raised = true;  ///< false = cleared
  double deviation = 0.0;
};

class OnlineTrafficMonitor {
 public:
  /// The estimator must outlive the monitor.
  OnlineTrafficMonitor(const TrafficSpeedEstimator* estimator,
                       const MonitorOptions& opts = {});

  /// Output of one processed slot.
  struct SlotReport {
    TrafficSpeedEstimator::Output estimate;
    std::vector<TrafficAlert> new_alerts;  ///< raised or cleared this slot
    double mean_speed_kmh = 0.0;
    size_t congested_roads = 0;  ///< smoothed deviation < congested_deviation
  };

  /// Processes one slot. Slots must be fed in strictly increasing order;
  /// re-sending the current slot is rejected (it would double-apply the
  /// EWMA updates and alert streaks). `workspace` (null = a temporary one)
  /// and `flight` are forwarded to the estimator, so its spans (estimate,
  /// BP solve) join the slot's causal timeline. A default (detached) sink
  /// records nothing.
  Result<SlotReport> Process(uint64_t slot,
                             const std::vector<SeedSpeed>& observations,
                             EstimateWorkspace* workspace = nullptr,
                             const obs::FlightSink& flight = {});

  /// Roads currently under an active alert.
  std::vector<RoadId> ActiveAlerts() const;

  /// Smoothed deviation of a road (0 before the first Process call).
  double SmoothedDeviation(RoadId road) const { return ewma_[road]; }

  size_t slots_processed() const { return slots_processed_; }

 private:
  const TrafficSpeedEstimator* estimator_;
  MonitorOptions opts_;
  std::vector<double> ewma_;
  /// 1 once road r's EWMA has been seeded by a directly observed slot;
  /// until then the EWMA accumulates from 0 at the normal alpha, so
  /// backfilled/carried-forward deviations can never arm a road at full
  /// weight on its first appearance.
  std::vector<uint8_t> ewma_seeded_;
  std::vector<uint32_t> below_streak_;
  std::vector<bool> alert_active_;
  /// 1 for the roads observed in the slot being processed; all 0 between
  /// Process calls, so each slot clears only the roads it set.
  std::vector<uint8_t> observed_;
  uint64_t last_slot_ = 0;
  size_t slots_processed_ = 0;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_MONITOR_H_
