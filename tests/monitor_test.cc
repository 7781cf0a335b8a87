// The session's incident alerting (ServingSession's per-road EWMA, debounce
// and hysteresis), driven through Ingest as a served stream drives it.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/serving.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

class MonitorTest : public ::testing::Test {
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

  ServingSession Session(const MonitorOptions& mopts = {}) {
    ServingOptions opts;
    opts.monitor = mopts;
    auto session = ServingSession::Create(estimator_, opts);
    TS_CHECK(session.ok()) << session.status().ToString();
    return std::move(session).value();
  }

  static TrafficSpeedEstimator* estimator_;
};

TrafficSpeedEstimator* MonitorTest::estimator_ = nullptr;

std::vector<SeedSpeed> TrueSeeds(const Dataset& ds,
                                 const std::vector<RoadId>& roads,
                                 uint64_t slot, double factor = 1.0) {
  std::vector<SeedSpeed> out;
  for (RoadId r : roads) {
    out.push_back({r, std::max(1.0, ds.truth.at(slot, r) * factor)});
  }
  return out;
}

TEST_F(MonitorTest, ProcessesSlotsAndReports) {
  ServingSession session = Session();
  auto seeds = estimator_->SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t start = ds().first_test_slot();
  for (uint64_t slot = start; slot < start + 5; ++slot) {
    auto report = session.Ingest(slot, TrueSeeds(ds(), seeds->seeds, slot));
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->monitor.mean_speed_kmh, 0.0);
    EXPECT_EQ(report->monitor.estimate.speeds.speed_kmh.size(),
              ds().net.num_roads());
  }
  EXPECT_EQ(session.stats().slots_estimated, 5u);
}

TEST_F(MonitorTest, RejectsOutOfOrderSlots) {
  ServingSession session = Session();
  auto seeds = estimator_->SelectSeeds(4, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t start = ds().first_test_slot();
  ASSERT_TRUE(session.Ingest(start + 3, TrueSeeds(ds(), seeds->seeds,
                                                  start + 3))
                  .ok());
  EXPECT_FALSE(
      session.Ingest(start + 1, TrueSeeds(ds(), seeds->seeds, start + 1))
          .ok());
}

TEST_F(MonitorTest, SustainedSlowdownRaisesAlertThenClears) {
  MonitorOptions mopts;
  mopts.alert_deviation = -0.25;
  mopts.alert_after_slots = 2;
  mopts.clear_deviation = -0.1;
  mopts.ewma_alpha = 1.0;  // no smoothing: deterministic thresholds
  ServingSession session = Session(mopts);
  auto seeds = estimator_->SelectSeeds(8, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t start = ds().first_test_slot();

  // Feed seeds reporting HALF their true speeds: network-wide slowdown.
  size_t raised = 0;
  for (uint64_t slot = start; slot < start + 4; ++slot) {
    auto report =
        session.Ingest(slot, TrueSeeds(ds(), seeds->seeds, slot, 0.45));
    ASSERT_TRUE(report.ok());
    for (const TrafficAlert& a : report->monitor.new_alerts) {
      if (a.raised) ++raised;
    }
  }
  EXPECT_GT(raised, 0u);
  EXPECT_FALSE(session.ActiveAlerts().empty());

  // Recovery: seeds report ABOVE their historical norms; alerts clear.
  size_t cleared = 0;
  for (uint64_t slot = start + 4; slot < start + 10; ++slot) {
    auto report =
        session.Ingest(slot, TrueSeeds(ds(), seeds->seeds, slot, 1.4));
    ASSERT_TRUE(report.ok());
    for (const TrafficAlert& a : report->monitor.new_alerts) {
      if (!a.raised) ++cleared;
    }
  }
  EXPECT_GT(cleared, 0u);
  EXPECT_TRUE(session.ActiveAlerts().empty());
}

TEST_F(MonitorTest, DebounceSuppressesOneSlotBlips) {
  MonitorOptions mopts;
  mopts.alert_deviation = -0.25;
  mopts.alert_after_slots = 3;  // needs 3 consecutive bad slots
  mopts.ewma_alpha = 1.0;
  ServingSession session = Session(mopts);
  auto seeds = estimator_->SelectSeeds(8, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t start = ds().first_test_slot();
  // One bad slot surrounded by normal slots: no alert may fire.
  auto r1 = session.Ingest(start, TrueSeeds(ds(), seeds->seeds, start));
  auto r2 =
      session.Ingest(start + 1, TrueSeeds(ds(), seeds->seeds, start + 1, 0.4));
  auto r3 = session.Ingest(start + 2, TrueSeeds(ds(), seeds->seeds, start + 2,
                                                 1.2));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r1->monitor.new_alerts.empty());
  EXPECT_TRUE(r2->monitor.new_alerts.empty());
  EXPECT_TRUE(session.ActiveAlerts().empty());
}

TEST_F(MonitorTest, DuplicateSlotReplaysWithoutDoubleApply) {
  ServingSession session = Session();
  auto seeds = estimator_->SelectSeeds(4, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t start = ds().first_test_slot();
  auto obs = TrueSeeds(ds(), seeds->seeds, start, 0.5);
  ASSERT_TRUE(session.Ingest(start, obs).ok());
  RoadId probe = seeds->seeds[0];
  double dev = session.SmoothedDeviation(probe);

  // Re-sending the current slot replays the served report; it must not
  // double-apply the EWMA update or the alert streaks.
  auto replay = session.Ingest(start, obs);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->duplicate);
  EXPECT_EQ(session.stats().slots_estimated, 1u);
  EXPECT_EQ(session.SmoothedDeviation(probe), dev);
}

TEST_F(MonitorTest, CongestedDeviationThresholdIsConfigurable) {
  MonitorOptions loose;  // default congested_deviation = -0.15
  loose.ewma_alpha = 1.0;
  MonitorOptions tight = loose;
  tight.congested_deviation = -0.95;  // speeds would have to drop ~20x
  ServingSession loose_session = Session(loose);
  ServingSession tight_session = Session(tight);
  auto seeds = estimator_->SelectSeeds(8, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t start = ds().first_test_slot();
  auto obs = TrueSeeds(ds(), seeds->seeds, start, 0.45);  // heavy slowdown
  auto loose_report = loose_session.Ingest(start, obs);
  auto tight_report = tight_session.Ingest(start, obs);
  ASSERT_TRUE(loose_report.ok());
  ASSERT_TRUE(tight_report.ok());
  EXPECT_GT(loose_report->monitor.congested_roads, 0u);
  EXPECT_EQ(tight_report->monitor.congested_roads, 0u);
}

TEST_F(MonitorTest, UnobservedRoadsAreNotSeededAtFullWeight) {
  MonitorOptions mopts;
  mopts.alert_deviation = -0.3;
  mopts.alert_after_slots = 1;  // alert the moment the EWMA crosses
  mopts.ewma_alpha = 0.4;
  ServingSession session = Session(mopts);
  auto seeds = estimator_->SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  std::vector<bool> observed(ds().net.num_roads(), false);
  for (RoadId r : seeds->seeds) observed[r] = true;

  uint64_t start = ds().first_test_slot();
  auto report =
      session.Ingest(start, TrueSeeds(ds(), seeds->seeds, start, 0.45));
  ASSERT_TRUE(report.ok());

  // Precondition: the propagated slowdown pushes some *unobserved* roads
  // past the alert threshold on this very first slot (but not so far past
  // that even an alpha-weighted first step would legitimately alarm).
  size_t past_threshold = 0;
  for (RoadId r = 0; r < ds().net.num_roads(); ++r) {
    double d = report->monitor.estimate.speeds.deviation[r];
    if (!observed[r] && d <= mopts.alert_deviation && d > -0.7) {
      ++past_threshold;
    }
  }
  ASSERT_GT(past_threshold, 0u);

  // None of those roads may alarm: their deviation is inferred, not
  // measured, so the EWMA must accumulate from 0 (0.4 * d > -0.3 for every
  // d > -0.75) instead of being seeded at full weight on slot one (which
  // made ewma == d <= alert_deviation: an instant alert from a road nobody
  // drove down).
  for (const TrafficAlert& a : report->monitor.new_alerts) {
    if (a.raised && report->monitor.estimate.speeds.deviation[a.road] > -0.7) {
      EXPECT_TRUE(observed[a.road])
          << "unobserved road " << a.road
          << " alerted on its first, inferred-only slot";
    }
  }

  // Observed roads keep the old contract: first measured slot seeds the
  // EWMA at full weight, so smoothed == raw deviation.
  RoadId probe = seeds->seeds[0];
  EXPECT_NEAR(session.SmoothedDeviation(probe),
              report->monitor.estimate.speeds.deviation[probe], 1e-12);

  // Sensitivity is delayed, not lost: a *sustained* inferred slowdown still
  // walks the EWMA across the threshold within a few slots.
  std::vector<RoadId> strongly_down;
  for (RoadId r = 0; r < ds().net.num_roads(); ++r) {
    if (!observed[r] && report->monitor.estimate.speeds.deviation[r] <= -0.45) {
      strongly_down.push_back(r);
    }
  }
  for (uint64_t slot = start + 1; slot < start + 5; ++slot) {
    ASSERT_TRUE(
        session.Ingest(slot, TrueSeeds(ds(), seeds->seeds, slot, 0.45)).ok());
  }
  if (!strongly_down.empty()) {
    auto active = session.ActiveAlerts();
    bool any = false;
    for (RoadId r : strongly_down) {
      if (std::find(active.begin(), active.end(), r) != active.end()) {
        any = true;
      }
    }
    EXPECT_TRUE(any) << "sustained inferred slowdown never alerted";
  }
}

TEST_F(MonitorTest, SmoothedDeviationTracksEwma) {
  MonitorOptions mopts;
  mopts.ewma_alpha = 0.5;
  ServingSession session = Session(mopts);
  auto seeds = estimator_->SelectSeeds(4, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t start = ds().first_test_slot();
  auto r1 = session.Ingest(start, TrueSeeds(ds(), seeds->seeds, start));
  ASSERT_TRUE(r1.ok());
  // After the first slot, smoothed == raw deviation.
  RoadId probe = seeds->seeds[0];
  EXPECT_NEAR(session.SmoothedDeviation(probe),
              r1->monitor.estimate.speeds.deviation[probe], 1e-12);
  // Each later served slot blends at alpha.
  const double prev = session.SmoothedDeviation(probe);
  auto r2 = session.Ingest(start + 1, TrueSeeds(ds(), seeds->seeds, start + 1));
  ASSERT_TRUE(r2.ok());
  EXPECT_NEAR(session.SmoothedDeviation(probe),
              0.5 * prev + 0.5 * r2->monitor.estimate.speeds.deviation[probe],
              1e-12);
}

}  // namespace
}  // namespace trendspeed
