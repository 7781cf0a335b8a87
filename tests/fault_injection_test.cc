// Fault-injection harness for the hardened serving path: replays a clean
// scenario through ServingSession under injected stream faults (dropped,
// duplicated, reordered, emptied deliveries; corrupted speeds) and asserts
// the session never crashes, never serves a NaN/negative speed, rejects
// malformed input only via Status, and re-converges to the fault-free
// estimates once the faults stop.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/serving.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::FaultPlan;
using testing_util::FaultyObservationSource;
using testing_util::SharedTinyDataset;

using Delivery = FaultyObservationSource::Delivery;

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(est.ok());
    estimator_ = new TrafficSpeedEstimator(std::move(est).value());
    auto seeds = estimator_->SelectSeeds(6, SeedStrategy::kLazyGreedy);
    TS_CHECK(seeds.ok());
    seeds_ = new std::vector<RoadId>(seeds->seeds);
  }

  const Dataset& ds() { return SharedTinyDataset(); }

  /// Clean delivery schedule: truthful seed observations for `count` slots.
  std::vector<Delivery> CleanSchedule(uint64_t start, size_t count) {
    std::vector<Delivery> out;
    for (uint64_t slot = start; slot < start + count; ++slot) {
      Delivery d;
      d.slot = slot;
      for (RoadId r : *seeds_) {
        d.observations.push_back({r, std::max(1.0, ds().truth.at(slot, r))});
      }
      out.push_back(d);
    }
    return out;
  }

  /// Runs a schedule through a session; every served report must be sane.
  /// Every Ingest error must be a graceful Status (the session keeps
  /// serving afterwards — reaching the end of the loop proves no abort).
  void Replay(ServingSession* session, const std::vector<Delivery>& schedule) {
    for (const Delivery& d : schedule) {
      auto report = session->Ingest(d.slot, d.observations);
      if (!report.ok()) {
        StatusCode code = report.status().code();
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kFailedPrecondition)
            << report.status().ToString();
        continue;
      }
      EXPECT_TRUE(std::isfinite(report->monitor.mean_speed_kmh));
      EXPECT_GT(report->monitor.mean_speed_kmh, 0.0);
      for (double v : report->monitor.estimate.speeds.speed_kmh) {
        ASSERT_TRUE(std::isfinite(v));
        ASSERT_GE(v, 0.0);
      }
      for (double p : report->monitor.estimate.trends.p_up) {
        ASSERT_TRUE(std::isfinite(p));
        ASSERT_GE(p, 0.0);
        ASSERT_LE(p, 1.0);
      }
    }
  }

  static TrafficSpeedEstimator* estimator_;
  static std::vector<RoadId>* seeds_;
};

TrafficSpeedEstimator* FaultInjectionTest::estimator_ = nullptr;
std::vector<RoadId>* FaultInjectionTest::seeds_ = nullptr;

// The headline scenario: a heavy fault mix on the first stretch of the day,
// then a clean tail. The session must survive the faults, serve only sane
// numbers throughout, and end up within tolerance of a fault-free replay.
TEST_F(FaultInjectionTest, SurvivesFaultBurstAndReconverges) {
  const uint64_t start = ds().first_test_slot();
  const size_t kFaulty = 14;
  const size_t kCleanTail = 6;
  auto schedule = CleanSchedule(start, kFaulty + kCleanTail);

  // Fault-free baseline.
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  auto baseline = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(baseline.ok());
  Replay(&*baseline, schedule);
  ASSERT_TRUE(baseline->has_estimate());
  ASSERT_EQ(baseline->last_report().slot, start + kFaulty + kCleanTail - 1);

  // Faulted run: every fault class at once on the first kFaulty slots.
  FaultPlan plan;
  plan.drop_prob = 0.2;
  plan.duplicate_prob = 0.3;
  plan.empty_prob = 0.2;
  plan.corrupt_prob = 0.25;
  plan.reorder_window = 3;
  plan.seed = 20260805;
  FaultyObservationSource source(plan);
  std::vector<Delivery> faulty(schedule.begin(), schedule.begin() + kFaulty);
  faulty = source.Corrupt(faulty);
  faulty.insert(faulty.end(), schedule.begin() + kFaulty, schedule.end());

  auto session = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(session.ok());
  Replay(&*session, faulty);

  // The clean tail was served fresh, so the final estimates must match the
  // fault-free replay (the estimator is per-slot; only monitor smoothing
  // carries state, which the tolerance covers).
  ASSERT_TRUE(session->has_estimate());
  const auto& got = session->last_report();
  const auto& want = baseline->last_report();
  ASSERT_EQ(got.slot, want.slot);
  EXPECT_FALSE(got.stale);
  const auto& got_speeds = got.monitor.estimate.speeds.speed_kmh;
  const auto& want_speeds = want.monitor.estimate.speeds.speed_kmh;
  ASSERT_EQ(got_speeds.size(), want_speeds.size());
  for (size_t r = 0; r < got_speeds.size(); ++r) {
    EXPECT_NEAR(got_speeds[r], want_speeds[r], 1e-6) << "road " << r;
  }

  // Every injected fault class actually exercised a degradation path.
  const ServingStats& stats = session->stats();
  EXPECT_GT(stats.slots_estimated, 0u);
  EXPECT_GT(stats.duplicate_slots + stats.out_of_order_slots, 0u);
  EXPECT_GT(stats.observations_filtered + stats.observations_deduplicated, 0u);
  EXPECT_GT(stats.slots_carried_forward, 0u);
  EXPECT_EQ(stats.estimation_failures, 0u);
}

// Strict mode: corrupted batches are rejected via Status — never an abort,
// never a served estimate built from garbage — and the slot survives for a
// corrected re-send.
TEST_F(FaultInjectionTest, StrictModeRejectsEveryCorruptedBatch) {
  const uint64_t start = ds().first_test_slot();
  auto schedule = CleanSchedule(start, 8);

  FaultPlan plan;
  plan.corrupt_prob = 1.0;  // every observation corrupted
  FaultyObservationSource source(plan);
  auto corrupted = source.Corrupt(schedule);
  ASSERT_EQ(corrupted.size(), schedule.size());

  auto session = ServingSession::Create(estimator_);
  ASSERT_TRUE(session.ok());
  for (size_t i = 0; i < corrupted.size(); ++i) {
    auto bad = session->Ingest(corrupted[i].slot, corrupted[i].observations);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    // The corrected batch for the same slot is accepted.
    auto good = session->Ingest(schedule[i].slot, schedule[i].observations);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_FALSE(good->stale);
  }
  EXPECT_EQ(session->stats().rejected_batches, corrupted.size());
  EXPECT_EQ(session->stats().slots_estimated, schedule.size());
}

// A total outage (every batch empty) degrades through carry-forward into
// FailedPrecondition once the staleness budget is spent — and recovers the
// moment real data returns.
TEST_F(FaultInjectionTest, OutageDegradesThenRecovers) {
  const uint64_t start = ds().first_test_slot();
  ServingOptions opts;
  opts.max_stale_slots = 3;
  auto session = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(session.ok());

  auto schedule = CleanSchedule(start, 12);
  ASSERT_TRUE(
      session->Ingest(schedule[0].slot, schedule[0].observations).ok());

  size_t carried = 0, refused = 0;
  for (size_t i = 1; i < 8; ++i) {
    auto r = session->Ingest(schedule[i].slot, {});
    if (r.ok()) {
      EXPECT_TRUE(r->stale);
      ++carried;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
      ++refused;
    }
  }
  EXPECT_EQ(carried, 3u);
  EXPECT_EQ(refused, 4u);

  auto recovered = session->Ingest(schedule[8].slot, schedule[8].observations);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->stale);
  EXPECT_EQ(recovered->stale_slots, 0u);
}

// A carry-forward must leave nothing behind that shapes later inference:
// the next fresh slot's estimate is bitwise identical to a one-shot
// Estimate.
TEST_F(FaultInjectionTest, WarmStateResetsAfterCarryForward) {
  const uint64_t start = ds().first_test_slot();
  auto schedule = CleanSchedule(start, 4);
  auto session = ServingSession::Create(estimator_, ServingOptions{});
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE(
      session->Ingest(schedule[0].slot, schedule[0].observations).ok());
  ASSERT_TRUE(
      session->Ingest(schedule[1].slot, schedule[1].observations).ok());
  auto stale = session->Ingest(schedule[2].slot, {});  // carry-forward
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->stale);

  auto fresh = session->Ingest(schedule[3].slot, schedule[3].observations);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto oneshot = estimator_->Estimate(schedule[3].slot,
                                      schedule[3].observations);
  ASSERT_TRUE(oneshot.ok());
  EXPECT_EQ(fresh->monitor.estimate.trends.p_up, oneshot->trends.p_up);
}

// Idempotent duplicate-slot re-delivery must not touch session state:
// subsequent estimates are bitwise identical to a session that never saw
// the duplicate.
TEST_F(FaultInjectionTest, DuplicateSlotReplayLeavesWarmStateUntouched) {
  const uint64_t start = ds().first_test_slot();
  auto schedule = CleanSchedule(start, 3);
  ServingOptions opts;

  auto with_dup = ServingSession::Create(estimator_, opts);
  auto without = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(with_dup.ok());
  ASSERT_TRUE(without.ok());

  for (const Delivery& d : schedule) {
    auto a = with_dup->Ingest(d.slot, d.observations);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    if (d.slot == schedule[1].slot) {
      auto dup = with_dup->Ingest(d.slot, d.observations);
      ASSERT_TRUE(dup.ok());
      EXPECT_TRUE(dup->duplicate);
    }
    auto b = without->Ingest(d.slot, d.observations);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->monitor.estimate.trends.p_up,
              b->monitor.estimate.trends.p_up)
        << "slot " << d.slot;
  }
  EXPECT_EQ(with_dup->stats().duplicate_slots, 1u);
}

}  // namespace
}  // namespace trendspeed
