#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ingest.h"
#include "core/model_io.h"
#include "core/serving.h"
#include "obs/flight.h"
#include "test_util.h"
#include "util/binary_io.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

class ServingTest : public ::testing::Test {
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

  /// Truthful observations for the shared seed set at `slot`.
  std::vector<SeedSpeed> CleanObs(uint64_t slot, double factor = 1.0) {
    std::vector<SeedSpeed> out;
    for (RoadId r : *seeds_) {
      out.push_back({r, std::max(1.0, ds().truth.at(slot, r) * factor)});
    }
    return out;
  }

  /// A crowd-like batch for `slot`: every third road reported one to six
  /// times around its true speed (most three or more times), plus one
  /// malformed report of each kind. The road set is the same every slot.
  std::vector<SeedSpeed> CrowdBatch(uint64_t slot) {
    Rng rng(slot, 7);
    const size_t n = ds().net.num_roads();
    std::vector<SeedSpeed> out;
    for (RoadId r = 0; r < n; r += 3) {
      const size_t reports = 1 + rng.NextIndex(6);
      for (size_t k = 0; k < reports; ++k) {
        out.push_back({r, std::max(1.0, ds().truth.at(slot, r) +
                                            rng.Gaussian(0.0, 4.0))});
      }
    }
    out.push_back({0, std::numeric_limits<double>::quiet_NaN()});
    out.push_back({3, -2.0});
    out.push_back({6, 1.0e6});
    out.push_back({static_cast<RoadId>(n), 40.0});
    return out;
  }

  ServingSession Session(const ServingOptions& opts = {}) {
    auto session = ServingSession::Create(estimator_, opts);
    TS_CHECK(session.ok()) << session.status().ToString();
    return std::move(session).value();
  }

  static TrafficSpeedEstimator* estimator_;
  static std::vector<RoadId>* seeds_;
};

TrafficSpeedEstimator* ServingTest::estimator_ = nullptr;
std::vector<RoadId>* ServingTest::seeds_ = nullptr;

TEST_F(ServingTest, CreateValidatesArguments) {
  EXPECT_FALSE(ServingSession::Create(nullptr).ok());
  ServingOptions opts;
  opts.monitor.ewma_alpha = 0.0;
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  opts = ServingOptions{};
  opts.monitor.congested_deviation = 0.0;
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  opts = ServingOptions{};
  opts.monitor.alert_deviation = opts.monitor.clear_deviation;
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  opts = ServingOptions{};
  opts.monitor.alert_after_slots = 0;
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  opts = ServingOptions{};
  opts.max_speed_kmh = 0.0;
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  opts.max_speed_kmh = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
}

TEST_F(ServingTest, ServesCleanSlots) {
  ServingSession session = Session();
  uint64_t start = ds().first_test_slot();
  for (uint64_t slot = start; slot < start + 3; ++slot) {
    auto report = session.Ingest(slot, CleanObs(slot));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->slot, slot);
    EXPECT_FALSE(report->stale);
    EXPECT_FALSE(report->duplicate);
    EXPECT_EQ(report->observations_used, seeds_->size());
    EXPECT_EQ(report->observations_dropped, 0u);
    EXPECT_GT(report->monitor.mean_speed_kmh, 0.0);
  }
  EXPECT_EQ(session.stats().slots_estimated, 3u);
  EXPECT_EQ(session.stats().rejected_batches, 0u);
}

TEST_F(ServingTest, StrictValidationRejectsMalformedBatches) {
  ServingSession session = Session();
  uint64_t slot = ds().first_test_slot();

  auto bad = CleanObs(slot);
  bad[0].speed_kmh = std::numeric_limits<double>::quiet_NaN();
  auto r = session.Ingest(slot, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  bad = CleanObs(slot);
  bad[1].speed_kmh = -5.0;
  EXPECT_FALSE(session.Ingest(slot, bad).ok());

  bad = CleanObs(slot);
  bad[2].speed_kmh = 1.0e6;  // > max_speed_kmh
  EXPECT_FALSE(session.Ingest(slot, bad).ok());

  bad = CleanObs(slot);
  bad[0].road = static_cast<RoadId>(ds().net.num_roads());
  EXPECT_FALSE(session.Ingest(slot, bad).ok());

  EXPECT_EQ(session.stats().rejected_batches, 4u);
  // The slot was never consumed: a corrected batch is still accepted.
  auto ok = session.Ingest(slot, CleanObs(slot));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->stale);
}

TEST_F(ServingTest, FilterValidationDropsAndCounts) {
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  ServingSession session = Session(opts);
  uint64_t slot = ds().first_test_slot();

  auto obs = CleanObs(slot);
  obs[0].speed_kmh = std::numeric_limits<double>::quiet_NaN();
  obs[1].speed_kmh = -3.0;
  auto report = session.Ingest(slot, obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->observations_used, obs.size() - 2);
  EXPECT_EQ(report->observations_dropped, 2u);
  EXPECT_EQ(session.stats().observations_filtered, 2u);
  EXPECT_EQ(session.stats().observations_deduplicated, 0u);
}

// Regression: filtered and deduplicated observations used to share one
// conflated `observations_dropped` counter, making data-quality alerting
// impossible. Each kind must land in its own ServingStats field.
TEST_F(ServingTest, FilteredAndDeduplicatedCountedSeparately) {
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  ServingSession session = Session(opts);
  uint64_t slot = ds().first_test_slot();

  auto obs = CleanObs(slot);
  obs.push_back({obs[0].road, obs[0].speed_kmh});  // duplicate road
  obs.push_back({obs[1].road, -3.0});              // malformed -> filtered
  auto report = session.Ingest(slot, obs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(session.stats().observations_filtered, 1u);
  EXPECT_EQ(session.stats().observations_deduplicated, 1u);
  // The per-slot report still shows the combined removals.
  EXPECT_EQ(report->observations_dropped, 2u);
}

TEST_F(ServingTest, DuplicateRoadsAreAveraged) {
  uint64_t slot = ds().first_test_slot();
  RoadId road = (*seeds_)[0];

  // Reference session fed a single observation of 40 km/h.
  auto single = [&](double speed) {
    ServingSession s = Session();
    auto r = s.Ingest(slot, {{road, speed}});
    TS_CHECK(r.ok()) << r.status().ToString();
    return r->monitor.estimate.speeds.speed_kmh;
  };
  std::vector<double> ref_mean = single(40.0);

  ServingSession s = Session();
  auto mean = s.Ingest(slot, {{road, 30.0}, {road, 50.0}});
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean->observations_used, 1u);
  EXPECT_EQ(mean->observations_dropped, 1u);
  EXPECT_EQ(mean->monitor.estimate.speeds.speed_kmh, ref_mean);
  EXPECT_EQ(s.stats().observations_deduplicated, 1u);
  EXPECT_EQ(s.stats().observations_filtered, 0u);
}

// Dedup state is per batch: consecutive slots (and a strict-rejected batch
// between them) that repeat the same roads each merge only their own
// duplicates, so the second slot serves exactly what a fresh session fed
// the averaged batch serves.
TEST_F(ServingTest, ConsecutiveSlotsDeduplicateIndependently) {
  uint64_t slot = ds().first_test_slot();
  RoadId a = (*seeds_)[0];
  RoadId b = (*seeds_)[1];

  ServingSession s = Session();
  auto first = s.Ingest(slot, {{a, 30.0}, {a, 50.0}, {b, 60.0}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->observations_used, 2u);
  EXPECT_EQ(first->observations_dropped, 1u);

  auto rejected = s.Ingest(
      slot + 1, {{a, 40.0}, {b, std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_FALSE(rejected.ok());

  auto second = s.Ingest(slot + 1, {{a, 20.0}, {b, 70.0}, {b, 90.0}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->observations_used, 2u);
  EXPECT_EQ(second->observations_dropped, 1u);
  EXPECT_EQ(s.stats().observations_deduplicated, 2u);

  ServingSession fresh = Session();
  auto ref = fresh.Ingest(slot + 1, {{a, 20.0}, {b, 80.0}});
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(second->monitor.estimate.speeds.speed_kmh,
            ref->monitor.estimate.speeds.speed_kmh);
  EXPECT_EQ(second->monitor.estimate.speeds.deviation,
            ref->monitor.estimate.speeds.deviation);
}

// A slot's output is a function of the admitted multiset: every
// permutation of a crowd batch serves the same bits, and a session whose
// road set stays fixed compiles its seed-set plan once.
TEST_F(ServingTest, PermutedCrowdBatchesServeIdenticalBitsFromOnePlan) {
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  const uint64_t start = ds().first_test_slot();
  constexpr uint64_t kSlots = 4;
  std::vector<SpeedEstimateResult> ref;
  for (uint64_t perm = 0; perm < 24; ++perm) {
    ServingSession session = Session(opts);
    Rng rng(perm, 3);
    for (uint64_t i = 0; i < kSlots; ++i) {
      std::vector<SeedSpeed> batch = CrowdBatch(start + i);
      if (perm > 0) rng.Shuffle(&batch);
      auto report = session.Ingest(start + i, batch);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      const SpeedEstimateResult& speeds = report->monitor.estimate.speeds;
      if (perm == 0) {
        ref.push_back(speeds);
        continue;
      }
      EXPECT_EQ(speeds.speed_kmh, ref[i].speed_kmh)
          << "permutation " << perm << ", slot " << i;
      EXPECT_EQ(speeds.deviation, ref[i].deviation)
          << "permutation " << perm << ", slot " << i;
    }
    EXPECT_EQ(session.estimate_workspace().plan_compiles, 1u)
        << "permutation " << perm;
  }
}

// The same contract through the MPSC front-end: two producer threads
// interleave each slot's reports in whatever order they race to, and the
// session serves the bits a direct Ingest of the batch serves.
TEST_F(ServingTest, TwoProducerFrontEndServesTheDirectBits) {
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  opts.ingest_queue.capacity = 1024;
  const uint64_t start = ds().first_test_slot();
  constexpr uint64_t kSlots = 4;
  std::vector<SpeedEstimateResult> ref;
  ServingSession direct = Session(opts);
  for (uint64_t i = 0; i < kSlots; ++i) {
    auto report = direct.Ingest(start + i, CrowdBatch(start + i));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ref.push_back(report->monitor.estimate.speeds);
  }
  for (int run = 0; run < 5; ++run) {
    ServingSession session = Session(opts);
    auto front = IngestFrontEnd::Create(&session);
    ASSERT_TRUE(front.ok()) << front.status().ToString();
    for (uint64_t i = 0; i < kSlots; ++i) {
      const uint64_t slot = start + i;
      const std::vector<SeedSpeed> batch = CrowdBatch(slot);
      std::vector<std::thread> producers;
      for (size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
          for (size_t k = p; k < batch.size(); k += 2) {
            EXPECT_TRUE((*front)->Offer(slot, batch[k]));
          }
        });
      }
      for (std::thread& t : producers) t.join();
      auto report = (*front)->Flush();
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      const SpeedEstimateResult& speeds = report->monitor.estimate.speeds;
      EXPECT_EQ(speeds.speed_kmh, ref[i].speed_kmh)
          << "run " << run << ", slot " << i;
      EXPECT_EQ(speeds.deviation, ref[i].deviation)
          << "run " << run << ", slot " << i;
    }
    EXPECT_EQ(session.estimate_workspace().plan_compiles, 1u) << "run " << run;
  }
}

// Thousands of reports at the largest admissible speed: 5,000 x 2^52 units
// is past 2^64, so a 64-bit merge sum would wrap. Both means below are
// exact, so the merged batch must serve what one report of the mean serves.
TEST_F(ServingTest, MergeAtSpeedCeilingDoesNotOverflow) {
  ServingOptions opts;
  opts.max_speed_kmh = ServingOptions::kMaxSpeedCeilingKmh;
  const uint64_t slot = ds().first_test_slot();
  const RoadId road = (*seeds_)[0];
  auto served = [&](const std::vector<SeedSpeed>& batch) {
    ServingSession s = Session(opts);
    auto r = s.Ingest(slot, batch);
    TS_CHECK(r.ok()) << r.status().ToString();
    return r->monitor.estimate.speeds.speed_kmh;
  };
  const double top = ServingOptions::kMaxSpeedCeilingKmh;
  std::vector<SeedSpeed> batch(5000, SeedSpeed{road, top});
  EXPECT_EQ(served(batch), served({{road, top}}));
  for (size_t i = 0; i < batch.size(); i += 2) batch[i].speed_kmh = 1.0;
  EXPECT_EQ(served(batch), served({{road, top / 2 + 0.5}}));
}

TEST_F(ServingTest, DuplicateSlotIsIdempotent) {
  ServingSession session = Session();
  uint64_t slot = ds().first_test_slot();
  auto fresh = session.Ingest(slot, CleanObs(slot));
  ASSERT_TRUE(fresh.ok());

  // Re-delivery — even with different (here: absurd) payload — returns the
  // cached report and mutates nothing.
  auto replay = session.Ingest(slot, CleanObs(slot, 0.1));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->duplicate);
  EXPECT_EQ(replay->monitor.estimate.speeds.speed_kmh,
            fresh->monitor.estimate.speeds.speed_kmh);
  EXPECT_EQ(session.stats().duplicate_slots, 1u);
  EXPECT_EQ(session.stats().slots_estimated, 1u);

  auto next = session.Ingest(slot + 1, CleanObs(slot + 1));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
}

TEST_F(ServingTest, OutOfOrderSlotRejectedGracefully) {
  ServingSession session = Session();
  uint64_t start = ds().first_test_slot();
  ASSERT_TRUE(session.Ingest(start + 3, CleanObs(start + 3)).ok());
  auto late = session.Ingest(start + 1, CleanObs(start + 1));
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.stats().out_of_order_slots, 1u);
  // Session keeps serving.
  EXPECT_TRUE(session.Ingest(start + 4, CleanObs(start + 4)).ok());
}

TEST_F(ServingTest, EmptySlotCarriesForwardLastGoodEstimate) {
  ServingSession session = Session();
  uint64_t start = ds().first_test_slot();
  auto fresh = session.Ingest(start, CleanObs(start));
  ASSERT_TRUE(fresh.ok());

  auto stale1 = session.Ingest(start + 1, {});
  ASSERT_TRUE(stale1.ok()) << stale1.status().ToString();
  EXPECT_TRUE(stale1->stale);
  EXPECT_EQ(stale1->stale_slots, 1u);
  EXPECT_EQ(stale1->slot, start + 1);
  EXPECT_TRUE(stale1->monitor.new_alerts.empty());
  EXPECT_EQ(stale1->monitor.estimate.speeds.speed_kmh,
            fresh->monitor.estimate.speeds.speed_kmh);

  auto stale2 = session.Ingest(start + 2, {});
  ASSERT_TRUE(stale2.ok());
  EXPECT_EQ(stale2->stale_slots, 2u);
  EXPECT_EQ(session.stats().slots_carried_forward, 2u);

  // Fresh data ends the staleness streak.
  auto recovered = session.Ingest(start + 3, CleanObs(start + 3));
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->stale);
  EXPECT_EQ(recovered->stale_slots, 0u);
}

// A model with a NaN coefficient in one road's line estimates a NaN speed
// for that road whenever the road is inferred rather than observed. Every
// such slot is refused and carried forward, and alert state must move only
// with the slots the session serves.
TEST_F(ServingTest, RefusedSlotsMoveNoAlertState) {
  const size_t n = ds().net.num_roads();
  const uint64_t start = ds().first_test_slot();
  const HierarchicalSpeedModel& speed = estimator_->speed_model();
  auto clean = estimator_->Estimate(start, CleanObs(start));
  ASSERT_TRUE(clean.ok());
  // An inferred road that Step 2 serves from its own road-level line.
  RoadId bad = kInvalidRoad;
  for (RoadId r = 0; r < n && bad == kInvalidRoad; ++r) {
    const uint32_t layer = clean->speeds.layer[r];
    if (layer != 0 && layer != kUnreachedLayer &&
        speed.LevelFor(r, /*has_x=*/true) == ModelLevel::kRoad) {
      bad = r;
    }
  }
  ASSERT_NE(bad, kInvalidRoad);

  // The speed model is the file's last section: tag and version, six
  // option fields, the road-class vector (length, one byte per road), then
  // the road-line vector (length, entries).
  std::string bytes = SerializeTrainedModel(*estimator_);
  BinaryWriter speed_section;
  speed.Serialize(&speed_section);
  const size_t coefficient = bytes.size() - speed_section.buffer().size() +
                             8 + 40 + 8 + n + 8 +
                             bad * sizeof(WeightedTrendModel) +
                             offsetof(WeightedTrendModel, c);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&bytes[coefficient], &nan, sizeof(nan));
  auto patched = DeserializeTrainedModel(&ds().net, &ds().history, bytes);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();

  auto created = ServingSession::Create(&*patched, {});
  ASSERT_TRUE(created.ok());
  ServingSession session = std::move(created).value();
  // A sustained slowdown. Even slots also observe `bad`, so its line goes
  // unused and the slot is served; odd slots infer it and are refused.
  std::set<RoadId> reported_active;
  uint64_t refused = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    const uint64_t slot = start + i;
    std::vector<SeedSpeed> obs = CleanObs(slot, 0.45);
    if (i % 2 == 0) {
      obs.push_back({bad, std::max(1.0, ds().truth.at(slot, bad) * 0.45)});
    }
    std::vector<double> before(n);
    for (RoadId r = 0; r < n; ++r) before[r] = session.SmoothedDeviation(r);
    auto report = session.Ingest(slot, obs);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->stale, i % 2 == 1) << "slot " << i;
    if (report->stale) {
      ++refused;
      EXPECT_TRUE(report->monitor.new_alerts.empty());
      for (RoadId r = 0; r < n; ++r) {
        EXPECT_EQ(session.SmoothedDeviation(r), before[r])
            << "refused slot " << i << " moved road " << r;
      }
    }
    for (const TrafficAlert& a : report->monitor.new_alerts) {
      if (a.raised) {
        reported_active.insert(a.road);
      } else {
        reported_active.erase(a.road);
      }
    }
  }
  EXPECT_EQ(refused, 5u);
  EXPECT_EQ(session.stats().estimation_failures, refused);
  EXPECT_FALSE(reported_active.empty());
  EXPECT_EQ(session.ActiveAlerts(),
            std::vector<RoadId>(reported_active.begin(),
                                reported_active.end()));
}

TEST_F(ServingTest, NoCarryForwardBeforeFirstEstimate) {
  ServingSession session = Session();
  auto r = session.Ingest(ds().first_test_slot(), {});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(session.has_estimate());
}

TEST_F(ServingTest, StalenessLimitStopsCarryForward) {
  ServingOptions opts;
  opts.max_stale_slots = 2;
  ServingSession session = Session(opts);
  uint64_t start = ds().first_test_slot();
  ASSERT_TRUE(session.Ingest(start, CleanObs(start)).ok());
  ASSERT_TRUE(session.Ingest(start + 1, {}).ok());
  ASSERT_TRUE(session.Ingest(start + 2, {}).ok());
  auto over = session.Ingest(start + 3, {});
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition);
  // A fresh batch still recovers the session.
  auto recovered = session.Ingest(start + 4, CleanObs(start + 4));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->stale);
}

TEST_F(ServingTest, CarryForwardDisabledWithZeroLimit) {
  ServingOptions opts;
  opts.max_stale_slots = 0;
  ServingSession session = Session(opts);
  uint64_t start = ds().first_test_slot();
  ASSERT_TRUE(session.Ingest(start, CleanObs(start)).ok());
  EXPECT_FALSE(session.Ingest(start + 1, {}).ok());
}

// With a flight recorder attached, every Ingest return path records exactly
// one `ingest` envelope for its slot, and the envelope brackets the stages
// the call ran; a detached session records nothing.
TEST_F(ServingTest, EveryIngestPathRecordsOneIngestEnvelope) {
  obs::FlightRecorder flight;
  ServingOptions opts;
  opts.observability.flight = &flight;
  ServingSession session = Session(opts);
  auto envelopes = [&](uint64_t slot) {
    std::vector<obs::FlightEvent> out;
    for (const obs::FlightEvent& e : flight.CollectSlot(slot)) {
      if (e.stage == obs::FlightStage::kIngest) out.push_back(e);
    }
    return out;
  };
  const uint64_t start = ds().first_test_slot();

  // Fresh.
  ASSERT_TRUE(session.Ingest(start + 1, CleanObs(start + 1)).ok());
  std::vector<obs::FlightEvent> fresh = envelopes(start + 1);
  ASSERT_EQ(fresh.size(), 1u);
  for (const obs::FlightEvent& e : flight.CollectSlot(start + 1)) {
    EXPECT_GE(e.start_ns, fresh[0].start_ns);
    EXPECT_LE(e.start_ns + e.duration_ns,
              fresh[0].start_ns + fresh[0].duration_ns);
  }

  // Duplicate: the re-delivery adds one envelope to the same slot.
  auto dup = session.Ingest(start + 1, CleanObs(start + 1));
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->duplicate);
  EXPECT_EQ(envelopes(start + 1).size(), 2u);

  // Out-of-order.
  auto late = session.Ingest(start, CleanObs(start));
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(envelopes(start).size(), 1u);

  // Rejected kStrict batch.
  std::vector<SeedSpeed> bad = CleanObs(start + 2);
  bad[0].speed_kmh = -5.0;
  auto rejected = session.Ingest(start + 2, bad);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(envelopes(start + 2).size(), 1u);

  // Carry-forward.
  auto stale = session.Ingest(start + 3, {});
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale->stale);
  EXPECT_EQ(envelopes(start + 3).size(), 1u);
  EXPECT_EQ(session.stats().duplicate_slots, 1u);
  EXPECT_EQ(session.stats().out_of_order_slots, 1u);
  EXPECT_EQ(session.stats().rejected_batches, 1u);
  EXPECT_EQ(session.stats().slots_carried_forward, 1u);

  // Detached: the same sequence leaves the recorder untouched.
  const size_t recorded = flight.Collect().size();
  ServingSession detached = Session();
  ASSERT_TRUE(detached.Ingest(start + 1, CleanObs(start + 1)).ok());
  ASSERT_TRUE(detached.Ingest(start + 1, CleanObs(start + 1)).ok());
  EXPECT_FALSE(detached.Ingest(start, CleanObs(start)).ok());
  EXPECT_FALSE(detached.Ingest(start + 2, bad).ok());
  ASSERT_TRUE(detached.Ingest(start + 3, {}).ok());
  EXPECT_EQ(flight.Collect().size(), recorded);
}

}  // namespace
}  // namespace trendspeed
