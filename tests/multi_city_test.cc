// Several cities in one process: each city is a plain ServingSession, and
// the sessions share only ThreadPool::Global() and, optionally, one
// MetricsRegistry. Pins that two sessions ingesting concurrently from two
// threads serve exactly what each would serve alone — speeds, carry-forward
// and stats — that the fleet total is the sum of the sessions' stats, that
// sessions pointed at one registry sum into its counters (one scrape
// endpoint for the whole fleet), and that sessions on two threads can share
// one flight recorder's ring.

#include <algorithm>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serving.h"
#include "obs/catalog.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

// Two "cities" over the shared tiny dataset: same road network, different
// estimation configurations (the served one-sweep schedule, which runs the
// SIMD kernel where the CPU can, and two sweeps, which run the scalar
// oracle) — a mixed fleet in one process.
class MultiCityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    auto def = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(def.ok()) << def.status().ToString();
    default_ = new TrafficSpeedEstimator(std::move(def).value());

    config.trend.bp.max_iters = 2;
    auto scalar = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(scalar.ok()) << scalar.status().ToString();
    scalar_ = new TrafficSpeedEstimator(std::move(scalar).value());

    auto seeds = default_->SelectSeeds(6, SeedStrategy::kLazyGreedy);
    TS_CHECK(seeds.ok());
    seeds_ = new std::vector<RoadId>(seeds->seeds);
  }

  const Dataset& ds() { return SharedTinyDataset(); }

  std::vector<SeedSpeed> Obs(uint64_t slot, double factor) {
    std::vector<SeedSpeed> out;
    for (RoadId r : *seeds_) {
      out.push_back({r, std::max(1.0, ds().truth.at(slot, r) * factor)});
    }
    return out;
  }

  // One city's stream: slot `base + s` gets the truth scaled by a factor
  // that cycles with s; `degraded_step` (if any) gets an empty batch.
  std::vector<std::vector<SeedSpeed>> Stream(size_t slots,
                                             size_t degraded_step) {
    std::vector<std::vector<SeedSpeed>> out;
    uint64_t base = ds().first_test_slot();
    for (size_t s = 0; s < slots; ++s) {
      double factor = 0.9 + 0.05 * static_cast<double>(s % 3);
      out.push_back(s == degraded_step ? std::vector<SeedSpeed>{}
                                       : Obs(base + s, factor));
    }
    return out;
  }

  // Runs `stream` through `session` from slot first_test_slot() on.
  std::vector<Result<ServingSession::SlotReport>> Serve(
      ServingSession* session,
      const std::vector<std::vector<SeedSpeed>>& stream) {
    std::vector<Result<ServingSession::SlotReport>> out;
    uint64_t base = ds().first_test_slot();
    for (size_t s = 0; s < stream.size(); ++s) {
      out.push_back(session->Ingest(base + s, stream[s]));
    }
    return out;
  }

  static TrafficSpeedEstimator* default_;
  static TrafficSpeedEstimator* scalar_;
  static std::vector<RoadId>* seeds_;
};

TrafficSpeedEstimator* MultiCityTest::default_ = nullptr;
TrafficSpeedEstimator* MultiCityTest::scalar_ = nullptr;
std::vector<RoadId>* MultiCityTest::seeds_ = nullptr;

void ExpectSameServing(
    const std::vector<Result<ServingSession::SlotReport>>& got,
    const std::vector<Result<ServingSession::SlotReport>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t s = 0; s < got.size(); ++s) {
    ASSERT_EQ(got[s].ok(), want[s].ok()) << "step " << s;
    if (!got[s].ok()) continue;
    EXPECT_EQ(got[s]->stale, want[s]->stale) << "step " << s;
    EXPECT_EQ(got[s]->stale_slots, want[s]->stale_slots) << "step " << s;
    EXPECT_EQ(got[s]->observations_used, want[s]->observations_used);
    EXPECT_EQ(got[s]->monitor.estimate.speeds.speed_kmh,
              want[s]->monitor.estimate.speeds.speed_kmh)
        << "step " << s;
  }
}

void ExpectSameStats(const ServingStats& got, const ServingStats& want) {
  EXPECT_EQ(got.slots_estimated, want.slots_estimated);
  EXPECT_EQ(got.slots_carried_forward, want.slots_carried_forward);
  EXPECT_EQ(got.duplicate_slots, want.duplicate_slots);
  EXPECT_EQ(got.out_of_order_slots, want.out_of_order_slots);
  EXPECT_EQ(got.rejected_batches, want.rejected_batches);
  EXPECT_EQ(got.observations_filtered, want.observations_filtered);
  EXPECT_EQ(got.observations_deduplicated, want.observations_deduplicated);
  EXPECT_EQ(got.estimation_failures, want.estimation_failures);
}

TEST_F(MultiCityTest, InterleavedIngestMatchesStandaloneSessions) {
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  constexpr size_t kSlots = 6;
  constexpr size_t kNoDegradedStep = kSlots;
  // The one-sweep city loses one slot's batch, so it carries forward
  // there; the scalar city never does. Carry-forward must not leak across.
  const auto default_stream = Stream(kSlots, /*degraded_step=*/2);
  const auto scalar_stream = Stream(kSlots, kNoDegradedStep);

  auto city_default = ServingSession::Create(default_, opts);
  auto city_scalar = ServingSession::Create(scalar_, opts);
  ASSERT_TRUE(city_default.ok());
  ASSERT_TRUE(city_scalar.ok());

  // Both cities ingest at once, each on its own thread; every parallel
  // region either session opens runs on the one shared ThreadPool::Global().
  std::vector<Result<ServingSession::SlotReport>> got_default, got_scalar;
  std::latch start(2);
  std::thread thread_default([&] {
    start.arrive_and_wait();
    got_default = Serve(&city_default.value(), default_stream);
  });
  std::thread thread_scalar([&] {
    start.arrive_and_wait();
    got_scalar = Serve(&city_scalar.value(), scalar_stream);
  });
  thread_default.join();
  thread_scalar.join();

  // The same streams, each through a standalone session on this thread.
  auto solo_default = ServingSession::Create(default_, opts);
  auto solo_scalar = ServingSession::Create(scalar_, opts);
  ASSERT_TRUE(solo_default.ok());
  ASSERT_TRUE(solo_scalar.ok());
  auto want_default = Serve(&solo_default.value(), default_stream);
  auto want_scalar = Serve(&solo_scalar.value(), scalar_stream);

  ExpectSameServing(got_default, want_default);
  ExpectSameServing(got_scalar, want_scalar);
  ExpectSameStats(city_default->stats(), solo_default->stats());
  ExpectSameStats(city_scalar->stats(), solo_scalar->stats());
  EXPECT_EQ(city_default->stats().slots_carried_forward, 1u);
  EXPECT_EQ(city_scalar->stats().slots_carried_forward, 0u);
}

TEST_F(MultiCityTest, TotalStatsSumsCities) {
  obs::MetricsRegistry registry;
  ServingOptions opts;
  opts.observability.metrics = &registry;
  auto a = ServingSession::Create(default_, opts);
  auto b = ServingSession::Create(scalar_, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  uint64_t slot = ds().first_test_slot();
  ASSERT_TRUE(a->Ingest(slot, Obs(slot, 1.0)).ok());
  ASSERT_TRUE(a->Ingest(slot + 1, Obs(slot + 1, 1.0)).ok());
  ASSERT_TRUE(b->Ingest(slot, Obs(slot, 1.0)).ok());
  // A stale arrival for city b only.
  EXPECT_FALSE(b->Ingest(slot - 1, Obs(slot, 1.0)).ok());

  // The fleet total is the sum of the sessions' own stats; the shared
  // registry's counters hold that same sum.
  ServingStats sa = a->stats();
  ServingStats sb = b->stats();
  EXPECT_EQ(sa.slots_estimated + sb.slots_estimated, 3u);
  EXPECT_EQ(sa.out_of_order_slots + sb.out_of_order_slots, 1u);
  EXPECT_EQ(sa.out_of_order_slots, 0u);
  EXPECT_EQ(sb.out_of_order_slots, 1u);
  obs::Counter* out_of_order =
      registry.GetCounter(obs::kServingOutOfOrderSlotsTotal);
  ASSERT_NE(out_of_order, nullptr);
  EXPECT_EQ(out_of_order->Value(),
            sa.out_of_order_slots + sb.out_of_order_slots);
}

TEST_F(MultiCityTest, CitiesShareOneMetricsRegistry) {
  obs::MetricsRegistry registry;
  ServingOptions opts;
  opts.observability.metrics = &registry;
  auto a = ServingSession::Create(default_, opts);
  auto b = ServingSession::Create(scalar_, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  uint64_t slot = ds().first_test_slot();
  ASSERT_TRUE(a->Ingest(slot, Obs(slot, 1.0)).ok());
  ASSERT_TRUE(b->Ingest(slot, Obs(slot, 1.0)).ok());
  ASSERT_TRUE(b->Ingest(slot + 1, Obs(slot + 1, 1.0)).ok());
  // One scrape endpoint sees the whole fleet: the shared counter holds the
  // cross-city sum of the sessions' own stats.
  obs::Counter* estimated =
      registry.GetCounter(obs::kServingSlotsEstimatedTotal);
  ASSERT_NE(estimated, nullptr);
  EXPECT_EQ(estimated->Value(),
            a->stats().slots_estimated + b->stats().slots_estimated);
  EXPECT_EQ(estimated->Value(), 3u);
}

// Two cities on two threads record into one FlightRecorder at once. Every
// served slot keeps all its stages, each stamped with the thread that
// served it, and the recorder's accounting stays whole. Under
// TRENDSPEED_SANITIZE=thread this is also the data-race check of the
// shared ring with two live writers.
TEST_F(MultiCityTest, CitiesShareOneFlightRecorder) {
  obs::FlightRecorder flight;
  ServingOptions opts;
  opts.publish_snapshots = true;  // adds the publish stage
  opts.observability.flight = &flight;
  auto a = ServingSession::Create(default_, opts);
  auto b = ServingSession::Create(scalar_, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Disjoint slot ranges, so a slot names the city (and thread) serving it.
  constexpr uint64_t kSlots = 6;
  const uint64_t base_a = ds().first_test_slot();
  const uint64_t base_b = base_a + kSlots;
  std::latch start(2);
  auto serve = [&](ServingSession* session, uint64_t base, const char* label) {
    obs::SetFlightThreadLabel(label);
    start.arrive_and_wait();
    for (uint64_t slot = base; slot < base + kSlots; ++slot) {
      EXPECT_TRUE(session->Ingest(slot, Obs(slot, 1.0)).ok()) << slot;
    }
    obs::SetFlightThreadLabel("");
  };
  std::thread thread_a(serve, &a.value(), base_a, "city-a");
  std::thread thread_b(serve, &b.value(), base_b, "city-b");
  thread_a.join();
  thread_b.join();

  // Both writer threads are listed, under their labels.
  std::map<std::string, uint32_t> thread_of;
  for (const auto& [id, label] : flight.ThreadLabels()) thread_of[label] = id;
  ASSERT_EQ(thread_of.size(), 2u);
  ASSERT_EQ(thread_of.count("city-a"), 1u);
  ASSERT_EQ(thread_of.count("city-b"), 1u);
  EXPECT_EQ(flight.num_threads(), 2u);

  const std::set<obs::FlightStage> kServedStages = {
      obs::FlightStage::kIngest, obs::FlightStage::kAdmission,
      obs::FlightStage::kEstimate, obs::FlightStage::kBpSolve,
      obs::FlightStage::kPublish};
  for (uint64_t slot = base_a; slot < base_b + kSlots; ++slot) {
    const uint32_t server =
        thread_of[slot < base_b ? "city-a" : "city-b"];
    std::set<obs::FlightStage> stages;
    for (const obs::FlightEvent& e : flight.CollectSlot(slot)) {
      stages.insert(e.stage);
      EXPECT_EQ(e.thread_id, server) << "slot " << slot;
    }
    EXPECT_EQ(stages, kServedStages) << "slot " << slot;
  }

  // Retained + dropped = recorded.
  EXPECT_EQ(flight.Collect().size() + flight.dropped(),
            flight.total_recorded());
  EXPECT_EQ(flight.total_recorded(), 2 * kSlots * kServedStages.size());
}

}  // namespace
}  // namespace trendspeed
