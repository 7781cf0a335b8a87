// MultiCityServer (core/multi_city.h): N independent per-city sessions in
// one process. Pins the header's central claim — interleaving Ingest calls
// across cities is equivalent to running each city in its own standalone
// ServingSession — plus spec validation, name routing, the summed
// TotalStats view, and the shared-registry deployment shape where several
// cities export into one scrape endpoint.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/multi_city.h"
#include "obs/catalog.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

// Two "cities" over the shared tiny dataset: same road network, different
// estimation configurations (the default BP kernel, and the scalar oracle
// kernel) — a mixed fleet behind one server.
class MultiCityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    auto def = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(def.ok()) << def.status().ToString();
    default_ = new TrafficSpeedEstimator(std::move(def).value());

    config.trend.bp.kernel = BpKernel::kScalar;
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

  static TrafficSpeedEstimator* default_;
  static TrafficSpeedEstimator* scalar_;
  static std::vector<RoadId>* seeds_;
};

TrafficSpeedEstimator* MultiCityTest::default_ = nullptr;
TrafficSpeedEstimator* MultiCityTest::scalar_ = nullptr;
std::vector<RoadId>* MultiCityTest::seeds_ = nullptr;

TEST_F(MultiCityTest, CreateValidatesSpecs) {
  EXPECT_FALSE(MultiCityServer::Create({}).ok());
  EXPECT_FALSE(
      MultiCityServer::Create({{"", default_, ServingOptions{}}}).ok());
  EXPECT_FALSE(
      MultiCityServer::Create({{"a", nullptr, ServingOptions{}}}).ok());
  EXPECT_FALSE(MultiCityServer::Create({{"a", default_, ServingOptions{}},
                                        {"a", scalar_, ServingOptions{}}})
                   .ok());
  // Bad per-city serving knobs fail Create, not the first Ingest.
  ServingOptions bad;
  bad.max_speed_kmh = -1.0;
  EXPECT_FALSE(MultiCityServer::Create({{"a", default_, bad}}).ok());
}

TEST_F(MultiCityTest, RoutesByNameAndIndex) {
  auto server = MultiCityServer::Create(
      {{"porto", default_, ServingOptions{}}, {"beijing", scalar_, {}}});
  ASSERT_TRUE(server.ok());
  EXPECT_EQ(server->num_cities(), 2u);
  EXPECT_EQ(server->name(0), "porto");
  EXPECT_EQ(server->Find("beijing"), 1u);
  EXPECT_EQ(server->Find("lisbon"), MultiCityServer::kNotFound);

  uint64_t slot = ds().first_test_slot();
  EXPECT_TRUE(server->Ingest("porto", slot, Obs(slot, 1.0)).ok());
  EXPECT_FALSE(server->Ingest("lisbon", slot, Obs(slot, 1.0)).ok());
  EXPECT_FALSE(server->Ingest(7, slot, Obs(slot, 1.0)).ok());
  EXPECT_TRUE(server->session(0).has_estimate());
  EXPECT_FALSE(server->session(1).has_estimate());
}

TEST_F(MultiCityTest, InterleavedIngestMatchesStandaloneSessions) {
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  auto server = MultiCityServer::Create(
      {{"default", default_, opts}, {"scalar", scalar_, opts}});
  auto solo_default = ServingSession::Create(default_, opts);
  auto solo_scalar = ServingSession::Create(scalar_, opts);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(solo_default.ok());
  ASSERT_TRUE(solo_scalar.ok());

  uint64_t base = ds().first_test_slot();
  // Interleave the two cities' streams, including a degraded (empty) slot
  // for one city only — per-city carry-forward must not leak across.
  for (uint64_t s = 0; s < 5; ++s) {
    uint64_t slot = base + s;
    double factor = 0.9 + 0.05 * static_cast<double>(s % 3);
    std::vector<SeedSpeed> obs = Obs(slot, factor);
    std::vector<SeedSpeed> empty;
    bool degrade_default = (s == 2);

    auto a = server->Ingest("default", slot, degrade_default ? empty : obs);
    auto b = server->Ingest("scalar", slot, obs);
    auto ra = solo_default->Ingest(slot, degrade_default ? empty : obs);
    auto rb = solo_scalar->Ingest(slot, obs);
    ASSERT_EQ(a.ok(), ra.ok()) << "slot " << slot;
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(rb.ok());
    if (a.ok()) {
      EXPECT_EQ(a->stale, ra->stale);
      EXPECT_EQ(a->observations_used, ra->observations_used);
      EXPECT_EQ(a->monitor.estimate.speeds.speed_kmh,
                ra->monitor.estimate.speeds.speed_kmh)
          << "slot " << slot;
    }
    EXPECT_EQ(b->monitor.estimate.speeds.speed_kmh,
              rb->monitor.estimate.speeds.speed_kmh)
        << "slot " << slot;
  }

  // Per-city counters match the standalone runs field by field.
  ServingStats sa = server->session(0).stats();
  ServingStats ra = solo_default->stats();
  EXPECT_EQ(sa.slots_estimated, ra.slots_estimated);
  EXPECT_EQ(sa.slots_carried_forward, ra.slots_carried_forward);
  ServingStats sb = server->session(1).stats();
  ServingStats rb = solo_scalar->stats();
  EXPECT_EQ(sb.slots_estimated, rb.slots_estimated);
  EXPECT_EQ(sb.slots_carried_forward, 0u);
}

TEST_F(MultiCityTest, TotalStatsSumsCities) {
  auto server = MultiCityServer::Create(
      {{"a", default_, ServingOptions{}}, {"b", scalar_, {}}});
  ASSERT_TRUE(server.ok());
  uint64_t slot = ds().first_test_slot();
  ASSERT_TRUE(server->Ingest("a", slot, Obs(slot, 1.0)).ok());
  ASSERT_TRUE(server->Ingest("a", slot + 1, Obs(slot + 1, 1.0)).ok());
  ASSERT_TRUE(server->Ingest("b", slot, Obs(slot, 1.0)).ok());
  // A stale arrival for city b only.
  EXPECT_FALSE(server->Ingest("b", slot - 1, Obs(slot, 1.0)).ok());

  ServingStats total = server->TotalStats();
  EXPECT_EQ(total.slots_estimated, 3u);
  EXPECT_EQ(total.out_of_order_slots, 1u);
  EXPECT_EQ(server->session(0).stats().out_of_order_slots, 0u);
  EXPECT_EQ(server->session(1).stats().out_of_order_slots, 1u);
}

TEST_F(MultiCityTest, CitiesShareOneMetricsRegistry) {
  obs::MetricsRegistry registry;
  ServingOptions opts;
  opts.observability.metrics = &registry;
  auto server = MultiCityServer::Create(
      {{"a", default_, opts}, {"b", scalar_, opts}});
  ASSERT_TRUE(server.ok());
  uint64_t slot = ds().first_test_slot();
  ASSERT_TRUE(server->Ingest("a", slot, Obs(slot, 1.0)).ok());
  ASSERT_TRUE(server->Ingest("b", slot, Obs(slot, 1.0)).ok());
  ASSERT_TRUE(server->Ingest("b", slot + 1, Obs(slot + 1, 1.0)).ok());
  // One scrape endpoint sees the whole fleet: the shared counter holds the
  // cross-city sum, matching TotalStats.
  obs::Counter* estimated =
      registry.GetCounter(obs::kServingSlotsEstimatedTotal);
  ASSERT_NE(estimated, nullptr);
  EXPECT_EQ(estimated->Value(), server->TotalStats().slots_estimated);
  EXPECT_EQ(estimated->Value(), 3u);
}

}  // namespace
}  // namespace trendspeed
