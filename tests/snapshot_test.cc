// Tests for SpeedSnapshotPublisher (core/snapshot.h): basic publish/read
// semantics, immutability of a held Latest() snapshot, the
// writer-vs-many-readers torture test (no torn reads — run under
// TRENDSPEED_SANITIZE=thread to also prove the publish path race-free), and
// the ServingSession integration that publishes every served slot.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/serving.h"
#include "core/snapshot.h"
#include "obs/catalog.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

TEST(SnapshotTest, ReadBeforeFirstPublishReturnsFalse) {
  SpeedSnapshotPublisher pub(4);
  SpeedSnapshot snap;
  EXPECT_FALSE(pub.Read(&snap));
  EXPECT_EQ(pub.publishes(), 0u);
}

TEST(SnapshotTest, PublishThenReadRoundTrips) {
  SpeedSnapshotPublisher pub(3);
  std::vector<double> speeds = {50.0, 30.5, 80.25};
  std::vector<double> devs = {-0.1, 0.0, 0.2};
  pub.Publish(7, speeds, devs, 0, 53.583333);
  SpeedSnapshot snap;
  ASSERT_TRUE(pub.Read(&snap));
  EXPECT_EQ(snap.slot, 7u);
  EXPECT_EQ(snap.version, 1u);
  EXPECT_EQ(snap.speed_kmh, speeds);
  EXPECT_EQ(snap.deviation, devs);
  EXPECT_FALSE(snap.stale);
  EXPECT_EQ(snap.stale_slots, 0u);
  EXPECT_DOUBLE_EQ(snap.mean_speed_kmh, 53.583333);

  // A second publish bumps the version and replaces the payload wholesale;
  // a reused SpeedSnapshot is overwritten, not appended to.
  std::vector<double> speeds2 = {10.0, 20.0, 30.0};
  pub.Publish(8, speeds2, devs, 2, 20.0);
  ASSERT_TRUE(pub.Read(&snap));
  EXPECT_EQ(snap.slot, 8u);
  EXPECT_EQ(snap.version, 2u);
  EXPECT_EQ(snap.speed_kmh, speeds2);
  EXPECT_TRUE(snap.stale);
  EXPECT_EQ(snap.stale_slots, 2u);
  EXPECT_EQ(pub.publishes(), 2u);
}

// A snapshot taken from Latest() is never written again: later publishes
// swap in new snapshots and leave the held one as it was published.
TEST(SnapshotTest, LatestIsImmutableAcrossPublishes) {
  constexpr uint64_t kPublishes = 16;
  SpeedSnapshotPublisher pub(3);
  EXPECT_EQ(pub.Latest(), nullptr);
  pub.Publish(1, {11.0, 12.0, 13.0}, {0.1, 0.2, 0.3}, 0, 12.0);
  const std::shared_ptr<const SpeedSnapshot> held = pub.Latest();
  ASSERT_NE(held, nullptr);
  const double* held_speeds = held->speed_kmh.data();

  for (uint64_t v = 2; v <= kPublishes; ++v) {
    const double x = static_cast<double>(v);
    pub.Publish(v, {x, x, x}, {-x, -x, -x}, static_cast<uint32_t>(v % 3), x);
  }

  EXPECT_EQ(held->slot, 1u);
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->speed_kmh, (std::vector<double>{11.0, 12.0, 13.0}));
  EXPECT_EQ(held->deviation, (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(held->speed_kmh.data(), held_speeds);
  EXPECT_FALSE(held->stale);
  EXPECT_EQ(held->stale_slots, 0u);
  EXPECT_EQ(held->mean_speed_kmh, 12.0);

  const std::shared_ptr<const SpeedSnapshot> latest = pub.Latest();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, kPublishes);
  EXPECT_EQ(latest->slot, kPublishes);
  EXPECT_EQ(pub.publishes(), kPublishes);
}

// Regression for the stale-tail bug: a SpeedSnapshot reused across
// publishers (the multi-city poller pattern — one buffer, N cities) must
// never present a previous publisher's payload under a new publisher's
// identity. Before the fix, Read() on an unpublished publisher returned
// false but left the previous city's slot/version/speeds in *out; a poller
// that only checked `snap.version != last_seen` then served city A's field
// as city B's.
TEST(SnapshotTest, ReusedSnapshotIsResetByFailedRead) {
  SpeedSnapshotPublisher city_a(3);
  city_a.Publish(9, {50.0, 60.0, 70.0}, {0.1, 0.2, 0.3}, 0, 60.0);
  SpeedSnapshot snap;
  ASSERT_TRUE(city_a.Read(&snap));
  ASSERT_EQ(snap.version, 1u);

  // Same buffer against a city that has served nothing yet.
  SpeedSnapshotPublisher city_b(5);
  EXPECT_FALSE(city_b.Read(&snap));
  EXPECT_EQ(snap.version, 0u);  // no identity survives the failed read
  EXPECT_EQ(snap.slot, 0u);
  EXPECT_TRUE(snap.speed_kmh.empty());
  EXPECT_TRUE(snap.deviation.empty());
  EXPECT_FALSE(snap.stale);
  EXPECT_EQ(snap.stale_slots, 0u);
  EXPECT_EQ(snap.mean_speed_kmh, 0.0);

  // And a successful read against a *smaller* publisher must shrink the
  // reused vectors, never leave a stale tail from the larger city.
  SpeedSnapshotPublisher city_c(2);
  ASSERT_TRUE(city_a.Read(&snap));  // re-inflate to 3 roads
  city_c.Publish(1, {10.0, 20.0}, {0.0, 0.0}, 0, 15.0);
  ASSERT_TRUE(city_c.Read(&snap));
  EXPECT_EQ(snap.speed_kmh.size(), 2u);
  EXPECT_EQ(snap.deviation.size(), 2u);
  EXPECT_EQ(snap.speed_kmh, (std::vector<double>{10.0, 20.0}));
}

// The torture test: one writer publishing at full speed, several readers
// hammering Read and one holding Latest() pointers. Every payload cell of
// publish v is a pure function of v, so any torn mix of two publishes is
// detectable in a single read. Failure mode being guarded: a reader
// observing slot/speeds/staleness from different publishes.
TEST(SnapshotTest, TortureOneWriterManyReadersNoTornReads) {
  constexpr size_t kRoads = 64;
  constexpr uint64_t kPublishes = 2000;
  constexpr int kReaders = 4;
  obs::MetricsRegistry reg;
  SpeedSnapshotPublisher pub(kRoads);
  pub.AttachMetrics(&reg);

  auto expect_speed = [](uint64_t slot, size_t i) {
    return static_cast<double>(slot * 1000 + i);
  };
  auto expect_dev = [](uint64_t slot, size_t i) {
    return -static_cast<double>(slot + i) / 1024.0;
  };

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> reads_ok{0};
  auto check = [&](const SpeedSnapshot& snap) {
    bool consistent = snap.slot >= 1 && snap.slot <= kPublishes &&
                      snap.speed_kmh.size() == kRoads &&
                      snap.deviation.size() == kRoads &&
                      snap.stale_slots == snap.slot % 5 &&
                      snap.stale == (snap.stale_slots > 0) &&
                      snap.mean_speed_kmh ==
                          static_cast<double>(snap.slot) * 2.0;
    for (size_t i = 0; consistent && i < kRoads; ++i) {
      consistent = snap.speed_kmh[i] == expect_speed(snap.slot, i) &&
                   snap.deviation[i] == expect_dev(snap.slot, i);
    }
    if (consistent) {
      reads_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  readers.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      SpeedSnapshot snap;  // reused: allocation-free after first Read
      // One extra pass after `done`: on a single-CPU host the writer can
      // finish before this thread is first scheduled, and the test must
      // still verify at least one (now quiescent) read per reader.
      bool last_pass = false;
      while (!last_pass) {
        last_pass = done.load(std::memory_order_acquire);
        if (!pub.Read(&snap)) continue;
        check(snap);
      }
    });
  }
  // A Latest() reader keeps the snapshot it holds alive while the writer
  // swaps in newer ones, and re-checks it after taking the next one: a
  // held snapshot must not change under its holder.
  readers.emplace_back([&] {
    std::shared_ptr<const SpeedSnapshot> held;
    bool last_pass = false;
    while (!last_pass) {
      last_pass = done.load(std::memory_order_acquire);
      std::shared_ptr<const SpeedSnapshot> next = pub.Latest();
      if (next == nullptr) continue;
      if (held != nullptr) check(*held);
      check(*next);
      held = std::move(next);
    }
  });

  std::vector<double> speeds(kRoads), devs(kRoads);
  for (uint64_t slot = 1; slot <= kPublishes; ++slot) {
    for (size_t i = 0; i < kRoads; ++i) {
      speeds[i] = expect_speed(slot, i);
      devs[i] = expect_dev(slot, i);
    }
    pub.Publish(slot, speeds, devs, static_cast<uint32_t>(slot % 5),
                static_cast<double>(slot) * 2.0);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_EQ(pub.publishes(), kPublishes);
  EXPECT_EQ(reg.GetCounter(obs::kSnapshotPublishesTotal)->Value(), kPublishes);
  // Reaching this line at all proves every reader made progress.
  EXPECT_GE(reg.GetHistogram(obs::kSnapshotReadLatencyUs)->count(), 0u);
}

// ---------------------------------------------------------------------------
// ServingSession integration.
// ---------------------------------------------------------------------------

class SnapshotServingTest : public ::testing::Test {
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

  std::vector<SeedSpeed> CleanObs(uint64_t slot) {
    std::vector<SeedSpeed> out;
    for (RoadId r : *seeds_) {
      out.push_back({r, std::max(1.0, ds().truth.at(slot, r))});
    }
    return out;
  }

  static TrafficSpeedEstimator* estimator_;
  static std::vector<RoadId>* seeds_;
};

TrafficSpeedEstimator* SnapshotServingTest::estimator_ = nullptr;
std::vector<RoadId>* SnapshotServingTest::seeds_ = nullptr;

TEST_F(SnapshotServingTest, OffByDefault) {
  auto session = ServingSession::Create(estimator_);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->snapshot_publisher(), nullptr);
}

TEST_F(SnapshotServingTest, EveryServedSlotIsPublished) {
  ServingOptions opts;
  opts.publish_snapshots = true;
  auto session = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(session.ok());
  const SpeedSnapshotPublisher* pub = session->snapshot_publisher();
  ASSERT_NE(pub, nullptr);
  SpeedSnapshot snap;
  EXPECT_FALSE(pub->Read(&snap));  // nothing served yet

  auto report = session->Ingest(0, CleanObs(0));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(pub->Read(&snap));
  EXPECT_EQ(snap.slot, 0u);
  EXPECT_EQ(snap.version, 1u);
  EXPECT_FALSE(snap.stale);
  // The snapshot is the served estimate, element for element.
  EXPECT_EQ(snap.speed_kmh, report->monitor.estimate.speeds.speed_kmh);
  EXPECT_EQ(snap.deviation, report->monitor.estimate.speeds.deviation);
  EXPECT_DOUBLE_EQ(snap.mean_speed_kmh, report->monitor.mean_speed_kmh);

  // A carried-forward slot republishes the same field with the staleness
  // flag so pollers can tell "old but served" from "fresh".
  auto stale_report = session->Ingest(1, {});
  ASSERT_TRUE(stale_report.ok());
  ASSERT_TRUE(pub->Read(&snap));
  EXPECT_EQ(snap.slot, 1u);
  EXPECT_EQ(snap.version, 2u);
  EXPECT_TRUE(snap.stale);
  EXPECT_EQ(snap.stale_slots, 1u);
  EXPECT_EQ(snap.speed_kmh, report->monitor.estimate.speeds.speed_kmh);

  // Rejected ingests (out-of-order here) publish nothing.
  EXPECT_FALSE(session->Ingest(0, CleanObs(0)).ok());
  EXPECT_EQ(pub->publishes(), 2u);
}

TEST_F(SnapshotServingTest, DuplicateSlotKeepsSnapshotConsistent) {
  ServingOptions opts;
  opts.publish_snapshots = true;
  auto session = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Ingest(0, CleanObs(0)).ok());
  const SpeedSnapshotPublisher* pub = session->snapshot_publisher();
  uint64_t before = pub->publishes();
  // Idempotent duplicate: served from the cached report, which is exactly
  // what the snapshot already holds — readers see no spurious version bump.
  auto dup = session->Ingest(0, CleanObs(0));
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup->duplicate);
  SpeedSnapshot snap;
  ASSERT_TRUE(pub->Read(&snap));
  EXPECT_EQ(snap.slot, 0u);
  EXPECT_EQ(snap.speed_kmh, dup->monitor.estimate.speeds.speed_kmh);
  EXPECT_EQ(pub->publishes(), before);
}

}  // namespace
}  // namespace trendspeed
