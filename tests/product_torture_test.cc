// One-writer / N-reader torture for the read-side product layer: a
// publisher thread publishing at full speed while reader threads fold
// profiles and answer cached route ETAs from their own Read() loops.
//
// What this proves (run under TRENDSPEED_SANITIZE=thread for the full
// claim): product reads never race the publisher — the only shared
// surface is the publisher's latest-snapshot pointer, the products' own
// state is per-reader — and every ETA a reader produces is internally
// consistent with the snapshot version it was priced on. The writer side
// asserts progress: all publishes complete while readers hammer the
// publisher. A second test drives CityProducts, which holds the latest
// snapshot by pointer, against a live writer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/routing.h"
#include "core/snapshot.h"
#include "product/products.h"
#include "product/profile.h"
#include "product/route_eta.h"
#include "test_util.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::SmallGrid;

ProductOptions TortureOptions() {
  ProductOptions opts;
  opts.enabled = true;
  opts.profile_buckets_per_day = 24;
  opts.profile_min_samples = 2;
  opts.blend_full_stale_slots = 4;
  opts.eta_cache_capacity = 32;
  return opts;
}

/// Speeds are a pure function of the publish version so readers can verify
/// the field they were answered from was internally consistent.
double SpeedOf(uint64_t version, size_t road) {
  return 20.0 + static_cast<double>((version + road) % 50);
}

TEST(ProductTortureTest, FoldingAndRoutingReadersNeverBlockThePublisher) {
  const RoadNetwork net = SmallGrid();
  const size_t kRoads = net.num_roads();
  constexpr uint64_t kPublishes = 400;
  constexpr int kReaders = 3;
  constexpr uint32_t kSlotsPerDay = 144;

  const ProductOptions opts = TortureOptions();
  SpeedSnapshotPublisher pub(kRoads);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> etas_ok{0};
  std::atomic<uint64_t> folds_total{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Per-reader products: the publisher is the only shared surface.
      auto profile = SpeedProfileStore::Create(kRoads, kSlotsPerDay, opts);
      TS_CHECK(profile.ok());
      auto cache = RouteEtaCache::Create(net, opts, &*profile);
      TS_CHECK(cache.ok());
      Rng rng(1000 + static_cast<uint64_t>(t));
      SpeedSnapshot snap;  // reused read buffer
      bool last_pass = false;
      while (!last_pass) {
        last_pass = done.load(std::memory_order_acquire);
        if (!pub.Read(&snap)) continue;
        profile->Fold(snap);
        NodeId from = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
        NodeId to = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
        auto eta = cache->Eta(snap, from, to);
        if (!eta.ok()) continue;  // NotFound is legitimate on a grid corner
        // The answer must be priced on exactly the field it claims: since
        // the snapshot was consistent (immutable) and fresh fields are pure
        // functions of the version, re-pricing the route must reproduce
        // the travel time bit for bit.
        bool consistent = eta->snapshot_version == snap.version &&
                          eta->route.slot == snap.slot;
        if (consistent && !snap.stale && !eta->route.roads.empty()) {
          double seconds = 0.0;
          for (RoadId r : eta->route.roads) {
            seconds += net.road(r).length_m /
                       (SpeedOf(snap.version, r) / 3.6);
          }
          consistent = seconds == eta->route.travel_seconds;
        }
        if (consistent) {
          etas_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
      }
      folds_total.fetch_add(profile->folds(), std::memory_order_relaxed);
    });
  }

  std::vector<double> speeds(kRoads), devs(kRoads, 0.0);
  for (uint64_t v = 1; v <= kPublishes; ++v) {
    for (size_t r = 0; r < kRoads; ++r) speeds[r] = SpeedOf(v, r);
    // Every 5th publish is a carry-forward so readers also exercise the
    // stale/blend path under contention. The cadence keeps the final
    // publish fresh: on a single-CPU host the readers may be scheduled
    // only after the writer finishes, and their one guaranteed read (the
    // quiescent last pass) must still be able to fold.
    pub.Publish(v, speeds, devs, static_cast<uint32_t>(v % 5 == 3), 40.0);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  // Progress on both sides, zero cross-publish mixtures.
  EXPECT_EQ(pub.publishes(), kPublishes);
  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GT(etas_ok.load(), 0u);
  EXPECT_GT(folds_total.load(), 0u);
}

// CityProducts::ReadLatest takes the publisher's latest snapshot pointer
// on every call. Readers call Poll, Eta and RoadSpeed through CityProducts
// against a live writer, and assert:
//   * a publish that completed before a call began is never missed — the
//     call answers from that version or a later one;
//   * each reader's versions are monotone;
//   * every answer comes from one consistent field.
// The writer waits for every reader's first read before publishing the
// rest, so a reader that keeps a cached snapshot instead of taking the
// latest one is caught even when the readers only run after the writer.
TEST(ProductTortureTest, VersionGateNeverMissesACompletedPublish) {
  const RoadNetwork net = SmallGrid();
  const size_t kRoads = net.num_roads();
  constexpr uint64_t kPublishes = 400;
  constexpr int kReaders = 3;
  constexpr uint32_t kSlotsPerDay = 144;
  const ProductOptions opts = TortureOptions();
  SpeedSnapshotPublisher pub(kRoads);

  std::atomic<uint64_t> completed{0};  ///< last version whose Publish returned
  std::atomic<int> readers_started{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> missed{0};
  std::atomic<uint64_t> regressed{0};
  std::atomic<uint64_t> inconsistent{0};
  std::atomic<uint64_t> calls{0};
  std::vector<uint64_t> final_version(kReaders, 0);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto products = CityProducts::Create(net, &pub, kSlotsPerDay, opts);
      TS_CHECK(products.ok());
      Rng rng(2000 + static_cast<uint64_t>(t));
      uint64_t last_seen = 0;
      bool started = false;
      bool last_pass = false;
      for (uint64_t call = 0; !last_pass; ++call) {
        last_pass = done.load(std::memory_order_acquire);
        const uint64_t before = completed.load(std::memory_order_acquire);
        bool consistent = true;
        const RoadId road = static_cast<RoadId>(rng.NextIndex(kRoads));
        const NodeId from = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
        const NodeId to = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
        switch (call % 3) {
          case 0:
            products->Poll();
            break;
          case 1: {
            auto eta = products->Eta(from, to);
            const SpeedSnapshot& snap = products->last_snapshot();
            if (eta.ok() && !snap.stale) {
              double seconds = 0.0;
              for (RoadId r : eta->route.roads) {
                seconds += net.road(r).length_m /
                           (SpeedOf(snap.version, r) / 3.6);
              }
              consistent = eta->snapshot_version == snap.version &&
                           seconds == eta->route.travel_seconds;
            }
            break;
          }
          default: {
            auto speed = products->RoadSpeed(road);
            const SpeedSnapshot& snap = products->last_snapshot();
            if (speed.ok() && !snap.stale) {
              consistent = speed->speed_kmh == SpeedOf(snap.version, road);
            }
            break;
          }
        }
        const uint64_t seen = products->last_snapshot().version;
        if (seen < before) missed.fetch_add(1, std::memory_order_relaxed);
        if (seen < last_seen) regressed.fetch_add(1, std::memory_order_relaxed);
        if (!consistent) inconsistent.fetch_add(1, std::memory_order_relaxed);
        calls.fetch_add(1, std::memory_order_relaxed);
        last_seen = seen;
        if (!started && seen > 0) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      }
      final_version[t] = last_seen;
    });
  }

  std::vector<double> speeds(kRoads), devs(kRoads, 0.0);
  for (uint64_t v = 1; v <= kPublishes; ++v) {
    for (size_t r = 0; r < kRoads; ++r) speeds[r] = SpeedOf(v, r);
    pub.Publish(v, speeds, devs, static_cast<uint32_t>(v % 5 == 3), 40.0);
    completed.store(v, std::memory_order_release);
    while (v == 1 &&
           readers_started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  EXPECT_EQ(missed.load(), 0u);
  EXPECT_EQ(regressed.load(), 0u);
  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GT(calls.load(), 0u);
  // The last pass began after the final publish completed.
  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(final_version[t], kPublishes);
}

}  // namespace
}  // namespace trendspeed
