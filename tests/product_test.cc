// Tests for the read-side product layer (src/product): the time-of-day
// profile store (fold/blend), the version-invalidated route-ETA
// cache — including the seeded property that cached answers are bitwise
// identical to uncached FastestRoute — the CityProducts glue over a live
// ServingSession, the detached-products serving-equivalence pin, and the
// isolation of products between two cities' sessions in one process.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "core/routing.h"
#include "core/serving.h"
#include "core/snapshot.h"
#include "obs/catalog.h"
#include "obs/clock.h"
#include "product/products.h"
#include "product/profile.h"
#include "product/route_eta.h"
#include "test_util.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;
using testing_util::SmallGrid;

ProductOptions TestOptions() {
  ProductOptions opts;
  opts.enabled = true;
  opts.profile_buckets_per_day = 24;
  opts.profile_min_samples = 2;
  opts.blend_full_stale_slots = 4;
  opts.eta_cache_capacity = 64;
  return opts;
}

SpeedSnapshot MakeSnapshot(uint64_t slot, uint64_t version,
                           uint32_t stale_slots,
                           std::vector<double> speeds) {
  SpeedSnapshot snap;
  snap.slot = slot;
  snap.version = version;
  snap.stale_slots = stale_slots;
  snap.stale = stale_slots > 0;
  snap.speed_kmh = std::move(speeds);
  snap.deviation.assign(snap.speed_kmh.size(), 0.0);
  double sum = 0.0;
  for (double v : snap.speed_kmh) sum += v;
  snap.mean_speed_kmh =
      snap.speed_kmh.empty() ? 0.0 : sum / snap.speed_kmh.size();
  return snap;
}

// ---------------------------------------------------------------------------
// SpeedProfileStore.
// ---------------------------------------------------------------------------

TEST(SpeedProfileStoreTest, CreateValidates) {
  EXPECT_FALSE(SpeedProfileStore::Create(0, 144, TestOptions()).ok());
  EXPECT_FALSE(SpeedProfileStore::Create(4, 0, TestOptions()).ok());
  ProductOptions bad = TestOptions();
  bad.profile_buckets_per_day = 0;
  EXPECT_FALSE(SpeedProfileStore::Create(4, 144, bad).ok());
  // A bucket grid finer than the slot grid can never fill.
  bad = TestOptions();
  bad.profile_buckets_per_day = 288;
  EXPECT_FALSE(SpeedProfileStore::Create(4, 144, bad).ok());
  EXPECT_TRUE(SpeedProfileStore::Create(4, 144, TestOptions()).ok());
}

TEST(SpeedProfileStoreTest, BucketOfMapsSlotOfDay) {
  auto store = SpeedProfileStore::Create(1, 144, TestOptions());
  ASSERT_TRUE(store.ok());
  // 144 slots over 24 buckets: 6 slots per bucket, wrapping daily.
  EXPECT_EQ(store->BucketOf(0), 0u);
  EXPECT_EQ(store->BucketOf(5), 0u);
  EXPECT_EQ(store->BucketOf(6), 1u);
  EXPECT_EQ(store->BucketOf(143), 23u);
  EXPECT_EQ(store->BucketOf(144), 0u);  // next day, same time-of-day
  EXPECT_EQ(store->BucketOf(144 + 6), 1u);
}

TEST(SpeedProfileStoreTest, FoldsFreshSkipsStaleAndDuplicates) {
  auto store = SpeedProfileStore::Create(2, 144, TestOptions());
  ASSERT_TRUE(store.ok());

  EXPECT_TRUE(store->Fold(MakeSnapshot(0, 1, 0, {50.0, 30.0})));
  EXPECT_EQ(store->folds(), 1u);
  // Same version again (over-polling): skipped.
  EXPECT_FALSE(store->Fold(MakeSnapshot(0, 1, 0, {50.0, 30.0})));
  EXPECT_EQ(store->folds(), 1u);
  // Stale publish: skipped and counted, but the version advances so the
  // next fresh publish still folds.
  EXPECT_FALSE(store->Fold(MakeSnapshot(1, 2, 1, {50.0, 30.0})));
  EXPECT_EQ(store->stale_skips(), 1u);
  // Same day-bucket (slot 2 is still bucket 0), fresh: running mean.
  EXPECT_TRUE(store->Fold(MakeSnapshot(2, 3, 0, {70.0, 10.0})));
  EXPECT_EQ(store->folds(), 2u);
  EXPECT_EQ(store->cell(0, 0).count, 2u);
  EXPECT_DOUBLE_EQ(store->cell(0, 0).mean_kmh, 60.0);
  EXPECT_DOUBLE_EQ(store->cell(1, 0).mean_kmh, 20.0);
  // Nothing leaked into other buckets.
  EXPECT_EQ(store->cell(0, 1).count, 0u);
  // A snapshot shaped for another network never folds.
  EXPECT_FALSE(store->Fold(MakeSnapshot(3, 4, 0, {1.0, 2.0, 3.0})));
  // An unpublished (version 0) snapshot never folds.
  EXPECT_FALSE(store->Fold(MakeSnapshot(0, 0, 0, {1.0, 2.0})));
}

TEST(SpeedProfileStoreTest, BlendQueryProvenance) {
  ProductOptions opts = TestOptions();  // min_samples=2, full ramp at 4
  auto store = SpeedProfileStore::Create(1, 144, opts);
  ASSERT_TRUE(store.ok());

  // Fresh snapshot: always the snapshot speed, kFresh, profile untouched.
  auto fresh = store->BlendQuery(MakeSnapshot(0, 1, 0, {40.0}), 0);
  EXPECT_EQ(fresh.provenance, SpeedProvenance::kFresh);
  EXPECT_DOUBLE_EQ(fresh.speed_kmh, 40.0);

  // Stale with an immature cell: carried forward as-is.
  auto cf = store->BlendQuery(MakeSnapshot(0, 2, 2, {40.0}), 0);
  EXPECT_EQ(cf.provenance, SpeedProvenance::kCarriedForward);
  EXPECT_DOUBLE_EQ(cf.speed_kmh, 40.0);

  // Mature the bucket-0 cell at 60 km/h.
  ASSERT_TRUE(store->Fold(MakeSnapshot(0, 3, 0, {60.0})));
  ASSERT_TRUE(store->Fold(MakeSnapshot(1, 4, 0, {60.0})));

  // stale_slots=2 of 4: w=0.5, halfway from snapshot (40) to profile (60).
  auto half = store->BlendQuery(MakeSnapshot(2, 5, 2, {40.0}), 0);
  EXPECT_EQ(half.provenance, SpeedProvenance::kProfileBlend);
  EXPECT_DOUBLE_EQ(half.speed_kmh, 50.0);

  // stale_slots >= ramp: the profile fully replaces the stale field.
  auto full = store->BlendQuery(MakeSnapshot(3, 6, 9, {40.0}), 0);
  EXPECT_EQ(full.provenance, SpeedProvenance::kProfileBlend);
  EXPECT_DOUBLE_EQ(full.speed_kmh, 60.0);
}

// ---------------------------------------------------------------------------
// RouteEtaCache.
// ---------------------------------------------------------------------------

std::vector<double> RandomSpeeds(const RoadNetwork& net, Rng* rng) {
  std::vector<double> speeds(net.num_roads());
  for (double& v : speeds) v = rng->Uniform(5.0, 90.0);
  return speeds;
}

/// Seven two-way rings of 3 to 9 nodes with no road between them. The ETA
/// cache places at most one landmark per component, so at least three rings
/// have none: there every landmark term is inf − inf = NaN and h is 0.
RoadNetwork DisconnectedRings() {
  RoadNetwork::Builder b;
  for (size_t ring = 0; ring < 7; ++ring) {
    const size_t size = 3 + ring;
    const double cx = 5000.0 * ring;
    const NodeId first = b.AddNode(cx + 400.0, 0.0);
    NodeId prev = first;
    for (size_t i = 1; i < size; ++i) {
      const double angle = 2.0 * std::numbers::pi * i / size;
      const NodeId node =
          b.AddNode(cx + 400.0 * std::cos(angle), 400.0 * std::sin(angle));
      b.AddTwoWay(prev, node, RoadClass::kLocal, 40.0);
      prev = node;
    }
    b.AddTwoWay(prev, first, RoadClass::kLocal, 40.0);
  }
  auto net = b.Finish();
  TS_CHECK(net.ok()) << net.status().ToString();
  return std::move(net).value();
}

TEST(RouteEtaCacheTest, CreateValidates) {
  RoadNetwork net = SmallGrid();
  ProductOptions opts = TestOptions();
  EXPECT_TRUE(RouteEtaCache::Create(net, opts, nullptr).ok());
  opts.eta_cache_capacity = 0;
  EXPECT_FALSE(RouteEtaCache::Create(net, opts, nullptr).ok());
  // A profile shaped for a different network is refused up front.
  auto wrong = SpeedProfileStore::Create(net.num_roads() + 1, 144,
                                         TestOptions());
  ASSERT_TRUE(wrong.ok());
  EXPECT_FALSE(RouteEtaCache::Create(net, TestOptions(), &*wrong).ok());
}

// The load-bearing property: for any snapshot and any endpoints, the cached
// answer (hit or miss) is bitwise identical to an uncached FastestRoute
// against the same snapshot — ties included. The cache may never change a
// route. The fields cover random speeds and the cases that stress the
// landmark search's tie rule and bound: uniform speeds (every route ties),
// free-flow speeds (three classes on the ring-radial city), three speed
// levels, impassable roads, +inf speeds (zero-cost roads, ρ = inf) and NaN
// speeds, on a grid, a dropout grid, a ring-radial network and seven
// disconnected rings, where queries between rings must reach NotFound
// through the bound's inf/NaN handling.
TEST(RouteEtaCacheTest, PropertyCachedEqualsUncachedBitwise) {
  GridNetworkOptions dropout_grid;
  dropout_grid.rows = 8;
  dropout_grid.cols = 9;
  dropout_grid.dropout = 0.3;
  std::vector<RoadNetwork> nets;
  nets.push_back(SmallGrid());
  nets.push_back(MakeGridNetwork(dropout_grid).value());
  nets.push_back(MakeRingRadialNetwork(RingRadialOptions{}).value());
  nets.push_back(DisconnectedRings());
  const size_t kDisconnected = nets.size() - 1;
  const double kInf = std::numeric_limits<double>::infinity();
  Rng rng(20260808);

  for (size_t n = 0; n < nets.size(); ++n) {
    const RoadNetwork& net = nets[n];
    auto cache = RouteEtaCache::Create(net, TestOptions(), nullptr);
    ASSERT_TRUE(cache.ok());
    // Eight random fields (every third one stale), then the special ones.
    std::vector<std::vector<double>> fields;
    for (int f = 0; f < 8; ++f) fields.push_back(RandomSpeeds(net, &rng));
    fields.emplace_back(net.num_roads(), 50.0);
    std::vector<double>& free_flow = fields.emplace_back(net.num_roads());
    for (RoadId r = 0; r < net.num_roads(); ++r) {
      free_flow[r] = net.road(r).free_flow_kmh;
    }
    std::vector<double>& levels = fields.emplace_back(net.num_roads());
    for (double& v : levels) v = 20.0 + 25.0 * rng.NextIndex(3);
    for (double special : {0.0, kInf, std::nan("")}) {
      std::vector<double>& field = fields.emplace_back(RandomSpeeds(net, &rng));
      for (double& v : field) {
        if (rng.NextBool(0.15)) v = special;
      }
    }

    uint64_t version = 0;
    size_t found = 0, not_found = 0;
    for (size_t field = 0; field < fields.size(); ++field) {
      const uint32_t stale_slots =
          field < 8 && field % 3 == 2 ? 1 + field / 3 : 0;
      SpeedSnapshot snap = MakeSnapshot(/*slot=*/field, ++version,
                                        stale_slots, fields[field]);
      for (int q = 0; q < 40; ++q) {
        NodeId from = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
        NodeId to = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
        auto direct = FastestRoute(net, snap, from, to);
        ++(direct.ok() ? found : not_found);
        // Every fourth query is asked twice; the second ask is a hit.
        for (int ask = 0; ask < (q % 4 == 0 ? 2 : 1); ++ask) {
          auto cached = cache->Eta(snap, from, to);
          ASSERT_EQ(cached.ok(), direct.ok())
              << "net " << n << " field " << field << " query " << from
              << "->" << to;
          if (!cached.ok()) continue;
          if (ask == 1) {
            EXPECT_TRUE(cached->cache_hit);
          }
          EXPECT_EQ(cached->route.roads, direct->roads)
              << "net " << n << " field " << field << " query " << from
              << "->" << to;
          // Bitwise, not approximate: both sides priced the same field.
          EXPECT_EQ(cached->route.travel_seconds, direct->travel_seconds);
          EXPECT_EQ(cached->route.length_m, direct->length_m);
          EXPECT_EQ(cached->route.stale, direct->stale);
          EXPECT_EQ(cached->route.stale_slots, direct->stale_slots);
          EXPECT_EQ(cached->route.slot, direct->slot);
          EXPECT_EQ(cached->snapshot_version, snap.version);
        }
      }
    }
    EXPECT_GT(cache->stats().hits, 0u);
    EXPECT_GT(cache->stats().misses, 0u);
    if (n == kDisconnected) {
      EXPECT_GT(found, 0u);
      EXPECT_GT(not_found, 0u);
    }
  }
}

TEST(RouteEtaCacheTest, HitsAreServedFromCacheAndInvalidatedByVersion) {
  RoadNetwork net = SmallGrid();
  auto cache = RouteEtaCache::Create(net, TestOptions(), nullptr);
  ASSERT_TRUE(cache.ok());
  Rng rng(7);
  SpeedSnapshot snap = MakeSnapshot(0, 1, 0, RandomSpeeds(net, &rng));

  auto miss = cache->Eta(snap, 0, 15);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);
  auto hit = cache->Eta(snap, 0, 15);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->route.roads, miss->route.roads);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->size(), 1u);

  // New version: the entry is dead, the query re-routes on the new field.
  SpeedSnapshot next = MakeSnapshot(1, 2, 0, RandomSpeeds(net, &rng));
  auto fresh = cache->Eta(next, 0, 15);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cache_hit);
  EXPECT_EQ(fresh->snapshot_version, 2u);
  EXPECT_EQ(cache->stats().invalidations, 1u);
}

TEST(RouteEtaCacheTest, StaleSnapshotNeverProducesUnflaggedEta) {
  RoadNetwork net = SmallGrid();
  auto cache = RouteEtaCache::Create(net, TestOptions(), nullptr);
  ASSERT_TRUE(cache.ok());
  Rng rng(11);
  SpeedSnapshot stale = MakeSnapshot(5, 3, 2, RandomSpeeds(net, &rng));
  for (int pass = 0; pass < 2; ++pass) {  // miss, then hit
    auto eta = cache->Eta(stale, 0, 15);
    ASSERT_TRUE(eta.ok());
    EXPECT_TRUE(eta->route.stale);
    EXPECT_EQ(eta->route.stale_slots, 2u);
    EXPECT_NE(eta->provenance, SpeedProvenance::kFresh);
  }
}

TEST(RouteEtaCacheTest, DegenerateQueriesAreDefined) {
  RoadNetwork net = SmallGrid();
  auto cache = RouteEtaCache::Create(net, TestOptions(), nullptr);
  ASSERT_TRUE(cache.ok());
  SpeedSnapshot snap =
      MakeSnapshot(0, 1, 0, std::vector<double>(net.num_roads(), 40.0));
  // from == to: an empty route with zero seconds — not NaN, not an error —
  // and it caches like any other answer.
  for (int pass = 0; pass < 2; ++pass) {
    auto eta = cache->Eta(snap, 7, 7);
    ASSERT_TRUE(eta.ok());
    EXPECT_TRUE(eta->route.roads.empty());
    EXPECT_EQ(eta->route.travel_seconds, 0.0);
    EXPECT_EQ(eta->route.length_m, 0.0);
    EXPECT_TRUE(std::isfinite(eta->route.travel_seconds));
    EXPECT_EQ(pass == 1, eta->cache_hit);
  }
  // Out-of-network endpoints and empty snapshots are errors, not UB.
  EXPECT_FALSE(cache->Eta(snap, 0, 999).ok());
  SpeedSnapshot unpublished;
  EXPECT_FALSE(cache->Eta(unpublished, 0, 1).ok());
}

TEST(RouteEtaCacheTest, CapacityBoundsEntries) {
  RoadNetwork net = SmallGrid();
  ProductOptions opts = TestOptions();
  opts.eta_cache_capacity = 4;
  auto cache = RouteEtaCache::Create(net, opts, nullptr);
  ASSERT_TRUE(cache.ok());
  SpeedSnapshot snap =
      MakeSnapshot(0, 1, 0, std::vector<double>(net.num_roads(), 40.0));
  for (NodeId to = 0; to < 10; ++to) {
    ASSERT_TRUE(cache->Eta(snap, 0, to).ok());
    EXPECT_LE(cache->size(), 4u);
  }
}

TEST(RouteEtaCacheTest, BlendsStaleFieldThroughAttachedProfile) {
  RoadNetwork net = SmallGrid();
  ProductOptions opts = TestOptions();  // min_samples=2, ramp 4
  auto profile = SpeedProfileStore::Create(net.num_roads(), 144, opts);
  ASSERT_TRUE(profile.ok());
  // Mature every cell of bucket 0 at 60 km/h.
  std::vector<double> sixty(net.num_roads(), 60.0);
  ASSERT_TRUE(profile->Fold(MakeSnapshot(0, 1, 0, sixty)));
  ASSERT_TRUE(profile->Fold(MakeSnapshot(1, 2, 0, sixty)));

  auto cache = RouteEtaCache::Create(net, opts, &*profile);
  ASSERT_TRUE(cache.ok());

  // A fully-stale 30 km/h field blends to the 60 km/h profile (w=1): the
  // blended ETA must match routing on the profile speeds, and the blend is
  // flagged as such.
  SpeedSnapshot stale =
      MakeSnapshot(2, 3, 8, std::vector<double>(net.num_roads(), 30.0));
  auto blended = cache->Eta(stale, 0, 15);
  ASSERT_TRUE(blended.ok());
  EXPECT_EQ(blended->provenance, SpeedProvenance::kProfileBlend);
  EXPECT_TRUE(blended->route.stale);  // blended is still stale-derived
  auto on_profile = FastestRoute(net, sixty, 0, 15);
  ASSERT_TRUE(on_profile.ok());
  EXPECT_EQ(blended->route.roads, on_profile->roads);
  EXPECT_EQ(blended->route.travel_seconds, on_profile->travel_seconds);
}

// ---------------------------------------------------------------------------
// CityProducts over a live ServingSession.
// ---------------------------------------------------------------------------

class ProductServingTest : public ::testing::Test {
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

  ServingOptions ProductServingOptions() {
    ServingOptions opts;
    opts.publish_snapshots = true;
    opts.products = TestOptions();
    return opts;
  }

  static TrafficSpeedEstimator* estimator_;
  static std::vector<RoadId>* seeds_;
};

TrafficSpeedEstimator* ProductServingTest::estimator_ = nullptr;
std::vector<RoadId>* ProductServingTest::seeds_ = nullptr;

TEST_F(ProductServingTest, OptionsValidation) {
  // products.enabled without publish_snapshots: nothing to read — refused.
  ServingOptions opts;
  opts.products = TestOptions();
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  opts.publish_snapshots = true;
  EXPECT_TRUE(ServingSession::Create(estimator_, opts).ok());
  // Degenerate knobs are refused at the config layer.
  opts.products.profile_buckets_per_day = 0;
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  opts.products.profile_buckets_per_day = 24;
  opts.products.eta_cache_capacity = 0;
  EXPECT_FALSE(ServingSession::Create(estimator_, opts).ok());
  // Disabled products ignore the other knobs entirely.
  ServingOptions off;
  off.products.eta_cache_capacity = 0;
  EXPECT_TRUE(ServingSession::Create(estimator_, off).ok());
}

TEST_F(ProductServingTest, ForSessionRequiresTheSnapshotPath) {
  auto detached = ServingSession::Create(estimator_);
  ASSERT_TRUE(detached.ok());
  EXPECT_FALSE(CityProducts::ForSession(ds().net, *detached, 144).ok());

  auto session = ServingSession::Create(estimator_, ProductServingOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(CityProducts::ForSession(ds().net, *session, 144).ok());
}

// Before the first publish there is no snapshot to hold, and
// last_snapshot() is an empty one with version 0 rather than a dangling
// reference; after a publish it is the publisher's latest field.
TEST_F(ProductServingTest, LastSnapshotIsVersionZeroBeforeFirstPublish) {
  auto session = ServingSession::Create(estimator_, ProductServingOptions());
  ASSERT_TRUE(session.ok());
  auto products = CityProducts::ForSession(ds().net, *session, 144);
  ASSERT_TRUE(products.ok());
  EXPECT_EQ(products->last_snapshot().version, 0u);
  EXPECT_FALSE(products->Poll());
  EXPECT_EQ(products->last_snapshot().version, 0u);
  EXPECT_TRUE(products->last_snapshot().speed_kmh.empty());

  ASSERT_TRUE(session->Ingest(0, CleanObs(0)).ok());
  ASSERT_TRUE(products->Poll());
  EXPECT_EQ(products->last_snapshot().version, 1u);
  EXPECT_EQ(products->last_snapshot().speed_kmh,
            session->snapshot_publisher()->Latest()->speed_kmh);
}

TEST_F(ProductServingTest, PollFoldsAndEtaAnswersOverLiveSession) {
  obs::MetricsRegistry reg;
  auto session = ServingSession::Create(estimator_, ProductServingOptions());
  ASSERT_TRUE(session.ok());
  auto products = CityProducts::ForSession(ds().net, *session, 144);
  ASSERT_TRUE(products.ok());
  products->AttachMetrics(&reg);

  // Before the first served slot there is nothing to read.
  EXPECT_FALSE(products->Poll());
  EXPECT_FALSE(products->Eta(0, 1).ok());
  EXPECT_FALSE(products->RoadSpeed(0).ok());

  ASSERT_TRUE(session->Ingest(0, CleanObs(0)).ok());
  EXPECT_TRUE(products->Poll());
  EXPECT_EQ(products->profile().folds(), 1u);
  EXPECT_TRUE(products->Poll());  // over-polling is harmless
  EXPECT_EQ(products->profile().folds(), 1u);

  auto eta = products->Eta(0, static_cast<NodeId>(ds().net.num_nodes() - 1));
  ASSERT_TRUE(eta.ok()) << eta.status().ToString();
  EXPECT_EQ(eta->provenance, SpeedProvenance::kFresh);
  EXPECT_FALSE(eta->route.stale);
  EXPECT_GT(eta->route.travel_seconds, 0.0);

  auto speed = products->RoadSpeed(0);
  ASSERT_TRUE(speed.ok());
  EXPECT_EQ(speed->provenance, SpeedProvenance::kFresh);
  EXPECT_DOUBLE_EQ(speed->speed_kmh, products->last_snapshot().speed_kmh[0]);

  // A carried-forward slot: the ETA must arrive flagged.
  ASSERT_TRUE(session->Ingest(1, {}).ok());
  auto stale_eta =
      products->Eta(0, static_cast<NodeId>(ds().net.num_nodes() - 1));
  ASSERT_TRUE(stale_eta.ok());
  EXPECT_TRUE(stale_eta->route.stale);
  EXPECT_EQ(stale_eta->route.stale_slots, 1u);
  EXPECT_NE(stale_eta->provenance, SpeedProvenance::kFresh);

  // The catalog series saw all of it.
  EXPECT_EQ(reg.GetCounter(obs::kProductProfileFoldsTotal)->Value(),
            products->profile().folds());
  EXPECT_EQ(reg.GetCounter(obs::kProductEtaCacheMissesTotal)->Value(),
            products->eta_cache().stats().misses);
  EXPECT_GT(reg.GetHistogram(obs::kProductReadLatencyUs)->count(), 0u);
}

uint64_t g_step_now = 0;

// Product reads are timed on the tree's clock (obs/clock.h), so an injected
// clock reaches trendspeed_product_read_latency_us: with a clock that steps
// 1 ms per read, each timed Eta and RoadSpeed observes exactly 1000 us.
TEST_F(ProductServingTest, ReadLatencyUsesInjectedClock) {
  obs::MetricsRegistry reg;
  auto session = ServingSession::Create(estimator_, ProductServingOptions());
  ASSERT_TRUE(session.ok());
  auto products = CityProducts::ForSession(ds().net, *session, 144);
  ASSERT_TRUE(products.ok());
  products->AttachMetrics(&reg);
  ASSERT_TRUE(session->Ingest(0, CleanObs(0)).ok());

  g_step_now = 0;
  obs::SetMonotonicClockForTest(+[]() -> uint64_t {
    g_step_now += 1'000'000;
    return g_step_now;
  });
  auto eta = products->Eta(0, static_cast<NodeId>(ds().net.num_nodes() - 1));
  auto speed = products->RoadSpeed(0);
  obs::SetMonotonicClockForTest(nullptr);
  ASSERT_TRUE(eta.ok()) << eta.status().ToString();
  ASSERT_TRUE(speed.ok()) << speed.status().ToString();

  const obs::Histogram* h = reg.GetHistogram(obs::kProductReadLatencyUs);
  ASSERT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 2000.0);
}

// The tentpole's "detached is free" claim, pinned: a session with products
// enabled and a live CityProducts reader serves — slot for slot, element
// for element — the exact bytes of a session with products off. Attaching
// the read-side layer adds zero instructions to the serving path.
TEST_F(ProductServingTest, DetachedProductsServingIsBitwiseIdentical) {
  ServingOptions plain;
  plain.publish_snapshots = true;
  auto baseline = ServingSession::Create(estimator_, plain);
  auto with_products =
      ServingSession::Create(estimator_, ProductServingOptions());
  ASSERT_TRUE(baseline.ok() && with_products.ok());
  auto products = CityProducts::ForSession(ds().net, *with_products, 144);
  ASSERT_TRUE(products.ok());

  for (uint64_t slot = 0; slot < 6; ++slot) {
    // Slot 3 carries forward on both sides.
    auto obs = slot == 3 ? std::vector<SeedSpeed>{} : CleanObs(slot);
    auto a = baseline->Ingest(slot, obs);
    auto b = with_products->Ingest(slot, obs);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->monitor.estimate.speeds.speed_kmh,
              b->monitor.estimate.speeds.speed_kmh);
    EXPECT_EQ(a->monitor.estimate.speeds.deviation,
              b->monitor.estimate.speeds.deviation);
    EXPECT_EQ(a->stale, b->stale);
    // Products actively read and route between every slot.
    products->Poll();
    auto eta = products->Eta(0, 3);
    ASSERT_TRUE(eta.ok());
  }
  SpeedSnapshot sa, sb;
  ASSERT_TRUE(baseline->snapshot_publisher()->Read(&sa));
  ASSERT_TRUE(with_products->snapshot_publisher()->Read(&sb));
  EXPECT_EQ(sa.speed_kmh, sb.speed_kmh);
  EXPECT_EQ(sa.deviation, sb.deviation);
  EXPECT_EQ(sa.version, sb.version);
  EXPECT_EQ(sa.slot, sb.slot);
}

TEST_F(ProductServingTest, MultiCityProductsStayIsolated) {
  // Two cities over the same estimator but independent sessions: each
  // city's products read its own publisher; folds and caches never mix.
  auto alpha = ServingSession::Create(estimator_, ProductServingOptions());
  auto beta = ServingSession::Create(estimator_, ProductServingOptions());
  ASSERT_TRUE(alpha.ok() && beta.ok());

  auto products_a = CityProducts::ForSession(ds().net, *alpha, 144);
  auto products_b = CityProducts::ForSession(ds().net, *beta, 144);
  ASSERT_TRUE(products_a.ok() && products_b.ok());

  ASSERT_TRUE(alpha->Ingest(0, CleanObs(0)).ok());
  EXPECT_TRUE(products_a->Poll());
  // Beta has served nothing: its products see nothing — reading another
  // city's field through a reused snapshot is exactly the stale-tail bug
  // the snapshot Read reset fixed.
  EXPECT_FALSE(products_b->Poll());
  EXPECT_FALSE(products_b->Eta(0, 1).ok());
  EXPECT_EQ(products_a->profile().folds(), 1u);
  EXPECT_EQ(products_b->profile().folds(), 0u);

  ASSERT_TRUE(beta->Ingest(0, CleanObs(0)).ok());
  EXPECT_TRUE(products_b->Poll());
  EXPECT_EQ(products_b->profile().folds(), 1u);
  EXPECT_EQ(products_b->last_snapshot().version, 1u);
}

}  // namespace
}  // namespace trendspeed
