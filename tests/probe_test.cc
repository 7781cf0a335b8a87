#include <bit>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "probe/gps.h"
#include "probe/history.h"
#include "probe/map_matching.h"
#include "probe/trips.h"
#include "roadnet/shortest_path.h"
#include "test_util.h"
#include "traffic/simulator.h"
#include "util/random.h"
#include "util/stats.h"

namespace trendspeed {
namespace {

using testing_util::PathNetwork;
using testing_util::SmallGrid;

TEST(TripGeneratorTest, ProducesRoutableTrips) {
  RoadNetwork net = SmallGrid();
  TripGenerator gen(&net, {});
  for (int i = 0; i < 50; ++i) {
    auto trip = gen.Next();
    ASSERT_TRUE(trip.ok());
    EXPECT_NE(trip->origin, trip->destination);
    ASSERT_FALSE(trip->roads.empty());
    // Path is contiguous and connects the endpoints.
    EXPECT_EQ(net.road(trip->roads.front()).from, trip->origin);
    EXPECT_EQ(net.road(trip->roads.back()).to, trip->destination);
    for (size_t k = 1; k < trip->roads.size(); ++k) {
      EXPECT_EQ(net.road(trip->roads[k - 1]).to,
                net.road(trip->roads[k]).from);
    }
  }
}

TEST(TripGeneratorTest, HotspotBiasSkewsEndpoints) {
  RoadNetwork net = SmallGrid();
  TripGeneratorOptions opts;
  opts.num_hotspots = 2;
  opts.hotspot_bias = 0.9;
  TripGenerator gen(&net, opts);
  ASSERT_EQ(gen.hotspots().size(), 2u);
  std::set<NodeId> hotspots(gen.hotspots().begin(), gen.hotspots().end());
  int hot_endpoints = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    auto trip = gen.Next();
    ASSERT_TRUE(trip.ok());
    total += 2;
    if (hotspots.count(trip->origin)) ++hot_endpoints;
    if (hotspots.count(trip->destination)) ++hot_endpoints;
  }
  // With bias 0.9 toward 2 of 16 nodes, hot endpoints dominate.
  EXPECT_GT(hot_endpoints, total / 2);
}

TEST(GpsTest, EmitsFixesAlongPath) {
  RoadNetwork net = PathNetwork();
  TripPlan trip;
  trip.origin = 0;
  trip.destination = 2;
  trip.roads = {0, 2};  // A->B, B->C
  std::vector<double> speeds(net.num_roads(), 36.0);  // 10 m/s
  GpsOptions opts;
  opts.sample_interval_s = 10.0;
  opts.position_noise_m = 0.0;
  Rng rng(3);
  GpsTrace trace = DriveTrip(net, trip, speeds, opts, 600.0, 1, &rng);
  // 1000 m at 10 m/s = 100 s -> fixes at t=0,10,...,90 (10 fixes).
  ASSERT_EQ(trace.points.size(), 10u);
  EXPECT_DOUBLE_EQ(trace.points[0].x, 0.0);
  EXPECT_NEAR(trace.points[5].x, 500.0, 1e-9);
  EXPECT_EQ(trace.true_roads[0], 0u);
  EXPECT_EQ(trace.true_roads[9], 2u);
  // Noiseless fixes advance by speed * interval.
  for (size_t i = 1; i < trace.points.size(); ++i) {
    EXPECT_NEAR(trace.points[i].x - trace.points[i - 1].x, 100.0, 1e-9);
  }
}

TEST(GpsTest, TruncatesAtMaxDuration) {
  RoadNetwork net = PathNetwork();
  TripPlan trip;
  trip.roads = {0, 2};
  std::vector<double> speeds(net.num_roads(), 36.0);
  GpsOptions opts;
  opts.sample_interval_s = 10.0;
  Rng rng(4);
  GpsTrace trace = DriveTrip(net, trip, speeds, opts, 35.0, 1, &rng);
  for (const GpsPoint& p : trace.points) EXPECT_LE(p.t_seconds, 35.0);
}

TEST(SegmentIndexTest, CandidatesContainTrueRoad) {
  RoadNetwork net = SmallGrid();
  SegmentIndex index(&net, 200.0, 60.0);
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    Node mid = net.Midpoint(r);
    auto cands = index.Candidates(mid.x + 5.0, mid.y + 5.0);
    EXPECT_TRUE(std::find(cands.begin(), cands.end(), r) != cands.end())
        << "road " << r << " missing from its own candidates";
  }
}

TEST(SegmentIndexTest, DistanceToSegment) {
  RoadNetwork net = PathNetwork();
  SegmentIndex index(&net);
  // Road 0 spans (0,0)-(500,0): perpendicular distance.
  EXPECT_NEAR(index.DistanceTo(0, 250.0, 40.0), 40.0, 1e-9);
  // Beyond the endpoint: distance to the endpoint itself.
  EXPECT_NEAR(index.DistanceTo(0, 530.0, 40.0), 50.0, 1e-9);
}

TEST(SegmentIndexTest, OffNetworkPointHasNoCandidates) {
  RoadNetwork net = SmallGrid();
  SegmentIndex index(&net, 200.0, 50.0);
  auto cands = index.Candidates(-5000.0, -5000.0);
  EXPECT_TRUE(cands.empty());
}

TEST(MapMatchingTest, RecoversTrueRoadsOnModerateNoise) {
  RoadNetwork net = SmallGrid();
  TripGenerator gen(&net, {});
  SegmentIndex index(&net);
  std::vector<double> speeds(net.num_roads(), 40.0);
  GpsOptions opts;
  opts.sample_interval_s = 15.0;
  opts.position_noise_m = 10.0;
  Rng rng(6);
  size_t total = 0, correct = 0;
  for (int t = 0; t < 30; ++t) {
    auto trip = gen.Next();
    ASSERT_TRUE(trip.ok());
    GpsTrace trace = DriveTrip(net, *trip, speeds, opts, 600.0, t, &rng);
    auto matched = MatchTrace(index, trace.points);
    for (size_t i = 0; i < matched.size(); ++i) {
      ++total;
      if (matched[i] == trace.true_roads[i]) ++correct;
    }
  }
  ASSERT_GT(total, 100u);
  // Heading-aware matching should recover the majority of fixes, including
  // the direction disambiguation of two-way streets.
  EXPECT_GT(static_cast<double>(correct) / total, 0.7);
}

TEST(ExtractSpeedsTest, ComputesRunSpeeds) {
  std::vector<GpsPoint> pts(4);
  // 3 fixes on road 7 moving 100 m / 10 s, then 1 on road 9.
  for (int i = 0; i < 3; ++i) {
    pts[i].x = 100.0 * i;
    pts[i].t_seconds = 10.0 * i;
  }
  pts[3].x = 400.0;
  pts[3].t_seconds = 30.0;
  std::vector<RoadId> matched = {7, 7, 7, 9};
  auto obs = ExtractSpeeds(pts, matched);
  ASSERT_EQ(obs.size(), 1u);  // road 9 has a single fix -> no speed
  EXPECT_EQ(obs[0].road, 7u);
  EXPECT_NEAR(obs[0].speed_kmh, 36.0, 1e-9);
}

TEST(ExtractSpeedsTest, DiscardsImplausibleAndUnmatched) {
  std::vector<GpsPoint> pts(4);
  for (int i = 0; i < 4; ++i) {
    pts[i].x = 2000.0 * i;  // 2 km per 10 s = 720 km/h
    pts[i].t_seconds = 10.0 * i;
  }
  std::vector<RoadId> matched = {1, 1, kInvalidRoad, kInvalidRoad};
  EXPECT_TRUE(ExtractSpeeds(pts, matched, 130.0).empty());
}

TEST(HistoricalDbTest, BucketMeansAndFallbacks) {
  RoadNetwork net = PathNetwork();
  HistoricalDb::Builder builder(net.num_roads(), 144 * 7, 144);
  // Road 0: 50 km/h every Monday-slot-10 equivalent... use weekday slots.
  for (int day = 0; day < 5; ++day) {
    builder.Add(0, day * 144 + 10, 50.0);
  }
  HistoricalDb db = builder.Finish();
  // Bucket (weekday, slot 10) has 5 samples -> bucket mean.
  EXPECT_NEAR(db.HistoricalMeanOr(0, 10, 99.0), 50.0, 1e-6);
  // Same slot on Saturday (weekend bucket, no data) -> road mean.
  EXPECT_NEAR(db.HistoricalMeanOr(0, 5 * 144 + 10, 99.0), 50.0, 1e-6);
  // Road 1 has nothing -> fallback.
  EXPECT_DOUBLE_EQ(db.HistoricalMeanOr(1, 10, 99.0), 99.0);
  EXPECT_TRUE(db.HasHistory(0));
  EXPECT_FALSE(db.HasHistory(1));
}

TEST(HistoricalDbTest, MultipleObservationsAveraged) {
  HistoricalDb::Builder builder(1, 10, 144);
  builder.Add(0, 3, 40.0);
  builder.Add(0, 3, 60.0);
  HistoricalDb db = builder.Finish();
  ASSERT_TRUE(db.HasObservation(0, 3));
  EXPECT_NEAR(db.Observation(0, 3), 50.0, 1e-6);
  EXPECT_FALSE(db.HasObservation(0, 4));
  EXPECT_EQ(db.TotalObservations(), 1u);
}

TEST(HistoricalDbTest, TrendAndDeviation) {
  RoadNetwork net = PathNetwork();
  HistoricalDb db = testing_util::AlternatingHistory(net, 288, 144, 0.2);
  // Bucket mean at any slot mixes the +swing and -swing days... slots
  // alternate within a day, so bucket (slot parity) is consistent: slot 0
  // always +20%. Deviation of the bucket mean vs itself is ~0.
  double mean0 = db.HistoricalMeanOr(0, 0, 1.0);
  EXPECT_GT(mean0, 0.0);
  EXPECT_EQ(db.TrendOf(0, 0, mean0 + 1.0, 1.0), +1);
  EXPECT_EQ(db.TrendOf(0, 0, mean0 - 1.0, 1.0), -1);
  EXPECT_NEAR(db.DeviationOf(0, 0, mean0 * 1.1), 0.1, 1e-6);
}

TEST(HistoricalDbTest, TrendUpProbabilitySmoothing) {
  HistoricalDb::Builder builder(1, 4, 144);
  HistoricalDb db = builder.Finish();
  // No data: Laplace smoothing gives exactly 0.5.
  EXPECT_DOUBLE_EQ(db.TrendUpProbability(0, 0), 0.5);
}

TEST(HistoricalDbTest, TrendUpProbabilityEmptyBucketZeroPseudo) {
  HistoricalDb::Builder builder(1, 4, 144);
  HistoricalDb db = builder.Finish();
  // Empty bucket and pseudo = 0 used to divide 0/0; the uninformed prior
  // must come back, not NaN.
  double p = db.TrendUpProbability(0, 0, /*pseudo=*/0.0);
  EXPECT_FALSE(std::isnan(p));
  EXPECT_DOUBLE_EQ(p, 0.5);
}

TEST(HistoricalDbTest, SaturatedCellMeanIsUnbiased) {
  HistoricalDb::Builder builder(1, 1, 144);
  // Saturate the uint16 observation counter at exactly 40 km/h...
  for (int i = 0; i < 65535; ++i) builder.Add(0, 0, 40.0);
  // ...then keep hammering the cell with much faster reports. The counter
  // can no longer advance, so these must not accumulate into the sum
  // either — the pre-fix code inflated the mean here.
  for (int i = 0; i < 1000; ++i) builder.Add(0, 0, 90.0);
  HistoricalDb db = builder.Finish();
  EXPECT_NEAR(db.Observation(0, 0), 40.0, 0.01);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Recounts HistoricalDb's bucket aggregates from its cell means, one road
// at a time, in the road-major (road, bucket) layout: an oracle for the
// lookups that does not share the db's bucket indexing.
struct RoadMajorBuckets {
  explicit RoadMajorBuckets(const HistoricalDb& db)
      : clock(db.clock()),
        per_road(2 * db.slots_per_day()),
        mean(db.num_roads() * per_road, 0.0f),
        count(db.num_roads() * per_road, 0),
        up(db.num_roads() * per_road, 0),
        road_mean(db.num_roads(), 0.0f),
        road_count(db.num_roads(), 0) {
    for (RoadId r = 0; r < db.num_roads(); ++r) {
      std::vector<double> sum(per_road, 0.0);
      double road_sum = 0.0;
      for (uint64_t s = 0; s < db.num_slots(); ++s) {
        if (!db.HasObservation(r, s)) continue;
        double x = db.Observation(r, s);
        sum[Bucket(s)] += x;
        ++count[Idx(r, s)];
        road_sum += x;
        ++road_count[r];
      }
      for (size_t b = 0; b < per_road; ++b) {
        size_t i = r * per_road + b;
        if (count[i] > 0) mean[i] = static_cast<float>(sum[b] / count[i]);
      }
      if (road_count[r] > 0) {
        road_mean[r] = static_cast<float>(road_sum / road_count[r]);
      }
      for (uint64_t s = 0; s < db.num_slots(); ++s) {
        if (!db.HasObservation(r, s)) continue;
        double x = db.Observation(r, s);
        if (x >= MeanOr(r, s, x)) ++up[Idx(r, s)];
      }
    }
  }

  size_t Bucket(uint64_t s) const {
    return (clock.IsWeekend(s) ? clock.slots_per_day : 0u) +
           clock.SlotOfDay(s);
  }
  size_t Idx(RoadId r, uint64_t s) const { return r * per_road + Bucket(s); }

  double MeanOr(RoadId r, uint64_t s, double fallback) const {
    if (count[Idx(r, s)] >= 3) return mean[Idx(r, s)];
    if (road_count[r] > 0) return road_mean[r];
    return fallback;
  }
  double TrendUp(RoadId r, uint64_t s, double pseudo) const {
    double denom = static_cast<double>(count[Idx(r, s)]) + 2.0 * pseudo;
    if (denom <= 0.0) return 0.5;
    return (static_cast<double>(up[Idx(r, s)]) + pseudo) / denom;
  }

  SlotClock clock;
  size_t per_road;
  std::vector<float> mean;
  std::vector<uint32_t> count, up;
  std::vector<float> road_mean;
  std::vector<uint32_t> road_count;
};

constexpr uint32_t kMixedSlotsPerDay = 6;
constexpr uint64_t kMixedSlots = 14 * kMixedSlotsPerDay;  // two weekends
constexpr size_t kMixedRoads = 6;

// Six roads over two weeks whose buckets reach every lookup branch: dense,
// thin (< 3 samples), weekend-only, no history at all, a single report,
// and one saturated cell.
HistoricalDb MixedHistory() {
  HistoricalDb::Builder builder(kMixedRoads, kMixedSlots, kMixedSlotsPerDay);
  SlotClock clock{kMixedSlotsPerDay};
  Rng rng(77);
  for (uint64_t s = 0; s < kMixedSlots; ++s) {
    // Road 0: dense, sometimes two reports per cell.
    if (rng.NextBool(0.9)) builder.Add(0, s, rng.Uniform(20.0, 60.0));
    if (rng.NextBool(0.3)) builder.Add(0, s, rng.Uniform(20.0, 60.0));
    // Road 1: sparse, so most buckets hold fewer than 3 samples.
    if (rng.NextBool(0.2)) builder.Add(1, s, rng.Uniform(10.0, 50.0));
    // Road 2: no history at all.
    // Road 3: weekends only, so its weekday buckets are empty.
    if (clock.IsWeekend(s)) builder.Add(3, s, rng.Uniform(30.0, 70.0));
    // Road 4: half the slots, plus one saturated cell below.
    if (s % 2 == 0) builder.Add(4, s, rng.Uniform(25.0, 45.0));
  }
  // Road 5: a single observation.
  builder.Add(5, 9, 33.0);
  for (int i = 0; i < 65535; ++i) builder.Add(4, 7, 40.0);
  for (int i = 0; i < 100; ++i) builder.Add(4, 7, 90.0);
  return builder.Finish();
}

TEST(HistoricalDbTest, BucketLookupsMatchRoadMajorReference) {
  HistoricalDb db = MixedHistory();
  RoadMajorBuckets ref(db);
  ASSERT_NEAR(db.Observation(4, 7), 40.0, 0.01);

  size_t thin = 0, empty_with_history = 0;
  for (RoadId r = 0; r < kMixedRoads; ++r) {
    for (uint64_t s = 0; s < kMixedSlots; ++s) {
      SCOPED_TRACE(testing::Message() << "road " << r << " slot " << s);
      uint32_t c = ref.count[ref.Idx(r, s)];
      if (c > 0 && c < 3) ++thin;
      if (c == 0 && ref.road_count[r] > 0) ++empty_with_history;
      double mean = ref.MeanOr(r, s, 77.0);
      EXPECT_EQ(Bits(db.HistoricalMeanOr(r, s, 77.0)), Bits(mean));
      EXPECT_EQ(Bits(db.TrendUpProbability(r, s)),
                Bits(ref.TrendUp(r, s, 3.0)));
      EXPECT_EQ(Bits(db.TrendUpProbability(r, s, 0.0)),
                Bits(ref.TrendUp(r, s, 0.0)));
      for (double speed : {mean - 0.5, mean, mean + 0.5}) {
        EXPECT_EQ(db.TrendOf(r, s, speed, 77.0), speed >= mean ? +1 : -1);
      }
      double mean0 = ref.MeanOr(r, s, 0.0);
      double dev = mean0 <= 0.0 ? 0.0 : 35.0 / mean0 - 1.0;
      EXPECT_EQ(Bits(db.DeviationOf(r, s, 35.0)), Bits(dev));
    }
  }
  // The fixture reaches every fallback branch.
  EXPECT_GT(thin, 0u);
  EXPECT_GT(empty_with_history, 0u);
  EXPECT_FALSE(db.HasHistory(2));
}

// The per-slot bucket view serving hoists out of its road loops must
// answer exactly what the per-road lookups answer, and both what the
// road-major reference recounts, on weekday and weekend slots and through
// every fallback: a thin bucket's road mean, a road with no history, and an
// empty bucket with pseudo = 0 (the uninformed 0.5).
TEST(HistoricalDbTest, BucketViewMatchesPerRoadLookups) {
  HistoricalDb db = MixedHistory();
  RoadMajorBuckets ref(db);
  const SlotClock& clock = db.clock();
  size_t weekend_slots = 0, road_mean_fallbacks = 0, uninformed = 0;
  for (uint64_t s = 0; s < kMixedSlots; ++s) {
    const HistoricalDb::BucketView view = db.Bucket(s);
    if (clock.IsWeekend(s)) ++weekend_slots;
    for (RoadId r = 0; r < kMixedRoads; ++r) {
      SCOPED_TRACE(testing::Message() << "road " << r << " slot " << s);
      uint32_t c = ref.count[ref.Idx(r, s)];
      if (c < 3 && ref.road_count[r] > 0) ++road_mean_fallbacks;
      double mean = view.MeanOr(r, 77.0);
      EXPECT_EQ(Bits(mean), Bits(db.HistoricalMeanOr(r, s, 77.0)));
      EXPECT_EQ(Bits(mean), Bits(ref.MeanOr(r, s, 77.0)));
      for (double pseudo : {0.0, 3.0}) {
        double p = view.TrendUp(r, pseudo);
        EXPECT_EQ(Bits(p), Bits(db.TrendUpProbability(r, s, pseudo)));
        EXPECT_EQ(Bits(p), Bits(ref.TrendUp(r, s, pseudo)));
        if (c == 0 && pseudo == 0.0) {
          EXPECT_EQ(Bits(p), Bits(0.5));
          ++uninformed;
        }
      }
      for (double speed : {mean - 0.5, mean, mean + 0.5}) {
        EXPECT_EQ(view.TrendOf(r, speed, 77.0),
                  db.TrendOf(r, s, speed, 77.0));
      }
    }
  }
  EXPECT_GT(weekend_slots, 0u);
  EXPECT_LT(weekend_slots, kMixedSlots);
  EXPECT_GT(road_mean_fallbacks, 0u);
  EXPECT_GT(uninformed, 0u);
  // Road 2 has no history: its mean is the caller's fallback.
  EXPECT_FALSE(db.HasHistory(2));
  EXPECT_EQ(Bits(db.Bucket(0).MeanOr(2, 77.0)), Bits(77.0));
}

TEST(HistoricalDbTest, CoverageStats) {
  HistoricalDb::Builder builder(2, 10, 144);
  for (uint64_t s = 0; s < 10; ++s) builder.Add(0, s, 30.0);
  HistoricalDb db = builder.Finish();
  EXPECT_DOUBLE_EQ(db.CoverageFraction(), 0.5);
  EXPECT_DOUBLE_EQ(db.UnobservedRoadFraction(), 0.5);
  EXPECT_EQ(db.CoverageCount(0), 10u);
  EXPECT_EQ(db.CoverageCount(1), 0u);
}

TEST(CollectProbeHistoryTest, EndToEndPipelinePopulatesDb) {
  RoadNetwork net = SmallGrid();
  TrafficOptions topts;
  auto field = GenerateSpeedField(net, topts, 2);
  ASSERT_TRUE(field.ok());
  ProbeFleetOptions fleet;
  fleet.trips_per_slot = 5;
  auto db = CollectProbeHistory(net, *field, fleet);
  ASSERT_TRUE(db.ok());
  EXPECT_GT(db->TotalObservations(), 100u);
  EXPECT_GT(db->CoverageFraction(), 0.01);
  // Observed speeds should be within the physical range of the simulator.
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    for (uint64_t s = 0; s < db->num_slots(); ++s) {
      if (db->HasObservation(r, s)) {
        EXPECT_GT(db->Observation(r, s), 0.0);
        EXPECT_LT(db->Observation(r, s), 140.0);
      }
    }
  }
}

TEST(CollectProbeHistoryTest, ObservedSpeedsTrackTruth) {
  RoadNetwork net = SmallGrid();
  TrafficOptions topts;
  topts.incidents.rate_per_slot = 0.0;
  auto field = GenerateSpeedField(net, topts, 2);
  ASSERT_TRUE(field.ok());
  ProbeFleetOptions fleet;
  fleet.trips_per_slot = 10;
  fleet.gps.position_noise_m = 5.0;
  auto db = CollectProbeHistory(net, *field, fleet);
  ASSERT_TRUE(db.ok());
  OnlineStats rel_err;
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    for (uint64_t s = 0; s < db->num_slots(); ++s) {
      if (!db->HasObservation(r, s)) continue;
      double truth = field->at(s, r);
      rel_err.Add(std::fabs(db->Observation(r, s) - truth) / truth);
    }
  }
  ASSERT_GT(rel_err.count(), 50u);
  // Map-matched probe speeds are noisy but should track truth broadly.
  EXPECT_LT(rel_err.mean(), 0.35);
}

TEST(CollectIdealizedHistoryTest, CoverageIsSkewed) {
  RoadNetwork net = SmallGrid();
  TrafficOptions topts;
  auto field = GenerateSpeedField(net, topts, 3);
  ASSERT_TRUE(field.ok());
  auto db = CollectIdealizedHistory(net, *field, 0.3, 2.0, 42);
  ASSERT_TRUE(db.ok());
  // Coverage counts should vary strongly across roads (exponential skew).
  OnlineStats counts;
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    counts.Add(static_cast<double>(db->CoverageCount(r)));
  }
  EXPECT_GT(counts.max(), 2.0 * counts.mean());
  EXPECT_FALSE(CollectIdealizedHistory(net, *field, 0.0, 2.0, 1).ok());
}

}  // namespace
}  // namespace trendspeed
