#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "io/dataset.h"
#include "io/serialize.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::SmallGrid;

TEST(SerializeTest, NetworkRoundTrip) {
  RoadNetwork net = SmallGrid();
  CsvTable nodes = NetworkNodesToCsv(net);
  CsvTable roads = NetworkRoadsToCsv(net);
  auto back = NetworkFromCsv(nodes, roads);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_nodes(), net.num_nodes());
  ASSERT_EQ(back->num_roads(), net.num_roads());
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    EXPECT_NEAR(back->node(i).x, net.node(i).x, 1e-3);
    EXPECT_NEAR(back->node(i).y, net.node(i).y, 1e-3);
  }
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    EXPECT_EQ(back->road(r).from, net.road(r).from);
    EXPECT_EQ(back->road(r).to, net.road(r).to);
    EXPECT_EQ(back->road(r).road_class, net.road(r).road_class);
    EXPECT_NEAR(back->road(r).free_flow_kmh, net.road(r).free_flow_kmh, 1e-3);
  }
}

TEST(SerializeTest, NetworkFromCsvRejectsGarbage) {
  CsvTable nodes;
  nodes.header = {"id", "x", "y"};
  nodes.rows = {{"0", "abc", "0"}};
  CsvTable roads;
  roads.header = {"id", "from", "to", "class", "free_flow_kmh"};
  EXPECT_FALSE(NetworkFromCsv(nodes, roads).ok());
  nodes.rows = {{"0", "0", "0"}, {"1", "1", "1"}};
  roads.rows = {{"0", "0", "7", "local", "40"}};
  EXPECT_FALSE(NetworkFromCsv(nodes, roads).ok());  // missing node
  roads.rows = {{"0", "0", "1", "superhighway", "40"}};
  EXPECT_FALSE(NetworkFromCsv(nodes, roads).ok());  // bad class
}

TEST(SerializeTest, SpeedFieldRoundTrip) {
  RoadNetwork net = SmallGrid();
  TrafficOptions opts;
  auto field = GenerateSpeedField(net, opts, 1);
  ASSERT_TRUE(field.ok());
  CsvTable csv = SpeedFieldToCsv(*field);
  auto back = SpeedFieldFromCsv(csv, net.num_roads(), opts.slots_per_day);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_slots(), field->num_slots());
  for (uint64_t s = 0; s < field->num_slots(); s += 13) {
    for (RoadId r = 0; r < net.num_roads(); ++r) {
      EXPECT_NEAR(back->at(s, r), field->at(s, r),
                  1e-4 * field->at(s, r) + 1e-6);
    }
  }
}

TEST(SerializeTest, SpeedFieldFromCsvRejectsGapsAndDuplicates) {
  CsvTable t;
  t.header = {"slot", "road", "speed_kmh"};
  // Complete 2-slot x 2-road table parses.
  t.rows = {{"0", "0", "30"}, {"0", "1", "33"},
            {"1", "0", "31"}, {"1", "1", "32"}};
  auto ok = SpeedFieldFromCsv(t, 2, 144);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_NEAR(ok->at(1, 1), 32.0, 1e-9);

  // Missing cell (1, 1): used to come back as a silent 0 km/h.
  t.rows = {{"0", "0", "30"}, {"0", "1", "33"}, {"1", "0", "31"}};
  EXPECT_FALSE(SpeedFieldFromCsv(t, 2, 144).ok());

  // Duplicate (slot, road) row.
  t.rows = {{"0", "0", "30"}, {"0", "1", "33"},
            {"1", "0", "31"}, {"1", "1", "32"}, {"1", "1", "99"}};
  EXPECT_FALSE(SpeedFieldFromCsv(t, 2, 144).ok());

  // Non-finite speed.
  t.rows = {{"0", "0", "nan"}, {"0", "1", "33"}};
  EXPECT_FALSE(SpeedFieldFromCsv(t, 2, 144).ok());

  // Empty table.
  t.rows.clear();
  EXPECT_FALSE(SpeedFieldFromCsv(t, 2, 144).ok());
}

TEST(SerializeTest, RecordsRoundTripAndHistoryRebuild) {
  std::vector<RawRecord> records = {
      {0, 3, 42.5}, {1, 3, 30.0}, {0, 4, 40.0}, {0, 3, 43.5}};
  CsvTable csv = RecordsToCsv(records);
  auto back = RecordsFromCsv(csv);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 4u);
  EXPECT_EQ((*back)[0].road, 0u);
  EXPECT_NEAR((*back)[0].speed_kmh, 42.5, 1e-9);
  auto db = HistoryFromRecords(*back, 2, 10, 144);
  ASSERT_TRUE(db.ok());
  EXPECT_NEAR(db->Observation(0, 3), 43.0, 1e-5);  // averaged duplicates
  EXPECT_NEAR(db->Observation(1, 3), 30.0, 1e-5);
  EXPECT_FALSE(db->HasObservation(1, 4));
}

TEST(SerializeTest, HistoryFromRecordsValidates) {
  EXPECT_FALSE(HistoryFromRecords({{5, 0, 10.0}}, 2, 10, 144).ok());
  EXPECT_FALSE(HistoryFromRecords({{0, 50, 10.0}}, 2, 10, 144).ok());
  EXPECT_FALSE(HistoryFromRecords({{0, 0, -1.0}}, 2, 10, 144).ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(HistoryFromRecords({{0, 0, bad}}, 2, 10, 144).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DatasetTest, TinyCityIsWellFormed) {
  const Dataset& ds = testing_util::SharedTinyDataset();
  EXPECT_EQ(ds.name, "TinyCity");
  EXPECT_GT(ds.net.num_roads(), 10u);
  EXPECT_EQ(ds.truth.num_roads(), ds.net.num_roads());
  EXPECT_EQ(ds.num_slots(),
            (ds.history_days + ds.test_days) * uint64_t{144});
  EXPECT_EQ(ds.history.num_slots(), ds.history_days * uint64_t{144});
  EXPECT_EQ(ds.first_test_slot(), ds.history_days * uint64_t{144});
  EXPECT_GT(ds.history.CoverageFraction(), 0.02);
}

TEST(DatasetTest, RejectsZeroDays) {
  DatasetOptions opts;
  opts.history_days = 0;
  EXPECT_FALSE(BuildTinyCity(opts).ok());
}

TEST(DatasetTest, HistoryMeansTrackTruthMeans) {
  const Dataset& ds = testing_util::SharedTinyDataset();
  // For a well-covered road, the historical bucket mean should be within a
  // reasonable band of the true average for that bucket.
  RoadId best = 0;
  for (RoadId r = 0; r < ds.net.num_roads(); ++r) {
    if (ds.history.CoverageCount(r) > ds.history.CoverageCount(best)) best = r;
  }
  ASSERT_GT(ds.history.CoverageCount(best), 100u);
  uint64_t slot = 8 * 6;  // 08:00 on day 0 (Monday)
  double hist = ds.history.HistoricalMeanOr(best, slot,
                                            ds.net.road(best).free_flow_kmh);
  // True mean over the same weekday bucket within history days.
  double sum = 0.0;
  int n = 0;
  SlotClock clock{144};
  for (uint32_t day = 0; day < ds.history_days; ++day) {
    uint64_t s = day * 144ull + slot % 144;
    if (clock.IsWeekend(s)) continue;
    sum += ds.truth.at(s, best);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_NEAR(hist, sum / n, 0.25 * sum / n);
}

TEST(DatasetTest, CityBuildersProduceDistinctTopologies) {
  DatasetOptions opts;
  opts.history_days = 2;
  opts.test_days = 1;
  opts.use_probe_fleet = false;
  auto a = BuildCityA(opts);
  auto b = BuildCityB(opts);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->name, "CityA");
  EXPECT_EQ(b->name, "CityB");
  EXPECT_NE(a->net.num_roads(), b->net.num_roads());
  // CityA has highways (ring roads); CityB does not.
  EXPECT_GT(a->net.CountByClass()[static_cast<size_t>(RoadClass::kHighway)],
            0u);
  EXPECT_EQ(b->net.CountByClass()[static_cast<size_t>(RoadClass::kHighway)],
            0u);
}

}  // namespace
}  // namespace trendspeed
