// Robustness "fuzz-lite" suites: hostile inputs must produce clean Status
// errors (or correct parses), never crashes or silent corruption.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "core/serving.h"
#include "corr/correlation_graph.h"
#include "io/serialize.h"
#include "test_util.h"
#include "util/binary_io.h"
#include "util/csv.h"
#include "util/random.h"

namespace trendspeed {
namespace {

TEST(CsvFuzzTest, RandomBytesNeverCrash) {
  Rng rng(42);
  const char alphabet[] = "abc,\"\n\r\\0123 \t;";
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    size_t len = rng.NextIndex(200);
    for (size_t i = 0; i < len; ++i) {
      input += alphabet[rng.NextIndex(sizeof(alphabet) - 1)];
    }
    auto result = ParseCsv(input);  // must not crash; ok or error both fine
    if (result.ok()) {
      // Parsed tables must be rectangular.
      for (const auto& row : result->rows) {
        EXPECT_EQ(row.size(), result->header.size());
      }
    }
  }
}

TEST(CsvFuzzTest, RoundTripRandomTables) {
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    CsvTable t;
    size_t cols = 1 + rng.NextIndex(5);
    for (size_t c = 0; c < cols; ++c) {
      t.header.push_back("col" + std::to_string(c));
    }
    size_t rows = rng.NextIndex(10);
    const char alphabet[] = "ab,\"\nx 1.5-";
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < cols; ++c) {
        std::string field;
        size_t len = rng.NextIndex(12);
        for (size_t i = 0; i < len; ++i) {
          field += alphabet[rng.NextIndex(sizeof(alphabet) - 1)];
        }
        row.push_back(field);
      }
      t.rows.push_back(row);
    }
    auto parsed = ParseCsv(WriteCsv(t));
    ASSERT_TRUE(parsed.ok()) << "trial " << trial;
    EXPECT_EQ(parsed->header, t.header);
    EXPECT_EQ(parsed->rows, t.rows);
  }
}

TEST(BinaryFuzzTest, TruncatedModelsFailCleanly) {
  const Dataset& ds = testing_util::SharedTinyDataset();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
  ASSERT_TRUE(est.ok());
  std::string bytes = SerializeTrainedModel(*est);
  Rng rng(44);
  for (int trial = 0; trial < 60; ++trial) {
    size_t cut = rng.NextIndex(bytes.size());
    auto loaded =
        DeserializeTrainedModel(&ds.net, &ds.history, bytes.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "truncation at " << cut << " was accepted";
  }
}

/// The tiny city's trained model, as the model-file tests serialize it.
TrafficSpeedEstimator TrainTiny() {
  const Dataset& ds = testing_util::SharedTinyDataset();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
  TS_CHECK(est.ok()) << est.status().ToString();
  return std::move(est).value();
}

TEST(BinaryFuzzTest, BitFlippedModelsNeverCrash) {
  const Dataset& ds = testing_util::SharedTinyDataset();
  const TrafficSpeedEstimator est = TrainTiny();
  const std::string bytes = SerializeTrainedModel(est);
  auto seeds = est.SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  const uint64_t slot = ds.first_test_slot();
  std::vector<SeedSpeed> obs;
  for (RoadId r : seeds->seeds) {
    obs.push_back({r, std::max(1.0, ds.truth.at(slot, r))});
  }
  // Four bits anywhere in the file: header, CONF, CORR, INFL and HSPD.
  Rng rng(45);
  size_t loaded_models = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = bytes;
    for (int f = 0; f < 4; ++f) {
      const size_t pos = rng.NextIndex(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^
                                       (1 << rng.NextIndex(8)));
    }
    // A corrupt file is a Status. A file that loads serves one slot with
    // finite speeds, or the session refuses the field and carries forward.
    auto loaded = DeserializeTrainedModel(&ds.net, &ds.history, mutated);
    if (!loaded.ok()) continue;
    ++loaded_models;
    auto session = ServingSession::Create(&*loaded, {});
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto report = session->Ingest(slot, obs);
    ASSERT_TRUE(report.ok()) << "trial " << trial << ": "
                             << report.status().ToString();
    if (report->stale) continue;
    for (double v : report->monitor.estimate.speeds.speed_kmh) {
      ASSERT_TRUE(std::isfinite(v)) << "trial " << trial;
    }
  }
  EXPECT_GT(loaded_models, 0u);
}

/// The byte offset of CORR's first edge in a serialized model.
size_t FirstCorrEdgeOffset(const std::string& bytes, size_t num_roads) {
  // Tag + version, then four option fields (u32, f64, u32, u32), then the
  // offsets vector (length + num_roads + 1 u32s), then the edges' length.
  const size_t corr = bytes.find("CORR");
  return corr + 8 + 20 + 8 + (num_roads + 1) * sizeof(uint32_t) + 8;
}

TEST(BinaryFuzzTest, LengthOverflowIsInvalidArgument) {
  // A vector length of 2^61 + 1 eight-byte elements wraps n * 8 to 8.
  BinaryWriter w;
  w.PutU64((uint64_t{1} << 61) + 1);
  w.PutF64(1.0);
  BinaryReader reader(w.buffer());
  auto vec = reader.GetVec<double>();
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), StatusCode::kInvalidArgument);

  // The same count as the influence model's cover count and as its first
  // cover's length, inside a whole model file.
  const Dataset& ds = testing_util::SharedTinyDataset();
  const TrafficSpeedEstimator est = TrainTiny();
  const std::string bytes = SerializeTrainedModel(est);
  const size_t infl = bytes.find("INFL");
  ASSERT_NE(infl, std::string::npos);
  for (size_t count_at : {infl + 8, infl + 16}) {
    std::string patched = bytes;
    const uint64_t huge = (uint64_t{1} << 61) + 1;
    std::memcpy(&patched[count_at], &huge, sizeof(huge));
    auto loaded = DeserializeTrainedModel(&ds.net, &ds.history, patched);
    ASSERT_FALSE(loaded.ok()) << "count at " << count_at;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BinaryFuzzTest, BadEdgeCompatibilityIsInvalidArgument) {
  const Dataset& ds = testing_util::SharedTinyDataset();
  const TrafficSpeedEstimator est = TrainTiny();
  ASSERT_GT(est.correlation_graph().num_edges(), 0u);
  const std::string bytes = SerializeTrainedModel(est);
  const size_t compat = FirstCorrEdgeOffset(bytes, ds.net.num_roads()) +
                        offsetof(CorrEdge, compat);
  ASSERT_TRUE(DeserializeTrainedModel(&ds.net, &ds.history, bytes).ok());
  for (float bad : {std::numeric_limits<float>::quiet_NaN(), 0.0f}) {
    std::string patched = bytes;
    std::memcpy(&patched[compat + sizeof(float)], &bad, sizeof(bad));
    auto loaded = DeserializeTrainedModel(&ds.net, &ds.history, patched);
    ASSERT_FALSE(loaded.ok()) << "compat " << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BinaryFuzzTest, BadTrainedFlagIsInvalidArgument) {
  const Dataset& ds = testing_util::SharedTinyDataset();
  const TrafficSpeedEstimator est = TrainTiny();
  const std::string bytes = SerializeTrainedModel(est);
  // The speed model is the file's last section: tag and version, six
  // option fields, the road classes, the road lines, ..., then the global
  // line and mean vectors, two f64s and a u8.
  BinaryWriter speed;
  est.speed_model().Serialize(&speed);
  const size_t hspd = bytes.size() - speed.buffer().size();
  const size_t road_line = hspd + 8 + 40 + 8 + ds.net.num_roads() + 8;
  const size_t global_line = bytes.size() - 17 - (8 + sizeof(TrendMean)) -
                             sizeof(WeightedTrendModel);
  for (size_t line : {road_line, global_line}) {
    std::string patched = bytes;
    patched[line + offsetof(WeightedTrendModel, trained)] = 17;
    auto loaded = DeserializeTrainedModel(&ds.net, &ds.history, patched);
    ASSERT_FALSE(loaded.ok()) << "line at " << line;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RecordsFuzzTest, GarbageCsvRecordsRejected) {
  CsvTable t;
  t.header = {"road", "slot", "speed_kmh"};
  t.rows = {{"abc", "1", "40"}};
  EXPECT_FALSE(RecordsFromCsv(t).ok());
  t.rows = {{"1", "-2", "40"}};
  EXPECT_FALSE(RecordsFromCsv(t).ok());
  t.rows = {{"1", "2", "fast"}};
  EXPECT_FALSE(RecordsFromCsv(t).ok());
  t.rows = {{"1", "2", "40"}, {"1", "2", ""}};
  EXPECT_FALSE(RecordsFromCsv(t).ok());
}

}  // namespace
}  // namespace trendspeed
