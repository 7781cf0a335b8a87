#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "test_util.h"
#include "util/binary_io.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.PutTag("TEST", 3);
  w.PutU8(7);
  w.PutU32(123456);
  w.PutU64(uint64_t{1} << 40);
  w.PutF64(-2.5);
  w.PutF32(1.25f);
  w.PutString("hello");
  w.PutVec(std::vector<double>{1.0, 2.0, 3.0});
  BinaryReader r(w.buffer());
  auto version = r.ExpectTag("TEST");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 3u);
  EXPECT_EQ(*r.GetU8(), 7);
  EXPECT_EQ(*r.GetU32(), 123456u);
  EXPECT_EQ(*r.GetU64(), uint64_t{1} << 40);
  EXPECT_DOUBLE_EQ(*r.GetF64(), -2.5);
  EXPECT_FLOAT_EQ(*r.GetF32(), 1.25f);
  EXPECT_EQ(*r.GetString(), "hello");
  auto vec = r.GetVec<double>();
  ASSERT_TRUE(vec.ok());
  EXPECT_EQ(vec->size(), 3u);
  EXPECT_DOUBLE_EQ((*vec)[2], 3.0);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, TruncationAndBadTagFail) {
  BinaryWriter w;
  w.PutU64(1000);  // claims 1000 elements, provides none
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.GetVec<double>().ok());

  BinaryWriter w2;
  w2.PutTag("AAAA", 1);
  BinaryReader r2(w2.buffer());
  EXPECT_FALSE(r2.ExpectTag("BBBB").ok());

  BinaryReader r3("");
  EXPECT_FALSE(r3.GetU32().ok());
}

class ModelIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(est.ok());
    estimator_ = new TrafficSpeedEstimator(std::move(est).value());
  }
  const Dataset& ds() { return SharedTinyDataset(); }
  static TrafficSpeedEstimator* estimator_;
};

TrafficSpeedEstimator* ModelIoTest::estimator_ = nullptr;

TEST_F(ModelIoTest, SerializedModelEstimatesIdentically) {
  std::string bytes = SerializeTrainedModel(*estimator_);
  EXPECT_GT(bytes.size(), 1000u);
  auto loaded = DeserializeTrainedModel(&ds().net, &ds().history, bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Seed selection and a full estimate must match bit-for-bit.
  auto s1 = estimator_->SelectSeeds(6, SeedStrategy::kGreedy);
  auto s2 = loaded->SelectSeeds(6, SeedStrategy::kGreedy);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->seeds, s2->seeds);
  EXPECT_DOUBLE_EQ(s1->objective, s2->objective);

  uint64_t slot = ds().first_test_slot() + 5;
  std::vector<SeedSpeed> obs;
  for (RoadId r : s1->seeds) obs.push_back({r, ds().truth.at(slot, r)});
  auto o1 = estimator_->Estimate(slot, obs);
  auto o2 = loaded->Estimate(slot, obs);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->speeds.speed_kmh, o2->speeds.speed_kmh);
  EXPECT_EQ(o1->trends.p_up, o2->trends.p_up);
}

TEST_F(ModelIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/trendspeed_model.bin";
  ASSERT_TRUE(SaveTrainedModel(*estimator_, path).ok());
  auto loaded = LoadTrainedModel(&ds().net, &ds().history, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->correlation_graph().num_edges(),
            estimator_->correlation_graph().num_edges());
  EXPECT_EQ(loaded->speed_model().num_road_models(),
            estimator_->speed_model().num_road_models());
  std::remove(path.c_str());
}

TEST_F(ModelIoTest, RejectsWrongNetwork) {
  std::string bytes = SerializeTrainedModel(*estimator_);
  RoadNetwork other = testing_util::PathNetwork();
  HistoricalDb other_db = testing_util::AlternatingHistory(other, 16);
  EXPECT_FALSE(DeserializeTrainedModel(&other, &other_db, bytes).ok());
}

TEST_F(ModelIoTest, RejectsCorruptBytes) {
  std::string bytes = SerializeTrainedModel(*estimator_);
  // Truncated.
  EXPECT_FALSE(DeserializeTrainedModel(&ds().net, &ds().history,
                                       bytes.substr(0, bytes.size() / 2))
                   .ok());
  // Wrong magic.
  std::string garbled = bytes;
  garbled[0] = 'X';
  EXPECT_FALSE(
      DeserializeTrainedModel(&ds().net, &ds().history, garbled).ok());
  // Empty.
  EXPECT_FALSE(DeserializeTrainedModel(&ds().net, &ds().history, "").ok());

  // The speed model is the file's last section.
  BinaryWriter speed;
  estimator_->speed_model().Serialize(&speed);
  size_t speed_at = bytes.size() - speed.buffer().size();
  // Road-class byte outside {highway, arterial, local}: tag and version,
  // six option fields, then the road-class vector's length.
  std::string bad_class = bytes;
  bad_class[speed_at + 8 + 40 + 8] = 3;
  EXPECT_FALSE(
      DeserializeTrainedModel(&ds().net, &ds().history, bad_class).ok());
  // A speed model trained on a different network.
  RoadNetwork other = testing_util::PathNetwork();
  HistoricalDb other_db = testing_util::AlternatingHistory(other, 64);
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  auto other_est = TrafficSpeedEstimator::Train(&other, &other_db, config);
  ASSERT_TRUE(other_est.ok());
  BinaryWriter other_speed;
  other_est->speed_model().Serialize(&other_speed);
  std::string spliced = bytes.substr(0, speed_at) + other_speed.buffer();
  EXPECT_FALSE(
      DeserializeTrainedModel(&ds().net, &ds().history, spliced).ok());
}

TEST_F(ModelIoTest, ConfigSurvivesRoundTrip) {
  const Dataset& d = ds();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  config.trend.engine = TrendEngine::kIcm;
  config.propagation.mode = AggregationMode::kLayered;
  config.use_trend_evidence = false;
  auto est = TrafficSpeedEstimator::Train(&d.net, &d.history, config);
  ASSERT_TRUE(est.ok());
  auto loaded = DeserializeTrainedModel(&d.net, &d.history,
                                        SerializeTrainedModel(*est));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->config().trend.engine, TrendEngine::kIcm);
  EXPECT_EQ(loaded->config().propagation.mode, AggregationMode::kLayered);
  EXPECT_FALSE(loaded->config().use_trend_evidence);
}

// Model files start with the TSPD tag and the road count; the CONF section
// follows.
constexpr size_t kConfigOffset = 4 + 4 + 8;
// CONF v3: tag + version, then engine, max_iters, damping, compat power,
// prior pseudo-count, aggregation mode, max layers, max spatial layers,
// spatial discount, the evidence flag, backfill hops and backfill damping.
constexpr size_t kConfigV3Bytes =
    4 + 4 + 1 + 4 + 8 + 8 + 8 + 1 + 4 + 4 + 8 + 1 + 4 + 8;

// The CONF fields every version since 2 writes, in file order.
void PutConfigV2Fields(const PipelineConfig& c, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(c.trend.engine));
  w->PutU32(c.trend.bp.max_iters);
  w->PutF64(c.trend.bp.damping);
  w->PutF64(c.trend.edge_compat_power);
  w->PutF64(c.trend.prior_pseudo_count);
  w->PutU8(c.propagation.mode == AggregationMode::kInfluence ? 0 : 1);
  w->PutU32(c.propagation.max_layers);
  w->PutU32(c.propagation.max_spatial_layers);
  w->PutF64(c.propagation.spatial_discount);
  w->PutU8(c.use_trend_evidence ? 1 : 0);
}

// `model`'s bytes with its CONF section replaced by `conf`.
std::string WithConfigSection(const TrafficSpeedEstimator& model,
                              const std::string& conf) {
  std::string bytes = SerializeTrainedModel(model);
  return bytes.substr(0, kConfigOffset) + conf +
         bytes.substr(kConfigOffset + kConfigV3Bytes);
}

TEST_F(ModelIoTest, ConfigRoundTripsAtVersion3) {
  const Dataset& d = ds();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  config.trend.bp.max_iters = 7;
  config.trend.bp.damping = 0.3;
  config.evidence_backfill_hops = 5;
  config.evidence_backfill_damping = 1.0;
  auto est = TrafficSpeedEstimator::Train(&d.net, &d.history, config);
  ASSERT_TRUE(est.ok());
  std::string bytes = SerializeTrainedModel(*est);
  BinaryReader r(bytes.substr(kConfigOffset));
  auto version = r.ExpectTag("CONF");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 3u);
  // The correlation graph starts right after the v3 CONF section.
  BinaryWriter graph;
  est->correlation_graph().Serialize(&graph);
  EXPECT_EQ(bytes.substr(kConfigOffset + kConfigV3Bytes, graph.buffer().size()),
            graph.buffer());
  auto loaded = DeserializeTrainedModel(&d.net, &d.history, bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config().trend.bp.max_iters, 7u);
  EXPECT_EQ(loaded->config().trend.bp.damping, 0.3);
  EXPECT_EQ(loaded->config().evidence_backfill_hops, 5u);
  EXPECT_EQ(loaded->config().evidence_backfill_damping, 1.0);
}

TEST_F(ModelIoTest, RejectsVersion2Config) {
  // A version-2 CONF section ends at the evidence flag; the rest of the
  // file is unchanged.
  BinaryWriter v2;
  v2.PutTag("CONF", 2);
  PutConfigV2Fields(estimator_->config(), &v2);
  std::string old = WithConfigSection(*estimator_, v2.buffer());
  ASSERT_EQ(old.size() + 12, SerializeTrainedModel(*estimator_).size());
  auto loaded = DeserializeTrainedModel(&ds().net, &ds().history, old);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// A model trained with non-default backfill settings serves the same bits
// after a round trip: the loaded estimator backfills the evidence with the
// trained hops and damping, not the defaults.
TEST_F(ModelIoTest, BackfillSettingsServeIdenticallyAfterRoundTrip) {
  const Dataset& d = ds();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  config.evidence_backfill_hops = 5;
  config.evidence_backfill_damping = 1.0;
  auto est = TrafficSpeedEstimator::Train(&d.net, &d.history, config);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(est->speed_model().evidence().trained);
  auto loaded =
      DeserializeTrainedModel(&d.net, &d.history, SerializeTrainedModel(*est));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto seeds = est->SelectSeeds(4, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());
  uint64_t slot = d.first_test_slot() + 5;
  std::vector<SeedSpeed> obs;
  for (RoadId r : seeds->seeds) obs.push_back({r, d.truth.at(slot, r)});
  auto o1 = est->Estimate(slot, obs);
  auto o2 = loaded->Estimate(slot, obs);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(o1->trends.p_up, o2->trends.p_up);
  EXPECT_EQ(o1->speeds.speed_kmh, o2->speeds.speed_kmh);
}

// Every CONF value the estimator would abort on is refused at load time.
TEST_F(ModelIoTest, RejectsMalformedConfigValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::function<void(PipelineConfig*)>> corruptions = {
      [&](PipelineConfig* c) { c->trend.edge_compat_power = 0.0; },
      [&](PipelineConfig* c) { c->trend.edge_compat_power = -1.0; },
      [&](PipelineConfig* c) { c->trend.edge_compat_power = nan; },
      [&](PipelineConfig* c) { c->trend.prior_pseudo_count = -1.0; },
      [&](PipelineConfig* c) { c->trend.prior_pseudo_count = nan; },
      [&](PipelineConfig* c) { c->trend.bp.damping = nan; },
      [&](PipelineConfig* c) { c->propagation.spatial_discount = nan; },
      [&](PipelineConfig* c) { c->propagation.spatial_discount = inf; },
      [&](PipelineConfig* c) { c->evidence_backfill_damping = nan; },
  };
  for (size_t i = 0; i < corruptions.size(); ++i) {
    PipelineConfig bad = estimator_->config();
    corruptions[i](&bad);
    BinaryWriter conf;
    conf.PutTag("CONF", 3);
    PutConfigV2Fields(bad, &conf);
    conf.PutU32(bad.evidence_backfill_hops);
    conf.PutF64(bad.evidence_backfill_damping);
    ASSERT_EQ(conf.buffer().size(), kConfigV3Bytes);
    auto loaded = DeserializeTrainedModel(
        &ds().net, &ds().history, WithConfigSection(*estimator_, conf.buffer()));
    ASSERT_FALSE(loaded.ok()) << "corruption " << i;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "corruption " << i;
  }
}

}  // namespace
}  // namespace trendspeed
