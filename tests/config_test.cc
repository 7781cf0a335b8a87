#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/serving.h"

namespace trendspeed {
namespace {

TEST(ConfigTest, DefaultsValidate) {
  PipelineConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadCorrThreshold) {
  PipelineConfig config;
  config.corr.min_same_prob = 0.4;
  EXPECT_FALSE(config.Validate().ok());
  config.corr.min_same_prob = 1.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsZeroHops) {
  PipelineConfig config;
  config.corr.max_hops = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = PipelineConfig{};
  config.influence.max_hops = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadInfluenceThreshold) {
  PipelineConfig config;
  config.influence.min_influence = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.influence.min_influence = 1.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadPropagation) {
  PipelineConfig config;
  config.propagation.max_layers = 0;
  EXPECT_FALSE(config.Validate().ok());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    config = PipelineConfig{};
    config.propagation.spatial_discount = bad;
    EXPECT_FALSE(config.Validate().ok()) << bad;
  }
}

TEST(ConfigTest, RejectsNegativeRidge) {
  PipelineConfig config;
  config.speed.ridge_lambda = -0.5;
  EXPECT_FALSE(config.Validate().ok());
  // Zero would leave a collinear Gram matrix singular for the Cholesky fit.
  config.speed.ridge_lambda = 0.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadDamping) {
  PipelineConfig config;
  config.trend.bp.damping = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config.trend.bp.damping = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.trend.bp.damping = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
}

// The trend model aborts on these at construction (compat power) or at the
// first Estimate (pseudo-count), so Validate refuses them first.
TEST(ConfigTest, RejectsBadTrendKnobs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -0.5, nan, inf}) {
    PipelineConfig config;
    config.trend.edge_compat_power = bad;
    EXPECT_FALSE(config.Validate().ok()) << bad;
  }
  for (double bad : {-1.0, nan, inf}) {
    PipelineConfig config;
    config.trend.prior_pseudo_count = bad;
    EXPECT_FALSE(config.Validate().ok()) << bad;
  }
  PipelineConfig config;
  config.trend.prior_pseudo_count = 0.0;  // no smoothing: valid
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadBpKnobs) {
  PipelineConfig config;
  config.trend.bp.max_iters = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.trend.bp.max_iters = 1001;  // a sweep count no slot can afford
  EXPECT_FALSE(config.Validate().ok());
  config.trend.bp.max_iters = 1000;
  EXPECT_TRUE(config.Validate().ok());
  config = PipelineConfig{};
  config.trend.bp.num_threads = 100000;  // units mistake, not a machine
  EXPECT_FALSE(config.Validate().ok());
  config.trend.bp.num_threads = 8;
  EXPECT_TRUE(config.Validate().ok());
}

// Regression: the 3-hop backfill cap and 0.6 damping used to be magic
// numbers inside the estimator; now they are validated config fields.
TEST(ConfigTest, RejectsBadEvidenceBackfillKnobs) {
  PipelineConfig config;
  config.evidence_backfill_hops = 1000;  // beyond any plausible diameter
  EXPECT_FALSE(config.Validate().ok());
  config = PipelineConfig{};
  config.evidence_backfill_hops = 0;  // disables backfill: valid
  EXPECT_TRUE(config.Validate().ok());
  config = PipelineConfig{};
  config.evidence_backfill_damping = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = PipelineConfig{};
  config.evidence_backfill_damping = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = PipelineConfig{};
  config.evidence_backfill_damping = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(config.Validate().ok());
  config = PipelineConfig{};
  config.evidence_backfill_damping = 1.0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadSeedSelectionKnobs) {
  PipelineConfig config;
  config.seed_selection.num_threads = 100000;
  EXPECT_FALSE(config.Validate().ok());
  config = PipelineConfig{};
  config.seed_selection.num_threads = 4;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ServingOptionsTest, DefaultsValidate) {
  ServingOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(ServingOptionsTest, RejectsBadMonitorOptions) {
  ServingOptions opts;
  opts.monitor.ewma_alpha = 0.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.monitor.ewma_alpha = 1.5;
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.monitor.alert_deviation = -0.1;  // above clear_deviation
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.monitor.congested_deviation = 0.1;
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.monitor.alert_after_slots = 0;
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(ServingOptionsTest, RejectsBadServingKnobs) {
  ServingOptions opts;
  opts.max_speed_kmh = 0.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.max_speed_kmh = -10.0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.max_speed_kmh = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.max_speed_kmh = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(opts.Validate().ok());
  opts = ServingOptions{};
  opts.monitor.ewma_alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(opts.Validate().ok());
}

// The duplicate merge sums speeds in 2^-32 km/h units; the ceiling keeps
// one admitted speed at most 2^52 units, so the cast and the sum are exact.
TEST(ServingOptionsTest, MaxSpeedAtMostTheFixedPointCeiling) {
  ServingOptions opts;
  opts.max_speed_kmh = ServingOptions::kMaxSpeedCeilingKmh;
  EXPECT_TRUE(opts.Validate().ok());
  opts.max_speed_kmh = std::nextafter(ServingOptions::kMaxSpeedCeilingKmh,
                                      std::numeric_limits<double>::infinity());
  EXPECT_FALSE(opts.Validate().ok());
  opts.max_speed_kmh = 1.0e12;
  EXPECT_FALSE(opts.Validate().ok());
}

}  // namespace
}  // namespace trendspeed
