#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "corr/correlation_graph.h"
#include "seed/adaptive.h"
#include "test_util.h"
#include "util/random.h"

namespace trendspeed {
namespace {

using testing_util::SmallGrid;

/// History where roads 0..(n/2) are volatile only at night and the rest
/// only by day — maximally different period sigmas.
HistoricalDb DayNightHistory(const RoadNetwork& net) {
  Rng rng(77);
  HistoricalDb::Builder builder(net.num_roads(), 1008, 144);
  SlotClock clock{144};
  for (uint64_t slot = 0; slot < 1008; ++slot) {
    bool day = clock.HourOfDay(slot) >= 6.0 && clock.HourOfDay(slot) < 18.0;
    for (RoadId r = 0; r < net.num_roads(); ++r) {
      bool volatile_by_day = r >= net.num_roads() / 2;
      double base = net.road(r).free_flow_kmh * 0.8;
      double swing = (day == volatile_by_day) ? 0.3 : 0.01;
      double factor = testing_util::AlternatingUp(slot) ? 1.0 + swing
                                                        : 1.0 - swing;
      builder.Add(r, slot, base * factor);
    }
  }
  return builder.Finish();
}

class AdaptiveSeedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = SmallGrid();
    db_ = DayNightHistory(net_);
    CorrelationGraphOptions copts;
    copts.min_co_observed = 10;
    auto graph = CorrelationGraph::Build(net_, db_, copts);
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<CorrelationGraph>(std::move(graph).value());
  }

  RoadNetwork net_;
  HistoricalDb db_;
  std::unique_ptr<CorrelationGraph> graph_;
};

TEST_F(AdaptiveSeedTest, PeriodSigmaSeparatesDayAndNight) {
  std::vector<double> day = PeriodSigma(db_, 6.0, 18.0);
  std::vector<double> night = PeriodSigma(db_, 18.0, 6.0);  // wraps midnight
  RoadId night_road = 0;
  RoadId day_road = static_cast<RoadId>(net_.num_roads() - 1);
  EXPECT_GT(night[night_road], 5.0 * std::max(1e-9, day[night_road]));
  EXPECT_GT(day[day_road], 5.0 * std::max(1e-9, night[day_road]));
}

TEST_F(AdaptiveSeedTest, PlanSelectsDifferentSeedsPerPeriod) {
  AdaptivePlanOptions opts;
  opts.period_boundaries_h = {6.0, 18.0};  // day / night
  auto plan = AdaptiveSeedPlan::Build(*graph_, db_, 6, opts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_periods(), 2u);
  // Day seeds should concentrate on the volatile-by-day half, night seeds
  // on the other half.
  RoadId half = static_cast<RoadId>(net_.num_roads() / 2);
  size_t day_in_day_half = 0, night_in_night_half = 0;
  for (RoadId r : plan->seeds_of_period(0)) {  // [6, 18): day
    if (r >= half) ++day_in_day_half;
  }
  for (RoadId r : plan->seeds_of_period(1)) {  // [18, 6): night
    if (r < half) ++night_in_night_half;
  }
  EXPECT_GE(day_in_day_half, 4u);
  EXPECT_GE(night_in_night_half, 4u);
  EXPECT_LT(plan->OverlapFraction(0, 1), 0.5);
}

TEST_F(AdaptiveSeedTest, PeriodOfRespectsBoundariesAndWrap) {
  AdaptivePlanOptions opts;
  opts.period_boundaries_h = {6.0, 10.0, 16.0, 20.0};
  auto plan = AdaptiveSeedPlan::Build(*graph_, db_, 3, opts);
  ASSERT_TRUE(plan.ok());
  SlotClock clock{144};
  auto slot_at_hour = [&](double h) {
    return static_cast<uint64_t>(h / 24.0 * 144.0);
  };
  EXPECT_EQ(plan->PeriodOf(slot_at_hour(7.0)), 0u);
  EXPECT_EQ(plan->PeriodOf(slot_at_hour(11.0)), 1u);
  EXPECT_EQ(plan->PeriodOf(slot_at_hour(17.0)), 2u);
  EXPECT_EQ(plan->PeriodOf(slot_at_hour(22.0)), 3u);  // wrapping period
  EXPECT_EQ(plan->PeriodOf(slot_at_hour(2.0)), 3u);   // after midnight
  (void)clock;
}

TEST_F(AdaptiveSeedTest, SeedsForReturnsActivePeriodSet) {
  AdaptivePlanOptions opts;
  opts.period_boundaries_h = {6.0, 18.0};
  auto plan = AdaptiveSeedPlan::Build(*graph_, db_, 5, opts);
  ASSERT_TRUE(plan.ok());
  uint64_t noon = 72;       // 12:00 day 0
  uint64_t midnight = 0;    // 00:00 day 0
  EXPECT_EQ(plan->SeedsFor(noon), plan->seeds_of_period(0));
  EXPECT_EQ(plan->SeedsFor(midnight), plan->seeds_of_period(1));
}

TEST_F(AdaptiveSeedTest, ValidatesOptions) {
  AdaptivePlanOptions one;
  one.period_boundaries_h = {6.0};
  EXPECT_FALSE(AdaptiveSeedPlan::Build(*graph_, db_, 3, one).ok());
  AdaptivePlanOptions unsorted;
  unsorted.period_boundaries_h = {18.0, 6.0};
  EXPECT_FALSE(AdaptiveSeedPlan::Build(*graph_, db_, 3, unsorted).ok());
  AdaptivePlanOptions out_of_range;
  out_of_range.period_boundaries_h = {6.0, 25.0};
  EXPECT_FALSE(AdaptiveSeedPlan::Build(*graph_, db_, 3, out_of_range).ok());
}

}  // namespace
}  // namespace trendspeed
