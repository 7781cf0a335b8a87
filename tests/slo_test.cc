// Tests for the latency SLO engine (obs/slo.h): option validation, exact
// rolling quantiles, the multi-window burn-rate state machine at its
// boundary transitions (injected latencies, no real clock), breach/dump
// accounting, and the deterministic flight-ring dump artifact.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace trendspeed {
namespace {

uint64_t g_fake_now = 0;
uint64_t FakeClock() { return g_fake_now; }

obs::SlotCriticalPath TotalMs(uint64_t slot, double total_ms) {
  obs::SlotCriticalPath cp;
  cp.slot = slot;
  cp.total_ns = static_cast<uint64_t>(total_ms * 1e6);
  return cp;
}

TEST(SloOptionsTest, ValidatesKnobs) {
  obs::SloOptions o;
  EXPECT_EQ(o.Invalid(), nullptr);
  EXPECT_FALSE(o.enabled());  // all budgets default to 0
  o.total_budget_ms = 50.0;
  EXPECT_TRUE(o.enabled());
  EXPECT_EQ(o.Invalid(), nullptr);

  obs::SloOptions bad = o;
  bad.bp_budget_ms = -1.0;
  EXPECT_NE(bad.Invalid(), nullptr);

  bad = o;
  bad.window_slots = 0;
  EXPECT_NE(bad.Invalid(), nullptr);

  bad = o;
  bad.short_window_slots = 64;
  bad.long_window_slots = 8;
  EXPECT_NE(bad.Invalid(), nullptr);

  bad = o;
  bad.long_window_slots = bad.window_slots + 1;
  EXPECT_NE(bad.Invalid(), nullptr);

  bad = o;
  bad.error_budget = 0.0;
  EXPECT_NE(bad.Invalid(), nullptr);
  bad.error_budget = 1.5;
  EXPECT_NE(bad.Invalid(), nullptr);

  bad = o;
  bad.warn_burn_rate = 0.0;
  EXPECT_NE(bad.Invalid(), nullptr);

  bad = o;
  bad.breach_burn_rate = 0.5 * bad.warn_burn_rate;
  EXPECT_NE(bad.Invalid(), nullptr);
}

TEST(SloEngineTest, ExactQuantilesOverTheWindow) {
  obs::SloOptions o;  // budgets all 0: quantiles still track
  obs::SloEngine engine(o, nullptr);
  for (uint64_t i = 1; i <= 100; ++i) {
    engine.ObserveSlot(TotalMs(i, static_cast<double>(i)));
  }
  EXPECT_EQ(engine.slots_observed(), 100u);
  // Exact order statistics: rank ceil(q*n) over the sorted window.
  EXPECT_DOUBLE_EQ(engine.QuantileMs(obs::SloStage::kTotal, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(engine.QuantileMs(obs::SloStage::kTotal, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(engine.QuantileMs(obs::SloStage::kTotal, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(engine.QuantileMs(obs::SloStage::kTotal, 1.00), 100.0);
  // Unfed stages read 0 across the same window.
  EXPECT_DOUBLE_EQ(engine.QuantileMs(obs::SloStage::kBp, 0.99), 0.0);
}

// The burn-rate machine at its window boundaries. error_budget 0.5 makes
// the burn rate 2x the over-budget fraction, so with short=2/long=4:
// a fully-hot short window burns at 2.0 (breach threshold) and the long
// window crosses 2.0 exactly when all 4 of its slots are over budget.
TEST(SloEngineTest, BurnRateBoundaryTransitions) {
  obs::SloOptions o;
  o.total_budget_ms = 10.0;
  o.window_slots = 8;
  o.short_window_slots = 2;
  o.long_window_slots = 4;
  o.error_budget = 0.5;
  o.warn_burn_rate = 1.0;
  o.breach_burn_rate = 2.0;
  ASSERT_EQ(o.Invalid(), nullptr);
  obs::MetricsRegistry reg;
  obs::SloEngine engine(o, nullptr);
  engine.AttachMetrics(&reg);
  const obs::SloStage st = obs::SloStage::kTotal;

  engine.ObserveSlot(TotalMs(1, 5.0));  // under budget
  EXPECT_EQ(engine.state(st), obs::SloState::kOk);

  engine.ObserveSlot(TotalMs(2, 20.0));  // short window half hot -> warn
  EXPECT_DOUBLE_EQ(engine.BurnRate(st, 2), 1.0);
  EXPECT_EQ(engine.state(st), obs::SloState::kWarn);

  engine.ObserveSlot(TotalMs(3, 20.0));  // short fully hot, long 2/3
  EXPECT_DOUBLE_EQ(engine.BurnRate(st, 2), 2.0);
  EXPECT_EQ(engine.state(st), obs::SloState::kWarn);  // long still < 2.0

  engine.ObserveSlot(TotalMs(4, 20.0));  // long 3/4 over -> burn 1.5
  EXPECT_EQ(engine.state(st), obs::SloState::kWarn);
  EXPECT_EQ(engine.breaches(), 0u);

  engine.ObserveSlot(TotalMs(5, 20.0));  // long 4/4 over -> burn 2.0: breach
  EXPECT_DOUBLE_EQ(engine.BurnRate(st, 4), 2.0);
  EXPECT_EQ(engine.state(st), obs::SloState::kBreach);
  EXPECT_EQ(engine.breaches(), 1u);
  EXPECT_EQ(reg.GetCounter(obs::kSloBreachesTotal)->Value(), 1u);
  // The into-breach transition dumped the (empty) flight ring.
  ASSERT_EQ(engine.dumps().size(), 1u);
  EXPECT_EQ(engine.dumps()[0].reason, "breach:total");
  EXPECT_EQ(engine.dumps()[0].slot, 5u);

  engine.ObserveSlot(TotalMs(6, 5.0));  // short cooling -> back to warn
  EXPECT_EQ(engine.state(st), obs::SloState::kWarn);

  engine.ObserveSlot(TotalMs(7, 5.0));  // short cold -> ok
  EXPECT_EQ(engine.state(st), obs::SloState::kOk);
  EXPECT_EQ(engine.breaches(), 1u);  // no second transition

  // State gauge mirrors the machine (2 = breach seen earlier, now 0 = ok).
  EXPECT_EQ(reg.GetGauge(obs::kSloStageState[0])->Value(), 0.0);
  EXPECT_GT(reg.GetGauge(obs::kSloStageP95Ms[0])->Value(), 0.0);
}

// Short window hot while the long window is still cool holds the previous
// state (hysteresis) instead of flapping ok -> warn -> ok on one spike.
TEST(SloEngineTest, ShortSpikeWithCoolLongWindowHoldsState) {
  obs::SloOptions o;
  o.total_budget_ms = 10.0;
  o.window_slots = 8;
  o.short_window_slots = 1;
  o.long_window_slots = 4;
  o.error_budget = 0.5;
  o.warn_burn_rate = 1.0;
  o.breach_burn_rate = 2.0;
  obs::SloEngine engine(o, nullptr);
  const obs::SloStage st = obs::SloStage::kTotal;
  engine.ObserveSlot(TotalMs(1, 5.0));
  engine.ObserveSlot(TotalMs(2, 5.0));
  engine.ObserveSlot(TotalMs(3, 5.0));
  // One spike: short burn 2.0, long burn 0.5 — neither warn (long < 1.0)
  // nor ok (short >= 1.0): the ok state holds.
  engine.ObserveSlot(TotalMs(4, 20.0));
  EXPECT_EQ(engine.state(st), obs::SloState::kOk);
  // A second spike heats the long window to 1.0 -> warn.
  engine.ObserveSlot(TotalMs(5, 20.0));
  EXPECT_EQ(engine.state(st), obs::SloState::kWarn);
}

TEST(SloEngineTest, DumpsAreRateLimitedAndDeduplicated) {
  obs::SloOptions o;
  o.total_budget_ms = 10.0;
  o.max_dumps = 2;
  obs::MetricsRegistry reg;
  obs::SloEngine engine(o, nullptr);
  engine.AttachMetrics(&reg);
  engine.NoteDegradation("estimation_failure", 3);
  engine.NoteDegradation("estimation_failure", 3);  // duplicate: suppressed
  EXPECT_EQ(engine.dumps().size(), 1u);
  engine.NoteDegradation("carry_forward", 3);  // same slot, new reason
  EXPECT_EQ(engine.dumps().size(), 2u);
  engine.NoteDegradation("estimation_failure", 4);  // over max_dumps
  EXPECT_EQ(engine.dumps().size(), 2u);
  EXPECT_EQ(reg.GetCounter(obs::kSloDumpsTotal)->Value(), 2u);
  EXPECT_EQ(engine.dumps()[0].reason, "degradation:estimation_failure");
  EXPECT_EQ(engine.dumps()[1].reason, "degradation:carry_forward");
}

// The dump artifact is a deterministic function of the recorded events
// under the injected clock: byte-exact golden.
TEST(SloEngineTest, DumpArtifactGoldenUnderInjectedClock) {
  obs::SetMonotonicClockForTest(&FakeClock);
  g_fake_now = 5'000'000;
  obs::FlightRecorder rec;
  {
    obs::FlightSpan span(&rec, 41, obs::FlightStage::kAdmission);
    g_fake_now += 1'500;
  }
  obs::SetMonotonicClockForTest(nullptr);

  obs::SloOptions o;
  o.total_budget_ms = 10.0;
  obs::SloEngine engine(o, &rec);
  engine.NoteDegradation("rejected_batch", 41);
  ASSERT_EQ(engine.dumps().size(), 1u);

  // The recording thread's process-wide dense id lands in the tid fields
  // and the default ring label; everything else is fully pinned.
  std::vector<std::pair<uint32_t, std::string>> labels = rec.ThreadLabels();
  ASSERT_EQ(labels.size(), 1u);
  std::string tid = std::to_string(labels[0].first);
  std::string expected =
      "{\"reason\":\"degradation:rejected_batch\",\"slot\":41,\"trace\":"
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":" + tid +
      ",\"name\":\"thread_name\",\"args\":{\"name\":\"thread-" + tid +
      "\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":" + tid +
      ",\"cat\":\"flight\",\"name\":\"admission\",\"ts\":0.000,"
      "\"dur\":1.500,\"args\":{\"slot\":41,\"seq\":0}}\n"
      "]}}";
  EXPECT_EQ(engine.dumps()[0].json, expected);
}

}  // namespace
}  // namespace trendspeed
