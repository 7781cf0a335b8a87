// Tests for the slot flight recorder (obs/flight.h): stage naming,
// recording into the shared ring and collection, overflow accounting,
// the detached FlightSpan no-op contract, critical-path attribution, and
// the TSan torture proof (N writer threads + a live collector). Run under
// TRENDSPEED_SANITIZE=thread for the full data-race proof.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace trendspeed {
namespace {

uint64_t g_fake_now = 0;
uint64_t FakeClock() { return g_fake_now; }

TEST(FlightStageTest, NamesAreStable) {
  EXPECT_STREQ(obs::FlightStageName(obs::FlightStage::kQueueWait),
               "queue_wait");
  EXPECT_STREQ(obs::FlightStageName(obs::FlightStage::kIngest), "ingest");
  EXPECT_STREQ(obs::FlightStageName(obs::FlightStage::kAdmission),
               "admission");
  EXPECT_STREQ(obs::FlightStageName(obs::FlightStage::kEstimate), "estimate");
  EXPECT_STREQ(obs::FlightStageName(obs::FlightStage::kBpSolve), "bp_solve");
  EXPECT_STREQ(obs::FlightStageName(obs::FlightStage::kPublish), "publish");
}

TEST(FlightRecorderTest, RecordsAndCollectsInStartOrder) {
  obs::FlightRecorder rec(/*capacity=*/64);
  rec.Record(7, obs::FlightStage::kAdmission, /*start_ns=*/200,
             /*duration_ns=*/10);
  rec.Record(7, obs::FlightStage::kQueueWait, /*start_ns=*/100,
             /*duration_ns=*/100);
  rec.Record(8, obs::FlightStage::kQueueWait, /*start_ns=*/300,
             /*duration_ns=*/5);
  std::vector<obs::FlightEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start_ns regardless of record order.
  EXPECT_EQ(events[0].start_ns, 100u);
  EXPECT_EQ(events[0].stage, obs::FlightStage::kQueueWait);
  EXPECT_EQ(events[0].duration_ns, 100u);
  EXPECT_EQ(events[1].start_ns, 200u);
  EXPECT_EQ(events[1].stage, obs::FlightStage::kAdmission);
  EXPECT_EQ(events[2].slot, 8u);
  EXPECT_EQ(rec.total_recorded(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.num_threads(), 1u);

  std::vector<obs::FlightEvent> slot7 = rec.CollectSlot(7);
  ASSERT_EQ(slot7.size(), 2u);
  EXPECT_EQ(slot7[0].slot, 7u);
  EXPECT_EQ(slot7[1].slot, 7u);
}

TEST(FlightRecorderTest, RingOverflowCountsDrops) {
  obs::FlightRecorder rec(/*capacity=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Record(1, obs::FlightStage::kIngest, i, 1);
  }
  EXPECT_EQ(rec.total_recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);  // 20 written, ring keeps 8
  std::vector<obs::FlightEvent> events = rec.Collect();
  ASSERT_EQ(events.size(), 8u);
  // The retained cells are the most recent 8 records.
  EXPECT_EQ(events.front().start_ns, 12u);
  EXPECT_EQ(events.back().start_ns, 19u);
}

TEST(FlightRecorderTest, MetricsMirrorRecorderActivity) {
  obs::MetricsRegistry reg;
  obs::FlightRecorder rec(/*capacity=*/8);
  rec.AttachMetrics(&reg);
  for (uint64_t i = 0; i < 10; ++i) {
    rec.Record(1, obs::FlightStage::kIngest, i, 1);
  }
  EXPECT_EQ(reg.GetCounter(obs::kFlightEventsRecordedTotal)->Value(), 10u);
  EXPECT_EQ(reg.GetCounter(obs::kFlightEventsDroppedTotal)->Value(), 2u);
}

TEST(FlightRecorderTest, ThreadLabelsDefaultAndOverride) {
  obs::FlightRecorder rec;
  rec.Record(1, obs::FlightStage::kIngest, 1, 1);
  std::thread t([&] {
    obs::SetFlightThreadLabel("drainer");
    rec.Record(1, obs::FlightStage::kPublish, 2, 1);
    obs::SetFlightThreadLabel("");
  });
  t.join();
  std::vector<std::pair<uint32_t, std::string>> labels = rec.ThreadLabels();
  ASSERT_EQ(labels.size(), 2u);
  bool saw_default = false;
  bool saw_named = false;
  for (const auto& l : labels) {
    if (l.second == "drainer") saw_named = true;
    if (l.second == "thread-" + std::to_string(l.first)) saw_default = true;
  }
  EXPECT_TRUE(saw_named);
  EXPECT_TRUE(saw_default);
}

uint64_t g_clock_reads = 0;
uint64_t CountingClock() {
  ++g_clock_reads;
  return g_fake_now;
}

TEST(FlightSpanTest, DetachedSpanTouchesNothing) {
  // Null recorder: no clock read, so the detached pipeline pays two
  // predicted branches and nothing else.
  obs::SetMonotonicClockForTest(&CountingClock);
  g_clock_reads = 0;
  {
    obs::FlightSpan span(nullptr, 9, obs::FlightStage::kAdmission);
  }
  const uint64_t detached_reads = g_clock_reads;
  // The same span with a recorder reads the clock at entry and exit, so
  // the counter does see span reads.
  obs::FlightRecorder rec;
  {
    obs::FlightSpan span(&rec, 9, obs::FlightStage::kAdmission);
  }
  const uint64_t attached_reads = g_clock_reads - detached_reads;
  obs::SetMonotonicClockForTest(nullptr);
  EXPECT_EQ(detached_reads, 0u);
  EXPECT_EQ(attached_reads, 2u);
  EXPECT_EQ(rec.total_recorded(), 1u);
}

TEST(FlightSpanTest, AttachedSpansRecordInStartOrder) {
  obs::SetMonotonicClockForTest(&FakeClock);
  g_fake_now = 1'000;
  obs::FlightRecorder rec;
  {
    obs::FlightSpan span(&rec, 5, obs::FlightStage::kAdmission);
    g_fake_now += 250;
  }
  {
    obs::FlightSpan span(&rec, 5, obs::FlightStage::kPublish);
    g_fake_now += 50;
  }
  obs::SetMonotonicClockForTest(nullptr);
  std::vector<obs::FlightEvent> events = rec.CollectSlot(5);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].stage, obs::FlightStage::kAdmission);
  EXPECT_EQ(events[0].start_ns, 1'000u);
  EXPECT_EQ(events[0].duration_ns, 250u);
  EXPECT_EQ(events[1].stage, obs::FlightStage::kPublish);
  EXPECT_EQ(events[1].start_ns, 1'250u);
  EXPECT_EQ(events[1].duration_ns, 50u);
}

// ---------------------------------------------------------------------------
// Critical-path attribution.
// ---------------------------------------------------------------------------

std::vector<obs::FlightEvent> SyntheticSlotTimeline(uint64_t slot) {
  auto ev = [slot](obs::FlightStage stage, uint64_t start, uint64_t dur) {
    obs::FlightEvent e;
    e.slot = slot;
    e.stage = stage;
    e.start_ns = start;
    e.duration_ns = dur;
    return e;
  };
  // queue_wait 1000ns, then a 5000ns ingest envelope containing admission
  // (700), estimate envelope (3800) with bp (2000), and publish (300).
  // Unattributed envelope remainder: 5000 - 3000 = 2000.
  return {
      ev(obs::FlightStage::kQueueWait, 0, 1000),
      ev(obs::FlightStage::kIngest, 1000, 5000),
      ev(obs::FlightStage::kAdmission, 1100, 700),
      ev(obs::FlightStage::kEstimate, 1900, 3800),
      ev(obs::FlightStage::kBpSolve, 2000, 2000),
      ev(obs::FlightStage::kPublish, 5600, 300),
  };
}

TEST(CriticalPathTest, DecompositionSumsAndExcludesEnvelopes) {
  std::vector<obs::FlightEvent> events = SyntheticSlotTimeline(42);
  obs::SlotCriticalPath cp = obs::ComputeSlotCriticalPath(events, 42);
  EXPECT_EQ(cp.slot, 42u);
  EXPECT_EQ(cp.events, events.size());
  EXPECT_EQ(cp.total_ns, 6000u);  // queue_wait + ingest envelope
  EXPECT_EQ(cp.queue_wait_ns, 1000u);
  EXPECT_EQ(cp.admission_ns, 700u);
  EXPECT_EQ(cp.bp_ns, 2000u);  // NOT the estimate envelope around it
  EXPECT_EQ(cp.publish_ns, 300u);
  EXPECT_EQ(cp.other_ns, 2000u);
  // The named stages plus `other` tile the whole timeline.
  EXPECT_EQ(cp.queue_wait_ns + cp.admission_ns + cp.bp_ns + cp.publish_ns +
                cp.other_ns,
            cp.total_ns);
  EXPECT_NEAR(cp.AttributedFraction(), 4000.0 / 6000.0, 1e-12);
}

TEST(CriticalPathTest, OtherSlotsAreIgnoredAndEmptyIsZero) {
  std::vector<obs::FlightEvent> events = SyntheticSlotTimeline(42);
  obs::SlotCriticalPath cp = obs::ComputeSlotCriticalPath(events, 99);
  EXPECT_EQ(cp.total_ns, 0u);
  EXPECT_EQ(cp.events, 0u);
  EXPECT_DOUBLE_EQ(cp.AttributedFraction(), 1.0);
}

// ---------------------------------------------------------------------------
// TSan torture: concurrent writers + live collector.
// ---------------------------------------------------------------------------

TEST(FlightTortureTest, ConcurrentWritersAndCollectorAreRaceFree) {
  obs::FlightRecorder rec(/*capacity=*/256);
  constexpr int kWriters = 4;
  constexpr uint64_t kEventsPerWriter = 20'000;
  std::atomic<bool> writing{true};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (uint64_t i = 0; i < kEventsPerWriter; ++i) {
        rec.Record(/*slot=*/w * 17 + i % 17,
                   static_cast<obs::FlightStage>(i % obs::kNumFlightStages),
                   /*start_ns=*/i * 10 + w, /*duration_ns=*/i % 97);
      }
    });
  }
  // Live collector: every returned event must be internally consistent —
  // one whole Record, never a torn mix.
  // slot carries the writer index (slot / 17), tying the fields of one
  // cell: start_ns, duration_ns, stage and slot % 17 all follow from i.
  uint64_t collections = 0;
  while (writing.load(std::memory_order_acquire)) {
    std::vector<obs::FlightEvent> events = rec.Collect();
    for (const obs::FlightEvent& e : events) {
      const uint64_t w = e.slot / 17;
      ASSERT_LT(w, static_cast<uint64_t>(kWriters));
      ASSERT_GE(e.start_ns, w);
      const uint64_t i = (e.start_ns - w) / 10;
      ASSERT_EQ(e.start_ns, i * 10 + w);
      ASSERT_EQ(e.slot % 17, i % 17);
      ASSERT_EQ(static_cast<size_t>(e.stage), i % obs::kNumFlightStages);
      ASSERT_EQ(e.duration_ns, i % 97);
    }
    ++collections;
    if (rec.total_recorded() >= kWriters * kEventsPerWriter) {
      writing.store(false, std::memory_order_release);
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GE(collections, 1u);
  EXPECT_EQ(rec.total_recorded(), kWriters * kEventsPerWriter);
  EXPECT_EQ(rec.num_threads(), static_cast<size_t>(kWriters));
  // Conservation: retained + dropped = recorded.
  EXPECT_EQ(rec.Collect().size() + rec.dropped(), rec.total_recorded());
}

}  // namespace
}  // namespace trendspeed
