// Tests for the Chrome trace-event JSON exporter (obs/trace_export.h):
// a byte-exact golden for flight exports, escaping of caller-supplied
// thread labels, and a schema and stage-order check over a real serving
// replay — the trace a --trace-out bench run would hand to chrome://tracing
// must stay loadable, and its timestamps must order each slot's stages.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ingest.h"
#include "core/serving.h"
#include "obs/flight.h"
#include "obs/trace_export.h"
#include "test_util.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

TEST(TraceExportTest, EmptyInputsExportAnEmptyTrace) {
  std::string json = obs::ToChromeTraceJson(std::vector<obs::FlightEvent>{},
                                            {});
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(TraceExportTest, FlightEventsGolden) {
  obs::FlightEvent queue;
  queue.slot = 12;
  queue.start_ns = 2'000;
  queue.duration_ns = 1'500;
  queue.thread_id = 3;
  queue.stage = obs::FlightStage::kQueueWait;
  obs::FlightEvent bp;
  bp.slot = 12;
  bp.start_ns = 4'500;
  bp.duration_ns = 250;
  bp.thread_id = 7;
  bp.stage = obs::FlightStage::kBpSolve;
  // Deliberately out of start order: the exporter sorts.
  std::vector<obs::FlightEvent> events = {bp, queue};
  std::vector<std::pair<uint32_t, std::string>> threads = {
      {7, "pool-0"}, {3, "serving"}};

  std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"serving\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":7,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"pool-0\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":3,\"cat\":\"flight\","
      "\"name\":\"queue_wait\",\"ts\":0.000,\"dur\":1.500,"
      "\"args\":{\"slot\":12}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":7,\"cat\":\"flight\","
      "\"name\":\"bp_solve\",\"ts\":2.500,\"dur\":0.250,"
      "\"args\":{\"slot\":12}}\n"
      "]}";
  EXPECT_EQ(obs::ToChromeTraceJson(events, threads), expected);
}

// Thread labels are caller-supplied (SetFlightThreadLabel), so the exporter
// must escape them to keep the JSON loadable.
TEST(TraceExportTest, HostileThreadLabelsAreEscaped) {
  obs::FlightEvent e;
  e.thread_id = 2;
  std::vector<std::pair<uint32_t, std::string>> threads = {{2, "a\"b\\c\n"}};
  std::string json = obs::ToChromeTraceJson({e}, threads);
  EXPECT_NE(json.find("a\\\"b\\\\c\\u000a"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Schema check over a real serving replay (the CI tier-1 step).
// ---------------------------------------------------------------------------

// Minimal structural validator: balanced {}/[] outside strings, plus the
// keys catapult's legacy loader needs on every event line.
void CheckChromeTraceSchema(const std::string& json) {
  int depth = 0;
  int bracket_depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == '[') ++bracket_depth;
    if (c == ']') --bracket_depth;
    ASSERT_GE(depth, 0);
    ASSERT_GE(bracket_depth, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(bracket_depth, 0);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  // Every complete event carries ph/pid/tid/name/ts/dur.
  size_t pos = 0;
  size_t complete_events = 0;
  while ((pos = json.find("{\"ph\":\"X\"", pos)) != std::string::npos) {
    size_t line_end = json.find('\n', pos);
    std::string line = json.substr(pos, line_end - pos);
    for (const char* key :
         {"\"pid\":", "\"tid\":", "\"name\":", "\"ts\":", "\"dur\":",
          "\"args\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << line;
    }
    ++complete_events;
    pos += 1;
  }
  EXPECT_GT(complete_events, 0u);
}

TEST(TraceExportTest, ServingReplayExportsLoadableTrace) {
  const Dataset& ds = SharedTinyDataset();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  auto seeds = est->SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok());

  obs::FlightRecorder flight;
  ServingOptions opts;
  opts.ingest_queue.capacity = 256;
  opts.publish_snapshots = true;  // the replay must reach the publish stage
  opts.observability.flight = &flight;
  auto session = ServingSession::Create(&*est, opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto fe = IngestFrontEnd::Create(&*session);
  ASSERT_TRUE(fe.ok());

  for (uint64_t slot = 0; slot < 3; ++slot) {
    for (RoadId r : seeds->seeds) {
      ASSERT_TRUE(
          (*fe)->Offer(slot, {r, std::max(1.0, ds.truth.at(slot, r))}));
    }
    auto report = (*fe)->Flush();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  std::string json = obs::ToChromeTraceJson(flight);
  CheckChromeTraceSchema(json);
  // Every stage shows up in the trace, and in each slot's timeline.
  for (size_t k = 0; k < obs::kNumFlightStages; ++k) {
    const char* stage = obs::FlightStageName(static_cast<obs::FlightStage>(k));
    EXPECT_NE(json.find(std::string("\"name\":\"") + stage + "\""),
              std::string::npos)
        << stage;
  }
  for (uint64_t slot = 0; slot < 3; ++slot) {
    const std::vector<obs::FlightEvent> events = flight.CollectSlot(slot);
    std::vector<const obs::FlightEvent*> by_stage(obs::kNumFlightStages,
                                                  nullptr);
    for (const obs::FlightEvent& e : events) {
      const size_t k = static_cast<size_t>(e.stage);
      EXPECT_EQ(by_stage[k], nullptr)
          << "slot " << slot << " repeats " << obs::FlightStageName(e.stage);
      by_stage[k] = &e;
    }
    for (size_t k = 0; k < obs::kNumFlightStages; ++k) {
      ASSERT_NE(by_stage[k], nullptr)
          << "slot " << slot << " lacks "
          << obs::FlightStageName(static_cast<obs::FlightStage>(k));
    }
    // One thread records all of a slot's stages, so their own timestamps
    // give the pipeline order: each stage starts no earlier than the one
    // before it ends, and each envelope brackets what it contains. Equal
    // timestamps are legal.
    auto start = [&](obs::FlightStage stage) {
      return by_stage[static_cast<size_t>(stage)]->start_ns;
    };
    auto end = [&](obs::FlightStage stage) {
      const obs::FlightEvent& e = *by_stage[static_cast<size_t>(stage)];
      return e.start_ns + e.duration_ns;
    };
    using S = obs::FlightStage;
    EXPECT_LE(end(S::kQueueWait), start(S::kIngest)) << "slot " << slot;
    EXPECT_LE(start(S::kIngest), start(S::kAdmission)) << "slot " << slot;
    EXPECT_LE(end(S::kAdmission), start(S::kEstimate)) << "slot " << slot;
    EXPECT_LE(start(S::kEstimate), start(S::kBpSolve)) << "slot " << slot;
    EXPECT_LE(end(S::kBpSolve), end(S::kEstimate)) << "slot " << slot;
    EXPECT_LE(end(S::kEstimate), start(S::kPublish)) << "slot " << slot;
    EXPECT_LE(end(S::kPublish), end(S::kIngest)) << "slot " << slot;
    // The attributed stages plus `other` tile the slot's total exactly.
    const obs::SlotCriticalPath cp = obs::ComputeSlotCriticalPath(events, slot);
    EXPECT_GT(cp.total_ns, 0u);
    EXPECT_EQ(cp.queue_wait_ns + cp.admission_ns + cp.bp_ns + cp.publish_ns +
                  cp.other_ns,
              cp.total_ns)
        << "slot " << slot;
  }
}

}  // namespace
}  // namespace trendspeed
