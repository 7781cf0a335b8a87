// Tests for the observability layer (src/obs/) and its pipeline wiring:
// metric primitives, registry registration semantics, exporter goldens,
// the injected-clock regression for util/timer.h, thread pool
// instrumentation, and the ServingStats <-> registry equivalence
// contract. Run under TRENDSPEED_SANITIZE=thread to validate the lock-free
// recording paths.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/serving.h"
#include "obs/catalog.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

using testing_util::SharedTinyDataset;

// ---------------------------------------------------------------------------
// Metric primitives.
// ---------------------------------------------------------------------------

TEST(CounterTest, AddsAccumulateAcrossCells) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  obs::Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.0);
  g.Add(-0.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  constexpr double kBounds[] = {1.0, 2.0, 5.0};
  obs::MetricDef def{"test_h", obs::MetricType::kHistogram, "h", "1", "",
                     kBounds, 3};
  obs::Histogram h(def);
  // A value lands in the first bucket with v <= bound (Prometheus `le`
  // semantics); above the last bound it lands in the +Inf overflow bucket.
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (boundary is inclusive)
  h.Observe(1.5);   // bucket 1
  h.Observe(2.0);   // bucket 1
  h.Observe(5.0);   // bucket 2
  h.Observe(7.0);   // +Inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 17.0);
}

// ---------------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrRegisterReturnsStablePointers) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter(obs::kBpRunsTotal);
  obs::Counter* b = reg.GetCounter(obs::kBpRunsTotal);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  // Same name under a different label set is a distinct series.
  obs::Counter* greedy = reg.GetCounter(obs::kSeedRunsGreedy);
  obs::Counter* lazy = reg.GetCounter(obs::kSeedRunsLazyGreedy);
  ASSERT_NE(greedy, nullptr);
  EXPECT_NE(greedy, lazy);
}

TEST(MetricsRegistryTest, TypeMismatchReturnsNull) {
  obs::MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter(obs::kBpRunsTotal), nullptr);
  obs::MetricDef clash{obs::kBpRunsTotal.name, obs::MetricType::kGauge,
                       "clash", "1"};
  EXPECT_EQ(reg.GetGauge(clash), nullptr);
}

TEST(MetricsRegistryTest, NullSafeHelpersNoOpWithoutRegistry) {
  EXPECT_EQ(obs::GetCounter(nullptr, obs::kBpRunsTotal), nullptr);
  EXPECT_EQ(obs::GetGauge(nullptr, obs::kPoolWorkers), nullptr);
  EXPECT_EQ(obs::GetHistogram(nullptr, obs::kEstimateLatencyMs), nullptr);
  // Recording against null handles must be a silent no-op.
  obs::Add(static_cast<obs::Counter*>(nullptr));
  obs::Set(static_cast<obs::Gauge*>(nullptr), 1.0);
  obs::Observe(static_cast<obs::Histogram*>(nullptr), 1.0);
}

TEST(MetricsRegistryTest, EveryCatalogEntryRegistersUnderItsDeclaredType) {
  obs::MetricsRegistry reg;
  for (const obs::MetricDef* def : obs::AllMetricDefs()) {
    switch (def->type) {
      case obs::MetricType::kCounter:
        EXPECT_NE(reg.GetCounter(*def), nullptr) << def->name;
        break;
      case obs::MetricType::kGauge:
        EXPECT_NE(reg.GetGauge(*def), nullptr) << def->name;
        break;
      case obs::MetricType::kHistogram:
        EXPECT_NE(reg.GetHistogram(*def), nullptr) << def->name;
        break;
    }
  }
  obs::RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.size() + snap.gauges.size() +
                snap.histograms.size(),
            obs::AllMetricDefs().size());
}

// Registration and recording from many threads at once; the assertions prove
// no update was lost, and a TRENDSPEED_SANITIZE=thread build proves the
// paths race-free.
TEST(MetricsRegistryTest, ConcurrentRegisterAndRecord) {
  obs::MetricsRegistry reg;
  ThreadPool pool(4);
  pool.AttachMetrics(&reg);  // exercise instrumented regions concurrently
  constexpr size_t kIters = 4000;
  pool.ParallelForChunked(kIters, kIters, [&](size_t, size_t begin,
                                              size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Re-register every time: get-or-register must be thread-safe and
      // idempotent under contention.
      obs::Counter* c = reg.GetCounter(obs::kBpRunsTotal);
      obs::Gauge* g = reg.GetGauge(obs::kServingStalenessSlots);
      obs::Histogram* h = reg.GetHistogram(obs::kEstimateLatencyMs);
      c->Add();
      g->Set(static_cast<double>(i));
      h->Observe(1e-5);
    }
  });
  EXPECT_EQ(reg.GetCounter(obs::kBpRunsTotal)->Value(), kIters);
  EXPECT_EQ(reg.GetHistogram(obs::kEstimateLatencyMs)->count(), kIters);
}

// ---------------------------------------------------------------------------
// Exporter goldens. Custom defs with known values so the full text output is
// deterministic and asserted byte-for-byte.
// ---------------------------------------------------------------------------

constexpr double kGoldenBounds[] = {0.5, 2.0};
const obs::MetricDef kGoldenRequests{"test_requests_total",
                                     obs::MetricType::kCounter, "Requests",
                                     "1"};
const obs::MetricDef kGoldenRequests500{"test_requests_total",
                                        obs::MetricType::kCounter, "Requests",
                                        "1", "code=\"500\""};
const obs::MetricDef kGoldenTemp{"test_temp", obs::MetricType::kGauge,
                                 "Temperature", "celsius"};
const obs::MetricDef kGoldenLatency{"test_latency",
                                    obs::MetricType::kHistogram, "Latency",
                                    "ms", "", kGoldenBounds, 2};

void FillGoldenRegistry(obs::MetricsRegistry* reg) {
  reg->GetCounter(kGoldenRequests)->Add(3);
  reg->GetCounter(kGoldenRequests500)->Add(1);
  reg->GetGauge(kGoldenTemp)->Set(-3.5);
  obs::Histogram* h = reg->GetHistogram(kGoldenLatency);
  h->Observe(0.25);  // bucket le=0.5
  h->Observe(1.5);   // bucket le=2
  h->Observe(10.0);  // +Inf
}

TEST(ExportTest, PrometheusGolden) {
  obs::MetricsRegistry reg;
  FillGoldenRegistry(&reg);
  const std::string expected =
      "# HELP test_requests_total Requests\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total 3\n"
      "test_requests_total{code=\"500\"} 1\n"
      "# HELP test_temp Temperature (celsius)\n"
      "# TYPE test_temp gauge\n"
      "test_temp -3.5\n"
      "# HELP test_latency Latency (ms)\n"
      "# TYPE test_latency histogram\n"
      "test_latency_bucket{le=\"0.5\"} 1\n"
      "test_latency_bucket{le=\"2\"} 2\n"
      "test_latency_bucket{le=\"+Inf\"} 3\n"
      "test_latency_sum 11.75\n"
      "test_latency_count 3\n";
  EXPECT_EQ(reg.ToPrometheus(), expected);
}

// A label value and HELP text using every character the 0.0.4 exposition
// format requires escaped: backslash, double-quote, newline. The exporter
// previously emitted them raw — an unparseable scrape (a newline inside a
// label value terminates the sample line mid-series) — and %g rendered
// non-finite gauges as "inf", which Prometheus rejects.
TEST(ExportTest, HostileLabelValuesAndHelpAreEscaped) {
  // Raw value: a"b<newline>c\d  — pre-formatted as msg="a"b\nc\d".
  const obs::MetricDef kHostile{"test_hostile_total",
                                obs::MetricType::kCounter,
                                "Line one\nline \\ two", "1",
                                "msg=\"a\"b\nc\\d\""};
  const obs::MetricDef kInfGauge{"test_saturation", obs::MetricType::kGauge,
                                 "Saturation", "1"};
  obs::MetricsRegistry reg;
  reg.GetCounter(kHostile)->Add(7);
  reg.GetGauge(kInfGauge)->Set(std::numeric_limits<double>::infinity());
  const std::string expected =
      "# HELP test_hostile_total Line one\\nline \\\\ two\n"
      "# TYPE test_hostile_total counter\n"
      "test_hostile_total{msg=\"a\\\"b\\nc\\\\d\"} 7\n"
      "# HELP test_saturation Saturation\n"
      "# TYPE test_saturation gauge\n"
      "test_saturation +Inf\n";
  EXPECT_EQ(reg.ToPrometheus(), expected);
}

TEST(ExportTest, FormatMetricValueSpellsNonFinitePerExposition) {
  EXPECT_EQ(obs::FormatMetricValue(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(obs::FormatMetricValue(-std::numeric_limits<double>::infinity()),
            "-Inf");
  EXPECT_EQ(obs::FormatMetricValue(std::numeric_limits<double>::quiet_NaN()),
            "NaN");
  EXPECT_EQ(obs::FormatMetricValue(0.25), "0.25");
}

// The +Inf bucket must equal _count in every exported snapshot, even one
// taken while producers are mid-Observe (bucket cell and total are two
// separate relaxed increments). The exporter derives _count from the
// cumulative bucket total, so a snapshot whose independently-read count
// field is stale still renders the invariant.
TEST(ExportTest, HistogramCountDerivedFromBuckets) {
  obs::RegistrySnapshot snap;
  obs::HistogramSnapshot hs;
  hs.id = obs::MetricId{"test_torn", "", "Torn", "1"};
  hs.bounds = {1.0};
  hs.counts = {2, 1};  // +Inf cumulative = 3
  hs.count = 2;        // stale separate read, one increment behind
  hs.sum = 4.0;
  snap.histograms.push_back(hs);
  const std::string prom = obs::ToPrometheusText(snap);
  EXPECT_NE(prom.find("test_torn_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(prom.find("test_torn_count 3\n"), std::string::npos);
}

// And MetricsRegistry::Snapshot() itself keeps count consistent with the
// buckets under concurrent observation: the invariant must hold in every
// snapshot, not just at quiescence. (Run under TRENDSPEED_SANITIZE=thread
// to validate the recording paths as well.)
TEST(ExportTest, SnapshotCountMatchesBucketSumUnderConcurrentObserve) {
  obs::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> observers;
  for (int t = 0; t < 3; ++t) {
    observers.emplace_back([&] {
      obs::Histogram* h = reg.GetHistogram(obs::kEstimateLatencyMs);
      while (!stop.load(std::memory_order_relaxed)) {
        h->Observe(1e-5);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    obs::RegistrySnapshot snap = reg.Snapshot();
    for (const obs::HistogramSnapshot& hs : snap.histograms) {
      uint64_t bucket_sum = 0;
      for (uint64_t c : hs.counts) bucket_sum += c;
      EXPECT_EQ(hs.count, bucket_sum) << hs.id.name;
    }
  }
  stop.store(true);
  for (std::thread& t : observers) t.join();
}

TEST(ExportTest, EmptyRegistryExportsAreWellFormed) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.ToPrometheus(), "");
}

// ---------------------------------------------------------------------------
// Monotonic clock + WallTimer regression (the injected-clock contract).
// ---------------------------------------------------------------------------

uint64_t g_fake_now = 0;
uint64_t FakeClock() { return g_fake_now; }

class InjectedClockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_fake_now = 1'000'000;
    obs::SetMonotonicClockForTest(&FakeClock);
  }
  void TearDown() override { obs::SetMonotonicClockForTest(nullptr); }
};

TEST_F(InjectedClockTest, WallTimerReadsInjectedClock) {
  WallTimer timer;
  g_fake_now += 2'500'000;  // +2.5 ms
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 2.5);
  EXPECT_DOUBLE_EQ(timer.ElapsedMicros(), 2500.0);
  EXPECT_DOUBLE_EQ(timer.ElapsedSeconds(), 0.0025);
  timer.Restart();
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 0.0);
}

// The regression this layer exists to prevent: a clock stepping backwards
// (NTP on a wall clock, or a misbehaving injected source) must clamp to a
// zero duration, never go negative or wrap to a huge unsigned value.
TEST_F(InjectedClockTest, BackwardsClockClampsToZero) {
  WallTimer timer;          // starts at 1'000'000
  g_fake_now = 400'000;     // clock steps BACKWARDS
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 0.0);
  EXPECT_DOUBLE_EQ(timer.ElapsedSeconds(), 0.0);
  EXPECT_EQ(obs::ElapsedNanosSince(1'000'000), 0u);
}

TEST(ClockTest, RealClockIsMonotone) {
  uint64_t a = obs::MonotonicNanos();
  uint64_t b = obs::MonotonicNanos();
  EXPECT_GE(b, a);
}

// ---------------------------------------------------------------------------
// Thread pool instrumentation.
// ---------------------------------------------------------------------------

TEST(PoolMetricsTest, InlinePoolRecordsDeterministically) {
  // A zero-worker pool runs every region on the caller; no helper ever
  // joins, so nothing is recorded.
  obs::MetricsRegistry reg;
  ThreadPool pool(ThreadPool::kInline);
  ASSERT_EQ(pool.num_workers(), 0u);
  pool.AttachMetrics(&reg);
  EXPECT_EQ(reg.GetGauge(obs::kPoolWorkers)->Value(), 0.0);
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    pool.ParallelForChunked(8, 4, [&](size_t, size_t begin, size_t end) {
      ran.fetch_add(static_cast<int>(end - begin));
    });
  }
  EXPECT_EQ(ran.load(), 40);
  EXPECT_EQ(reg.GetCounter(obs::kPoolTasksTotal)->Value(), 0u);
  EXPECT_EQ(reg.GetHistogram(obs::kPoolTaskWaitUs)->count(), 0u);
  EXPECT_EQ(reg.GetHistogram(obs::kPoolTaskRunUs)->count(), 0u);
  EXPECT_EQ(reg.GetCounter(obs::kPoolStealsTotal)->Value(), 0u);
}

TEST(PoolMetricsTest, WorkerPoolCountsEveryTask) {
  // Every helper join of a region is one task with one run time, a region
  // on a 2-worker pool has at most 2 joins, and detaching stops recording.
  obs::MetricsRegistry reg;
  obs::Counter* tasks = reg.GetCounter(obs::kPoolTasksTotal);
  // Chunks long enough that parked workers wake before the caller is done.
  auto slow_chunk = [](size_t, size_t, size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  };
  {
    ThreadPool pool(2);
    pool.AttachMetrics(&reg);
    uint64_t before = 0;
    for (int r = 0; r < 64; ++r) {
      pool.ParallelForChunked(8, 8, slow_chunk);
      uint64_t after = tasks->Value();
      EXPECT_LE(after - before, 2u) << "region " << r;
      before = after;
    }
    EXPECT_GT(before, 0u);
    pool.AttachMetrics(nullptr);
    for (int r = 0; r < 8; ++r) pool.ParallelForChunked(8, 8, slow_chunk);
    EXPECT_EQ(tasks->Value(), before);
    // The destructor joins the workers, so every join has recorded its run
    // time by the end of this scope.
  }
  EXPECT_EQ(reg.GetHistogram(obs::kPoolTaskRunUs)->count(), tasks->Value());
  EXPECT_EQ(reg.GetHistogram(obs::kPoolTaskWaitUs)->count(), tasks->Value());
  EXPECT_EQ(reg.GetCounter(obs::kPoolStealsTotal)->Value(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end pipeline + serving instrumentation (shared trained estimator).
// ---------------------------------------------------------------------------

class ObsPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Dataset& ds = SharedTinyDataset();
    registry_ = new obs::MetricsRegistry();
    PipelineConfig config;
    config.corr.min_co_observed = 8;
    config.observability.metrics = registry_;
    auto est = TrafficSpeedEstimator::Train(&ds.net, &ds.history, config);
    TS_CHECK(est.ok()) << est.status().ToString();
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

  uint64_t CounterValue(const obs::MetricDef& def) {
    return registry_->GetCounter(def)->Value();
  }

  static obs::MetricsRegistry* registry_;
  static TrafficSpeedEstimator* estimator_;
  static std::vector<RoadId>* seeds_;
};

obs::MetricsRegistry* ObsPipelineTest::registry_ = nullptr;
TrafficSpeedEstimator* ObsPipelineTest::estimator_ = nullptr;
std::vector<RoadId>* ObsPipelineTest::seeds_ = nullptr;

TEST_F(ObsPipelineTest, EstimateRecordsBpAndEstimatorSeries) {
  uint64_t runs_before = CounterValue(obs::kBpRunsTotal);
  uint64_t estimates_before = CounterValue(obs::kEstimatesTotal);
  const uint64_t slot = 0;
  obs::FlightRecorder recorder;
  auto out = estimator_->Estimate(slot, CleanObs(slot), nullptr, &recorder);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(CounterValue(obs::kEstimatesTotal), estimates_before + 1);
  EXPECT_GT(CounterValue(obs::kBpRunsTotal), runs_before);
  EXPECT_GT(CounterValue(obs::kBpSweepsTotal), runs_before);
  EXPECT_GT(registry_->GetHistogram(obs::kEstimateLatencyMs)->count(), 0u);
  // A direct estimator call is traceable too: both layers record flight
  // stages for the slot.
  size_t estimates = 0;
  size_t bp_solves = 0;
  for (const obs::FlightEvent& e : recorder.CollectSlot(slot)) {
    if (e.stage == obs::FlightStage::kEstimate) ++estimates;
    if (e.stage == obs::FlightStage::kBpSolve) ++bp_solves;
  }
  EXPECT_EQ(estimates, 1u);
  EXPECT_GE(bp_solves, 1u);
}

// The seed-set plan counter is bumped with the workspace's plan_compiles:
// one compile for a fixed seed set, one more when the set changes.
TEST_F(ObsPipelineTest, SeedPlanCompilesCounterMatchesWorkspace) {
  const uint64_t before = CounterValue(obs::kSeedPlanCompilesTotal);
  auto session = ServingSession::Create(estimator_);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (uint64_t slot = 0; slot < 3; ++slot) {
    ASSERT_TRUE(session->Ingest(slot, CleanObs(slot)).ok());
  }
  std::vector<SeedSpeed> fewer = CleanObs(3);
  fewer.pop_back();
  ASSERT_TRUE(session->Ingest(3, fewer).ok());
  EXPECT_EQ(session->estimate_workspace().plan_compiles, 2u);
  EXPECT_EQ(CounterValue(obs::kSeedPlanCompilesTotal) - before,
            session->estimate_workspace().plan_compiles);
}

TEST_F(ObsPipelineTest, SeedSelectionRecordsPerAlgorithmSeries) {
  uint64_t lazy_runs = CounterValue(obs::kSeedRunsLazyGreedy);
  uint64_t lazy_evals = CounterValue(obs::kSeedGainEvalsLazyGreedy);
  uint64_t rounds = CounterValue(obs::kSeedRoundsTotal);
  auto result = estimator_->SelectSeeds(4, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CounterValue(obs::kSeedRunsLazyGreedy), lazy_runs + 1);
  EXPECT_EQ(CounterValue(obs::kSeedGainEvalsLazyGreedy),
            lazy_evals + result->gain_evaluations);
  EXPECT_EQ(CounterValue(obs::kSeedRoundsTotal),
            rounds + result->seeds.size());
  EXPECT_GE(registry_->GetHistogram(obs::kSeedMarginalGain)->count(),
            result->seeds.size());

  uint64_t sg_runs = CounterValue(obs::kSeedRunsStochasticGreedy);
  auto sg = estimator_->SelectSeeds(4, SeedStrategy::kStochasticGreedy);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(CounterValue(obs::kSeedRunsStochasticGreedy), sg_runs + 1);

  uint64_t greedy_runs = CounterValue(obs::kSeedRunsGreedy);
  auto greedy = estimator_->SelectSeeds(4, SeedStrategy::kGreedy);
  ASSERT_TRUE(greedy.ok());
  EXPECT_EQ(CounterValue(obs::kSeedRunsGreedy), greedy_runs + 1);
}

TEST_F(ObsPipelineTest, MetricsDoNotChangeResults) {
  // The null-handle contract, end to end: identical estimator trained
  // without observability must select the same seeds and produce the same
  // speeds.
  const Dataset& d = SharedTinyDataset();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  auto plain = TrafficSpeedEstimator::Train(&d.net, &d.history, config);
  ASSERT_TRUE(plain.ok());
  auto plain_seeds = plain->SelectSeeds(6, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(plain_seeds.ok());
  EXPECT_EQ(plain_seeds->seeds, *seeds_);
  auto instrumented = estimator_->Estimate(2, CleanObs(2));
  auto uninstrumented = plain->Estimate(2, CleanObs(2));
  ASSERT_TRUE(instrumented.ok());
  ASSERT_TRUE(uninstrumented.ok());
  EXPECT_EQ(instrumented->speeds.speed_kmh, uninstrumented->speeds.speed_kmh);
}

TEST_F(ObsPipelineTest, ServingStatsMatchRegistryMirrors) {
  obs::MetricsRegistry reg;  // session-local registry, clean counters
  ServingOptions opts;
  opts.validation = ValidationPolicy::kFilter;
  opts.observability.metrics = &reg;
  auto session = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE(session->Ingest(0, CleanObs(0)).ok());  // fresh estimate
  ASSERT_TRUE(session->Ingest(0, CleanObs(0)).ok());  // duplicate slot
  ASSERT_TRUE(session->Ingest(1, {}).ok());           // carry-forward
  // Malformed observation under kFilter: dropped + counted, slot estimated.
  std::vector<SeedSpeed> bad = CleanObs(2);
  bad.push_back({bad[0].road, -5.0});
  ASSERT_TRUE(session->Ingest(2, bad).ok());
  EXPECT_FALSE(session->Ingest(1, CleanObs(1)).ok());  // out-of-order
  // The same malformed batch fails whole on a kStrict session. It shares
  // the registry, so the registry totals are the two sessions' stats summed.
  ServingOptions strict_opts;
  strict_opts.validation = ValidationPolicy::kStrict;
  strict_opts.observability.metrics = &reg;
  auto strict = ServingSession::Create(estimator_, strict_opts);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->Ingest(3, bad).ok());

  ServingStats s = session->stats();
  const ServingStats t = strict->stats();
  s.slots_estimated += t.slots_estimated;
  s.slots_carried_forward += t.slots_carried_forward;
  s.duplicate_slots += t.duplicate_slots;
  s.out_of_order_slots += t.out_of_order_slots;
  s.rejected_batches += t.rejected_batches;
  s.observations_filtered += t.observations_filtered;
  s.observations_deduplicated += t.observations_deduplicated;
  s.estimation_failures += t.estimation_failures;
  EXPECT_GT(s.slots_estimated, 0u);
  EXPECT_GT(s.duplicate_slots, 0u);
  EXPECT_GT(s.slots_carried_forward, 0u);
  EXPECT_GT(s.observations_filtered, 0u);
  EXPECT_GT(s.out_of_order_slots, 0u);
  EXPECT_GT(s.rejected_batches, 0u);

  auto value = [&](const obs::MetricDef& def) {
    return reg.GetCounter(def)->Value();
  };
  EXPECT_EQ(value(obs::kServingSlotsEstimatedTotal), s.slots_estimated);
  EXPECT_EQ(value(obs::kServingSlotsCarriedForwardTotal),
            s.slots_carried_forward);
  EXPECT_EQ(value(obs::kServingDuplicateSlotsTotal), s.duplicate_slots);
  EXPECT_EQ(value(obs::kServingOutOfOrderSlotsTotal), s.out_of_order_slots);
  EXPECT_EQ(value(obs::kServingRejectedBatchesTotal), s.rejected_batches);
  EXPECT_EQ(value(obs::kServingObservationsFilteredTotal),
            s.observations_filtered);
  EXPECT_EQ(value(obs::kServingObservationsDeduplicatedTotal),
            s.observations_deduplicated);
  EXPECT_EQ(value(obs::kServingEstimationFailuresTotal),
            s.estimation_failures);
  EXPECT_EQ(reg.GetHistogram(obs::kServingIngestLatencyMs)->count(),
            s.slots_estimated + s.slots_carried_forward + s.duplicate_slots +
                s.out_of_order_slots + s.rejected_batches);
  // Staleness gauge reflects the current streak (reset by slot 2's fresh
  // estimate).
  EXPECT_EQ(reg.GetGauge(obs::kServingStalenessSlots)->Value(), 0.0);
}

// Slow ingests are read off the latency histogram: `_count` minus
// `_bucket{le="250"}`. Under the injected clock the one Ingest lands in the
// bucket its measured latency belongs to, past the 250 ms bound.
TEST_F(ObsPipelineTest, SlowIngestCounterUsesInjectedClock) {
  obs::MetricsRegistry reg;
  ServingOptions opts;
  opts.observability.metrics = &reg;
  auto session = ServingSession::Create(estimator_, opts);
  ASSERT_TRUE(session.ok());
  // Fake clock: every read advances 300 ms, so the Ingest call (at least a
  // start and an end read) appears to take 300 ms or more. The injected
  // clock advances on every read, which also keeps the estimator's
  // internal timers sane.
  g_fake_now = 0;
  obs::SetMonotonicClockForTest(+[]() -> uint64_t {
    g_fake_now += 300'000'000;
    return g_fake_now;
  });
  auto report = session->Ingest(0, CleanObs(0));
  obs::SetMonotonicClockForTest(nullptr);
  ASSERT_TRUE(report.ok());
  const obs::Histogram* h = reg.GetHistogram(obs::kServingIngestLatencyMs);
  ASSERT_EQ(h->count(), 1u);
  const double ms = h->sum();
  EXPECT_GE(ms, 300.0);
  size_t expected_bucket = 0;
  while (expected_bucket < h->num_buckets() &&
         ms > h->bound(expected_bucket)) {
    ++expected_bucket;
  }
  for (size_t i = 0; i <= h->num_buckets(); ++i) {
    EXPECT_EQ(h->bucket_count(i), i == expected_bucket ? 1u : 0u) << i;
  }
  // The documented recipe: _count - _bucket{le="250"} = 1 slow ingest.
  const std::string prom = reg.ToPrometheus();
  EXPECT_NE(prom.find("trendspeed_serving_ingest_latency_ms_bucket{le=\"250\"} 0\n"),
            std::string::npos);
  EXPECT_NE(prom.find("trendspeed_serving_ingest_latency_ms_count 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace trendspeed
