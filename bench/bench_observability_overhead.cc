// Observability overhead bench: proves the detached-registry contract.
//
// Three measurement groups, emitted as JSON on stdout (saved as
// BENCH_observability_overhead.json):
//
//   * ops_ns    — nanoseconds per primitive record operation, null handles
//                 (detached) vs live handles (attached). The null costs are
//                 what every record site pays when no registry is attached.
//   * bp        — single-threaded BP inference timed detached vs
//                 attached. The detached overhead cannot be measured
//                 against un-instrumented code (it no longer exists), so
//                 it is *derived*: record sites per run x null-op cost /
//                 fastest detached run time. The acceptance gate is <= 2%.
//   * serving   — ServingSession::Ingest over a trained tiny-city
//                 estimator, same treatment.
//   * flight_replay — a grid-city serving window replayed through
//                 IngestFrontEnd with a FlightRecorder attached. Validates
//                 the recorder's accounting against reality: the per-slot
//                 critical-path decomposition (queue wait + admission +
//                 BP + publish) must sum to within 5% of the
//                 measured end-to-end slot latency (asserted; skipped under
//                 --smoke, where per-slot work is too small for stage
//                 timings to dominate fixed overhead).
//
// The bp and serving groups time detached and attached runs in
// back-to-back pairs, after one untimed warm-up of each. Pairs alternate
// which side runs first and are taken two at a time (detached, attached,
// attached, detached), so an effect of running second cancels within each
// two. `attached_overhead_pct` is the median of those per-two differences,
// so host noise that lands on one run moves one sample, not the figure;
// `detached_ms`/`attached_ms` are the fastest run of each side.
//
// Correctness is asserted inline: attached and detached BP runs must
// produce bitwise-identical marginals.
//
// Flags:
//   --smoke             tiny instance, used by the `perf`-labelled CTest
//                       smoke entry.
//   --trace-out <path>  also write the replay's Chrome trace JSON (load
//                       in chrome://tracing or ui.perfetto.dev).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_hardware.h"
#include "core/ingest.h"
#include "core/serving.h"
#include "io/dataset.h"
#include "obs/catalog.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "trend/belief_propagation.h"
#include "trend/factor_graph.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

struct OverheadConfig {
  size_t rows = 230;
  size_t cols = 220;  // 50600 segments
  uint32_t bp_iters = 10;
  int bp_pairs = 24;
  size_t op_iters = 20'000'000;
  size_t ingests = 200;  ///< Ingest calls per timed serving run
  int serving_pairs = 32;
  // Flight-replay instance: a grid city big enough that the BP solve
  // dominates per-slot latency, so the critical-path decomposition can be
  // checked against the measured wall clock.
  size_t replay_grid = 28;       // 28x28 intersections, ~3k road segments
  uint32_t replay_bp_iters = 60;
  size_t replay_seeds = 24;
  size_t replay_slots = 6;
  bool check_replay_coverage = true;
  const char* trace_out = nullptr;
};

BpGraph MakeGridBpGraph(const OverheadConfig& cfg, std::vector<double>* pot) {
  size_t n = cfg.rows * cfg.cols;
  PairwiseMrf mrf(n);
  Rng rng(2026);
  for (size_t r = 0; r < cfg.rows; ++r) {
    for (size_t c = 0; c < cfg.cols; ++c) {
      size_t v = r * cfg.cols + c;
      double same = rng.Uniform(0.55, 0.95);
      double compat[2][2] = {{same, 1.0 - same}, {1.0 - same, same}};
      if (c + 1 < cfg.cols) mrf.AddEdge(v, v + 1, compat);
      if (r + 1 < cfg.rows) mrf.AddEdge(v, v + cfg.cols, compat);
    }
  }
  pot->resize(2 * n);
  for (size_t v = 0; v < n; ++v) {
    double p = rng.Uniform(0.05, 0.95);
    (*pot)[2 * v] = 1.0 - p;
    (*pot)[2 * v + 1] = p;
  }
  return BpGraph::FromMrf(mrf);
}

template <typename Fn>
double TimedMillis(const Fn& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedMillis();
}

struct PairedTiming {
  double detached_best_ms = 0.0;
  double attached_best_ms = 0.0;
  double median_overhead_pct = 0.0;  ///< median over two-pair samples
};

/// Runs `detached` and `attached` once each untimed, then times `pairs`
/// (even) back-to-back pairs as D A A D quads: each quad's two pairs, one
/// per order, give one overhead sample.
template <typename Detached, typename Attached>
PairedTiming TimePairs(int pairs, const Detached& detached,
                       const Attached& attached) {
  TS_CHECK(pairs >= 2 && pairs % 2 == 0);
  detached();
  attached();
  PairedTiming out;
  std::vector<double> pct;
  for (int q = 0; q < pairs / 2; ++q) {
    const double d1 = TimedMillis(detached);
    const double a1 = TimedMillis(attached);
    const double a2 = TimedMillis(attached);
    const double d2 = TimedMillis(detached);
    const double d_best = std::min(d1, d2), a_best = std::min(a1, a2);
    if (q == 0 || d_best < out.detached_best_ms) out.detached_best_ms = d_best;
    if (q == 0 || a_best < out.attached_best_ms) out.attached_best_ms = a_best;
    pct.push_back((a1 + a2 - d1 - d2) / (d1 + d2) * 100.0);
  }
  std::sort(pct.begin(), pct.end());
  const size_t mid = pct.size() / 2;
  out.median_overhead_pct =
      pct.size() % 2 == 1 ? pct[mid] : 0.5 * (pct[mid - 1] + pct[mid]);
  return out;
}

/// ns per op over `iters` iterations of `fn`. Handles are read through
/// volatile pointers at the call sites so the loop body cannot be hoisted
/// or elided.
template <typename Fn>
double NanosPerOp(size_t iters, const Fn& fn) {
  WallTimer timer;
  for (size_t i = 0; i < iters; ++i) fn();
  return timer.ElapsedMillis() * 1e6 / static_cast<double>(iters);
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  TS_CHECK_EQ(a.size(), b.size());
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

int Run(const OverheadConfig& cfg) {
  std::printf("{\n");
  std::printf("  \"bench\": \"observability_overhead\",\n");
  PrintHardwareStamp();
  std::printf("  \"hardware_concurrency\": %zu,\n", EffectiveThreads(0));

  // --- primitive op costs -------------------------------------------------
  obs::MetricsRegistry reg;
  obs::Counter* live_counter = reg.GetCounter(obs::kBpRunsTotal);
  obs::Gauge* live_gauge = reg.GetGauge(obs::kPoolWorkers);
  obs::Histogram* live_hist = reg.GetHistogram(obs::kEstimateLatencyMs);
  obs::FlightRecorder recorder(1024);

  obs::Counter* volatile vc_null = nullptr;
  obs::Counter* volatile vc_live = live_counter;
  obs::Gauge* volatile vg_live = live_gauge;
  obs::Histogram* volatile vh_null = nullptr;
  obs::Histogram* volatile vh_live = live_hist;
  obs::FlightRecorder* volatile vr_null = nullptr;
  obs::FlightRecorder* volatile vr_live = &recorder;

  size_t iters = cfg.op_iters;
  double null_counter_ns = NanosPerOp(iters, [&] { obs::Add(vc_null); });
  double counter_ns = NanosPerOp(iters, [&] { obs::Add(vc_live); });
  double null_hist_ns = NanosPerOp(iters, [&] { obs::Observe(vh_null, 0.5); });
  double hist_ns = NanosPerOp(iters, [&] { obs::Observe(vh_live, 1e-4); });
  double gauge_ns = NanosPerOp(iters, [&] { obs::Set(vg_live, 3.0); });
  size_t span_iters = iters / 100;
  double null_flight_span_ns = NanosPerOp(span_iters, [&] {
    obs::FlightSpan span(vr_null, 0, obs::FlightStage::kEstimate);
  });
  double flight_span_ns = NanosPerOp(span_iters, [&] {
    obs::FlightSpan span(vr_live, 0, obs::FlightStage::kEstimate);
  });
  double clock_ns = NanosPerOp(span_iters, [&] { obs::MonotonicNanos(); });

  std::printf("  \"ops_ns\": {\n");
  std::printf("    \"null_counter_add\": %.3f,\n", null_counter_ns);
  std::printf("    \"counter_add\": %.3f,\n", counter_ns);
  std::printf("    \"null_histogram_observe\": %.3f,\n", null_hist_ns);
  std::printf("    \"histogram_observe\": %.3f,\n", hist_ns);
  std::printf("    \"gauge_set\": %.3f,\n", gauge_ns);
  std::printf("    \"null_flight_span\": %.3f,\n", null_flight_span_ns);
  std::printf("    \"flight_span\": %.3f,\n", flight_span_ns);
  std::printf("    \"monotonic_nanos\": %.3f\n", clock_ns);
  std::printf("  },\n");

  // --- BP hot path --------------------------------------------------------
  std::vector<double> pot;
  BpGraph graph = MakeGridBpGraph(cfg, &pot);
  size_t n = graph.num_vars;
  BpOptions bp;
  bp.max_iters = cfg.bp_iters;
  // BENCH_observability_overhead.json records single-threaded runs: on the
  // shared pool, scheduling noise swamped the few record sites a run has.
  bp.num_threads = 1;
  BpOptions bp_attached = bp;
  bp_attached.metrics = &reg;

  BpResult detached_result, attached_result;
  const PairedTiming bp_timing = TimePairs(
      cfg.bp_pairs,
      [&] { detached_result = InferMarginalsBpFlat(graph, pot, bp); },
      [&] {
        attached_result = InferMarginalsBpFlat(graph, pot, bp_attached);
      });
  TS_CHECK_LT(MaxAbsDiff(detached_result.p_up, attached_result.p_up), 1e-12);
  const double bp_detached_ms = bp_timing.detached_best_ms;

  // Record sites a detached run touches: one null registration and one
  // null add per counter series the run records, none per sweep. Tie the
  // series count to the code: one attached run into a fresh registry
  // registers exactly kBpSeriesPerRun counters and nothing else.
  constexpr size_t kBpSeriesPerRun = 4;  // runs, kernel runs, sweeps, updates
  obs::MetricsRegistry site_check;
  BpOptions bp_check = bp;
  bp_check.metrics = &site_check;
  InferMarginalsBpFlat(graph, pot, bp_check);
  const obs::RegistrySnapshot sites = site_check.Snapshot();
  TS_CHECK_EQ(sites.counters.size(), kBpSeriesPerRun);
  TS_CHECK(sites.gauges.empty() && sites.histograms.empty());
  double bp_sites = 2.0 * kBpSeriesPerRun;
  double bp_detached_pct =
      bp_sites * null_counter_ns / (bp_detached_ms * 1e6) * 100.0;
  std::printf("  \"bp\": {\n");
  std::printf("    \"segments\": %zu,\n", n);
  std::printf("    \"iterations\": %u,\n", cfg.bp_iters);
  std::printf("    \"pairs\": %d,\n", cfg.bp_pairs);
  std::printf("    \"detached_ms\": %.3f,\n", bp_detached_ms);
  std::printf("    \"attached_ms\": %.3f,\n", bp_timing.attached_best_ms);
  std::printf("    \"attached_overhead_pct\": %.3f,\n",
              bp_timing.median_overhead_pct);
  std::printf("    \"record_sites_per_run\": %.0f,\n", bp_sites);
  std::printf("    \"derived_detached_overhead_pct\": %.6f\n",
              bp_detached_pct);
  std::printf("  },\n");
  TS_CHECK_LT(bp_detached_pct, 2.0);

  // --- serving hot path ---------------------------------------------------
  auto ds = BuildTinyCity();
  TS_CHECK(ds.ok()) << ds.status().ToString();
  PipelineConfig config;
  config.corr.min_co_observed = 8;
  auto est = TrafficSpeedEstimator::Train(&ds->net, &ds->history, config);
  TS_CHECK(est.ok()) << est.status().ToString();
  auto seeds = est->SelectSeeds(6, SeedStrategy::kLazyGreedy);
  TS_CHECK(seeds.ok());

  auto make_obs = [&](uint64_t slot) {
    std::vector<SeedSpeed> out;
    for (RoadId r : seeds->seeds) {
      out.push_back({r, std::max(1.0, ds->truth.at(slot, r))});
    }
    return out;
  };
  // Each session serves increasing slots across all of its runs.
  auto run_ingests = [&](ServingSession* session, uint64_t* next_slot) {
    for (size_t i = 0; i < cfg.ingests; ++i) {
      const uint64_t slot = (*next_slot)++;
      auto report = session->Ingest(slot, make_obs(slot % ds->num_slots()));
      TS_CHECK(report.ok()) << report.status().ToString();
    }
  };

  ServingOptions detached_opts;
  auto detached_session = ServingSession::Create(&est.value(), detached_opts);
  TS_CHECK(detached_session.ok());
  // Attached session: fresh registry so handles are live. The
  // estimator itself stays detached — this isolates the serving layer's own
  // instrumentation, the quantity the <= 2% gate covers.
  obs::MetricsRegistry serving_reg;
  ServingOptions attached_opts;
  attached_opts.observability.metrics = &serving_reg;
  auto attached_session = ServingSession::Create(&est.value(), attached_opts);
  TS_CHECK(attached_session.ok());
  uint64_t detached_slot = 0, attached_slot = 0;
  const PairedTiming serving_timing = TimePairs(
      cfg.serving_pairs,
      [&] { run_ingests(&detached_session.value(), &detached_slot); },
      [&] { run_ingests(&attached_session.value(), &attached_slot); });
  const double serving_detached_ms =
      serving_timing.detached_best_ms / static_cast<double>(cfg.ingests);
  const double serving_attached_ms =
      serving_timing.attached_best_ms / static_cast<double>(cfg.ingests);

  // Detached Ingest sites: three ServingStats mirrors (slots estimated,
  // observations filtered, observations deduplicated), the staleness
  // gauge, the latency histogram, and kSpansPerIngest null FlightSpans
  // (ingest envelope, admission, estimate envelope, bp_solve; these
  // sessions publish no snapshot) at two predicted branches each (ctor +
  // dtor, obs/flight.h). Registrations in the constructor amortize to ~0
  // over the run.
  constexpr uint64_t kSpansPerIngest = 4;
  const double serving_sites = 5.0 + 2.0 * kSpansPerIngest;
  // Tie the span count to the code: one Ingest on a session of the same
  // shape, with a live recorder, records exactly kSpansPerIngest events.
  obs::FlightRecorder span_check;
  ServingOptions span_opts;
  span_opts.observability.flight = &span_check;
  auto span_session = ServingSession::Create(&est.value(), span_opts);
  TS_CHECK(span_session.ok());
  const uint64_t recorded_before = span_check.total_recorded();
  TS_CHECK(span_session->Ingest(0, make_obs(0)).ok());
  TS_CHECK_EQ(span_check.total_recorded() - recorded_before, kSpansPerIngest);
  double serving_detached_pct =
      serving_sites * null_counter_ns / (serving_detached_ms * 1e6) * 100.0;
  std::printf("  \"serving\": {\n");
  std::printf("    \"ingests\": %zu,\n", cfg.ingests);
  std::printf("    \"pairs\": %d,\n", cfg.serving_pairs);
  std::printf("    \"detached_ms_per_ingest\": %.3f,\n", serving_detached_ms);
  std::printf("    \"attached_ms_per_ingest\": %.3f,\n", serving_attached_ms);
  std::printf("    \"attached_overhead_pct\": %.3f,\n",
              serving_timing.median_overhead_pct);
  std::printf("    \"record_sites_per_ingest\": %.0f,\n", serving_sites);
  std::printf("    \"derived_detached_overhead_pct\": %.6f\n",
              serving_detached_pct);
  std::printf("  },\n");
  TS_CHECK_LT(serving_detached_pct, 2.0);
  TS_CHECK_EQ(
      serving_reg.GetCounter(obs::kServingSlotsEstimatedTotal)->Value(),
      attached_slot);

  // --- flight replay: recorder accounting vs the wall clock ---------------
  // A grid city replayed through the real front-end. Every slot's
  // measured latency (Offer..Flush on this thread) is compared against the
  // recorder's critical-path decomposition; with the BP solve forced to
  // dominate (a long fixed sweep budget), the attributed stages must
  // recover the measured time to within 5%.
  GridNetworkOptions grid;
  grid.rows = cfg.replay_grid;
  grid.cols = cfg.replay_grid;
  grid.arterial_every = 5;
  DatasetOptions ds_opts;
  ds_opts.history_days = 8;
  ds_opts.test_days = 1;
  ds_opts.use_probe_fleet = false;  // idealized collector: fast to build
  auto net = MakeGridNetwork(grid);
  TS_CHECK(net.ok()) << net.status().ToString();
  auto replay_ds = BuildDataset("ReplayCity", std::move(net.value()), ds_opts);
  TS_CHECK(replay_ds.ok()) << replay_ds.status().ToString();

  PipelineConfig replay_config;
  replay_config.corr.min_co_observed = 8;
  replay_config.trend.bp.max_iters = cfg.replay_bp_iters;
  auto replay_est = TrafficSpeedEstimator::Train(
      &replay_ds->net, &replay_ds->history, replay_config);
  TS_CHECK(replay_est.ok()) << replay_est.status().ToString();
  auto replay_seeds =
      replay_est->SelectSeeds(cfg.replay_seeds, SeedStrategy::kLazyGreedy);
  TS_CHECK(replay_seeds.ok());

  obs::SetFlightThreadLabel("serving");
  obs::FlightRecorder flight;
  ServingOptions replay_opts;
  replay_opts.ingest_queue.capacity = 1024;
  replay_opts.publish_snapshots = true;
  replay_opts.observability.flight = &flight;
  auto replay_session =
      ServingSession::Create(&replay_est.value(), replay_opts);
  TS_CHECK(replay_session.ok()) << replay_session.status().ToString();
  auto fe = IngestFrontEnd::Create(&replay_session.value());
  TS_CHECK(fe.ok()) << fe.status().ToString();

  double measured_ms = 0.0;
  for (uint64_t slot = 0; slot < cfg.replay_slots; ++slot) {
    WallTimer slot_timer;
    for (RoadId r : replay_seeds->seeds) {
      TS_CHECK((*fe)->Offer(
          slot, {r, std::max(1.0, replay_ds->truth.at(slot, r))}));
    }
    auto report = (*fe)->Flush();
    TS_CHECK(report.ok()) << report.status().ToString();
    measured_ms += slot_timer.ElapsedMillis();
  }

  // Sum the per-slot decompositions over the whole window.
  uint64_t attributed_ns = 0, total_ns = 0;
  size_t flight_events = 0;
  for (uint64_t slot = 0; slot < cfg.replay_slots; ++slot) {
    obs::SlotCriticalPath path =
        obs::ComputeSlotCriticalPath(flight.CollectSlot(slot), slot);
    attributed_ns += path.queue_wait_ns + path.admission_ns + path.bp_ns +
                     path.publish_ns;
    total_ns += path.total_ns;
    flight_events += path.events;
  }
  double attributed_ms = static_cast<double>(attributed_ns) / 1e6;
  double coverage = attributed_ms / measured_ms;
  std::printf("  \"flight_replay\": {\n");
  std::printf("    \"segments\": %zu,\n", replay_ds->net.num_roads());
  std::printf("    \"slots\": %zu,\n", cfg.replay_slots);
  std::printf("    \"flight_events\": %zu,\n", flight_events);
  std::printf("    \"measured_ms\": %.3f,\n", measured_ms);
  std::printf("    \"attributed_ms\": %.3f,\n", attributed_ms);
  std::printf("    \"recorder_total_ms\": %.3f,\n",
              static_cast<double>(total_ns) / 1e6);
  std::printf("    \"critical_path_coverage\": %.4f\n", coverage);
  std::printf("  }\n}\n");
  TS_CHECK_EQ(flight.dropped(), 0u);
  if (cfg.check_replay_coverage) {
    TS_CHECK_GT(coverage, 0.95);
    TS_CHECK_LT(coverage, 1.05);
  }
  if (cfg.trace_out != nullptr) {
    std::string json = obs::ToChromeTraceJson(flight);
    FILE* f = std::fopen(cfg.trace_out, "w");
    TS_CHECK(f != nullptr) << "cannot open " << cfg.trace_out;
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu-byte Chrome trace to %s\n", json.size(),
                 cfg.trace_out);
  }
  return 0;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  trendspeed::OverheadConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.rows = 60;
      cfg.cols = 60;
      cfg.bp_iters = 4;
      cfg.bp_pairs = 2;
      cfg.op_iters = 2'000'000;
      cfg.ingests = 20;
      cfg.serving_pairs = 2;
      cfg.replay_grid = 12;
      cfg.replay_bp_iters = 8;
      cfg.replay_seeds = 8;
      cfg.replay_slots = 2;
      // Slots this small are fixed-overhead-bound; the 5% coverage gate
      // only holds once the BP solve dominates.
      cfg.check_replay_coverage = false;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      cfg.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return trendspeed::Run(cfg);
}
