// City monitor: a real-time traffic dashboard over a simulated day, built
// from the library's production pieces:
//
//   WorkerPool + CrowdCampaign   — crowdsourced speed reports for the K
//                                  seed roads (3 workers each, median
//                                  aggregation, online quality control)
//   TrafficSpeedEstimator        — the two-step trend+speed inference
//   ServingSession               — hardened ingestion: validation, dedup,
//                                  carry-forward, hysteresis alerts
//                                  (docs/serving.md)
//   IngestFrontEnd               — the lock-free MPSC write path: crowd
//                                  answers are Offer()ed one by one (as a
//                                  fleet of reporter threads would) and
//                                  Flush() hands the slot batch to the
//                                  session at the slot boundary
//   MetricsRegistry               — every stage records into one registry
//   FlightRecorder                — each served slot's stage timeline, for
//                                  "where did slot N's time go?"
//                                  (docs/observability.md)
//
// At the end the alerts are scored against the simulator's ground truth and
// the registry is dumped in Prometheus text format — exactly what a real
// deployment would serve from its /metrics endpoint.
//
// Build & run:  ./build/examples/city_monitor

#include <cstdio>
#include <set>

#include "core/ingest.h"
#include "core/serving.h"
#include "crowd/campaign.h"
#include "io/dataset.h"
#include "obs/flight.h"
#include "obs/metrics.h"

using namespace trendspeed;

int main() {
  // A congested ring-radial city with 14 days of probe history.
  DatasetOptions opts;
  opts.history_days = 14;
  opts.test_days = 1;
  opts.use_probe_fleet = true;
  opts.fleet.trips_per_slot = 15;
  auto dataset = BuildCityA(opts);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  // One registry observes the whole run: training, seed selection, every
  // online estimate, and the serving layer.
  obs::MetricsRegistry registry;
  PipelineConfig config;
  config.observability.metrics = &registry;
  auto estimator =
      TrafficSpeedEstimator::Train(&dataset->net, &dataset->history, config);
  if (!estimator.ok()) {
    std::fprintf(stderr, "train: %s\n",
                 estimator.status().ToString().c_str());
    return 1;
  }
  const size_t kBudget = 40;
  auto seeds = estimator->SelectSeeds(kBudget, SeedStrategy::kLazyGreedy);
  if (!seeds.ok()) return 1;

  // Crowd: 500 workers of mixed quality; 3 asked per seed road per slot.
  WorkerPool::Options pool_opts;
  pool_opts.num_workers = 500;
  pool_opts.bias_spread_kmh = 2.5;
  pool_opts.noise_max_kmh = 7.0;
  pool_opts.max_outlier_prob = 0.06;
  WorkerPool pool(pool_opts);
  CampaignOptions campaign_opts;
  campaign_opts.workers_per_seed = 3;
  campaign_opts.aggregation = AggregationMethod::kMedian;
  CrowdCampaign campaign(&pool, campaign_opts);

  ServingOptions serving_opts;
  serving_opts.monitor.alert_deviation = -0.35;
  // Crowd answers are median-aggregated but still untrusted: drop (and
  // count) any malformed report instead of failing the slot.
  serving_opts.validation = ValidationPolicy::kFilter;
  serving_opts.observability.metrics = &registry;
  // The flight recorder times every stage each served slot passes through.
  obs::FlightRecorder flight;
  serving_opts.observability.flight = &flight;
  // Observations reach the session through the bounded lock-free queue, the
  // same write path a many-reporter deployment uses (core/ingest.h).
  serving_opts.ingest_queue.capacity = 1024;
  auto session = ServingSession::Create(&*estimator, serving_opts);
  if (!session.ok()) {
    std::fprintf(stderr, "serving: %s\n", session.status().ToString().c_str());
    return 1;
  }
  auto frontend = IngestFrontEnd::Create(&*session);
  if (!frontend.ok()) {
    std::fprintf(stderr, "ingest: %s\n", frontend.status().ToString().c_str());
    return 1;
  }

  std::printf("monitoring %zu roads | %zu seeds | %zu crowd workers\n\n",
              dataset->net.num_roads(), seeds->seeds.size(), pool.size());
  std::printf("%-7s%-10s%-12s%-10s%-24s\n", "time", "avg-kmh", "congested",
              "alerts", "events");

  SlotClock clock{dataset->truth.slots_per_day};
  std::set<RoadId> flagged_any;
  std::set<RoadId> truly_congested;
  uint64_t start = dataset->first_test_slot();
  uint64_t last_served = start;
  for (uint64_t slot = start; slot < dataset->num_slots(); slot += 2) {
    auto answers = campaign.Collect(seeds->seeds, dataset->truth.speeds[slot]);
    if (!answers.ok()) return 1;
    // Reporters push one observation at a time; a full queue is drained
    // inline (a deployment's consumer thread does this continuously).
    for (const SeedSpeed& obs : *answers) {
      while (!(*frontend)->Offer(slot, obs)) (*frontend)->Drain();
    }
    auto report = (*frontend)->Flush();
    if (!report.ok()) {
      // Graceful degradation: the session stays usable; skip this slot.
      std::fprintf(stderr, "slot %llu not served: %s\n",
                   static_cast<unsigned long long>(slot),
                   report.status().ToString().c_str());
      continue;
    }
    last_served = slot;
    for (const TrafficAlert& a : report->monitor.new_alerts) {
      if (a.raised) flagged_any.insert(a.road);
    }
    // Ground-truth congestion for final scoring.
    for (RoadId r = 0; r < dataset->net.num_roads(); ++r) {
      double hist = dataset->history.HistoricalMeanOr(
          r, slot, dataset->net.road(r).free_flow_kmh);
      if (dataset->truth.at(slot, r) < hist * 0.65) truly_congested.insert(r);
    }
    // Hourly dashboard line.
    if (clock.SlotOfDay(slot) % 6 == 0) {
      std::string events;
      for (const TrafficAlert& a : report->monitor.new_alerts) {
        events += (a.raised ? "+" : "-") + std::to_string(a.road) + " ";
        if (events.size() > 20) break;
      }
      std::printf("%02d:00  %-10.1f%-12zu%-10zu%-24s\n",
                  static_cast<int>(clock.HourOfDay(slot)),
                  report->monitor.mean_speed_kmh,
                  report->monitor.congested_roads,
                  session->ActiveAlerts().size(), events.c_str());
    }
  }

  size_t hits = 0;
  for (RoadId r : flagged_any) {
    if (truly_congested.count(r)) ++hits;
  }
  const ServingStats& stats = session->stats();
  std::printf("\nslots served: %llu fresh, %llu carried forward, "
              "%llu observations filtered, %llu deduplicated\n",
              static_cast<unsigned long long>(stats.slots_estimated),
              static_cast<unsigned long long>(stats.slots_carried_forward),
              static_cast<unsigned long long>(stats.observations_filtered),
              static_cast<unsigned long long>(stats.observations_deduplicated));
  std::printf("crowd answers purchased: %llu\n",
              static_cast<unsigned long long>(campaign.answers_spent()));
  IngestStats ingest = (*frontend)->stats();
  std::printf("ingest queue: %llu observations enqueued, %llu slot batches "
              "flushed, %llu backpressure drops, %llu stragglers\n",
              static_cast<unsigned long long>(ingest.enqueued),
              static_cast<unsigned long long>(ingest.flushed_slots),
              static_cast<unsigned long long>(ingest.rejected_backpressure),
              static_cast<unsigned long long>(ingest.stragglers));
  std::printf("roads that truly dropped >35%% below norm today: %zu\n",
              truly_congested.size());
  std::printf("monitor flagged %zu roads, %zu correctly"
              " (precision %.0f%%, recall %.0f%%)\n",
              flagged_any.size(), hits,
              flagged_any.empty() ? 0.0 : 100.0 * hits / flagged_any.size(),
              truly_congested.empty()
                  ? 0.0
                  : 100.0 * hits / truly_congested.size());

  // Scrape-ready view of the same run. A deployment serves this string from
  // an HTTP /metrics endpoint; obs::ToChromeTraceJson(flight) would export
  // the slot timelines for chrome://tracing.
  std::printf("\n--- /metrics (Prometheus text format) ---\n%s",
              registry.ToPrometheus().c_str());
  const obs::SlotCriticalPath cp = obs::ComputeSlotCriticalPath(
      flight.CollectSlot(last_served), last_served);
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::printf("--- flight: %llu stage events recorded ---\n"
              "slot %llu: %.3f ms total = queue wait %.3f + admission %.3f"
              " + bp %.3f + publish %.3f + other %.3f (%.0f%% attributed)\n",
              static_cast<unsigned long long>(flight.total_recorded()),
              static_cast<unsigned long long>(last_served), ms(cp.total_ns),
              ms(cp.queue_wait_ns), ms(cp.admission_ns), ms(cp.bp_ns),
              ms(cp.publish_ns), ms(cp.other_ns),
              100.0 * cp.AttributedFraction());
  return 0;
}
