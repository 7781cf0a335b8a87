// Experiment F10 [R] — incident detection quality vs budget K.
//
// The application the paper's introduction leads with: spotting abnormal
// slowdowns in real time from only K observed roads. A ServingSession, the
// composition that is actually served, flags roads whose smoothed estimated
// deviation collapses; this harness scores its flags against the
// simulator's ground truth (roads that truly ran >= 35% below their norm)
// across the test day, sweeping K. Expected shape: precision stays high at
// all K (alerts are debounced), recall grows with K.

#include <set>

#include "bench_util.h"
#include "core/serving.h"

namespace trendspeed {
namespace {

void Run() {
  auto ds = bench::MakeCity("CityA");
  TrafficSpeedEstimator est = bench::TrainDefault(*ds);
  Evaluator eval(&*ds);

  // Ground truth: roads that were truly deeply congested at some test slot.
  std::set<RoadId> truly_congested;
  for (uint64_t slot : eval.TestSlots(2)) {
    for (RoadId r = 0; r < ds->net.num_roads(); ++r) {
      double hist = ds->history.HistoricalMeanOr(
          r, slot, ds->net.road(r).free_flow_kmh);
      if (ds->truth.at(slot, r) < hist * 0.65) truly_congested.insert(r);
    }
  }

  bench::PrintTitle("F10 incident detection vs budget K (CityA)");
  bench::Table t({"K", "flagged", "correct", "precision", "recall"}, 12);
  t.PrintHeader();
  for (size_t k : {10u, 20u, 40u, 80u, 160u}) {
    auto seeds = est.SelectSeeds(k, SeedStrategy::kLazyGreedy);
    TS_CHECK(seeds.ok());
    ServingOptions opts;
    opts.monitor.alert_deviation = -0.35;
    auto session = ServingSession::Create(&est, opts);
    TS_CHECK(session.ok()) << session.status().ToString();
    Rng rng(7);
    std::set<RoadId> flagged;
    for (uint64_t slot : eval.TestSlots(2)) {
      auto obs = eval.ObserveSeeds(slot, seeds->seeds, 1.5, &rng);
      auto report = session->Ingest(slot, obs);
      TS_CHECK(report.ok()) << report.status().ToString();
      for (const TrafficAlert& a : report->monitor.new_alerts) {
        if (a.raised) flagged.insert(a.road);
      }
    }
    size_t hits = 0;
    for (RoadId r : flagged) {
      if (truly_congested.count(r)) ++hits;
    }
    double precision =
        flagged.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(flagged.size());
    double recall = truly_congested.empty()
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(truly_congested.size());
    t.Row({std::to_string(k), std::to_string(flagged.size()),
           std::to_string(hits), bench::FmtPct(precision),
           bench::FmtPct(recall)});
  }
  std::printf("(ground truth: %zu roads ran >=35%% below norm today)\n",
              truly_congested.size());
}

}  // namespace
}  // namespace trendspeed

int main() {
  trendspeed::Run();
  return 0;
}
