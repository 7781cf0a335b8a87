// Navigator: does better speed estimation buy better routes?
//
// For a fixed origin/destination across a rush-hour afternoon, three
// navigators pick routes each slot:
//   static    — assumes free-flow speeds (no live data),
//   estimated — uses the K-seed TrendSpeed estimates,
//   oracle    — sees the true speeds (upper bound).
// Every chosen route is then scored by its ACTUAL travel time under the
// true speeds. The estimated navigator should recover most of the oracle's
// advantage over the static one.
//
// The estimated navigator consumes speeds the way a real routing tier
// would: observations go into a ServingSession, and the router reads the
// served field back through the read-side product layer — a CityProducts
// stack (docs/products.md) polling the session's published SpeedSnapshot and
// answering fastest-route queries through the version-invalidated ETA
// cache. Every answer carries the snapshot's staleness stamp, so an aged
// estimate can never be served as a fresh route (docs/serving.md).
//
// Build & run:  ./build/examples/navigator

#include <cstdio>

#include "core/estimator.h"
#include "core/evaluator.h"
#include "core/routing.h"
#include "core/serving.h"
#include "core/snapshot.h"
#include "io/dataset.h"
#include "product/products.h"

using namespace trendspeed;

int main() {
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
  auto estimator =
      TrafficSpeedEstimator::Train(&dataset->net, &dataset->history, {});
  if (!estimator.ok()) return 1;
  auto seeds = estimator->SelectSeeds(40, SeedStrategy::kLazyGreedy);
  if (!seeds.ok()) return 1;

  // Serve estimates through the hardened session and publish each served
  // slot as a snapshot; the routing loop below reads only through the
  // product layer built on that snapshot path.
  ServingOptions serving_opts;
  serving_opts.publish_snapshots = true;
  serving_opts.products.enabled = true;
  auto session = ServingSession::Create(&*estimator, serving_opts);
  if (!session.ok()) {
    std::fprintf(stderr, "serving: %s\n", session.status().ToString().c_str());
    return 1;
  }

  const RoadNetwork& net = dataset->net;
  auto products =
      CityProducts::ForSession(net, *session, dataset->truth.slots_per_day);
  if (!products.ok()) {
    std::fprintf(stderr, "products: %s\n",
                 products.status().ToString().c_str());
    return 1;
  }
  // A panel of random cross-town trips; per-trip routing noise washes out
  // and the systematic value of live information remains.
  Rng od_rng(11);
  std::vector<std::pair<NodeId, NodeId>> trips_od;
  while (trips_od.size() < 30) {
    NodeId a = static_cast<NodeId>(od_rng.NextIndex(net.num_nodes()));
    NodeId b = static_cast<NodeId>(od_rng.NextIndex(net.num_nodes()));
    if (a != b) trips_od.emplace_back(a, b);
  }

  Evaluator eval(&*dataset);
  SlotClock clock{dataset->truth.slots_per_day};
  Rng rng(5);
  double total_static = 0.0, total_est = 0.0, total_oracle = 0.0;
  size_t trips = 0, reroutes = 0;
  size_t bad_static = 0, bad_est = 0;  // >10% slower than the oracle route
  size_t stale_served = 0;             // ETAs answered off a stale snapshot

  for (uint64_t slot : eval.TestSlots(/*stride=*/6)) {
    double hour = clock.HourOfDay(slot);
    if (hour < 15.0 || hour >= 20.0) continue;  // PM peak window
    const std::vector<double>& truth = dataset->truth.speeds[slot];
    auto obs = eval.ObserveSeeds(slot, seeds->seeds, 1.5, &rng);
    if (!session->Ingest(slot, obs).ok()) return 1;
    // The navigator sees only the published snapshot — the same consistent
    // (slot, speeds) view any concurrent reader thread would get — folded
    // into the product layer's time-of-day profile as it goes.
    if (!products->Poll() || products->last_snapshot().slot != slot) return 1;
    // The "no live data" navigator still knows the time-of-day norm: it
    // routes on historical means, the strongest static baseline.
    std::vector<double> hist(net.num_roads());
    for (RoadId r = 0; r < net.num_roads(); ++r) {
      hist[r] = dataset->history.HistoricalMeanOr(r, slot,
                                                  net.road(r).free_flow_kmh);
    }
    for (auto [from, to] : trips_od) {
      auto static_route = FastestRoute(net, hist, from, to);
      // The live navigator asks the ETA cache: bitwise the same route as an
      // uncached FastestRoute over the snapshot, plus the staleness stamp
      // and provenance a serving tier needs (and cache hits for repeats
      // within a slot).
      auto est_eta = products->Eta(from, to);
      auto oracle_route = FastestRoute(net, truth, from, to);
      if (!static_route.ok() || !est_eta.ok() || !oracle_route.ok()) {
        continue;  // disconnected pair
      }
      if (est_eta->route.stale) ++stale_served;
      // All three routes scored under TRUE conditions.
      auto t_static = PathTravelTime(net, truth, static_route->roads);
      auto t_est = PathTravelTime(net, truth, est_eta->route.roads);
      auto t_oracle = PathTravelTime(net, truth, oracle_route->roads);
      if (!t_static.ok() || !t_est.ok() || !t_oracle.ok()) continue;
      total_static += *t_static;
      total_est += *t_est;
      total_oracle += *t_oracle;
      ++trips;
      if (est_eta->route.roads != static_route->roads) ++reroutes;
      if (*t_static > 1.10 * *t_oracle) ++bad_static;
      if (*t_est > 1.10 * *t_oracle) ++bad_est;
    }
  }
  if (trips == 0) {
    std::fprintf(stderr, "no trips evaluated\n");
    return 1;
  }
  double saved = total_static - total_est;
  double headroom = total_static - total_oracle;
  std::printf("across %zu PM-peak departures (%zu rerouted by live data):\n",
              trips, reroutes);
  std::printf("  historical-mean navigator : %.1f min total, %zu bad routes"
              " (>10%% over oracle)\n",
              total_static / 60.0, bad_static);
  std::printf("  TrendSpeed (K=40)         : %.1f min total, %zu bad routes"
              " — saves %.1f min\n",
              total_est / 60.0, bad_est, saved / 60.0);
  std::printf("  oracle                    : %.1f min total\n",
              total_oracle / 60.0);
  if (headroom > 1e-9) {
    std::printf("  -> live estimation recovers %.0f%% of the oracle's"
                " possible savings\n",
                100.0 * saved / headroom);
  } else {
    std::printf("  -> historical routing was already optimal today\n");
  }
  const RouteEtaCache::Stats& cache = products->eta_cache().stats();
  std::printf("  ETA cache: %llu hits / %llu misses, %llu invalidations;"
              " %zu stale-flagged answers\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.invalidations),
              stale_served);
  return 0;
}
