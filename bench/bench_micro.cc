// Experiment M1 — google-benchmark microbenchmarks of the hot kernels:
// one BP sweep, one Gibbs sweep, greedy marginal-gain evaluation, full
// propagation pass, map-matching a fix, a simulator step, and routing a
// probe fleet's trips.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "probe/map_matching.h"
#include "probe/trips.h"
#include "roadnet/generators.h"
#include "seed/greedy.h"
#include "seed/lazy_greedy.h"
#include "trend/belief_propagation.h"
#include "trend/gibbs.h"
#include "trend/trend_model.h"
#include "traffic/simulator.h"

namespace trendspeed {
namespace {

// Shared fixture state built once (google-benchmark may run each benchmark
// many times; keep setup out of the loops).
struct Fixture {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<TrafficSpeedEstimator> est;
  std::vector<SeedSpeed> seeds;
  uint64_t slot = 0;

  static const Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      fx->ds = bench::MakeCity("CityA");
      fx->est = std::make_unique<TrafficSpeedEstimator>(
          bench::TrainDefault(*fx->ds));
      auto selected = fx->est->SelectSeeds(40, SeedStrategy::kLazyGreedy);
      TS_CHECK(selected.ok());
      fx->slot = fx->ds->first_test_slot();
      for (RoadId r : selected->seeds) {
        fx->seeds.push_back(SeedSpeed{r, fx->ds->truth.at(fx->slot, r)});
      }
      return fx;
    }();
    return *f;
  }
};

void BM_FullEstimate(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    auto out = f.est->Estimate(f.slot, f.seeds);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.ds->net.num_roads()));
}
BENCHMARK(BM_FullEstimate);

void BM_BpInference(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  PairwiseMrf mrf = PairwiseMrf::FromCorrelationGraph(f.est->correlation_graph());
  for (size_t v = 0; v < mrf.num_vars(); ++v) mrf.SetPriorUp(v, 0.55);
  for (const SeedSpeed& s : f.seeds) mrf.Clamp(s.road, 1);
  for (auto _ : state) {
    BpResult r = InferMarginalsBp(mrf);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(mrf.num_edges()));
}
BENCHMARK(BM_BpInference);

void BM_GibbsInference(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  PairwiseMrf mrf = PairwiseMrf::FromCorrelationGraph(f.est->correlation_graph());
  for (size_t v = 0; v < mrf.num_vars(); ++v) mrf.SetPriorUp(v, 0.55);
  for (const SeedSpeed& s : f.seeds) mrf.Clamp(s.road, 1);
  GibbsOptions opts;
  opts.burn_in_sweeps = 20;
  opts.sample_sweeps = 80;
  for (auto _ : state) {
    GibbsResult r = InferMarginalsGibbs(mrf, opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GibbsInference);

void BM_GreedyGainEval(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  ObjectiveState obj(&f.est->influence());
  obj.Add(0);
  RoadId j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(obj.GainOf(j));
    j = (j + 1) % static_cast<RoadId>(f.est->influence().num_roads());
  }
}
BENCHMARK(BM_GreedyGainEval);

void BM_SeedSelectLazyK40(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  for (auto _ : state) {
    auto r = SelectSeedsLazyGreedy(f.est->influence(), 40);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SeedSelectLazyK40);

void BM_SimulatorStep(benchmark::State& state) {
  auto net = MakeGridNetwork({});
  TS_CHECK(net.ok());
  TrafficOptions opts;
  TrafficSimulator sim(&*net, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Step());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(net->num_roads()));
}
BENCHMARK(BM_SimulatorStep);

void BM_MapMatchFix(benchmark::State& state) {
  const Fixture& f = Fixture::Get();
  SegmentIndex index(&f.ds->net);
  std::vector<GpsPoint> pts(2);
  Node mid = f.ds->net.Midpoint(3);
  pts[0].x = mid.x - 20;
  pts[0].y = mid.y;
  pts[1].x = mid.x;
  pts[1].y = mid.y + 5;
  pts[1].t_seconds = 15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchTrace(index, pts));
  }
}
BENCHMARK(BM_MapMatchFix);

// 40,000 seeded TripGenerator::Next calls on the CityA network: about the
// trips one probe-fleet history routes (14 days × 144 slots × 20 trips).
void BM_ProbeTripRouting(benchmark::State& state) {
  RingRadialOptions ring;  // BuildCityA's network
  ring.num_rings = 6;
  ring.num_spokes = 16;
  ring.highway_rings = 2;
  ring.seed = DatasetOptions{}.seed;
  auto net = MakeRingRadialNetwork(ring);
  TS_CHECK(net.ok());
  constexpr int kTrips = 40000;
  for (auto _ : state) {
    TripGenerator trips(&*net, TripGeneratorOptions{});
    size_t roads = 0;
    for (int t = 0; t < kTrips; ++t) {
      auto plan = trips.Next();
      if (plan.ok()) roads += plan->roads.size();
    }
    benchmark::DoNotOptimize(roads);
  }
  state.SetItemsProcessed(state.iterations() * kTrips);
}
BENCHMARK(BM_ProbeTripRouting)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trendspeed

BENCHMARK_MAIN();
