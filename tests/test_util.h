// Shared fixtures for the trendspeed test suites.

#ifndef TRENDSPEED_TESTS_TEST_UTIL_H_
#define TRENDSPEED_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "io/dataset.h"
#include "probe/history.h"
#include "roadnet/generators.h"
#include "roadnet/road_network.h"
#include "speed/propagation.h"
#include "util/logging.h"
#include "util/random.h"

namespace trendspeed {
namespace testing_util {

/// A 4x4 grid network (48 directed roads) for structural tests.
inline RoadNetwork SmallGrid() {
  GridNetworkOptions opts;
  opts.rows = 4;
  opts.cols = 4;
  opts.arterial_every = 2;
  auto net = MakeGridNetwork(opts);
  TS_CHECK(net.ok()) << net.status().ToString();
  return std::move(net).value();
}

/// A 3-node path network: A -> B -> C with two-way roads (4 segments).
inline RoadNetwork PathNetwork() {
  RoadNetwork::Builder b;
  NodeId a = b.AddNode(0, 0);
  NodeId m = b.AddNode(500, 0);
  NodeId c = b.AddNode(1000, 0);
  b.AddTwoWay(a, m, RoadClass::kArterial, 60.0);
  b.AddTwoWay(m, c, RoadClass::kArterial, 60.0);
  auto net = b.Finish();
  TS_CHECK(net.ok()) << net.status().ToString();
  return std::move(net).value();
}

/// Parity of the shared up/down pattern used by AlternatingHistory: depends
/// on slot-of-day AND day so that a (slot-of-day, weekend) history bucket
/// mixes up and down days — observations then genuinely deviate from their
/// bucket mean.
inline bool AlternatingUp(uint64_t slot, uint32_t slots_per_day = 144) {
  return (slot % slots_per_day + slot / slots_per_day) % 2 == 0;
}

/// Dense synthetic history where all roads follow one shared deviation
/// pattern: on "up" slots every road runs above its bucket norm, on "down"
/// slots below. Perfect co-trends, useful for deterministic correlation and
/// trend tests.
inline HistoricalDb AlternatingHistory(const RoadNetwork& net,
                                       uint64_t num_slots = 1008,
                                       uint32_t slots_per_day = 144,
                                       double swing = 0.2) {
  HistoricalDb::Builder builder(net.num_roads(), num_slots, slots_per_day);
  for (uint64_t slot = 0; slot < num_slots; ++slot) {
    double factor =
        AlternatingUp(slot, slots_per_day) ? 1.0 + swing : 1.0 - swing;
    for (RoadId r = 0; r < net.num_roads(); ++r) {
      builder.Add(r, slot, net.road(r).free_flow_kmh * 0.8 * factor);
    }
  }
  return builder.Finish();
}

/// A seed list's compiled plan (speed/seed_plan.h) and its aggregate at
/// `slot`: each seed's deviation from its historical mean, the plan's means
/// in covered() order, and the same means spread over every road (0 where
/// no seed reaches), as EstimateSpeedsInfluence and Estimate consume them.
struct SeedAggregate {
  SeedSetPlan plan;
  std::vector<double> seed_deviation;
  std::vector<double> means;
  std::vector<double> x;
};

inline SeedAggregate AggregateSeeds(const InfluenceModel& influence,
                                    const RoadNetwork& net,
                                    const HistoricalDb& db,
                                    const std::vector<SeedSpeed>& seeds,
                                    uint64_t slot, uint32_t mean_layers = 0) {
  SeedAggregate agg;
  agg.plan.Compile(influence, net, seeds, mean_layers);
  for (const SeedSpeed& s : seeds) {
    double mean =
        db.HistoricalMeanOr(s.road, slot, net.road(s.road).free_flow_kmh);
    agg.seed_deviation.push_back(mean > 0.0 ? s.speed_kmh / mean - 1.0 : 0.0);
  }
  agg.plan.Aggregate(agg.seed_deviation, &agg.means);
  agg.x.assign(net.num_roads(), 0.0);
  for (size_t i = 0; i < agg.means.size(); ++i) {
    agg.x[agg.plan.covered()[i]] = agg.means[i];
  }
  return agg;
}

/// Cached tiny dataset shared by the heavier suites (built once per test
/// binary; building one takes a couple hundred ms).
inline const Dataset& SharedTinyDataset() {
  static const Dataset* dataset = [] {
    auto ds = BuildTinyCity();
    TS_CHECK(ds.ok()) << ds.status().ToString();
    return new Dataset(std::move(ds).value());
  }();
  return *dataset;
}

/// Fault mix applied by FaultyObservationSource. Probabilities are
/// independent per delivery (or per observation for corrupt_prob).
struct FaultPlan {
  double drop_prob = 0.0;       ///< slot never delivered
  double duplicate_prob = 0.0;  ///< slot delivered twice back-to-back
  double empty_prob = 0.0;      ///< batch replaced by an empty one
  double corrupt_prob = 0.0;    ///< per-observation speed corruption
  /// Deliveries are shuffled within consecutive windows of this size
  /// (> 1 produces out-of-order and therefore effectively dropped slots).
  size_t reorder_window = 0;
  uint64_t seed = 7;
};

/// Deterministic fault injector for serving-path robustness tests: takes the
/// clean per-slot delivery schedule and returns a corrupted one (dropped,
/// duplicated, reordered, emptied deliveries; NaN/negative/zero/absurd
/// speeds). Same plan + same input => same faults.
class FaultyObservationSource {
 public:
  struct Delivery {
    uint64_t slot = 0;
    std::vector<SeedSpeed> observations;
  };

  explicit FaultyObservationSource(const FaultPlan& plan)
      : plan_(plan), rng_(plan.seed) {}

  std::vector<Delivery> Corrupt(const std::vector<Delivery>& clean) {
    std::vector<Delivery> out;
    out.reserve(clean.size());
    for (const Delivery& d : clean) {
      if (rng_.NextBool(plan_.drop_prob)) continue;
      Delivery faulty = d;
      if (rng_.NextBool(plan_.empty_prob)) faulty.observations.clear();
      for (SeedSpeed& s : faulty.observations) {
        if (rng_.NextBool(plan_.corrupt_prob)) {
          s.speed_kmh = NextCorruptSpeed();
        }
      }
      out.push_back(faulty);
      if (rng_.NextBool(plan_.duplicate_prob)) out.push_back(faulty);
    }
    if (plan_.reorder_window > 1) {
      for (size_t begin = 0; begin < out.size();
           begin += plan_.reorder_window) {
        size_t end = std::min(begin + plan_.reorder_window, out.size());
        std::vector<Delivery> window(out.begin() + begin, out.begin() + end);
        rng_.Shuffle(&window);
        std::copy(window.begin(), window.end(), out.begin() + begin);
      }
    }
    return out;
  }

 private:
  /// Cycles through every malformed-speed class the serving layer must
  /// reject: NaN, negative, +/-inf, unit-mistake huge, and zero.
  double NextCorruptSpeed() {
    static constexpr double kInf = std::numeric_limits<double>::infinity();
    const double kinds[] = {std::numeric_limits<double>::quiet_NaN(),
                            -20.0, kInf, 1.0e7, 0.0, -kInf};
    return kinds[next_corrupt_++ % 6];
  }

  FaultPlan plan_;
  Rng rng_;
  size_t next_corrupt_ = 0;
};

}  // namespace testing_util
}  // namespace trendspeed

#endif  // TRENDSPEED_TESTS_TEST_UTIL_H_
