#include "speed/seed_plan.h"

#include <algorithm>
#include <cmath>

namespace trendspeed {

namespace {

// Physical adjacency as every neighbour-mean pass visits it.
template <typename F>
void ForEachAdjacent(const RoadNetwork& net, RoadId v, F&& f) {
  for (RoadId u : net.RoadSuccessors(v)) f(u);
  for (RoadId u : net.RoadPredecessors(v)) f(u);
  RoadId twin = net.ReverseTwin(v);
  if (twin != kInvalidRoad) f(twin);
}

enum : uint8_t { kUnknown = 0, kPending = 1, kKnown = 2 };

}  // namespace

void LayeredMeanPlan::Compile(const RoadNetwork& net,
                              const std::vector<uint8_t>& known,
                              uint32_t max_layers) {
  layer_off_.assign(1, 0);
  roads_.clear();
  src_off_.assign(1, 0);
  src_.clear();
  if (max_layers == 0) return;
  const size_t n = net.num_roads();
  std::vector<uint8_t> state(n, kUnknown);
  std::vector<RoadId> frontier;
  for (RoadId v = 0; v < n; ++v) {
    if (known[v] != 0) {
      state[v] = kKnown;
      frontier.push_back(v);
    }
  }
  for (uint32_t l = 0; l < max_layers && !frontier.empty(); ++l) {
    const size_t first = roads_.size();
    for (RoadId u : frontier) {
      ForEachAdjacent(net, u, [&](RoadId v) {
        if (state[v] == kUnknown) {
          state[v] = kPending;
          roads_.push_back(v);
        }
      });
    }
    if (roads_.size() == first) break;
    for (size_t i = first; i < roads_.size(); ++i) {
      ForEachAdjacent(net, roads_[i], [&](RoadId u) {
        if (state[u] == kKnown) src_.push_back(u);
      });
      src_off_.push_back(static_cast<uint32_t>(src_.size()));
    }
    for (size_t i = first; i < roads_.size(); ++i) state[roads_[i]] = kKnown;
    layer_off_.push_back(static_cast<uint32_t>(roads_.size()));
    frontier.assign(roads_.begin() + static_cast<ptrdiff_t>(first),
                    roads_.end());
  }
}

void SeedSetPlan::Compile(const InfluenceModel& influence,
                          const RoadNetwork& net,
                          const std::vector<SeedSpeed>& seeds,
                          uint32_t mean_layers) {
  const size_t n = influence.num_roads();
  influence_ = &influence;
  mean_layers_ = mean_layers;
  seed_roads_.resize(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) seed_roads_[i] = seeds[i].road;

  // The aggregate weight, summed in seed order, and each road's entry
  // count. A road whose entries all carry zero influence stays uncovered,
  // as in a direct scatter.
  weight_.assign(n, 0.0);
  std::vector<uint32_t> cursor(n, 0);
  for (RoadId road : seed_roads_) {
    if (road >= n) continue;
    for (const CoverEntry& c : influence.CoverList(road)) {
      weight_[c.road] += std::fabs(static_cast<double>(c.influence));
      ++cursor[c.road];
    }
  }
  // Counting sort of the covered roads' entries; the stable fill in seed
  // order keeps each gather row in summation order.
  covered_.clear();
  gather_off_.assign(1, 0);
  for (RoadId v = 0; v < n; ++v) {
    if (weight_[v] <= 0.0) continue;
    covered_.push_back(v);
    const uint32_t count = cursor[v];
    cursor[v] = gather_off_.back();
    gather_off_.push_back(gather_off_.back() + count);
  }
  gather_.resize(gather_off_.back());
  for (size_t i = 0; i < seed_roads_.size(); ++i) {
    if (seed_roads_[i] >= n) continue;
    for (const CoverEntry& c : influence.CoverList(seed_roads_[i])) {
      if (weight_[c.road] > 0.0) {
        gather_[cursor[c.road]++] = {static_cast<uint32_t>(i), c.influence};
      }
    }
  }

  covers_every_seed_ = std::all_of(
      seed_roads_.begin(), seed_roads_.end(),
      [&](RoadId road) { return road < n && weight_[road] > 0.0; });

  std::vector<uint8_t> known(n);
  for (RoadId v = 0; v < n; ++v) known[v] = weight_[v] > 0.0 ? 1 : 0;
  means_.Compile(net, known, mean_layers);
}

bool SeedSetPlan::CompiledFor(const InfluenceModel& influence,
                              const std::vector<SeedSpeed>& seeds,
                              uint32_t mean_layers) const {
  return influence_ == &influence && mean_layers_ == mean_layers &&
         std::equal(seed_roads_.begin(), seed_roads_.end(), seeds.begin(),
                    seeds.end(), [](RoadId road, const SeedSpeed& s) {
                      return road == s.road;
                    });
}

void SeedSetPlan::Aggregate(const std::vector<double>& seed_deviation,
                            std::vector<double>* means) const {
  means->resize(covered_.size());
  for (size_t i = 0; i < covered_.size(); ++i) {
    double xsum = 0.0;
    for (uint32_t k = gather_off_[i]; k < gather_off_[i + 1]; ++k) {
      xsum += static_cast<double>(gather_[k].influence) *
              seed_deviation[gather_[k].seed];
    }
    (*means)[i] = xsum / weight_[covered_[i]];
  }
}

}  // namespace trendspeed
