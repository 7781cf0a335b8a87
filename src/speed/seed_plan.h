// Seed-set plans: the parts of one Estimate that depend only on the ordered
// list of seed roads, compiled once and applied every slot.
//
// Three per-slot passes read the seed *speeds* but have a structure fixed by
// which roads were observed:
//
//   * the influence aggregate — which roads the seeds cover, through which
//     cover entries, and the total influence backing each road;
//   * the evidence backfill — a breadth-first walk over physical road
//     adjacency from the covered roads, averaging known neighbours;
//   * Step 2's spatial fallback — the same walk from every road Step 2
//     already estimated.
//
// A SeedSetPlan captures that structure: the aggregate weights, which
// roads are covered and whether every seed is among them, a CSR gather of
// (seed position, influence) per covered road kept in the order the seeds
// were listed, and one LayeredMeanPlan that both walks apply.
// Applying it adds the same terms in the same order as the direct passes,
// so results are bitwise identical. The plan is keyed by the *ordered*
// list, and seed order changes the order of the aggregate's sums; the
// plan does not canonicalize. ServingSession admits every slot's seeds in
// road order, so a serving stream whose seed set stays fixed (a
// crowdsourcing campaign) compiles once, however its reports interleave,
// and then pays only the gathers.

#ifndef TRENDSPEED_SPEED_SEED_PLAN_H_
#define TRENDSPEED_SPEED_SEED_PLAN_H_

#include <cstdint>
#include <vector>

#include "roadnet/road_network.h"
#include "seed/objective.h"

namespace trendspeed {

/// A crowdsourced seed observation: the true current speed of one road.
struct SeedSpeed {
  RoadId road = kInvalidRoad;
  double speed_kmh = 0.0;
};

/// Layered neighbour means over physical road adjacency (successors,
/// predecessors, reverse twin). Layer 0 holds the roads adjacent to the
/// known set; layer l the roads adjacent to layer l - 1 and not reached
/// before. Each road of a layer averages the values of its *sources*: the
/// neighbours that were known before its layer, visited in adjacency order
/// (duplicates included), which is the order a direct breadth-first pass
/// sums them in.
class LayeredMeanPlan {
 public:
  /// Compiles at most `max_layers` layers outward from the roads with
  /// known[v] != 0 (`known` has one entry per road of `net`).
  void Compile(const RoadNetwork& net, const std::vector<uint8_t>& known,
               uint32_t max_layers);

  uint32_t num_layers() const {
    return static_cast<uint32_t>(layer_off_.size()) - 1;
  }
  /// Roads the plan reaches, all layers together.
  size_t num_roads() const { return roads_.size(); }

  /// Calls emit(v, l, sum, count) for every road v of layers
  /// l < min(layers, num_layers()), layer by layer, where `sum` adds
  /// values[u] over v's `count` (>= 1) sources in adjacency order. `emit`
  /// may write values[v]: sources always lie in earlier layers or the known
  /// set, so a layer reads only finished values.
  template <typename Emit>
  void Apply(uint32_t layers, const double* values, Emit&& emit) const {
    const uint32_t end_layer = layers < num_layers() ? layers : num_layers();
    for (uint32_t l = 0; l < end_layer; ++l) {
      for (uint32_t i = layer_off_[l]; i < layer_off_[l + 1]; ++i) {
        double sum = 0.0;
        for (uint32_t k = src_off_[i]; k < src_off_[i + 1]; ++k) {
          sum += values[src_[k]];
        }
        emit(roads_[i], l, sum, src_off_[i + 1] - src_off_[i]);
      }
    }
  }

 private:
  std::vector<uint32_t> layer_off_ = {0};  ///< num_layers + 1 into roads_
  std::vector<RoadId> roads_;              ///< reached roads, layer by layer
  std::vector<uint32_t> src_off_ = {0};    ///< roads_.size() + 1 into src_
  std::vector<RoadId> src_;                ///< sources, adjacency order
};

/// The compiled structure of one ordered seed list (see the file comment).
class SeedSetPlan {
 public:
  /// Compiles the plan for `seeds` (order and duplicates matter; speeds
  /// are ignored; out-of-range roads are skipped). The layered plan gets
  /// `mean_layers` layers; 0 compiles the aggregate part only.
  void Compile(const InfluenceModel& influence, const RoadNetwork& net,
               const std::vector<SeedSpeed>& seeds, uint32_t mean_layers);

  /// True when the last Compile used this influence model, this seed road
  /// list (in order) and this layer count.
  bool CompiledFor(const InfluenceModel& influence,
                   const std::vector<SeedSpeed>& seeds,
                   uint32_t mean_layers) const;

  /// Writes the signed-influence-weighted mean of the per-seed deviations
  /// (one per entry of the compiled seed list) for each covered road into
  /// `means`, in covered() order: the deviation the seeds imply for that
  /// road, shared by Step 1's evidence and Step 2's regression input.
  /// Every road's gather row holds its cover entries in seed order, so the
  /// sum adds the same terms in the same order as a scatter over the seeds'
  /// cover lists.
  void Aggregate(const std::vector<double>& seed_deviation,
                 std::vector<double>* means) const;

  /// Roads with nonzero aggregate weight, ascending.
  const std::vector<RoadId>& covered() const { return covered_; }
  /// Per road: the total influence magnitude backing it, summed in seed
  /// order (0 = no seed reaches it).
  const std::vector<double>& weight() const { return weight_; }
  /// True when every listed seed is a covered road. Then the walk below
  /// starts from exactly the roads Step 2 estimates before its fallback.
  bool covers_every_seed() const { return covers_every_seed_; }
  /// Layers the walk below was compiled with (its `mean_layers`).
  uint32_t mean_layers() const { return mean_layers_; }
  /// Walk from the covered roads: the evidence backfill, and Step 2's
  /// spatial fallback whenever every seed is covered (an uncovered seed
  /// starts the fallback from one more road).
  const LayeredMeanPlan& neighbour_means() const { return means_; }

 private:
  struct GatherEntry {
    uint32_t seed;  ///< position in the compiled seed list
    float influence;
  };

  const InfluenceModel* influence_ = nullptr;
  std::vector<RoadId> seed_roads_;
  uint32_t mean_layers_ = 0;
  std::vector<double> weight_;
  std::vector<RoadId> covered_;
  bool covers_every_seed_ = true;
  std::vector<uint32_t> gather_off_;  ///< covered_.size() + 1 into gather_
  std::vector<GatherEntry> gather_;
  LayeredMeanPlan means_;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_SPEED_SEED_PLAN_H_
