#include "seed/stochastic_greedy.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/catalog.h"

namespace trendspeed {

Result<SeedSelectionResult> SelectSeedsStochasticGreedy(
    const InfluenceModel& model, size_t k,
    const StochasticGreedyOptions& opts) {
  size_t n = model.num_roads();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must be in [1, num_roads]");
  }
  if (opts.epsilon <= 0.0 || opts.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  Rng rng(opts.seed);
  SeedSelectionResult result;
  ObjectiveState state(&model);
  std::vector<bool> selected(n, false);

  obs::Counter* m_rounds = obs::GetCounter(opts.metrics, obs::kSeedRoundsTotal);
  obs::Histogram* m_gain =
      obs::GetHistogram(opts.metrics, obs::kSeedMarginalGain);
  obs::Add(obs::GetCounter(opts.metrics, obs::kSeedRunsStochasticGreedy));

  size_t sample_size = static_cast<size_t>(
      std::ceil(static_cast<double>(n) / static_cast<double>(k) *
                std::log(1.0 / opts.epsilon)));
  sample_size = std::clamp<size_t>(sample_size, 1, n);

  std::vector<RoadId> pool(n);
  for (RoadId j = 0; j < n; ++j) pool[j] = j;

  for (size_t round = 0; round < k; ++round) {
    // Sample from the not-yet-selected pool (swap-to-front partial shuffle).
    double best_gain = -1.0;
    RoadId best = kInvalidRoad;
    size_t available = pool.size();
    size_t take = std::min(sample_size, available);
    for (size_t t = 0; t < take; ++t) {
      size_t pick = t + rng.NextIndex(available - t);
      std::swap(pool[t], pool[pick]);
      RoadId j = pool[t];
      double gain = state.GainOf(j);
      ++result.gain_evaluations;
      if (gain > best_gain) {
        best_gain = gain;
        best = j;
      }
    }
    if (best == kInvalidRoad) break;
    state.Add(best);
    selected[best] = true;
    pool.erase(std::find(pool.begin(), pool.end(), best));
    obs::Add(m_rounds);
    obs::Observe(m_gain, best_gain);
  }
  result.seeds = state.seeds();
  result.objective = state.value();
  obs::Add(obs::GetCounter(opts.metrics, obs::kSeedGainEvalsStochasticGreedy),
           result.gain_evaluations);
  return result;
}

}  // namespace trendspeed
