// Stochastic greedy (Mirzasoleiman et al.): per round, evaluate only a
// random sample of (n/k) * ln(1/epsilon) candidates. Expected approximation
// (1 - 1/e - epsilon); total evaluations O(n ln(1/epsilon)) independent of K.
// The scalable variant for city-scale candidate sets.

#ifndef TRENDSPEED_SEED_STOCHASTIC_GREEDY_H_
#define TRENDSPEED_SEED_STOCHASTIC_GREEDY_H_

#include "seed/objective.h"
#include "util/random.h"

namespace trendspeed {

struct StochasticGreedyOptions {
  /// Approximation slack: guarantee becomes (1 - 1/e - epsilon).
  double epsilon = 0.1;
  uint64_t seed = 17;
  /// Observability hook, same contract as SeedSelectionOptions: null
  /// (default) records nothing; never affects the sampled candidate
  /// sequence or the selected set.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Selects k seeds; each round evaluates only a random candidate sample.
Result<SeedSelectionResult> SelectSeedsStochasticGreedy(
    const InfluenceModel& model, size_t k,
    const StochasticGreedyOptions& opts = {});

}  // namespace trendspeed

#endif  // TRENDSPEED_SEED_STOCHASTIC_GREEDY_H_
