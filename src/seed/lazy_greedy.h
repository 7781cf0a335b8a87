// Lazy greedy (CELF): identical output to plain greedy, far fewer gain
// evaluations.
//
// Submodularity makes cached marginal gains upper bounds: a candidate whose
// stale gain already trails the current best fresh gain can be skipped
// without evaluation. In practice this cuts evaluations by 1-2 orders of
// magnitude — the seed-selection half of the paper's efficiency story.

#ifndef TRENDSPEED_SEED_LAZY_GREEDY_H_
#define TRENDSPEED_SEED_LAZY_GREEDY_H_

#include "seed/objective.h"

namespace trendspeed {

/// CELF selection; returns exactly the plain-greedy solution. The initial
/// gain scan runs on opts.num_threads; the lazy rounds are serial, so the
/// seeds and gain_evaluations are the same at every thread count.
Result<SeedSelectionResult> SelectSeedsLazyGreedy(
    const InfluenceModel& model, size_t k, const SeedSelectionOptions& opts);
/// Overload with default options (kept separate so the function's address
/// stays compatible with two-argument selection tables in the benches).
Result<SeedSelectionResult> SelectSeedsLazyGreedy(const InfluenceModel& model,
                                                  size_t k);

}  // namespace trendspeed

#endif  // TRENDSPEED_SEED_LAZY_GREEDY_H_
