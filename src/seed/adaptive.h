// Time-adaptive seed planning (the paper's "traffic changes dynamically"
// observation, applied to the *selection* side).
//
// A road that is volatile during rush hours can be placid at night; a
// single all-day seed set over-pays for quiet periods. The adaptive plan
// partitions the day into periods, re-derives the per-road variability
// sigma from history restricted to each period, and selects an independent
// seed set per period. At runtime SeedsFor(slot) returns the set active at
// that slot.

#ifndef TRENDSPEED_SEED_ADAPTIVE_H_
#define TRENDSPEED_SEED_ADAPTIVE_H_

#include <array>
#include <vector>

#include "corr/correlation_graph.h"
#include "probe/history.h"
#include "seed/objective.h"
#include "traffic/profiles.h"
#include "util/status.h"

namespace trendspeed {

struct AdaptivePlanOptions {
  /// The default partition: night[20..6), am[6..10), midday[10..16),
  /// pm[16..20).
  static constexpr std::array<double, 4> kDefaultBoundariesH = {6.0, 10.0,
                                                                 16.0, 20.0};
  /// Day partition boundaries in hours, ascending, implicitly wrapping.
  /// Copied from an array, not an initializer_list: GCC 12 at -march=native
  /// warns -Wmaybe-uninitialized through the list's inlined copy.
  std::vector<double> period_boundaries_h{kDefaultBoundariesH.begin(),
                                          kDefaultBoundariesH.end()};
  InfluenceOptions influence;
};

/// Per-period seed sets selected by lazy greedy on period-specific
/// influence models.
class AdaptiveSeedPlan {
 public:
  /// Builds the plan: one greedy selection per period with sigma computed
  /// from observations falling inside that period only.
  static Result<AdaptiveSeedPlan> Build(const CorrelationGraph& graph,
                                        const HistoricalDb& db, size_t k,
                                        const AdaptivePlanOptions& opts);

  size_t num_periods() const { return seeds_.size(); }

  /// Index of the period containing `slot`.
  size_t PeriodOf(uint64_t slot) const;

  /// The seed set active at `slot`.
  const std::vector<RoadId>& SeedsFor(uint64_t slot) const {
    return seeds_[PeriodOf(slot)];
  }

  const std::vector<RoadId>& seeds_of_period(size_t period) const {
    return seeds_[period];
  }

  /// Fraction of seed slots shared between two periods (how much the sets
  /// overlap; diagnostics for the ablation).
  double OverlapFraction(size_t period_a, size_t period_b) const;

 private:
  AdaptiveSeedPlan() = default;

  SlotClock clock_;
  std::vector<double> boundaries_h_;
  std::vector<std::vector<RoadId>> seeds_;
};

/// Sigma (deviation variability) per road computed over observations whose
/// hour of day lies in [begin_h, end_h) — wrapping across midnight when
/// begin_h > end_h. Exposed for tests and custom objectives.
std::vector<double> PeriodSigma(const HistoricalDb& db, double begin_h,
                                double end_h);

}  // namespace trendspeed

#endif  // TRENDSPEED_SEED_ADAPTIVE_H_
