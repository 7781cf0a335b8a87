#include "seed/lazy_greedy.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "obs/catalog.h"
#include "util/parallel.h"

namespace trendspeed {

Result<SeedSelectionResult> SelectSeedsLazyGreedy(
    const InfluenceModel& model, size_t k, const SeedSelectionOptions& opts) {
  size_t n = model.num_roads();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must be in [1, num_roads]");
  }
  SeedSelectionResult result;
  ObjectiveState state(&model);

  obs::Counter* m_rounds = obs::GetCounter(opts.metrics, obs::kSeedRoundsTotal);
  obs::Counter* m_repops =
      obs::GetCounter(opts.metrics, obs::kSeedLazyRepopsTotal);
  obs::Histogram* m_gain =
      obs::GetHistogram(opts.metrics, obs::kSeedMarginalGain);
  obs::Add(obs::GetCounter(opts.metrics, obs::kSeedRunsLazyGreedy));

  struct QEntry {
    double gain;
    RoadId road;
    uint32_t round;  // round the gain was computed in
    // Total order (lower road wins gain ties) so the pop sequence — and
    // with it the selected set — does not depend on push order.
    bool operator<(const QEntry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return road > other.road;
    }
  };
  std::priority_queue<QEntry> pq;
  // Initial gains are computed against the empty set, which is exactly the
  // state of round 1, so they enter the queue fresh. This scan is the
  // single biggest evaluation block in CELF; batch it across the pool.
  {
    std::vector<double> init_gain(n);
    ParallelFor(
        n,
        [&](size_t begin, size_t end) {
          for (RoadId j = static_cast<RoadId>(begin); j < end; ++j) {
            init_gain[j] = state.GainOf(j);
          }
        },
        opts.num_threads);
    for (RoadId j = 0; j < n; ++j) {
      pq.push(QEntry{init_gain[j], j, 1});
      ++result.gain_evaluations;
    }
  }

  // The CELF loop itself is serial: each pop re-evaluates one stale entry,
  // so the evaluation schedule (and gain_evaluations) is the same at every
  // thread count. A region per handful of O(|cover|) refreshes costs more
  // in pool handoff than it saves (docs/performance.md).
  for (uint32_t round = 1; round <= k && !pq.empty();) {
    QEntry top = pq.top();
    pq.pop();
    if (top.round == round) {
      // Fresh for this round: submodularity guarantees no other candidate
      // can beat it, so commit.
      state.Add(top.road);
      obs::Add(m_rounds);
      obs::Observe(m_gain, top.gain);
      ++round;
      continue;
    }
    // Stale: refresh against the current state and push back with this
    // round's stamp. The refreshed gain is exact, so an entry still commits
    // only when its gain is fresh, which yields the exact greedy seed set.
    top.gain = state.GainOf(top.road);
    top.round = round;
    ++result.gain_evaluations;
    obs::Add(m_repops);
    pq.push(top);
  }
  result.seeds = state.seeds();
  result.objective = state.value();
  obs::Add(obs::GetCounter(opts.metrics, obs::kSeedGainEvalsLazyGreedy),
           result.gain_evaluations);
  return result;
}

Result<SeedSelectionResult> SelectSeedsLazyGreedy(const InfluenceModel& model,
                                                  size_t k) {
  return SelectSeedsLazyGreedy(model, k, SeedSelectionOptions{});
}

}  // namespace trendspeed
