#include "seed/lazy_greedy.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "obs/catalog.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

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
    // with it the selected set — is identical however entries were pushed,
    // serially or from a parallel batch.
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

  size_t batch = opts.batch > 0
                     ? opts.batch
                     : static_cast<size_t>(EffectiveThreads(opts.num_threads));
  std::vector<QEntry> stale;
  stale.reserve(batch);
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
    // Speculatively refresh up to `batch` stale entries from the top of the
    // heap in one parallel region. Every refreshed gain is exact for the
    // current state, so pushing them back with this round's stamp preserves
    // the CELF invariant (an entry commits only when its gain is fresh) and
    // hence the exact greedy seed set; with batch == 1 the evaluation
    // schedule is byte-for-byte the serial one.
    stale.clear();
    stale.push_back(top);
    while (stale.size() < batch && !pq.empty() && pq.top().round != round) {
      stale.push_back(pq.top());
      pq.pop();
    }
    if (stale.size() > 1) {
      // Each entry is one O(|cover|) evaluation, heavy enough to hand off
      // even in a batch this small (the free ParallelFor would inline it).
      ThreadPool::Global().ParallelForChunked(
          stale.size(), EffectiveThreads(opts.num_threads),
          [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              stale[i].gain = state.GainOf(stale[i].road);
              stale[i].round = round;
            }
          });
    } else {
      stale[0].gain = state.GainOf(stale[0].road);
      stale[0].round = round;
    }
    result.gain_evaluations += stale.size();
    obs::Add(m_repops, stale.size());
    for (const QEntry& e : stale) pq.push(e);
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
