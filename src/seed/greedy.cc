#include "seed/greedy.h"

#include <algorithm>
#include <vector>

#include "obs/catalog.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace trendspeed {

namespace {

/// Candidate pools smaller than this are scanned serially: gain evaluation
/// is O(|cover|), so tiny rounds don't amortize the pool handoff.
constexpr size_t kMinParallelCandidates = 2048;

}  // namespace

Result<SeedSelectionResult> SelectSeedsGreedy(const InfluenceModel& model,
                                              size_t k,
                                              const SeedSelectionOptions& opts) {
  size_t n = model.num_roads();
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must be in [1, num_roads]");
  }
  SeedSelectionResult result;
  ObjectiveState state(&model);
  std::vector<bool> selected(n, false);

  obs::Counter* m_rounds = obs::GetCounter(opts.metrics, obs::kSeedRoundsTotal);
  obs::Histogram* m_gain =
      obs::GetHistogram(opts.metrics, obs::kSeedMarginalGain);
  obs::Add(obs::GetCounter(opts.metrics, obs::kSeedRunsGreedy));

  size_t threads = std::min<size_t>(EffectiveThreads(opts.num_threads), n);
  bool parallel = threads > 1 && n >= kMinParallelCandidates;
  // Per-chunk argmax slots; chunks are reduced in index order below, so the
  // tie-break (strictly-greater, lowest road wins) matches the serial scan.
  std::vector<double> chunk_gain(parallel ? threads : 0);
  std::vector<RoadId> chunk_best(parallel ? threads : 0);

  for (size_t round = 0; round < k; ++round) {
    double best_gain = -1.0;
    RoadId best = kInvalidRoad;
    if (!parallel) {
      for (RoadId j = 0; j < n; ++j) {
        if (selected[j]) continue;
        double gain = state.GainOf(j);
        ++result.gain_evaluations;
        if (gain > best_gain) {
          best_gain = gain;
          best = j;
        }
      }
    } else {
      // ParallelForChunked may merge trailing chunks (ceil division), so
      // reset every slot; unwritten ones must lose the reduction.
      std::fill(chunk_gain.begin(), chunk_gain.end(), -1.0);
      std::fill(chunk_best.begin(), chunk_best.end(), kInvalidRoad);
      ThreadPool::Global().ParallelForChunked(
          n, threads, [&](size_t chunk, size_t begin, size_t end) {
            double local_gain = -1.0;
            RoadId local_best = kInvalidRoad;
            for (RoadId j = static_cast<RoadId>(begin); j < end; ++j) {
              if (selected[j]) continue;
              double gain = state.GainOf(j);
              if (gain > local_gain) {
                local_gain = gain;
                local_best = j;
              }
            }
            chunk_gain[chunk] = local_gain;
            chunk_best[chunk] = local_best;
          });
      result.gain_evaluations += n - round;
      for (size_t c = 0; c < chunk_gain.size(); ++c) {
        if (chunk_best[c] != kInvalidRoad && chunk_gain[c] > best_gain) {
          best_gain = chunk_gain[c];
          best = chunk_best[c];
        }
      }
    }
    if (best == kInvalidRoad) break;
    state.Add(best);
    selected[best] = true;
    obs::Add(m_rounds);
    obs::Observe(m_gain, best_gain);
  }
  result.seeds = state.seeds();
  result.objective = state.value();
  obs::Add(obs::GetCounter(opts.metrics, obs::kSeedGainEvalsGreedy),
           result.gain_evaluations);
  return result;
}

Result<SeedSelectionResult> SelectSeedsGreedy(const InfluenceModel& model,
                                              size_t k) {
  return SelectSeedsGreedy(model, k, SeedSelectionOptions{});
}

}  // namespace trendspeed
