// Per-segment time-of-day speed profiles, folded incrementally from the
// served snapshot stream.
//
// "Street-level Travel-time Estimation via Aggregated Uber Data" (PAPERS.md)
// motivates the product shape: for each (road, time-of-day bucket) keep a
// cheap (count, mean) cell that any number of published snapshots fold into.
// Fold() is O(num_roads) per snapshot, one running-mean update per road, no
// history kept.
//
// Only *fresh* snapshots fold: a carried-forward field re-states the last
// estimate, and folding it again would weight stale slots as if they were
// independent evidence. Duplicate publishes are skipped by version.
//
// The HTTE-style payoff (PAPERS.md) is BlendQuery: when the latest snapshot
// is stale, blend it toward the profile mean for that time bucket — the
// staler the snapshot, the more the historical profile dominates — instead
// of serving an ever-aging carry-forward at full confidence. The returned
// provenance says exactly which regime priced the speed.

#ifndef TRENDSPEED_PRODUCT_PROFILE_H_
#define TRENDSPEED_PRODUCT_PROFILE_H_

#include <cstdint>
#include <vector>

#include "core/serving.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "roadnet/road_network.h"
#include "util/status.h"

namespace trendspeed {

/// Where a product-served speed came from. Ordered by decreasing trust.
enum class SpeedProvenance : uint8_t {
  kFresh = 0,           ///< latest snapshot, estimated this slot
  kCarriedForward = 1,  ///< stale snapshot served as-is (no profile data)
  kProfileBlend = 2,    ///< stale snapshot blended toward the profile mean
};

const char* SpeedProvenanceName(SpeedProvenance p);

class SpeedProfileStore {
 public:
  /// One (road, bucket) cell: running mean over the fresh snapshots folded.
  struct Cell {
    uint64_t count = 0;
    double mean_kmh = 0.0;
  };

  /// A blended per-road answer plus its provenance.
  struct BlendedSpeed {
    double speed_kmh = 0.0;
    SpeedProvenance provenance = SpeedProvenance::kFresh;
  };

  /// `slots_per_day` is the serving slot grid (e.g. 144 for 10-minute
  /// slots); `opts` supplies buckets_per_day / min_samples / blend ramp.
  /// Fails on zero roads/slots or invalid options.
  static Result<SpeedProfileStore> Create(size_t num_roads,
                                          uint32_t slots_per_day,
                                          const ProductOptions& opts);

  /// Registers the trendspeed_product_profile_* series. Null detaches (the
  /// default).
  void AttachMetrics(obs::MetricsRegistry* registry);

  /// Folds one published snapshot into the profile. Returns true when the
  /// snapshot was folded; false when it was skipped — already folded
  /// (version not newer than the last fold), stale (counted, never folded),
  /// or shaped for a different network (size mismatch).
  bool Fold(const SpeedSnapshot& snap);

  /// Blended speed for one road against the given snapshot (normally the
  /// latest read). Fresh snapshot: the snapshot speed, kFresh. Stale
  /// snapshot with a mature profile cell (count >= profile_min_samples):
  /// (1-w) * snapshot + w * profile mean with
  /// w = min(1, stale_slots / blend_full_stale_slots), kProfileBlend.
  /// Stale without a mature cell: the snapshot speed, kCarriedForward.
  BlendedSpeed BlendQuery(const SpeedSnapshot& snap, RoadId road) const;

  /// Whole-field variant: fills `speeds` (resized to num_roads) with the
  /// per-road blended speeds and returns the weakest provenance used —
  /// kFresh only when the snapshot was fresh, kProfileBlend when any road
  /// blended, else kCarriedForward. `blended_roads` (optional) receives the
  /// number of roads the profile actually adjusted.
  SpeedProvenance BlendSnapshot(const SpeedSnapshot& snap,
                                std::vector<double>* speeds,
                                size_t* blended_roads = nullptr) const;

  uint32_t BucketOf(uint64_t slot) const {
    return static_cast<uint32_t>(
        (slot % slots_per_day_) * buckets_per_day_ / slots_per_day_);
  }

  const Cell& cell(RoadId road, uint32_t bucket) const {
    return cells_[static_cast<size_t>(road) * buckets_per_day_ + bucket];
  }

  size_t num_roads() const { return num_roads_; }
  uint32_t slots_per_day() const { return slots_per_day_; }
  uint32_t buckets_per_day() const { return buckets_per_day_; }
  /// Snapshot version of the last Fold() attempt that advanced the store
  /// (folded or stale-skipped); 0 before any.
  uint64_t last_version() const { return last_version_; }
  uint64_t folds() const { return folds_; }
  uint64_t stale_skips() const { return stale_skips_; }

 private:
  SpeedProfileStore(size_t num_roads, uint32_t slots_per_day,
                    const ProductOptions& opts);

  size_t num_roads_ = 0;
  uint32_t slots_per_day_ = 0;
  uint32_t buckets_per_day_ = 0;
  uint64_t min_samples_ = 0;
  uint32_t blend_full_stale_slots_ = 0;
  uint64_t last_version_ = 0;
  uint64_t folds_ = 0;
  uint64_t stale_skips_ = 0;
  std::vector<Cell> cells_;  ///< road-major: [road * buckets + bucket]

  obs::Counter* m_folds_ = nullptr;
  obs::Counter* m_stale_skips_ = nullptr;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_PRODUCT_PROFILE_H_
