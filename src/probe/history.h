// Historical speed database built from probe observations.
//
// Stores (a) a dense per-(road, slot) observed-mean matrix with missing
// entries, and (b) the aggregates the inference stack consumes: historical
// mean speed per (road, slot-of-day, weekend-bucket), per-road deviation
// variability, trend-up priors, and coverage statistics.
//
// "Trend" throughout the library: T = +1 when the speed is at or above the
// road's historical mean for that time bucket, -1 when below.
//
// Memory layout. The observation matrix obs_ is road-major (all slots of
// road 0, then road 1, ...) because training walks one road's whole
// history at a time. The bucket tables (bucket mean, count, up-count) are
// bucket-major instead: entry BucketOf(slot) * num_roads + road. Serving
// asks one slot's bucket for every road in turn (the BP trend prior in
// TrendModel::Infer, the historical mean in Step 2), and with this layout
// those lookups read each table front to back. The road-major layout put
// consecutive roads 2 * slots_per_day entries apart (1152 B in the 2-byte
// count tables and 2304 B in the float means at 288 slots per day), so
// every lookup touched a new cache line. The layout changes no stored
// value. Those loops also take the slot's BucketView once, so the bucket
// is derived once per slot, not once per road.

#ifndef TRENDSPEED_PROBE_HISTORY_H_
#define TRENDSPEED_PROBE_HISTORY_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "probe/gps.h"
#include "probe/map_matching.h"
#include "probe/trips.h"
#include "roadnet/road_network.h"
#include "traffic/simulator.h"
#include "util/logging.h"
#include "util/status.h"

namespace trendspeed {

/// Aggregated, query-optimized historical speed store. Default-constructed
/// instances are empty and only useful as assignment targets.
class HistoricalDb {
 public:
  HistoricalDb() = default;
  /// Accumulates raw speed records, then freezes into a HistoricalDb.
  class Builder {
   public:
    Builder(size_t num_roads, uint64_t num_slots, uint32_t slots_per_day);

    /// Adds one observation; multiple observations of the same (road, slot)
    /// are averaged. A cell's mean freezes after 65535 observations (further
    /// adds are ignored rather than biasing the mean).
    void Add(RoadId road, uint64_t slot, double speed_kmh);

    HistoricalDb Finish();

   private:
    size_t num_roads_;
    uint64_t num_slots_;
    uint32_t slots_per_day_;
    std::vector<float> sum_;
    std::vector<uint16_t> count_;
  };

  size_t num_roads() const { return num_roads_; }
  uint64_t num_slots() const { return num_slots_; }
  uint32_t slots_per_day() const { return clock_.slots_per_day; }
  const SlotClock& clock() const { return clock_; }

  /// True when (road, slot) has at least one observation.
  bool HasObservation(RoadId road, uint64_t slot) const {
    return !std::isnan(obs_[Idx(road, slot)]);
  }
  /// Mean observed speed at (road, slot). Precondition: HasObservation.
  double Observation(RoadId road, uint64_t slot) const {
    return obs_[Idx(road, slot)];
  }

  /// One slot's bucket (slot-of-day x weekday/weekend), resolved once.
  /// Serving asks the same slot for every road in turn; a loop that takes
  /// the view outside the road loop derives the bucket (a 64-bit division)
  /// once instead of per road. The per-road lookups below are wrappers
  /// over it. Cheap to copy; valid while the db is alive and unmodified.
  class BucketView {
   public:
    /// Bucket mean of `road`, falling back to the road's overall mean,
    /// then to `fallback`.
    double MeanOr(RoadId road, double fallback) const {
      // Require a few samples before trusting a bucket mean; a single noisy
      // probe record should not define "normal".
      if (count_[road] >= 3) return mean_[road];
      if (db_->road_count_[road] > 0) return db_->road_mean_[road];
      return fallback;
    }
    /// +1 when `speed` is at or above MeanOr(road, fallback), else -1.
    int TrendOf(RoadId road, double speed, double fallback) const {
      return speed >= MeanOr(road, fallback) ? +1 : -1;
    }
    /// Empirical P(T = +1) of `road` in this bucket, smoothed toward 0.5
    /// with `pseudo` (>= 0) pseudo-counts per side; an empty bucket with
    /// pseudo = 0 returns the uninformed prior 0.5.
    double TrendUp(RoadId road, double pseudo) const {
      TS_CHECK_GE(pseudo, 0.0);
      double denom = static_cast<double>(count_[road]) + 2.0 * pseudo;
      // Empty bucket and no smoothing: 0/0. The uninformed prior is 0.5.
      if (denom <= 0.0) return 0.5;
      return (static_cast<double>(up_[road]) + pseudo) / denom;
    }

   private:
    friend class HistoricalDb;
    BucketView(const HistoricalDb* db, size_t base)
        : db_(db),
          mean_(db->bucket_mean_.data() + base),
          count_(db->bucket_count_.data() + base),
          up_(db->bucket_up_.data() + base) {}

    const HistoricalDb* db_;
    const float* mean_;
    const uint16_t* count_;
    const uint16_t* up_;
  };

  /// The bucket of `slot`, for every road.
  BucketView Bucket(uint64_t slot) const {
    return BucketView(this, BucketOf(slot) * num_roads_);
  }

  /// Historical mean for the bucket of `slot`, falling back to the road's
  /// overall mean, then to `fallback`.
  double HistoricalMeanOr(RoadId road, uint64_t slot, double fallback) const {
    return Bucket(slot).MeanOr(road, fallback);
  }

  /// True when the road has any bucket- or road-level history.
  bool HasHistory(RoadId road) const { return road_count_[road] > 0; }

  /// Trend of `speed` at (road, slot): +1 at/above the historical mean,
  /// -1 below. Uses `fallback` as the mean when no history exists.
  int TrendOf(RoadId road, uint64_t slot, double speed,
              double fallback) const {
    return Bucket(slot).TrendOf(road, speed, fallback);
  }

  /// Relative deviation (speed / historical mean - 1); 0 when no history.
  double DeviationOf(RoadId road, uint64_t slot, double speed) const;

  /// Empirical P(T = +1) for the bucket of `slot`, smoothed toward 0.5 with
  /// `pseudo` pseudo-counts per side (buckets hold few samples; a weak prior
  /// must not overpower real-time evidence). `pseudo` must be >= 0; an empty
  /// bucket with pseudo = 0 returns the uninformed prior 0.5.
  double TrendUpProbability(RoadId road, uint64_t slot,
                            double pseudo = 3.0) const {
    return Bucket(slot).TrendUp(road, pseudo);
  }

  /// Standard deviation of the road's relative deviation across observed
  /// slots — the "variability" weight used by seed selection.
  double DeviationStddev(RoadId road) const { return dev_stddev_[road]; }

  /// Number of observed slots for the road.
  uint32_t CoverageCount(RoadId road) const { return road_count_[road]; }

  /// Fraction of (road, slot) cells observed.
  double CoverageFraction() const;

  /// Fraction of roads with zero observations.
  double UnobservedRoadFraction() const;

  /// Total observed (road, slot) cells.
  uint64_t TotalObservations() const { return total_obs_; }

 private:
  friend class Builder;

  size_t Idx(RoadId road, uint64_t slot) const {
    return static_cast<size_t>(road) * num_slots_ + slot;
  }
  /// Bucket id: slot_of_day for weekdays, slots_per_day + slot_of_day for
  /// weekends.
  size_t BucketOf(uint64_t slot) const {
    return (clock_.IsWeekend(slot) ? clock_.slots_per_day : 0u) +
           clock_.SlotOfDay(slot);
  }
  /// Bucket-major: one bucket's roads are contiguous (see file comment).
  size_t BucketIdx(RoadId road, uint64_t slot) const {
    return BucketOf(slot) * num_roads_ + road;
  }

  size_t num_roads_ = 0;
  uint64_t num_slots_ = 0;
  SlotClock clock_;
  std::vector<float> obs_;  // NaN = missing; road-major
  // Per (bucket, road), bucket-major: mean speed, observation count,
  // up-trend count.
  std::vector<float> bucket_mean_;
  std::vector<uint16_t> bucket_count_;
  std::vector<uint16_t> bucket_up_;
  // Per road: overall mean, observation count, deviation stddev.
  std::vector<float> road_mean_;
  std::vector<uint32_t> road_count_;
  std::vector<float> dev_stddev_;
  uint64_t total_obs_ = 0;
};

/// Configuration of the probe fleet used to populate a HistoricalDb.
struct ProbeFleetOptions {
  /// Trips launched per time slot.
  uint32_t trips_per_slot = 20;
  TripGeneratorOptions trips;
  GpsOptions gps;
  MatchOptions match;
  /// Use the HMM (Viterbi) matcher instead of the greedy heading-aware one.
  /// More accurate under heavy GPS noise, ~1 order of magnitude slower.
  bool use_hmm_matching = false;
  uint64_t seed = 1234;
};

/// Drives the fleet over every slot of `field`, map-matches the traces, and
/// aggregates the extracted speeds. This is the full data-wrangling path the
/// paper performs on raw taxi GPS (noisy fixes -> matched roads -> per-road
/// speed records -> aggregated history).
Result<HistoricalDb> CollectProbeHistory(const RoadNetwork& net,
                                         const SpeedField& field,
                                         const ProbeFleetOptions& opts);

/// Shortcut used by large-scale benchmarks: builds the history directly from
/// ground truth with per-cell subsampling and observation noise, skipping the
/// GPS/map-matching layer (identical statistical shape, much faster).
Result<HistoricalDb> CollectIdealizedHistory(const RoadNetwork& net,
                                             const SpeedField& field,
                                             double coverage_prob,
                                             double noise_kmh, uint64_t seed);

}  // namespace trendspeed

#endif  // TRENDSPEED_PROBE_HISTORY_H_
