#include "probe/history.h"

#include <cmath>

#include "probe/hmm_matching.h"
#include "util/logging.h"
#include "util/stats.h"

namespace trendspeed {

namespace {
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
}  // namespace

HistoricalDb::Builder::Builder(size_t num_roads, uint64_t num_slots,
                               uint32_t slots_per_day)
    : num_roads_(num_roads),
      num_slots_(num_slots),
      slots_per_day_(slots_per_day),
      sum_(num_roads * num_slots, 0.0f),
      count_(num_roads * num_slots, 0) {
  TS_CHECK_GT(num_roads, 0u);
  TS_CHECK_GT(num_slots, 0u);
  TS_CHECK_GT(slots_per_day, 0u);
}

void HistoricalDb::Builder::Add(RoadId road, uint64_t slot, double speed_kmh) {
  TS_CHECK_LT(road, num_roads_);
  TS_CHECK_LT(slot, num_slots_);
  TS_CHECK_GT(speed_kmh, 0.0);
  size_t idx = static_cast<size_t>(road) * num_slots_ + slot;
  // Once the counter saturates the cell mean freezes: accumulating into
  // sum_ without advancing count_ would inflate the mean of heavily
  // observed cells.
  if (count_[idx] == UINT16_MAX) return;
  sum_[idx] += static_cast<float>(speed_kmh);
  ++count_[idx];
}

HistoricalDb HistoricalDb::Builder::Finish() {
  HistoricalDb db;
  db.num_roads_ = num_roads_;
  db.num_slots_ = num_slots_;
  db.clock_ = SlotClock{slots_per_day_};
  db.obs_.assign(num_roads_ * num_slots_, kNan);
  size_t num_buckets = num_roads_ * 2 * slots_per_day_;
  db.bucket_mean_.assign(num_buckets, 0.0f);
  db.bucket_count_.assign(num_buckets, 0);
  db.bucket_up_.assign(num_buckets, 0);
  db.road_mean_.assign(num_roads_, 0.0f);
  db.road_count_.assign(num_roads_, 0);
  db.dev_stddev_.assign(num_roads_, 0.0f);

  // Pass 1: cell means, bucket sums, road sums.
  std::vector<double> bucket_sum(num_buckets, 0.0);
  std::vector<double> road_sum(num_roads_, 0.0);
  for (RoadId road = 0; road < num_roads_; ++road) {
    for (uint64_t slot = 0; slot < num_slots_; ++slot) {
      size_t idx = static_cast<size_t>(road) * num_slots_ + slot;
      if (count_[idx] == 0) continue;
      float mean = sum_[idx] / static_cast<float>(count_[idx]);
      db.obs_[idx] = mean;
      size_t b = db.BucketIdx(road, slot);
      bucket_sum[b] += mean;
      if (db.bucket_count_[b] < UINT16_MAX) ++db.bucket_count_[b];
      road_sum[road] += mean;
      ++db.road_count_[road];
      ++db.total_obs_;
    }
  }
  for (size_t b = 0; b < num_buckets; ++b) {
    if (db.bucket_count_[b] > 0) {
      db.bucket_mean_[b] =
          static_cast<float>(bucket_sum[b] / db.bucket_count_[b]);
    }
  }
  for (RoadId road = 0; road < num_roads_; ++road) {
    if (db.road_count_[road] > 0) {
      db.road_mean_[road] =
          static_cast<float>(road_sum[road] / db.road_count_[road]);
    }
  }
  // Pass 2: trend-up counts and deviation variability (need means first).
  for (RoadId road = 0; road < num_roads_; ++road) {
    OnlineStats dev;
    for (uint64_t slot = 0; slot < num_slots_; ++slot) {
      size_t idx = static_cast<size_t>(road) * num_slots_ + slot;
      if (std::isnan(db.obs_[idx])) continue;
      double mean = db.HistoricalMeanOr(road, slot, db.obs_[idx]);
      if (db.obs_[idx] >= mean) {
        size_t b = db.BucketIdx(road, slot);
        if (db.bucket_up_[b] < UINT16_MAX) ++db.bucket_up_[b];
      }
      if (mean > 0.0) dev.Add(db.obs_[idx] / mean - 1.0);
    }
    db.dev_stddev_[road] = static_cast<float>(dev.stddev());
  }
  // Release builder storage.
  sum_.clear();
  sum_.shrink_to_fit();
  count_.clear();
  count_.shrink_to_fit();
  return db;
}

double HistoricalDb::DeviationOf(RoadId road, uint64_t slot,
                                 double speed) const {
  double mean = HistoricalMeanOr(road, slot, 0.0);
  if (mean <= 0.0) return 0.0;
  return speed / mean - 1.0;
}

double HistoricalDb::CoverageFraction() const {
  return static_cast<double>(total_obs_) /
         (static_cast<double>(num_roads_) * static_cast<double>(num_slots_));
}

double HistoricalDb::UnobservedRoadFraction() const {
  size_t zero = 0;
  for (uint32_t c : road_count_) {
    if (c == 0) ++zero;
  }
  return static_cast<double>(zero) / static_cast<double>(num_roads_);
}

Result<HistoricalDb> CollectProbeHistory(const RoadNetwork& net,
                                         const SpeedField& field,
                                         const ProbeFleetOptions& opts) {
  if (field.num_roads() != net.num_roads()) {
    return Status::InvalidArgument("speed field / network road mismatch");
  }
  if (field.num_slots() == 0) {
    return Status::InvalidArgument("empty speed field");
  }
  HistoricalDb::Builder builder(net.num_roads(), field.num_slots(),
                                field.slots_per_day);
  TripGenerator trips(&net, opts.trips);
  SegmentIndex index(&net);
  Rng rng(opts.seed);
  double slot_seconds = 86400.0 / field.slots_per_day;
  uint32_t vehicle = 0;
  for (uint64_t slot = 0; slot < field.num_slots(); ++slot) {
    const std::vector<double>& speeds = field.speeds[slot];
    for (uint32_t t = 0; t < opts.trips_per_slot; ++t) {
      auto plan = trips.Next();
      if (!plan.ok()) continue;  // disconnected pocket; skip this trip
      GpsTrace trace = DriveTrip(net, *plan, speeds, opts.gps, slot_seconds,
                                 vehicle++, &rng);
      if (trace.points.size() < 2) continue;
      std::vector<RoadId> matched =
          opts.use_hmm_matching
              ? MatchTraceHmm(index, trace.points)
              : MatchTrace(index, trace.points, opts.match);
      for (const SpeedObservation& obs :
           ExtractSpeeds(trace.points, matched)) {
        builder.Add(obs.road, slot, obs.speed_kmh);
      }
    }
  }
  return builder.Finish();
}

Result<HistoricalDb> CollectIdealizedHistory(const RoadNetwork& net,
                                             const SpeedField& field,
                                             double coverage_prob,
                                             double noise_kmh, uint64_t seed) {
  if (field.num_roads() != net.num_roads()) {
    return Status::InvalidArgument("speed field / network road mismatch");
  }
  if (coverage_prob <= 0.0 || coverage_prob > 1.0) {
    return Status::InvalidArgument("coverage_prob must be in (0, 1]");
  }
  HistoricalDb::Builder builder(net.num_roads(), field.num_slots(),
                                field.slots_per_day);
  Rng rng(seed);
  // Skewed per-road coverage: popular roads get ~3x the average, a tail of
  // roads is almost never observed (mirrors taxi coverage skew).
  std::vector<double> road_cov(net.num_roads());
  for (RoadId r = 0; r < net.num_roads(); ++r) {
    double skew = rng.NextExponential(1.0);
    road_cov[r] = std::min(1.0, coverage_prob * skew);
  }
  for (uint64_t slot = 0; slot < field.num_slots(); ++slot) {
    for (RoadId r = 0; r < net.num_roads(); ++r) {
      if (!rng.NextBool(road_cov[r])) continue;
      double v = field.at(slot, r) + rng.Gaussian(0.0, noise_kmh);
      if (v > 0.5) builder.Add(r, slot, v);
    }
  }
  return builder.Finish();
}

}  // namespace trendspeed
