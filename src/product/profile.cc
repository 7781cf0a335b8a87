#include "product/profile.h"

#include <algorithm>

#include "obs/catalog.h"

namespace trendspeed {

const char* SpeedProvenanceName(SpeedProvenance p) {
  switch (p) {
    case SpeedProvenance::kFresh:
      return "fresh";
    case SpeedProvenance::kCarriedForward:
      return "carried_forward";
    case SpeedProvenance::kProfileBlend:
      return "profile_blend";
  }
  return "unknown";
}

SpeedProfileStore::SpeedProfileStore(size_t num_roads, uint32_t slots_per_day,
                                     const ProductOptions& opts)
    : num_roads_(num_roads),
      slots_per_day_(slots_per_day),
      buckets_per_day_(opts.profile_buckets_per_day),
      min_samples_(opts.profile_min_samples),
      blend_full_stale_slots_(opts.blend_full_stale_slots),
      cells_(num_roads * opts.profile_buckets_per_day) {}

Result<SpeedProfileStore> SpeedProfileStore::Create(
    size_t num_roads, uint32_t slots_per_day, const ProductOptions& opts) {
  if (num_roads == 0) {
    return Status::InvalidArgument("profile store needs at least one road");
  }
  if (slots_per_day == 0) {
    return Status::InvalidArgument("slots_per_day must be positive");
  }
  ProductOptions checked = opts;
  checked.enabled = true;  // validate the knobs even for a standalone store
  TS_RETURN_NOT_OK(checked.Validate());
  if (opts.profile_buckets_per_day > slots_per_day) {
    return Status::InvalidArgument(
        "profile_buckets_per_day (" +
        std::to_string(opts.profile_buckets_per_day) +
        ") exceeds slots_per_day (" + std::to_string(slots_per_day) +
        "); a bucket finer than the slot grid can never fill");
  }
  return SpeedProfileStore(num_roads, slots_per_day, opts);
}

void SpeedProfileStore::AttachMetrics(obs::MetricsRegistry* registry) {
  m_folds_ = obs::GetCounter(registry, obs::kProductProfileFoldsTotal);
  m_stale_skips_ =
      obs::GetCounter(registry, obs::kProductProfileStaleSkipsTotal);
}

bool SpeedProfileStore::Fold(const SpeedSnapshot& snap) {
  if (snap.version == 0 || snap.version <= last_version_) {
    return false;  // nothing published, or this publish was already folded
  }
  if (snap.speed_kmh.size() != num_roads_) {
    return false;  // a snapshot for some other network; never mix fields
  }
  last_version_ = snap.version;
  if (snap.stale) {
    ++stale_skips_;
    obs::Add(m_stale_skips_);
    return false;
  }
  const uint32_t bucket = BucketOf(snap.slot);
  for (size_t road = 0; road < num_roads_; ++road) {
    Cell& c = cells_[road * buckets_per_day_ + bucket];
    ++c.count;
    c.mean_kmh += (snap.speed_kmh[road] - c.mean_kmh) /
                  static_cast<double>(c.count);
  }
  ++folds_;
  obs::Add(m_folds_);
  return true;
}

SpeedProfileStore::BlendedSpeed SpeedProfileStore::BlendQuery(
    const SpeedSnapshot& snap, RoadId road) const {
  BlendedSpeed out;
  const double snap_speed =
      road < snap.speed_kmh.size() ? snap.speed_kmh[road] : 0.0;
  out.speed_kmh = snap_speed;
  if (!snap.stale) {
    out.provenance = SpeedProvenance::kFresh;
    return out;
  }
  const Cell& c = cell(road, BucketOf(snap.slot));
  if (c.count < min_samples_) {
    out.provenance = SpeedProvenance::kCarriedForward;
    return out;
  }
  const double w =
      std::min(1.0, static_cast<double>(snap.stale_slots) /
                        static_cast<double>(blend_full_stale_slots_));
  out.speed_kmh = (1.0 - w) * snap_speed + w * c.mean_kmh;
  out.provenance = SpeedProvenance::kProfileBlend;
  return out;
}

SpeedProvenance SpeedProfileStore::BlendSnapshot(const SpeedSnapshot& snap,
                                                 std::vector<double>* speeds,
                                                 size_t* blended_roads) const {
  speeds->resize(num_roads_);
  size_t blended = 0;
  SpeedProvenance weakest = SpeedProvenance::kFresh;
  for (size_t road = 0; road < num_roads_; ++road) {
    BlendedSpeed b = BlendQuery(snap, static_cast<RoadId>(road));
    (*speeds)[road] = b.speed_kmh;
    if (b.provenance == SpeedProvenance::kProfileBlend) {
      ++blended;
      weakest = SpeedProvenance::kProfileBlend;
    } else if (b.provenance == SpeedProvenance::kCarriedForward &&
               weakest == SpeedProvenance::kFresh) {
      weakest = SpeedProvenance::kCarriedForward;
    }
  }
  if (blended_roads != nullptr) *blended_roads = blended;
  return weakest;
}

}  // namespace trendspeed
