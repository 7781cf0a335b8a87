#include "product/products.h"

#include <utility>

#include "obs/catalog.h"
#include "obs/clock.h"

namespace trendspeed {

namespace {

/// Start of a timed read. The clock is read only when the latency histogram
/// is attached, so a detached read touches no clock at all.
uint64_t ReadStart(const obs::Histogram* latency) {
  return latency != nullptr ? obs::MonotonicNanos() : 0;
}

void ObserveRead(obs::Histogram* latency, uint64_t start_ns) {
  if (latency == nullptr) return;
  obs::Observe(latency,
               static_cast<double>(obs::ElapsedNanosSince(start_ns)) * 1e-3);
}

}  // namespace

CityProducts::CityProducts(const RoadNetwork& net,
                           const SpeedSnapshotPublisher* publisher,
                           std::unique_ptr<SpeedProfileStore> profile,
                           std::unique_ptr<RouteEtaCache> eta_cache)
    : net_(&net),
      publisher_(publisher),
      profile_(std::move(profile)),
      eta_cache_(std::move(eta_cache)) {}

Result<CityProducts> CityProducts::Create(
    const RoadNetwork& net, const SpeedSnapshotPublisher* publisher,
    uint32_t slots_per_day, const ProductOptions& opts) {
  if (publisher == nullptr) {
    return Status::InvalidArgument(
        "products need a snapshot publisher to read from (enable "
        "ServingOptions::publish_snapshots)");
  }
  if (!opts.enabled) {
    return Status::InvalidArgument("ProductOptions::enabled is false");
  }
  TS_RETURN_NOT_OK(opts.Validate());
  TS_ASSIGN_OR_RETURN(
      SpeedProfileStore profile,
      SpeedProfileStore::Create(net.num_roads(), slots_per_day, opts));
  auto profile_ptr = std::make_unique<SpeedProfileStore>(std::move(profile));
  TS_ASSIGN_OR_RETURN(RouteEtaCache cache,
                      RouteEtaCache::Create(net, opts, profile_ptr.get()));
  auto cache_ptr = std::make_unique<RouteEtaCache>(std::move(cache));
  return CityProducts(net, publisher, std::move(profile_ptr),
                      std::move(cache_ptr));
}

Result<CityProducts> CityProducts::ForSession(const RoadNetwork& net,
                                              const ServingSession& session,
                                              uint32_t slots_per_day) {
  const ProductOptions& opts = session.options().products;
  if (!opts.enabled) {
    return Status::FailedPrecondition(
        "session was created with products disabled");
  }
  return Create(net, session.snapshot_publisher(), slots_per_day, opts);
}

void CityProducts::AttachMetrics(obs::MetricsRegistry* registry) {
  profile_->AttachMetrics(registry);
  eta_cache_->AttachMetrics(registry);
  m_read_latency_ = obs::GetHistogram(registry, obs::kProductReadLatencyUs);
}

const SpeedSnapshot& CityProducts::last_snapshot() const {
  static const SpeedSnapshot kNoSnapshot;
  return snap_ != nullptr ? *snap_ : kNoSnapshot;
}

bool CityProducts::ReadLatest() {
  snap_ = publisher_->Latest();
  return snap_ != nullptr;
}

bool CityProducts::Poll() {
  if (!ReadLatest()) return false;
  profile_->Fold(*snap_);
  return true;
}

Result<RouteEtaCache::EtaResult> CityProducts::Eta(NodeId from, NodeId to) {
  const uint64_t start_ns = ReadStart(m_read_latency_);
  if (!ReadLatest()) {
    return Status::FailedPrecondition(
        "no snapshot published yet; nothing to route on");
  }
  // Keep the profile current before pricing: an Eta between Polls must not
  // blend against an older fold state than the field it prices.
  profile_->Fold(*snap_);
  TS_ASSIGN_OR_RETURN(RouteEtaCache::EtaResult result,
                      eta_cache_->Eta(*snap_, from, to));
  ObserveRead(m_read_latency_, start_ns);
  return result;
}

Result<SpeedProfileStore::BlendedSpeed> CityProducts::RoadSpeed(RoadId road) {
  const uint64_t start_ns = ReadStart(m_read_latency_);
  if (!ReadLatest()) {
    return Status::FailedPrecondition(
        "no snapshot published yet; nothing to serve");
  }
  if (road >= net_->num_roads()) {
    return Status::InvalidArgument("road outside the network");
  }
  profile_->Fold(*snap_);
  SpeedProfileStore::BlendedSpeed speed = profile_->BlendQuery(*snap_, road);
  ObserveRead(m_read_latency_, start_ns);
  return speed;
}

}  // namespace trendspeed
