#include "product/route_eta.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/catalog.h"
#include "util/logging.h"

namespace trendspeed {

namespace {

constexpr size_t kLandmarks = 4;
/// Scales the landmark bound below the true remaining seconds.
constexpr double kBoundMargin = 1.0 - 1e-9;
/// The A* answer stands only when the smallest road cost exceeds this share
/// of the travel time (route_eta.h, tie rule).
constexpr double kMinRoadShare = 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The first node of largest `seconds`.
NodeId ArgMax(const std::vector<double>& seconds) {
  return static_cast<NodeId>(
      std::max_element(seconds.begin(), seconds.end()) - seconds.begin());
}

}  // namespace

RouteEtaCache::RouteEtaCache(const RoadNetwork& net,
                             const ProductOptions& opts,
                             const SpeedProfileStore* profile)
    : net_(&net),
      profile_(profile),
      capacity_(opts.eta_cache_capacity),
      num_nodes_(net.num_nodes()) {
  entries_.reserve(capacity_);
  BuildLandmarks();
}

void RouteEtaCache::BuildLandmarks() {
  const size_t n = num_nodes_;
  auto cost = [this](RoadId r) { return net_->FreeFlowSeconds(r); };
  // Free-flow seconds from (kForward) or to (kReverse) `source`, written to
  // out[u * stride]; +inf, which the landmark bound and the slack read as
  // "no path", where the search did not reach (so did not settle) u.
  auto fill = [&](NodeId source, SearchDirection direction, double* out,
                  size_t stride) {
    SearchNodes(*net_, source, cost, direction, kInvalidNode, &search_);
    for (NodeId u = 0; u < n; ++u) {
      out[u * stride] = search_.settled(u) ? search_.seconds(u) : kInf;
    }
  };
  // Farthest-first: each landmark is the node farthest (free-flow seconds)
  // from its nearest landmark so far; the farthest node from node 0 starts.
  // A network with fewer nodes than landmarks leaves +inf columns, whose
  // bound terms (inf − inf) are ignored.
  std::vector<double> nearest(n);
  fill(0, SearchDirection::kForward, nearest.data(), 1);
  NodeId next = ArgMax(nearest);
  nearest.assign(n, kInf);
  from_landmark_.assign(n * kLandmarks, kInf);
  to_landmark_.assign(n * kLandmarks, kInf);
  double max_seconds = 0.0;
  for (size_t l = 0; l < kLandmarks; ++l) {
    fill(next, SearchDirection::kForward, &from_landmark_[l], kLandmarks);
    fill(next, SearchDirection::kReverse, &to_landmark_[l], kLandmarks);
    for (size_t u = 0; u < n; ++u) {
      const size_t i = u * kLandmarks + l;
      nearest[u] = std::min(nearest[u], from_landmark_[i]);
      for (double d : {from_landmark_[i], to_landmark_[i]}) {
        if (d < kInf) max_seconds = std::max(max_seconds, d);
      }
    }
    next = ArgMax(nearest);
    if (!(nearest[next] > 0.0)) break;  // every node is a landmark
  }
  // A stored distance sums at most n − 1 rounded road costs, so it is
  // within (n + 1) · 2^-53 of its real value relative to max_seconds; a
  // bound subtracts two and rounds once more.
  landmark_slack_ = static_cast<double>(n + 2) * 0x1p-52 * max_seconds;
}

Result<RouteEtaCache> RouteEtaCache::Create(const RoadNetwork& net,
                                            const ProductOptions& opts,
                                            const SpeedProfileStore* profile) {
  if (net.num_nodes() == 0) {
    return Status::InvalidArgument("ETA cache needs a non-empty network");
  }
  if (opts.eta_cache_capacity == 0) {
    return Status::InvalidArgument("eta_cache_capacity must be positive");
  }
  if (profile != nullptr && profile->num_roads() != net.num_roads()) {
    return Status::InvalidArgument(
        "profile store covers " + std::to_string(profile->num_roads()) +
        " roads but the network has " + std::to_string(net.num_roads()));
  }
  return RouteEtaCache(net, opts, profile);
}

void RouteEtaCache::AttachMetrics(obs::MetricsRegistry* registry) {
  m_hits_ = obs::GetCounter(registry, obs::kProductEtaCacheHitsTotal);
  m_misses_ = obs::GetCounter(registry, obs::kProductEtaCacheMissesTotal);
  m_invalidations_ =
      obs::GetCounter(registry, obs::kProductEtaCacheInvalidationsTotal);
  m_blends_ = obs::GetCounter(registry, obs::kProductBlendActivationsTotal);
}

void RouteEtaCache::SyncToSnapshot(const SpeedSnapshot& snap) {
  // stale_slots participates in the identity: a carry-forward re-publish
  // bumps the version, but even under the same version a field whose blend
  // weight changed must be re-priced.
  if (snap.version == synced_version_ &&
      snap.stale_slots == synced_stale_slots_) {
    return;
  }
  const size_t dropped = entries_.size();
  entries_.clear();
  stats_.invalidations += dropped;
  obs::Add(m_invalidations_, dropped);

  const std::vector<double>* speeds = &snap.speed_kmh;
  if (!snap.stale || profile_ == nullptr) {
    field_provenance_ = snap.stale ? SpeedProvenance::kCarriedForward
                                   : SpeedProvenance::kFresh;
  } else {
    size_t blended = 0;
    field_provenance_ = profile_->BlendSnapshot(snap, &pricing_speeds_,
                                                &blended);
    if (field_provenance_ == SpeedProvenance::kProfileBlend) {
      stats_.blends += 1;
      obs::Add(m_blends_);
    }
    speeds = &pricing_speeds_;
  }

  // Price every road once with RoadSeconds, FastestRoute's price, so the
  // A* adds the same doubles in the same order as the shared search.
  const std::vector<Road>& roads = net_->roads();
  road_seconds_.resize(roads.size());
  rho_ = 1.0;
  min_road_seconds_ = kInf;
  for (size_t r = 0; r < roads.size(); ++r) {
    const double v_kmh = (*speeds)[r];
    const double seconds = RoadSeconds(roads[r].length_m, v_kmh);
    road_seconds_[r] = seconds;
    if (seconds == kInf) continue;  // impassable: v <= 0 or NaN
    rho_ = std::max(rho_, v_kmh / roads[r].free_flow_kmh);
    min_road_seconds_ = std::min(min_road_seconds_, seconds);
  }
  synced_version_ = snap.version;
  synced_stale_slots_ = snap.stale_slots;
}

Result<RouteResult> RouteEtaCache::LandmarkRoute(NodeId from, NodeId to) {
  if (from == to) return RouteResult{};  // FastestRoute's empty trip

  const double* from_l_t = &from_landmark_[size_t{to} * kLandmarks];
  const double* t_to_l = &to_landmark_[size_t{to} * kLandmarks];
  // Free-flow lower bounds on the seconds u -> to from each landmark L by
  // the triangle inequality both ways, d(L,to) − d(L,u) and d(u,L) −
  // d(to,L); a term with no finite information (inf − inf) is NaN, which
  // std::max(best, NaN) ignores.
  auto heuristic = [&](NodeId u) {
    const double* from_l_u = &from_landmark_[size_t{u} * kLandmarks];
    const double* u_to_l = &to_landmark_[size_t{u} * kLandmarks];
    double best = 0.0;
    for (size_t l = 0; l < kLandmarks; ++l) {
      best = std::max(best, from_l_t[l] - from_l_u[l]);
      best = std::max(best, u_to_l[l] - t_to_l[l]);
    }
    if (best == kInf) return kInf;  // `to` is unreachable from u
    return std::max(0.0, best - landmark_slack_) / rho_ * kBoundMargin;
  };

  auto priced = [this](RoadId r) { return road_seconds_[r]; };
  SearchNodes(*net_, from, priced, SearchDirection::kForward, to, &search_,
              heuristic);
  if (!search_.settled(to)) return Status::NotFound("target unreachable");
  if (!(min_road_seconds_ > search_.seconds(to) * kMinRoadShare)) {
    SearchNodes(*net_, from, priced, SearchDirection::kForward, to, &search_);
    return RouteTo(*net_, search_, to);
  }
  // Rebuild FastestRoute's predecessors from `to` backwards into the via
  // roads RouteTo reads. Every road costs more than the rounding of g here,
  // so a candidate u has g(u) < g(w) <= g(to): FastestRoute settled it, in
  // (g, node) order, before `to`, and this search settled it too.
  for (NodeId w = to; w != from;) {
    const double g_w = search_.seconds(w);
    RoadId via = kInvalidRoad;
    NodeId via_node = kInvalidNode;
    double via_g = 0.0;
    // InRoads(w) and OutRoads(u) both list roads in id order, so of
    // parallel roads from one u the first met is the first in OutRoads(u).
    for (RoadId r : net_->InRoads(w)) {
      const NodeId u = net_->road(r).from;
      const double g_u = search_.seconds(u);
      if (!search_.settled(u) || g_u + road_seconds_[r] != g_w) continue;
      if (via == kInvalidRoad || g_u < via_g ||
          (g_u == via_g && u < via_node)) {
        via = r;
        via_node = u;
        via_g = g_u;
      }
    }
    TS_CHECK(via != kInvalidRoad) << "no settled predecessor of node " << w;
    search_.nodes[w].via = via;
    w = via_node;
  }
  return RouteTo(*net_, search_, to);
}

Result<RouteEtaCache::EtaResult> RouteEtaCache::Eta(const SpeedSnapshot& snap,
                                                    NodeId from, NodeId to) {
  if (snap.version == 0 || snap.speed_kmh.size() != net_->num_roads()) {
    return Status::FailedPrecondition(
        "ETA query against an empty or mismatched snapshot");
  }
  if (from >= num_nodes_ || to >= num_nodes_) {
    return Status::InvalidArgument("route endpoint outside the network");
  }
  SyncToSnapshot(snap);

  const uint64_t key = KeyOf(from, to);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++stats_.hits;
    obs::Add(m_hits_);
    EtaResult hit = it->second;
    hit.cache_hit = true;
    return hit;
  }

  ++stats_.misses;
  obs::Add(m_misses_);
  TS_ASSIGN_OR_RETURN(RouteResult route, LandmarkRoute(from, to));
  // The pricing field came from the snapshot, so the staleness stamp does
  // too — a blended route is still a stale route, just a better-priced one.
  route.stale = snap.stale;
  route.stale_slots = snap.stale_slots;
  route.slot = snap.slot;

  EtaResult result;
  result.route = std::move(route);
  result.provenance = field_provenance_;
  result.snapshot_version = snap.version;
  result.cache_hit = false;

  if (entries_.size() >= capacity_) {
    // Arbitrary-victim eviction: every entry is equally valid (same
    // version), so any victim preserves correctness; begin() is O(1).
    entries_.erase(entries_.begin());
  }
  entries_.emplace(key, result);
  return result;
}

}  // namespace trendspeed
