#include "product/route_eta.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/catalog.h"
#include "roadnet/shortest_path.h"
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

/// Free-flow seconds per node from (kForward) or to (kReverse) `source`;
/// +inf, which LandmarkBound and the slack read as "no path", if none.
std::vector<double> FreeFlowSeconds(const RoadNetwork& net, NodeId source,
                                    SearchDirection direction) {
  auto cost = [&net](RoadId r) { return net.FreeFlowSeconds(r); };
  std::vector<double> seconds =
      SearchNodes(net, source, cost, direction, kInvalidNode).seconds;
  std::replace(seconds.begin(), seconds.end(), kNotReached, kInf);
  return seconds;
}

/// Free-flow lower bound on the seconds u -> t from one landmark L, by the
/// triangle inequality both ways: d(L,t) − d(L,u) and d(u,L) − d(t,L).
/// +inf when t cannot be reached from u; a term with no finite information
/// (inf − inf) fails both comparisons and is ignored.
double LandmarkBound(double from_l_to_t, double from_l_to_u,
                     double u_to_l, double t_to_l) {
  double best = -kInf;
  const double ahead = from_l_to_t - from_l_to_u;
  if (ahead > best) best = ahead;
  const double behind = u_to_l - t_to_l;
  if (behind > best) best = behind;
  return best;
}

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
      num_nodes_(net.num_nodes()),
      search_(net.num_nodes()) {
  entries_.reserve(capacity_);
  BuildLandmarks();
}

void RouteEtaCache::BuildLandmarks() {
  const size_t n = num_nodes_;
  std::vector<std::vector<double>> from_l, to_l;
  // Farthest-first: each landmark is the node farthest (free-flow seconds)
  // from its nearest landmark so far; the farthest node from node 0 starts.
  std::vector<double> nearest =
      FreeFlowSeconds(*net_, 0, SearchDirection::kForward);
  NodeId next = ArgMax(nearest);
  nearest.assign(n, kInf);
  while (from_l.size() < kLandmarks) {
    from_l.push_back(FreeFlowSeconds(*net_, next, SearchDirection::kForward));
    to_l.push_back(FreeFlowSeconds(*net_, next, SearchDirection::kReverse));
    for (size_t u = 0; u < n; ++u) {
      nearest[u] = std::min(nearest[u], from_l.back()[u]);
    }
    next = ArgMax(nearest);
    if (!(nearest[next] > 0.0)) break;  // every node is a landmark
  }

  num_landmarks_ = from_l.size();
  from_landmark_.resize(n * num_landmarks_);
  to_landmark_.resize(n * num_landmarks_);
  double max_seconds = 0.0;
  for (size_t u = 0; u < n; ++u) {
    for (size_t l = 0; l < num_landmarks_; ++l) {
      from_landmark_[u * num_landmarks_ + l] = from_l[l][u];
      to_landmark_[u * num_landmarks_ + l] = to_l[l][u];
      for (double d : {from_l[l][u], to_l[l][u]}) {
        if (d < kInf) max_seconds = std::max(max_seconds, d);
      }
    }
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
  RouteResult route;
  if (from == to) return route;  // FastestRoute's defined empty trip

  const size_t nl = num_landmarks_;
  const double* from_l_t = &from_landmark_[size_t{to} * nl];
  const double* t_to_l = &to_landmark_[size_t{to} * nl];
  auto heuristic = [&](NodeId u) {
    const double* from_l_u = &from_landmark_[size_t{u} * nl];
    const double* u_to_l = &to_landmark_[size_t{u} * nl];
    double best = 0.0;
    for (size_t l = 0; l < nl; ++l) {
      best = std::max(best, LandmarkBound(from_l_t[l], from_l_u[l], u_to_l[l],
                                          t_to_l[l]));
    }
    if (best == kInf) return kInf;  // `to` is unreachable from u
    return std::max(0.0, best - landmark_slack_) / rho_ * kBoundMargin;
  };

  if (++query_stamp_ == 0) {  // the stamp wrapped: forget every node
    for (NodeState& s : search_) s.reached = s.settled = 0;
    query_stamp_ = 1;
  }
  const uint32_t stamp = query_stamp_;
  auto reach = [&](NodeId u) -> NodeState& {
    NodeState& s = search_[u];
    if (s.reached != stamp) {
      s.reached = stamp;
      s.g = kNotReached;
      s.h = heuristic(u);
    }
    return s;
  };
  // Settle order (f, g, node): among equal f the smaller g goes first, so
  // every node FastestRoute settles before `to` on a tied f is settled here
  // before `to` too.
  auto later = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.f != b.f) return a.f > b.f;
    if (a.g != b.g) return a.g > b.g;
    return a.node > b.node;
  };

  heap_.clear();
  NodeState& source = reach(from);
  if (source.h == kInf) return Status::NotFound("target unreachable");
  source.g = 0.0;
  heap_.push_back({source.h, 0.0, from});
  bool found = false;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    NodeState& s = search_[top.node];
    if (top.g > s.g) continue;  // superseded by a shorter g
    s.settled = stamp;
    if (top.node == to) {
      found = true;
      break;
    }
    for (RoadId r : net_->OutRoads(top.node)) {
      const double nd = top.g + road_seconds_[r];
      if (!(nd < kNotReached)) continue;  // impassable, or beyond the sentinel
      const NodeId w = net_->road(r).to;
      NodeState& ws = reach(w);
      if (!(nd < ws.g)) continue;
      ws.g = nd;
      if (ws.h == kInf) continue;  // cannot reach `to`; never settled
      heap_.push_back({nd + ws.h, nd, w});
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
  }
  if (!found) return Status::NotFound("target unreachable");

  const double g_to = search_[to].g;
  if (!(min_road_seconds_ > g_to * kMinRoadShare)) {
    auto priced = [this](RoadId r) { return road_seconds_[r]; };
    return RouteTo(
        *net_,
        SearchNodes(*net_, from, priced, SearchDirection::kForward, to), to);
  }
  // Rebuild FastestRoute's predecessors from `to` backwards. Every road
  // costs more than the rounding of g here, so a candidate u has
  // g(u) < g(w) <= g(to): FastestRoute settled it, in (g, node) order,
  // before `to`, and this search settled it too.
  route.travel_seconds = g_to;
  for (NodeId w = to; w != from;) {
    const double g_w = search_[w].g;
    RoadId via = kInvalidRoad;
    NodeId via_node = kInvalidNode;
    double via_g = 0.0;
    // InRoads(w) and OutRoads(u) both list roads in id order, so of
    // parallel roads from one u the first met is the first in OutRoads(u).
    for (RoadId r : net_->InRoads(w)) {
      const NodeId u = net_->road(r).from;
      const NodeState& us = search_[u];
      if (us.settled != stamp || us.g + road_seconds_[r] != g_w) continue;
      if (via == kInvalidRoad || us.g < via_g ||
          (us.g == via_g && u < via_node)) {
        via = r;
        via_node = u;
        via_g = us.g;
      }
    }
    TS_CHECK(via != kInvalidRoad) << "no settled predecessor of node " << w;
    route.roads.push_back(via);
    route.length_m += net_->road(via).length_m;
    w = via_node;
  }
  std::reverse(route.roads.begin(), route.roads.end());
  return route;
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
