#include "seed/objective.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "speed/hierarchical_model.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace trendspeed {

Result<InfluenceModel> InfluenceModel::Build(const CorrelationGraph& graph,
                                             const HistoricalDb& db,
                                             const InfluenceOptions& opts) {
  if (graph.num_roads() != db.num_roads()) {
    return Status::InvalidArgument("graph / history size mismatch");
  }
  if (opts.min_influence <= 0.0 || opts.min_influence >= 1.0) {
    return Status::InvalidArgument("min_influence must be in (0, 1)");
  }
  size_t n = graph.num_roads();
  InfluenceModel model;
  model.covers_.resize(n);
  model.sigma_.resize(n);
  for (RoadId i = 0; i < n; ++i) {
    model.sigma_[i] = db.DeviationStddev(i);
  }

  // Best path product from each source via a local Dijkstra (products of
  // |weights| in (0,1] are maximized, so a max-heap on magnitude works
  // without log transforms). Hop-bounded, so each search touches a small
  // ball. The sign of the best path (product of edge-weight signs) rides
  // along: influence through anti-correlated edges flips sign but carries
  // just as much information.
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        // Thread-local search scratch.
        std::vector<double> best(n, 0.0);
        std::vector<int8_t> sign(n, 1);
        std::vector<uint32_t> hops(n, 0);
        std::vector<RoadId> touched;
        for (RoadId src = static_cast<RoadId>(begin); src < end; ++src) {
          using Entry = std::pair<double, RoadId>;  // (|product|, road)
          std::priority_queue<Entry> pq;
          best[src] = 1.0;
          sign[src] = 1;
          hops[src] = 0;
          touched.push_back(src);
          pq.emplace(1.0, src);
          while (!pq.empty()) {
            auto [p, u] = pq.top();
            pq.pop();
            if (p < best[u]) continue;  // stale entry
            if (hops[u] >= opts.max_hops) continue;
            for (const CorrEdge& e : graph.Neighbors(u)) {
              double w = HierarchicalSpeedModel::EdgeWeight(e);
              double np = p * std::fabs(w);
              if (np < opts.min_influence) continue;
              if (np > best[e.neighbor]) {
                if (best[e.neighbor] == 0.0) touched.push_back(e.neighbor);
                best[e.neighbor] = np;
                sign[e.neighbor] =
                    static_cast<int8_t>(w < 0.0 ? -sign[u] : sign[u]);
                hops[e.neighbor] = hops[u] + 1;
                pq.emplace(np, e.neighbor);
              }
            }
          }
          auto& cover = model.covers_[src];
          cover.reserve(touched.size());
          for (RoadId r : touched) {
            cover.push_back(
                CoverEntry{r, static_cast<float>(best[r] * sign[r])});
            best[r] = 0.0;  // reset for the next source
            sign[r] = 1;
          }
          std::sort(cover.begin(), cover.end(),
                    [](const CoverEntry& a, const CoverEntry& b) {
                      return a.road < b.road;
                    });
          touched.clear();
        }
      },
      opts.num_threads);
  return model;
}

InfluenceModel InfluenceModel::FromCoverLists(
    size_t num_roads, std::vector<std::vector<CoverEntry>> covers,
    std::vector<double> sigma) {
  TS_CHECK_EQ(covers.size(), num_roads);
  TS_CHECK_EQ(sigma.size(), num_roads);
  InfluenceModel model;
  model.covers_ = std::move(covers);
  model.sigma_ = std::move(sigma);
  // ObjectiveState requires each road to appear at most once per cover
  // list; dedupe keeping the strongest influence magnitude.
  for (auto& cover : model.covers_) {
    std::sort(cover.begin(), cover.end(),
              [](const CoverEntry& a, const CoverEntry& b) {
                return a.road != b.road
                           ? a.road < b.road
                           : std::fabs(a.influence) > std::fabs(b.influence);
              });
    cover.erase(std::unique(cover.begin(), cover.end(),
                            [](const CoverEntry& a, const CoverEntry& b) {
                              return a.road == b.road;
                            }),
                cover.end());
  }
  return model;
}

void InfluenceModel::Serialize(BinaryWriter* writer) const {
  writer->PutTag("INFL", 1);
  writer->PutU64(covers_.size());
  for (const auto& cover : covers_) writer->PutVec(cover);
  writer->PutVec(sigma_);
}

Result<InfluenceModel> InfluenceModel::Deserialize(BinaryReader* reader) {
  TS_ASSIGN_OR_RETURN(uint32_t version, reader->ExpectTag("INFL"));
  if (version != 1) {
    return Status::InvalidArgument("unsupported influence-model version");
  }
  InfluenceModel model;
  TS_ASSIGN_OR_RETURN(uint64_t n, reader->GetU64());
  // Each cover takes at least its 8-byte length: refuse before allocating.
  if (n > reader->remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("corrupt influence model size");
  }
  model.covers_.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    TS_ASSIGN_OR_RETURN(model.covers_[i], reader->GetVec<CoverEntry>());
    for (const CoverEntry& c : model.covers_[i]) {
      if (c.road >= n) {
        return Status::InvalidArgument("corrupt influence cover entry");
      }
    }
  }
  TS_ASSIGN_OR_RETURN(model.sigma_, reader->GetVec<double>());
  if (model.sigma_.size() != n) {
    return Status::InvalidArgument("corrupt influence sigma size");
  }
  return model;
}

double InfluenceModel::AverageCoverSize() const {
  if (covers_.empty()) return 0.0;
  size_t total = 0;
  for (const auto& c : covers_) total += c.size();
  return static_cast<double>(total) / static_cast<double>(covers_.size());
}

ObjectiveState::ObjectiveState(const InfluenceModel* model)
    : model_(model), best_(model->num_roads(), 0.0) {
  TS_CHECK(model != nullptr);
}

double ObjectiveState::GainOf(RoadId j) const {
  double gain = 0.0;
  for (const CoverEntry& c : model_->CoverList(j)) {
    double w = std::fabs(c.influence);
    if (w > best_[c.road]) {
      gain += model_->sigma(c.road) * (w - best_[c.road]);
    }
  }
  return gain;
}

void ObjectiveState::Add(RoadId j) {
  for (const CoverEntry& c : model_->CoverList(j)) {
    double w = std::fabs(c.influence);
    if (w > best_[c.road]) {
      value_ += model_->sigma(c.road) * (w - best_[c.road]);
      best_[c.road] = w;
    }
  }
  seeds_.push_back(j);
}

double ObjectiveValue(const InfluenceModel& model,
                      const std::vector<RoadId>& seeds) {
  ObjectiveState state(&model);
  for (RoadId j : seeds) state.Add(j);
  return state.value();
}

}  // namespace trendspeed
