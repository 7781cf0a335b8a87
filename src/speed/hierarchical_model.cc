#include "speed/hierarchical_model.h"

#include <algorithm>
#include <cmath>

#include "corr/cotrend.h"
#include "util/parallel.h"
#include "util/logging.h"

namespace trendspeed {

const char* ModelLevelName(ModelLevel level) {
  switch (level) {
    case ModelLevel::kRoad:
      return "road";
    case ModelLevel::kClass:
      return "class";
    case ModelLevel::kGlobal:
      return "global";
  }
  return "?";
}

Result<HierarchicalSpeedModel> HierarchicalSpeedModel::Train(
    const RoadNetwork& net, const HistoricalDb& db,
    const CorrelationGraph& graph, const InfluenceModel& influence,
    const HierarchicalModelOptions& opts) {
  if (net.num_roads() != db.num_roads() ||
      net.num_roads() != graph.num_roads() ||
      net.num_roads() != influence.num_roads()) {
    return Status::InvalidArgument(
        "network / history / graph / influence size mismatch");
  }
  HierarchicalSpeedModel model;
  model.opts_ = opts;
  size_t n = net.num_roads();
  model.road_class_.resize(n);
  model.road_lines_.resize(n);
  model.road_means_.resize(n);

  // Per-road training in parallel. Each road keeps the sufficient stats of
  // its samples that have neighbour information, plus their (x, t) points
  // for the logistic calibration; both are pooled upward in road order
  // afterwards, so results are independent of thread count.
  std::vector<TrendFitStats> neighbor_stats(n);
  std::vector<std::vector<TrendPoint>> points(n);
  ParallelFor(
      n,
      [&](size_t begin, size_t end) {
        for (RoadId i = static_cast<RoadId>(begin); i < end; ++i) {
          model.road_class_[i] = net.road(i).road_class;
          double fallback = net.road(i).free_flow_kmh;
          // Independent per-road stream keeps training deterministic under
          // any parallelism.
          Rng rng(opts.dropout_seed +
                  0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(i) + 1));
          TrendFitStats all;
          // Incoming influence list: symmetric, so road i's cover list
          // holds the (j, w_ij) pairs of every road whose observation
          // informs i.
          auto cover = influence.CoverList(i);
          for (uint64_t slot = 0; slot < db.num_slots(); ++slot) {
            if (!db.HasObservation(i, slot)) continue;
            double vi = db.Observation(i, slot);
            double y = db.DeviationOf(i, slot, vi);
            int t = TrendIndex(db.TrendOf(i, slot, vi, fallback));
            // Randomly sparsify the neighbour set so the fitted weight
            // interaction covers the regimes online estimation sees, where
            // only the K seeds are observed.
            double keep = rng.Uniform(opts.min_keep_prob, 1.0);
            double wsum = 0.0, xsum = 0.0;
            for (const CoverEntry& c : cover) {
              if (c.road == i) continue;
              double mag = std::fabs(c.influence);
              if (mag < opts.min_neighbor_weight) continue;
              if (!db.HasObservation(c.road, slot)) continue;
              if (!rng.NextBool(keep)) continue;
              double dj =
                  db.DeviationOf(c.road, slot, db.Observation(c.road, slot));
              // Anti-correlated neighbours contribute with flipped sign.
              wsum += mag;
              xsum += c.influence * dj;
            }
            if (wsum > 0.0) {
              double x = xsum / wsum;
              all.Add(x, y, t, wsum);
              neighbor_stats[i].Add(x, y, t, wsum);
              points[i].push_back({x, t});
            } else {
              // No neighbour info: still useful for the mean models.
              all.Add(0.0, y, t, 0.0);
            }
          }
          model.road_lines_[i] = FitWeightedTrendModel(
              all, opts.ridge_lambda, opts.min_road_samples);
          model.road_means_[i] = FitTrendMean(all, opts.min_road_samples);
        }
      },
      opts.num_threads);

  TrendFitStats class_stats[3];
  TrendFitStats global_stats;
  for (RoadId i = 0; i < n; ++i) {
    class_stats[static_cast<size_t>(model.road_class_[i])].Merge(
        neighbor_stats[i]);
    global_stats.Merge(neighbor_stats[i]);
  }
  for (int c = 0; c < 3; ++c) {
    model.class_lines_[c] = FitWeightedTrendModel(
        class_stats[c], opts.ridge_lambda, opts.min_class_samples);
    model.class_means_[c] =
        FitTrendMean(class_stats[c], opts.min_class_samples);
  }
  model.global_line_ =
      FitWeightedTrendModel(global_stats, opts.ridge_lambda, 10);
  model.global_mean_ = FitTrendMean(global_stats, 10);
  model.evidence_ = FitLogistic(points);
  return model;
}

ModelLevel HierarchicalSpeedModel::LevelFor(RoadId road, bool has_x) const {
  if (has_x) {
    if (road_lines_[road].trained) return ModelLevel::kRoad;
    if (class_lines_[static_cast<size_t>(road_class_[road])].trained) {
      return ModelLevel::kClass;
    }
    return ModelLevel::kGlobal;
  }
  if (road_means_[road].any_trained()) return ModelLevel::kRoad;
  if (class_means_[static_cast<size_t>(road_class_[road])].any_trained()) {
    return ModelLevel::kClass;
  }
  return ModelLevel::kGlobal;
}

double HierarchicalSpeedModel::PredictDeviation(RoadId road, double x,
                                                double weight, bool has_x,
                                                double p_up) const {
  TS_CHECK_LT(road, road_lines_.size());
  size_t c = static_cast<size_t>(road_class_[road]);
  double d;
  if (has_x) {
    switch (LevelFor(road, true)) {
      case ModelLevel::kRoad:
        d = road_lines_[road].Predict(x, weight, p_up);
        break;
      case ModelLevel::kClass:
        d = class_lines_[c].Predict(x, weight, p_up);
        break;
      default:
        d = global_line_.Predict(x, weight, p_up);
    }
  } else {
    switch (LevelFor(road, false)) {
      case ModelLevel::kRoad:
        d = road_means_[road].Predict(p_up);
        break;
      case ModelLevel::kClass:
        d = class_means_[c].Predict(p_up);
        break;
      default:
        d = global_mean_.Predict(p_up);
    }
  }
  // Deviations beyond [-0.9, +1.5] are physically implausible on urban
  // roads; clamping keeps a bad regression from predicting negative speed.
  return std::clamp(d, -0.9, 1.5);
}

size_t HierarchicalSpeedModel::num_road_models() const {
  size_t count = 0;
  for (const WeightedTrendModel& line : road_lines_) {
    if (line.trained) ++count;
  }
  return count;
}

// HSPD v1 stores both structs as raw bytes; their layout is the format.
static_assert(sizeof(WeightedTrendModel) == 40);
static_assert(sizeof(TrendMean) == 32);

void HierarchicalSpeedModel::Serialize(BinaryWriter* writer) const {
  writer->PutTag("HSPD", 1);
  writer->PutF64(opts_.ridge_lambda);
  writer->PutU32(opts_.min_road_samples);
  writer->PutU32(opts_.min_class_samples);
  writer->PutF64(opts_.min_neighbor_weight);
  writer->PutF64(opts_.min_keep_prob);
  writer->PutU64(opts_.dropout_seed);
  writer->PutVec(road_class_);
  writer->PutVec(road_lines_);
  writer->PutVec(road_means_);
  for (int c = 0; c < 3; ++c) {
    writer->PutVec(std::vector<WeightedTrendModel>{class_lines_[c]});
    writer->PutVec(std::vector<TrendMean>{class_means_[c]});
  }
  writer->PutVec(std::vector<WeightedTrendModel>{global_line_});
  writer->PutVec(std::vector<TrendMean>{global_mean_});
  writer->PutF64(evidence_.bias);
  writer->PutF64(evidence_.gamma);
  writer->PutU8(evidence_.trained ? 1 : 0);
}

Result<HierarchicalSpeedModel> HierarchicalSpeedModel::Deserialize(
    BinaryReader* reader) {
  TS_ASSIGN_OR_RETURN(uint32_t version, reader->ExpectTag("HSPD"));
  if (version != 1) {
    return Status::InvalidArgument("unsupported speed-model version");
  }
  HierarchicalSpeedModel model;
  TS_ASSIGN_OR_RETURN(model.opts_.ridge_lambda, reader->GetF64());
  TS_ASSIGN_OR_RETURN(model.opts_.min_road_samples, reader->GetU32());
  TS_ASSIGN_OR_RETURN(model.opts_.min_class_samples, reader->GetU32());
  TS_ASSIGN_OR_RETURN(model.opts_.min_neighbor_weight, reader->GetF64());
  TS_ASSIGN_OR_RETURN(model.opts_.min_keep_prob, reader->GetF64());
  TS_ASSIGN_OR_RETURN(model.opts_.dropout_seed, reader->GetU64());
  TS_ASSIGN_OR_RETURN(model.road_class_, reader->GetVec<RoadClass>());
  TS_ASSIGN_OR_RETURN(model.road_lines_,
                      reader->GetVec<WeightedTrendModel>());
  TS_ASSIGN_OR_RETURN(model.road_means_, reader->GetVec<TrendMean>());
  size_t n = model.road_class_.size();
  if (model.road_lines_.size() != n || model.road_means_.size() != n) {
    return Status::InvalidArgument("corrupt speed model: size mismatch");
  }
  // A model file is outside input: a `trained` byte other than 0 or 1 is
  // not a bool, and reading it as one is undefined.
  auto flags_ok = [](const auto& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(&v.trained);
    return std::all_of(b, b + sizeof(v.trained), [](auto c) { return c <= 1; });
  };
  for (size_t r = 0; r < n; ++r) {
    if (static_cast<uint8_t>(model.road_class_[r]) >
        static_cast<uint8_t>(RoadClass::kLocal)) {
      return Status::InvalidArgument("corrupt speed model: bad road class");
    }
    if (!flags_ok(model.road_lines_[r]) || !flags_ok(model.road_means_[r])) {
      return Status::InvalidArgument("corrupt speed model: bad trained flag");
    }
  }
  auto one = [&](auto* out) -> Status {
    using T = std::remove_pointer_t<decltype(out)>;
    auto vec = reader->template GetVec<T>();
    if (!vec.ok()) return vec.status();
    if (vec->size() != 1 || !flags_ok((*vec)[0])) {
      return Status::InvalidArgument("corrupt speed model: bad scalar vec");
    }
    *out = (*vec)[0];
    return Status::OK();
  };
  for (int c = 0; c < 3; ++c) {
    TS_RETURN_NOT_OK(one(&model.class_lines_[c]));
    TS_RETURN_NOT_OK(one(&model.class_means_[c]));
  }
  TS_RETURN_NOT_OK(one(&model.global_line_));
  TS_RETURN_NOT_OK(one(&model.global_mean_));
  TS_ASSIGN_OR_RETURN(model.evidence_.bias, reader->GetF64());
  TS_ASSIGN_OR_RETURN(model.evidence_.gamma, reader->GetF64());
  TS_ASSIGN_OR_RETURN(uint8_t trained, reader->GetU8());
  model.evidence_.trained = trained != 0;
  return model;
}

}  // namespace trendspeed
