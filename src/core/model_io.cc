#include "core/model_io.h"

#include "util/binary_io.h"
#include "util/csv.h"

namespace trendspeed {

namespace {
constexpr uint32_t kModelVersion = 1;
/// Version 2 dropped BP's convergence tolerance (version 1 wrote it after
/// the damping); BP now runs exactly max_iters sweeps. Version 3 appends
/// the evidence backfill hops and damping, which version 2 dropped.
constexpr uint32_t kConfigVersion = 3;

void PutConfig(const PipelineConfig& c, BinaryWriter* w) {
  w->PutTag("CONF", kConfigVersion);
  w->PutU8(static_cast<uint8_t>(c.trend.engine));
  w->PutU32(c.trend.bp.max_iters);
  w->PutF64(c.trend.bp.damping);
  w->PutF64(c.trend.edge_compat_power);
  w->PutF64(c.trend.prior_pseudo_count);
  w->PutU8(c.propagation.mode == AggregationMode::kInfluence ? 0 : 1);
  w->PutU32(c.propagation.max_layers);
  w->PutU32(c.propagation.max_spatial_layers);
  w->PutF64(c.propagation.spatial_discount);
  w->PutU8(c.use_trend_evidence ? 1 : 0);
  w->PutU32(c.evidence_backfill_hops);
  w->PutF64(c.evidence_backfill_damping);
}

Result<PipelineConfig> GetConfig(BinaryReader* r) {
  TS_ASSIGN_OR_RETURN(uint32_t version, r->ExpectTag("CONF"));
  if (version != kConfigVersion) {
    return Status::InvalidArgument("unsupported config version");
  }
  PipelineConfig c;
  TS_ASSIGN_OR_RETURN(uint8_t engine, r->GetU8());
  if (engine > static_cast<uint8_t>(TrendEngine::kPriorOnly)) {
    return Status::InvalidArgument("corrupt config: bad trend engine");
  }
  c.trend.engine = static_cast<TrendEngine>(engine);
  TS_ASSIGN_OR_RETURN(c.trend.bp.max_iters, r->GetU32());
  TS_ASSIGN_OR_RETURN(c.trend.bp.damping, r->GetF64());
  TS_ASSIGN_OR_RETURN(c.trend.edge_compat_power, r->GetF64());
  TS_ASSIGN_OR_RETURN(c.trend.prior_pseudo_count, r->GetF64());
  TS_ASSIGN_OR_RETURN(uint8_t mode, r->GetU8());
  c.propagation.mode =
      mode == 0 ? AggregationMode::kInfluence : AggregationMode::kLayered;
  TS_ASSIGN_OR_RETURN(c.propagation.max_layers, r->GetU32());
  TS_ASSIGN_OR_RETURN(c.propagation.max_spatial_layers, r->GetU32());
  TS_ASSIGN_OR_RETURN(c.propagation.spatial_discount, r->GetF64());
  TS_ASSIGN_OR_RETURN(uint8_t evidence, r->GetU8());
  c.use_trend_evidence = evidence != 0;
  TS_ASSIGN_OR_RETURN(c.evidence_backfill_hops, r->GetU32());
  TS_ASSIGN_OR_RETURN(c.evidence_backfill_damping, r->GetF64());
  return c;
}

}  // namespace

std::string SerializeTrainedModel(const TrafficSpeedEstimator& estimator) {
  BinaryWriter writer;
  writer.PutTag("TSPD", kModelVersion);
  writer.PutU64(estimator.network().num_roads());
  PutConfig(estimator.config(), &writer);
  estimator.correlation_graph().Serialize(&writer);
  estimator.influence().Serialize(&writer);
  estimator.speed_model().Serialize(&writer);
  return writer.buffer();
}

Status SaveTrainedModel(const TrafficSpeedEstimator& estimator,
                        const std::string& path) {
  return WriteStringToFile(path, SerializeTrainedModel(estimator));
}

Result<TrafficSpeedEstimator> DeserializeTrainedModel(const RoadNetwork* net,
                                                      const HistoricalDb* db,
                                                      std::string bytes) {
  if (net == nullptr || db == nullptr) {
    return Status::InvalidArgument("null network or history");
  }
  BinaryReader reader(std::move(bytes));
  TS_ASSIGN_OR_RETURN(uint32_t version, reader.ExpectTag("TSPD"));
  if (version != kModelVersion) {
    return Status::InvalidArgument("unsupported model file version");
  }
  TS_ASSIGN_OR_RETURN(uint64_t num_roads, reader.GetU64());
  if (num_roads != net->num_roads()) {
    return Status::InvalidArgument(
        "model was trained on a different network (road count mismatch)");
  }
  TS_ASSIGN_OR_RETURN(PipelineConfig config, GetConfig(&reader));
  TS_ASSIGN_OR_RETURN(CorrelationGraph graph,
                      CorrelationGraph::Deserialize(&reader));
  TS_ASSIGN_OR_RETURN(InfluenceModel influence,
                      InfluenceModel::Deserialize(&reader));
  TS_ASSIGN_OR_RETURN(HierarchicalSpeedModel speed_model,
                      HierarchicalSpeedModel::Deserialize(&reader));
  return TrafficSpeedEstimator::FromComponents(
      net, db, config, std::move(graph), std::move(influence),
      std::move(speed_model));
}

Result<TrafficSpeedEstimator> LoadTrainedModel(const RoadNetwork* net,
                                               const HistoricalDb* db,
                                               const std::string& path) {
  TS_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return DeserializeTrainedModel(net, db, std::move(bytes));
}

}  // namespace trendspeed
