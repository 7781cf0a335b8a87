#include "trend/trend_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace trendspeed {

const char* TrendEngineName(TrendEngine engine) {
  switch (engine) {
    case TrendEngine::kBeliefPropagation:
      return "bp";
    case TrendEngine::kGibbs:
      return "gibbs";
    case TrendEngine::kIcm:
      return "icm";
    case TrendEngine::kPriorOnly:
      return "prior";
  }
  return "?";
}

namespace {

// Builds the MRF structure with tempered edge compatibilities.
PairwiseMrf BuildStructure(const CorrelationGraph& graph, double power) {
  PairwiseMrf mrf(graph.num_roads());
  for (RoadId v = 0; v < graph.num_roads(); ++v) {
    for (const CorrEdge& e : graph.Neighbors(v)) {
      if (e.neighbor <= v) continue;
      double compat[2][2];
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          compat[a][b] = std::pow(static_cast<double>(e.compat[a][b]), power);
        }
      }
      mrf.AddEdge(v, e.neighbor, compat);
    }
  }
  return mrf;
}

}  // namespace

TrendModel::TrendModel(const CorrelationGraph* graph, const HistoricalDb* db,
                       TrendModelOptions opts)
    : graph_(graph),
      db_(db),
      opts_(opts),
      structure_(BuildStructure(*graph, opts.edge_compat_power)),
      bp_graph_(BpGraph::FromMrf(structure_)) {
  TS_CHECK(graph != nullptr);
  TS_CHECK(db != nullptr);
  TS_CHECK_EQ(graph->num_roads(), db->num_roads());
  TS_CHECK_GT(opts.edge_compat_power, 0.0);
}

Result<TrendEstimate> TrendModel::Infer(
    uint64_t slot, const std::vector<SeedTrend>& seeds,
    const std::vector<double>* evidence_log_odds) const {
  size_t n = graph_->num_roads();
  if (evidence_log_odds != nullptr && evidence_log_odds->size() != n) {
    return Status::InvalidArgument("evidence size mismatch");
  }
  for (const SeedTrend& s : seeds) {
    if (s.road >= n) {
      return Status::InvalidArgument("seed road out of range");
    }
    if (s.trend != 1 && s.trend != -1) {
      return Status::InvalidArgument("seed trend must be +1 or -1");
    }
  }
  // Per-slot node beliefs: historical prior combined with soft evidence for
  // every road, then hard seed clamps written over their roads' priors (a
  // road seeded twice keeps its last clamp). Priors are clamped to
  // [0.02, 0.98], so a pair with a zero entry is always a seed clamp.
  // Kept per calling thread and reused across slots, so each slot
  // overwrites warm pages instead of faulting in a fresh 2n-double vector.
  thread_local std::vector<double> pot;
  pot.resize(2 * n);
  const HistoricalDb::BucketView hist = db_->Bucket(slot);
  for (size_t v = 0; v < n; ++v) {
    double p = hist.TrendUp(static_cast<RoadId>(v), opts_.prior_pseudo_count);
    if (evidence_log_odds != nullptr) {
      // Combine prior odds with the evidence log-odds (clamped: a single
      // soft observation should never be near-certain).
      double l = std::clamp((*evidence_log_odds)[v], -4.0, 4.0);
      double odds = p / (1.0 - p) * std::exp(l);
      p = odds / (1.0 + odds);
    }
    p = std::clamp(p, 0.02, 0.98);
    pot[2 * v] = 1.0 - p;
    pot[2 * v + 1] = p;
  }
  for (const SeedTrend& s : seeds) {
    pot[2 * s.road] = s.trend == 1 ? 0.0 : 1.0;
    pot[2 * s.road + 1] = s.trend == 1 ? 1.0 : 0.0;
  }

  TrendEstimate est;
  if (opts_.engine == TrendEngine::kBeliefPropagation) {
    // Fast path: the flattened structure is cached; no MRF copy.
    est.p_up = InferMarginalsBpFlat(bp_graph_, pot, opts_.bp).p_up;
  } else if (opts_.engine == TrendEngine::kPriorOnly) {
    est.p_up.resize(n);
    for (size_t v = 0; v < n; ++v) {
      est.p_up[v] = pot[2 * v + 1] / (pot[2 * v] + pot[2 * v + 1]);
    }
  } else {
    // Sampling/MAP engines work on a potential-carrying MRF copy (the
    // structure is shared; only potentials and evidence are duplicated).
    PairwiseMrf mrf = structure_;
    for (size_t v = 0; v < n; ++v) {
      if (pot[2 * v] == 0.0 || pot[2 * v + 1] == 0.0) {
        mrf.Clamp(v, pot[2 * v + 1] == 1.0 ? 1 : 0);
      } else {
        mrf.SetNodePotential(v, pot[2 * v], pot[2 * v + 1]);
      }
    }
    if (opts_.engine == TrendEngine::kGibbs) {
      est.p_up = InferMarginalsGibbs(mrf, opts_.gibbs).p_up;
    } else {
      IcmResult icm = InferMapIcm(mrf, opts_.icm);
      est.p_up.resize(n);
      // ICM yields a hard assignment; report soft values nudged off the
      // extremes so downstream blending still hedges a little.
      for (size_t v = 0; v < n; ++v) {
        est.p_up[v] = mrf.IsClamped(v) ? (icm.state[v] == 1 ? 1.0 : 0.0)
                                       : (icm.state[v] == 1 ? 0.9 : 0.1);
      }
    }
  }
  return est;
}

}  // namespace trendspeed
