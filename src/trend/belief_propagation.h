// Loopy belief propagation (damped sum-product) on a PairwiseMrf.
//
// This is the production trend-inference path: linear time per sweep in the
// number of correlation edges, which is what delivers the paper's ~2 orders
// of magnitude efficiency advantage over whole-graph optimization baselines.

#ifndef TRENDSPEED_TREND_BELIEF_PROPAGATION_H_
#define TRENDSPEED_TREND_BELIEF_PROPAGATION_H_

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "trend/factor_graph.h"

namespace trendspeed {

struct BpOptions {
  /// Sweeps per run: BP is a fixed truncated schedule, every run executes
  /// exactly this many damped Jacobi sweeps from all-0.5 messages, so a
  /// road's marginal feels evidence from at most max_iters hops away. On
  /// the loopy, associative graphs correlation mining produces, longer
  /// message passing saturates marginals without improving speeds: in
  /// bench_ablation's A6 sweep-count table (EXPERIMENTS.md M14) 1 sweep is
  /// the smallest count within 0.05 pp MAPE of the best row on CityA and
  /// CityB at K = 20, 40 and 80, and the bench's --smoke run (a ctest
  /// entry) fails if this default breaks that rule. Raise it (and pass
  /// damping 0) for exactness on trees.
  uint32_t max_iters = 1;
  /// Fraction of the *old* message retained each update, in [0, 1).
  double damping = 0.15;
  /// Worker threads for the message sweeps (0 = EffectiveThreads). The
  /// update is two-phase (read `msg`, write `next`, swap), so marginals are
  /// bitwise identical for every thread count, including 1; small graphs
  /// run serially regardless (see kMinParallelVars in bp_kernel.h).
  uint32_t num_threads = 0;
  /// Observability hook (docs/observability.md): when attached, each run
  /// records the trendspeed_bp_* series (runs per kernel, sweeps, message
  /// updates). Null (default) disables recording; results are identical
  /// either way. Set by the estimator from PipelineConfig::observability;
  /// must outlive the inference call.
  obs::MetricsRegistry* metrics = nullptr;
};

struct BpResult {
  /// Marginal P(x_v = up); clamped variables report 0/1 exactly.
  std::vector<double> p_up;
  /// Directed-edge message updates computed (edges x max_iters).
  uint64_t message_updates = 0;
};

struct BpGraphSoa;

/// Flattened, immutable BP message-passing structure. Building it is O(E);
/// callers that infer repeatedly over the same graph (one per time slot)
/// should build once and reuse.
struct BpGraph {
  size_t num_vars = 0;
  std::vector<size_t> off;        ///< num_vars + 1 offsets
  std::vector<uint32_t> rev_slot; ///< reverse directed-edge slot per edge
  std::vector<float> compat;      ///< 4 entries per directed edge
  size_t max_degree = 0;
  /// Degree-bucketed structure-of-arrays mirror for the vectorized kernel
  /// (trend/bp_kernel.h), built alongside the flat arrays by FromMrf.
  /// Shared so copies of the graph stay cheap; the mirror is immutable like
  /// the rest.
  std::shared_ptr<const BpGraphSoa> soa;

  static BpGraph FromMrf(const PairwiseMrf& mrf);
};

/// Runs damped sum-product over a prebuilt structure. `pot` holds the
/// *effective* node potentials (2 per variable, evidence applied: clamped
/// variables carry a hard 0/1 pair). The served schedule (max_iters == 1)
/// runs the vectorized SoA kernel (trend/bp_kernel.h) wherever the CPU can
/// (BpSimdKernelAvailable): single-precision marginals that agree with
/// InferMarginalsBpScalar within 1e-3 but not bitwise
/// (docs/performance.md). Every other run is InferMarginalsBpScalar's, bit
/// for bit.
BpResult InferMarginalsBpFlat(const BpGraph& graph,
                              const std::vector<double>& pot,
                              const BpOptions& opts = {});

/// The double-precision scalar schedule: max_iters damped Jacobi sweeps
/// over every variable from all-0.5 messages. It is the reference the
/// one-sweep SIMD kernel is tested against, and the engine behind
/// InferMarginalsBpFlat for every sweep count other than 1.
BpResult InferMarginalsBpScalar(const BpGraph& graph,
                                const std::vector<double>& pot,
                                const BpOptions& opts = {});

/// Convenience wrapper: flattens `mrf` and infers. Exact on trees (with
/// enough iterations); empirically accurate on the sparse associative
/// graphs correlation mining produces.
BpResult InferMarginalsBp(const PairwiseMrf& mrf, const BpOptions& opts = {});

}  // namespace trendspeed

#endif  // TRENDSPEED_TREND_BELIEF_PROPAGATION_H_
