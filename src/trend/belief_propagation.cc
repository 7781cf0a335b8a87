#include "trend/belief_propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/catalog.h"
#include "trend/bp_kernel.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace trendspeed {

namespace {

/// The division fast path for cavity beliefs is only numerically valid
/// while the running in_prod is a normal double: gradual underflow zeroes
/// or denormalizes the product even when every individual message passes
/// the per-edge 1e-30 check, and dividing a flushed product yields a cavity
/// with the wrong ratio. (An in_prod that is exactly zero because some
/// factor is exactly zero is fine — 0 / in = 0 IS the cavity.)
constexpr double kMinNormal = std::numeric_limits<double>::min();

/// Power-of-two rescale for the fallback prefix/suffix products and the
/// belief products: exact in binary floating point, applied to both planes
/// together so every ratio — and therefore every normalized message and
/// marginal — is unchanged. The window keeps any prefix x suffix product of
/// in-range values normal.
constexpr double kRescaleLo = 0x1p-256;
constexpr double kRescaleUp = 0x1p+256;

/// Per-variable scratch for one sweep chunk. pre/suf hold the
/// prefix/suffix cavity products of the underflow fallback; they are only
/// filled for variables whose fast path is invalid, so the common case
/// costs nothing beyond the allocation.
struct SweepScratch {
  std::vector<double> in0, in1, pre0, pre1, suf0, suf1;
  explicit SweepScratch(size_t max_degree)
      : in0(max_degree), in1(max_degree), pre0(max_degree), pre1(max_degree),
        suf0(max_degree), suf1(max_degree) {}
};

}  // namespace

BpGraph BpGraph::FromMrf(const PairwiseMrf& mrf) {
  BpGraph g;
  g.num_vars = mrf.num_vars();
  g.off.assign(g.num_vars + 1, 0);
  for (size_t v = 0; v < g.num_vars; ++v) {
    g.off[v + 1] = g.off[v] + mrf.Neighbors(v).size();
  }
  size_t dir_edges = g.off[g.num_vars];
  g.rev_slot.resize(dir_edges);
  g.compat.resize(4 * dir_edges);
  size_t slot = 0;
  for (size_t v = 0; v < g.num_vars; ++v) {
    g.max_degree = std::max(g.max_degree, mrf.Neighbors(v).size());
    for (const MrfEdge& e : mrf.Neighbors(v)) {
      g.rev_slot[slot] = static_cast<uint32_t>(g.off[e.to] + e.rev);
      g.compat[4 * slot + 0] = e.compat[0][0];
      g.compat[4 * slot + 1] = e.compat[0][1];
      g.compat[4 * slot + 2] = e.compat[1][0];
      g.compat[4 * slot + 3] = e.compat[1][1];
      ++slot;
    }
  }
  g.soa = std::make_shared<const BpGraphSoa>(BpGraphSoa::Build(g));
  return g;
}

namespace {

/// Records one finished run into the trendspeed_bp_* series: the run on
/// the total and on `kernel_runs` (the kernel's run counter), its sweeps
/// and its message updates. Every handle is null when opts.metrics is
/// null, making each record a single predicted branch.
void RecordRun(const BpOptions& opts, const obs::MetricDef& kernel_runs,
               const BpResult& result) {
  obs::Add(obs::GetCounter(opts.metrics, obs::kBpRunsTotal));
  obs::Add(obs::GetCounter(opts.metrics, kernel_runs));
  obs::Add(obs::GetCounter(opts.metrics, obs::kBpSweepsTotal),
           opts.max_iters);
  obs::Add(obs::GetCounter(opts.metrics, obs::kBpMessageUpdatesTotal),
           result.message_updates);
}

}  // namespace

BpResult InferMarginalsBpScalar(const BpGraph& graph,
                                const std::vector<double>& pot,
                                const BpOptions& opts) {
  TS_CHECK_GE(opts.damping, 0.0);
  TS_CHECK_LT(opts.damping, 1.0);
  size_t n = graph.num_vars;
  TS_CHECK_EQ(pot.size(), 2 * n);
  size_t dir_edges = graph.off[n];

  std::vector<double> msg(2 * dir_edges, 0.5);
  std::vector<double> next(2 * dir_edges, 0.5);

  BpResult result;
  result.p_up.assign(n, 0.5);

  // One Jacobi half-sweep over the outgoing messages of variables in
  // [begin, end): reads `msg`, writes `next` (slots of these variables
  // only — disjoint across chunks). Per-variable arithmetic is independent
  // of the chunking, so serial and parallel sweeps are bitwise identical.
  auto sweep = [&](size_t begin, size_t end, SweepScratch& s) {
    std::vector<double>& in0 = s.in0;
    std::vector<double>& in1 = s.in1;
    for (size_t v = begin; v < end; ++v) {
      size_t off = graph.off[v];
      size_t deg = graph.off[v + 1] - off;
      if (deg == 0) continue;
      // Belief factors: phi_v(x) * prod of incoming messages.
      double in_prod[2] = {pot[2 * v], pot[2 * v + 1]};
      bool zero0 = pot[2 * v] == 0.0, zero1 = pot[2 * v + 1] == 0.0;
      bool any_small = false;
      for (size_t k = 0; k < deg; ++k) {
        size_t rs = graph.rev_slot[off + k];
        in0[k] = msg[2 * rs];
        in1[k] = msg[2 * rs + 1];
        in_prod[0] *= in0[k];
        in_prod[1] *= in1[k];
        zero0 = zero0 || in0[k] == 0.0;
        zero1 = zero1 || in1[k] == 0.0;
        any_small = any_small || in0[k] <= 1e-30 || in1[k] <= 1e-30;
      }
      // See kMinNormal: a zero in_prod is trustworthy only when some factor
      // is exactly zero; a subnormal one never is.
      bool prod_ok = (in_prod[0] >= kMinNormal || zero0) &&
                     (in_prod[1] >= kMinNormal || zero1);
      if (!prod_ok || any_small) {
        // Underflow fallback, hoisted: one prefix/suffix pass per variable
        // (cav[k] = pre[k] * suf[k]) replaces the per-edge O(deg)
        // recomputation — O(deg) total instead of O(deg^2) — and the
        // rescale keeps the running products away from the subnormal range
        // the fast path just tripped on. Both planes share each rescale
        // factor, so normalized messages are unaffected by it. The seed
        // needs the same treatment: a potential pair already below the
        // window would otherwise be stored as pre[0] unrescaled and flush
        // the k = 0 cavity to zero.
        double p0 = pot[2 * v], p1 = pot[2 * v + 1];
        while (std::max(p0, p1) < kRescaleLo && std::max(p0, p1) > 0.0) {
          p0 *= kRescaleUp;
          p1 *= kRescaleUp;
        }
        for (size_t k = 0; k < deg; ++k) {
          s.pre0[k] = p0;
          s.pre1[k] = p1;
          p0 *= in0[k];
          p1 *= in1[k];
          while (std::max(p0, p1) < kRescaleLo && std::max(p0, p1) > 0.0) {
            p0 *= kRescaleUp;
            p1 *= kRescaleUp;
          }
        }
        double q0 = 1.0, q1 = 1.0;
        for (size_t k = deg; k-- > 0;) {
          s.suf0[k] = q0;
          s.suf1[k] = q1;
          q0 *= in0[k];
          q1 *= in1[k];
          while (std::max(q0, q1) < kRescaleLo && std::max(q0, q1) > 0.0) {
            q0 *= kRescaleUp;
            q1 *= kRescaleUp;
          }
        }
      }
      for (size_t k = 0; k < deg; ++k) {
        size_t slot = off + k;
        // Cavity belief of v excluding neighbour k: division fast path
        // when it is exact-safe, prefix x suffix otherwise.
        double cav0, cav1;
        if (prod_ok && in0[k] > 1e-30 && in1[k] > 1e-30) {
          cav0 = in_prod[0] / in0[k];
          cav1 = in_prod[1] / in1[k];
        } else {
          cav0 = s.pre0[k] * s.suf0[k];
          cav1 = s.pre1[k] * s.suf1[k];
        }
        // Message v -> to: m(x_to) = sum_xv cav(xv) * psi(xv, x_to).
        const float* c = &graph.compat[4 * slot];
        double out0 = cav0 * c[0] + cav1 * c[2];
        double out1 = cav0 * c[1] + cav1 * c[3];
        double z = out0 + out1;
        if (z <= 0.0 || !std::isfinite(z)) {
          out0 = out1 = 0.5;
        } else {
          out0 /= z;
          out1 /= z;
        }
        next[2 * slot] =
            opts.damping * msg[2 * slot] + (1.0 - opts.damping) * out0;
        next[2 * slot + 1] =
            opts.damping * msg[2 * slot + 1] + (1.0 - opts.damping) * out1;
      }
    }
  };

  size_t threads = std::min<size_t>(EffectiveThreads(opts.num_threads), n);
  bool parallel = threads > 1 && n >= kMinParallelVars;
  SweepScratch scratch(graph.max_degree);

  for (uint32_t iter = 0; iter < opts.max_iters; ++iter) {
    if (!parallel) {
      sweep(0, n, scratch);
    } else {
      ThreadPool::Global().ParallelForChunked(
          n, threads, [&](size_t, size_t begin, size_t end) {
            SweepScratch t(graph.max_degree);
            sweep(begin, end, t);
          });
    }
    msg.swap(next);
  }
  result.message_updates =
      static_cast<uint64_t>(opts.max_iters) * static_cast<uint64_t>(dir_edges);
  RecordRun(opts, obs::kBpKernelRunsScalar, result);

  // Beliefs. Hard 0/1 potentials (clamped evidence) stay hard because
  // the potential factor multiplies every belief.
  auto beliefs = [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      double b0 = pot[2 * v];
      double b1 = pot[2 * v + 1];
      for (size_t k = graph.off[v]; k < graph.off[v + 1]; ++k) {
        size_t rs = graph.rev_slot[k];
        b0 *= msg[2 * rs];
        b1 *= msg[2 * rs + 1];
        // Same exact rescale as the cavity fallback: keeps near-zero
        // potentials from flushing both belief factors to zero (which
        // would erase the marginal into the z <= 0 0.5 guard).
        if (std::max(b0, b1) < kRescaleLo && std::max(b0, b1) > 0.0) {
          b0 *= kRescaleUp;
          b1 *= kRescaleUp;
        }
      }
      double z = b0 + b1;
      result.p_up[v] = (z > 0.0 && std::isfinite(z)) ? b1 / z : 0.5;
    }
  };
  if (!parallel) {
    beliefs(0, n);
  } else {
    ThreadPool::Global().ParallelForChunked(
        n, threads,
        [&](size_t, size_t begin, size_t end) { beliefs(begin, end); });
  }
  return result;
}

BpResult InferMarginalsBpFlat(const BpGraph& graph,
                              const std::vector<double>& pot,
                              const BpOptions& opts) {
  if (opts.max_iters != 1 || !BpSimdKernelAvailable()) {
    return InferMarginalsBpScalar(graph, pot, opts);
  }
  TS_CHECK_GE(opts.damping, 0.0);
  TS_CHECK_LT(opts.damping, 1.0);
  TS_CHECK_EQ(pot.size(), 2 * graph.num_vars);
  TS_CHECK(graph.soa != nullptr);
  BpResult result = RunBpSweepsSimd(*graph.soa, pot.data(), opts);
  RecordRun(opts, obs::kBpKernelRunsSimd, result);
  return result;
}

BpResult InferMarginalsBp(const PairwiseMrf& mrf, const BpOptions& opts) {
  BpGraph graph = BpGraph::FromMrf(mrf);
  std::vector<double> pot(2 * mrf.num_vars());
  for (size_t v = 0; v < mrf.num_vars(); ++v) {
    pot[2 * v] = mrf.EffectivePotential(v, 0);
    pot[2 * v + 1] = mrf.EffectivePotential(v, 1);
  }
  return InferMarginalsBpFlat(graph, pot, opts);
}

}  // namespace trendspeed
