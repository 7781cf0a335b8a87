// Vectorized structure-of-arrays BP kernel for the served schedule: one
// sweep from all-0.5 messages, then the beliefs (BpOptions::max_iters == 1).
//
// Math contract vs the scalar oracle (InferMarginalsBpScalar): the same
// update rule (damped sum-product, same z <= 0 guard, same damping blend),
// different arithmetic:
//
//   * single precision throughout, with per-variable potential
//     normalization (scale-invariant: messages and beliefs are normalized
//     per edge / per variable, so scaling a variable's potential pair
//     cancels);
//   * only the plane-0 message component is stored (messages are
//     normalized per edge, so msg1 == 1 - msg0 by construction) — the
//     plane-1 factors are reconstructed as (1 - m) where needed;
//   * three compat planes per edge instead of four (cA, cB, cC — see
//     bp_kernel.h): the contraction is out0 = p0*cA + p1*cB with
//     normalizer z = p0 + p1*cC, an exact per-edge reparameterization
//     of the 2x2 table that cancels in the normalization;
//   * the sweep as a closed-form map of the potentials and compat planes
//     (FirstSweepBatchRange): from the all-0.5 start every cavity is the
//     potential pair times a power of two that cancels, so no message is
//     gathered and no cavity product is formed (docs/performance.md,
//     §Tolerance contract);
//   * FMA contraction in the batches, and a masked power-of-two rescale
//     (exact in binary FP) that keeps the belief products out of the
//     subnormal range on high degrees.
//
// Products round differently, so marginals agree with the oracle within
// 1e-3, not bitwise — the contract tests/bp_kernel_test.cc pins.
//
// ISA safety: every function that touches F32x8 carries TS_SIMD_TARGET
// (see util/simd.h); this TU is compiled WITHOUT -mavx2 so all remaining
// code is baseline-ISA, and the kernel only runs behind the
// BpSimdKernelAvailable() runtime check. Off x86-64 the TU is a stub whose
// BpSimdKernelAvailable() is false.

#include <algorithm>
#include <cmath>
#include <limits>

#include "trend/bp_kernel.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace trendspeed {

#if TS_SIMD_ARCH_AVX2

namespace {

using simd::F32x8;

/// Running belief products are rescaled (both planes, same lanes) when
/// max(plane0, plane1) of any lane drops below 2^-60; the 2^64 factor is a
/// power of two, so the rescale is exact and cancels in the per-variable
/// normalization. Rescaled lanes land in (2^-60, 16], so repeated rescales
/// cannot overflow lanes that did not ask for one.
constexpr float kRescaleLo = 0x1p-60f;
constexpr float kRescaleUp = 0x1p+64f;

TS_SIMD_INLINE F32x8 MaskAnd(F32x8 a, F32x8 b) {
  // Blend(a, b, 0-bits): a-set lanes take b's full mask, the rest all-zero.
  return simd::Blend(a, b, simd::Zero());
}

/// ok-lane mask for a normalizer: z > 0 and finite (z < FLT_MAX rejects
/// +inf and, via the ordered compare, NaN) — the scalar guard, lanewise.
TS_SIMD_INLINE F32x8 NormOkMask(F32x8 z) {
  return MaskAnd(
      simd::CmpGt(z, simd::Zero()),
      simd::CmpGt(simd::Broadcast(std::numeric_limits<float>::max()), z));
}

TS_SIMD_INLINE void MaybeRescale(F32x8& a, F32x8& b) {
  F32x8 m = simd::Max(a, b);
  if (simd::AnyLt(m, kRescaleLo)) {
    F32x8 need = simd::CmpGt(simd::Broadcast(kRescaleLo), m);
    F32x8 f = simd::Blend(need, simd::Broadcast(kRescaleUp),
                          simd::Broadcast(1.0f));
    a = simd::Mul(a, f);
    b = simd::Mul(b, f);
  }
}

/// The sweep from the cold start over the lockstep batches [b0, b1),
/// writing msg0 directly. With every incoming message at 0.5, the cavity
/// of slot k is the variable's potential pair times 2^-(deg-1): one common
/// power of two on both planes, which multiplies out0 and z alike and
/// cancels exactly in r0 as long as the scaled cavity stays a normal
/// float. So r0 is a map of the variable's potentials and the slot's
/// compat planes — no gather, no running products — and the damping blend
/// reads the cold 0.5 as a constant.
TS_SIMD_TARGET void FirstSweepBatchRange(const BpGraphSoa& soa, size_t b0,
                                         size_t b1, const float* pot0,
                                         const float* pot1, float* msg0,
                                         float damp, float omd) {
  const F32x8 half = simd::Broadcast(0.5f);
  const F32x8 vd = simd::Broadcast(damp);
  const F32x8 vomd = simd::Broadcast(omd);
  for (size_t b = b0; b < b1; ++b) {
    uint32_t deg = soa.batches[b].deg;
    size_t base = soa.batches[b].slot_base;
    const uint32_t* vars = &soa.batch_var[b * BpGraphSoa::kLanes];
    F32x8 p0 = simd::Gather(pot0, vars), p1 = simd::Gather(pot1, vars);
    for (uint32_t k = 0; k < deg; ++k) {
      size_t sk = base + k * BpGraphSoa::kLanes;
      F32x8 o0 = simd::Fma(p0, simd::Load(&soa.cA[sk]),
                           simd::Mul(p1, simd::Load(&soa.cB[sk])));
      F32x8 z = simd::Fma(p1, simd::Load(&soa.cC[sk]), p0);
      F32x8 r0 = simd::Blend(NormOkMask(z), simd::Div(o0, z), half);
      simd::Store(&msg0[sk], simd::Fma(vd, half, simd::Mul(vomd, r0)));
    }
  }
}

/// The spill list's sweep from the cold start (bucket remainders, hubs above
/// kMaxBatchDegree, ill-conditioned compat): FirstSweepBatchRange's map in
/// plain float operations, against the raw 4-entry tables (spill_c*,
/// indexed slot - spill_slot_base), since the 3-plane form's conditioning
/// precondition does not hold here.
void FirstSweepSpill(const BpGraphSoa& soa, const float* pot0,
                     const float* pot1, float* msg0, float damp, float omd) {
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    const float p0 = pot0[sv.var];
    const float p1 = pot1[sv.var];
    for (uint32_t k = 0; k < sv.deg; ++k) {
      size_t slot = sv.slot0 + k;
      size_t ci = slot - soa.spill_slot_base;
      float out0 = p0 * soa.spill_c00[ci] + p1 * soa.spill_c10[ci];
      float out1 = p0 * soa.spill_c01[ci] + p1 * soa.spill_c11[ci];
      float z = out0 + out1;
      float r0 = (z > 0.0f && z < std::numeric_limits<float>::max())
                     ? out0 / z
                     : 0.5f;
      msg0[slot] = damp * 0.5f + omd * r0;
    }
  }
}

TS_SIMD_TARGET void BeliefsBatchRange(const BpGraphSoa& soa, size_t b0,
                                      size_t b1, const float* pot0,
                                      const float* pot1, const float* msg0,
                                      double* p_up) {
  const F32x8 one = simd::Broadcast(1.0f);
  const F32x8 half = simd::Broadcast(0.5f);
  for (size_t b = b0; b < b1; ++b) {
    uint32_t deg = soa.batches[b].deg;
    size_t base = soa.batches[b].slot_base;
    const uint32_t* vars = &soa.batch_var[b * BpGraphSoa::kLanes];
    F32x8 bel0 = simd::Gather(pot0, vars);
    F32x8 bel1 = simd::Gather(pot1, vars);
    for (uint32_t k = 0; k < deg; ++k) {
      F32x8 i0 = simd::Gather(msg0, &soa.rev[base + k * BpGraphSoa::kLanes]);
      bel0 = simd::Mul(bel0, i0);
      bel1 = simd::Mul(bel1, simd::Sub(one, i0));
      MaybeRescale(bel0, bel1);
    }
    F32x8 z = simd::Add(bel0, bel1);
    F32x8 p = simd::Blend(NormOkMask(z), simd::Div(bel1, z), half);
    alignas(64) float lanes[BpGraphSoa::kLanes];
    simd::Store(lanes, p);
    for (uint32_t lane = 0; lane < BpGraphSoa::kLanes; ++lane) {
      p_up[vars[lane]] = static_cast<double>(lanes[lane]);
    }
  }
}

void BeliefsSpill(const BpGraphSoa& soa, const float* pot0, const float* pot1,
                  const float* msg0, double* p_up) {
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    float b0 = pot0[sv.var];
    float b1 = pot1[sv.var];
    for (uint32_t k = 0; k < sv.deg; ++k) {
      float in0 = msg0[soa.rev[sv.slot0 + k]];
      b0 *= in0;
      b1 *= 1.0f - in0;
      if (std::max(b0, b1) < kRescaleLo) {
        b0 *= kRescaleUp;
        b1 *= kRescaleUp;
      }
    }
    float z = b0 + b1;
    p_up[sv.var] =
        (z > 0.0f && z < std::numeric_limits<float>::max())
            ? static_cast<double>(b1 / z)
            : 0.5;
  }
}

/// The buffers of one run. Each calling thread keeps one set and reuses it
/// for every run, so a served slot overwrites warm pages instead of
/// faulting in fresh planes. A pool worker has its own (empty) copy of a
/// thread_local, so the run binds these buffers to references on the
/// calling thread before any parallel region and hands the references in.
struct RunScratch {
  AlignedVector<float> pot0, pot1, msg0;
};

RunScratch& CallerScratch() {
  thread_local RunScratch scratch;
  return scratch;
}

}  // namespace

bool BpSimdKernelAvailable() {
  static const bool available =
      static_cast<bool>(__builtin_cpu_supports("avx2")) &&
      static_cast<bool>(__builtin_cpu_supports("fma"));
  return available;
}

const char* BpSimdArchName() { return "avx2"; }

BpResult RunBpSweepsSimd(const BpGraphSoa& soa, const double* pot,
                         const BpOptions& opts) {
  TS_CHECK(BpSimdKernelAvailable());
  TS_CHECK_EQ(opts.max_iters, 1u);
  const size_t n = soa.num_vars;
  TS_CHECK(pot != nullptr || n == 0);  // empty pot vectors may be null
  const size_t slots = soa.num_slots;

  BpResult result;
  result.p_up.assign(n, 0.5);
  if (n == 0) return result;

  // Per-variable potential planes, normalized by the pair max in double
  // before the float cast. Scale-invariant (see file comment); hard 0/1
  // evidence pairs stay exactly hard, and all-zero pairs stay zero so the
  // z <= 0 guard fires exactly like the scalar path.
  RunScratch& scratch = CallerScratch();
  AlignedVector<float>& pot0 = scratch.pot0;
  AlignedVector<float>& pot1 = scratch.pot1;
  pot0.resize(n);
  pot1.resize(n);
  for (size_t v = 0; v < n; ++v) {
    double p0 = pot[2 * v];
    double p1 = pot[2 * v + 1];
    double m = std::max(p0, p1);
    if (m > 0.0 && std::isfinite(m)) {
      p0 /= m;
      p1 /= m;
    }
    pot0[v] = static_cast<float>(p0);
    pot1[v] = static_cast<float>(p1);
  }

  // Plane-0 message array in SoA order. The sweep starts from all-0.5
  // messages and writes every slot of msg0 with the closed-form map, so the
  // cold plane is never materialized.
  AlignedVector<float>& msg0 = scratch.msg0;
  msg0.resize(slots);

  const float damp = static_cast<float>(opts.damping);
  const float omd = static_cast<float>(1.0 - opts.damping);

  // Work units: one per lockstep batch plus one for the whole spill list
  // (at most kLanes-1 variables per degree bucket plus the rare hubs —
  // negligible next to the batches).
  const size_t num_batches = soa.batches.size();
  const size_t units = num_batches + (soa.spill.empty() ? 0 : 1);
  size_t threads = std::min<size_t>(EffectiveThreads(opts.num_threads),
                                    std::max<size_t>(units, 1));
  const bool parallel = threads > 1 && n >= kMinParallelVars;

  // Runs fn(begin, end) over all work units, serially or chunked on the
  // pool. Every unit computes identically regardless of which chunk runs
  // it, so — like the scalar path — marginals are bitwise deterministic
  // for any thread count.
  auto for_units = [&](auto&& fn) {
    if (!parallel) {
      fn(size_t{0}, units);
    } else {
      ThreadPool::Global().ParallelForChunked(
          units, threads,
          [&](size_t, size_t begin, size_t end) { fn(begin, end); });
    }
  };

  for_units([&](size_t begin, size_t end) {
    size_t batch_end = std::min(end, num_batches);
    if (begin < batch_end) {
      FirstSweepBatchRange(soa, begin, batch_end, pot0.data(), pot1.data(),
                           msg0.data(), damp, omd);
    }
    if (end > num_batches) {
      FirstSweepSpill(soa, pot0.data(), pot1.data(), msg0.data(), damp, omd);
    }
  });
  result.message_updates = slots;

  for_units([&](size_t begin, size_t end) {
    size_t batch_end = std::min(end, num_batches);
    if (begin < batch_end) {
      BeliefsBatchRange(soa, begin, batch_end, pot0.data(), pot1.data(),
                        msg0.data(), result.p_up.data());
    }
    if (end > num_batches) {
      BeliefsSpill(soa, pot0.data(), pot1.data(), msg0.data(),
                   result.p_up.data());
    }
  });
  return result;
}

#else  // no SIMD kernel off x86-64: every run takes the scalar oracle

bool BpSimdKernelAvailable() { return false; }

const char* BpSimdArchName() { return "none"; }

BpResult RunBpSweepsSimd(const BpGraphSoa&, const double*, const BpOptions&) {
  TS_CHECK(false) << "no SIMD BP kernel on this architecture";
  return {};
}

#endif  // TS_SIMD_ARCH_AVX2

}  // namespace trendspeed
