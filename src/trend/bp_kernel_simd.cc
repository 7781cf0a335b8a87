// Vectorized structure-of-arrays BP sweep kernel.
//
// Math contract vs the scalar oracle in belief_propagation.cc: identical
// update rule (damped sum-product, same z <= 0 guard, same damping blend,
// same number of sweeps), different arithmetic:
//
//   * single precision throughout, with per-variable potential
//     normalization (scale-invariant: messages and beliefs are normalized
//     per edge / per variable, so scaling a variable's potential pair
//     cancels);
//   * only the plane-0 message component is stored (messages are
//     normalized per edge, so msg1 == 1 - msg0 by construction) — the
//     plane-1 factors are reconstructed as (1 - m) where needed;
//   * three compat planes per edge instead of four (cA, cB, cC — see
//     bp_kernel.h): the contraction is out0 = cav0*cA + cav1*cB with
//     normalizer z = cav0 + cav1*cC, an exact per-edge reparameterization
//     of the 2x2 table that cancels in the normalization;
//   * cavity beliefs via prefix/suffix running products instead of the
//     scalar divide-and-fall-back — no division, no underflow branch, and
//     a masked power-of-two rescale (exact in binary FP) keeps the running
//     products out of the subnormal range on deep products;
//   * FMA contraction, with two same-degree batches interleaved per inner
//     loop so the four running-product chains hide each other's multiply
//     latency;
//   * sweep 1 as a closed-form map of the potentials and compat planes
//     (FirstSweepBatchRange): from the all-0.5 start every cavity is the
//     potential pair times a power of two that cancels, so the map equals
//     the general sweep bit for bit while the scaled cavities stay normal
//     floats (docs/performance.md, §Tolerance contract).
//
// The first three are also the bandwidth story: at 100k+ variables the
// sweep streams its planes from L3/DRAM, and dropping one message plane and
// one compat plane is worth more than any extra ALU width — see the
// roofline section of docs/performance.md.
//
// Products reassociate and round differently, so marginals agree with the
// scalar kernel within 1e-3, not bitwise — the contract BpOptions::kernel
// documents and tests/bp_kernel_test.cc pins.
//
// ISA safety: every function that touches F32x8 carries TS_SIMD_TARGET
// (see util/simd.h); this TU is compiled WITHOUT -mavx2 so all remaining
// code is baseline-ISA, and the kernel only runs behind the
// BpSimdKernelAvailable() runtime check. Off x86-64 the TU is a stub whose
// BpSimdKernelAvailable() is false.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "trend/bp_kernel.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace trendspeed {

#if TS_SIMD_ARCH_AVX2

namespace {

using simd::F32x8;

/// Running prefix/suffix products are rescaled (both planes, same lanes)
/// when max(plane0, plane1) of any lane drops below 2^-60; the 2^64 factor
/// is a power of two, so the rescale is exact and cancels in the per-edge
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

/// Slot base + lane variables of one lockstep batch.
struct BatchCtx {
  size_t base;
  const uint32_t* vars;
};

/// One Jacobi half-sweep over TWO same-degree batches, interleaved
/// instruction-by-instruction. The running prefix/suffix products are
/// serial multiply chains (each step needs the previous one), so a single
/// batch leaves the FMA pipes mostly idle; two batches give four
/// independent chains, which is enough to hide the multiply latency.
/// Each batch's arithmetic only reads its own data, so the per-batch
/// results are bitwise identical to processing the batches one at a time —
/// pairing is a pure ILP transform and chunk boundaries cannot change it.
TS_SIMD_TARGET void SweepBatchPair(const BpGraphSoa& soa, BatchCtx a,
                                   BatchCtx b, uint32_t deg,
                                   const float* pot0, const float* pot1,
                                   const float* msg0, float* nxt0, F32x8 vd,
                                   F32x8 vomd) {
  const F32x8 one = simd::Broadcast(1.0f);
  const F32x8 half = simd::Broadcast(0.5f);
  F32x8 in0a[BpGraphSoa::kMaxBatchDegree],
      pre0a[BpGraphSoa::kMaxBatchDegree], pre1a[BpGraphSoa::kMaxBatchDegree];
  F32x8 in0b[BpGraphSoa::kMaxBatchDegree],
      pre0b[BpGraphSoa::kMaxBatchDegree], pre1b[BpGraphSoa::kMaxBatchDegree];
  F32x8 p0a = simd::Gather(pot0, a.vars), p1a = simd::Gather(pot1, a.vars);
  F32x8 p0b = simd::Gather(pot0, b.vars), p1b = simd::Gather(pot1, b.vars);
  for (uint32_t k = 0; k < deg; ++k) {
    F32x8 ia = simd::Gather(msg0, &soa.rev[a.base + k * BpGraphSoa::kLanes]);
    F32x8 ib = simd::Gather(msg0, &soa.rev[b.base + k * BpGraphSoa::kLanes]);
    in0a[k] = ia;
    in0b[k] = ib;
    pre0a[k] = p0a;
    pre1a[k] = p1a;
    pre0b[k] = p0b;
    pre1b[k] = p1b;
    p0a = simd::Mul(p0a, ia);
    p1a = simd::Mul(p1a, simd::Sub(one, ia));
    p0b = simd::Mul(p0b, ib);
    p1b = simd::Mul(p1b, simd::Sub(one, ib));
    MaybeRescale(p0a, p1a);
    MaybeRescale(p0b, p1b);
  }
  F32x8 s0a = one, s1a = one, s0b = one, s1b = one;
  for (uint32_t k = deg; k-- > 0;) {
    // Cavity = prefix (everything before k) x suffix (everything after).
    // Prefix and suffix carry rescale factors, but within one k both
    // planes carry the same one, so the per-edge normalization below
    // cancels it.
    size_t ska = a.base + k * BpGraphSoa::kLanes;
    size_t skb = b.base + k * BpGraphSoa::kLanes;
    F32x8 c0a = simd::Mul(pre0a[k], s0a);
    F32x8 c1a = simd::Mul(pre1a[k], s1a);
    F32x8 c0b = simd::Mul(pre0b[k], s0b);
    F32x8 c1b = simd::Mul(pre1b[k], s1b);
    F32x8 o0a = simd::Fma(c0a, simd::Load(&soa.cA[ska]),
                          simd::Mul(c1a, simd::Load(&soa.cB[ska])));
    F32x8 za = simd::Fma(c1a, simd::Load(&soa.cC[ska]), c0a);
    F32x8 o0b = simd::Fma(c0b, simd::Load(&soa.cA[skb]),
                          simd::Mul(c1b, simd::Load(&soa.cB[skb])));
    F32x8 zb = simd::Fma(c1b, simd::Load(&soa.cC[skb]), c0b);
    F32x8 oka = NormOkMask(za), okb = NormOkMask(zb);
    F32x8 r0a = simd::Blend(oka, simd::Div(o0a, za), half);
    F32x8 r0b = simd::Blend(okb, simd::Div(o0b, zb), half);
    F32x8 olda = simd::Load(&msg0[ska]), oldb = simd::Load(&msg0[skb]);
    simd::Store(&nxt0[ska], simd::Fma(vd, olda, simd::Mul(vomd, r0a)));
    simd::Store(&nxt0[skb], simd::Fma(vd, oldb, simd::Mul(vomd, r0b)));
    F32x8 ia = in0a[k], ib = in0b[k];
    s0a = simd::Mul(s0a, ia);
    s1a = simd::Mul(s1a, simd::Sub(one, ia));
    s0b = simd::Mul(s0b, ib);
    s1b = simd::Mul(s1b, simd::Sub(one, ib));
    MaybeRescale(s0a, s1a);
    MaybeRescale(s0b, s1b);
  }
}

/// Single-batch variant for the odd batch at the end of a degree run or
/// chunk. Same arithmetic as one half of SweepBatchPair.
TS_SIMD_TARGET void SweepBatchOne(const BpGraphSoa& soa, BatchCtx a,
                                  uint32_t deg, const float* pot0,
                                  const float* pot1, const float* msg0,
                                  float* nxt0, F32x8 vd, F32x8 vomd) {
  const F32x8 one = simd::Broadcast(1.0f);
  const F32x8 half = simd::Broadcast(0.5f);
  F32x8 in0s[BpGraphSoa::kMaxBatchDegree], pre0s[BpGraphSoa::kMaxBatchDegree],
      pre1s[BpGraphSoa::kMaxBatchDegree];
  F32x8 p0 = simd::Gather(pot0, a.vars), p1 = simd::Gather(pot1, a.vars);
  for (uint32_t k = 0; k < deg; ++k) {
    F32x8 i0 = simd::Gather(msg0, &soa.rev[a.base + k * BpGraphSoa::kLanes]);
    in0s[k] = i0;
    pre0s[k] = p0;
    pre1s[k] = p1;
    p0 = simd::Mul(p0, i0);
    p1 = simd::Mul(p1, simd::Sub(one, i0));
    MaybeRescale(p0, p1);
  }
  F32x8 s0 = one, s1 = one;
  for (uint32_t k = deg; k-- > 0;) {
    size_t sk = a.base + k * BpGraphSoa::kLanes;
    F32x8 c0 = simd::Mul(pre0s[k], s0);
    F32x8 c1 = simd::Mul(pre1s[k], s1);
    F32x8 o0 = simd::Fma(c0, simd::Load(&soa.cA[sk]),
                         simd::Mul(c1, simd::Load(&soa.cB[sk])));
    F32x8 z = simd::Fma(c1, simd::Load(&soa.cC[sk]), c0);
    F32x8 r0 = simd::Blend(NormOkMask(z), simd::Div(o0, z), half);
    simd::Store(&nxt0[sk],
                simd::Fma(vd, simd::Load(&msg0[sk]), simd::Mul(vomd, r0)));
    F32x8 i0 = in0s[k];
    s0 = simd::Mul(s0, i0);
    s1 = simd::Mul(s1, simd::Sub(one, i0));
    MaybeRescale(s0, s1);
  }
}

/// One Jacobi half-sweep over the lockstep batches [b0, b1): reads msg0,
/// writes nxt0 (slots of these batches only — disjoint across chunks).
/// Consecutive same-degree batches are paired for ILP (see SweepBatchPair —
/// per-batch results do not depend on the pairing, so any chunking stays
/// bitwise deterministic).
TS_SIMD_TARGET void SweepBatchRange(const BpGraphSoa& soa, size_t b0,
                                    size_t b1, const float* pot0,
                                    const float* pot1, const float* msg0,
                                    float* nxt0, float damp, float omd) {
  const F32x8 vd = simd::Broadcast(damp);
  const F32x8 vomd = simd::Broadcast(omd);
  auto ctx = [&](size_t b) {
    return BatchCtx{soa.batches[b].slot_base,
                    &soa.batch_var[b * BpGraphSoa::kLanes]};
  };
  size_t b = b0;
  while (b < b1) {
    uint32_t deg = soa.batches[b].deg;
    if (b + 1 < b1 && soa.batches[b + 1].deg == deg) {
      SweepBatchPair(soa, ctx(b), ctx(b + 1), deg, pot0, pot1, msg0, nxt0,
                     vd, vomd);
      b += 2;
    } else {
      SweepBatchOne(soa, ctx(b), deg, pot0, pot1, msg0, nxt0, vd, vomd);
      b += 1;
    }
  }
}

/// Scalar single-precision mirror of the batch sweep for the spill list
/// (bucket remainders, hubs above kMaxBatchDegree, ill-conditioned compat).
/// Same prefix/suffix cavity math, one variable at a time, against the raw
/// 4-entry compat tables (spill_c*, indexed slot - spill_slot_base) since
/// the 3-plane form's conditioning precondition does not hold here.
void SweepSpill(const BpGraphSoa& soa, const float* pot0, const float* pot1,
                const float* msg0, float* nxt0, float damp, float omd,
                std::vector<float>& s_in0, std::vector<float>& s_pre0,
                std::vector<float>& s_pre1) {
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    if (sv.deg == 0) continue;
    float pre0 = pot0[sv.var];
    float pre1 = pot1[sv.var];
    for (uint32_t k = 0; k < sv.deg; ++k) {
      uint32_t rs = soa.rev[sv.slot0 + k];
      s_in0[k] = msg0[rs];
      s_pre0[k] = pre0;
      s_pre1[k] = pre1;
      pre0 *= s_in0[k];
      pre1 *= 1.0f - s_in0[k];
      if (std::max(pre0, pre1) < kRescaleLo) {
        pre0 *= kRescaleUp;
        pre1 *= kRescaleUp;
      }
    }
    float suf0 = 1.0f, suf1 = 1.0f;
    for (uint32_t k = sv.deg; k-- > 0;) {
      float cav0 = s_pre0[k] * suf0;
      float cav1 = s_pre1[k] * suf1;
      size_t slot = sv.slot0 + k;
      size_t ci = slot - soa.spill_slot_base;
      float out0 = cav0 * soa.spill_c00[ci] + cav1 * soa.spill_c10[ci];
      float out1 = cav0 * soa.spill_c01[ci] + cav1 * soa.spill_c11[ci];
      float z = out0 + out1;
      float r0 = (z > 0.0f && z < std::numeric_limits<float>::max())
                     ? out0 / z
                     : 0.5f;
      nxt0[slot] = damp * msg0[slot] + omd * r0;
      suf0 *= s_in0[k];
      suf1 *= 1.0f - s_in0[k];
      if (std::max(suf0, suf1) < kRescaleLo) {
        suf0 *= kRescaleUp;
        suf1 *= kRescaleUp;
      }
    }
  }
}

/// Sweep 1 from the cold start over the lockstep batches [b0, b1), writing
/// msg0 directly. With every incoming message at 0.5, the cavity of slot k
/// is the variable's potential pair times 2^-(deg-1) (times the prefix and
/// suffix rescales, also powers of two): one common power of two on both
/// planes, which multiplies out0 and z alike and cancels exactly in r0 as
/// long as the scaled cavity stays a normal float. So r0 is a map of the
/// variable's potentials and the slot's compat planes — same FMA shape as
/// SweepBatchOne, no gather, no running products — and the damping blend
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

/// The spill list's sweep 1 from the cold start: SweepSpill's arithmetic
/// with the common power of two dropped from the cavity (see
/// FirstSweepBatchRange), against the raw 4-entry tables.
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
  AlignedVector<float> pot0, pot1, msg0, nxt0;
  std::vector<float> spill_in0, spill_pre0, spill_pre1;
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

void RunBpSweepsSimd(const BpSimdRun& run) {
  TS_CHECK(run.soa != nullptr);
  TS_CHECK(run.opts != nullptr);
  TS_CHECK(run.result != nullptr);
  TS_CHECK(BpSimdKernelAvailable());
  const BpGraphSoa& soa = *run.soa;
  const BpOptions& opts = *run.opts;
  const size_t n = soa.num_vars;
  TS_CHECK(run.pot != nullptr || n == 0);  // empty pot vectors may be null
  const size_t slots = soa.num_slots;

  BpResult& result = *run.result;
  result.p_up.assign(n, 0.5);
  if (n == 0) return;

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
    double p0 = run.pot[2 * v];
    double p1 = run.pot[2 * v + 1];
    double m = std::max(p0, p1);
    if (m > 0.0 && std::isfinite(m)) {
      p0 /= m;
      p1 /= m;
    }
    pot0[v] = static_cast<float>(p0);
    pot1[v] = static_cast<float>(p1);
  }

  // Plane-0 message array in SoA order. Sweep 1 starts from all-0.5
  // messages and writes every slot of msg0 with the closed-form map, so
  // neither the cold plane nor a second one is materialized for it; sweeps
  // 2..S run the general sweep into nxt0, which each of them writes in
  // full. A zero-sweep run reads the cold plane itself.
  AlignedVector<float>& msg0 = scratch.msg0;
  AlignedVector<float>& nxt0 = scratch.nxt0;
  if (opts.max_iters == 0) {
    msg0.assign(slots, 0.5f);
  } else {
    msg0.resize(slots);
  }
  if (opts.max_iters > 1) nxt0.resize(slots);

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

  if (opts.max_iters > 0) {
    for_units([&](size_t begin, size_t end) {
      size_t batch_end = std::min(end, num_batches);
      if (begin < batch_end) {
        FirstSweepBatchRange(soa, begin, batch_end, pot0.data(), pot1.data(),
                             msg0.data(), damp, omd);
      }
      if (end > num_batches) {
        FirstSweepSpill(soa, pot0.data(), pot1.data(), msg0.data(), damp,
                        omd);
      }
    });
  }

  // The spill list is a single work unit, so exactly one chunk per sweep
  // uses the spill scratch.
  size_t max_spill_deg = 0;
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    max_spill_deg = std::max<size_t>(max_spill_deg, sv.deg);
  }
  std::vector<float>& sp_in0 = scratch.spill_in0;
  std::vector<float>& sp_pre0 = scratch.spill_pre0;
  std::vector<float>& sp_pre1 = scratch.spill_pre1;
  sp_in0.resize(max_spill_deg);
  sp_pre0.resize(max_spill_deg);
  sp_pre1.resize(max_spill_deg);

  for (uint32_t iter = 1; iter < opts.max_iters; ++iter) {
    for_units([&](size_t begin, size_t end) {
      size_t batch_end = std::min(end, num_batches);
      if (begin < batch_end) {
        SweepBatchRange(soa, begin, batch_end, pot0.data(), pot1.data(),
                        msg0.data(), nxt0.data(), damp, omd);
      }
      if (end > num_batches) {
        SweepSpill(soa, pot0.data(), pot1.data(), msg0.data(), nxt0.data(),
                   damp, omd, sp_in0, sp_pre0, sp_pre1);
      }
    });
    msg0.swap(nxt0);
  }
  result.message_updates =
      static_cast<uint64_t>(opts.max_iters) * static_cast<uint64_t>(slots);

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
}

#else  // no SIMD kernel off x86-64: kAuto runs the scalar oracle

bool BpSimdKernelAvailable() { return false; }

const char* BpSimdArchName() { return "none"; }

void RunBpSweepsSimd(const BpSimdRun&) {
  TS_CHECK(false) << "no SIMD BP kernel on this architecture";
}

#endif  // TS_SIMD_ARCH_AVX2

}  // namespace trendspeed
