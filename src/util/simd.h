// 8-lane single-precision SIMD wrapper over AVX2 + FMA.
//
// One fixed batch shape — F32x8, eight floats — compiled only on x86-64
// with GCC/Clang (TS_SIMD_ARCH_AVX2); elsewhere this header defines
// nothing, and trend/bp_kernel_simd.cc compiles to a stub whose
// BpSimdKernelAvailable() is false, so every BP run takes the scalar
// oracle.
//
// Every wrapper function carries __attribute__((target("avx2,fma"))), so
// AVX2 instructions are emitted only inside functions that explicitly opted
// in via TS_SIMD_INLINE — the surrounding TU (and every header-inline it
// instantiates) stays baseline-ISA. That is what makes runtime dispatch
// safe: no -mavx2 compile flag ever leaks AVX2 code into a symbol the linker
// might pick for a non-AVX2 host (the classic fat-TU ODR trap). Callers must
// themselves be TS_SIMD_INLINE/TS_SIMD_TARGET functions and must only run
// after a runtime __builtin_cpu_supports("avx2") check (see
// trend/bp_kernel.h BpSimdKernelAvailable).
//
// The wrapper deliberately exposes only what the BP kernel needs: aligned
// load/store, broadcast, +-*/ and FMA, max, a gather, a >-mask with blend,
// and an any-lane-below test. Semantics notes:
//   * Blend(mask, a, b) takes the *a* lane where the mask is set.
//   * CmpGt builds a full-lane mask (all bits set where a > b); with NaN the
//     comparison is false, so NaN z-values fall to the blend's b-side — the
//     property the kernel's z > 0 guard relies on.

#ifndef TRENDSPEED_UTIL_SIMD_H_
#define TRENDSPEED_UTIL_SIMD_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TS_SIMD_ARCH_AVX2 1

#include <immintrin.h>

#include <cstdint>

// Functions containing AVX2/FMA intrinsics (and everything inlined into
// them) must carry this attribute; always_inline turns a missed inline into
// a compile error instead of a silent baseline-ISA call into AVX2 code.
#define TS_SIMD_TARGET __attribute__((target("avx2,fma")))
#define TS_SIMD_INLINE TS_SIMD_TARGET __attribute__((always_inline)) inline

namespace trendspeed {
namespace simd {

using F32x8 = __m256;

TS_SIMD_INLINE F32x8 Load(const float* p) { return _mm256_load_ps(p); }
TS_SIMD_INLINE void Store(float* p, F32x8 v) { _mm256_store_ps(p, v); }
TS_SIMD_INLINE F32x8 Broadcast(float x) { return _mm256_set1_ps(x); }
TS_SIMD_INLINE F32x8 Zero() { return _mm256_setzero_ps(); }
/// v[i] = base[idx[i]]; idx must hold 8 contiguous uint32 indices.
TS_SIMD_INLINE F32x8 Gather(const float* base, const uint32_t* idx) {
  __m256i vidx =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(idx));
  return _mm256_i32gather_ps(base, vidx, 4);
}
TS_SIMD_INLINE F32x8 Add(F32x8 a, F32x8 b) { return _mm256_add_ps(a, b); }
TS_SIMD_INLINE F32x8 Sub(F32x8 a, F32x8 b) { return _mm256_sub_ps(a, b); }
TS_SIMD_INLINE F32x8 Mul(F32x8 a, F32x8 b) { return _mm256_mul_ps(a, b); }
TS_SIMD_INLINE F32x8 Div(F32x8 a, F32x8 b) { return _mm256_div_ps(a, b); }
/// a * b + c.
TS_SIMD_INLINE F32x8 Fma(F32x8 a, F32x8 b, F32x8 c) {
  return _mm256_fmadd_ps(a, b, c);
}
TS_SIMD_INLINE F32x8 Max(F32x8 a, F32x8 b) { return _mm256_max_ps(a, b); }
/// All-bits lane mask, set where a > b (false for NaN operands).
TS_SIMD_INLINE F32x8 CmpGt(F32x8 a, F32x8 b) {
  return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
}
/// mask-set lanes take a, the rest take b.
TS_SIMD_INLINE F32x8 Blend(F32x8 mask, F32x8 a, F32x8 b) {
  return _mm256_blendv_ps(b, a, mask);
}
/// True when any lane of v is below `bound` (NaN lanes excluded).
TS_SIMD_INLINE bool AnyLt(F32x8 v, float bound) {
  __m256 m = _mm256_cmp_ps(v, _mm256_set1_ps(bound), _CMP_LT_OQ);
  return _mm256_movemask_ps(m) != 0;
}

}  // namespace simd
}  // namespace trendspeed

#endif  // TS_SIMD_ARCH_AVX2

#endif  // TRENDSPEED_UTIL_SIMD_H_
