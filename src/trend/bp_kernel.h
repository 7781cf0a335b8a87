// Structure-of-arrays BP message layout and the vectorized sweep kernel.
//
// The scalar path in belief_propagation.cc stores messages interleaved
// (msg[2*slot], msg[2*slot+1]) in build order, which makes every vector
// load a stride-2 shuffle and every variable a variable-length serial loop.
// BpGraphSoa rearranges the same directed-edge structure for lockstep
// batches:
//
//   * block-then-degree variable order: variables are cut into locality
//     blocks of kLocalityBlock consecutive ids, grouped by degree inside
//     each block, and packed into batches of kLanes (8) same-degree
//     variables of one block that update in lockstep, one SIMD lane each.
//     Graph builders number neighbouring roads close together, so a
//     thread's contiguous run of batches mostly gathers, in the belief
//     pass, messages that it wrote itself in the sweep;
//   * k-major batch slots: the k-th edge of all 8 batch variables is
//     contiguous (slot_base + k*8 + lane), so the incoming-message gather
//     indices, the compat planes, and the outgoing-message stores of one
//     k-step are all single aligned vector accesses;
//   * single message plane: messages are normalized per edge, so only the
//     plane-0 component is stored (msg1 == 1 - msg0 by construction), in
//     one 64-byte-aligned float array (util/aligned.h) — a batch touches
//     one contiguous cache stream instead of a strided pair;
//   * three compat planes instead of four: each 2x2 table is divided by
//     its row-0 sum R0 = c00 + c01 (an exact scalar reparameterization —
//     BP messages are normalized per edge, so any positive per-edge scale
//     cancels), leaving cA = c00/R0, cB = c10/R0, cC = R1/R0 with the
//     contraction out0 = cav0*cA + cav1*cB, z = cav0 + cav1*cC and
//     r0 = out0/z identical to the 4-plane form in exact arithmetic;
//   * spill list: per-block, per-degree remainders (< 8 variables),
//     zero-degree variables, degree > kMaxBatchDegree outliers, and
//     variables whose compat tables are too ill-conditioned for the
//     3-plane form (row-sum ratio R1/R0 above kMaxCompatRowRatio, which
//     would overflow cB/cC in float) run through a scalar single-precision
//     loop that keeps the raw 4-entry tables.
//
// The kernel (bp_kernel_simd.cc) runs the served one-sweep schedule only:
// from the all-0.5 cold start the sweep is a closed-form map of the
// potentials and compat planes, followed by the belief pass.
// InferMarginalsBpFlat runs it when max_iters == 1 and the CPU can (see
// BpSimdKernelAvailable below and docs/performance.md); every other run
// takes the scalar oracle.

#ifndef TRENDSPEED_TREND_BP_KERNEL_H_
#define TRENDSPEED_TREND_BP_KERNEL_H_

#include <cstdint>
#include <vector>

#include "trend/belief_propagation.h"
#include "util/aligned.h"

namespace trendspeed {

/// Below this variable count a BP sweep is a few hundred microseconds at
/// most and pool handoff costs more than the parallel win, so both kernels
/// run serially.
inline constexpr size_t kMinParallelVars = 4096;

struct BpGraphSoa {
  /// Lanes per lockstep batch: one AVX2 F32x8 (util/simd.h).
  static constexpr uint32_t kLanes = 8;
  /// Variables above this degree spill to the scalar list. The value is
  /// part of the served bits: a hub moved between a batch and the spill
  /// list rounds differently (FMA in batches, plain float operations on
  /// the spill list).
  static constexpr uint32_t kMaxBatchDegree = 64;
  /// Variables per locality block of the batch order (see file comment).
  /// Smaller blocks keep each thread's gathers closer to its own writes but
  /// leave more per-block remainders on the serial spill list (7,746 of
  /// 301,810 slots at 4096, 26,690 at 1024). Slot CPU p50 on perfbench
  /// metro_replay (39,600 roads, 4-vCPU Xeon, three runs each): 16.9-17.3
  /// ms at 1024, 15.6-15.8 ms at 4096, 15.8-17.3 ms at 16384, 16.5-19.3 ms
  /// as one block (degree order only). With the one-sweep kernel, one
  /// block still read 4.60 -> 4.87 ms (EXPERIMENTS.md M19).
  static constexpr uint32_t kLocalityBlock = 4096;
  /// Maximum compat row-sum ratio R1/R0 (with R0 = c00 + c01 and
  /// R1 = c10 + c11) for a variable to be batch-eligible: the 3-plane form
  /// stores cB = c10/R0 and cC = R1/R0, both bounded by R1/R0, and keeping
  /// the ratio at or below 2^98 keeps them — and the runtime normalizer
  /// z = cav0 + cav1*cC with rescale-bounded cavities — far below FLT_MAX.
  /// The condition is scale-invariant, matching the BP semantics (a
  /// per-edge scale on the table cancels in the message normalization).
  /// Tables past the bound (a >1e29 ratio between the two rows of one 2x2
  /// — not produced by any real correlation model) and tables whose row 0
  /// flushed to zero in BpGraph's float storage keep their raw 4-entry
  /// form on the spill path.
  static constexpr double kMaxCompatRowRatio = 0x1p+98;

  size_t num_vars = 0;
  size_t num_slots = 0;  ///< directed edges, == BpGraph::off.back()

  /// One entry per full lockstep batch; batch b owns the kLanes variables
  /// batch_var[b*kLanes ...] and the slot range [slot_base,
  /// slot_base + deg*kLanes) laid out k-major.
  struct Batch {
    uint32_t deg = 0;
    size_t slot_base = 0;
  };
  std::vector<Batch> batches;
  AlignedVector<uint32_t> batch_var;
  size_t num_batch_vars = 0;  ///< == batch_var.size(); num_vars - spill.size()

  /// Scalar-path variables: per-block bucket remainders, zero-degree
  /// variables, degree > kMaxBatchDegree outliers, and ill-conditioned-compat
  /// variables. Slots are var-major ([slot0, slot0 + deg)).
  struct SpillVar {
    uint32_t var = 0;
    uint32_t deg = 0;
    size_t slot0 = 0;
  };
  std::vector<SpillVar> spill;
  /// First spill slot; batch slots occupy [0, spill_slot_base).
  size_t spill_slot_base = 0;

  AlignedVector<uint32_t> rev;        ///< SoA slot of the reverse edge
  AlignedVector<uint32_t> orig_slot;  ///< SoA slot -> BpGraph slot
  /// Row-0-normalized compat planes for the batched slots (see file
  /// comment): cA = c00/R0, cB = c10/R0, cC = (c10+c11)/R0. Sized
  /// num_slots; entries in the spill region are filled but unused by the
  /// batch kernel.
  AlignedVector<float> cA, cB, cC;
  /// Raw 2x2 compat for the spill region only, indexed by
  /// slot - spill_slot_base. The spill loop is scalar, so it affords the
  /// unnormalized 4-entry form that has no conditioning precondition.
  AlignedVector<float> spill_c00, spill_c01, spill_c10, spill_c11;

  /// Rearranges a flattened BpGraph. Called from BpGraph::FromMrf (the
  /// single build point).
  static BpGraphSoa Build(const BpGraph& graph);
};

/// True when the running CPU can execute the kernel: on x86-64,
/// __builtin_cpu_supports("avx2") and ("fma") at runtime, resolved once and
/// cached; false on every other architecture, where the kernel is not
/// compiled.
bool BpSimdKernelAvailable();

/// The kernel's ISA: "avx2" on x86-64, "none" elsewhere. Hardware-stamped
/// into bench JSONs.
const char* BpSimdArchName();

/// Runs the one-sweep schedule from all-0.5 messages over `soa`; `pot`
/// holds 2 * num_vars interleaved effective potentials, as for the scalar
/// path. Preconditions: BpSimdKernelAvailable() and opts.max_iters == 1
/// (InferMarginalsBpFlat checks both). Defined in bp_kernel_simd.cc.
BpResult RunBpSweepsSimd(const BpGraphSoa& soa, const double* pot,
                         const BpOptions& opts);

}  // namespace trendspeed

#endif  // TRENDSPEED_TREND_BP_KERNEL_H_
