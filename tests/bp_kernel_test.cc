// Scalar-oracle equivalence and structure tests for the vectorized BP
// kernel (trend/bp_kernel.h), which runs the served one-sweep schedule.
//
// The SIMD kernel's contract is NOT bitwise equality with the scalar
// oracle, InferMarginalsBpScalar (it runs in single precision and contracts
// with FMAs) — it is marginal agreement within 1e-3 at S = 1. The property
// tests here pin that contract over a few hundred seeded random graphs
// spanning the shapes the SoA layout special-cases: mixed degree
// distributions (full lockstep batches + bucket remainders), zero-degree
// variables, hubs past kMaxBatchDegree, clamped evidence, and
// underflow-range potentials. At every other sweep count
// InferMarginalsBpFlat is the oracle, bit for bit.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "obs/catalog.h"
#include "obs/metrics.h"
#include "trend/belief_propagation.h"
#include "trend/bp_kernel.h"
#include "trend/factor_graph.h"
#include "util/random.h"

namespace trendspeed {
namespace {

// Uniform in [lo, hi).
double U(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.NextDouble();
}

struct RandomCase {
  BpGraph graph;
  std::vector<double> pot;
};

/// One random MRF + effective-potential vector. `shape` cycles through
/// edge models: 0 = sparse random, 1 = dense random, 2 = hub (variable 0
/// connected to everything — degree can exceed kMaxBatchDegree, exercising
/// the spill path). Potentials are supplied as the raw double vector the
/// flat API takes, so clamped (hard 0/1) pairs and subnormal-range values
/// are expressible without the MRF's float storage narrowing them.
RandomCase MakeRandomCase(Rng& rng, int shape) {
  size_t n = 1 + rng.NextBounded(120);
  PairwiseMrf mrf(n);
  size_t edges = 0;
  switch (shape % 3) {
    case 0:
      edges = rng.NextBounded(static_cast<uint32_t>(n) + 1);
      break;
    case 1:
      edges = 2 * n + rng.NextBounded(static_cast<uint32_t>(n) + 1);
      break;
    default:
      edges = rng.NextBounded(static_cast<uint32_t>(n) + 1) / 2;
      break;
  }
  for (size_t e = 0; e < edges; ++e) {
    size_t u = rng.NextBounded(static_cast<uint32_t>(n));
    size_t v = rng.NextBounded(static_cast<uint32_t>(n));
    if (u == v) continue;
    double compat[2][2];
    for (auto& row : compat) {
      for (double& c : row) c = std::exp(U(rng, -2.5, 2.5));
    }
    mrf.AddEdge(u, v, compat);
  }
  if (shape % 3 == 2 && n >= 70) {
    // Hub: drives variable 0 past kMaxBatchDegree into the spill list.
    for (size_t v = 1; v < n; ++v) {
      double compat[2][2] = {{1.2, 0.4}, {0.4, 1.2}};
      mrf.AddEdge(0, v, compat);
    }
  }

  RandomCase c;
  c.graph = BpGraph::FromMrf(mrf);
  c.pot.resize(2 * n);
  for (size_t v = 0; v < n; ++v) {
    uint32_t kind = rng.NextBounded(10);
    if (kind == 0) {
      // Hard evidence, both polarities.
      bool up = rng.NextBounded(2) == 1;
      c.pot[2 * v] = up ? 0.0 : 1.0;
      c.pot[2 * v + 1] = up ? 1.0 : 0.0;
    } else if (kind == 1) {
      // Deep under double's comfortable range; the kernel's potential
      // normalization and the scalar path's rescaled fallback must both
      // keep the 1:r ratio alive.
      double scale = std::pow(10.0, U(rng, -300.0, -250.0));
      double r = std::exp(U(rng, -2.0, 2.0));
      c.pot[2 * v] = scale;
      c.pot[2 * v + 1] = scale * r;
    } else {
      c.pot[2 * v] = std::exp(U(rng, -4.0, 4.0));
      c.pot[2 * v + 1] = std::exp(U(rng, -4.0, 4.0));
    }
  }
  return c;
}

/// The layout invariants every BpGraphSoa must satisfy: batches and the
/// spill list partition the variables, batches are same-degree and
/// aligned and precede the spill region, slots are a bijection with rev
/// and the compat planes consistent with the source graph.
void ExpectPartitionInvariants(const BpGraph& g, const BpGraphSoa& soa) {
  EXPECT_EQ(soa.num_vars, g.num_vars);
  EXPECT_EQ(soa.num_slots, g.off[g.num_vars]);
  EXPECT_EQ(soa.num_batch_vars, soa.batches.size() * BpGraphSoa::kLanes);
  EXPECT_EQ(soa.num_batch_vars + soa.spill.size(), soa.num_vars);

  // Every batch is kLanes same-degree variables on an aligned slot base.
  std::vector<char> seen(soa.num_vars, 0);
  for (size_t b = 0; b < soa.batches.size(); ++b) {
    EXPECT_EQ(soa.batches[b].slot_base % BpGraphSoa::kLanes, 0u);
    EXPECT_GE(soa.batches[b].deg, 1u);
    EXPECT_LE(soa.batches[b].deg, BpGraphSoa::kMaxBatchDegree);
    for (uint32_t lane = 0; lane < BpGraphSoa::kLanes; ++lane) {
      uint32_t v = soa.batch_var[b * BpGraphSoa::kLanes + lane];
      EXPECT_EQ(g.off[v + 1] - g.off[v], soa.batches[b].deg);
      EXPECT_FALSE(seen[v]);
      seen[v] = 1;
    }
  }
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    EXPECT_EQ(g.off[sv.var + 1] - g.off[sv.var], sv.deg);
    EXPECT_FALSE(seen[sv.var]);
    seen[sv.var] = 1;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<long>(soa.num_vars));

  // Batches precede the spill region.
  EXPECT_EQ(soa.spill_slot_base,
            soa.batches.empty()
                ? 0u
                : soa.batches.back().slot_base +
                      static_cast<size_t>(soa.batches.back().deg) *
                          BpGraphSoa::kLanes);
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    EXPECT_GE(sv.slot0, soa.spill_slot_base);
  }

  // orig_slot is a bijection, rev commutes with it, and the compat
  // planes hold the row-0-normalized 3-plane form (plus the raw table
  // for the spill region) — computed in double, rounded once to float.
  std::vector<char> slot_seen(soa.num_slots, 0);
  for (size_t s = 0; s < soa.num_slots; ++s) {
    uint32_t orig = soa.orig_slot[s];
    ASSERT_LT(orig, soa.num_slots);
    EXPECT_FALSE(slot_seen[orig]);
    slot_seen[orig] = 1;
    EXPECT_EQ(soa.orig_slot[soa.rev[s]], g.rev_slot[orig]);
    double c00 = g.compat[4 * orig + 0];
    double c01 = g.compat[4 * orig + 1];
    double c10 = g.compat[4 * orig + 2];
    double c11 = g.compat[4 * orig + 3];
    double r0 = c00 + c01;
    double r1 = c10 + c11;
    if (r0 > 0.0 && r1 <= r0 * BpGraphSoa::kMaxCompatRowRatio) {
      EXPECT_EQ(soa.cA[s], static_cast<float>(c00 / r0));
      EXPECT_EQ(soa.cB[s], static_cast<float>(c10 / r0));
      EXPECT_EQ(soa.cC[s], static_cast<float>((c10 + c11) / r0));
    } else {
      // Ill-conditioned tables only ever reach the spill path.
      EXPECT_GE(s, soa.spill_slot_base);
    }
    if (s >= soa.spill_slot_base) {
      size_t ci = s - soa.spill_slot_base;
      EXPECT_EQ(soa.spill_c00[ci], g.compat[4 * orig + 0]);
      EXPECT_EQ(soa.spill_c01[ci], g.compat[4 * orig + 1]);
      EXPECT_EQ(soa.spill_c10[ci], g.compat[4 * orig + 2]);
      EXPECT_EQ(soa.spill_c11[ci], g.compat[4 * orig + 3]);
    }
  }
}

TEST(BpGraphSoaTest, BuildPartitionsEveryVariableAndEdge) {
  Rng rng(7);
  for (int shape = 0; shape < 6; ++shape) {
    RandomCase c = MakeRandomCase(rng, shape);
    ExpectPartitionInvariants(c.graph, BpGraphSoa::Build(c.graph));
  }
}

// A graph spanning several locality blocks (plus a partial one) with mixed
// degrees: the layout keeps every invariant, no batch mixes blocks, and
// the SIMD kernel's served sweep still tracks the scalar oracle and stays
// bitwise deterministic across thread counts.
TEST(BpGraphSoaTest, BatchesStayInsideOneLocalityBlock) {
  constexpr uint32_t kBlock = BpGraphSoa::kLocalityBlock;
  const size_t n = 3 * kBlock + 37;
  Rng rng(4096);
  PairwiseMrf mrf(n);
  auto add = [&](size_t u, size_t v) {
    double compat[2][2];
    for (auto& row : compat) {
      for (double& c : row) c = std::exp(U(rng, -1.0, 1.0));
    }
    mrf.AddEdge(u, v, compat);
  };
  for (size_t v = 0; v + 1 < n; ++v) {
    if (rng.NextBool(0.8)) add(v, v + 1);
    size_t near = v + 2 + rng.NextBounded(60);
    if (near < n && rng.NextBool(0.4)) add(v, near);
    // A few long edges cross block boundaries.
    size_t far = rng.NextBounded(static_cast<uint32_t>(n));
    if (far != v && rng.NextBool(0.05)) add(v, far);
  }
  BpGraph graph = BpGraph::FromMrf(mrf);
  BpGraphSoa soa = BpGraphSoa::Build(graph);
  ExpectPartitionInvariants(graph, soa);

  std::vector<char> block_seen(n / kBlock + 1, 0);
  for (size_t b = 0; b < soa.batches.size(); ++b) {
    const uint32_t* vars = &soa.batch_var[b * BpGraphSoa::kLanes];
    uint32_t block = vars[0] / kBlock;
    block_seen[block] = 1;
    for (uint32_t lane = 1; lane < BpGraphSoa::kLanes; ++lane) {
      EXPECT_EQ(vars[lane] / kBlock, block) << "batch " << b;
    }
    if (b > 0) {
      // Blocks come in order; degree order restarts inside each.
      EXPECT_GE(block, soa.batch_var[(b - 1) * BpGraphSoa::kLanes] / kBlock);
    }
  }
  for (size_t block = 0; block < n / kBlock; ++block) {
    EXPECT_TRUE(block_seen[block]) << "full block " << block;
  }
  std::vector<uint32_t> degrees;
  for (const BpGraphSoa::Batch& batch : soa.batches) {
    degrees.push_back(batch.deg);
  }
  std::sort(degrees.begin(), degrees.end());
  EXPECT_GE(std::unique(degrees.begin(), degrees.end()) - degrees.begin(), 4);

  if (!BpSimdKernelAvailable()) return;
  std::vector<double> pot(2 * n);
  for (size_t v = 0; v < n; ++v) {
    pot[2 * v] = U(rng, 0.2, 1.0);
    pot[2 * v + 1] = U(rng, 0.2, 1.0);
  }
  BpOptions opts;
  opts.max_iters = 1;
  opts.num_threads = 1;
  BpResult scalar = InferMarginalsBpScalar(graph, pot, opts);
  BpResult simd1 = InferMarginalsBpFlat(graph, pot, opts);
  opts.num_threads = 4;
  BpResult simd4 = InferMarginalsBpFlat(graph, pot, opts);
  ASSERT_EQ(scalar.p_up.size(), n);
  ASSERT_EQ(simd1.p_up.size(), n);
  ASSERT_EQ(simd4.p_up.size(), n);
  for (size_t v = 0; v < n; ++v) {
    EXPECT_NEAR(scalar.p_up[v], simd1.p_up[v], 1e-3) << "var " << v;
    EXPECT_EQ(simd1.p_up[v], simd4.p_up[v]) << "var " << v;
  }
}

// A compat table whose row sums differ by more than kMaxCompatRowRatio is
// batch-ineligible (cB/cC would overflow float in the 3-plane form): both
// endpoints must land on the spill path, which keeps the raw 4-entry
// table, and SIMD inference must still track the scalar oracle.
TEST(BpGraphSoaTest, IllConditionedCompatRoutesToSpill) {
  const size_t n = 24;
  PairwiseMrf mrf(n);
  for (size_t v = 0; v < n; ++v) {
    double compat[2][2] = {{1.1, 0.9}, {0.9, 1.1}};
    mrf.AddEdge(v, (v + 1) % n, compat);
  }
  // Ill-conditioned in both directions (the reverse slot stores the
  // transpose, so the table must violate the bound row-wise AND
  // column-wise for both endpoints to spill).
  double skewed[2][2] = {{1e-35, 1e-35}, {1e-35, 1.0}};
  mrf.AddEdge(0, n / 2, skewed);
  BpGraph graph = BpGraph::FromMrf(mrf);
  BpGraphSoa soa = BpGraphSoa::Build(graph);
  bool spilled_lo = false, spilled_hi = false;
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    spilled_lo |= sv.var == 0;
    spilled_hi |= sv.var == n / 2;
  }
  EXPECT_TRUE(spilled_lo);
  EXPECT_TRUE(spilled_hi);
  // The 22 remaining degree-2 ring variables still form two full batches.
  EXPECT_EQ(soa.num_batch_vars, 16u);

  if (!BpSimdKernelAvailable()) return;
  Rng rng(99);
  std::vector<double> pot(2 * n);
  for (size_t v = 0; v < n; ++v) {
    pot[2 * v] = U(rng, 0.2, 1.0);
    pot[2 * v + 1] = U(rng, 0.2, 1.0);
  }
  BpOptions opts;
  opts.max_iters = 1;
  BpResult scalar = InferMarginalsBpScalar(graph, pot, opts);
  BpResult simd = InferMarginalsBpFlat(graph, pot, opts);
  ASSERT_EQ(scalar.p_up.size(), simd.p_up.size());
  for (size_t v = 0; v < n; ++v) {
    EXPECT_NEAR(scalar.p_up[v], simd.p_up[v], 1e-3) << "var " << v;
  }
}

// The engine follows from the sweep count and the CPU alone. Above one
// sweep InferMarginalsBpFlat always runs the scalar oracle: it counts one
// scalar run and never a SIMD one.
TEST(BpKernelDispatchTest, ScalarRequestNeverRunsSimd) {
  Rng rng(13);
  RandomCase c = MakeRandomCase(rng, 0);
  obs::MetricsRegistry reg;
  BpOptions opts;
  opts.max_iters = 2;
  opts.metrics = &reg;
  InferMarginalsBpFlat(c.graph, c.pot, opts);
  EXPECT_EQ(reg.GetCounter(obs::kBpKernelRunsSimd)->Value(), 0u);
  EXPECT_EQ(reg.GetCounter(obs::kBpKernelRunsScalar)->Value(), 1u);
}

// The served S = 1 runs the SIMD kernel exactly where the CPU can, and the
// scalar oracle elsewhere.
TEST(BpKernelDispatchTest, AutoResolvesToAvailableKernel) {
  Rng rng(13);
  RandomCase c = MakeRandomCase(rng, 0);
  obs::MetricsRegistry reg;
  BpOptions opts;
  opts.max_iters = 1;
  opts.metrics = &reg;
  InferMarginalsBpFlat(c.graph, c.pot, opts);
  const uint64_t simd = BpSimdKernelAvailable() ? 1 : 0;
  EXPECT_EQ(reg.GetCounter(obs::kBpKernelRunsSimd)->Value(), simd);
  EXPECT_EQ(reg.GetCounter(obs::kBpKernelRunsScalar)->Value(), 1 - simd);
}

// Satellite regression for the scalar cavity/belief underflow fix: a
// degree-60 star whose center potential pair sits so low that the belief
// product (pot x 0.5^60) flushes to zero in double. Pre-fix, both belief
// factors flushed, the z <= 0 guard fired, and the center marginal came
// back 0.5; the rescaled products keep the 1:3 ratio alive. Uniform
// compatibilities keep every message at exactly (0.5, 0.5), so the true
// marginal is pot1 / (pot0 + pot1) = 0.75 — and the fallback cavity path
// (in_prod underflows with every factor comfortably above the old 1e-30
// per-message check) must not disturb the messages on the way.
TEST(BpScalarUnderflowTest, NearZeroPotentialsKeepTheirRatio) {
  const size_t kDeg = 60;
  PairwiseMrf mrf(kDeg + 1);
  for (size_t v = 1; v <= kDeg; ++v) {
    double compat[2][2] = {{1.0, 1.0}, {1.0, 1.0}};
    mrf.AddEdge(0, v, compat);
  }
  BpGraph graph = BpGraph::FromMrf(mrf);
  std::vector<double> pot(2 * (kDeg + 1), 1.0);
  pot[0] = 1e-310;
  pot[1] = 3e-310;

  BpOptions opts;
  opts.max_iters = 4;
  BpResult r = InferMarginalsBpScalar(graph, pot, opts);
  EXPECT_NEAR(r.p_up[0], 0.75, 1e-9);
  // Leaves (degree 1, cavity = the center's near-zero potential alone)
  // see a symmetric 1:3 belief weighting through the uniform edges, which
  // normalizes away: their marginal stays 0.5.
  EXPECT_NEAR(r.p_up[1], 0.5, 1e-9);

  // The same case through the SIMD kernel's served sweep, whose potential
  // normalization sidesteps the underflow entirely.
  if (BpSimdKernelAvailable()) {
    opts.max_iters = 1;
    BpResult rs = InferMarginalsBpFlat(graph, pot, opts);
    EXPECT_NEAR(rs.p_up[0], 0.75, 1e-5);
  }
}

TEST(BpKernelPropertyTest, SimdMatchesScalarOnRandomGraphs) {
  if (!BpSimdKernelAvailable()) {
    GTEST_SKIP() << "SIMD kernel not runnable on this CPU";
  }
  Rng rng(20260808);
  const int kGraphs = 220;
  for (int g = 0; g < kGraphs; ++g) {
    RandomCase c = MakeRandomCase(rng, g);
    BpOptions opts;
    opts.max_iters = 1;
    opts.damping = 0.15 * rng.NextBounded(3);
    opts.num_threads = 1;

    BpResult scalar = InferMarginalsBpScalar(c.graph, c.pot, opts);
    BpResult simd = InferMarginalsBpFlat(c.graph, c.pot, opts);

    ASSERT_EQ(scalar.p_up.size(), simd.p_up.size());
    for (size_t v = 0; v < scalar.p_up.size(); ++v) {
      EXPECT_NEAR(scalar.p_up[v], simd.p_up[v], 1e-3)
          << "graph " << g << " var " << v;
    }
  }
}

// True when two runs produced the same marginal bits and message count.
bool SameBits(const BpResult& a, const BpResult& b) {
  return a.message_updates == b.message_updates &&
         a.p_up.size() == b.p_up.size() &&
         std::memcmp(a.p_up.data(), b.p_up.data(),
                     a.p_up.size() * sizeof(double)) == 0;
}

// Above one sweep InferMarginalsBpFlat is the scalar oracle on every CPU:
// the same seeded shapes at S = 2..12 come back bit for bit, on 1 and 4
// threads.
TEST(BpKernelPropertyTest, FlatEqualsScalarAboveOneSweep) {
  Rng rng(20260808);
  const int kGraphs = 220;
  for (int g = 0; g < kGraphs; ++g) {
    RandomCase c = MakeRandomCase(rng, g);
    BpOptions opts;
    opts.max_iters = 2 + rng.NextBounded(11);
    opts.damping = 0.15 * rng.NextBounded(3);
    for (uint32_t threads : {1u, 4u}) {
      opts.num_threads = threads;
      EXPECT_TRUE(SameBits(InferMarginalsBpFlat(c.graph, c.pot, opts),
                           InferMarginalsBpScalar(c.graph, c.pot, opts)))
          << "graph " << g << ", S = " << opts.max_iters << ", " << threads
          << " threads";
    }
  }
}

// FNV-1a over the bit patterns of a marginal vector.
uint64_t HashBits(const std::vector<double>& p_up) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (double p : p_up) {
    uint64_t bits = std::bit_cast<uint64_t>(p);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Served-shape case for the cold-start bit pins: a 70 x 70 grid (past
// kMinParallelVars, so 4 threads really split the sweep) with compat
// entries in the tempered co-trend range, a degree-82 hub on the spill
// list, one ill-conditioned edge (both endpoints spill), six isolated
// variables, 10% hard 0/1 clamps and priors in the served [0.02, 0.98].
// Values are integer hundredths (one division each), so no build's
// floating-point contraction can change the inputs the hashes pin.
RandomCase MakeServedCase() {
  constexpr size_t kSide = 70;
  constexpr size_t kGrid = kSide * kSide;
  const size_t n = kGrid + 6;
  Rng rng(2027);
  PairwiseMrf mrf(n);
  auto add = [&](size_t u, size_t v) {
    double compat[2][2];
    for (auto& row : compat) {
      for (double& c : row) c = (5 + rng.NextBounded(96)) / 100.0;
    }
    mrf.AddEdge(u, v, compat);
  };
  for (size_t r = 0; r < kSide; ++r) {
    for (size_t c = 0; c < kSide; ++c) {
      size_t v = r * kSide + c;
      if (c + 1 < kSide) add(v, v + 1);
      if (r + 1 < kSide) add(v, v + kSide);
    }
  }
  for (size_t i = 0; i < 80; ++i) add(0, 100 + 53 * i);
  double skewed[2][2] = {{1e-31, 1e-31}, {1e-31, 1.0}};
  mrf.AddEdge(2000, 3000, skewed);

  RandomCase c;
  c.graph = BpGraph::FromMrf(mrf);
  c.pot.resize(2 * n);
  for (size_t v = 0; v < n; ++v) {
    if (rng.NextBounded(10) == 0) {
      bool up = rng.NextBounded(2) == 1;
      c.pot[2 * v] = up ? 0.0 : 1.0;
      c.pot[2 * v + 1] = up ? 1.0 : 0.0;
    } else {
      double p = (2 + rng.NextBounded(97)) / 100.0;
      c.pot[2 * v] = 1.0 - p;
      c.pot[2 * v + 1] = p;
    }
  }
  return c;
}

// The SIMD kernel's marginals on served-range inputs are pinned bit for
// bit, at 1 and 4 threads, by a hash recorded before the sweep became a
// closed-form map of the potentials and compat planes. The map is exact
// whenever the cold-start cavities stay normal floats (docs/performance.md,
// §Tolerance contract), which every input of this shape guarantees. At
// S = 2 and 6 the same graph runs on the oracle, bit for bit.
TEST(BpKernelPropertyTest, ColdStartSweepKeepsParentBits) {
  RandomCase c = MakeServedCase();
  const BpGraphSoa& soa = *c.graph.soa;
  bool hub_spilled = false, skew_spilled = false;
  for (const BpGraphSoa::SpillVar& sv : soa.spill) {
    hub_spilled |= sv.var == 0 && sv.deg > BpGraphSoa::kMaxBatchDegree;
    skew_spilled |= sv.var == 2000;
  }
  ASSERT_TRUE(hub_spilled);
  ASSERT_TRUE(skew_spilled);

  for (uint32_t threads : {1u, 4u}) {
    BpOptions opts;
    opts.num_threads = threads;
    for (uint32_t sweeps : {2u, 6u}) {
      opts.max_iters = sweeps;
      EXPECT_TRUE(SameBits(InferMarginalsBpFlat(c.graph, c.pot, opts),
                           InferMarginalsBpScalar(c.graph, c.pot, opts)))
          << "S = " << sweeps << ", threads = " << threads;
    }
  }

  if (!BpSimdKernelAvailable()) {
    GTEST_SKIP() << "SIMD kernel not runnable on this CPU";
  }
  for (uint32_t threads : {1u, 4u}) {
    BpOptions opts;
    opts.max_iters = 1;
    opts.num_threads = threads;
    BpResult r = InferMarginalsBpFlat(c.graph, c.pot, opts);
    EXPECT_EQ(HashBits(r.p_up), 0x0d0b1f65ad9a2d48ull)
        << std::hex << "threads = " << threads << ": 0x" << HashBits(r.p_up);
  }
}

TEST(BpKernelEdgeCaseTest, EmptyAndIsolatedGraphs) {
  // Zero variables.
  PairwiseMrf empty(0);
  BpGraph g0 = BpGraph::FromMrf(empty);
  BpOptions opts;
  BpResult r0 = InferMarginalsBpFlat(g0, {}, opts);
  EXPECT_TRUE(r0.p_up.empty());

  // All variables isolated (every one lands in the spill list with
  // degree 0): marginals are the normalized potentials.
  PairwiseMrf iso(5);
  BpGraph g5 = BpGraph::FromMrf(iso);
  std::vector<double> pot = {1.0, 3.0, 1.0, 1.0, 0.0, 1.0, 2.0, 2.0,
                             5.0, 1.0};
  BpResult r5 = InferMarginalsBpFlat(g5, pot, opts);
  ASSERT_EQ(r5.p_up.size(), 5u);
  EXPECT_NEAR(r5.p_up[0], 0.75, 1e-6);
  EXPECT_NEAR(r5.p_up[1], 0.5, 1e-6);
  EXPECT_NEAR(r5.p_up[2], 1.0, 1e-6);  // hard up-evidence stays hard
  EXPECT_NEAR(r5.p_up[3], 0.5, 1e-6);
  EXPECT_NEAR(r5.p_up[4], 1.0 / 6.0, 1e-6);
}

}  // namespace
}  // namespace trendspeed
