#include "trend/bp_kernel.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace trendspeed {

BpGraphSoa BpGraphSoa::Build(const BpGraph& g) {
  BpGraphSoa s;
  s.num_vars = g.num_vars;
  s.num_slots = g.num_vars == 0 ? 0 : g.off[g.num_vars];

  auto degree = [&](uint32_t v) {
    return static_cast<uint32_t>(g.off[v + 1] - g.off[v]);
  };
  // The 3-plane form is usable when row 0 has positive sum and the row
  // ratio stays below the float-overflow bound — see kMaxCompatRowRatio.
  auto well_conditioned = [&](size_t slot) {
    double r0 = static_cast<double>(g.compat[4 * slot + 0]) +
                static_cast<double>(g.compat[4 * slot + 1]);
    double r1 = static_cast<double>(g.compat[4 * slot + 2]) +
                static_cast<double>(g.compat[4 * slot + 3]);
    return r0 > 0.0 && r1 <= r0 * kMaxCompatRowRatio;
  };
  // Batch eligibility: degree in [1, kMaxBatchDegree] AND every incident
  // compat table well-conditioned. Ill-conditioned variables keep their
  // raw tables on the spill path.
  auto batchable = [&](uint32_t v) {
    uint32_t deg = degree(v);
    if (deg < 1 || deg > kMaxBatchDegree) return false;
    for (size_t slot = g.off[v]; slot < g.off[v + 1]; ++slot) {
      if (!well_conditioned(slot)) return false;
    }
    return true;
  };
  // Block-then-degree order: (v / kLocalityBlock, degree, v). A graph of at
  // most kLocalityBlock variables is one block, i.e. plain degree order.
  std::vector<uint32_t> order(g.num_vars);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    uint32_t ba = a / kLocalityBlock, bb = b / kLocalityBlock;
    if (ba != bb) return ba < bb;
    uint32_t da = degree(a), db = degree(b);
    if (da != db) return da < db;
    return a < b;
  });

  s.orig_slot.resize(s.num_slots);
  size_t cursor = 0;

  // Pass 1: full same-degree batches of kLanes batchable variables from
  // one locality block, k-major slots. Emitting every batch before any
  // spill variable keeps each batch's slot base a multiple of kLanes —
  // with the 64-byte plane alignment that makes every batch access an
  // aligned vector load/store.
  std::vector<uint32_t> bucket;
  for (size_t i = 0; i < order.size();) {
    uint32_t block = order[i] / kLocalityBlock;
    uint32_t deg = degree(order[i]);
    size_t j = i;
    while (j < order.size() && order[j] / kLocalityBlock == block &&
           degree(order[j]) == deg) {
      ++j;
    }
    if (deg >= 1 && deg <= kMaxBatchDegree) {
      bucket.clear();
      for (size_t t = i; t < j; ++t) {
        if (batchable(order[t])) bucket.push_back(order[t]);
      }
      size_t full = (bucket.size() / kLanes) * kLanes;
      for (size_t b = 0; b < full; b += kLanes) {
        Batch batch;
        batch.deg = deg;
        batch.slot_base = cursor;
        s.batches.push_back(batch);
        for (uint32_t lane = 0; lane < kLanes; ++lane) {
          uint32_t v = bucket[b + lane];
          s.batch_var.push_back(v);
          for (uint32_t k = 0; k < deg; ++k) {
            s.orig_slot[cursor + k * kLanes + lane] =
                static_cast<uint32_t>(g.off[v] + k);
          }
        }
        cursor += static_cast<size_t>(deg) * kLanes;
      }
    }
    i = j;
  }
  s.num_batch_vars = s.batch_var.size();
  s.spill_slot_base = cursor;

  // Pass 2: everything else (per-block bucket remainders, zero-degree
  // variables, high-degree outliers, ill-conditioned compat) in var-major
  // order.
  {
    std::vector<bool> in_batch(g.num_vars, false);
    for (uint32_t v : s.batch_var) in_batch[v] = true;
    for (uint32_t v : order) {
      if (in_batch[v]) continue;
      uint32_t deg = degree(v);
      SpillVar sv;
      sv.var = v;
      sv.deg = deg;
      sv.slot0 = cursor;
      s.spill.push_back(sv);
      for (uint32_t k = 0; k < deg; ++k) {
        s.orig_slot[cursor + k] = static_cast<uint32_t>(g.off[v] + k);
      }
      cursor += deg;
    }
  }
  TS_CHECK_EQ(cursor, s.num_slots);

  // Remap reverse-edge indices and derive the compat planes. Batch slots
  // get the row-0-normalized 3-plane form (computed in double, rounded
  // once to float); the spill region additionally keeps the raw 4-entry
  // tables, since the scalar spill loop has no conditioning precondition.
  std::vector<uint32_t> soa_of_orig(s.num_slots);
  for (size_t slot = 0; slot < s.num_slots; ++slot) {
    soa_of_orig[s.orig_slot[slot]] = static_cast<uint32_t>(slot);
  }
  s.rev.resize(s.num_slots);
  s.cA.resize(s.num_slots);
  s.cB.resize(s.num_slots);
  s.cC.resize(s.num_slots);
  size_t spill_slots = s.num_slots - s.spill_slot_base;
  s.spill_c00.resize(spill_slots);
  s.spill_c01.resize(spill_slots);
  s.spill_c10.resize(spill_slots);
  s.spill_c11.resize(spill_slots);
  for (size_t slot = 0; slot < s.num_slots; ++slot) {
    size_t orig = s.orig_slot[slot];
    s.rev[slot] = soa_of_orig[g.rev_slot[orig]];
    double c00 = g.compat[4 * orig + 0];
    double c01 = g.compat[4 * orig + 1];
    double c10 = g.compat[4 * orig + 2];
    double c11 = g.compat[4 * orig + 3];
    if (well_conditioned(orig)) {
      double r0 = c00 + c01;
      s.cA[slot] = static_cast<float>(c00 / r0);
      s.cB[slot] = static_cast<float>(c10 / r0);
      s.cC[slot] = static_cast<float>((c10 + c11) / r0);
    } else {
      // Ill-conditioned (spill-only by construction): benign placeholders.
      s.cA[slot] = 0.0f;
      s.cB[slot] = 0.0f;
      s.cC[slot] = 1.0f;
    }
    if (slot >= s.spill_slot_base) {
      size_t i = slot - s.spill_slot_base;
      s.spill_c00[i] = static_cast<float>(c00);
      s.spill_c01[i] = static_cast<float>(c01);
      s.spill_c10[i] = static_cast<float>(c10);
      s.spill_c11[i] = static_cast<float>(c11);
    }
  }
  return s;
}

}  // namespace trendspeed
