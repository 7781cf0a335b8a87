// Pins the served bits end to end: a few CityA slots go through a
// ServingSession, and an FNV-1a hash of every road's p_up, deviation and
// speed bits must equal a committed constant. Any change to Step 1, the
// seed aggregate, the evidence backfill or Step 2 that moves a single bit
// fails here, in every build configuration the tree supports.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/serving.h"
#include "io/dataset.h"
#include "trend/bp_kernel.h"
#include "util/random.h"

namespace trendspeed {
namespace {

void HashInto(uint64_t* h, const std::vector<double>& values) {
  for (double v : values) {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      *h ^= (bits >> (8 * byte)) & 0xffu;
      *h *= 0x100000001b3ull;
    }
  }
}

// One hash per Step 1 engine: the SIMD kernel serves one-sweep BP where the
// CPU runs it (float marginals), the scalar oracle everywhere else (double
// marginals). The scalar constant was recorded on a build whose
// BpSimdKernelAvailable() returned false.
constexpr uint64_t kSimdEngineHash = 0x4f8bf27220d5c837ull;
constexpr uint64_t kScalarEngineHash = 0xeb96e54f122ee154ull;

TEST(ServingBitsTest, CityASlotsHashToPinnedBits) {
  DatasetOptions dopts;
  dopts.history_days = 7;
  dopts.test_days = 1;
  dopts.use_probe_fleet = false;
  auto ds = BuildCityA(dopts);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto est = TrafficSpeedEstimator::Train(&ds->net, &ds->history, {});
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  auto seeds = est->SelectSeeds(40, SeedStrategy::kLazyGreedy);
  ASSERT_TRUE(seeds.ok()) << seeds.status().ToString();
  auto session = ServingSession::Create(&est.value());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  uint64_t h = 0xcbf29ce484222325ull;
  Rng rng(34);
  const uint64_t first = ds->first_test_slot() + 30;
  for (uint64_t slot = first; slot < first + 48; slot += 12) {
    std::vector<SeedSpeed> obs;
    for (RoadId r : seeds->seeds) {
      // Integer hundredths keep the observations themselves libm-free.
      const double factor = (90.0 + rng.NextBounded(21)) / 100.0;
      obs.push_back({r, std::max(1.0, ds->truth.at(slot, r) * factor)});
    }
    auto report = session->Ingest(slot, obs);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_FALSE(report->stale);
    const TrafficSpeedEstimator::Output& out = report->monitor.estimate;
    HashInto(&h, out.trends.p_up);
    HashInto(&h, out.speeds.deviation);
    HashInto(&h, out.speeds.speed_kmh);
  }

  const bool simd = BpSimdKernelAvailable();
  EXPECT_EQ(h, simd ? kSimdEngineHash : kScalarEngineHash)
      << std::hex << (simd ? "SIMD" : "scalar") << " Step 1 engine: 0x" << h
      << ". The served bits changed. If no code changed, suspect the build: "
         "libm's exp (BP potentials) or FMA contraction (the tree builds "
         "with -ffp-contract=off).";
}

}  // namespace
}  // namespace trendspeed
