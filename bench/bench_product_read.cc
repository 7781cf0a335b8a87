// Read-side product layer bench, emitted as JSON on stdout (saved as
// BENCH_product_read.json).
//
// Two measurement groups:
//
//   * writer_baseline     — snapshot publish latency with zero readers:
//                           the floor the product layer must not move.
//                           A publish copies the field into a new snapshot
//                           and swaps the latest pointer under the
//                           publisher's mutex.
//   * writer_with_readers — the same publish loop while N reader threads
//                           fold profiles and answer cached route ETAs at
//                           full speed. The bench ASSERTS the writer's
//                           median publish latency is unchanged within a
//                           generous noise bound — the "products never
//                           hold up the writer" claim as a number, not a
//                           comment.
//
// Single-reader ETA latency (cache hit vs miss) is measured end to end by
// perfbench's product.eta_hit_us_p50 and product.eta_miss_us_p50.
//
// Flags:
//   --smoke   tiny instance, used by the `perf`-labelled CTest smoke entry.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_hardware.h"
#include "core/snapshot.h"
#include "product/profile.h"
#include "product/route_eta.h"
#include "roadnet/generators.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace trendspeed {
namespace {

struct ProductBenchConfig {
  size_t grid_rows = 16;
  size_t grid_cols = 16;
  uint64_t publishes = 20'000;
  int readers = 3;
};

RoadNetwork BenchGrid(const ProductBenchConfig& cfg) {
  GridNetworkOptions opts;
  opts.rows = cfg.grid_rows;
  opts.cols = cfg.grid_cols;
  opts.arterial_every = 4;
  auto net = MakeGridNetwork(opts);
  TS_CHECK(net.ok()) << net.status().ToString();
  return std::move(net).value();
}

ProductOptions BenchProductOptions() {
  ProductOptions opts;
  opts.enabled = true;
  opts.profile_buckets_per_day = 24;
  opts.profile_min_samples = 2;
  opts.blend_full_stale_slots = 4;
  opts.eta_cache_capacity = 1024;
  return opts;
}

double PercentileUs(std::vector<double>* us, double q) {
  if (us->empty()) return std::nan("");
  std::sort(us->begin(), us->end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(us->size() - 1));
  return (*us)[idx];
}

/// One timed publish loop; returns the per-publish latencies in us.
std::vector<double> TimedPublishes(SpeedSnapshotPublisher* pub,
                                   const RoadNetwork& net, uint64_t count) {
  std::vector<double> speeds(net.num_roads()), devs(net.num_roads(), 0.0);
  std::vector<double> lat_us;
  lat_us.reserve(count);
  WallTimer timer;
  for (uint64_t v = 1; v <= count; ++v) {
    for (size_t r = 0; r < speeds.size(); ++r) {
      speeds[r] = 20.0 + static_cast<double>((v + r) % 50);
    }
    timer.Restart();
    pub->Publish(v, speeds, devs, static_cast<uint32_t>(v % 7 == 3), 40.0);
    lat_us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  return lat_us;
}

int Run(const ProductBenchConfig& cfg) {
  std::printf("{\n");
  std::printf("  \"bench\": \"product_read\",\n");
  PrintHardwareStamp();

  const RoadNetwork net = BenchGrid(cfg);
  const ProductOptions popts = BenchProductOptions();

  // --- writer baseline: no readers ----------------------------------------
  double base_p50, base_p99;
  {
    SpeedSnapshotPublisher pub(net.num_roads());
    std::vector<double> lat = TimedPublishes(&pub, net, cfg.publishes);
    base_p50 = PercentileUs(&lat, 0.50);
    base_p99 = PercentileUs(&lat, 0.99);
  }
  std::printf("  \"writer_baseline\": {\n");
  std::printf("    \"publishes\": %llu,\n",
              static_cast<unsigned long long>(cfg.publishes));
  std::printf("    \"roads\": %zu,\n", net.num_roads());
  std::printf("    \"p50_publish_us\": %.3f,\n", base_p50);
  std::printf("    \"p99_publish_us\": %.3f\n", base_p99);
  std::printf("  },\n");

  // --- writer with folding/routing readers attached -----------------------
  double load_p50, load_p99;
  uint64_t reader_etas = 0, reader_folds = 0;
  {
    SpeedSnapshotPublisher pub(net.num_roads());
    std::atomic<bool> done{false};
    std::atomic<uint64_t> etas{0};
    std::atomic<uint64_t> folds{0};
    std::vector<std::thread> readers;
    readers.reserve(cfg.readers);
    for (int t = 0; t < cfg.readers; ++t) {
      readers.emplace_back([&, t] {
        auto profile = SpeedProfileStore::Create(net.num_roads(), 144, popts);
        TS_CHECK(profile.ok());
        auto cache = RouteEtaCache::Create(net, popts, &*profile);
        TS_CHECK(cache.ok());
        Rng rng(42 + static_cast<uint64_t>(t));
        SpeedSnapshot snap;
        while (!done.load(std::memory_order_acquire)) {
          if (!pub.Read(&snap)) continue;
          profile->Fold(snap);
          NodeId from = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
          NodeId to = static_cast<NodeId>(rng.NextIndex(net.num_nodes()));
          if (cache->Eta(snap, from, to).ok()) {
            etas.fetch_add(1, std::memory_order_relaxed);
          }
        }
        folds.fetch_add(profile->folds(), std::memory_order_relaxed);
      });
    }
    std::vector<double> lat = TimedPublishes(&pub, net, cfg.publishes);
    done.store(true, std::memory_order_release);
    for (std::thread& th : readers) th.join();
    load_p50 = PercentileUs(&lat, 0.50);
    load_p99 = PercentileUs(&lat, 0.99);
    reader_etas = etas.load();
    reader_folds = folds.load();
  }
  std::printf("  \"writer_with_readers\": {\n");
  std::printf("    \"readers\": %d,\n", cfg.readers);
  std::printf("    \"p50_publish_us\": %.3f,\n", load_p50);
  std::printf("    \"p99_publish_us\": %.3f,\n", load_p99);
  std::printf("    \"reader_etas\": %llu,\n",
              static_cast<unsigned long long>(reader_etas));
  std::printf("    \"reader_folds\": %llu,\n",
              static_cast<unsigned long long>(reader_folds));
  std::printf("    \"p50_ratio_vs_baseline\": %.2f\n",
              load_p50 / base_p50);
  std::printf("  }\n");

  // The load-bearing assertion: attaching folding/routing readers must not
  // move the writer's median publish latency beyond scheduling noise. The
  // bound is deliberately generous (8x or +25us absolute) so an
  // oversubscribed single-CPU CI host doesn't flake, while an actual
  // reader->writer block (a reader holding the publisher's mutex for a
  // field copy instead of a pointer copy) — which would show up as orders
  // of magnitude, not single digits — still fails loudly.
  TS_CHECK(load_p50 <= std::max(8.0 * base_p50, base_p50 + 25.0))
      << "writer median publish latency moved from " << base_p50
      << "us to " << load_p50 << "us with readers attached";

  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace trendspeed

int main(int argc, char** argv) {
  trendspeed::ProductBenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.grid_rows = 4;
      cfg.grid_cols = 4;
      // Not a multiple-of-7 offset that lands the final publish on the
      // stale cadence: on a single-CPU host the readers' one guaranteed
      // read is the quiescent last pass, which must be foldable.
      cfg.publishes = 512;
      cfg.readers = 2;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return trendspeed::Run(cfg);
}
