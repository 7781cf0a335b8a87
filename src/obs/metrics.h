// MetricsRegistry: pre-registered counters, gauges, and fixed-bucket
// histograms for the pipeline hot paths.
//
// The contract that keeps instrumentation out of the profile:
//
//   * Handles are registered once (under one mutex) and are stable pointers
//     for the registry's lifetime; hot-path code holds the pointer, never
//     the name.
//   * Recording against a handle is a relaxed atomic add (counters shard
//     their cells across cache lines so concurrent writers don't ping-pong
//     one line). No locks, no allocation, no syscalls.
//   * Recording against a *null* handle is a single predicted branch — the
//     universal "registry not attached" representation. Every instrumented
//     call site uses the null-safe free functions below, so a pipeline with
//     no registry attached pays one branch per record site and nothing else
//     (bench_observability_overhead measures this).
//
// Metric identities come from the central catalog (obs/catalog.h); the
// catalog is what docs/observability.md is verified against.
//
// The exporter (Prometheus text) lives in obs/export.h.

#ifndef TRENDSPEED_OBS_METRICS_H_
#define TRENDSPEED_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace trendspeed {
namespace obs {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Static identity of one metric. Instances are intended to be `constexpr`
/// catalog entries; the strings must outlive every registry using them.
struct MetricDef {
  const char* name;   ///< Prometheus-style, e.g. "trendspeed_bp_sweeps_total"
  MetricType type;
  const char* help;   ///< one-line description for exporters and the catalog
  const char* unit;   ///< "1", "ms", "us", "slots", ...
  /// Pre-baked label set, e.g. `algorithm="greedy"`, or "" for none. Labels
  /// are fixed at registration; the same name may be registered repeatedly
  /// with different label sets (one time series each).
  const char* labels = "";
  /// Histograms: strictly increasing finite upper bounds. A value v lands in
  /// the first bucket with v <= bound; larger values land in the implicit
  /// +Inf overflow bucket. Ignored for counters/gauges.
  const double* bucket_bounds = nullptr;
  size_t num_buckets = 0;
};

/// Monotone counter. Adds are relaxed; cells are sharded across cache lines
/// so concurrent hot-path writers don't contend.
class Counter {
 public:
  void Add(uint64_t v = 1) {
    cells_[CellIndex()].v.fetch_add(v, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr size_t kCells = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  static size_t CellIndex();
  std::array<Cell, kCells> cells_;
};

/// Last-write-wins double value (queue depth, staleness, worker count).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: per-bucket relaxed atomic counts plus a CAS-added
/// sum. Bucket layout is fixed at registration (from the MetricDef), so
/// Observe is a short linear scan + one relaxed increment.
class Histogram {
 public:
  explicit Histogram(const MetricDef& def);

  void Observe(double v);

  size_t num_buckets() const { return bounds_.size(); }
  double bound(size_t i) const { return bounds_[i]; }
  /// Count of values in bucket i (NOT cumulative); index num_buckets() is
  /// the +Inf overflow bucket.
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// ---------------------------------------------------------------------------
// Snapshots (point-in-time copies for the exporters and tests).
// ---------------------------------------------------------------------------

struct MetricId {
  std::string name;
  std::string labels;
  std::string help;
  std::string unit;
};

struct CounterSnapshot {
  MetricId id;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  MetricId id;
  double value = 0.0;
};

struct HistogramSnapshot {
  MetricId id;
  std::vector<double> bounds;    ///< finite upper bounds
  std::vector<uint64_t> counts;  ///< per-bucket (bounds.size() + 1, last = +Inf)
  uint64_t count = 0;
  double sum = 0.0;
};

struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;      ///< sorted by (name, labels)
  std::vector<GaugeSnapshot> gauges;          ///< sorted by (name, labels)
  std::vector<HistogramSnapshot> histograms;  ///< sorted by (name, labels)
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-register. The returned pointer is stable for the registry's
  /// lifetime. Returns nullptr if (name, labels) was already registered
  /// with a different metric type — the one registration error; everything
  /// else is idempotent.
  Counter* GetCounter(const MetricDef& def);
  Gauge* GetGauge(const MetricDef& def);
  Histogram* GetHistogram(const MetricDef& def);

  /// Point-in-time copy of every registered series, sorted for
  /// deterministic export.
  RegistrySnapshot Snapshot() const;

  /// Convenience: Snapshot() through the exporter (obs/export.h).
  std::string ToPrometheus() const;

 private:
  struct Entry {
    MetricDef def;  // strings are catalog literals; see MetricDef contract
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  // Registration happens once per component attach; recording never takes
  // the lock. Keyed name + '\0' + labels, so iteration is (name, labels)
  // order.
  Entry* GetEntry(const MetricDef& def);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

// ---------------------------------------------------------------------------
// Null-safe helpers: the canonical hot-path record idiom. With no registry
// attached every handle is nullptr and a record site is one branch.
// ---------------------------------------------------------------------------

inline Counter* GetCounter(MetricsRegistry* reg, const MetricDef& def) {
  return reg != nullptr ? reg->GetCounter(def) : nullptr;
}
inline Gauge* GetGauge(MetricsRegistry* reg, const MetricDef& def) {
  return reg != nullptr ? reg->GetGauge(def) : nullptr;
}
inline Histogram* GetHistogram(MetricsRegistry* reg, const MetricDef& def) {
  return reg != nullptr ? reg->GetHistogram(def) : nullptr;
}

inline void Add(Counter* c, uint64_t v = 1) {
  if (c != nullptr) c->Add(v);
}
inline void Set(Gauge* g, double v) {
  if (g != nullptr) g->Set(v);
}
inline void Observe(Histogram* h, double v) {
  if (h != nullptr) h->Observe(v);
}

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_METRICS_H_
