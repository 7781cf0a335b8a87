#include "obs/metrics.h"

#include "obs/export.h"

namespace trendspeed {
namespace obs {

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

size_t Counter::CellIndex() {
  // One cell per thread (mod kCells); the slot is assigned once per thread,
  // so a thread's adds always hit the same cache line and two threads
  // rarely share one.
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot % kCells;
}

Histogram::Histogram(const MetricDef& def) {
  bounds_.assign(def.bucket_bounds, def.bucket_bounds + def.num_buckets);
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::Observe(double v) {
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

namespace {

std::string EntryKey(const MetricDef& def) {
  std::string key(def.name);
  key.push_back('\0');
  key += def.labels;
  return key;
}

MetricId MakeId(const MetricDef& def) {
  return MetricId{def.name, def.labels, def.help, def.unit};
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::GetEntry(const MetricDef& def) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(EntryKey(def));
  Entry& entry = it->second;
  if (inserted) {
    entry.def = def;
    switch (def.type) {
      case MetricType::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        entry.histogram = std::make_unique<Histogram>(def);
        break;
    }
  } else if (entry.def.type != def.type) {
    return nullptr;  // same series registered under two types
  }
  return &entry;
}

Counter* MetricsRegistry::GetCounter(const MetricDef& def) {
  Entry* e = GetEntry(def);
  return e != nullptr ? e->counter.get() : nullptr;
}

Gauge* MetricsRegistry::GetGauge(const MetricDef& def) {
  Entry* e = GetEntry(def);
  return e != nullptr ? e->gauge.get() : nullptr;
}

Histogram* MetricsRegistry::GetHistogram(const MetricDef& def) {
  Entry* e = GetEntry(def);
  return e != nullptr ? e->histogram.get() : nullptr;
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    switch (entry.def.type) {
      case MetricType::kCounter:
        snap.counters.push_back(
            CounterSnapshot{MakeId(entry.def), entry.counter->Value()});
        break;
      case MetricType::kGauge:
        snap.gauges.push_back(
            GaugeSnapshot{MakeId(entry.def), entry.gauge->Value()});
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry.histogram;
        HistogramSnapshot hs;
        hs.id = MakeId(entry.def);
        hs.bounds.reserve(h.num_buckets());
        for (size_t i = 0; i < h.num_buckets(); ++i) {
          hs.bounds.push_back(h.bound(i));
        }
        hs.counts.reserve(h.num_buckets() + 1);
        // Derive the total from the same per-bucket reads that feed the
        // cumulative series. Observe() bumps the bucket cell and the
        // separate total as two relaxed ops, so reading h.count()
        // independently can disagree with the bucket sum mid-scrape —
        // which breaks the 0.0.4 invariant that `_bucket{le="+Inf"}`
        // equals `_count`.
        hs.count = 0;
        for (size_t i = 0; i <= h.num_buckets(); ++i) {
          uint64_t c = h.bucket_count(i);
          hs.counts.push_back(c);
          hs.count += c;
        }
        hs.sum = h.sum();
        snap.histograms.push_back(std::move(hs));
        break;
      }
    }
  }
  return snap;
}

std::string MetricsRegistry::ToPrometheus() const {
  return ToPrometheusText(Snapshot());
}

}  // namespace obs
}  // namespace trendspeed
