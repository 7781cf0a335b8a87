// Exporter over RegistrySnapshot: Prometheus text exposition format, the
// one export format for metrics (scraping, benches, tests).
//
// It is deterministic for a given snapshot: series are pre-sorted by
// (name, labels) in MetricsRegistry::Snapshot() and numbers are formatted
// with a fixed shortest-round-trip format, so goldens in tests/obs_test.cc
// stay stable across platforms.

#ifndef TRENDSPEED_OBS_EXPORT_H_
#define TRENDSPEED_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace trendspeed {
namespace obs {

/// Prometheus text exposition format (version 0.0.4): # HELP / # TYPE
/// comments, one sample line per series, histograms expanded into
/// `_bucket{le="..."}` / `_sum` / `_count`.
std::string ToPrometheusText(const RegistrySnapshot& snap);

/// Shortest %g-style rendering of a sample value ("5", "0.25", "1e+06",
/// "+Inf"); exposed for golden tests.
std::string FormatMetricValue(double v);

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_EXPORT_H_
