// Chrome trace-event JSON export (catapult / chrome://tracing / Perfetto
// legacy loader) for the flight recorder.
//
// Output contract (tested byte-exact against goldens in
// tests/trace_export_test.cc):
//
//   * top level `{"displayTimeUnit":"ms","traceEvents":[...]}`;
//   * one JSON object per line inside traceEvents;
//   * per-thread `ph:"M" thread_name` metadata first, sorted by tid;
//   * then `ph:"X"` complete events sorted by (start_ns, thread id, record
//     index) — a total order, so equal timestamps cannot reorder between
//     runs;
//   * `ts`/`dur` in microseconds, printed as %.3f, rebased so the earliest
//     event starts at ts 0.000 (absolute monotonic origins differ per run;
//     rebasing keeps goldens stable under the injected clock);
//   * `args` holds the event's slot only: one slot's stages are recorded
//     by one thread, so their `ts` order is their pipeline order.
//
// Everything here is a pure function of already-collected events — no
// clock reads, no recorder mutation — so exports are safe while writers
// are live (Collect() copies the ring under the recorder's mutex).

#ifndef TRENDSPEED_OBS_TRACE_EXPORT_H_
#define TRENDSPEED_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.h"

namespace trendspeed {
namespace obs {

/// Flight events (any order) + thread labels -> Chrome trace JSON. Events
/// carry cat "flight", the FlightStageName as the event name, and args
/// {"slot":N}.
std::string ToChromeTraceJson(
    const std::vector<FlightEvent>& events,
    const std::vector<std::pair<uint32_t, std::string>>& threads);

/// Collect() + ThreadLabels() of a live recorder, exported.
std::string ToChromeTraceJson(const FlightRecorder& recorder);

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_TRACE_EXPORT_H_
