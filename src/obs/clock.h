// Monotonic clock for every span / latency measurement in the tree.
//
// All observability timing (FlightSpan, WallTimer, histogram latencies) goes
// through MonotonicNanos so the same guarantee holds everywhere: the reading
// is steady_clock-backed and never runs backwards, so an NTP step on the
// host cannot produce a negative duration. ElapsedNanosSince additionally
// clamps at zero, which keeps durations sane even under the injected test
// clock (the only way a reading can decrease).
//
// `obs` is the bottom layer of the library: it depends on nothing but the
// standard library, so util/ (thread pool, timer) can build on it.

#ifndef TRENDSPEED_OBS_CLOCK_H_
#define TRENDSPEED_OBS_CLOCK_H_

#include <cstdint>

namespace trendspeed {
namespace obs {

/// Nanoseconds on std::chrono::steady_clock since an arbitrary epoch.
uint64_t MonotonicNanos();

/// Test hook: replaces the clock source process-wide (nullptr restores the
/// real steady clock). Intended for single-threaded test setup only.
using ClockFn = uint64_t (*)();
void SetMonotonicClockForTest(ClockFn fn);

/// now - start_ns, clamped at 0 so a misbehaving (injected) clock can never
/// yield a negative duration.
uint64_t ElapsedNanosSince(uint64_t start_ns);

inline double NanosToMillis(uint64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}
inline double NanosToSeconds(uint64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_CLOCK_H_
