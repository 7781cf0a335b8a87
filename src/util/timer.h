// Wall-clock timing helper for the efficiency experiments and the
// observability layer's latency histograms.
//
// All readings go through obs::MonotonicNanos (steady_clock-backed), the
// same clock FlightSpan uses, so an NTP step on the host can never produce
// a negative or wildly wrong duration anywhere timing is measured. Elapsed
// values are additionally clamped at zero — the injected test clock
// (obs::SetMonotonicClockForTest) is the only source that can run
// backwards, and tests/obs_test.cc pins that contract.

#ifndef TRENDSPEED_UTIL_TIMER_H_
#define TRENDSPEED_UTIL_TIMER_H_

#include "obs/clock.h"

namespace trendspeed {

/// Monotonic stopwatch; starts at construction.
class WallTimer {
 public:
  WallTimer() : start_ns_(obs::MonotonicNanos()) {}

  void Restart() { start_ns_ = obs::MonotonicNanos(); }

  double ElapsedSeconds() const {
    return obs::NanosToSeconds(obs::ElapsedNanosSince(start_ns_));
  }
  double ElapsedMillis() const {
    return obs::NanosToMillis(obs::ElapsedNanosSince(start_ns_));
  }
  double ElapsedMicros() const {
    return static_cast<double>(obs::ElapsedNanosSince(start_ns_)) * 1e-3;
  }

 private:
  uint64_t start_ns_;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_UTIL_TIMER_H_
