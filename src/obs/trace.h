// Scoped wall-clock tracing with a bounded ring buffer.
//
// A ScopedSpan measures one nested region (construction to destruction) on
// the monotonic clock (obs/clock.h) and records it into a TraceRecorder.
// The recorder keeps the most recent `capacity` events in a fixed ring —
// tracing a long-running serving session is O(capacity) memory forever, and
// a trace dump is "the last N things the pipeline did", which is what you
// want when diagnosing a latency spike.
//
// Like metrics handles, a null recorder disables a span site entirely:
// `ScopedSpan span(nullptr, "bp/infer")` costs two branches and no clock
// reads, so untraced builds stay at full speed.
//
// Span names are expected to be string literals ("subsystem/action"); the
// recorder stores the pointer, not a copy.

#ifndef TRENDSPEED_OBS_TRACE_H_
#define TRENDSPEED_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace trendspeed {
namespace obs {

struct TraceEvent {
  const char* name = "";
  uint64_t start_ns = 0;     ///< MonotonicNanos at span entry
  uint64_t duration_ns = 0;  ///< clamped >= 0 (obs/clock.h contract)
  uint32_t depth = 0;        ///< nesting depth at entry (0 = root span)
  uint64_t seq = 0;          ///< global record order (monotone)
  /// Recording thread (dense process-wide id, obs::CurrentThreadId). With
  /// pool workers recording concurrently, depth alone cannot separate
  /// interleaved spans; (thread_id, span_id, parent_id) can.
  uint32_t thread_id = 0;
  uint64_t span_id = 0;    ///< recorder-unique id (1-based; 0 = none)
  uint64_t parent_id = 0;  ///< enclosing span on the same thread (0 = root)
};

/// Dense process-wide id of the calling thread (0, 1, 2, ... in first-use
/// order; assigned lazily, stable for the thread's lifetime). Shared by
/// TraceRecorder and FlightRecorder so one "thread" means one row across
/// every exporter.
uint32_t CurrentThreadId();

class TraceRecorder {
 public:
  /// Keeps the most recent `capacity` events (>= 1 enforced).
  explicit TraceRecorder(size_t capacity = 1024);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records one completed span. Thread-safe. The identity fields default
  /// to "unattributed" so direct Record calls (tests, ad-hoc probes) stay
  /// source-compatible; ScopedSpan fills all three.
  void Record(const char* name, uint64_t start_ns, uint64_t duration_ns,
              uint32_t depth, uint32_t thread_id = 0, uint64_t span_id = 0,
              uint64_t parent_id = 0);

  /// Allocates a recorder-unique span id (1-based). Used by ScopedSpan.
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Events currently retained, oldest first.
  std::vector<TraceEvent> Events() const;

  /// Events recorded over the recorder's lifetime (retained + overwritten).
  uint64_t total_recorded() const;
  /// Events lost to the ring bound so far.
  uint64_t dropped() const;
  size_t capacity() const { return ring_.size(); }

  /// Deterministic JSON dump of Events() — `[{"name":...,"start_ns":...,
  /// "duration_ns":...,"depth":...,"seq":...,"thread_id":...,"span":...,
  /// "parent":...}, ...]`.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;      // next write position
  uint64_t total_ = 0;   // lifetime events
  std::atomic<uint64_t> next_span_id_{1};
};

/// RAII span. A null recorder makes the whole object a no-op.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* name_;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
};

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_TRACE_H_
