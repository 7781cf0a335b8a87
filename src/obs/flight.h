// Slot flight recorder: one bounded event ring merged into per-slot
// timelines with critical-path attribution.
//
// Motivation (docs/observability.md "Flight recorder"): once a slot's life
// spans the MPSC ingest queue, the BP solve on the thread pool, and the
// speed snapshot publish, flat counters cannot answer "why was slot 1041
// slow?". Each stage of the serving pipeline — IngestFrontEnd queue wait
// -> Ingest -> admission -> Estimate -> BP solve -> snapshot publish —
// records one (slot, stage, start, duration) event, so the collector can
// reassemble one slot's stage timeline from the shared ring.
//
// Concurrency design: every flight event is recorded by the thread that
// calls IngestFrontEnd::Flush or ServingSession::Ingest (pool workers never
// record), so a recorder has as few writers as it has serving sessions,
// and one slot's events come from one thread: their start_ns order is
// their causal order. One mutex guards one ring of trivially-copyable
// FlightEvents whose capacity covers the whole recorder. A Record is one
// short critical section. The ring is reserved at construction, so only a
// thread's first Record allocates (its label). Once the ring is full each
// Record overwrites the oldest event and counts a drop. Collect copies the
// ring under the same mutex, so a writer may wait for a concurrent
// Collect's copy, and ThreadSanitizer sees every access.
//
// Detached contract: every record site is null-handle gated.
// `FlightSpan span(nullptr, ...)` costs two predicted branches and no clock
// reads; a pipeline with no recorder attached is bitwise identical to an
// uninstrumented one (bench_observability_overhead gates this).

#ifndef TRENDSPEED_OBS_FLIGHT_H_
#define TRENDSPEED_OBS_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace trendspeed {
namespace obs {

class Counter;
class MetricsRegistry;

/// Pipeline stages a slot passes through. kQueueWait/kIngest/kAdmission/
/// kBpSolve/kPublish sit on the causal backbone (serially ordered per
/// slot); kEstimate is an envelope containing kBpSolve, informational and
/// excluded from critical-path sums.
enum class FlightStage : uint8_t {
  kQueueWait = 0,  ///< first enqueue of the slot's batch -> its Ingest call
  kIngest,         ///< whole ServingSession::Ingest call
  kAdmission,      ///< sanitize/dedup of the offered batch
  kEstimate,       ///< Estimator::Estimate envelope (contains kBpSolve)
  kBpSolve,        ///< Step 1's BP solve
  kPublish,        ///< speed snapshot publish
};
constexpr size_t kNumFlightStages = 6;

/// Stable lower_snake_case stage name ("queue_wait", "bp_solve", ...), used
/// verbatim by the Chrome trace exporter.
const char* FlightStageName(FlightStage stage);

/// One recorded stage occurrence, as returned by the collector.
struct FlightEvent {
  uint64_t slot = 0;
  uint64_t start_ns = 0;     ///< MonotonicNanos at stage entry
  uint64_t duration_ns = 0;  ///< clamped >= 0 (obs/clock.h contract)
  uint64_t index = 0;        ///< recorder-wide record order (0-based)
  uint32_t thread_id = 0;    ///< dense process-wide id, in first-use order
  FlightStage stage = FlightStage::kQueueWait;
};

class FlightRecorder {
 public:
  /// `capacity` bounds the one ring every writer thread shares (rounded up
  /// to >= 8); once it is full each Record overwrites the oldest event.
  explicit FlightRecorder(size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one completed stage. Thread-safe: one short critical section.
  void Record(uint64_t slot, FlightStage stage, uint64_t start_ns,
              uint64_t duration_ns);

  /// Copy of the retained events, sorted by (start_ns, thread_id, index).
  /// Safe to call concurrently with writers.
  std::vector<FlightEvent> Collect() const;

  /// Collect() filtered to one slot.
  std::vector<FlightEvent> CollectSlot(uint64_t slot) const;

  /// (thread_id, label) for every thread that has recorded, sorted by id.
  /// Labels come from SetFlightThreadLabel, defaulting to "thread-<id>".
  std::vector<std::pair<uint32_t, std::string>> ThreadLabels() const;

  /// Mirrors recorder activity into the registry (trendspeed_flight_*).
  /// Call before recording starts; null detaches.
  void AttachMetrics(MetricsRegistry* registry);

  /// Events recorded over the recorder's lifetime (retained + overwritten).
  uint64_t total_recorded() const;
  /// Events lost to ring overwrites.
  uint64_t dropped() const;
  /// Distinct threads that have recorded so far.
  size_t num_threads() const;

 private:
  const size_t capacity_;

  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  // grows to capacity_, then wraps
  uint64_t recorded_ = 0;
  std::vector<std::pair<uint32_t, std::string>> threads_;

  Counter* m_recorded_ = nullptr;
  Counter* m_dropped_ = nullptr;
};

/// Labels the calling thread's flight events (and Chrome-trace thread row).
/// A recorder reads the label on the thread's first Record into it. Pass ""
/// to restore the default.
void SetFlightThreadLabel(const char* label);

/// RAII stage span. A null recorder makes the whole object two predicted
/// branches and no clock reads.
class FlightSpan {
 public:
  FlightSpan(FlightRecorder* recorder, uint64_t slot, FlightStage stage)
      : recorder_(recorder) {
    if (recorder_ == nullptr) return;
    slot_ = slot;
    stage_ = stage;
    start_ns_ = Now();
  }
  ~FlightSpan() {
    if (recorder_ == nullptr) return;
    End();
  }

  FlightSpan(const FlightSpan&) = delete;
  FlightSpan& operator=(const FlightSpan&) = delete;

 private:
  static uint64_t Now();  // MonotonicNanos, kept out of the header
  void End();

  FlightRecorder* recorder_;
  uint64_t slot_ = 0;
  uint64_t start_ns_ = 0;
  FlightStage stage_ = FlightStage::kQueueWait;
};

/// Per-slot critical-path decomposition over one slot's collected events.
/// total = queue-wait + the Ingest envelope; the attributed stages
/// (admission / BP / publish) partition the envelope, and
/// whatever the envelope spent outside them (seed trends, the influence
/// aggregate, evidence backfill, regression Step 2, alert updates) lands
/// in other_ns.
struct SlotCriticalPath {
  uint64_t slot = 0;
  uint64_t total_ns = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t admission_ns = 0;
  uint64_t bp_ns = 0;
  uint64_t publish_ns = 0;
  uint64_t other_ns = 0;     ///< Ingest envelope time outside the stages above
  size_t events = 0;         ///< events considered (all stages, incl. off-path)

  /// Fraction of total_ns attributed to a named stage (1.0 when total is 0).
  double AttributedFraction() const;
};

/// Computes the decomposition for `slot` from collected events (typically
/// FlightRecorder::CollectSlot output; events for other slots are ignored).
SlotCriticalPath ComputeSlotCriticalPath(const std::vector<FlightEvent>& events,
                                         uint64_t slot);

}  // namespace obs
}  // namespace trendspeed

#endif  // TRENDSPEED_OBS_FLIGHT_H_
