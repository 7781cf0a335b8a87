#include "obs/flight.h"

#include <algorithm>
#include <atomic>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace trendspeed {
namespace obs {

namespace {

// Dense process-wide thread ids (0, 1, 2, ... in first-use order; assigned
// lazily, stable for the thread's lifetime).
constexpr uint32_t kUnassignedThreadId = 0xffffffffu;
std::atomic<uint32_t> g_next_thread_id{0};
thread_local uint32_t tl_thread_id = kUnassignedThreadId;

thread_local std::string tl_flight_label;

uint32_t CurrentThreadId() {
  if (tl_thread_id == kUnassignedThreadId) {
    tl_thread_id = g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return tl_thread_id;
}

}  // namespace

const char* FlightStageName(FlightStage stage) {
  switch (stage) {
    case FlightStage::kQueueWait:
      return "queue_wait";
    case FlightStage::kIngest:
      return "ingest";
    case FlightStage::kAdmission:
      return "admission";
    case FlightStage::kEstimate:
      return "estimate";
    case FlightStage::kBpSolve:
      return "bp_solve";
    case FlightStage::kPublish:
      return "publish";
  }
  return "unknown";
}

void SetFlightThreadLabel(const char* label) {
  tl_flight_label = label != nullptr ? label : "";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(8, capacity)) {
  ring_.reserve(capacity_);
}

void FlightRecorder::Record(uint64_t slot, FlightStage stage, uint64_t start_ns,
                            uint64_t duration_ns) {
  FlightEvent e;
  e.slot = slot;
  e.start_ns = start_ns;
  e.duration_ns = duration_ns;
  e.thread_id = CurrentThreadId();
  e.stage = stage;
  std::lock_guard<std::mutex> lock(mu_);
  const bool new_thread =
      std::none_of(threads_.begin(), threads_.end(),
                   [&](const auto& t) { return t.first == e.thread_id; });
  if (new_thread) {
    threads_.emplace_back(e.thread_id,
                          tl_flight_label.empty()
                              ? "thread-" + std::to_string(e.thread_id)
                              : tl_flight_label);
  }
  e.index = recorded_++;
  Add(m_recorded_);
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[e.index % capacity_] = e;
    Add(m_dropped_);
  }
}

std::vector<FlightEvent> FlightRecorder::Collect() const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = ring_;
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              return a.index < b.index;
            });
  return out;
}

std::vector<FlightEvent> FlightRecorder::CollectSlot(uint64_t slot) const {
  std::vector<FlightEvent> all = Collect();
  std::vector<FlightEvent> out;
  out.reserve(all.size());
  for (const FlightEvent& e : all) {
    if (e.slot == slot) out.push_back(e);
  }
  return out;
}

std::vector<std::pair<uint32_t, std::string>> FlightRecorder::ThreadLabels()
    const {
  std::vector<std::pair<uint32_t, std::string>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = threads_;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlightRecorder::AttachMetrics(MetricsRegistry* registry) {
  m_recorded_ = GetCounter(registry, kFlightEventsRecordedTotal);
  m_dropped_ = GetCounter(registry, kFlightEventsDroppedTotal);
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - ring_.size();
}

size_t FlightRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

uint64_t FlightSpan::Now() { return MonotonicNanos(); }

void FlightSpan::End() {
  recorder_->Record(slot_, stage_, start_ns_, ElapsedNanosSince(start_ns_));
}

double SlotCriticalPath::AttributedFraction() const {
  if (total_ns == 0) return 1.0;
  return 1.0 - static_cast<double>(other_ns) / static_cast<double>(total_ns);
}

SlotCriticalPath ComputeSlotCriticalPath(const std::vector<FlightEvent>& events,
                                         uint64_t slot) {
  SlotCriticalPath cp;
  cp.slot = slot;
  uint64_t ingest_ns = 0;
  for (const FlightEvent& e : events) {
    if (e.slot != slot) continue;
    ++cp.events;
    switch (e.stage) {
      case FlightStage::kQueueWait:
        cp.queue_wait_ns += e.duration_ns;
        break;
      case FlightStage::kIngest:
        ingest_ns += e.duration_ns;
        break;
      case FlightStage::kAdmission:
        cp.admission_ns += e.duration_ns;
        break;
      case FlightStage::kBpSolve:
        cp.bp_ns += e.duration_ns;
        break;
      case FlightStage::kPublish:
        cp.publish_ns += e.duration_ns;
        break;
      case FlightStage::kEstimate:
        // Envelope around kBpSolve; counting it would double-book.
        break;
    }
  }
  cp.total_ns = cp.queue_wait_ns + ingest_ns;
  uint64_t attributed = cp.admission_ns + cp.bp_ns + cp.publish_ns;
  cp.other_ns = ingest_ns > attributed ? ingest_ns - attributed : 0;
  return cp;
}

}  // namespace obs
}  // namespace trendspeed
