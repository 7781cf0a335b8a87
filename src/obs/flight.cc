#include "obs/flight.h"

#include <algorithm>

#include "obs/catalog.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace trendspeed {
namespace obs {

namespace {

// Process-unique recorder generation ids (never reused), so a TLS ring
// cache entry from a destroyed recorder can never alias a new one.
std::atomic<uint64_t> g_next_generation{1};

// Dense process-wide thread ids (0, 1, 2, ... in first-use order; assigned
// lazily, stable for the thread's lifetime).
constexpr uint32_t kUnassignedThreadId = 0xffffffffu;
std::atomic<uint32_t> g_next_thread_id{0};
thread_local uint32_t tl_thread_id = kUnassignedThreadId;

thread_local std::string tl_flight_label;

struct RingCache {
  uint64_t generation = 0;
  void* ring = nullptr;  // FlightRecorder::ThreadRing*, cached per recorder
};
thread_local RingCache tl_ring_cache;

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

FlightRecorder::FlightRecorder(size_t events_per_thread, size_t max_threads)
    : events_per_thread_(std::max<size_t>(8, events_per_thread)),
      max_threads_(std::max<size_t>(1, max_threads)),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::ThreadRing* FlightRecorder::RingForThisThread() {
  if (tl_ring_cache.generation == generation_) {
    return static_cast<ThreadRing*>(tl_ring_cache.ring);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ThreadRing* ring = nullptr;
  if (rings_.size() < max_threads_) {
    rings_.push_back(std::make_unique<ThreadRing>(events_per_thread_));
    ring = rings_.back().get();
    ring->thread_id = CurrentThreadId();
    ring->label = tl_flight_label.empty()
                      ? "thread-" + std::to_string(ring->thread_id)
                      : tl_flight_label;
    Set(m_threads_, static_cast<double>(rings_.size()));
  }
  // Cache even the nullptr result: a thread past the max_threads bound
  // stays on the cheap drop path instead of retaking the mutex per event.
  tl_ring_cache.generation = generation_;
  tl_ring_cache.ring = ring;
  return ring;
}

void FlightRecorder::Record(uint64_t slot, FlightStage stage, uint64_t start_ns,
                            uint64_t duration_ns, uint32_t path_seq) {
  ThreadRing* ring = RingForThisThread();
  if (ring == nullptr) {
    dropped_unregistered_.fetch_add(1, std::memory_order_relaxed);
    Add(m_dropped_);
    return;
  }
  uint64_t n = ring->count.load(std::memory_order_relaxed);
  Cell& cell = ring->cells[n % events_per_thread_];
  // Single writer per ring; the seqlock below only defends the collector.
  // Same fence protocol as the snapshot publisher (core/snapshot.cc).
  uint32_t s = cell.seq.load(std::memory_order_relaxed);
  cell.seq.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  cell.thread_id.store(ring->thread_id, std::memory_order_relaxed);
  cell.stage_and_path.store(
      static_cast<uint32_t>(stage) | (path_seq << 8), std::memory_order_relaxed);
  cell.slot.store(slot, std::memory_order_relaxed);
  cell.start_ns.store(start_ns, std::memory_order_relaxed);
  cell.duration_ns.store(duration_ns, std::memory_order_relaxed);
  cell.index.store(n, std::memory_order_relaxed);
  cell.seq.store(s + 2, std::memory_order_release);
  ring->count.store(n + 1, std::memory_order_release);
  total_recorded_.fetch_add(1, std::memory_order_relaxed);
  Add(m_recorded_);
  if (n >= events_per_thread_) Add(m_dropped_);  // overwrote a live cell
}

std::vector<FlightEvent> FlightRecorder::Collect() const {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  std::vector<FlightEvent> out;
  for (ThreadRing* ring : rings) {
    uint64_t n = ring->count.load(std::memory_order_acquire);
    size_t filled = static_cast<size_t>(
        std::min<uint64_t>(n, events_per_thread_));
    for (size_t i = 0; i < filled; ++i) {
      const Cell& cell = ring->cells[i];
      uint32_t s1 = cell.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;  // unwritten or mid-write
      FlightEvent e;
      e.thread_id = cell.thread_id.load(std::memory_order_relaxed);
      uint32_t sp = cell.stage_and_path.load(std::memory_order_relaxed);
      e.stage = static_cast<FlightStage>(sp & 0xff);
      e.path_seq = sp >> 8;
      e.slot = cell.slot.load(std::memory_order_relaxed);
      e.start_ns = cell.start_ns.load(std::memory_order_relaxed);
      e.duration_ns = cell.duration_ns.load(std::memory_order_relaxed);
      e.index = cell.index.load(std::memory_order_relaxed);
      // Pairs with the writer's release fence: if any payload load above
      // raced an in-flight overwrite, the seq re-read sees its odd store.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (cell.seq.load(std::memory_order_relaxed) != s1) continue;
      out.push_back(e);
    }
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
    out.reserve(rings_.size());
    for (const auto& r : rings_) out.emplace_back(r->thread_id, r->label);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlightRecorder::AttachMetrics(MetricsRegistry* registry) {
  m_recorded_ = GetCounter(registry, kFlightEventsRecordedTotal);
  m_dropped_ = GetCounter(registry, kFlightEventsDroppedTotal);
  m_threads_ = GetGauge(registry, kFlightThreads);
  std::lock_guard<std::mutex> lock(mu_);
  Set(m_threads_, static_cast<double>(rings_.size()));
}

uint64_t FlightRecorder::total_recorded() const {
  return total_recorded_.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::dropped() const {
  uint64_t d = dropped_unregistered_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : rings_) {
    uint64_t n = r->count.load(std::memory_order_relaxed);
    if (n > events_per_thread_) d += n - events_per_thread_;
  }
  return d;
}

size_t FlightRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rings_.size();
}

uint64_t FlightSpan::Now() { return MonotonicNanos(); }

void FlightSpan::End() {
  recorder_->Record(slot_, stage_, start_ns_, ElapsedNanosSince(start_ns_),
                    path_seq_);
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
