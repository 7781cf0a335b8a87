#include "core/ingest.h"

#include "obs/catalog.h"
#include "obs/clock.h"

namespace trendspeed {

IngestFrontEnd::IngestFrontEnd(ServingSession* session, size_t capacity)
    : session_(session),
      queue_(capacity),
      flight_(session->options().observability.flight) {
  obs::MetricsRegistry* reg = session->options().observability.metrics;
  m_enqueued_ = obs::GetCounter(reg, obs::kServingIngestEnqueuedTotal);
  m_rejected_ =
      obs::GetCounter(reg, obs::kServingIngestRejectedBackpressureTotal);
  m_flushed_slots_ =
      obs::GetCounter(reg, obs::kServingIngestFlushedSlotsTotal);
  m_stragglers_ = obs::GetCounter(reg, obs::kServingIngestStragglersTotal);
  m_queue_depth_ = obs::GetGauge(reg, obs::kServingIngestQueueDepth);
  m_straggler_worst_slot_ =
      obs::GetGauge(reg, obs::kServingIngestStragglerWorstSlot);
  m_straggler_worst_count_ =
      obs::GetGauge(reg, obs::kServingIngestStragglerWorstCount);
}

Result<std::unique_ptr<IngestFrontEnd>> IngestFrontEnd::Create(
    ServingSession* session) {
  if (session == nullptr) {
    return Status::InvalidArgument("null session");
  }
  const IngestQueueOptions& opts = session->options().ingest_queue;
  TS_RETURN_NOT_OK(opts.Validate());
  if (opts.capacity == 0) {
    return Status::FailedPrecondition(
        "ingest queue disabled: ServingOptions::ingest_queue.capacity is 0");
  }
  return std::unique_ptr<IngestFrontEnd>(
      new IngestFrontEnd(session, opts.capacity));
}

bool IngestFrontEnd::Offer(uint64_t slot, const SeedSpeed& obs) {
  QueuedObservation item{slot, obs};
  // Detached front-ends never read the clock on the producer path (the
  // one-branch contract); attached ones stamp the enqueue time so the
  // flight recorder can attribute queue wait.
  if (flight_ != nullptr) item.enqueue_ns = obs::MonotonicNanos();
  if (!queue_.TryPush(item)) {
    Count(stats_.rejected_backpressure, m_rejected_);
    return false;
  }
  obs::Add(m_enqueued_);
  // SizeApprox reads the consumer's head line: only an attached gauge pays
  // for it.
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Set(static_cast<double>(queue_.SizeApprox()));
  }
  return true;
}

Result<ServingSession::SlotReport> IngestFrontEnd::FlushPending() {
  Count(stats_.flushed_slots, m_flushed_slots_);
  if (flight_ != nullptr) {
    // The slot's queue wait: its batch's earliest enqueue -> Ingest.
    const uint64_t now = obs::MonotonicNanos();
    const uint64_t origin =
        pending_origin_ns_ != 0 && pending_origin_ns_ < now
            ? pending_origin_ns_
            : now;
    flight_->Record(pending_slot_, obs::FlightStage::kQueueWait, origin,
                    now - origin);
  }
  Result<ServingSession::SlotReport> result =
      session_->Ingest(pending_slot_, pending_);
  pending_.clear();  // keeps its capacity for the next slot's batch
  has_pending_ = false;
  pending_origin_ns_ = 0;
  return result;
}

size_t IngestFrontEnd::Drain() {
  const uint64_t before =
      stats_.flushed_slots.load(std::memory_order_relaxed);
  QueuedObservation item;
  while (queue_.TryPop(&item)) {
    if (has_pending_ && item.slot < pending_slot_) {
      // Behind the watermark: its batch already flushed (another producer
      // advanced the stream). Dropping here keeps one bad interleaving
      // from rejecting the whole pending batch as out-of-order.
      Count(stats_.stragglers, m_stragglers_);
      NoteStraggler(item.slot);
      continue;
    }
    if (has_pending_ && item.slot > pending_slot_) (void)FlushPending();
    if (!has_pending_) {
      pending_slot_ = item.slot;
      has_pending_ = true;
    }
    // Queue-wait origin = earliest producer stamp in the batch (stamps are
    // 0 when no recorder is attached, and multi-producer pop order is not
    // enqueue order, hence the min).
    if (item.enqueue_ns != 0 &&
        (pending_origin_ns_ == 0 || item.enqueue_ns < pending_origin_ns_)) {
      pending_origin_ns_ = item.enqueue_ns;
    }
    pending_.push_back(item.obs);
  }
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->Set(static_cast<double>(queue_.SizeApprox()));
  }
  return static_cast<size_t>(
      stats_.flushed_slots.load(std::memory_order_relaxed) - before);
}

Result<ServingSession::SlotReport> IngestFrontEnd::Flush() {
  Drain();
  if (!has_pending_) {
    return Status::NotFound("no pending observations to flush");
  }
  return FlushPending();
}

void IngestFrontEnd::NoteStraggler(uint64_t slot) {
  // Bounded attribution memory: past the cap, new slots still count in the
  // global straggler counter but are not individually attributed (a stream
  // healthy enough to matter revisits few distinct stale slots).
  constexpr size_t kMaxTrackedSlots = 4096;
  auto it = straggler_counts_.find(slot);
  if (it == straggler_counts_.end()) {
    if (straggler_counts_.size() >= kMaxTrackedSlots) return;
    it = straggler_counts_.emplace(slot, 0).first;
  }
  uint64_t count = ++it->second;
  if (count > stats_.straggler_worst_count.load(std::memory_order_relaxed)) {
    stats_.straggler_worst_count.store(count, std::memory_order_relaxed);
    stats_.straggler_worst_slot.store(slot, std::memory_order_relaxed);
    obs::Set(m_straggler_worst_count_, static_cast<double>(count));
    obs::Set(m_straggler_worst_slot_, static_cast<double>(slot));
  }
}

IngestStats IngestFrontEnd::stats() const {
  IngestStats out;
  out.enqueued = queue_.pushes();
  out.rejected_backpressure =
      stats_.rejected_backpressure.load(std::memory_order_relaxed);
  out.flushed_slots = stats_.flushed_slots.load(std::memory_order_relaxed);
  out.stragglers = stats_.stragglers.load(std::memory_order_relaxed);
  out.straggler_worst_slot =
      stats_.straggler_worst_slot.load(std::memory_order_relaxed);
  out.straggler_worst_count =
      stats_.straggler_worst_count.load(std::memory_order_relaxed);
  return out;
}

}  // namespace trendspeed
