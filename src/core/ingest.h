// IngestFrontEnd: the lock-free write path between observation producers
// and a ServingSession.
//
// Millions of users reporting speeds means many producer threads and one
// estimator. The front-end decouples them with a bounded MPSC queue
// (util/mpsc_queue.h):
//
//   producers   Offer(slot, obs)     lock-free push; `false` = backpressure
//   consumer    Drain() / Flush()    pops in FIFO order, groups runs of
//                                    equal slots into batches, and hands
//                                    each batch to ServingSession::Ingest
//                                    at the slot boundary
//
// Admission is slot-batched with a watermark: the drain loop accumulates
// observations while their slot matches the pending batch, flushes the
// batch the moment a later slot appears, and drops (and counts) stragglers
// for slots older than the pending one. Out-of-order or duplicate *batches*
// are the session's business — Ingest already rejects/absorbs them
// gracefully and counts them in ServingStats.
//
// Determinism contract: with a single producer and a single drain thread,
// the sequence of Ingest calls — and therefore every served report, stat,
// and published snapshot — is bitwise identical to calling Ingest directly
// with the same per-slot batches (tests/ingest_test.cc pins this). With
// several producers a batch's order is a race, but Ingest admits a batch
// as a function of its multiset, so the served estimate is still that of
// a direct Ingest (tests/serving_test.cc pins this with two producers).
//
// Thread roles: Offer from any thread; Drain/Flush from ONE consumer
// thread at a time. stats() and queue_depth() are safe anywhere.

#ifndef TRENDSPEED_CORE_INGEST_H_
#define TRENDSPEED_CORE_INGEST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/serving.h"
#include "util/mpsc_queue.h"
#include "util/status.h"

namespace trendspeed {

/// One queued crowd observation, tagged with its time slot.
struct QueuedObservation {
  uint64_t slot = 0;
  SeedSpeed obs;
  /// MonotonicNanos at Offer, stamped only when a flight recorder is
  /// attached (0 otherwise — detached producers never read the clock). The
  /// earliest stamp in a batch becomes the slot's queue-wait origin.
  uint64_t enqueue_ns = 0;
};

/// Cumulative front-end counters (snapshot; every field is atomically
/// maintained and mirrored into the metrics registry — same quiescence
/// equivalence as ServingStats).
struct IngestStats {
  uint64_t enqueued = 0;               ///< Offers accepted: queue pushes
  uint64_t rejected_backpressure = 0;  ///< Offers refused: queue full
  uint64_t flushed_slots = 0;          ///< batches handed to Ingest
  uint64_t stragglers = 0;  ///< observations behind the slot watermark
  /// Per-slot straggler attribution: the slot that has lost the most
  /// observations behind the watermark, and how many it lost. 0/0 until
  /// the first straggler. (Without this, stragglers vanish into one global
  /// counter and the worst-hit slot cannot be named.)
  uint64_t straggler_worst_slot = 0;
  uint64_t straggler_worst_count = 0;
};

class IngestFrontEnd {
 public:
  /// The session must outlive the front-end and have
  /// options().ingest_queue.capacity > 0 (the validated off-by-default
  /// knob); a zero capacity is refused with FailedPrecondition.
  static Result<std::unique_ptr<IngestFrontEnd>> Create(
      ServingSession* session);

  /// Producer side: lock-free, wait-free in the common case. Returns false
  /// when the queue is full — the observation is dropped and counted
  /// (backpressure is the caller's signal to shed or retry later).
  bool Offer(uint64_t slot, const SeedSpeed& obs);

  /// Consumer side: pops everything currently queued, flushing a batch
  /// into ServingSession::Ingest whenever the slot advances. The batch for
  /// the newest slot stays pending (more of it may still arrive) until a
  /// later slot or Flush(). Returns the number of batches flushed.
  size_t Drain();

  /// Consumer side: Drain(), then flush the pending batch too. Returns the
  /// session's report for that final batch, NotFound when nothing was
  /// pending, or the session's error for the batch (already counted in
  /// ServingStats; the front-end stays usable).
  Result<ServingSession::SlotReport> Flush();

  IngestStats stats() const;
  /// Racy depth estimate (also exported as the queue-depth gauge).
  size_t queue_depth() const { return queue_.SizeApprox(); }
  size_t capacity() const { return queue_.capacity(); }
  ServingSession* session() const { return session_; }

 private:
  IngestFrontEnd(ServingSession* session, size_t capacity);

  /// Hands the pending batch to the session, resets it and returns the
  /// session's result; with a flight recorder attached, first records the
  /// slot's queue-wait stage. Precondition: has_pending_. Session-level
  /// rejections (out-of-order, strict validation) are already counted in
  /// ServingStats, so Drain discards the result and never stalls on bad
  /// input.
  Result<ServingSession::SlotReport> FlushPending();

  /// Per-slot straggler attribution (consumer thread only): bumps the
  /// slot's count in a bounded map and maintains the worst-slot running
  /// max. Counts only grow, so the max never needs revisiting.
  void NoteStraggler(uint64_t slot);

  ServingSession* session_;
  MpscBoundedQueue<QueuedObservation> queue_;
  obs::FlightRecorder* flight_ = nullptr;  // borrowed via ServingOptions

  // Consumer-only state.
  std::vector<SeedSpeed> pending_;
  uint64_t pending_slot_ = 0;
  bool has_pending_ = false;
  uint64_t pending_origin_ns_ = 0;  ///< earliest enqueue stamp in the batch
  std::unordered_map<uint64_t, uint64_t> straggler_counts_;

  struct AtomicStats {
    std::atomic<uint64_t> rejected_backpressure{0};
    std::atomic<uint64_t> flushed_slots{0};
    std::atomic<uint64_t> stragglers{0};
    std::atomic<uint64_t> straggler_worst_slot{0};
    std::atomic<uint64_t> straggler_worst_count{0};
  };
  AtomicStats stats_;

  void Count(std::atomic<uint64_t>& field, obs::Counter* mirror) {
    field.fetch_add(1, std::memory_order_relaxed);
    obs::Add(mirror);
  }

  obs::Counter* m_enqueued_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_flushed_slots_ = nullptr;
  obs::Counter* m_stragglers_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_straggler_worst_slot_ = nullptr;
  obs::Gauge* m_straggler_worst_count_ = nullptr;
};

}  // namespace trendspeed

#endif  // TRENDSPEED_CORE_INGEST_H_
