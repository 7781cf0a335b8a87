// MpscBoundedQueue: a bounded lock-free multi-producer single-consumer
// queue for the ingest front-end (core/ingest.h).
//
// Design: Vyukov-style bounded ring of cells, each carrying a sequence
// number that encodes whose turn the cell is on. Producers claim a cell
// with one compare-exchange on the (cache-line-padded) tail and publish the
// payload by bumping the cell sequence; the consumer mirrors the dance on
// the head. Push and pop are therefore wait-free in the common case (one
// RMW + one store), there are no locks anywhere, and a full queue is
// reported to the producer as `false` — backpressure, never blocking.
//
// Contract:
//   * TryPush  — any number of threads.
//   * TryPop   — exactly ONE consumer thread at a time (the serving
//     drain loop). Multiple concurrent consumers are NOT supported.
//   * Elements pushed by one producer pop in that producer's order
//     (per-producer FIFO); cross-producer interleaving is arbitrary.
//   * capacity() is the usable bound: a TryPush that would exceed it
//     fails. Requested capacities are rounded up to a power of two so
//     index masking stays one AND.
//
// std-atomics only; T must be nothrow-move-constructible so a pop can
// never tear the ring state by throwing mid-transfer.

#ifndef TRENDSPEED_UTIL_MPSC_QUEUE_H_
#define TRENDSPEED_UTIL_MPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/logging.h"

namespace trendspeed {

template <typename T>
class MpscBoundedQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "queue elements must be nothrow-movable");

 public:
  /// Usable capacity is `capacity` rounded up to a power of two, min 2.
  explicit MpscBoundedQueue(size_t capacity)
      : mask_(RoundUpPow2(capacity) - 1),
        cells_(std::make_unique<Cell[]>(mask_ + 1)) {
    for (size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscBoundedQueue(const MpscBoundedQueue&) = delete;
  MpscBoundedQueue& operator=(const MpscBoundedQueue&) = delete;

  /// Producer side. Returns false when the queue is full (backpressure);
  /// the element is untouched in that case.
  bool TryPush(T v) {
    Cell* cell;
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      uint64_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        // The cell is free for round `pos`; try to claim it.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        // The cell still holds an element from `capacity` rounds ago:
        // the ring is full.
        return false;
      } else {
        // Another producer claimed `pos`; reload and retry.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    new (&cell->storage) T(std::move(v));
    // Publishing store: pairs with the consumer's acquire load of seq.
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side (single consumer only). Returns false when empty.
  bool TryPop(T* out) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    Cell* cell = &cells_[pos & mask_];
    uint64_t seq = cell->seq.load(std::memory_order_acquire);
    if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0) {
      return false;  // cell not yet published: empty (or producer mid-push)
    }
    T* elem = reinterpret_cast<T*>(&cell->storage);
    *out = std::move(*elem);
    elem->~T();
    // Hand the cell to producers for the round one lap ahead.
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  size_t capacity() const { return mask_ + 1; }

  /// Successful TryPush calls so far (the tail only moves on a claim).
  uint64_t pushes() const { return tail_.load(std::memory_order_relaxed); }

  /// Racy size estimate for gauges/backpressure heuristics; exact only at
  /// quiescence.
  size_t SizeApprox() const {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

  ~MpscBoundedQueue() {
    // Destroy leftovers in place so non-trivial T destructors run.
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell* cell = &cells_[pos & mask_];
      if (cell->seq.load(std::memory_order_relaxed) != pos + 1) break;
      reinterpret_cast<T*>(&cell->storage)->~T();
      ++pos;
    }
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq;
    alignas(alignof(T)) unsigned char storage[sizeof(T)];
  };

  static size_t RoundUpPow2(size_t v) {
    TS_CHECK_LE(v, size_t{1} << 30);
    size_t p = 2;
    while (p < v) p <<= 1;
    return p;
  }

  const size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  // Head and tail on their own cache lines so producers hammering the tail
  // never invalidate the consumer's head line (and vice versa).
  alignas(64) std::atomic<uint64_t> tail_{0};  // producers
  alignas(64) std::atomic<uint64_t> head_{0};  // the single consumer
};

}  // namespace trendspeed

#endif  // TRENDSPEED_UTIL_MPSC_QUEUE_H_
