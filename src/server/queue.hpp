// The serving layer's admission queue: a bounded max-heap of pending
// request handles ordered by (priority desc, entry index asc).
//
// Capacity is the backpressure knob — push() refuses when full and the
// session answers `rejected: overloaded` instead of buffering without
// bound. Strict FIFO among equal priorities keeps dispatch order — and
// therefore the dedup-flag pattern in a transcript — a pure function of
// the arrival order, which is what makes golden-transcript testing
// possible at all.
//
// The queue stores entry indices, not requests: the session owns the
// request records; this container only decides who dispatches next. The
// session numbers entries in arrival order, so the entry index IS the
// FIFO tie-break — and an entry popped and pushed back (a warm solve the
// session defers behind a held delta) keeps its place.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace acolay::server {

/// Bounded priority queue of request-entry indices (see file comment).
/// Single-threaded: the session serializes all access.
class RequestQueue {
 public:
  /// A queue refusing pushes beyond `capacity` pending items.
  explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Enqueues entry index `entry` (indices grow with arrival order);
  /// false when the queue is full (the caller turns that into the
  /// overloaded rejection).
  bool push(std::size_t entry, int priority);

  /// Highest-priority pending entry (FIFO among ties), or nullopt when
  /// empty.
  std::optional<std::size_t> pop();

  std::size_t size() const { return heap_.size(); }  ///< pending count
  bool empty() const { return heap_.empty(); }       ///< no pending items
  std::size_t capacity() const { return capacity_; }  ///< admission bound

 private:
  struct Item {
    int priority = 0;
    std::size_t entry = 0;  ///< session entry index, the FIFO tie-break
  };
  /// Max-heap order for std::push_heap: `a` below `b` when lower priority,
  /// or same priority but later arrival.
  static bool before(const Item& a, const Item& b);

  std::vector<Item> heap_;
  std::size_t capacity_;
};

}  // namespace acolay::server
