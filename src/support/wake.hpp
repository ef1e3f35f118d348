// WakeSignal: the event-driven wake-up of a serving loop.
//
// A loop that owns some state (the Server behind acolay_serve) sleeps
// until one of its producers reports an event — a connection reader
// queued a line or closed, a BatchSolver worker published a finished job
// — instead of polling on a fixed tick. The primitive is a generation
// counter plus a condition variable:
//
//   const std::uint64_t seen = wake.generation();  // 1. snapshot
//   ... look at every source of work, do what is ready ...    // 2. check
//   if (nothing_moved) wake.wait(seen);                       // 3. sleep
//
// Because the snapshot is taken BEFORE the sources are checked, an event
// that lands between the check and the sleep has already bumped the
// generation, so wait() returns at once — no lost wake-ups, whatever the
// interleaving. Producers only ever call notify().
//
// Instances are owned by whoever owns the loop (no process-global state),
// so two servers in one process never wake each other.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace acolay::support {

/// Generation counter + condition variable (see the file comment).
class WakeSignal {
 public:
  WakeSignal() = default;
  WakeSignal(const WakeSignal&) = delete;
  WakeSignal& operator=(const WakeSignal&) = delete;

  /// The current generation; snapshot it before checking for work.
  std::uint64_t generation() const;

  /// Records one event and wakes every waiter. Callable from any thread.
  void notify();

  /// Blocks until the generation differs from `seen`.
  void wait(std::uint64_t seen);

  /// Like wait(), giving up after `timeout_seconds` (<= 0 returns at
  /// once). True when an event arrived, false on timeout.
  bool wait_for(std::uint64_t seen, double timeout_seconds);

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
};

}  // namespace acolay::support
