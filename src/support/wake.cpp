#include "support/wake.hpp"

#include <chrono>

namespace acolay::support {

std::uint64_t WakeSignal::generation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

void WakeSignal::notify() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
  }
  cv_.notify_all();
}

void WakeSignal::wait(std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return generation_ != seen; });
}

bool WakeSignal::wait_for(std::uint64_t seen, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (timeout_seconds <= 0.0) return generation_ != seen;
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                      [&] { return generation_ != seen; });
}

}  // namespace acolay::support
