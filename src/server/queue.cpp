#include "server/queue.hpp"

#include <algorithm>

namespace acolay::server {

bool RequestQueue::before(const Item& a, const Item& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.entry > b.entry;
}

bool RequestQueue::push(std::size_t entry, int priority) {
  if (heap_.size() >= capacity_) return false;
  heap_.push_back(Item{priority, entry});
  std::push_heap(heap_.begin(), heap_.end(), before);
  return true;
}

std::optional<std::size_t> RequestQueue::pop() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(), before);
  const std::size_t entry = heap_.back().entry;
  heap_.pop_back();
  return entry;
}

}  // namespace acolay::server
