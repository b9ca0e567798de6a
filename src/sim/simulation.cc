#include "src/sim/simulation.h"

#include <algorithm>
#include <utility>

namespace nimbus::sim {

void Simulation::Push(Event event) {
  // `seq` only grows, so "at or after the ring's back in (when, seq)" is a time compare.
  if (ring_size_ == 0 || event.when >= RingSlot(ring_size_ - 1).when) {
    if (ring_size_ == ring_.size()) {
      // Full: move the live events, in order, into a ring twice the size.
      std::vector<Event> grown(std::max<std::size_t>(64, 2 * ring_.size()));
      for (std::size_t i = 0; i < ring_size_; ++i) {
        grown[i] = std::move(RingSlot(i));
      }
      ring_.swap(grown);
      ring_head_ = 0;
    }
    RingSlot(ring_size_) = std::move(event);
    ++ring_size_;
    return;
  }
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulation::RingIsFront() const {
  return ring_size_ > 0 && (heap_.empty() || Earlier(RingSlot(0), heap_.front()));
}

const Simulation::Event& Simulation::Front() const {
  return RingIsFront() ? RingSlot(0) : heap_.front();
}

void Simulation::FireNext() {
  // Move the event out before running it: the callback may schedule new events, which can
  // reuse its ring slot or reorder the heap.
  Event event;
  if (RingIsFront()) {
    event = std::move(RingSlot(0));
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_size_;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    event = std::move(heap_.back());
    heap_.pop_back();
  }
  NIMBUS_CHECK_GE(event.when, now_);
  now_ = event.when;
  ++executed_;
  event.fn();
}

TimePoint Simulation::RunUntil(TimePoint deadline) {
  while (pending_events() > 0 && Front().when <= deadline) {
    FireNext();
  }
  if (pending_events() == 0 && deadline != kForever) {
    now_ = std::max(now_, deadline);
  }
  return now_;
}

bool Simulation::RunUntilCondition(const std::function<bool()>& predicate) {
  if (predicate()) {
    return true;
  }
  while (pending_events() > 0) {
    FireNext();
    if (predicate()) {
      return true;
    }
  }
  return false;
}

}  // namespace nimbus::sim
