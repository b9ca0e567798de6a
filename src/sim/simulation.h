// Deterministic discrete-event simulation engine.
//
// A Simulation owns a queue of timed callbacks. Every event carries its virtual time `when`
// and a monotonic sequence number `seq` assigned when it is scheduled; events fire in
// ascending (when, seq) order, so events scheduled for the same virtual time fire in
// insertion order and every run is bit-reproducible. The engine is single-threaded by
// design: the paper's claims are about message counts and per-operation costs, both of which
// are modeled explicitly, so wall-clock parallelism would only add nondeterminism.
//
// The queue is two structures under that one contract (DESIGN.md §13.4). An event whose
// (when, seq) is at or after the back of an ordered FIFO ring is appended to the ring, in
// O(1); every other event goes to a binary heap. A pop takes the smaller of the two fronts.
// Since `seq` only grows, an event lands in the ring exactly when its time is no earlier
// than the ring's last one, which is the common case: a core pool hands a block's ready
// tasks non-decreasing completion times, so the thousands of task events a worker queues
// per block never touch the heap. The ring reuses its slots, so a queue that never runs
// dry holds no more storage than its peak of live events.

#ifndef NIMBUS_SRC_SIM_SIMULATION_H_
#define NIMBUS_SRC_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/virtual_time.h"

namespace nimbus::sim {

class Simulation {
 public:
  using Callback = std::function<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `when` (clamped to now()).
  void ScheduleAt(TimePoint when, Callback fn) {
    if (when < now_) {
      when = now_;
    }
    Push(Event{when, next_seq_++, std::move(fn)});
  }

  // Schedules `fn` to run `delay` after the current virtual time.
  void ScheduleAfter(Duration delay, Callback fn) {
    NIMBUS_CHECK_GE(delay, 0);
    ScheduleAt(now_ + delay, std::move(fn));
  }

  // Runs events until the queue is empty. Returns the final virtual time.
  TimePoint Run() { return RunUntil(kForever); }

  // Runs events with timestamps <= `deadline`. Later events stay queued.
  TimePoint RunUntil(TimePoint deadline);

  // Runs until `predicate` returns true (checked after every event) or the queue drains.
  // Returns true if the predicate was satisfied.
  bool RunUntilCondition(const std::function<bool()>& predicate);

  std::size_t pending_events() const { return ring_size_ + heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

  static constexpr TimePoint kForever = INT64_MAX;

 private:
  struct Event {
    TimePoint when = 0;
    std::uint64_t seq = 0;
    Callback fn;
  };

  static bool Earlier(const Event& a, const Event& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // Heap order for std::push_heap/pop_heap, which keep the *largest* element on top:
  // invert so the earliest event is the front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return Earlier(b, a); }
  };

  void Push(Event event);
  // The earliest pending event; the queue must not be empty.
  const Event& Front() const;
  bool RingIsFront() const;
  // Pops the earliest event, advances the clock to it and runs it.
  void FireNext();

  Event& RingSlot(std::size_t i) { return ring_[(ring_head_ + i) & (ring_.size() - 1)]; }
  const Event& RingSlot(std::size_t i) const {
    return ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // The ordered FIFO: a ring (power-of-two capacity) of events in ascending (when, seq).
  std::vector<Event> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<Event> heap_;  // every event that arrived behind the ring's back
};

// Models a serial execution resource (e.g. the controller's control-plane thread, a NIC
// transmit path). Work items are processed one at a time in submission order; the resource
// tracks when it next becomes free. This is what turns "166µs per task at the controller"
// into a pipeline bottleneck as task counts grow.
class Processor {
 public:
  explicit Processor(Simulation* simulation) : simulation_(simulation) {}

  // Submits `work` of the given duration. It starts when the resource is free (but not
  // before now()) and `done` fires at completion. Returns the completion time.
  TimePoint Submit(Duration work, Simulation::Callback done) {
    NIMBUS_CHECK_GE(work, 0);
    const TimePoint start = std::max(simulation_->now(), available_at_);
    const TimePoint finish = start + work;
    available_at_ = finish;
    busy_accum_ += work;
    if (done) {
      simulation_->ScheduleAt(finish, std::move(done));
    }
    return finish;
  }

  // Charges busy time without a completion callback (for accounting sequential costs).
  TimePoint Charge(Duration work) { return Submit(work, nullptr); }

  TimePoint available_at() const { return available_at_; }
  Duration total_busy() const { return busy_accum_; }

  void Reset() {
    available_at_ = 0;
    busy_accum_ = 0;
  }

 private:
  Simulation* simulation_;
  TimePoint available_at_ = 0;
  Duration busy_accum_ = 0;
};

// Models a pool of identical cores (a worker's execution slots). Work-conserving: a submitted
// item starts on the earliest-available core.
class CorePool {
 public:
  CorePool(Simulation* simulation, int cores)
      : simulation_(simulation), available_(static_cast<std::size_t>(cores), 0) {
    NIMBUS_CHECK_GT(cores, 0);
  }

  TimePoint Submit(Duration work, Simulation::Callback done) {
    NIMBUS_CHECK_GE(work, 0);
    // Pick the earliest-available core.
    std::size_t best = 0;
    for (std::size_t i = 1; i < available_.size(); ++i) {
      if (available_[i] < available_[best]) {
        best = i;
      }
    }
    const TimePoint start = std::max(simulation_->now(), available_[best]);
    const TimePoint finish = start + work;
    available_[best] = finish;
    busy_accum_ += work;
    if (done) {
      simulation_->ScheduleAt(finish, std::move(done));
    }
    return finish;
  }

  int cores() const { return static_cast<int>(available_.size()); }
  Duration total_busy() const { return busy_accum_; }

  // Earliest time by which every core is idle.
  TimePoint AllIdleAt() const {
    TimePoint t = 0;
    for (TimePoint a : available_) {
      t = std::max(t, a);
    }
    return t;
  }

  void Reset() {
    for (auto& a : available_) {
      a = 0;
    }
    busy_accum_ = 0;
  }

 private:
  Simulation* simulation_;
  std::vector<TimePoint> available_;
  Duration busy_accum_ = 0;
};

}  // namespace nimbus::sim

#endif  // NIMBUS_SRC_SIM_SIMULATION_H_
