// Unit tests for the discrete-event engine, processors, core pools and the network model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/cost_model.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"

namespace nimbus::sim {
namespace {

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  s.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  s.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), Millis(30));
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulationTest, CallbacksCanScheduleMoreEvents) {
  Simulation s;
  int fired = 0;
  s.ScheduleAfter(Millis(1), [&] {
    ++fired;
    s.ScheduleAfter(Millis(1), [&] { ++fired; });
  });
  s.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), Millis(2));
}

TEST(SimulationTest, RunUntilLeavesLaterEventsQueued) {
  Simulation s;
  int fired = 0;
  s.ScheduleAt(Millis(10), [&] { ++fired; });
  s.ScheduleAt(Millis(30), [&] { ++fired; });
  s.RunUntil(Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilConditionStopsEarly) {
  Simulation s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.ScheduleAt(Millis(i), [&] { ++fired; });
  }
  const bool ok = s.RunUntilCondition([&] { return fired == 4; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(s.now(), Millis(4));
}

TEST(SimulationTest, RunUntilConditionReturnsFalseWhenDrained) {
  Simulation s;
  s.ScheduleAfter(Millis(1), [] {});
  EXPECT_FALSE(s.RunUntilCondition([] { return false; }));
}

TEST(SimulationTest, PastEventsClampToNow) {
  Simulation s;
  s.ScheduleAt(Millis(10), [] {});
  s.Run();
  bool fired = false;
  s.ScheduleAt(Millis(5), [&] { fired = true; });  // in the past
  s.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), Millis(10));
}

// Records what every event must fire at, against the engine's (when, seq) contract: ids are
// handed out in scheduling order, as the engine's sequence numbers are, so the expected
// firing order is a stable sort of the ids by their clamped time.
class OrderOracle {
 public:
  explicit OrderOracle(Simulation* s) : s_(s) {}

  // Schedules an event at `when` (clamped like ScheduleAt); `then` runs when it fires.
  void At(TimePoint when, std::function<void()> then = nullptr) {
    const std::size_t id = when_.size();
    when_.push_back(std::max(when, s_->now()));
    s_->ScheduleAt(when, [this, id, then = std::move(then)] {
      EXPECT_EQ(s_->now(), when_[id]) << "event " << id;
      fired_.push_back(id);
      if (then) {
        then();
      }
    });
  }

  std::size_t scheduled() const { return when_.size(); }
  std::size_t fired() const { return fired_.size(); }

  // Whether every event that has not fired yet is due after `deadline`.
  bool NothingDueBy(TimePoint deadline) const {
    std::vector<bool> done(when_.size(), false);
    for (std::size_t id : fired_) {
      done[id] = true;
    }
    for (std::size_t id = 0; id < when_.size(); ++id) {
      if (!done[id] && when_[id] <= deadline) {
        return false;
      }
    }
    return true;
  }

  // Whether the events fired so far are exactly the first ones of the stable sort.
  bool FiredInOrder() const {
    std::vector<std::size_t> expected(when_.size());
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [this](std::size_t a, std::size_t b) { return when_[a] < when_[b]; });
    expected.resize(fired_.size());
    return fired_ == expected;
  }

 private:
  Simulation* s_;
  std::vector<TimePoint> when_;  // by id: the clamped time the event must fire at
  std::vector<std::size_t> fired_;
};

// A seeded mix of schedules: appends at or after the latest time handed out (which take
// the FIFO), same-time ties, earlier times (which fall behind the FIFO's back into the
// heap) and past times (clamped to now). A fired event may schedule more, up to `budget`
// events in total, including ones just after now — behind anything already queued later.
class RandomSchedule {
 public:
  RandomSchedule(Simulation* s, OrderOracle* oracle, std::uint64_t seed, std::size_t budget)
      : s_(s), oracle_(oracle), rng_(seed), budget_(budget) {}

  void ScheduleOne() {
    if (oracle_->scheduled() >= budget_) {
      return;
    }
    const auto now = s_->now();
    TimePoint when = 0;
    switch (rng_.NextBounded(5)) {
      case 0:
      case 1:
        when = latest_ + static_cast<TimePoint>(rng_.NextBounded(4));  // in order
        break;
      case 2:
        when = latest_;  // same time as the latest
        break;
      case 3:
        when = now + static_cast<TimePoint>(rng_.NextBounded(2000));  // out of order
        break;
      default:
        when = now - 1 - static_cast<TimePoint>(rng_.NextBounded(100));  // past: clamped
        break;
    }
    latest_ = std::max({latest_, when, now});
    oracle_->At(when, [this] {
      // Children of a running event: usually one, sometimes two, often just after now.
      const std::uint64_t children = rng_.NextBounded(3);
      for (std::uint64_t c = 0; c < children; ++c) {
        if (rng_.NextBounded(2) == 0) {
          oracle_->At(s_->now() + static_cast<TimePoint>(rng_.NextBounded(3)));
          continue;
        }
        ScheduleOne();
      }
    });
  }

 private:
  Simulation* s_;
  OrderOracle* oracle_;
  Rng rng_;
  std::size_t budget_;
  TimePoint latest_ = 0;
};

constexpr std::size_t kDifferentialEvents = 120000;

TEST(SimulationOrderTest, RunMatchesStableSortOnRandomSchedules) {
  Simulation s;
  OrderOracle oracle(&s);
  RandomSchedule schedule(&s, &oracle, /*seed=*/11, kDifferentialEvents);
  while (oracle.scheduled() < kDifferentialEvents) {
    // Top up from outside between drains, so some events are scheduled onto an empty queue.
    for (int i = 0; i < 20000; ++i) {
      schedule.ScheduleOne();
    }
    s.Run();
    EXPECT_EQ(s.pending_events(), 0u);
  }
  EXPECT_GE(oracle.scheduled(), kDifferentialEvents);
  EXPECT_EQ(oracle.fired(), oracle.scheduled());
  EXPECT_EQ(s.executed_events(), oracle.scheduled());
  EXPECT_TRUE(oracle.FiredInOrder());
}

TEST(SimulationOrderTest, RunUntilMatchesStableSortOnRandomSchedules) {
  Simulation s;
  OrderOracle oracle(&s);
  RandomSchedule schedule(&s, &oracle, /*seed=*/23, kDifferentialEvents);
  Rng steps(5);
  for (int i = 0; i < 30000; ++i) {
    schedule.ScheduleOne();
  }
  TimePoint deadline = 0;
  int rounds = 0;
  while (s.pending_events() > 0) {
    deadline += static_cast<TimePoint>(steps.NextBounded(20000));
    s.RunUntil(deadline);
    ++rounds;
    if (rounds % 8 == 0) {
      EXPECT_TRUE(oracle.NothingDueBy(deadline)) << "deadline " << deadline;
    }
    for (int i = 0; i < 500; ++i) {
      schedule.ScheduleOne();
    }
  }
  EXPECT_GE(oracle.scheduled(), kDifferentialEvents);
  EXPECT_EQ(oracle.fired(), oracle.scheduled());
  EXPECT_TRUE(oracle.FiredInOrder());
}

TEST(SimulationOrderTest, RunUntilConditionMatchesStableSortOnRandomSchedules) {
  Simulation s;
  OrderOracle oracle(&s);
  RandomSchedule schedule(&s, &oracle, /*seed=*/37, kDifferentialEvents);
  Rng stops(9);
  for (int i = 0; i < 30000; ++i) {
    schedule.ScheduleOne();
  }
  while (s.pending_events() > 0) {
    const std::size_t target = oracle.fired() + 1 + stops.NextBounded(5000);
    const bool met = s.RunUntilCondition([&] { return oracle.fired() >= target; });
    EXPECT_EQ(met, oracle.fired() == target);
    EXPECT_TRUE(met || s.pending_events() == 0);
    for (int i = 0; i < 500; ++i) {
      schedule.ScheduleOne();
    }
  }
  EXPECT_GE(oracle.scheduled(), kDifferentialEvents);
  EXPECT_EQ(oracle.fired(), oracle.scheduled());
  EXPECT_TRUE(oracle.FiredInOrder());
}

// The queue never runs dry: a window of in-order events, each re-scheduling one a window
// ahead (so the FIFO's head keeps advancing while it is never empty), interleaved with an
// event that re-arms itself at a shorter period (so it keeps falling behind the FIFO's back
// into the heap). Every 1000th in-order event schedules two, so the window slowly widens
// and the FIFO must grow while its live events wrap around its storage.
TEST(SimulationOrderTest, NeverDryQueueKeepsOrderAndCount) {
  constexpr std::size_t kInOrder = 1000000;
  constexpr std::size_t kWindow = 1000;
  constexpr TimePoint kRearmPeriod = 7;
  Simulation s;
  OrderOracle oracle(&s);
  std::size_t in_order_scheduled = 0;
  std::size_t in_order_fired = 0;
  std::function<void()> in_order = [&] {
    ++in_order_fired;
    // Live now: the rest of the window plus the re-arming event.
    const std::size_t window_left = in_order_scheduled - in_order_fired;
    EXPECT_EQ(s.pending_events(), window_left + 1);
    const int successors = in_order_fired % 1000 == 0 ? 2 : 1;
    for (int i = 0; i < successors && in_order_scheduled < kInOrder; ++i) {
      oracle.At(static_cast<TimePoint>(in_order_scheduled++), in_order);
    }
  };
  std::function<void()> rearm = [&] {
    if (in_order_fired < kInOrder) {
      oracle.At(s.now() + kRearmPeriod, rearm);
    }
  };
  oracle.At(0, rearm);
  while (in_order_scheduled < kWindow) {
    oracle.At(static_cast<TimePoint>(in_order_scheduled++), in_order);
  }
  s.Run();
  EXPECT_EQ(in_order_fired, kInOrder);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(oracle.fired(), oracle.scheduled());
  EXPECT_GT(oracle.scheduled(), kInOrder + kInOrder / kRearmPeriod);
  EXPECT_TRUE(oracle.FiredInOrder());
}

TEST(ProcessorTest, SerializesWork) {
  Simulation s;
  Processor p(&s);
  std::vector<TimePoint> finish;
  p.Submit(Millis(10), [&] { finish.push_back(s.now()); });
  p.Submit(Millis(5), [&] { finish.push_back(s.now()); });
  s.Run();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_EQ(finish[0], Millis(10));
  EXPECT_EQ(finish[1], Millis(15));  // queued behind the first
  EXPECT_EQ(p.total_busy(), Millis(15));
}

TEST(ProcessorTest, IdleGapsDoNotAccumulate) {
  Simulation s;
  Processor p(&s);
  p.Submit(Millis(1), nullptr);
  s.Run();
  s.ScheduleAt(Millis(100), [] {});
  s.Run();
  // Submitting at t=100 on an idle processor starts immediately.
  const TimePoint done = p.Submit(Millis(2), nullptr);
  EXPECT_EQ(done, Millis(102));
}

TEST(CorePoolTest, ParallelUpToCoreCount) {
  Simulation s;
  CorePool pool(&s, 4);
  std::vector<TimePoint> finish;
  for (int i = 0; i < 8; ++i) {
    pool.Submit(Millis(10), [&] { finish.push_back(s.now()); });
  }
  s.Run();
  ASSERT_EQ(finish.size(), 8u);
  // First four run in parallel, next four queue behind them.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(finish[static_cast<std::size_t>(i)], Millis(10));
    EXPECT_EQ(finish[static_cast<std::size_t>(i + 4)], Millis(20));
  }
  EXPECT_EQ(pool.AllIdleAt(), Millis(20));
}

TEST(CorePoolTest, WorkConserving) {
  Simulation s;
  CorePool pool(&s, 2);
  pool.Submit(Millis(10), nullptr);
  pool.Submit(Millis(2), nullptr);
  // The third item should land on the core that frees at 2ms, not the 10ms one.
  const TimePoint done = pool.Submit(Millis(3), nullptr);
  EXPECT_EQ(done, Millis(5));
}

TEST(NetworkTest, DeliveryIncludesLatencyAndSerialization) {
  Simulation s;
  CostModel costs;
  costs.network_latency = Millis(1);
  costs.network_bytes_per_second = 1e9;  // 1 GB/s
  costs.message_overhead_bytes = 0;
  Network net(&s, &costs);

  TimePoint delivered = 0;
  net.Send(NodeAddress(0), NodeAddress(1), 1000000, [&] { delivered = s.now(); },
           MessageKind::kData);  // 1 MB => 1 ms serialization
  s.Run();
  EXPECT_EQ(delivered, Millis(2));  // 1 ms wire + 1 ms latency
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.bytes_sent(), 1000000);
}

TEST(NetworkTest, SenderNicSerializesTransfers) {
  Simulation s;
  CostModel costs;
  costs.network_latency = 0;
  costs.network_bytes_per_second = 1e9;
  costs.message_overhead_bytes = 0;
  Network net(&s, &costs);

  std::vector<TimePoint> deliveries;
  // Two 1 MB messages from the same sender: the second waits for the first's TX slot.
  net.Send(NodeAddress(0), NodeAddress(1), 1000000,
           [&] { deliveries.push_back(s.now()); }, MessageKind::kData);
  net.Send(NodeAddress(0), NodeAddress(2), 1000000,
           [&] { deliveries.push_back(s.now()); }, MessageKind::kData);
  // A message from a different sender is not blocked.
  net.Send(NodeAddress(5), NodeAddress(1), 1000000,
           [&] { deliveries.push_back(s.now()); }, MessageKind::kData);
  s.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], Millis(1));
  EXPECT_EQ(deliveries[1], Millis(1));  // the other sender, in parallel
  EXPECT_EQ(deliveries[2], Millis(2));  // queued behind the first on sender 0
}

TEST(CostModelTest, TransferTimeMonotoneInBytes) {
  CostModel costs;
  EXPECT_LT(costs.TransferTime(100), costs.TransferTime(1000000));
  EXPECT_GE(costs.TransferTime(0), costs.network_latency);
}

}  // namespace
}  // namespace nimbus::sim
