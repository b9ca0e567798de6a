// TCP send coalescing (src/net/tcp_transport.h, DESIGN.md §13.3): frames a node sends while
// its event loop handles one delivery leave in a few gathered writes, without reordering,
// duplicating or stranding any of them. Each test runs a real three-node loopback mesh
// (driver, controller, one worker) through TcpClusterRuntime, so deliveries are wrapped
// exactly as the cluster wraps them: node mutex, handler, drain of the node's simulation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "src/driver/cluster_tcp.h"

namespace nimbus {
namespace {

using net::NodeAddress;

const NodeAddress kDriver = NodeAddress::Driver();
const NodeAddress kController = NodeAddress::Controller();
const NodeAddress kWorker = NodeAddress::ForWorker(WorkerId(0));

ParameterBlob Seq(std::uint32_t value) {
  ParameterBlob blob(sizeof(value));
  std::memcpy(blob.data(), &value, sizeof(value));
  return blob;
}

std::uint32_t SeqOf(const ParameterBlob& blob) {
  std::uint32_t value = 0;
  EXPECT_EQ(blob.size(), sizeof(value));
  std::memcpy(&value, blob.data(), sizeof(value));
  return value;
}

std::vector<std::uint32_t> Iota(std::uint32_t n) {
  std::vector<std::uint32_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v[i] = i;
  }
  return v;
}

// The mesh under test. The controller runs `on_trigger` for every frame the driver sends
// it; the worker records the sequence number of every frame it receives, in order.
class Mesh {
 public:
  explicit Mesh(std::function<void()> on_trigger) : runtime_(/*workers=*/1) {
    runtime_.InstallHandler(kDriver, [](NodeAddress, MessageKind, ParameterBlob) {});
    runtime_.InstallHandler(kController,
                            [fn = std::move(on_trigger)](NodeAddress, MessageKind,
                                                         ParameterBlob) { fn(); });
    runtime_.InstallHandler(kWorker, [this](NodeAddress, MessageKind, ParameterBlob bytes) {
      received_.push_back(SeqOf(bytes));  // under the worker's node mutex
      received_count_.fetch_add(1);
    });
    runtime_.Bootstrap();
  }
  // The event loops must stop before the state their handlers write goes away.
  ~Mesh() { runtime_.Shutdown(); }

  net::TcpEndpoint* controller() { return runtime_.endpoint(kController); }
  TcpClusterRuntime& runtime() { return runtime_; }
  int received_count() const { return received_count_.load(); }

  // Controller -> worker, as the controller node.
  void SendToWorker(std::uint32_t seq) {
    controller()->Send(kController, kWorker, MessageKind::kData, Seq(seq), -1);
  }

  // Driver -> controller from the test thread: runs `on_trigger` as one delivery.
  void Trigger() {
    runtime_.endpoint(kDriver)->Send(kDriver, kController, MessageKind::kControl,
                                     ParameterBlob{}, -1);
  }

  // Polls until the worker has received `n` frames; false after a generous deadline.
  bool WaitForReceived(int n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (received_count() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::vector<std::uint32_t> Received() {
    std::vector<std::uint32_t> copy;
    runtime_.WithNode(kWorker, [&]() { copy = received_; });
    return copy;
  }

 private:
  TcpClusterRuntime runtime_;
  std::vector<std::uint32_t> received_;  // guarded by the worker's node mutex
  std::atomic<int> received_count_{0};
};

constexpr std::uint32_t kFence = 0xFFFFFFFFu;

// Sends one fence frame from the test thread and waits for it: per-connection FIFO means
// any duplicate of an earlier frame would have to arrive before the fence.
void FenceAndExpect(Mesh* mesh, std::vector<std::uint32_t> expected) {
  const int before = mesh->received_count();
  mesh->SendToWorker(kFence);
  ASSERT_TRUE(mesh->WaitForReceived(before + 1));
  expected.push_back(kFence);
  EXPECT_EQ(mesh->Received(), expected);
}

TEST(TcpTransportTest, HandlerBurstArrivesOnceInOrderInFewWrites) {
  constexpr std::uint32_t kFrames = 5000;
  Mesh* self = nullptr;
  Mesh mesh([&]() {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      self->SendToWorker(i);
    }
  });
  self = &mesh;
  const net::TcpEndpoint::Counters before = mesh.controller()->counters();
  mesh.Trigger();
  ASSERT_TRUE(mesh.WaitForReceived(static_cast<int>(kFrames)));
  const net::TcpEndpoint::Counters after = mesh.controller()->counters();

  // Only the delivery's first few frames leave on their own; the rest wait and go out in
  // gathered writes, so the syscall count is a small fraction of the frame count.
  EXPECT_EQ(after.frames_sent - before.frames_sent, kFrames);
  EXPECT_GT(after.frames_held - before.frames_held, kFrames * 9 / 10);
  EXPECT_LT(after.writev_calls - before.writev_calls, kFrames / 50);
  FenceAndExpect(&mesh, Iota(kFrames));
}

TEST(TcpTransportTest, SendsOffTheEventLoopAreNeverHeld) {
  constexpr std::uint32_t kFrames = 50;
  Mesh mesh([]() {});
  const net::TcpEndpoint::Counters before = mesh.controller()->counters();
  // WithNode runs on the test thread under the node's serialization, like failure
  // injection does; a bare Send from the test thread is the driver-program path. Neither
  // is a delivery, so every frame must leave at once: nothing else will come to flush a
  // cork, and the wait below would time out on a stranded frame.
  mesh.runtime().WithNode(kController, [&]() {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      mesh.SendToWorker(i);
    }
  });
  ASSERT_TRUE(mesh.WaitForReceived(static_cast<int>(kFrames)));
  mesh.SendToWorker(kFrames);
  ASSERT_TRUE(mesh.WaitForReceived(static_cast<int>(kFrames) + 1));
  EXPECT_EQ(mesh.controller()->counters().frames_held, before.frames_held);
  EXPECT_EQ(mesh.Received(), Iota(kFrames + 1));
}

TEST(TcpTransportTest, HeldFramesLeaveBeforeALongDrainEnds) {
  // The delivery sends a burst, then keeps its node busy with a chain of simulation
  // events that each wait a little and check whether the worker has the whole burst. The
  // cork holds the burst's tail, but the drain's hold check must release it after the
  // hold bound — long before the chain would give up and end the delivery.
  constexpr std::uint32_t kFrames = 40;
  constexpr int kMaxChecks = 2000;  // x 500 us: a second of drain before giving up
  std::atomic<bool> seen_during_drain{false};
  Mesh* self = nullptr;
  std::function<void(int)> check;
  Mesh mesh([&]() {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      self->SendToWorker(i);
    }
    check(0);
  });
  self = &mesh;
  sim::Simulation* sim = mesh.runtime().node_simulation(kController);
  check = [&](int round) {
    if (self->received_count() >= static_cast<int>(kFrames)) {
      seen_during_drain.store(true);
      return;
    }
    if (round == kMaxChecks) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    sim->ScheduleAfter(sim::Micros(1), [&check, round]() { check(round + 1); });
  };
  const net::TcpEndpoint::Counters before = mesh.controller()->counters();
  mesh.Trigger();
  ASSERT_TRUE(mesh.WaitForReceived(static_cast<int>(kFrames)));
  EXPECT_GT(mesh.controller()->counters().frames_held, before.frames_held);
  mesh.runtime().Quiesce();
  EXPECT_TRUE(seen_during_drain.load());
  FenceAndExpect(&mesh, Iota(kFrames));
}

TEST(TcpTransportTest, FramesHeldAcrossASeverAreDeliveredAfterTheRedial) {
  // The delivery cuts the controller-worker connection before sending anything (a
  // quiescent point: no frame is in flight on it), then sends a burst. The first frames
  // fail their write and stay queued, the rest wait in the cork; the flush at delivery
  // end finds the socket dead too. The controller dialed this pair at bootstrap, so it
  // redials, and the whole burst must then arrive once and in order.
  constexpr std::uint32_t kFrames = 300;
  Mesh* self = nullptr;
  Mesh mesh([&]() {
    self->controller()->SeverPeer(kWorker);
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      self->SendToWorker(i);
    }
  });
  self = &mesh;
  const net::TcpEndpoint::Counters before = mesh.controller()->counters();
  mesh.Trigger();
  ASSERT_TRUE(mesh.WaitForReceived(static_cast<int>(kFrames)));
  const net::TcpEndpoint::Counters after = mesh.controller()->counters();
  EXPECT_GE(after.connection_losses - before.connection_losses, 1u);
  EXPECT_GE(after.redials_succeeded - before.redials_succeeded, 1u);
  EXPECT_GT(after.frames_held - before.frames_held, 0u);
  FenceAndExpect(&mesh, Iota(kFrames));
}

}  // namespace
}  // namespace nimbus
