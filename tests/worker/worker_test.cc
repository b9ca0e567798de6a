// Unit tests for the worker runtime: local readiness resolution, group barriers, streaming
// command arrival, copy matching with out-of-order data, template caching, scalars.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/data/durable_store.h"
#include "src/net/sim_transport.h"
#include "src/sim/network.h"
#include "src/sim/simulation.h"
#include "src/task/wire.h"
#include "src/worker/function_registry.h"
#include "src/worker/worker.h"

namespace nimbus {
namespace {

// Workers wired straight to a SimTransport, with the harness itself standing in for the
// controller: its handler decodes the kGroupComplete envelopes workers emit.
struct Harness {
  sim::Simulation simulation;
  sim::CostModel costs;
  sim::Network network{&simulation, &costs};
  net::SimTransport transport{&network};
  FunctionRegistry functions;
  DurableStore durable;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::pair<WorkerId, std::uint64_t>> completions;
  std::vector<ScalarResult> scalars;

  explicit Harness(int n = 2) {
    transport.RegisterHandler(
        net::NodeAddress::Controller(),
        [this](net::NodeAddress, MessageKind, ParameterBlob bytes) {
          if (wire::PeekEnvelopeType(bytes) != wire::EnvelopeType::kGroupComplete) {
            return;  // heartbeats etc. are not under test here
          }
          wire::GroupCompleteEnvelope e = wire::DecodeGroupCompleteEnvelope(bytes);
          completions.emplace_back(e.worker, e.group_seq);
          for (auto& r : e.scalars) {
            scalars.push_back(r);
          }
        });
    for (int i = 0; i < n; ++i) {
      auto worker = std::make_unique<Worker>(WorkerId(static_cast<std::uint64_t>(i)),
                                             &simulation, &transport, &costs, &functions,
                                             &durable);
      transport.RegisterHandler(
          worker->address(),
          [w = worker.get()](net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
            w->OnEnvelope(src, kind, std::move(bytes));
          });
      workers.push_back(std::move(worker));
    }
  }

  Worker& w(int i) { return *workers[static_cast<std::size_t>(i)]; }
};

Command TaskCmd(std::uint64_t id, FunctionId fn, std::vector<LogicalObjectId> reads,
                std::vector<LogicalObjectId> writes, std::vector<std::uint64_t> before = {},
                sim::Duration duration = sim::Millis(1)) {
  Command cmd;
  cmd.id = CommandId(id);
  cmd.type = CommandType::kTask;
  cmd.function = fn;
  cmd.task_id = TaskId(id);
  cmd.read_set = std::move(reads);
  cmd.write_set = std::move(writes);
  for (std::uint64_t b : before) {
    cmd.before.push_back(CommandId(b));
  }
  cmd.duration = duration;
  return cmd;
}

TEST(WorkerTest, ExecutesTasksInDependencyOrder) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId f1 = h.functions.Register("one", [&](TaskContext& ctx) {
    order.push_back(1);
    ctx.WriteScalar(0).set_value(10);
  });
  const FunctionId f2 = h.functions.Register("two", [&](TaskContext& ctx) {
    order.push_back(2);
    EXPECT_DOUBLE_EQ(ctx.ReadScalar(0), 10.0);
  });

  // Submit dependent-first to prove readiness is resolved locally, not by arrival order.
  std::vector<Command> cmds;
  cmds.push_back(TaskCmd(2, f2, {LogicalObjectId(1)}, {}, {1}));
  cmds.push_back(TaskCmd(1, f1, {}, {LogicalObjectId(1)}));
  h.w(0).OnCommands(1, std::move(cmds), 2, true, true);
  h.simulation.Run();

  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0].second, 1u);
}

TEST(WorkerTest, StreamingArrivalResolvesForwardEdges) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId f1 = h.functions.Register("one", [&](TaskContext& ctx) {
    order.push_back(1);
    ctx.WriteScalar(0).set_value(1);
  });
  const FunctionId f2 = h.functions.Register("two", [&](TaskContext&) { order.push_back(2); });

  // The dependent command arrives in a separate (earlier) message than its dependency.
  std::vector<Command> first;
  first.push_back(TaskCmd(2, f2, {LogicalObjectId(1)}, {}, {1}));
  h.w(0).OnCommands(1, std::move(first), 0, false, true);
  h.simulation.Run();
  EXPECT_TRUE(order.empty());

  std::vector<Command> second;
  second.push_back(TaskCmd(1, f1, {}, {LogicalObjectId(1)}));
  h.w(0).OnCommands(1, std::move(second), 2, true, true);
  h.simulation.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(WorkerTest, BarrierGroupsRunInArrivalOrder) {
  Harness h(1);
  std::vector<int> order;
  const FunctionId fa = h.functions.Register("a", [&](TaskContext&) { order.push_back(1); });
  const FunctionId fb = h.functions.Register("b", [&](TaskContext&) { order.push_back(2); });

  std::vector<Command> g1;
  g1.push_back(TaskCmd(1, fa, {}, {}, {}, sim::Millis(50)));
  h.w(0).OnCommands(1, std::move(g1), 1, true, true);
  std::vector<Command> g2;
  g2.push_back(TaskCmd(2, fb, {}, {}, {}, sim::Millis(1)));
  h.w(0).OnCommands(2, std::move(g2), 1, true, true);
  h.simulation.Run();

  // Group 2 is a barrier: even though its task is shorter, it waits for group 1.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(h.completions.size(), 2u);
}

TEST(WorkerTest, NonBarrierGroupsOverlap) {
  Harness h(1);
  std::vector<std::pair<int, sim::TimePoint>> events;
  const FunctionId fa = h.functions.Register("a", [&](TaskContext&) {});
  const FunctionId fb = h.functions.Register("b", [&](TaskContext&) {});

  std::vector<Command> g1;
  g1.push_back(TaskCmd(1, fa, {}, {}, {}, sim::Millis(50)));
  h.w(0).OnCommands(1, std::move(g1), 1, true, /*barrier=*/false);
  std::vector<Command> g2;
  g2.push_back(TaskCmd(2, fb, {}, {}, {}, sim::Millis(1)));
  h.w(0).OnCommands(2, std::move(g2), 1, true, /*barrier=*/false);
  h.simulation.Run();

  // Spark-style independent dispatch: the short task finishes first.
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[0].second, 2u);
}

TEST(WorkerTest, CopyPairMovesDataBetweenWorkers) {
  Harness h(2);
  const FunctionId fw = h.functions.Register("writer", [&](TaskContext& ctx) {
    ctx.WriteVector(0).values() = {4.5, 6.5};
  });
  double read_back = 0;
  const FunctionId fr = h.functions.Register("reader", [&](TaskContext& ctx) {
    read_back = ctx.ReadVector(0).values()[1];
  });

  // Worker 0: write + send. Worker 1: receive + read. Copy ids encode (group seq, index).
  const CopyId copy = MakeCopyId(1, 0);
  std::vector<Command> g0;
  g0.push_back(TaskCmd(1, fw, {}, {LogicalObjectId(5)}));
  Command send;
  send.id = CommandId(2);
  send.type = CommandType::kCopySend;
  send.copy_id = copy;
  send.peer = WorkerId(1);
  send.copy_object = LogicalObjectId(5);
  send.copy_bytes = 16;
  send.before = {CommandId(1)};
  g0.push_back(std::move(send));
  h.w(0).OnCommands(1, std::move(g0), 2, true, true);

  std::vector<Command> g1;
  Command recv;
  recv.id = CommandId(3);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(5);
  g1.push_back(std::move(recv));
  g1.push_back(TaskCmd(4, fr, {LogicalObjectId(5)}, {}, {3}));
  h.w(1).OnCommands(1, std::move(g1), 2, true, true);

  h.simulation.Run();
  EXPECT_DOUBLE_EQ(read_back, 6.5);
  EXPECT_EQ(h.completions.size(), 2u);
}

TEST(WorkerTest, DataArrivingBeforeReceiveCommandIsBuffered) {
  Harness h(2);
  double read_back = 0;
  const FunctionId fr = h.functions.Register("reader", [&](TaskContext& ctx) {
    read_back = ctx.ReadScalar(0);
  });

  // Push the data message directly, before the receive's group even exists.
  const CopyId copy = MakeCopyId(1, 0);
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(42.0));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 1u);

  std::vector<Command> g;
  Command recv;
  recv.id = CommandId(1);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(3);
  g.push_back(std::move(recv));
  g.push_back(TaskCmd(2, fr, {LogicalObjectId(3)}, {}, {1}));
  h.w(1).OnCommands(1, std::move(g), 2, true, true);
  h.simulation.Run();
  EXPECT_DOUBLE_EQ(read_back, 42.0);
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
}

TEST(WorkerTest, HaltMidGroupDropsBufferedCopyData) {
  Harness h(2);
  const FunctionId slow = h.functions.Register("slow", [](TaskContext&) {});
  // Group 1 keeps the worker busy so the barrier group 2 cannot start.
  std::vector<Command> g1;
  g1.push_back(TaskCmd(1, slow, {}, {}, {}, sim::Millis(50)));
  h.w(1).OnCommands(1, std::move(g1), 1, true, true);

  // Group 2: a receive whose payload arrives while the group is still blocked.
  const CopyId copy = MakeCopyId(2, 0);
  std::vector<Command> g2;
  Command recv;
  recv.id = CommandId(10);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(3);
  g2.push_back(std::move(recv));
  h.w(1).OnCommands(2, std::move(g2), 1, true, true);
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(1.5));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 1u);

  // Controller-style halt mid-group: buffered payloads die with their groups instead of
  // dangling in the receive index.
  h.w(1).OnHalt();
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
  EXPECT_TRUE(h.w(1).idle());

  // A duplicate of the in-flight payload arriving after the halt is stale and dropped.
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(1.5));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
  h.simulation.Run();
  EXPECT_FALSE(h.w(1).store().Has(LogicalObjectId(3)));
  EXPECT_TRUE(h.completions.empty());
}

TEST(WorkerTest, FailedWorkerMidGroupIgnoresInFlightData) {
  Harness h(2);
  const CopyId copy = MakeCopyId(1, 0);
  std::vector<Command> g;
  Command recv;
  recv.id = CommandId(1);
  recv.type = CommandType::kCopyReceive;
  recv.copy_id = copy;
  recv.peer = WorkerId(0);
  recv.copy_object = LogicalObjectId(3);
  g.push_back(std::move(recv));
  h.w(1).OnCommands(1, std::move(g), 1, true, true);

  // The worker dies while the copy's payload is still in flight; the late delivery must
  // not buffer anything on the corpse.
  h.w(1).Fail();
  h.w(1).OnDataMessage(copy, LogicalObjectId(3), 1, std::make_unique<ScalarPayload>(2.5));
  EXPECT_EQ(h.w(1).buffered_copy_count(), 0u);
  h.simulation.Run();
  EXPECT_TRUE(h.completions.empty());
  EXPECT_FALSE(h.w(1).store().Has(LogicalObjectId(3)));
}

TEST(WorkerTest, StaleDataForFinishedGroupIsDropped) {
  Harness h(1);
  const FunctionId f = h.functions.Register("fn", [](TaskContext&) {});
  std::vector<Command> g;
  g.push_back(TaskCmd(1, f, {}, {}));
  h.w(0).OnCommands(1, std::move(g), 1, true, true);
  h.simulation.Run();
  ASSERT_EQ(h.completions.size(), 1u);  // group 1 finished and was pruned

  // A late/duplicate payload addressed at the finished group must not dangle forever in
  // the buffers (the group it names can never claim it).
  h.w(0).OnDataMessage(MakeCopyId(1, 0), LogicalObjectId(7), 1,
                       std::make_unique<ScalarPayload>(3.0));
  EXPECT_EQ(h.w(0).buffered_copy_count(), 0u);
}

TEST(WorkerTest, ScalarsReportedWithCompletion) {
  Harness h(1);
  const FunctionId f = h.functions.Register("scalar", [&](TaskContext& ctx) {
    ctx.ReturnScalar(3.25);
  });
  Command cmd = TaskCmd(1, f, {}, {});
  cmd.returns_scalar = true;
  std::vector<Command> g;
  g.push_back(std::move(cmd));
  h.w(0).OnCommands(1, std::move(g), 1, true, true);
  h.simulation.Run();
  ASSERT_EQ(h.scalars.size(), 1u);
  EXPECT_EQ(h.scalars[0].task, TaskId(1));
  EXPECT_DOUBLE_EQ(h.scalars[0].value, 3.25);
}

TEST(WorkerTest, TemplateInstallAndInstantiate) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext& ctx) {
    ++runs;
    ctx.WriteScalar(0).set_value(runs);
  });

  core::WorkerHalf half;
  half.worker = WorkerId(0);
  core::WtEntry entry;
  entry.type = CommandType::kTask;
  entry.function = f;
  entry.global_entry = 0;
  entry.writes = {LogicalObjectId(1)};
  entry.duration = sim::Millis(1);
  half.entries.push_back(entry);

  h.w(0).OnInstallTemplate(half, WorkerTemplateId(1));
  EXPECT_TRUE(h.w(0).HasTemplate(WorkerTemplateId(1)));
  EXPECT_EQ(h.w(0).cached_template_count(), 1u);

  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    InstantiateMsg msg;
    msg.worker_template = WorkerTemplateId(1);
    msg.group_seq = seq;
    msg.command_base = CommandId(seq * 100);
    msg.task_base = TaskId(seq * 100);
    h.w(0).OnInstantiate(std::move(msg));
  }
  h.simulation.Run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(h.completions.size(), 3u);
}

// A two-entry half: a copy receive of object 7 from worker 1, then a task reading it.
core::WorkerHalf ReceiveThenTaskHalf(FunctionId reader) {
  core::WorkerHalf half;
  half.worker = WorkerId(0);
  core::WtEntry recv;
  recv.type = CommandType::kCopyReceive;
  recv.copy_index = 0;
  recv.peer = WorkerId(1);
  recv.object = LogicalObjectId(7);
  recv.bytes = 8;
  recv.writes = {LogicalObjectId(7)};
  half.entries.push_back(recv);
  core::WtEntry task;
  task.type = CommandType::kTask;
  task.function = reader;
  task.global_entry = 0;
  task.reads = {LogicalObjectId(7)};
  task.writes = {LogicalObjectId(8)};
  task.before = {0};
  task.duration = sim::Millis(1);
  half.entries.push_back(task);
  return half;
}

InstantiateMsg InstantiateTemplateOne(std::uint64_t seq,
                                      std::vector<core::WorkerEditOp> edits = {}) {
  InstantiateMsg msg;
  msg.worker_template = WorkerTemplateId(1);
  msg.group_seq = seq;
  msg.command_base = CommandId(seq * 100);
  msg.task_base = TaskId(seq * 100);
  msg.edits = std::move(edits);
  return msg;
}

// What one run of the edit scenario below observably produced.
struct EditRun {
  std::vector<std::string> order;  // functions in execution order
  std::vector<Command> log;
  std::vector<std::uint64_t> completed;
  double object8 = 0;
  double object9 = 0;
};

// Instantiates a receive-then-task template, then instantiates it again with edits that
// retire the task and append a different one. With `overlap`, the second instantiation
// (and its edits) arrives while the first group is still blocked on its copy receive;
// without, the first group has finished by then.
EditRun RunEditScenario(bool overlap) {
  Harness h(1);
  EditRun run;
  const FunctionId reader = h.functions.Register("reader", [&run](TaskContext& ctx) {
    run.order.push_back("reader");
    ctx.WriteScalar(0).set_value(ctx.ReadScalar(0) * 2);
  });
  const FunctionId extra = h.functions.Register("extra", [&run](TaskContext& ctx) {
    run.order.push_back("extra");
    ctx.WriteScalar(0).set_value(ctx.ReadScalar(0) + 1);
  });
  h.w(0).EnableCommandLog();
  h.w(0).OnInstallTemplate(ReceiveThenTaskHalf(reader), WorkerTemplateId(1));

  std::vector<core::WorkerEditOp> edits(2);
  edits[0].kind = core::WorkerEditOp::Kind::kTombstone;
  edits[0].index = 1;
  edits[1].kind = core::WorkerEditOp::Kind::kAppendEntry;
  edits[1].entry.type = CommandType::kTask;
  edits[1].entry.function = extra;
  edits[1].entry.global_entry = 1;
  edits[1].entry.reads = {LogicalObjectId(7)};
  edits[1].entry.writes = {LogicalObjectId(9)};
  edits[1].entry.before = {0};
  edits[1].entry.duration = sim::Millis(1);

  auto deliver = [&h](std::uint64_t seq, double value) {
    h.w(0).OnDataMessage(MakeCopyId(seq, 0), LogicalObjectId(7), 1,
                         std::make_unique<ScalarPayload>(value));
    h.simulation.Run();
  };

  h.w(0).OnInstantiate(InstantiateTemplateOne(1));
  h.simulation.Run();  // group 1 materialized and started; blocked on its receive
  if (!overlap) {
    deliver(1, 1.5);
  }
  h.w(0).OnInstantiate(InstantiateTemplateOne(2, edits));
  h.simulation.Run();
  if (overlap) {
    EXPECT_TRUE(h.completions.empty());
    EXPECT_TRUE(run.order.empty());
    deliver(1, 1.5);
  }
  deliver(2, 4.0);

  run.log = h.w(0).command_log();
  for (const auto& [worker, seq] : h.completions) {
    run.completed.push_back(seq);
  }
  run.object8 = dynamic_cast<const ScalarPayload*>(h.w(0).store().Get(LogicalObjectId(8)))
                    ->value();
  run.object9 = dynamic_cast<const ScalarPayload*>(h.w(0).store().Get(LogicalObjectId(9)))
                    ->value();
  return run;
}

// Edits compile a new table; a group instantiated before them keeps running the commands
// it was instantiated with, even while blocked when the edits land.
TEST(WorkerTest, EditsDoNotReachAGroupStillRunningTheOldTable) {
  const EditRun overlapped = RunEditScenario(/*overlap=*/true);
  const EditRun sequential = RunEditScenario(/*overlap=*/false);

  EXPECT_EQ(overlapped.order, (std::vector<std::string>{"reader", "extra"}));
  EXPECT_EQ(overlapped.completed, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_DOUBLE_EQ(overlapped.object8, 3.0);  // group 1's pre-edit reader: 1.5 * 2
  EXPECT_DOUBLE_EQ(overlapped.object9, 5.0);  // group 2's appended task: 4.0 + 1

  // Group 1 logged its two pre-edit commands; group 2 the dead slot and the new task.
  ASSERT_EQ(overlapped.log.size(), 5u);
  EXPECT_EQ(overlapped.log[0].type, CommandType::kCopyReceive);
  EXPECT_EQ(overlapped.log[0].copy_id, MakeCopyId(1, 0));
  EXPECT_EQ(overlapped.log[1].id, CommandId(101));
  EXPECT_EQ(overlapped.log[1].type, CommandType::kTask);
  EXPECT_EQ(overlapped.log[1].task_id, TaskId(100));
  EXPECT_EQ(overlapped.log[2].copy_id, MakeCopyId(2, 0));
  EXPECT_EQ(overlapped.log[3].type, CommandType::kDataCreate);  // tombstone
  EXPECT_EQ(overlapped.log[4].id, CommandId(202));
  EXPECT_EQ(overlapped.log[4].task_id, TaskId(201));

  // The same commands and results as when the first group finished before the edits.
  EXPECT_EQ(overlapped.order, sequential.order);
  EXPECT_EQ(overlapped.completed, sequential.completed);
  EXPECT_EQ(overlapped.object8, sequential.object8);
  EXPECT_EQ(overlapped.object9, sequential.object9);
  ASSERT_EQ(overlapped.log.size(), sequential.log.size());
  for (std::size_t i = 0; i < overlapped.log.size(); ++i) {
    EXPECT_EQ(overlapped.log[i], sequential.log[i]) << "command " << i;
  }
}

// A group whose last row completes synchronously (here a copy send) retires inside the
// completion walk of the row before it. When edits replaced the cached table while the
// group was blocked, that retirement drops the table's last holder mid-walk; the walk must
// not read the table again (under AddressSanitizer, a walk that re-reads its bounds after
// the release fails here).
TEST(WorkerTest, GroupRetiringInsideItsWaiterWalkOnAReplacedTable) {
  Harness h(2);
  std::vector<std::string> order;
  const FunctionId reader = h.functions.Register("reader", [&order](TaskContext& ctx) {
    order.push_back("reader");
    ctx.WriteScalar(0).set_value(ctx.ReadScalar(0) * 2);
  });
  const FunctionId extra = h.functions.Register("extra", [&order](TaskContext& ctx) {
    order.push_back("extra");
    ctx.WriteScalar(0).set_value(ctx.ReadScalar(0) + 1);
  });
  core::WorkerHalf half = ReceiveThenTaskHalf(reader);
  core::WtEntry send;
  send.type = CommandType::kCopySend;
  send.copy_index = 1;
  send.peer = WorkerId(1);
  send.object = LogicalObjectId(8);
  send.bytes = 8;
  send.reads = {LogicalObjectId(8)};
  send.before = {1};
  half.entries.push_back(send);
  h.w(0).EnableCommandLog();
  h.w(0).OnInstallTemplate(half, WorkerTemplateId(1));

  std::vector<core::WorkerEditOp> edits(1);
  edits[0].kind = core::WorkerEditOp::Kind::kAppendEntry;
  edits[0].entry.type = CommandType::kTask;
  edits[0].entry.function = extra;
  edits[0].entry.global_entry = 1;
  edits[0].entry.reads = {LogicalObjectId(7)};
  edits[0].entry.writes = {LogicalObjectId(9)};
  edits[0].entry.before = {0};
  edits[0].entry.duration = sim::Millis(1);
  auto deliver = [&h](std::uint64_t seq, double value) {
    h.w(0).OnDataMessage(MakeCopyId(seq, 0), LogicalObjectId(7), 1,
                         std::make_unique<ScalarPayload>(value));
    h.simulation.Run();
  };
  auto scalar = [&h](LogicalObjectId object) {
    return dynamic_cast<const ScalarPayload*>(h.w(0).store().Get(object))->value();
  };

  h.w(0).OnInstantiate(InstantiateTemplateOne(1));
  h.simulation.Run();  // group 1 blocked on its receive
  h.w(0).OnInstantiate(InstantiateTemplateOne(2, edits));
  h.simulation.Run();  // group 2 runs the edited table, blocked on its receive too
  EXPECT_TRUE(h.completions.empty());

  deliver(1, 1.5);  // reader -> send: group 1 retires while the reader's walk is open
  EXPECT_EQ(order, (std::vector<std::string>{"reader"}));
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_EQ(h.completions[0].second, 1u);
  EXPECT_DOUBLE_EQ(scalar(LogicalObjectId(8)), 3.0);

  deliver(2, 4.0);
  EXPECT_EQ(order, (std::vector<std::string>{"reader", "reader", "extra"}));
  ASSERT_EQ(h.completions.size(), 2u);
  EXPECT_EQ(h.completions[1].second, 2u);
  EXPECT_DOUBLE_EQ(scalar(LogicalObjectId(8)), 8.0);
  EXPECT_DOUBLE_EQ(scalar(LogicalObjectId(9)), 5.0);

  // Group 1 ran its three pre-edit commands, group 2 those three and the appended task.
  const std::vector<Command>& log = h.w(0).command_log();
  ASSERT_EQ(log.size(), 7u);
  EXPECT_EQ(log[2].type, CommandType::kCopySend);
  EXPECT_EQ(log[2].copy_id, MakeCopyId(1, 1));
  EXPECT_EQ(log[5].copy_id, MakeCopyId(2, 1));
  EXPECT_EQ(log[6].type, CommandType::kTask);
  EXPECT_EQ(log[6].task_id, TaskId(201));
}

// An instantiation still queued behind its control-thread charge when the next one's
// edits arrive materializes the table as it stood at its own arrival.
TEST(WorkerTest, EditsDoNotReachAQueuedInstantiation) {
  Harness h(1);
  std::vector<std::string> order;
  const FunctionId a = h.functions.Register("a", [&](TaskContext&) { order.push_back("a"); });
  const FunctionId b = h.functions.Register("b", [&](TaskContext&) { order.push_back("b"); });
  core::WorkerHalf half;
  half.worker = WorkerId(0);
  core::WtEntry task;
  task.type = CommandType::kTask;
  task.function = a;
  task.global_entry = 0;
  task.duration = sim::Millis(1);
  half.entries.push_back(task);
  h.w(0).OnInstallTemplate(half, WorkerTemplateId(1));

  std::vector<core::WorkerEditOp> edits(1);
  edits[0].kind = core::WorkerEditOp::Kind::kAppendEntry;
  edits[0].entry = task;
  edits[0].entry.function = b;
  edits[0].entry.global_entry = 1;
  h.w(0).OnInstantiate(InstantiateTemplateOne(1));
  h.w(0).OnInstantiate(InstantiateTemplateOne(2, edits));  // no Run in between
  h.simulation.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "a", "b"}));
  EXPECT_EQ(h.completions.size(), 2u);
}

// The table is compiled once per install or edit batch, an edit batch interns only the
// slots it touched, and a retired group's state is reused by the next instantiation.
TEST(WorkerTest, TableCompiledOncePerInstallOrEditBatchAndStateReused) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext& ctx) {
    ++runs;
    ctx.WriteScalar(0).set_value(runs);
  });
  core::WorkerHalf half;
  half.worker = WorkerId(0);
  core::WtEntry entry;
  entry.type = CommandType::kTask;
  entry.function = f;
  entry.global_entry = 0;
  entry.writes = {LogicalObjectId(1)};
  entry.duration = sim::Millis(1);
  half.entries.push_back(entry);

  const MaterializeCounters& mc = h.w(0).materialize_counters();
  h.w(0).OnInstallTemplate(half, WorkerTemplateId(1));
  EXPECT_EQ(mc.table_compiles, 1u);
  EXPECT_EQ(mc.dense_resolves, 1u);

  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    h.w(0).OnInstantiate(InstantiateTemplateOne(seq));
    h.simulation.Run();
  }
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(mc.groups, 3u);
  EXPECT_EQ(mc.table_compiles, 1u);
  EXPECT_EQ(mc.dense_resolves, 1u);
  EXPECT_EQ(mc.state_reuses, 2u);  // every instantiation after the first

  std::vector<core::WorkerEditOp> edits(1);
  edits[0].kind = core::WorkerEditOp::Kind::kAppendEntry;
  edits[0].entry = entry;
  edits[0].entry.global_entry = 1;
  edits[0].entry.writes = {LogicalObjectId(2)};
  h.w(0).OnInstantiate(InstantiateTemplateOne(4, edits));
  h.simulation.Run();
  h.w(0).OnInstantiate(InstantiateTemplateOne(5));
  h.simulation.Run();
  EXPECT_EQ(runs, 7);
  EXPECT_EQ(mc.table_compiles, 2u);
  EXPECT_EQ(mc.dense_resolves, 2u);  // only the appended entry
  EXPECT_EQ(mc.state_reuses, 4u);
  EXPECT_EQ(h.completions.size(), 5u);
}

TEST(WorkerTest, FailedWorkerIgnoresAllInput) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext&) { ++runs; });
  h.w(0).Fail();
  std::vector<Command> g;
  g.push_back(TaskCmd(1, f, {}, {}));
  h.w(0).OnCommands(1, std::move(g), 1, true, true);
  h.simulation.Run();
  EXPECT_EQ(runs, 0);
  EXPECT_TRUE(h.completions.empty());
}

TEST(WorkerTest, HaltFlushesQueues) {
  Harness h(1);
  int runs = 0;
  const FunctionId f = h.functions.Register("fn", [&](TaskContext&) { ++runs; });
  std::vector<Command> g;
  g.push_back(TaskCmd(1, f, {}, {}, {}, sim::Millis(10)));
  g.push_back(TaskCmd(2, f, {}, {}, {1}, sim::Millis(10)));
  h.w(0).OnCommands(1, std::move(g), 2, true, true);
  h.w(0).OnHalt();
  h.simulation.Run();
  // Whatever was in flight on a core may or may not land, but the dependent task and the
  // completion message must not.
  EXPECT_LE(runs, 1);
  EXPECT_TRUE(h.completions.empty());
  EXPECT_TRUE(h.w(0).idle());
}

TEST(WorkerTest, FileSaveAndLoadRoundTripThroughDurableStore) {
  Harness h(1);
  h.w(0).store().Put(LogicalObjectId(4), 2, std::make_unique<ScalarPayload>(7.5));

  Command save;
  save.id = CommandId(1);
  save.type = CommandType::kFileSave;
  save.data_object = LogicalObjectId(4);
  save.copy_version = 2;
  save.copy_bytes = 8;
  std::vector<Command> g;
  g.push_back(std::move(save));
  h.w(0).OnCommands(1, std::move(g), 1, true, true);
  h.simulation.Run();
  ASSERT_TRUE(h.durable.Has(LogicalObjectId(4)));

  // Clear the store and reload.
  h.w(0).store().Clear();
  h.w(0).OnLoadObjects(2, {LogicalObjectId(4)});
  h.simulation.Run();
  ASSERT_TRUE(h.w(0).store().Has(LogicalObjectId(4)));
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const ScalarPayload*>(h.w(0).store().Get(LogicalObjectId(4)))->value(),
      7.5);
}

}  // namespace
}  // namespace nimbus
