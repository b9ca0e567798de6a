// Cross-transport equivalence (DESIGN.md §13): the same driver program run over the
// deterministic simulator network and over real loopback TCP must produce bit-identical
// results — coefficients, per-iteration scalars, and the exact command stream every worker
// observed. The control plane is transport-agnostic; these tests are the proof.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/logistic_regression.h"
#include "src/common/rng.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"
#include "src/task/command.h"

namespace nimbus {
namespace {

using apps::LogisticRegressionApp;

struct RunOutput {
  std::vector<double> coefficients;
  std::vector<double> iteration_scalars;
  std::vector<std::vector<Command>> command_logs;  // one per worker
};

LogisticRegressionApp::Config SmallConfig() {
  LogisticRegressionApp::Config config;
  config.partitions = 8;
  config.reduce_groups = 4;
  config.dim = 6;
  config.rows_per_partition = 16;
  config.virtual_bytes_total = 64LL * 1000 * 1000;
  return config;
}

RunOutput RunLr(TransportKind transport, ControlMode mode, bool serialized_batching,
                int iters) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = mode;
  options.transport = transport;
  options.serialized_batching = serialized_batching;
  options.enable_command_log = true;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  RunOutput out;
  for (int i = 0; i < iters; ++i) {
    out.iteration_scalars.push_back(app.RunInnerIteration().FirstScalar());
  }

  // Under TCP the workers' event loops ran concurrently with the driver; Quiesce
  // establishes happens-before with every node before reading their state.
  cluster.Quiesce();
  out.coefficients = app.CoeffSnapshot();
  for (WorkerId id : cluster.worker_ids()) {
    out.command_logs.push_back(cluster.worker(id)->command_log());
  }
  return out;
}

// LR under templates with Fig 10 edits: every other iteration migrates `per_batch` random
// tasks between workers, so edits ride the instantiation messages over the transport and
// workers compile new tables from them. Planning needs a quiescent cluster, so no older
// group is still in flight when an edit lands; an edit reaching a group that still holds
// the previous table is covered at worker level (tests/worker/worker_test.cc).
RunOutput RunLrWithMigrations(TransportKind transport, int warm, int iters, int per_batch) {
  ClusterOptions options;
  options.workers = 4;
  options.partitions = 8;
  options.mode = ControlMode::kTemplates;
  options.transport = transport;
  options.enable_command_log = true;
  Cluster cluster(options);
  Job job(&cluster);

  LogisticRegressionApp app(&job, SmallConfig());
  app.Setup();

  RunOutput out;
  Rng rng(11);
  for (int i = 0; i < warm + iters; ++i) {
    if (i >= warm && (i - warm) % 2 == 0) {
      // Planning reaches into the controller from the driver thread: only safe between
      // blocks with every node quiescent.
      cluster.Quiesce();
      cluster.controller().PlanRandomMigrations(app.InnerBlockName(), per_batch, &rng);
    }
    out.iteration_scalars.push_back(app.RunInnerIteration().FirstScalar());
  }

  cluster.Quiesce();
  out.coefficients = app.CoeffSnapshot();
  for (WorkerId id : cluster.worker_ids()) {
    out.command_logs.push_back(cluster.worker(id)->command_log());
  }
  return out;
}

void ExpectIdentical(const RunOutput& sim, const RunOutput& tcp) {
  // Scalars and coefficients: exact double equality, not tolerance — the arithmetic and
  // its order must be the same on both transports.
  ASSERT_EQ(sim.iteration_scalars.size(), tcp.iteration_scalars.size());
  for (std::size_t i = 0; i < sim.iteration_scalars.size(); ++i) {
    EXPECT_EQ(sim.iteration_scalars[i], tcp.iteration_scalars[i]) << "iteration " << i;
  }
  ASSERT_EQ(sim.coefficients.size(), tcp.coefficients.size());
  for (std::size_t d = 0; d < sim.coefficients.size(); ++d) {
    EXPECT_EQ(sim.coefficients[d], tcp.coefficients[d]) << "coefficient " << d;
  }

  // Command logs: every worker observed the same commands in the same order, field by
  // field (Command::operator== compares all of them).
  ASSERT_EQ(sim.command_logs.size(), tcp.command_logs.size());
  for (std::size_t w = 0; w < sim.command_logs.size(); ++w) {
    ASSERT_EQ(sim.command_logs[w].size(), tcp.command_logs[w].size()) << "worker " << w;
    for (std::size_t c = 0; c < sim.command_logs[w].size(); ++c) {
      EXPECT_EQ(sim.command_logs[w][c], tcp.command_logs[w][c])
          << "worker " << w << " command " << c;
    }
  }
}

TEST(TransportEquivalenceTest, LrTemplatesBitIdenticalSimVsTcp) {
  const RunOutput sim = RunLr(TransportKind::kSim, ControlMode::kTemplates, false, 5);
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kTemplates, false, 5);
  ASSERT_FALSE(sim.iteration_scalars.empty());
  EXPECT_GT(sim.iteration_scalars.front(), 0.0);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, LrCentralOnlyBitIdenticalSimVsTcp) {
  const RunOutput sim = RunLr(TransportKind::kSim, ControlMode::kCentralOnly, false, 3);
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kCentralOnly, false, 3);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, LrSerializedBatchingBitIdenticalSimVsTcp) {
  const RunOutput sim = RunLr(TransportKind::kSim, ControlMode::kCentralOnly, true, 3);
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kCentralOnly, true, 3);
  ExpectIdentical(sim, tcp);
}

TEST(TransportEquivalenceTest, LrMigrationsBitIdenticalSimVsTcp) {
  const int warm = 3;
  const int iters = 8;
  const RunOutput sim = RunLrWithMigrations(TransportKind::kSim, warm, iters, 2);
  const RunOutput tcp = RunLrWithMigrations(TransportKind::kTcp, warm, iters, 2);
  ExpectIdentical(sim, tcp);
  // And both match the model-free reference: the edits moved work, not results.
  const std::vector<double> expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), warm + iters);
  ASSERT_EQ(expected.size(), tcp.coefficients.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], tcp.coefficients[d]) << "coefficient " << d;
  }
}

TEST(TransportEquivalenceTest, TcpMatchesSequentialReference) {
  // Not just self-consistency: the TCP run must match the model-free sequential
  // reference, like every simulator run does.
  const int iters = 4;
  const RunOutput tcp = RunLr(TransportKind::kTcp, ControlMode::kTemplates, false, iters);
  const std::vector<double> expected =
      LogisticRegressionApp::ReferenceInnerLoop(SmallConfig(), iters);
  ASSERT_EQ(expected.size(), tcp.coefficients.size());
  for (std::size_t d = 0; d < expected.size(); ++d) {
    EXPECT_DOUBLE_EQ(expected[d], tcp.coefficients[d]) << "coefficient " << d;
  }
}

}  // namespace
}  // namespace nimbus
