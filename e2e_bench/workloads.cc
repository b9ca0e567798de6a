#include "e2e_bench/workloads.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "src/apps/logistic_regression.h"
#include "src/apps/watersim.h"
#include "src/common/rng.h"
#include "src/common/tracing.h"
#include "src/driver/job.h"

namespace nimbus::e2e {
namespace {

using apps::LogisticRegressionApp;
using apps::WaterSimApp;

// The paper's block size: 8189 gradient tasks + 2 group reductions + 1 final reduction.
constexpr int kLrTasksPerBlock = 8192;
constexpr int kLrRowsPerPartition = 4;
// Fig 10's schedule: move 5% of the block's tasks every 5 iterations. The migration seed
// is fixed, not taken from --seed: which tasks move sets how many template entries and
// cross-worker copies each round adds, so a seeded choice would vary the work per run.
constexpr int kMigrateEvery = 5;
constexpr double kMigrateFraction = 0.05;
constexpr std::uint64_t kMigrationSeed = 21;

constexpr int kWaterPartitions = 16;
// High enough that every CG solve exits on its residual test (CheckOutputs proves it).
constexpr int kWaterCgCap = 100000;

constexpr std::size_t kTraceRingEvents = 1 << 17;

ClusterOptions TcpOptions(int partitions, ControlMode mode) {
  ClusterOptions options;
  options.workers = kWorkers;
  options.partitions = partitions;
  options.mode = mode;
  options.transport = TransportKind::kTcp;
  options.failure_detection = false;  // no timers run
  return options;
}

// The measured phase of one round: program counters, resource usage and (when traced)
// the tracer's spans from construction to Finish, plus the driver's iteration windows.
class MeasuredPhase {
 public:
  MeasuredPhase(Cluster* cluster, bool traced) : cluster_(cluster), traced_(traced) {
    cluster_->Quiesce();
    counters_ = ReadCounters(*cluster_);
    if (traced_) {
      trace::Tracer::Options options;
      options.ring_capacity = kTraceRingEvents;
      trace::Tracer::Get().Enable(options);  // resets every ring; event loops are idle
    }
    usage_ = ReadUsage();
    begin_ = NowNs();
  }

  // Runs `fn` as one driver iteration; returns its latency in ms.
  template <typename Fn>
  double Iteration(Fn&& fn) {
    const std::int64_t a = NowNs();
    fn();
    const std::int64_t b = NowNs();
    RecordDriverSpan("driver_iteration", a, b);
    windows_.push_back({a, b});
    return static_cast<double>(b - a) * 1e-6;
  }

  void Finish(RoundRecord* round, const std::string& chrome_trace_path) {
    cluster_->Quiesce();
    const std::int64_t end = NowNs();
    round->usage = ReadUsage() - usage_;
    round->measured_s = static_cast<double>(end - begin_) * 1e-9;
    round->counters = ReadCounters(*cluster_) - counters_;
    if (traced_) {
      trace::Tracer& tracer = trace::Tracer::Get();
      tracer.Disable();
      round->traced = true;
      round->layers = CollectLayers({begin_, end}, windows_);
      if (!chrome_trace_path.empty()) {
        tracer.WriteChromeJson(chrome_trace_path);
      }
    }
  }

 private:
  Cluster* cluster_;
  bool traced_;
  ProgramCounters counters_;
  Usage usage_;
  std::int64_t begin_ = 0;
  std::vector<Interval> windows_;
};

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------------------
// Logistic regression: lr-templates, lr-serialized, lr-migrate.

class LrWorkload : public Workload {
 public:
  enum class Variant { kTemplates, kSerialized, kMigrate };

  LrWorkload(Variant variant, std::uint64_t seed, bool smoke) : variant_(variant) {
    config_.partitions = kLrTasksPerBlock - kWorkers - 1;
    config_.reduce_groups = kWorkers;
    config_.rows_per_partition = kLrRowsPerPartition;
    config_.seed = seed;
    // Templates reach their steady state on the 4th run of a block (capture, project,
    // install, first full validation); the 5th is the first self-validating one.
    warm_iterations_ = 5;
    switch (variant_) {
      case Variant::kTemplates:
        measured_iterations_ = smoke ? 10 : 150;
        break;
      case Variant::kSerialized:
        measured_iterations_ = smoke ? 10 : 50;
        break;
      case Variant::kMigrate:
        measured_iterations_ = smoke ? 11 : 40;
        break;
    }
  }

  RoundRecord RunRound(bool traced, const std::string& chrome_trace_path) override {
    RoundRecord round;
    const std::int64_t t0 = NowNs();
    ClusterOptions options = TcpOptions(config_.partitions, variant_ == Variant::kSerialized
                                                                ? ControlMode::kCentralOnly
                                                                : ControlMode::kTemplates);
    options.serialized_batching = variant_ == Variant::kSerialized;
    Cluster cluster(options);
    round.cluster_start_s = SecondsSince(t0);

    const std::int64_t t1 = NowNs();
    Job job(&cluster);
    LogisticRegressionApp app(&job, config_);
    app.Setup();
    round.load_s = SecondsSince(t1);

    const std::int64_t t2 = NowNs();
    for (int i = 0; i < warm_iterations_; ++i) {
      Account(app.RunInnerIteration(), &round);
    }
    round.bringup_s = SecondsSince(t2);

    Rng rng(kMigrationSeed);
    const int migrate_count = static_cast<int>(kMigrateFraction * app.TasksPerInnerBlock());
    MeasuredPhase phase(&cluster, traced);
    for (int i = 0; i < measured_iterations_; ++i) {
      bool edit = false;
      if (variant_ == Variant::kMigrate && i > 0 && i % kMigrateEvery == 0) {
        // The transport has no driver request for a scheduling change, so planning reaches
        // into the controller from the driver thread: only safe between blocks, with every
        // node quiescent and no failure-detection timers running.
        cluster.Quiesce();
        const std::int64_t a = NowNs();
        cluster.controller().PlanRandomMigrations(app.InnerBlockName(), migrate_count, &rng);
        const std::int64_t b = NowNs();
        RecordDriverSpan("driver_plan_migrations", a, b);
        round.plan_migrations_ms.push_back(static_cast<double>(b - a) * 1e-6);
        edit = true;
      }
      const double ms = phase.Iteration([&] { Account(app.RunInnerIteration(), &round); });
      (edit ? round.edit_iter_ms : round.steady_iter_ms).push_back(ms);
      round.blocks += 1;
    }
    phase.Finish(&round, chrome_trace_path);

    coefficients_.push_back(app.CoeffSnapshot());  // nodes quiesced by Finish
    return round;
  }

  int CheckOutputs(std::string* report) override {
    const std::vector<double> reference = LogisticRegressionApp::ReferenceInnerLoop(
        config_, warm_iterations_ + measured_iterations_);
    int failed = 0;
    for (std::size_t r = 0; r < coefficients_.size(); ++r) {
      const std::vector<double>& got = coefficients_[r];
      const bool same = got.size() == reference.size() &&
                        std::memcmp(got.data(), reference.data(),
                                    got.size() * sizeof(double)) == 0;
      failed += same ? 0 : 1;
      if (!same || r == 0) {
        std::ostringstream line;
        line << "check round " << r << ": coefficients after "
             << warm_iterations_ + measured_iterations_
             << " iterations equal the sequential reference bit for bit: "
             << (same ? "ok" : "FAILED") << "\n";
        *report += line.str();
      }
    }
    return failed;
  }

 private:
  static void Account(const Job::RunResult& result, RoundRecord* round) {
    ++round->blocks_attempted;
    if (result.recovered) {
      ++round->blocks_failed;
    }
  }

  Variant variant_;
  LogisticRegressionApp::Config config_;
  int warm_iterations_ = 0;
  int measured_iterations_ = 0;
  std::vector<std::vector<double>> coefficients_;  // one per round
};

// ---------------------------------------------------------------------------------------
// Water simulation.

struct FrameDecision {
  int substeps = 0;
  int cg_iterations = 0;
  bool operator==(const FrameDecision& o) const {
    return substeps == o.substeps && cg_iterations == o.cg_iterations;
  }
};

class WaterWorkload : public Workload {
 public:
  WaterWorkload(std::uint64_t seed, bool smoke) {
    config_.partitions = kWaterPartitions;
    config_.reduce_groups = kWorkers;
    config_.nz_local = 2;  // 32 z-planes over 16 slabs: ~65 CG iterations per solve
    config_.frame_duration = 0.25;  // two CFL substeps per frame in frames 0-13
    config_.max_cg_iterations = kWaterCgCap;
    config_.seed = seed;
    warm_frames_ = 3;  // frame_start runs once per frame: capture, project, install
    // Frames 3-13: seeds 1-5 and 17 keep two substeps until frame 14, which takes three,
    // so each round's frames are one kind of iteration.
    measured_frames_ = smoke ? 2 : 11;
  }

  RoundRecord RunRound(bool traced, const std::string& chrome_trace_path) override {
    RoundRecord round;
    std::vector<FrameDecision> decisions;
    const std::int64_t t0 = NowNs();
    Cluster cluster(TcpOptions(kWaterPartitions, ControlMode::kTemplates));
    round.cluster_start_s = SecondsSince(t0);

    const std::int64_t t1 = NowNs();
    Job job(&cluster);
    WaterSimApp app(&job, config_);
    app.Setup();
    round.load_s = SecondsSince(t1);

    const std::int64_t t2 = NowNs();
    for (int f = 0; f < warm_frames_; ++f) {
      decisions.push_back(Account(app.RunFrame(), &round));
    }
    round.bringup_s = SecondsSince(t2);

    MeasuredPhase phase(&cluster, traced);
    for (int f = 0; f < measured_frames_; ++f) {
      FrameDecision d;
      round.steady_iter_ms.push_back(
          phase.Iteration([&] { d = Account(app.RunFrame(), &round); }));
      round.blocks += Blocks(d);
      decisions.push_back(d);
    }
    phase.Finish(&round, chrome_trace_path);
    // RunFrame hides its RunResults; a worker failure in this round's cluster marks every
    // block of the round failed (recovery would have rolled them back).
    if (ReadCounters(cluster).workers_failed > 0) {
      round.blocks_failed = round.blocks_attempted;
    }
    decisions_.push_back(std::move(decisions));
    return round;
  }

  int CheckOutputs(std::string* report) override {
    int failed = 0;
    std::ostringstream out;
    // Every solve exits on its residual test: RunFrame's inner loop stops at the residual
    // tolerance or at the cap, so a frame whose CG total stays below the cap had every
    // solve stop on the residual, at or below the tolerance.
    for (std::size_t r = 0; r < cg_exits_.size(); ++r) {
      if (!cg_exits_[r]) {
        ++failed;
        out << "check frame " << r << ": CG stopped on the residual test: FAILED\n";
      }
    }
    out << "check: the CG solves of " << cg_exits_.size() << " frames exited at or below "
        << config_.cg_tolerance << " before the cap of " << kWaterCgCap << ": "
        << (failed == 0 ? "ok" : "FAILED") << "\n";

    // Central scheduling on the simulator backend is the reference for every decision.
    const std::vector<FrameDecision> reference =
        CentralReference(warm_frames_ + measured_frames_);
    for (std::size_t r = 0; r < decisions_.size(); ++r) {
      const bool same = decisions_[r] == reference;
      failed += same ? 0 : 1;
      if (!same || r == 0) {
        out << "check round " << r << ": substeps and CG iterations of "
            << reference.size() << " frames equal central scheduling on the simulator: "
            << (same ? "ok" : "FAILED") << " (";
        for (const FrameDecision& d : decisions_[r]) {
          out << d.substeps << "/" << d.cg_iterations << " ";
        }
        out << "vs ";
        for (const FrameDecision& d : reference) {
          out << d.substeps << "/" << d.cg_iterations << " ";
        }
        out << ")\n";
      }
    }
    *report += out.str();
    return failed;
  }

 private:
  FrameDecision Account(const WaterSimApp::FrameStats& stats, RoundRecord* round) {
    const FrameDecision d{stats.substeps, stats.total_cg_iterations};
    round->blocks_attempted += static_cast<std::uint64_t>(Blocks(d));
    cg_exits_.push_back(stats.total_cg_iterations < kWaterCgCap &&
                        stats.last_residual <= config_.cg_tolerance);
    return d;
  }

  // frame_start, then per substep dt + advect + cg_init + project, plus one block per CG
  // iteration.
  static double Blocks(const FrameDecision& d) {
    return 1.0 + 4.0 * d.substeps + d.cg_iterations;
  }

  std::vector<FrameDecision> CentralReference(int frames) const {
    ClusterOptions options;
    options.workers = kWorkers;
    options.partitions = kWaterPartitions;
    options.mode = ControlMode::kCentralOnly;
    Cluster cluster(options);
    Job job(&cluster);
    WaterSimApp app(&job, config_);
    app.Setup();
    std::vector<FrameDecision> out;
    for (int f = 0; f < frames; ++f) {
      const WaterSimApp::FrameStats stats = app.RunFrame();
      out.push_back({stats.substeps, stats.total_cg_iterations});
    }
    return out;
  }

  WaterSimApp::Config config_;
  int warm_frames_ = 0;
  int measured_frames_ = 0;
  std::vector<std::vector<FrameDecision>> decisions_;  // one per round, warm-up included
  std::vector<bool> cg_exits_;                         // one per frame, every round
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lr-templates", "lr-serialized",
                                                 "lr-migrate", "watersim"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool smoke) {
  if (name == "lr-templates") {
    return std::make_unique<LrWorkload>(LrWorkload::Variant::kTemplates, seed, smoke);
  }
  if (name == "lr-serialized") {
    return std::make_unique<LrWorkload>(LrWorkload::Variant::kSerialized, seed, smoke);
  }
  if (name == "lr-migrate") {
    return std::make_unique<LrWorkload>(LrWorkload::Variant::kMigrate, seed, smoke);
  }
  if (name == "watersim") {
    return std::make_unique<WaterWorkload>(seed, smoke);
  }
  return nullptr;
}

}  // namespace nimbus::e2e
