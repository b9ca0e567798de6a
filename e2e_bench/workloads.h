// The benchmark's four closed-loop workloads over TransportKind::kTcp (see README.md).
//
// A run repeats identical rounds. Each round builds a fresh two-worker Cluster, loads the
// app, warms it up (all of that is the round's set-up time), then runs a fixed, seeded
// count of measured iterations, each issued only after the previous one returned. Output
// checks compare every round against a reference computed once per run.

#ifndef NIMBUS_E2E_BENCH_WORKLOADS_H_
#define NIMBUS_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "e2e_bench/layers.h"

namespace nimbus::e2e {

inline constexpr int kWorkers = 2;

struct RoundRecord {
  // Set-up phases (seconds): Cluster construction (TCP mesh bootstrap), app Setup() (data
  // load), warm-up blocks (template capture and install, cold stage plans).
  double cluster_start_s = 0;
  double load_s = 0;
  double bringup_s = 0;
  double setup_s() const { return cluster_start_s + load_s + bringup_s; }

  // Measured phase. Iteration latencies are split by kind: an edit iteration is the first
  // one after PlanRandomMigrations; every other iteration is steady.
  std::vector<double> steady_iter_ms;
  std::vector<double> edit_iter_ms;
  std::vector<double> plan_migrations_ms;
  double measured_s = 0;
  double blocks = 0;  // blocks the driver ran in the measured phase
  ProgramCounters counters;  // measured-phase deltas
  Usage usage;               // measured-phase deltas

  bool traced = false;
  LayerTotals layers;  // traced rounds only

  std::uint64_t blocks_attempted = 0;  // warm-up and measured
  std::uint64_t blocks_failed = 0;     // a recovered block counts as failed
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One round. With `traced`, the tracer records the measured phase; a non-empty
  // `chrome_trace_path` receives that phase's Chrome trace.
  virtual RoundRecord RunRound(bool traced, const std::string& chrome_trace_path) = 0;

  // Checks every round run so far against the reference; returns the number of failed
  // checks and appends one line per check to `report`.
  virtual int CheckOutputs(std::string* report) = 0;
};

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// nullptr for an unknown name. `smoke` shrinks every round to a few iterations.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       bool smoke);

}  // namespace nimbus::e2e

#endif  // NIMBUS_E2E_BENCH_WORKLOADS_H_
