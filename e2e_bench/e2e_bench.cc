// Wall-clock end-to-end benchmark over loopback TCP (see README.md).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--chrome-trace PATH]
//   e2e_bench --smoke [--seed N]
//
// A run repeats identical rounds of one workload (workloads.h) until the next round would
// end past --seconds. --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced rounds and prints the per-layer metrics, their coverage of
// iteration wall time and the tracing overhead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "e2e_bench/layers.h"
#include "e2e_bench/workloads.h"

namespace nimbus::e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string chrome_trace;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--chrome-trace") {
      args->chrome_trace = value;
    } else {
      return false;
    }
  }
  return args->smoke || !args->workload.empty();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint() {
  std::ostringstream out;
  out << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\"" << CpuModel()
      << "\" compiler=\"" << E2E_COMPILER << "\" build=" << E2E_BUILD_TYPE;
  return out.str();
}

// One metric of the result line, printed with all its digits.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << Number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::vector<double> Concat(const std::vector<RoundRecord>& rounds,
                           std::vector<double> RoundRecord::*field) {
  std::vector<double> out;
  for (const RoundRecord& r : rounds) {
    out.insert(out.end(), (r.*field).begin(), (r.*field).end());
  }
  return out;
}

// Sums over `rounds`: block accounting, and the measured phases.
struct Totals {
  std::uint64_t blocks_attempted = 0;
  std::uint64_t blocks_failed = 0;
  double measured_s = 0;
  double blocks = 0;
  ProgramCounters counters;
  Usage usage;
  LayerTotals layers;
};

Totals Sum(const std::vector<RoundRecord>& rounds) {
  Totals t;
  for (const RoundRecord& r : rounds) {
    t.blocks_attempted += r.blocks_attempted;
    t.blocks_failed += r.blocks_failed;
    t.measured_s += r.measured_s;
    t.blocks += r.blocks;
    t.counters = t.counters + r.counters;
    t.usage = t.usage + r.usage;
    t.layers = t.layers + r.layers;
  }
  return t;
}

std::vector<Metric> EndToEnd(const std::vector<RoundRecord>& rounds) {
  std::vector<double> tasks_per_s, setup;
  for (const RoundRecord& r : rounds) {
    tasks_per_s.push_back(Ratio(r.counters.tasks, r.measured_s));
    setup.push_back(r.setup_s());
  }
  return {
      {"tasks_per_s", Median(tasks_per_s), "tasks/s"},
      {"iter_p50_ms", Median(Concat(rounds, &RoundRecord::steady_iter_ms)), "ms"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

// Per-layer metrics from the traced rounds (set-up phases from every round), plus the
// coverage of iteration wall time and the tracing overhead against the untraced rounds.
std::vector<Metric> PerLayer(const std::vector<RoundRecord>& rounds) {
  std::vector<RoundRecord> traced, untraced;
  std::vector<double> cluster_start, load, bringup;
  for (const RoundRecord& r : rounds) {
    (r.traced ? traced : untraced).push_back(r);
    cluster_start.push_back(r.cluster_start_s * 1e3);
    load.push_back(r.load_s * 1e3);
    bringup.push_back(r.bringup_s * 1e3);
  }
  const Totals t = Sum(traced);
  const LayerTotals& l = t.layers;
  const double tasks = t.counters.tasks;
  const double blocks = t.blocks;
  const double wall_ns = t.measured_s * 1e9;
  const double controller_share = Ratio(l.controller_covered_ns, l.window_ns);
  const double worker_share = Ratio(l.worker_only_covered_ns, l.window_ns);
  const double unattributed_ns =
      l.window_ns - l.controller_covered_ns - l.worker_only_covered_ns;
  const std::vector<double> steady = Concat(traced, &RoundRecord::steady_iter_ms);
  const double traced_p50 = Median(steady);
  const double untraced_p50 = Median(Concat(untraced, &RoundRecord::steady_iter_ms));

  std::printf("coverage of iteration wall time: controller %.1f%%, worker (outside "
              "controller) %.1f%%, unattributed %.1f%%\n",
              100 * controller_share, 100 * worker_share,
              100 * (1 - controller_share - worker_share));
  std::printf("tracing overhead: steady iteration p50 %.4f ms traced vs %.4f ms untraced "
              "(%+.1f%%); trace events dropped: %.0f\n",
              traced_p50, untraced_p50, 100 * (Ratio(traced_p50, untraced_p50) - 1),
              l.dropped_events);
  std::printf("traced steady iterations: %zu (p90 and p99 below come from these)\n",
              steady.size());
  return {
      {"driver.cluster_start_ms", Median(cluster_start), "ms"},
      {"driver.load_ms", Median(load), "ms"},
      {"driver.bringup_ms", Median(bringup), "ms"},
      {"driver.plan_migrations_ms", Median(Concat(traced, &RoundRecord::plan_migrations_ms)),
       "ms"},
      {"driver.edit_iter_p50_ms", Median(Concat(traced, &RoundRecord::edit_iter_ms)), "ms"},
      {"driver.steady_iter_p50_ms", traced_p50, "ms"},
      {"driver.iter_p90_ms", Quantile(steady, 0.9), "ms"},
      {"driver.iter_p99_ms", Quantile(steady, 0.99), "ms"},
      {"controller.instantiate_us_per_block",
       Ratio(l.Span("controller.instantiate_template"), blocks) * 1e-3, "us/block"},
      {"controller.validate_ns_per_task", Ratio(l.Span("controller.validate"), tasks),
       "ns/task"},
      {"controller.apply_effects_ns_per_task",
       Ratio(l.Span("controller.apply_effects"), tasks), "ns/task"},
      {"controller.assemble_ns_per_task", Ratio(l.Span("controller.assemble_messages"), tasks),
       "ns/task"},
      {"controller.stage_batched_ns_per_task",
       Ratio(l.Span("controller.stage_batched"), tasks), "ns/task"},
      {"controller.patch_hit_ratio", Ratio(t.counters.patch_hits, t.counters.patch_lookups),
       "ratio"},
      {"controller.template_task_ratio", Ratio(t.counters.template_tasks, tasks), "ratio"},
      {"controller.busy_share", Ratio(l.controller_busy_ns, wall_ns), "ratio"},
      {"runtime.assemble_serialized_ns_per_task",
       Ratio(l.Span("pipeline.assemble_serialized_job"), tasks), "ns/task"},
      {"runtime.plan_reuse_ratio",
       Ratio(t.counters.plan_reuses, t.counters.plan_reuses + t.counters.plan_builds),
       "ratio"},
      {"runtime.serialized_reuse_ratio",
       Ratio(t.counters.serialized_reuses,
             t.counters.serialized_reuses + t.counters.serialized_encodes),
       "ratio"},
      {"task.wire_bytes_per_task",
       Ratio(t.counters.serialized_bytes, t.counters.serialized_commands), "bytes/task"},
      {"worker.decode_ns_per_task", Ratio(l.Span("worker.decode"), tasks), "ns/task"},
      {"worker.materialize_ns_per_task", Ratio(l.Span("worker.materialize"), tasks),
       "ns/task"},
      {"worker.group_start_us_per_block", Ratio(l.Span("worker.group_start"), blocks) * 1e-3,
       "us/block"},
      {"worker.entries_per_task", Ratio(t.counters.entries, tasks), "entries/task"},
      {"worker.busy_share", Ratio(l.worker_busy_ns, wall_ns * kWorkers), "ratio"},
      {"net.sys_cpu_us_per_task", Ratio(t.usage.sys_s * 1e6, tasks), "us/task"},
      {"net.voluntary_switches_per_block", Ratio(t.usage.voluntary_switches, blocks),
       "switches/block"},
      {"net.unattributed_us_per_block", Ratio(unattributed_ns, blocks) * 1e-3, "us/block"},
      {"proc.user_cpu_us_per_task", Ratio(t.usage.user_s * 1e6, tasks), "us/task"},
      {"proc.involuntary_switches_per_s", Ratio(t.usage.involuntary_switches, t.measured_s),
       "1/s"},
      {"trace.coverage_share", controller_share + worker_share, "ratio"},
      {"trace.overhead_share", Ratio(traced_p50, untraced_p50) - 1, "ratio"},
  };
}

// Runs rounds of `workload` until the next one would end past `seconds` (at least
// `min_rounds`). With `trace`, odd rounds are traced.
std::vector<RoundRecord> RunRounds(Workload* workload, double seconds, int min_rounds,
                                   bool trace, std::string chrome_trace) {
  std::vector<RoundRecord> rounds;
  const std::int64_t start = NowNs();
  double last_round_s = 0;
  while (true) {
    const std::int64_t round_start = NowNs();
    const bool traced = trace && rounds.size() % 2 == 1;
    rounds.push_back(workload->RunRound(traced, traced ? chrome_trace : std::string()));
    // Hand the finished round's freed heap back, so the peak RSS is one round's peak and
    // does not grow with the number of rounds that fit in a run.
    malloc_trim(0);
    if (traced) {
      chrome_trace.clear();  // one Chrome trace per run
    }
    last_round_s = static_cast<double>(NowNs() - round_start) * 1e-9;
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (static_cast<int>(rounds.size()) >= min_rounds && elapsed + last_round_s > seconds) {
      break;
    }
  }
  return rounds;
}

int RunOne(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, false);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\nworkload=%s seed=%llu seconds=%g trace=%d\n", Fingerprint().c_str(),
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  const HostCpu host_before = ReadHostCpu();
  const std::vector<RoundRecord> rounds = RunRounds(
      workload.get(), args.seconds, args.trace ? 2 : 1, args.trace, args.chrome_trace);
  std::printf("host steal share during the rounds: %.1f%% of CPU time\n",
              100 * StealShare(host_before, ReadHostCpu()));
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundRecord& r = rounds[i];
    std::printf("round %2zu%s setup %.4f s, %zu steady iterations p50 %.4f p90 %.4f ms, "
                "%.0f tasks/s\n",
                i, r.traced ? " (traced)" : "", r.setup_s(), r.steady_iter_ms.size(),
                Quantile(r.steady_iter_ms, 0.5), Quantile(r.steady_iter_ms, 0.9),
                Ratio(r.counters.tasks, r.measured_s));
  }

  // Peak RSS is read here, before the output checks build their references.
  const std::vector<Metric> metrics = args.trace ? PerLayer(rounds) : EndToEnd(rounds);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string report;
  const int checks_failed = workload->CheckOutputs(&report);
  const Totals totals = Sum(rounds);
  std::fputs(report.c_str(), stdout);
  std::printf("rounds=%zu blocks attempted=%llu blocks failed=%llu checks failed=%d\n",
              rounds.size(), static_cast<unsigned long long>(totals.blocks_attempted),
              static_cast<unsigned long long>(totals.blocks_failed), checks_failed);
  const std::string result =
      ResultJson(checks_failed == 0, totals.blocks_attempted, totals.blocks_failed, metrics);
  std::printf("%s\n", result.c_str());
  return checks_failed == 0 ? 0 : 1;
}

// Every workload for a few iterations with all checks on.
int RunSmoke(const Args& args) {
  std::printf("%s\n", Fingerprint().c_str());
  bool all_ok = true;
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> workload = MakeWorkload(name, args.seed, true);
    const Usage before = ReadUsage();
    const HostCpu host_before = ReadHostCpu();
    const std::vector<RoundRecord> rounds =
        RunRounds(workload.get(), 0, 2, /*trace=*/true, std::string());
    const Usage used = ReadUsage() - before;
    const double steal = StealShare(host_before, ReadHostCpu());
    std::string report;
    const int checks_failed = workload->CheckOutputs(&report);
    const Totals totals = Sum(rounds);
    const bool ok = checks_failed == 0 && totals.blocks_failed == 0;
    all_ok = all_ok && ok;
    std::printf("%-14s %s: blocks attempted=%llu failed=%llu checks failed=%d "
                "involuntary switches=%.0f host steal=%.1f%%\n%s",
                name.c_str(), ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(totals.blocks_attempted),
                static_cast<unsigned long long>(totals.blocks_failed), checks_failed,
                used.involuntary_switches, 100 * steal, report.c_str());
  }
  std::printf("smoke: %s\n", all_ok ? "ok" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace nimbus::e2e

int main(int argc, char** argv) {
  nimbus::e2e::Args args;
  if (!nimbus::e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--chrome-trace PATH] | --smoke [--seed N]\n");
    return 2;
  }
  return args.smoke ? nimbus::e2e::RunSmoke(args) : nimbus::e2e::RunOne(args);
}
