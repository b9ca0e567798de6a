// Measurement helpers for the end-to-end benchmark: process resource usage, the program's
// own counters (read after Cluster::Quiesce), and the per-layer accounting derived from
// the existing trace::Tracer spans. Nothing here adds instrumentation to the program; it
// only reads what the program already exposes.

#ifndef NIMBUS_E2E_BENCH_LAYERS_H_
#define NIMBUS_E2E_BENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/driver/cluster.h"

namespace nimbus::e2e {

// Wall clock in nanoseconds, on the same steady clock the tracer stamps spans with.
std::int64_t NowNs();

// getrusage(RUSAGE_SELF): every thread of the process (driver, controller and worker
// event loops).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double voluntary_switches = 0.0;
  double involuntary_switches = 0.0;
};
Usage ReadUsage();
Usage operator-(const Usage& a, const Usage& b);
Usage operator+(const Usage& a, const Usage& b);
double PeakRssMiB();

// This machine's CPU time over all processes, from /proc/stat (in ticks). On a VM the
// share the hypervisor stole tells a slow host from a slow program.
struct HostCpu {
  double steal = 0;
  double total = 0;
};
HostCpu ReadHostCpu();
double StealShare(const HostCpu& before, const HostCpu& after);

// Program counters summed over the controller and every worker. Call Cluster::Quiesce()
// first under TCP.
struct ProgramCounters {
  double tasks = 0;           // controller tasks_dispatched
  double template_tasks = 0;  // controller tasks_via_templates
  double patch_hits = 0;
  double patch_lookups = 0;
  double plan_builds = 0;
  double plan_reuses = 0;
  double serialized_encodes = 0;
  double serialized_reuses = 0;
  double serialized_bytes = 0;
  double serialized_commands = 0;
  double entries = 0;         // worker MaterializeCounters::entries
  double workers_failed = 0;  // controller FailureCounters::workers_failed
};
ProgramCounters ReadCounters(Cluster& cluster);
ProgramCounters operator-(const ProgramCounters& a, const ProgramCounters& b);
ProgramCounters operator+(const ProgramCounters& a, const ProgramCounters& b);

struct Interval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

// Span time of one traced measured phase, split by layer. Durations in ns.
struct LayerTotals {
  std::map<std::string, double> span_ns;  // "<lane>.<span name>" -> summed duration
  double controller_busy_ns = 0;          // union of controller spans
  double worker_busy_ns = 0;              // union per worker, summed over workers
  double window_ns = 0;                   // driver iteration wall time (coverage base)
  double controller_covered_ns = 0;       // controller union inside iteration windows
  double worker_only_covered_ns = 0;      // worker union outside the controller's
  double dropped_events = 0;
  double Span(const std::string& key) const;
};
LayerTotals operator+(const LayerTotals& a, const LayerTotals& b);

// Benchmark-side spans around driver calls ride the controller lane on a track of their
// own, so they show next to the controller's phases in the Chrome trace.
inline constexpr std::uint32_t kDriverTrack = 200;
void RecordDriverSpan(const char* name, std::int64_t begin_ns, std::int64_t end_ns);

// Folds the tracer's current events into LayerTotals. `iterations` are the driver's
// iteration windows; only spans that start inside [phase.begin, phase.end] count.
LayerTotals CollectLayers(const Interval& phase, const std::vector<Interval>& iterations);

// Quantile by linear interpolation between closest ranks (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

}  // namespace nimbus::e2e

#endif  // NIMBUS_E2E_BENCH_LAYERS_H_
