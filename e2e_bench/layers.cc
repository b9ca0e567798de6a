#include "e2e_bench/layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "src/common/tracing.h"

namespace nimbus::e2e {

std::int64_t NowNs() { return trace::Tracer::WallNow(); }

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// Sorted, disjoint union of `spans`.
std::vector<Interval> Merge(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::vector<Interval> out;
  for (const Interval& s : spans) {
    if (!out.empty() && s.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, s.end);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

double Length(const std::vector<Interval>& merged) {
  double n = 0;
  for (const Interval& s : merged) {
    n += static_cast<double>(s.end - s.begin);
  }
  return n;
}

// Length of (sorted disjoint) `merged` inside (sorted disjoint) `windows`.
double LengthInside(const std::vector<Interval>& merged,
                    const std::vector<Interval>& windows) {
  double n = 0;
  std::size_t i = 0;
  for (const Interval& w : windows) {
    while (i < merged.size() && merged[i].end <= w.begin) {
      ++i;
    }
    for (std::size_t j = i; j < merged.size() && merged[j].begin < w.end; ++j) {
      n += static_cast<double>(std::min(merged[j].end, w.end) -
                               std::max(merged[j].begin, w.begin));
    }
  }
  return n;
}

}  // namespace

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = Seconds(ru.ru_utime);
  u.sys_s = Seconds(ru.ru_stime);
  u.voluntary_switches = static_cast<double>(ru.ru_nvcsw);
  u.involuntary_switches = static_cast<double>(ru.ru_nivcsw);
  return u;
}

Usage operator-(const Usage& a, const Usage& b) {
  return {a.user_s - b.user_s, a.sys_s - b.sys_s,
          a.voluntary_switches - b.voluntary_switches,
          a.involuntary_switches - b.involuntary_switches};
}

Usage operator+(const Usage& a, const Usage& b) {
  return {a.user_s + b.user_s, a.sys_s + b.sys_s,
          a.voluntary_switches + b.voluntary_switches,
          a.involuntary_switches + b.involuntary_switches};
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

HostCpu ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu h;
  double v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    h.total += v;
    if (field == 7) {
      h.steal = v;
    }
  }
  return h;
}

double StealShare(const HostCpu& before, const HostCpu& after) {
  const double total = after.total - before.total;
  return total <= 0 ? 0.0 : (after.steal - before.steal) / total;
}

ProgramCounters ReadCounters(Cluster& cluster) {
  NimbusController& c = cluster.controller();
  ProgramCounters p;
  p.tasks = static_cast<double>(c.tasks_dispatched());
  p.template_tasks = static_cast<double>(c.tasks_via_templates());
  const CacheCounters& patch = c.templates().patch_cache().counters();
  p.patch_hits = static_cast<double>(patch.hits);
  p.patch_lookups = static_cast<double>(patch.lookups());
  const ShardCounters& shards = c.instantiation_pipeline().shard_counters();
  p.plan_builds = static_cast<double>(shards.plan_builds);
  p.plan_reuses = static_cast<double>(shards.plan_reuses);
  const SerializedBatchCounters& ser = c.instantiation_pipeline().serialized_counters();
  p.serialized_encodes = static_cast<double>(ser.half_encodes);
  p.serialized_reuses = static_cast<double>(ser.half_reuses);
  p.serialized_bytes = static_cast<double>(ser.bytes_shipped);
  p.serialized_commands = static_cast<double>(ser.commands);
  p.workers_failed = static_cast<double>(c.failure_counters().workers_failed);
  for (WorkerId id : cluster.worker_ids()) {
    if (const Worker* w = cluster.worker(id)) {
      p.entries += static_cast<double>(w->materialize_counters().entries);
    }
  }
  return p;
}

ProgramCounters operator-(const ProgramCounters& a, const ProgramCounters& b) {
  ProgramCounters d;
  d.tasks = a.tasks - b.tasks;
  d.template_tasks = a.template_tasks - b.template_tasks;
  d.patch_hits = a.patch_hits - b.patch_hits;
  d.patch_lookups = a.patch_lookups - b.patch_lookups;
  d.plan_builds = a.plan_builds - b.plan_builds;
  d.plan_reuses = a.plan_reuses - b.plan_reuses;
  d.serialized_encodes = a.serialized_encodes - b.serialized_encodes;
  d.serialized_reuses = a.serialized_reuses - b.serialized_reuses;
  d.serialized_bytes = a.serialized_bytes - b.serialized_bytes;
  d.serialized_commands = a.serialized_commands - b.serialized_commands;
  d.entries = a.entries - b.entries;
  d.workers_failed = a.workers_failed - b.workers_failed;
  return d;
}

ProgramCounters operator+(const ProgramCounters& a, const ProgramCounters& b) {
  ProgramCounters s;
  s.tasks = a.tasks + b.tasks;
  s.template_tasks = a.template_tasks + b.template_tasks;
  s.patch_hits = a.patch_hits + b.patch_hits;
  s.patch_lookups = a.patch_lookups + b.patch_lookups;
  s.plan_builds = a.plan_builds + b.plan_builds;
  s.plan_reuses = a.plan_reuses + b.plan_reuses;
  s.serialized_encodes = a.serialized_encodes + b.serialized_encodes;
  s.serialized_reuses = a.serialized_reuses + b.serialized_reuses;
  s.serialized_bytes = a.serialized_bytes + b.serialized_bytes;
  s.serialized_commands = a.serialized_commands + b.serialized_commands;
  s.entries = a.entries + b.entries;
  s.workers_failed = a.workers_failed + b.workers_failed;
  return s;
}

double LayerTotals::Span(const std::string& key) const {
  const auto it = span_ns.find(key);
  return it == span_ns.end() ? 0.0 : it->second;
}

LayerTotals operator+(const LayerTotals& a, const LayerTotals& b) {
  LayerTotals s = a;
  for (const auto& [key, ns] : b.span_ns) {
    s.span_ns[key] += ns;
  }
  s.controller_busy_ns += b.controller_busy_ns;
  s.worker_busy_ns += b.worker_busy_ns;
  s.window_ns += b.window_ns;
  s.controller_covered_ns += b.controller_covered_ns;
  s.worker_only_covered_ns += b.worker_only_covered_ns;
  s.dropped_events += b.dropped_events;
  return s;
}

void RecordDriverSpan(const char* name, std::int64_t begin_ns, std::int64_t end_ns) {
  if (!trace::Tracer::enabled()) {
    return;
  }
  trace::Event e;
  e.type = trace::EventType::kSpan;
  e.lane = trace::Lane::kController;
  e.track = kDriverTrack;
  e.name = name;
  e.wall_ns = begin_ns;
  e.wall_dur_ns = end_ns - begin_ns;
  trace::Tracer::Get().Record(e);
}

LayerTotals CollectLayers(const Interval& phase, const std::vector<Interval>& iterations) {
  trace::Tracer& tracer = trace::Tracer::Get();
  LayerTotals t;
  t.dropped_events = static_cast<double>(tracer.dropped());
  std::vector<Interval> controller;
  std::map<std::uint32_t, std::vector<Interval>> workers;
  for (const trace::Event& e : tracer.Snapshot()) {
    if (e.type != trace::EventType::kSpan || e.wall_ns < phase.begin ||
        e.wall_ns > phase.end) {
      continue;
    }
    if (e.lane == trace::Lane::kController && e.track == kDriverTrack) {
      continue;  // the benchmark's own spans
    }
    const Interval span{e.wall_ns, e.wall_ns + e.wall_dur_ns};
    t.span_ns[std::string(trace::LaneName(e.lane)) + "." + e.name] +=
        static_cast<double>(e.wall_dur_ns);
    if (e.lane == trace::Lane::kController) {
      controller.push_back(span);
    } else if (e.lane == trace::Lane::kWorker) {
      workers[e.track].push_back(span);
    }
  }
  const std::vector<Interval> controller_union = Merge(controller);
  t.controller_busy_ns = Length(controller_union);
  std::vector<Interval> all = controller_union;
  for (auto& [track, spans] : workers) {
    const std::vector<Interval> merged = Merge(spans);
    t.worker_busy_ns += Length(merged);
    all.insert(all.end(), merged.begin(), merged.end());
  }
  const std::vector<Interval> windows = Merge(iterations);
  t.window_ns = Length(windows);
  t.controller_covered_ns = LengthInside(controller_union, windows);
  t.worker_only_covered_ns = LengthInside(Merge(all), windows) - t.controller_covered_ns;
  return t;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

}  // namespace nimbus::e2e
