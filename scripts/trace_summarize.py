#!/usr/bin/env python3
"""Summarize a Nimbus Chrome trace-event JSON file (see --trace-out and DESIGN.md §12).

Default mode prints a per-lane, per-phase breakdown of the span events: count, total and
mean wall time, plus instant-event counts and network byte totals (a send span's `value`
arg carries the encoded payload bytes). A TCP run's `tcp_flush` spans (one per gathered
write) carry a frame count instead, summarized as frames per write.

With --check the file is validated instead: it must parse, every event must carry the
Chrome trace-event fields the viewers need, and every required lane (controller,
pipeline, worker, network) must contain at least one span. Exit code 0 when valid,
nonzero otherwise — CI runs this against a fresh example trace.
"""

import argparse
import json
import sys
from collections import defaultdict

REQUIRED_LANES = ("controller", "pipeline", "worker", "network")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def lane_names(events):
    """pid -> lane name, from the process_name metadata events."""
    lanes = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "process_name":
            lanes[e["pid"]] = e.get("args", {}).get("name", "?")
    return lanes


def check(doc):
    """Returns a list of problems (empty when the trace is valid)."""
    problems = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["top level must be an object with a traceEvents list"]
    events = doc["traceEvents"]
    if not events:
        return ["traceEvents is empty"]

    for i, e in enumerate(events):
        if not isinstance(e, dict):
            problems.append(f"event {i}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in e:
                problems.append(f"event {i}: missing {field!r}")
        ph = e.get("ph")
        if ph in ("X", "i", "C") and "ts" not in e:
            problems.append(f"event {i}: {ph!r} event missing 'ts'")
        if ph == "X" and "dur" not in e:
            problems.append(f"event {i}: span missing 'dur'")
        if len(problems) >= 20:
            problems.append("... (more problems suppressed)")
            return problems

    lanes = lane_names(events)
    spans_per_lane = defaultdict(int)
    for e in events:
        if e.get("ph") == "X":
            spans_per_lane[lanes.get(e.get("pid"), "?")] += 1
    for lane in REQUIRED_LANES:
        if lane not in lanes.values():
            problems.append(f"missing process_name metadata for lane {lane!r}")
        elif spans_per_lane[lane] == 0:
            problems.append(f"lane {lane!r} has no span events")
    return problems


def summarize(doc, out=sys.stdout):
    events = doc["traceEvents"]
    lanes = lane_names(events)

    spans = defaultdict(lambda: [0, 0.0])  # (lane, name) -> [count, total_us]
    instants = defaultdict(int)  # (lane, name) -> count
    net_bytes = defaultdict(int)  # name -> total payload bytes (span `value` arg)
    flush_frames = 0  # frames gathered by tcp_flush spans
    tracks = defaultdict(set)  # lane -> set of tids
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            continue
        lane = lanes.get(e.get("pid"), "?")
        tracks[lane].add(e.get("tid"))
        key = (lane, e.get("name", "?"))
        if ph == "X":
            spans[key][0] += 1
            spans[key][1] += float(e.get("dur", 0))
            if lane == "network" and e.get("name") == "tcp_flush":
                flush_frames += int(e.get("args", {}).get("value", 0))
            elif lane == "network":
                net_bytes[e.get("name", "?")] += int(e.get("args", {}).get("value", 0))
        elif ph == "i":
            instants[key] += 1

    print(f"{'lane':<12} {'phase':<26} {'count':>8} {'total_ms':>10} {'mean_us':>10}",
          file=out)
    for (lane, name), (count, total_us) in sorted(
            spans.items(), key=lambda kv: (kv[0][0], -kv[1][1])):
        print(f"{lane:<12} {name:<26} {count:>8} {total_us / 1000.0:>10.3f} "
              f"{total_us / count:>10.3f}", file=out)

    if instants:
        print(f"\n{'lane':<12} {'instant':<26} {'count':>8}", file=out)
        for (lane, name), count in sorted(instants.items()):
            print(f"{lane:<12} {name:<26} {count:>8}", file=out)

    if net_bytes:
        print(f"\n{'network send':<26} {'bytes':>12}", file=out)
        for name, total in sorted(net_bytes.items()):
            print(f"{name:<26} {total:>12}", file=out)

    flushes = spans.get(("network", "tcp_flush"), (0, 0.0))[0]
    if flushes:
        print(f"\ntcp gathered writes: {flushes}, frames: {flush_frames} "
              f"({flush_frames / flushes:.1f} per write)", file=out)

    for lane in sorted(tracks):
        print(f"\n{lane}: {len(tracks[lane])} track(s)", file=out, end="")
    print(file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file (--trace-out output)")
    parser.add_argument("--check", action="store_true",
                        help="validate the trace instead of summarizing; nonzero exit "
                             "on schema problems or empty required lanes")
    args = parser.parse_args()

    try:
        doc = load(args.trace)
    except (OSError, json.JSONDecodeError) as err:
        print(f"{args.trace}: {err}", file=sys.stderr)
        return 1

    problems = check(doc)
    if args.check:
        if problems:
            for p in problems:
                print(f"{args.trace}: {p}", file=sys.stderr)
            return 1
        events = doc["traceEvents"]
        spans = sum(1 for e in events if e.get("ph") == "X")
        print(f"{args.trace}: OK ({len(events)} events, {spans} spans, "
              f"all required lanes populated)")
        return 0

    if problems:
        for p in problems:
            print(f"warning: {p}", file=sys.stderr)
    summarize(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
