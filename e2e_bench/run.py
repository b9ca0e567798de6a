#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it (see README.md).

Run from the repository root:

  python3 e2e_bench/run.py --workload lr-templates --seed 1 --seconds 20 --trace 0
  python3 e2e_bench/run.py --workload watersim --seed 1 --seconds 20 --trace 1
  python3 e2e_bench/run.py --smoke

The build goes to $CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench); build
output goes to stderr, so the last line of stdout is the benchmark's JSON result. A traced
run also writes its Chrome trace to <build dir>/traces/<workload>-seed<N>.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2e_bench")


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2e_bench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    out = build_dir()
    if not build(out):
        return 3
    if flag(args, "--trace", "0") == "1" and "--chrome-trace" not in args:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag(args, "--workload", "none"), flag(args, "--seed", "1"))
        args += ["--chrome-trace", os.path.join(traces, name)]
    return subprocess.run([os.path.join(out, "e2e_bench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
