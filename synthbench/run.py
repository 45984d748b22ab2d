#!/usr/bin/env python3
"""End-to-end synthesis benchmark of the mcs library.

Run from the repository root:

    python3 synthbench/run.py --workload fig9ab-sched --seed 0 --seconds 30 --trace 0

Builds the library and the synthbench driver (Release, CMake) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then runs one workload on
one worker thread.  Workloads, and why each was chosen, are listed in
BENCHMARK.json at the repository root:

* ``fig9ab-sched``    -- the Figure 9a/b campaign (SF, OS, SAS).
* ``fig9c-buffers``   -- the Figure 9c buffer campaign (OR, SAR).
* ``soundness-sweep`` -- 1000 small systems, OS, simulated under six fault
  scenarios and checked against the analytic bounds.

``--seed`` offsets the campaign seed behind every RNG stream (annealing,
fault scenarios); on the sweep it also selects a fresh set of 1000
systems, while the two campaigns keep their pinned Figure 9 systems (see
make_workload in synthbench.cpp for why).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` makes a traced run and reports the per-layer
metrics.  The driver's human-readable report goes to standard output; its
last line is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

holding exactly the metrics BENCHMARK.json lists for the chosen trace
mode.  Outputs are checked in every run: each timed pass must reproduce
the first pass's per-job outcomes and exact work counters, and the
input and result digests must match the ones pinned in pins.json for
that workload and seed (when pinned).  A traced run additionally checks
that the benchmark's own job loop reproduces the untraced outcomes and
that every synthesized candidate re-evaluates identically on the
Reference kernel with delta analysis off.

``--size tiny`` shrinks every workload to a few seconds (used by
selftest.py); pinned digests apply to the full size only.  MCS_DELTA and
MCS_DELTA_CHECK are removed from the driver's environment, so the
default engine configuration is what gets measured.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig9ab-sched", "fig9c-buffers", "soundness-sweep")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("the mcs sources (CMakeLists.txt, src/) are not next to synthbench/")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "synthbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "synthbench")
    return binary if os.path.isfile(binary) else None


def pinned(workload, seed):
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def wanted_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(binary, args, extra=()):
    """Runs the driver, echoing its report; returns (exit code, result)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, *extra]
    env = {k: v for k, v in os.environ.items() if k not in ("MCS_DELTA", "MCS_DELTA_CHECK")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2
    try:
        names = wanted_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    binary = build()
    if binary is None:
        return 2
    extra = []
    pin = pinned(args.workload, args.seed) if args.size == "full" else None
    if pin:
        extra += ["--expect-input-digest", pin["input"], "--expect-result-digest", pin["result"]]
    code, result = run_driver(binary, args, extra)
    if result is None:
        log("the driver failed (exit %d)" % code)
        return 2
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log("the driver did not report " + ", ".join(missing))
        return 2
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
