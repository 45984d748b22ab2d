#!/usr/bin/env python3
"""Self-test of the synthesis benchmark on tiny configurations.

Run from the repository root:  python3 synthbench/selftest.py

For every workload, at --size tiny, it checks that

* an untraced run prints every end-to-end metric of BENCHMARK.json (and
  the issue's other end-to-end figures, failed_frac and, on campaigns,
  quality_gap_pct) by name with its unit, and reports correct;
* a traced run prints every per-layer metric with its unit, and in its
  layer table no span's self time exceeds its total and no span's time
  under its parent exceeds that parent's total;
* a corrupted pinned result or input digest makes the run report
  incorrect with failed operations, while the true digests pass.

Exits 0 when every check holds, 1 otherwise.
"""
import contextlib
import io
import json
import os
import re
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXTRA_UNTRACED = {"failed_frac": "fraction"}
CAMPAIGN_ONLY = {"quality_gap_pct": "%"}

failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def launch(binary, workload, trace, extra=()):
    args = run.parse_args(["--workload", workload, "--seconds", "0", "--trace", str(trace),
                           "--size", "tiny"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, result = run.run_driver(binary, args, extra)
    return code, result, buf.getvalue()


def printed_units(report):
    units = {}
    for m in re.finditer(r"^metric (\S+) (\S+) (\S+)$", report, re.M):
        units[m.group(1)] = m.group(3)
    return units


def check_metrics(workload, label, wanted, report, result):
    units = printed_units(report)
    for name, unit in wanted.items():
        expect(units.get(name) == unit and result["metrics"].get(name, {}).get("unit") == unit,
               "%s %s: %s printed in %s" % (workload, label, name, unit))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    binary = run.build()
    if binary is None:
        print("FAIL build")
        return 1
    for w in run.WORKLOADS:
        code, result, report = launch(binary, w, 0)
        expect(code == 0 and result is not None and result["correct"],
               "%s untraced run is correct" % w)
        if result is None:
            continue
        wanted = dict(end_to_end, **EXTRA_UNTRACED)
        if w != "soundness-sweep":
            wanted.update(CAMPAIGN_ONLY)
        check_metrics(w, "untraced", wanted, report, result)

        digests = dict(re.findall(r"^(input|result) digest ([0-9a-f]{16})", report, re.M))
        for kind in ("input", "result"):
            good = digests.get(kind)
            expect(good is not None, "%s prints its %s digest" % (w, kind))
            if good is None:
                continue
            bad = "%016x" % (int(good, 16) ^ 1)
            flag = "--expect-%s-digest" % kind
            _, r_good, _ = launch(binary, w, 0, [flag, good])
            _, r_bad, _ = launch(binary, w, 0, [flag, bad])
            expect(r_good is not None and r_good["correct"],
                   "%s: the true pinned %s digest passes" % (w, kind))
            expect(r_bad is not None and not r_bad["correct"] and r_bad["failed"] > 0,
                   "%s: a corrupted pinned %s digest fails the check" % (w, kind))

        code, result, report = launch(binary, w, 1)
        expect(code == 0 and result is not None and result["correct"],
               "%s traced run is correct" % w)
        if result is None:
            continue
        check_metrics(w, "traced", per_layer, report, result)
        rows = {}
        for m in re.finditer(r"^layer (\S+) calls=(\d+) total_ms=(\S+) self_ms=(\S+) "
                             r"share_pct=\S+ parent=(\S+) under_parent_ms=(\S+)$", report, re.M):
            rows[m.group(1)] = (float(m.group(3)), float(m.group(4)), m.group(5),
                                float(m.group(6)))
        expect(len(rows) > 0, "%s prints a layer table" % w)
        for name, (total, self_ms, parent, under) in rows.items():
            ok = self_ms <= total + 1e-9
            if parent != "-":
                ok = ok and parent in rows and under <= rows[parent][0] + 1e-9
            expect(ok, "%s: layer %s self <= total and within parent %s" % (w, name, parent))
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
