"""Repeatability of the benchmark itself: N sets of the same code.

    python3 perf/repeat.py --sets 10 [--seconds S] [--out FILE.md]

Runs every workload N times (set ``i`` uses seed ``--seed + i``;
workload order alternates between sets), each run in a fresh process,
and prints for every (end-to-end metric, workload) pair the median, the
quartiles from ``statistics.quantiles(values, n=4)``, the spread
``(Q3 - Q1) / median`` and a verdict against the bound fixed in
BENCHMARK.json: PASS when the spread is within a third of the bound,
MARGINAL when within the bound, UNRESOLVED when wider — a difference
that small between two commits cannot be told from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)


def run_once(workload, seed, seconds, trace=0):
    """One ``run.py`` process; returns its last-line JSON, with the
    metrics it only printed (no bound, or only on this workload) read
    back from its result file as ``unlisted``."""
    argv = [sys.executable, os.path.join(PERF_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError("%s failed (exit %d):\n%s\n%s"
                           % (" ".join(argv), done.returncode,
                              done.stdout[-2000:], done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    name = "%s_%s.json" % ("layers" if trace else "result", workload)
    with open(os.path.join(PERF_DIR, "out", name), encoding="utf-8") as f:
        saved = json.load(f)
    result["unlisted"] = saved.get(
        "workload_layers" if trace else "printed_only", {})
    return result


def spread_of(values):
    """``(median, q1, q3, (q3 - q1) / |median|)``; a zero median (a
    count that is 0 on this workload) has spread 0."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def verdict(spread, bound):
    if spread <= bound / 3:
        return "PASS"
    return "MARGINAL" if spread <= bound else "UNRESOLVED"


def report(spec, values, sets, seconds, wall, trace):
    """The markdown report for ``values[(metric, workload, unit)]``;
    metrics BENCHMARK.json does not list come last, without a bound."""
    kind = "per_layer" if trace else "end_to_end"
    lines = [
        "# Repeatability of the benchmark (%s)" % kind, "",
        "%d sets of `%s --seconds %g --trace %d`, seeds 1..%d, workload "
        "order alternating; %.0f s wall in total.  Spread is "
        "(Q3 - Q1) / median over the %d runs." % (
            sets, " ".join(spec["command"]), seconds, trace, sets, wall,
            sets), "",
        "| metric | workload | median | Q1 | Q3 | spread | bound | verdict "
        "| runs |",
        "|---|---|---|---|---|---|---|---|---|"]
    listed = {m["name"] for m in spec[kind]}
    unlisted = sorted({(name, unit) for name, _w, unit in values
                       if name not in listed})
    for metric in spec[kind] + [{"name": name, "unit": unit}
                                for name, unit in unlisted]:
        for workload in spec["workloads"]:
            runs = values.get((metric["name"], workload["name"],
                               metric["unit"]))
            if not runs:
                continue        # a layer this workload does not exercise
            median, q1, q3, spread = spread_of(runs)
            bound = metric.get("bound")
            lines.append(
                "| %s | %s | %.6g %s | %.6g | %.6g | %.4f | %s | %s | %s |"
                % (metric["name"], workload["name"], median,
                   metric["unit"], q1, q3, spread,
                   "%.2f" % bound if bound is not None else "-",
                   verdict(spread, bound) if bound is not None else "-",
                   " ".join("%.4g" % v for v in runs)))
    return "\n".join(lines) + "\n"


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the report here")
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2 (quartiles need two runs)")

    names = [w["name"] for w in spec["workloads"]]
    values = {}
    started = time.perf_counter()
    for i in range(args.sets):
        for workload in names if i % 2 == 0 else reversed(names):
            result = run_once(workload, args.seed + i, args.seconds,
                              args.trace)
            if not result["correct"]:
                raise RuntimeError("%s seed %d: incorrect output"
                                   % (workload, args.seed + i))
            for metric, reading in list(result["metrics"].items()) \
                    + list(result["unlisted"].items()):
                values.setdefault((metric, workload, reading["unit"]), []) \
                    .append(reading["value"])
            print("set %d %-14s done (%.0f s)" % (
                i + 1, workload, time.perf_counter() - started),
                file=sys.stderr, flush=True)
    text = report(spec, values, args.sets, args.seconds,
                  time.perf_counter() - started, args.trace)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
