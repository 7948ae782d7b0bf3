"""Run every workload and print all metrics by name, with units.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seed N] [--seconds S]

S defaults to the run_seconds of BENCHMARK.json.

Runs run.py once untraced and twice traced on each workload, prints the
end-to-end table (with fail_frac, the share of jobs that failed) and the
per-layer table (with the tracing overhead), and checks the benchmark
itself:

- every run answered every job correctly, and traced answers equal
  untraced ones (run.py reports that as "correct");
- every ``.calls`` metric is above zero on at least one workload, so no
  layer goes unmeasured without notice;
- count metrics are identical across the two traced runs;
- BENCHMARK.json names exactly the workloads and metrics run.py reports.

Exits 1 if a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

from run import END_TO_END, HERE, ROOT
from tracer import PER_LAYER
from workloads import NAMES, WHY


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title, rows, results):
    print(title)
    width = max(len("%s (%s)" % r) for r in rows)
    print("  %-*s %s" % (width, "metric (unit)",
                         " ".join("%12s" % w for w in NAMES)))
    for name, unit in rows:
        cells = []
        for w in NAMES:
            value = results[w][name]
            cells.append("%12d" % value if isinstance(value, int)
                         else "%12.4f" % value)
        print("  %-*s %s" % (width, "%s (%s)" % (name, unit), " ".join(cells)))


def check_manifest(manifest, problems):
    if ([(w["name"], w["why"]) for w in manifest["workloads"]]
            != [(name, WHY[name]) for name in NAMES]):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, expect in (("end_to_end", END_TO_END),
                        ("per_layer", PER_LAYER)):
        got = [(m["name"], m["unit"]) for m in manifest[key]]
        if got != list(expect):
            problems.append("BENCHMARK.json %s differs from the metrics "
                            "run.py reports" % key)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    seconds = args.seconds or manifest["run_seconds"]
    problems = []
    check_manifest(manifest, problems)
    e2e, layers = {}, {}
    for w in NAMES:
        runs = [run_once(w, args.seed, seconds, trace)
                for trace in (0, 1, 1)]
        for i, res in enumerate(runs):
            if not res["correct"]:
                problems.append("%s run %d is not correct" % (w, i + 1))
        e2e[w] = {k: v["value"] for k, v in runs[0]["metrics"].items()}
        e2e[w]["fail_frac"] = runs[0]["failed"] / runs[0]["attempted"]
        first, second = ({k: v["value"] for k, v in r["metrics"].items()}
                         for r in runs[1:])
        layers[w] = first
        for name, unit in PER_LAYER:
            if unit == "count" and first[name] != second[name]:
                problems.append("%s: %s is %s then %s across traced runs"
                                % (w, name, first[name], second[name]))
    table("end-to-end, seed %d, tracing off:" % args.seed,
          END_TO_END + [("fail_frac", "ratio")], e2e)
    table("per layer, seed %d, traced:" % args.seed, PER_LAYER, layers)
    for name, _unit in PER_LAYER:
        if name.endswith(".calls") and not any(layers[w][name] for w in NAMES):
            problems.append("%s is zero on every workload" % name)
    for problem in problems:
        print("problem: %s" % problem)
    print("self-check: %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
