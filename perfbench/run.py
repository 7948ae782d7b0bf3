"""The rigidconn benchmark: one workload, run as a closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one job at a time and waits for its answer.  The seed
fixes the workload's job list (inputs and order); a pass runs that list
once, in a fresh worker process with a fresh weight-cache directory, so
every pass starts cold.  Passes repeat until the next one would end after
S seconds, with at least three.  Every answer is checked (see
workloads.py); a job that raises, exits non-zero or answers wrongly
counts as failed.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics: the wall and CPU time of the job list and of its
slowest job, each job's time scaled to reference speed by the probes
around it (see worker.probe) and taken as its median over the passes;
peak resident memory; the median time of a fresh ``import rigidconn``,
scaled the same way; and ok_frac, the share of jobs answered correctly
(1 - fail_frac, which as a metric would read zero).  With --trace 1 the passes alternate
untraced and traced; the metrics are the per-layer figures of tracer.py
plus the tracing overhead, and the traced answers must equal the
untraced ones.  The lines before the last form the run record:
interpreter, CPU count, commit, load average, the probe times, and the
unscaled wall time of every job in every pass.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median

from tracer import PER_LAYER, median_metrics, metrics
from worker import PROBE_REF_S, probe
from workloads import NAMES, WHY, check, make_jobs, worker_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
# Scratch space of a run, inside the checkout and removed when it ends.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("slowest_job_s", "s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("ok_frac", "ratio")]
MIN_PASSES = 3
# Fresh imports timed before each untraced pass, so that set-up time is
# sampled across the whole run.
SETUP_SPAWNS = 3
# Probes taken before and after each of them.
SETUP_PROBES = 3
# Every run ends well inside three minutes, whatever the workload does.
HARD_LIMIT_S = 165.0


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(workdir):
    """Environment of every process the benchmark starts: rigidconn from
    the checkout's source, and HOME and the weight cache inside workdir,
    so nothing touches the user's ~/.cache/rigidconn."""
    home = os.path.join(workdir, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["HOME"] = home
    env["RIGIDCONN_CACHE_DIR"] = os.path.join(workdir, "cache")
    return env


def wait_or_kill(proc, timeout, kill):
    """Wait for proc; after `timeout` seconds call kill() first.  Returns
    the exit code, or None on a timeout.  Unlike Popen.wait(timeout), this
    blocks in waitpid instead of polling, so it adds no latency."""
    fired = threading.Event()

    def expire():
        fired.set()
        try:
            kill()
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout, 1.0), expire)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    return None if fired.is_set() else code


def time_imports(rundir, count):
    """Wall times of `count` fresh interpreters each importing rigidconn,
    each scaled to reference speed by the probes around it, as job times
    are: from one run to the next the machine's speed, and with it the
    raw import time, can change by a third."""
    env = child_env(rundir)
    cmd = [sys.executable, "-c", "import rigidconn"]
    times = []
    for _ in range(count):
        probes = [probe() for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env)
        if wait_or_kill(proc, 60, proc.kill) != 0:
            raise RuntimeError("import rigidconn failed in a fresh process")
        elapsed = time.perf_counter() - start
        probes += [probe() for _ in range(SETUP_PROBES)]
        times.append(elapsed * PROBE_REF_S / (sum(probes) / len(probes)))
    return times


def run_pass(jobs, trace, rundir, index, timeout):
    """One pass in a fresh worker; None if the worker failed or timed out."""
    passdir = os.path.join(rundir, "pass-%d" % index)
    os.makedirs(passdir)
    request = os.path.join(passdir, "request.json")
    result = os.path.join(passdir, "result.json")
    with open(request, "w") as fh:
        json.dump({"jobs": [worker_spec(j) for j in jobs], "trace": trace,
                   "passdir": passdir}, fh)
    with open(os.path.join(passdir, "worker-stderr.txt"), "w+b") as err:
        proc = subprocess.Popen([sys.executable, WORKER, request, result],
                                env=child_env(passdir), stdout=err,
                                stderr=err, start_new_session=True)
        # the worker and any CLI child it started share one session
        code = wait_or_kill(proc, timeout,
                            lambda: os.killpg(proc.pid, signal.SIGKILL))
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    out = None
    if code == 0 and os.path.exists(result):
        with open(result) as fh:
            out = json.load(fh)
    elif code is None:
        print("pass %d: worker timed out" % (index + 1), file=sys.stderr)
    else:
        print("pass %d: worker exited with %s\n%s" % (index + 1, code,
                                                      err_text[-2000:]),
              file=sys.stderr)
    shutil.rmtree(passdir, ignore_errors=True)
    return out


class Tally:
    """Attempted and failed jobs, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.problems = []

    def add_pass(self, jobs, out):
        self.attempted += len(jobs)
        if out is None:
            self.failed += len(jobs)
            self.reasons.append("a whole pass failed")
            return
        if out["extras"]:
            self.problems.append("test extras loaded: %s" % out["extras"])
        for job, res in zip(jobs, out["jobs"]):
            reason = res["error"] or check(job, res["answer"])
            if reason:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append("%s: %s" % (job["id"], reason))


def _loop(jobs, pass_kinds, seconds, min_groups, rundir, started, tally,
          setup_times=None):
    """Run groups of passes, one pass per entry of pass_kinds (traced or
    not), until the next group would end after `seconds`, with at least
    min_groups groups; returns [[result per kind] per group].  With a
    setup_times list, each group starts by timing fresh imports into it."""
    groups = []
    loop_start = time.perf_counter()
    while True:
        g0 = time.perf_counter()
        if setup_times is not None:
            setup_times.extend(time_imports(rundir, SETUP_SPAWNS))
        outs = []
        for trace in pass_kinds:
            left = HARD_LIMIT_S - (time.perf_counter() - started)
            out = run_pass(jobs, trace, rundir,
                           len(groups) * len(pass_kinds) + len(outs), left)
            tally.add_pass(jobs, out)
            outs.append(out)
        groups.append(outs)
        if any(out is None for out in outs):
            break
        now = time.perf_counter()
        last = now - g0
        if now + last - started > HARD_LIMIT_S:
            break
        if len(groups) >= min_groups and now + last - loop_start > seconds:
            break
    return groups


def scaled(res, key):
    """A job's time at reference speed, from the probes around it."""
    return res[key] * PROBE_REF_S / res["probe_s"]


def _scaled_wall(out):
    return sum(scaled(r, "seconds") for r in out["jobs"])


def untraced_metrics(workload, groups, setup_s, tally):
    """Each job's wall and CPU time is scaled to reference speed by the
    probes around it (see worker.probe), then taken as its median over the
    passes; wall_s and cpu_s are the sums of these medians over the job
    list, slowest_job_s their maximum."""
    outs = [g[0] for g in groups if g[0] is not None]
    rss_key = "child_max_rss_kib" if workload == "cli" else "max_rss_kib"
    jobs = zip(*[o["jobs"] for o in outs])
    wall, cpu = zip(*[(median([scaled(r, "seconds") for r in runs]),
                       median([scaled(r, "cpu_s") for r in runs]))
                      for runs in jobs])
    return {
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "slowest_job_s": max(wall),
        "setup_s": setup_s,
        "peak_rss_mib": median([o[rss_key] / 1024.0 for o in outs]),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def _differing_answers(plain, traced):
    """Job ids whose traced answer differs from the untraced one."""
    def canon(res):
        return json.dumps([res["answer"], res["error"]], sort_keys=True)
    return [a["id"] for a, b in zip(plain["jobs"], traced["jobs"])
            if canon(a) != canon(b)]


def traced_metrics(groups, tally):
    pairs = [g for g in groups if g[0] is not None and g[1] is not None]
    if not pairs:
        return None
    for plain, traced in pairs:
        differ = _differing_answers(plain, traced)
        if differ:
            tally.problems.append("traced answers differ from untraced: %s"
                                  % ", ".join(differ[:5]))
    out = median_metrics([metrics(traced["trace"]) for _p, traced in pairs])
    out["trace.overhead_s"] = (median([_scaled_wall(t) for _p, t in pairs])
                               - median([_scaled_wall(p) for p, _t in pairs]))
    # counts stay integers in the report
    for name, unit in PER_LAYER:
        if unit == "count":
            out[name] = int(out[name])
    return out


def print_record(args, jobs, groups, kinds, tally, load, metrics_out, units):
    print("# rigidconn benchmark run record")
    print("workload: %s (%s)" % (args.workload, WHY[args.workload]))
    print("seed: %d  seconds: %d  trace: %d  passes: %d"
          % (args.seed, args.seconds, args.trace,
             sum(len(g) for g in groups)))
    print("python: %s  nproc: %d  git: %s"
          % (sys.version.split()[0], len(os.sched_getaffinity(0)),
             git_sha(ROOT)))
    print("load average (1 min): before %.2f, after %.2f" % load)
    outs = [out for group in groups for out in group if out is not None]
    print("per pass: median probe (ms) %s; unscaled job-time sum (s) %s"
          % (" ".join("%.2f" % (1000 * median([r["probe_s"]
                                                for r in o["jobs"]]))
                      for o in outs),
             " ".join("%.3f" % sum(r["seconds"] for r in o["jobs"])
                      for o in outs)))
    columns = []
    for gi, group in enumerate(groups):
        for kind, out in zip(kinds, group):
            label = "p%d%s" % (gi + 1, "t" if kind else "")
            times = ({} if out is None else
                     {j["id"]: j["seconds"] for j in out["jobs"]})
            columns.append((label, times))
    ids = [j["id"] for j in jobs]
    print("job wall time (s); p<n> is pass n, t marks a traced pass:")
    width = max(len(i) for i in ids)
    print("  %-*s %s" % (width, "job", " ".join("%8s" % c for c, _ in
                                                  columns)))
    for job_id in ids:
        cells = " ".join("%8s" % ("%.3f" % t[job_id] if job_id in t else "-")
                         for _c, t in columns)
        print("  %-*s %s" % (width, job_id, cells))
    print("attempted %d, failed %d, fail_frac %.4f"
          % (tally.attempted, tally.failed,
             tally.failed / max(tally.attempted, 1)))
    for reason in tally.reasons + tally.problems:
        print("  problem: %s" % reason)
    for name, value in metrics_out.items():
        print("%s: %s %s" % (name, value, units[name]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # Every process of the run shares one CPU, so the probes measure the
    # CPU the jobs ran on; on a virtual machine the speeds of its CPUs can
    # differ at any moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "rigidconn", "__init__.py")):
        print("error: no rigidconn source under %s" % SRC, file=sys.stderr)
        return 2
    # the answer checks read rigidconn's Cartan matrices
    sys.path.insert(0, SRC)

    load_before = os.getloadavg()[0]
    os.makedirs(TMP_ROOT, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=TMP_ROOT)
    tally = Tally()
    try:
        jobs = make_jobs(args.workload, args.seed)
        if args.trace:
            kinds = (False, True)
            groups = _loop(jobs, kinds, args.seconds, 1, rundir, started,
                           tally)
            metrics_out = traced_metrics(groups, tally)
            units = dict(PER_LAYER)
        else:
            kinds = (False,)
            # the first import may write bytecode; users pay that once
            time_imports(rundir, 1)
            setup_times = []
            groups = _loop(jobs, kinds, args.seconds, MIN_PASSES, rundir,
                           started, tally, setup_times)
            setup_s = median(setup_times)
            metrics_out = None
            if any(g[0] is not None for g in groups):
                metrics_out = untraced_metrics(args.workload, groups,
                                               setup_s, tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    load = (load_before, os.getloadavg()[0])
    print_record(args, jobs, groups, kinds, tally, load, metrics_out or {},
                 units)
    if metrics_out is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    result = {"correct": tally.failed == 0 and not tally.problems,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": metrics_out[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
