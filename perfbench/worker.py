"""Run one pass of benchmark jobs in a fresh process.

Usage: python worker.py REQUEST RESULT

REQUEST is a JSON file {"jobs": [...], "trace": bool, "passdir": path};
RESULT receives each job's answer, wall time, CPU time (its own, or its
child's) and mean probe time (see probe()), and the pass's peak resident
memory.  In-process jobs call rigidconn's public
functions; a "cli" job runs ``python -m rigidconn`` as a child process,
one at a time.  With tracing on, the tracer wraps rigidconn here, or
inside each CLI child through cli_shim.py.
"""

import gc
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# Connection constructors by build_connection case name.
_CONSTRUCTORS = {"sl": "sl_standard", "so": "so_odd_standard",
                 "sp": "sp_standard", "g2_dim7": "g2_seven_dim",
                 "adjoint": "adjoint_connection", "sym": "sl2_sym"}

# Test-only extras that the benchmark must never load.
_EXTRAS = ("numpy", "sympy", "pytest", "pytest_benchmark", "hypothesis")


# The probe's time on a reference machine, and how often it runs during an
# in-process job; see probe().
PROBE_REF_S = 0.0016
PROBE_EVERY_S = 0.1


def probe():
    """Seconds a fixed piece of Fraction arithmetic takes right now.

    On a shared machine the speed of a CPU can change by a factor of 1.5
    or more within seconds, as other tenants come and go.  The probe runs
    before and after every job and, in-process, every PROBE_EVERY_S during
    it; run.py scales the job's time by PROBE_REF_S over the mean probe
    time, which reports every job at the speed of a machine on which the
    probe takes PROBE_REF_S.  The garbage collector is paused so that it
    cannot charge the job's garbage to the probe."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i % 97 + 1) * Fraction(i, 7)
        return time.perf_counter() - start
    finally:
        gc.enable()


def timed_job(rigidconn, job, cli, periodic):
    """Run one job; its wall and CPU time exclude the probes run during it."""
    samples = [probe()]
    if periodic:
        signal.signal(signal.SIGALRM, lambda _sig, _frame:
                      samples.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    c0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        answer, error = run_job(rigidconn, job, cli), None
    except Exception as exc:  # a failed job is counted, not fatal
        answer, error = None, "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    c1 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    if periodic:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    inside = sum(samples[1:])
    samples.append(probe())
    return {"id": job["id"], "seconds": t1 - t0 - inside,
            "cpu_s": c1 - c0 - inside, "probe_s": sum(samples) / len(samples),
            "answer": answer, "error": error}


def _cpu_s(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def build_model(rigidconn, model, perm):
    """The connection of a model in a permuted basis: new basis vector i
    is old basis vector perm[i], rho weights moved along."""
    conn = getattr(rigidconn, _CONSTRUCTORS[model[0]])(*model[1:])
    n = conn.dim
    coeffs = {k: [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
              for k, m in conn.coeffs.items()}
    weights = [conn.rho_weights[perm[i]] for i in range(n)]
    return rigidconn.MatrixConnection(coeffs, conn.label, h=conn.h,
                                      rho_weights=weights, group=conn.group)


class CliRunner:
    """Runs CLI jobs as children and keeps the largest child's peak RSS."""

    def __init__(self, passdir, trace):
        self.passdir = passdir
        self.trace = trace
        self.max_rss_kib = 0
        self.stdout_bytes = 0
        self.trace_files = []

    def run(self, argv):
        if self.trace:
            out_path = os.path.join(self.passdir,
                                    "trace-%d.json" % len(self.trace_files))
            self.trace_files.append(out_path)
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"),
                   out_path] + argv
        else:
            cmd = [sys.executable, "-m", "rigidconn"] + argv
        with open(os.path.join(self.passdir, "stderr.txt"), "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode(errors="replace")
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        self.stdout_bytes += len(out)
        return {"rc": proc.returncode, "stdout": out.decode(),
                "stderr": err_text[-400:]}


def run_job(rigidconn, job, cli):
    kind = job["kind"]
    if kind == "cli":
        return cli.run(job["argv"])
    if kind == "kostant":
        alg = rigidconn.build_chevalley(job["type"], job["rank"])
        return rigidconn.kostant_check(alg)
    if kind == "cohomology":
        return rigidconn.cohomology_dims(job["type"], job["rank"],
                                         job["highest"]).to_json_dict()
    conn = build_model(rigidconn, job["model"], job["perm"])
    if kind == "slope":
        got = rigidconn.slope_at_infinity(conn, details=True)
        return {"slope": str(got["slope"]), "pole_order": got["pole_order"]}
    if kind == "rigidity":
        got = rigidconn.check_rigidity(conn, conn.dual(), job["trunc"])
        return {k: got[k] for k in ("passed", "stabilized", "dimensions")}
    if kind == "h1_solver":
        return {"h1": rigidconn.h1_middle_via_solver(conn, conn.dual(),
                                                     job["trunc"])}
    raise ValueError("unknown job kind %r" % kind)


def main(request_path, result_path):
    with open(request_path) as fh:
        request = json.load(fh)
    import rigidconn
    tracer = None
    if request["trace"]:
        from tracer import Tracer, merge
        tracer = Tracer()
        if not any(job["kind"] == "cli" for job in request["jobs"]):
            tracer.install()
    cli = CliRunner(request["passdir"], request["trace"])
    results = []
    for job in request["jobs"]:
        # a probe during a CLI job would compete with the child for its CPU,
        # and one during a traced job would count as traced time
        periodic = job["kind"] != "cli" and tracer is None
        results.append(timed_job(rigidconn, job, cli, periodic))
    out = {"jobs": results,
           "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "child_max_rss_kib": cli.max_rss_kib,
           "extras": [m for m in _EXTRAS if m in sys.modules]}
    if tracer is not None:
        parts = [tracer.aggregate()]
        for path in cli.trace_files:
            if os.path.exists(path):
                with open(path) as fh:
                    parts.append(json.load(fh))
        agg = merge(parts)
        agg["counters"]["cli.stdout_bytes"] = cli.stdout_bytes
        out["trace"] = agg
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
