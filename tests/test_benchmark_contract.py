"""The benchmark under perfbench/ wraps rigidconn functions by name."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_installs():
    """Tracer.install() finds every name in tracer.TRACED: a deleted or
    renamed function raises AttributeError or KeyError there, which
    would otherwise show only when the benchmark runs."""
    path = os.pathsep.join([os.path.join(ROOT, "perfbench"),
                            os.path.join(ROOT, "src")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_jobs_answer_correctly(tmp_path, monkeypatch):
    """One pass of the slopes, solver and cohomology job lists (seed 1)
    through perfbench/worker.py, every answer checked by
    workloads.check: the benchmark's own correctness gate, run on the
    functions and answer keys the worker uses."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    jobs = [job for name in ("slopes", "solver", "cohomology")
            for job in workloads.make_jobs(name, 1)]
    request, result = tmp_path / "request.json", tmp_path / "result.json"
    request.write_text(json.dumps({
        "jobs": [workloads.worker_spec(job) for job in jobs],
        "trace": False, "passdir": str(tmp_path)}))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         str(request), str(result)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    answers = json.loads(result.read_text())["jobs"]
    assert [a["id"] for a in answers] == [job["id"] for job in jobs]
    wrong = {a["id"]: a["error"] or workloads.check(job, a["answer"])
             for job, a in zip(jobs, answers)}
    assert not {k: v for k, v in wrong.items() if v}


def test_cli_jobs_print_the_recorded_output(tmp_path, monkeypatch):
    """Every job of workloads.CLI_JOBS, run as the cli workload runs it
    (python -m rigidconn ... --format json, HOME in a fresh directory),
    passes workloads.check: its stdout has the sha256 recorded in
    perfbench/cli_expected.json, so any byte change in the output the
    benchmark gates on shows here.  No job writes a file under HOME."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               HOME=str(tmp_path))
    wrong = {}
    for job in workloads.make_jobs("cli", 1):
        proc = subprocess.run([sys.executable, "-m", "rigidconn"]
                              + job["argv"], env=env, capture_output=True,
                              text=True, timeout=300)
        wrong[job["id"]] = workloads.check(job, {
            "rc": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr[-400:]})
    assert len(wrong) == len(workloads.CLI_JOBS)
    assert not {k: v for k, v in wrong.items() if v}
    assert os.listdir(tmp_path) == []
