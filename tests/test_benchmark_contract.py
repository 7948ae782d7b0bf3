"""The benchmark under perfbench/ wraps rigidconn functions by name."""

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
