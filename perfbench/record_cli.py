"""Record the stdout digests that the cli workload must reproduce.

Usage (from the root of a checkout): python3 perfbench/record_cli.py

Runs the cli workload's jobs in list order with one weight cache, so each
cohomology job runs once cold and once warm, requires those two outputs to
agree, and writes the SHA-256 of every job's stdout to cli_expected.json.
Run it only at a commit whose output is the reference: ROADMAP aim 2
defines "same results" as byte-identical --format json output.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import TMP_ROOT, child_env
from workloads import CLI_EXPECTED, CLI_JOBS


def main():
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=TMP_ROOT)
    try:
        env = child_env(workdir)
        digests = {}
        for argv in CLI_JOBS:
            key = " ".join(argv)
            out = subprocess.run([sys.executable, "-m", "rigidconn"] + argv
                                 + ["--format", "json"], env=env, check=True,
                                 capture_output=True, timeout=120).stdout
            digest = hashlib.sha256(out).hexdigest()
            if digests.setdefault(key, digest) != digest:
                raise SystemExit("cold and warm output differ for %s" % key)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    with open(CLI_EXPECTED, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
