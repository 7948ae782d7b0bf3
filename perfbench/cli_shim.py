"""``python -m rigidconn`` with the benchmark's tracer installed.

Usage: python cli_shim.py TRACE_OUT ARGS...

Runs rigidconn's command line on ARGS as ``python -m rigidconn ARGS``
does, then writes the trace aggregate, with the time ``import rigidconn``
took, to TRACE_OUT.
"""

import json
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import rigidconn.cli
    import_s = time.perf_counter() - start
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    code = rigidconn.cli.main(argv)
    sys.stdout.flush()
    agg = tracer.aggregate()
    agg["counters"]["cli.import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(agg, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
