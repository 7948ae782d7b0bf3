"""Span tracing of rigidconn's layers, installed from outside the package.

install() swaps each traced function for a wrapper in every rigidconn
module namespace that binds it: the package imports across modules with
``from .linalg import ...``, so patching only the defining module would
miss most calls.  Each call records a span (name, calling module, start,
end, parent) in memory.  After the jobs finish, aggregate() turns the
spans into mergeable totals and metrics() into the per-layer figures
named in PER_LAYER.

A layer's self time is its span's duration minus the time covered by its
child spans; total time counts only the outermost span of a name, so a
function reached again below itself is not counted twice.
"""

import importlib
import os
import statistics
import sys
import time

# Calls into these modules are attributed to the nearest module above them,
# so that a kernel reached through rank() or poly_at_matrix() is charged to
# the layer that asked for it.
_PASS_THROUGH = ("rigidconn.linalg", __name__)


def _mat_mul_work(tracer, origin, args, result):
    a, b = args[0], args[1]
    width = len(b[0]) if b else 0
    tracer.count("linalg.mat_mul.mults", len(a) * len(b) * width)
    if origin == "formal":
        tracer.count_max("formal.param_width_max", width)


def _charpoly_work(tracer, origin, args, result):
    tracer.count_max("linalg.charpoly.max_n", len(args[0]))


def _poly_at_matrix_work(tracer, origin, args, result):
    n = len(args[1])
    tracer.count("linalg.poly_at_matrix.mults", len(args[0]) * n ** 3)


def _row_reduce_work(tracer, origin, args, result):
    m = args[0]
    tracer.count("linalg._row_reduce.cells", len(m) * (len(m[0]) if m else 0))


def _weight_system_work(tracer, origin, args, result):
    if id(result) in tracer.seen:
        tracer.count("weights.weight_system.reused", 1)
        return
    tracer.seen[id(result)] = result
    tracer.count("weights.weight_system.weights", len(result.weights))
    tracer.count("weights.weight_system.dominant",
                 sum(1 for mu in result.weights if min(mu) >= 0))


def _save_work(tracer, origin, args, result):
    tracer.count("weights.save_weight_system.bytes", os.path.getsize(args[1]))


# (module, attribute, work counter); "RatFun.<method>" names a method.
TRACED = [
    ("linalg", "charpoly", _charpoly_work),
    ("linalg", "poly_at_matrix", _poly_at_matrix_work),
    ("linalg", "is_semisimple", None),
    ("linalg", "is_nilpotent", None),
    ("linalg", "_row_reduce", _row_reduce_work),
    ("linalg", "nullspace", None),
    ("linalg", "mat_mul", _mat_mul_work),
    ("linalg", "mat_vec", None),
    ("poly", "pgcd", None),
    ("poly", "pmul", None),
    ("poly", "RatFun.__init__", None),
    ("poly", "RatFun.__add__", None),
    ("poly", "RatFun.__sub__", None),
    ("poly", "RatFun.__rsub__", None),
    ("poly", "RatFun.__neg__", None),
    ("poly", "RatFun.__mul__", None),
    ("poly", "RatFun.__truediv__", None),
    ("poly", "RatFun.__rtruediv__", None),
    ("poly", "RatFun.theta", None),
    ("rootsys", "build_root_system", None),
    ("rootsys", "coxeter_primitive_projector", None),
    ("chevalley", "build_chevalley", None),
    ("chevalley", "kostant_check", None),
    ("chevalley", "heisenberg_pairing_check", None),
    ("weights", "weight_system", _weight_system_work),
    ("weights", "save_weight_system", _save_work),
    ("weights", "load_weight_system", None),
    ("galois", "cohomology_dims", None),
    ("galois", "fold_branching", None),
    ("galois", "peel_components", None),
    ("connection", "slope_at_infinity", None),
    ("connection", "scalar_reduction", None),
    ("connection", "adjoint_connection", None),
    ("formal", "kernel_dimension", None),
    ("formal", "check_rigidity", None),
    ("cli", "main", None),
]

# Calling modules reported separately for the hot linalg kernels.
CALLER_SPLITS = {
    "linalg._row_reduce": ("formal", "chevalley", "rootsys"),
    "linalg.mat_mul": ("formal", "connection", "chevalley", "rootsys"),
    "linalg.mat_vec": ("galois", "rootsys"),
}

# Counters that keep a maximum when aggregates merge; all others add up.
MAX_COUNTERS = ("linalg.charpoly.max_n", "formal.param_width_max")


def _metric_names():
    names = [
        ("linalg.charpoly.calls", "count"), ("linalg.charpoly.self_s", "s"),
        ("linalg.charpoly.max_n", "count"),
        ("linalg.poly_at_matrix.calls", "count"),
        ("linalg.poly_at_matrix.self_s", "s"),
        ("linalg.poly_at_matrix.mults", "count"),
        ("linalg.is_semisimple.total_s", "s"),
        ("linalg.is_nilpotent.total_s", "s"),
        ("linalg._row_reduce.calls", "count"),
        ("linalg._row_reduce.self_s", "s"),
        ("linalg._row_reduce.cells", "count"),
        ("linalg.nullspace.calls", "count"),
        ("linalg.mat_mul.calls", "count"), ("linalg.mat_mul.self_s", "s"),
        ("linalg.mat_mul.mults", "count"),
        ("linalg.mat_vec.calls", "count"), ("linalg.mat_vec.self_s", "s"),
    ]
    for name, callers in CALLER_SPLITS.items():
        for caller in callers:
            names.append(("%s.calls.%s" % (name, caller), "count"))
            names.append(("%s.self_s.%s" % (name, caller), "s"))
    names += [
        ("poly.RatFun.new", "count"), ("poly.RatFun.self_s", "s"),
        ("poly.pgcd.calls", "count"), ("poly.pgcd.self_s", "s"),
        ("poly.pmul.calls", "count"),
        ("rootsys.build_root_system.calls", "count"),
        ("rootsys.build_root_system.total_s", "s"),
        ("rootsys.coxeter_primitive_projector.calls", "count"),
        ("rootsys.coxeter_primitive_projector.total_s", "s"),
        ("chevalley.build_chevalley.calls", "count"),
        ("chevalley.build_chevalley.total_s", "s"),
        ("chevalley.kostant_check.calls", "count"),
        ("chevalley.kostant_check.self_s", "s"),
        ("chevalley.kostant_check.total_s", "s"),
        ("chevalley.heisenberg_pairing_check.total_s", "s"),
        ("weights.weight_system.calls", "count"),
        ("weights.weight_system.self_s", "s"),
        ("weights.weight_system.weights", "count"),
        ("weights.weight_system.dominant", "count"),
        ("weights.weight_system.reused", "count"),
        ("weights.save_weight_system.calls", "count"),
        ("weights.save_weight_system.self_s", "s"),
        ("weights.save_weight_system.bytes", "count"),
        ("weights.load_weight_system.calls", "count"),
        ("weights.load_weight_system.self_s", "s"),
        ("galois.cohomology_dims.calls", "count"),
        ("galois.cohomology_dims.self_s", "s"),
        ("galois.cohomology_dims.total_s", "s"),
        ("galois.fold_branching.self_s", "s"),
        ("galois.peel_components.self_s", "s"),
        ("connection.slope_at_infinity.calls", "count"),
        ("connection.slope_at_infinity.self_s", "s"),
        ("connection.slope_at_infinity.total_s", "s"),
        ("connection.scalar_reduction.calls", "count"),
        ("connection.scalar_reduction.self_s", "s"),
        ("connection.scalar_reduction.total_s", "s"),
        ("connection.adjoint_connection.total_s", "s"),
        ("formal.kernel_dimension.calls", "count"),
        ("formal.kernel_dimension.self_s", "s"),
        ("formal.kernel_dimension.total_s", "s"),
        ("formal.check_rigidity.total_s", "s"),
        ("formal.param_width_max", "count"),
        ("cli.import_s", "s"), ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
        ("cli.stdout_bytes", "count"),
        ("trace.overhead_s", "s"),
    ]
    return names


# Every per-layer metric, in report order, with its unit.
PER_LAYER = _metric_names()


class Tracer:
    """Spans and work counters of one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self.counters = {}
        # weight systems returned so far, kept alive so that ids stay unique
        self.seen = {}

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def count_max(self, key, n):
        self.counters[key] = max(self.counters.get(key, 0), n)

    def wrap(self, name, fn, work):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_globals.get("__name__") in _PASS_THROUGH:
                frame = frame.f_back
            origin = frame.f_globals.get("__name__", "").rpartition(".")[2]
            depth = active.get(name, 0)
            active[name] = depth + 1
            # [name, origin, start, end, parent index, outermost of name]
            span = [name, origin, clock(), 0.0,
                    stack[-1] if stack else -1, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                active[name] = depth
            if work is not None:
                work(self, origin, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function wherever rigidconn binds it."""
        for mod_name, _attr, _work in TRACED:
            importlib.import_module("rigidconn." + mod_name)
        modules = [m for key, m in sys.modules.items()
                   if key == "rigidconn" or key.startswith("rigidconn.")]
        for mod_name, attr, work in TRACED:
            mod = sys.modules["rigidconn." + mod_name]
            if attr.startswith("RatFun."):
                method = attr.partition(".")[2]
                cls = mod.RatFun
                setattr(cls, method, self.wrap("%s.%s" % (mod_name, attr),
                                               cls.__dict__[method], work))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap("%s.%s" % (mod_name, attr), orig, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def aggregate(self):
        """Mergeable totals: {name: [calls, self_s, total_s]}, the same
        per (name, origin), and the work counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        by_name = {}
        by_origin = {}
        for i, (name, origin, start, end, _parent, outer) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            if outer:
                row[2] += dur
            if name in CALLER_SPLITS:
                key = "%s|%s" % (name, origin)
                row = by_origin.setdefault(key, [0, 0.0])
                row[0] += 1
                row[1] += own
        return {"by_name": by_name, "by_origin": by_origin,
                "counters": dict(self.counters)}


def merge(aggregates):
    """Sum aggregates from several processes (the traced CLI jobs)."""
    out = {"by_name": {}, "by_origin": {}, "counters": {}}
    for agg in aggregates:
        for part in ("by_name", "by_origin"):
            for key, row in agg[part].items():
                acc = out[part].setdefault(key, [0] * len(row))
                for i, x in enumerate(row):
                    acc[i] += x
        for key, value in agg["counters"].items():
            old = out["counters"].get(key, 0)
            out["counters"][key] = (max(old, value) if key in MAX_COUNTERS
                                    else old + value)
    return out


def metrics(agg):
    """The PER_LAYER figures of one aggregate, all present, zero if idle."""
    by_name, by_origin, counters = (agg["by_name"], agg["by_origin"],
                                    agg["counters"])

    def row(name):
        return by_name.get(name, [0, 0.0, 0.0])

    out = {}
    for metric, _unit in PER_LAYER:
        if metric in counters:
            out[metric] = counters[metric]
            continue
        base, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            out[metric] = row(base)[0]
        elif quantity == "self_s":
            out[metric] = row(base)[1]
        elif quantity == "total_s":
            out[metric] = row(base)[2]
    out["poly.RatFun.new"] = row("poly.RatFun.__init__")[0]
    out["poly.RatFun.self_s"] = sum((r[1] for n, r in by_name.items()
                                     if n.startswith("poly.RatFun.")), 0.0)
    for name, callers in CALLER_SPLITS.items():
        for caller in callers:
            got = by_origin.get("%s|%s" % (name, caller), [0, 0.0])
            out["%s.calls.%s" % (name, caller)] = got[0]
            out["%s.self_s.%s" % (name, caller)] = got[1]
    for metric, unit in PER_LAYER:
        out.setdefault(metric, 0.0 if unit == "s" else 0)
    return out


def median_metrics(runs):
    """Per-metric median over several traced passes."""
    return {metric: statistics.median(run[metric] for run in runs)
            for metric, _unit in PER_LAYER}
