"""Command line front end over the exact connection machinery.

Every run resolves its job to a canonical form first and echoes that
form in the output, so results are reproducible from the printed job
alone.  JSON output is deterministic: keys sorted, rationals as "p/q"
strings, no timestamps.
"""

import argparse
import json
import os
import re
import sys

from .chevalley import KacWindow, build_chevalley, heisenberg_pairing_check
from .connection import (adjoint_connection, g2_seven_dim, scalar_reduction,
                         sl2_sym, sl_standard, so_odd_standard, sp_standard)
from .errors import ConsistencyError, ValidationError
from .formal import check_rigidity
from .galois import cohomology_dims, subregular_table
from .rootsys import build_root_system

SCHEMA = "v1"

_GROUP_HELP = ("sl/so/sp with --rank as matrix size, a..g with --rank as "
               "Lie rank, or one of g2 f4 e6 e7 e8")
_REP_HELP = ("standard, adjoint, sym:k, dim7, spin, fund:i, or "
             "comma-separated fundamental-weight coordinates")


class GroupSpec:
    """A group token resolved to a Lie type, with the matrix-family
    reading kept around for the connection constructors."""

    def __init__(self, family, type_label, rank, size):
        self.family = family
        self.type_label = type_label
        self.rank = rank
        self.size = size

    def label(self):
        return "%s%d" % (self.type_label, self.rank)


def parse_group(token, rank=None):
    text = (token or "").strip().lower()
    m = re.fullmatch(r"(sl|so|sp|[a-g])(\d+)?", text)
    if not m:
        raise ValidationError("cannot parse group %r; expected %s"
                              % (token, _GROUP_HELP))
    family = m.group(1)
    what = "the Lie rank" if len(family) == 1 else "the matrix size"
    size = _int(m.group(2), what) if m.group(2) else rank
    if size is None:
        raise ValidationError("group %r needs --rank (%s)" % (token, what))
    if m.group(2) and rank is not None and rank != size:
        raise ValidationError("group %r conflicts with --rank %d"
                              % (token, rank))
    if family == "sl":
        if size < 2:
            raise ValidationError("sl needs matrix size >= 2")
        return GroupSpec(family, "A", size - 1, size)
    if family == "sp":
        if size < 2 or size % 2:
            raise ValidationError("sp needs even matrix size >= 2")
        half = size // 2
        return GroupSpec(family, "C" if half >= 2 else "A",
                         half if half >= 2 else 1, size)
    if family == "so":
        if size < 3 or size % 2 == 0:
            raise ValidationError("so needs odd matrix size >= 3")
        half = (size - 1) // 2
        return GroupSpec(family, "B" if half >= 2 else "A",
                         half if half >= 2 else 1, size)
    letter, lie = family.upper(), size
    if (letter, lie) in (("C", 1), ("B", 1)):
        letter, lie = "A", 1
    build_root_system(letter, lie)
    return GroupSpec(None, letter, lie, None)


def _int(text, what):
    """int(text); what int() refuses, past 4,300 digits too, is bad input."""
    try:
        return int(text)
    except ValueError:
        raise ValidationError("%s is not an integer of at most %d digits"
                              % (what, sys.get_int_max_str_digits()))


def _read_rep(group, rep, default):
    """The canonical --rep token, stripped and lower-cased with its numbers
    written without leading zeros, and the integers it carries: k of sym:k,
    i of fund:i or the tuple of coordinates, else None.  dim7 and sym:k are
    checked against the group here, the same way for every command."""
    rep = (rep or default).strip().lower()
    if rep == "dim7" and (group.type_label, group.rank) != ("G", 2):
        raise ValidationError("--rep dim7 is the G2 case only")
    if rep.startswith("sym:") and (group.type_label, group.rank) != ("A", 1):
        raise ValidationError("--rep sym:k needs an SL2 group token")
    for prefix, what in (("sym:", "k in --rep sym:k"),
                         ("fund:", "i in --rep fund:i")):
        if rep.startswith(prefix):
            n = _int(rep[len(prefix):], what)
            return prefix + str(n), n
    if re.fullmatch(r"-?\d+(,-?\d+)*", rep):
        coords = tuple(_int(x, "a --rep coordinate") for x in rep.split(","))
        return ",".join(map(str, coords)), coords
    return rep, None


def resolve_connection(group, rep):
    """The canonical --rep token and its MatrixConnection, for matrices."""
    rep, k = _read_rep(group, rep, "standard")
    if rep == "adjoint":
        return rep, adjoint_connection(group.type_label, group.rank)
    if rep == "standard":
        if group.family == "sl":
            return rep, sl_standard(group.size)
        if group.family == "sp":
            return rep, sp_standard(group.size)
        if group.family == "so":
            return rep, so_odd_standard(group.size)
        if group.type_label == "A":
            return rep, sl_standard(group.rank + 1)
        if group.type_label == "C":
            return rep, sp_standard(2 * group.rank)
        if group.type_label == "B":
            return rep, so_odd_standard(2 * group.rank + 1)
        raise ValidationError("no standard matrix model for %s; try "
                              "--rep adjoint%s" % (group.label(),
                                                   " or --rep dim7"
                                                   if group.type_label == "G"
                                                   else ""))
    if rep == "dim7":
        return rep, g2_seven_dim()
    if rep.startswith("sym:"):
        return rep, sl2_sym(k)
    raise ValidationError("representation %r has no matrix model; expected "
                          "standard, adjoint, sym:k or dim7" % rep)


def resolve_weight(group, rep):
    """The canonical --rep token and its fundamental-weight coordinates."""
    rep, value = _read_rep(group, rep, "adjoint")
    rs = build_root_system(group.type_label, group.rank)
    if rep == "adjoint":
        return rep, rs.theta
    if rep == "standard":
        if group.family == "so" and group.size == 3:
            return rep, (2,)
        if group.type_label in ("A", "B", "C", "D"):
            return rep, rs.fundamental_weight(0)
        raise ValidationError("no standard representation for %s"
                              % group.label())
    if rep == "dim7":
        return rep, (1, 0)
    if rep.startswith("sym:"):
        return rep, (value,)
    if rep == "spin":
        if group.type_label != "B":
            raise ValidationError("--rep spin needs a type B group")
        return rep, tuple(0 if i < group.rank - 1 else 1
                          for i in range(group.rank))
    if rep.startswith("fund:"):
        if not 1 <= value <= group.rank:
            raise ValidationError("fundamental weight index %d out of range "
                                  "1..%d" % (value, group.rank))
        return rep, rs.fundamental_weight(value - 1)
    if value is not None:
        if len(value) != group.rank:
            raise ValidationError("expected %d coordinates for %s, got %d"
                                  % (group.rank, group.label(), len(value)))
        return rep, value
    raise ValidationError("cannot parse representation %r; expected %s"
                          % (rep, _REP_HELP))


def _job_dict(args, group=None, **extra):
    job = {"command": args.command, "format": args.format}
    if group is not None:
        job["group"] = group.label()
        if group.family:
            job["matrix_family"] = "%s%d" % (group.family, group.size)
    job.update(extra)
    return job


def _emit(args, payload, lines):
    """Write the payload as JSON, or else the text lines() renders."""
    text = (json.dumps(payload, sort_keys=True, indent=2)
            if args.format == "json" else "\n".join(lines()))
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the null device takes the rest, so the final
        # flush cannot raise again; 141 is the shell's status after SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


def _matrix_lines(conn):
    rendered = [[conn.render_entry(i, j) for j in range(conn.dim)]
                for i in range(conn.dim)]
    widths = [max(len(rendered[i][j]) for i in range(conn.dim))
              for j in range(conn.dim)]
    return ["[%s]" % "  ".join(rendered[i][j].rjust(widths[j])
                               for j in range(conn.dim))
            for i in range(conn.dim)]


def cmd_matrix(args):
    group = parse_group(args.group, args.rank)
    rep, conn = resolve_connection(group, args.rep)
    job = _job_dict(args, group, rep=rep)
    payload = {"schema": SCHEMA, "job": job,
               "connection": conn.to_json_dict()}
    return _emit(args, payload, lambda: [
        "job: %s" % json.dumps(job, sort_keys=True),
        "%s  (dimension %d, h = %s)" % (conn.label, conn.dim, conn.h),
        *_matrix_lines(conn)])


def cmd_scalar(args):
    group = parse_group(args.group, args.rank)
    rep, conn = resolve_connection(group, args.rep)
    op = scalar_reduction(conn)
    job = _job_dict(args, group, rep=rep)
    payload = {"schema": SCHEMA, "job": job, "operator": op.to_json_dict(),
               "rendered": op.render()}
    return _emit(args, payload, lambda: [
        "job: %s" % json.dumps(job, sort_keys=True),
        "%s reduces to:" % conn.label, "  " + payload["rendered"]])


def cmd_cohomology(args):
    group = parse_group(args.group, args.rank)
    rep, highest = resolve_weight(group, args.rep)
    report = cohomology_dims(group.type_label, group.rank, highest)
    job = _job_dict(args, group, rep=rep, highest=list(highest))
    payload = {"schema": SCHEMA, "job": job, "report": report.to_json_dict()}
    return _emit(args, payload, lambda: [
        "job: %s" % json.dumps(job, sort_keys=True),
        "%s, lambda = %s, dim %d" % (group.label(), list(highest), report.dim),
        "epsilon %+d, galois group %s" % (report.epsilon, report.galois_label),
        "irr %d, I0 %d, n-fixed %d, Iinf %d, galois invariants %d"
        % (report.irr, report.inv_I0, report.inv_n, report.inv_Iinf,
           report.inv_galois),
        "h0 %d, h1 %d, h2 %d" % (report.h0, report.h1, report.h2),
        *("  " + step for step in report.trace)])


def cmd_rigidity(args):
    group = parse_group(args.group, args.rank)
    rep, conn = resolve_connection(group, args.rep)
    result = check_rigidity(conn, conn.dual(), args.trunc)
    dims, h1 = result["dimensions"], result["h1"]
    job = _job_dict(args, group, rep=rep, truncation=args.trunc)
    payload = {"schema": SCHEMA, "job": job, "passed": result["passed"],
               "stabilized": result["stabilized"], "dimensions": dims,
               "h1": h1}
    return _emit(args, payload, lambda: [
        "job: %s" % json.dumps(job, sort_keys=True),
        "%s at truncation %d" % (conn.label, args.trunc),
        "kernel dimensions: laurent V %d, laurent V* %d, two-sided %d, "
        "taylor0 %d, taylor-inf %d"
        % (dims["laurent_V"], dims["laurent_V_dual"], dims["two_sided"],
           dims["taylor0"], dims["taylor_inf"]),
        "h1 of the middle extension: %s"
        % ("unavailable (global kernel nonzero)" if h1 is None else h1),
        "rigid: %s%s" % ("yes" if result["passed"] else "no",
                         "" if result["stabilized"]
                         else "  (dimensions not stabilized)")])


def cmd_subregular(args):
    rows = subregular_table()
    payload = {"schema": SCHEMA, "job": {"command": "subregular",
                                         "format": args.format},
               "rows": [r.to_json_dict() for r in rows]}
    return _emit(args, payload, lambda: [
        "group  m  d   orbits  F             galois",
        *("%-5s %2d %3d  %5d   %-13s %s"
          % ("%s%d" % (r.type_label, r.rank), r.m, r.d, r.orbits, r.f_label,
             r.galois) for r in rows)])


def cmd_kac(args):
    group = parse_group(args.group, args.rank)
    alg = build_chevalley(group.type_label, group.rank)
    depth = 2 * alg.rs.coxeter_number if args.depth is None else args.depth
    window = KacWindow(alg, depth)
    a_dims = [len(window.a_slice(n)) for n in range(1, depth + 1)]
    c_dims = [len(window.c_slice(n)) for n in range(1, depth + 1)]
    heisenberg = heisenberg_pairing_check(window)
    job = _job_dict(args, group, depth=depth)
    payload = {"schema": SCHEMA, "job": job, "a_dims": a_dims,
               "c_dims": c_dims, "heisenberg_nondegenerate": heisenberg}
    return _emit(args, payload, lambda: [
        "job: %s" % json.dumps(job, sort_keys=True),
        "%s loop-algebra window, degrees 1..%d" % (group.label(), depth),
        "dim a_n: %s" % " ".join(str(d) for d in a_dims),
        "dim c_n: %s" % " ".join(str(d) for d in c_dims),
        "heisenberg pairing nondegenerate: %s"
        % ("yes" if heisenberg else "no")])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rigidconn",
        description="Exact computations for the rigid irregular connection "
                    "with a principal-nilpotent pole at 0 and slope 1/h "
                    "at infinity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, rep_default):
        sp.add_argument("--group", required=True, help=_GROUP_HELP)
        sp.add_argument("--rank", type=int, help="matrix size for sl/so/sp, "
                                                 "Lie rank for letter types")
        sp.add_argument("--rep", default=rep_default, help=_REP_HELP)
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("matrix", help="print the connection matrix A(t)")
    common(sp, "standard")
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("scalar", help="reduce to a scalar theta-operator")
    common(sp, "standard")
    sp.set_defaults(func=cmd_scalar)

    sp = sub.add_parser("cohomology", help="middle-extension cohomology "
                                           "dimensions by formula")
    common(sp, "adjoint")
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("rigidity", help="formal-solution rigidity criteria")
    common(sp, "standard")
    sp.add_argument("--trunc", type=int, default=60,
                    help="truncation window half-width (default 60)")
    sp.set_defaults(func=cmd_rigidity)

    sp = sub.add_parser("subregular", help="the subregular invariant table")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_subregular)

    sp = sub.add_parser("kac", help="loop-algebra slice dimensions")
    sp.add_argument("--group", required=True, help=_GROUP_HELP)
    sp.add_argument("--rank", type=int)
    sp.add_argument("--depth", type=int,
                    help="window depth (default 2h)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_kac)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
