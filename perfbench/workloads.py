"""The benchmark's workloads: seeded job lists and the check of every answer.

A job is a dict sent to the worker as it is.  The expected answer stays
on this side, in an ``expect`` entry the worker never reads, and check()
compares the worker's answer with it.  Closed forms come from the
mathematics (slope 1/h, Kostant's centralizer, rigidity of the adjoint
connections, the spin threshold, the Sym^k family, the classical scalar
forms, the subregular rows); the dimension of every cohomology job is
also recomputed here by the Weyl dimension formula, a route independent
of rigidconn's Freudenthal tables; CLI output must be byte-identical to
the output recorded in cli_expected.json.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# Why each workload exists, and the layer it is meant to load.
WHY = {
    "slopes": "dense Fraction charpoly, poly_at_matrix and mat_mul in the "
              "slope and Kostant semisimplicity tests; solver, weights and "
              "RatFun stay idle",
    "solver": "the formal solver's level loop, _row_reduce and mat_mul on "
              "parameter blocks, on permuted connections; charpoly and "
              "weights stay idle",
    "cohomology": "Freudenthal weights, the Coxeter-projector scan and root "
                  "systems sharing one in-memory weight cache; no disk cache, "
                  "solver or large charpoly",
    "cli": "a fresh python -m rigidconn per job: start-up, parsing, JSON "
           "output, on-disk weight cache writes and reads, RatFun scalar "
           "reduction",
}


_CLASSICAL_H = {"A": lambda r: r + 1, "B": lambda r: 2 * r,
                "C": lambda r: 2 * r, "D": lambda r: 2 * r - 2}
_EXCEPTIONAL_H = {("G", 2): 6, ("F", 4): 12, ("E", 6): 12, ("E", 7): 18,
                  ("E", 8): 30}


def coxeter_number(type_label, rank):
    if type_label in _CLASSICAL_H:
        return _CLASSICAL_H[type_label](rank)
    return _EXCEPTIONAL_H[(type_label, rank)]


def model_dim_h(model):
    """(dimension, Coxeter number) of a build_connection model."""
    case = model[0]
    if case in ("sl", "sp"):
        return model[1], model[1]
    if case == "so":
        return model[1], model[1] - 1
    if case == "g2_dim7":
        return 7, 6
    if case == "sym":
        return model[1] + 1, 2
    type_label, rank = model[1], model[2]
    return len(positive_roots(type_label, rank)) * 2 + rank, \
        coxeter_number(type_label, rank)


# -- the Weyl dimension formula, from the Cartan matrix alone ---------------

_ROOTS = {}


def _cartan(type_label, rank):
    from rigidconn.rootsys import cartan_matrix
    return cartan_matrix(type_label, rank)


def positive_roots(type_label, rank):
    """Positive roots in simple-root coordinates, by root strings."""
    key = (type_label, rank)
    if key in _ROOTS:
        return _ROOTS[key]
    a = _cartan(type_label, rank)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                pairing = sum(beta[j] * a[i][j] for j in range(rank))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    _ROOTS[key] = sorted(roots)
    return _ROOTS[key]


def _half_lengths(type_label, rank):
    """s_i = (alpha_i, alpha_i)/2, from s_i a_ij = s_j a_ji."""
    a = _cartan(type_label, rank)
    s = [None] * rank
    s[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if a[i][j] and s[j] is None:
                s[j] = s[i] * a[i][j] / a[j][i]
                todo.append(j)
    return s


def weyl_dim(type_label, rank, highest):
    s = _half_lengths(type_label, rank)
    num = den = Fraction(1)
    for c in positive_roots(type_label, rank):
        num *= sum(ci * si * (li + 1) for ci, si, li in zip(c, s, highest))
        den *= sum(ci * si for ci, si in zip(c, s))
    out = num / den
    if out.denominator != 1:
        raise ValueError("Weyl dimension of %s%d %s is not an integer"
                         % (type_label, rank, list(highest)))
    return int(out)


def highest_root(type_label, rank):
    """The highest root in fundamental-weight coordinates."""
    a = _cartan(type_label, rank)
    top = max(positive_roots(type_label, rank), key=sum)
    return tuple(sum(top[j] * a[i][j] for j in range(rank))
                 for i in range(rank))


# -- job lists --------------------------------------------------------------

STANDARD_MODELS = ([("sl", n) for n in range(2, 9)]
                   + [("so", n) for n in (3, 5, 7, 9)]
                   + [("sp", n) for n in (2, 4, 6, 8)] + [("g2_dim7",)])

ADJOINT_SWEEP = ([("A", n) for n in range(1, 9)]
                 + [("B", n) for n in range(2, 9)]
                 + [("C", n) for n in range(2, 9)]
                 + [("D", n) for n in range(4, 9)]
                 + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)])

SPIN_H1 = {2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 2, 9: 5}

# Values rigidconn gave when this benchmark was written, for weights with no
# closed form here.
PINNED = {
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0)): {"h0": 0, "h1": 28, "h2": 0,
                                         "irr": 128},
    ("D", 8, (0, 0, 0, 0, 0, 0, 0, 1)): {"h0": 0, "h1": 0, "h2": 0, "irr": 9},
    ("E", 6, (0, 0, 1, 0, 0, 0)): {"h0": 0, "h1": 4, "h2": 0, "irr": 28},
}

# The seeded draw: types, coordinate range and Weyl-dimension band.
DRAW_TYPES = [("A", 3), ("A", 4), ("A", 5), ("B", 3), ("B", 4), ("C", 3),
              ("C", 4), ("D", 4), ("D", 5), ("G", 2)]
DRAW_BAND = (1000, 4000)
DRAW_COUNT = 8

CLI_JOBS = ([["cohomology", "--group", "e8"],
             ["cohomology", "--group", "e6", "--rep", "adjoint"]] * 2
            + [["scalar", "--group", "sl8"],
               ["scalar", "--group", "so9"],
               ["scalar", "--group", "sl2", "--rep", "sym:12"],
               ["scalar", "--group", "a2", "--rep", "adjoint"],
               ["matrix", "--group", "e6", "--rep", "adjoint"],
               ["kac", "--group", "d4", "--depth", "12"],
               ["subregular"],
               ["rigidity", "--group", "sl2", "--rep", "sym:3",
                "--trunc", "40"]])

CLI_EXPECTED = os.path.join(HERE, "cli_expected.json")


def sym_h1(k):
    """Middle h^1 of Sym^k of the SL2 connection."""
    if k % 2:
        return (k - 1) // 2
    if k % 4 == 2:
        return (k - 2) // 2
    return (k - 4) // 2


def _model_label(model):
    return " ".join(str(x) for x in model)


def _permuted(kind, model, rng, **extra):
    dim, h = model_dim_h(model)
    perm = list(range(dim))
    # any order but the built one, so A(0) leaves its triangular form
    while dim > 1 and perm == sorted(perm):
        rng.shuffle(perm)
    job = {"id": "%s %s" % (kind, _model_label(model)), "kind": kind,
           "model": list(model), "perm": perm}
    job.update(extra)
    job["expect"] = {"h": h}
    return job


# Each job list keeps a pass near five to eight seconds, so that a run has
# at least three passes: the B4, C4 and F4 adjoint slopes and the E7 and E8
# Kostant checks (7 to 38 s each) are left out, as are the costliest solver,
# weight and CLI jobs.


def _slopes(rng):
    jobs = [_permuted("slope", ("adjoint", t, r), rng)
            for t, r in [("G", 2), ("B", 3), ("C", 3), ("A", 4)]]
    jobs += [_permuted("slope", model, rng) for model in STANDARD_MODELS]
    jobs += [{"id": "kostant %s%d" % (t, r), "kind": "kostant", "type": t,
              "rank": r, "expect": {"rank": r}}
             for t, r in [("A", 4), ("E", 6)]]
    return jobs


def _solver(rng):
    jobs = [_permuted("rigidity", model, rng, trunc=trunc)
            for model, trunc in [(("sl", 5), 60), (("adjoint", "A", 1), 60),
                                 (("adjoint", "A", 2), 24)]]
    job = _permuted("h1_solver", ("sym", 5), rng, trunc=30)
    job["expect"]["h1"] = sym_h1(5)
    return jobs + [job]


def _cohomology_job(type_label, rank, highest, label, expect):
    expect = dict(expect, dim=weyl_dim(type_label, rank, highest))
    return {"id": "cohomology %s %s%d %s" % (label, type_label, rank,
                                             "".join(map(str, highest))),
            "kind": "cohomology", "type": type_label, "rank": rank,
            "highest": list(highest), "expect": expect}


def _cohomology(rng):
    jobs = [_cohomology_job(t, r, highest_root(t, r), "adjoint",
                            {"h0": 0, "h1": 0, "h2": 0, "irr": r,
                             "inv_I0": r})
            for t, r in ADJOINT_SWEEP]
    jobs += [_cohomology_job("B", n, (0,) * (n - 1) + (1,), "spin",
                             {"h1": h1})
             for n, h1 in SPIN_H1.items()]
    jobs += [_cohomology_job(t, r, hw, "pinned", expect)
             for (t, r, hw), expect in PINNED.items()]
    seen = {(j["type"], j["rank"], tuple(j["highest"])) for j in jobs}
    drawn = 0
    while drawn < DRAW_COUNT:
        t, r = DRAW_TYPES[rng.randrange(len(DRAW_TYPES))]
        hw = tuple(rng.randint(0, 3) for _ in range(r))
        if (t, r, hw) in seen:
            continue
        if not DRAW_BAND[0] <= weyl_dim(t, r, hw) <= DRAW_BAND[1]:
            continue
        seen.add((t, r, hw))
        jobs.append(_cohomology_job(t, r, hw, "drawn", {}))
        drawn += 1
    return jobs


def _cli(rng):
    with open(CLI_EXPECTED) as fh:
        recorded = json.load(fh)
    jobs = []
    for argv in CLI_JOBS:
        key = " ".join(argv)
        jobs.append({"id": "cli " + key, "kind": "cli",
                     "argv": argv + ["--format", "json"],
                     "expect": {"sha256": recorded[key]}})
    return jobs


_BUILDERS = {"slopes": _slopes, "solver": _solver,
             "cohomology": _cohomology, "cli": _cli}
NAMES = tuple(_BUILDERS)


def make_jobs(workload, seed):
    """The job list of every pass of a run; the seed fixes inputs and order."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    if workload == "cli":
        seen = set()
        for job in jobs:
            # the first run of a cohomology job fills the cache, the second
            # reads it back
            if job["argv"][0] == "cohomology":
                job["id"] += " (warm)" if job["id"] in seen else " (cold)"
                seen.add(job["id"].rsplit(" (", 1)[0])
    return jobs


def worker_spec(job):
    return {k: v for k, v in job.items() if k != "expect"}


# -- answer checks ----------------------------------------------------------

def _check_fields(got, expect, keys):
    for key in keys:
        if key in expect and got.get(key) != expect[key]:
            return "%s = %r, expected %r" % (key, got.get(key), expect[key])
    return None


def _check_cohomology(rep, expect):
    if rep["dim"] != expect["dim"]:
        return "dim %d, Weyl dimension formula gives %d" % (rep["dim"],
                                                            expect["dim"])
    if not rep["h0"] == rep["h2"] == rep["inv_galois"]:
        return "h0, h2 and galois invariants differ: %r" % rep
    if rep["h1"] != (rep["irr"] - rep["inv_I0"] - rep["inv_Iinf"]
                     + 2 * rep["inv_galois"]):
        return "h1 does not match its local invariants: %r" % rep
    return _check_fields(rep, expect, ("h0", "h1", "h2", "irr", "inv_I0"))


# D4 has h = 6 and exponents 1, 3, 3, 5: dim a_n counts exponents = n mod h.
KAC_D4_A_DIMS = [1, 0, 2, 0, 1, 0, 1, 0, 2, 0, 1, 0]

SUBREGULAR_ROWS = [["G2", 3, 3, 4], ["F4", 4, 8, 6], ["E6", 3, 9, 8],
                   ["E7", 4, 14, 9], ["E8", 6, 24, 10]]


def _check_cli_payload(argv, out):
    command = argv[0]
    if command == "cohomology":
        rep = out["report"]
        return _check_fields(rep, {"h0": 0, "h1": 0, "h2": 0,
                                   "irr": rep["rank"]},
                             ("h0", "h1", "h2", "irr"))
    if command == "scalar":
        forms = {"sl8": "theta^8 - t", "so9": "theta^9 - 2*t*theta - t"}
        group = argv[argv.index("--group") + 1]
        if group in forms and out["rendered"] != forms[group]:
            return "scalar form %r, expected %r" % (out["rendered"],
                                                    forms[group])
        orders = {"sl8": 8, "so9": 9, "sl2": 13, "a2": 8}
        if out["operator"]["order"] != orders[group]:
            return "operator order %r" % out["operator"]["order"]
        return None
    if command == "matrix":
        return _check_fields(out["connection"], {"dimension": 78},
                             ("dimension",))
    if command == "kac":
        expect = {"a_dims": KAC_D4_A_DIMS, "c_dims": [4] * 12,
                  "heisenberg_nondegenerate": True}
        return _check_fields(out, expect, tuple(expect))
    if command == "subregular":
        rows = [[r["group"], r["m"], r["d"], r["orbits"]]
                for r in out["rows"]]
        if rows != SUBREGULAR_ROWS:
            return "subregular rows %r" % rows
        return None
    if command == "rigidity":
        # Sym^3 has h1 = 1, so the rigidity criterion must fail
        return _check_fields(out, {"passed": False, "stabilized": True,
                                   "h1": sym_h1(3)},
                             ("passed", "stabilized", "h1"))
    return "unknown command %r" % command


def check(job, answer):
    """None when the answer is right, else a one-line reason."""
    expect = job["expect"]
    kind = job["kind"]
    if kind == "slope":
        want = {"slope": str(Fraction(1, expect["h"])), "pole_order": 2}
        return _check_fields(answer, want, tuple(want))
    if kind == "kostant":
        want = {"kernel_dim": expect["rank"], "minpoly_squarefree": True}
        return _check_fields(answer, want, tuple(want))
    if kind == "rigidity":
        dims = answer["dimensions"]
        if not (answer["passed"] and answer["stabilized"]):
            return "not rigid or not stabilized: %r" % answer
        if dims["laurent_V"] or dims["laurent_V_dual"]:
            return "nonzero global kernel: %r" % dims
        if dims["two_sided"] != dims["taylor0"] + dims["taylor_inf"]:
            return "two-sided kernel does not split, h1 != 0: %r" % dims
        return None
    if kind == "h1_solver":
        return _check_fields(answer, expect, ("h1",))
    if kind == "cohomology":
        return _check_cohomology(answer, expect)
    if kind == "cli":
        if answer["rc"] != 0:
            return "exit code %d: %s" % (answer["rc"], answer["stderr"])
        digest = hashlib.sha256(answer["stdout"].encode()).hexdigest()
        if digest != expect["sha256"]:
            return "stdout differs from the recorded output"
        return _check_cli_payload(job["argv"], json.loads(answer["stdout"]))
    return "unknown job kind %r" % kind
