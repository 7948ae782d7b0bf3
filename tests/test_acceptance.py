"""Acceptance gate: one test per headline claim, with time budgets.

Each test checks a complete end-to-end statement about the connection
family (exact scalar forms, slopes, rigidity by formula and by solver,
the loop-algebra decomposition, the subregular table) and asserts that
it finishes inside the intended wall-clock budget.
"""

import random
import time
from fractions import Fraction

from conftest import jacobi_scan, ref_zero_weight_irr
from rigidconn.chevalley import (KacWindow, build_chevalley,
                                 heisenberg_pairing_check, kostant_check)
from rigidconn.connection import (adjoint_connection, g2_seven_dim,
                                  scalar_reduction, sl2_sym, sl_standard,
                                  slope_at_infinity, so_odd_standard,
                                  sp_standard)
from rigidconn.formal import (apply_connection, check_rigidity,
                              h1_middle_via_solver, residue_pair,
                              sl2_double_cover_h1, SeriesWindow)
from rigidconn.galois import (cohomology_dims, fold_branching,
                              folding_matrix, peel_components,
                              subregular_table)
from rigidconn.linalg import mat_vec, rank
from rigidconn.rootsys import SUPPORTED, build_root_system
from rigidconn.weights import (principal_sl2_decomposition, weight_system,
                               weyl_dim)

RANK_LE_4 = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4),
             ("G", 2)]

ADJOINT_SWEEP = ([("A", n) for n in range(1, 9)]
                 + [("B", n) for n in range(2, 9)]
                 + [("C", n) for n in range(2, 9)]
                 + [("D", n) for n in range(4, 9)]
                 + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)])


def standard_cases():
    """The explicit matrix models, paired with their weight data."""
    cases = [(sl_standard(n), ("A", n - 1, (1,) + (0,) * (n - 2)))
             for n in range(2, 9)]
    cases.append((so_odd_standard(3), ("A", 1, (2,))))
    for m in (2, 3, 4):
        n = 2 * m + 1
        cases.append((so_odd_standard(n), ("B", m, (1,) + (0,) * (m - 1))))
    cases.append((sp_standard(2), ("A", 1, (1,))))
    for m in (2, 3, 4):
        cases.append((sp_standard(2 * m), ("C", m, (1,) + (0,) * (m - 1))))
    cases.append((g2_seven_dim(), ("G", 2, (1, 0))))
    return cases


def sym_h1(n):
    if n % 2:
        return (n - 1) // 2
    if n % 4 == 2:
        return (n - 2) // 2
    return (n - 4) // 2


def test_criterion_01_scalar_operators():
    start = time.monotonic()
    for n in range(2, 9):
        op = scalar_reduction(sl_standard(n))
        assert op.render() == "theta^%d %s t" % (n, "+" if n % 2 else "-")
    for m in range(1, 5):
        n = 2 * m + 1
        op = scalar_reduction(so_odd_standard(n))
        assert op.render() == "theta^%d - 2*t*theta - t" % n
    for m in range(1, 5):
        sp = sp_standard(2 * m)
        sl = sl_standard(2 * m)
        assert sp.coeffs == sl.coeffs
        assert (scalar_reduction(sp).to_json_dict()
                == scalar_reduction(sl).to_json_dict())
    g2 = g2_seven_dim()
    so7 = so_odd_standard(7)
    assert g2.coeffs == so7.coeffs
    assert (scalar_reduction(g2).to_json_dict()
            == scalar_reduction(so7).to_json_dict())
    assert time.monotonic() - start < 10


def test_criterion_02_slopes():
    start = time.monotonic()
    conns = [conn for conn, _ in standard_cases()]
    conns.extend(adjoint_connection(t, r) for t, r in RANK_LE_4)
    for conn in conns:
        details = slope_at_infinity(conn, details=True)
        assert details["slope"] == Fraction(1, conn.h)
        assert details["pole_order"] == 2
        assert details["leading"], conn.label
    assert time.monotonic() - start < 30


def test_criterion_03_adjoint_rigidity_by_formula():
    start = time.monotonic()
    for type_label, n in ADJOINT_SWEEP:
        rs = build_root_system(type_label, n)
        rep = cohomology_dims(type_label, n, rs.theta)
        assert rep.irr == n
        assert rep.inv_I0 == n
        assert rep.inv_Iinf == 0
        assert rep.inv_galois == 0
        assert (rep.h0, rep.h1, rep.h2) == (0, 0, 0)
    assert time.monotonic() - start < 300


def test_criterion_04_adjoint_rigidity_by_solver():
    start = time.monotonic()
    for type_label, n in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        conn = adjoint_connection(type_label, n)
        result = check_rigidity(conn, conn.dual(), 60)
        assert result["passed"], conn.label
        assert result["stabilized"]
        dims = result["dimensions"]
        assert dims["laurent_V"] == 0
        assert dims["laurent_V_dual"] == 0
        assert dims["two_sided"] == dims["taylor0"] + dims["taylor_inf"]
        for window in result["reports"]["two_sided"].basis:
            assert window.n_min >= 0
    assert time.monotonic() - start < 120


def test_criterion_05_small_representations():
    start = time.monotonic()
    small = [(sl_standard(n), ("A", n - 1, (1,) + (0,) * (n - 2)))
             for n in range(2, 7)]
    small.append((sp_standard(2), ("A", 1, (1,))))
    small.extend((sp_standard(2 * m), ("C", m, (1,) + (0,) * (m - 1)))
                 for m in (2, 3))
    small.append((so_odd_standard(3), ("A", 1, (2,))))
    small.extend((so_odd_standard(2 * m + 1),
                  ("B", m, (1,) + (0,) * (m - 1))) for m in (2, 3))
    small.append((g2_seven_dim(), ("G", 2, (1, 0))))
    for conn, key in small:
        rep = cohomology_dims(*key)
        assert (rep.h0, rep.h1, rep.h2) == (0, 0, 0), conn.label
        result = check_rigidity(conn, conn.dual(), 40)
        assert result["passed"], conn.label
        assert result["stabilized"]
    assert time.monotonic() - start < 120


def test_criterion_06_sym_family():
    start = time.monotonic()
    for n in range(1, 13):
        assert cohomology_dims("A", 1, (n,)).h1 == sym_h1(n)
    for dim in (2, 4, 6, 8, 10, 12):
        n = dim - 1
        conn = sl2_sym(n)
        solved = h1_middle_via_solver(conn, conn.dual(), 40)
        assert solved == sym_h1(n)
        assert sl2_double_cover_h1(dim) == sym_h1(n)
    assert time.monotonic() - start < 60


def test_criterion_07_e6_f4_example():
    start = time.monotonic()
    rs = build_root_system("E", 6)
    rs_f4 = build_root_system("F", 4)
    table = fold_branching(weight_system(rs, rs.theta), rs_f4,
                           folding_matrix("E", 6))
    dims = []
    for mu, count in peel_components(rs_f4, table):
        dims.extend([weight_system(rs_f4, mu).dim] * count)
    assert dims == [52, 26]
    ws26 = weight_system(rs_f4, (0, 0, 0, 1))
    assert principal_sl2_decomposition(ws26).pieces() == [(8, 1), (16, 1)]
    rep = cohomology_dims("F", 4, (0, 0, 0, 1))
    assert rep.irr == 2
    assert rep.inv_I0 == 2
    assert rep.inv_Iinf == 0
    assert rep.inv_galois == 0
    assert rep.h1 == 0
    assert time.monotonic() - start < 60


def test_criterion_08_spin_threshold():
    start = time.monotonic()
    for n in range(2, 8):
        highest = tuple([0] * (n - 1) + [1])
        rep = cohomology_dims("B", n, highest)
        assert rep.dim == 2 ** n
        assert rep.h1 == 0, n
    assert cohomology_dims("B", 8, (0,) * 7 + (1,)).h1 == 2
    assert cohomology_dims("B", 9, (0,) * 8 + (1,)).h1 == 5
    assert time.monotonic() - start < 120


def test_criterion_09_loop_algebra_window():
    start = time.monotonic()
    for type_label, n in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        alg = build_chevalley(type_label, n)
        h = alg.rs.coxeter_number
        win = KacWindow(alg, 2 * h)
        exps = alg.rs.exponents
        for j in range(1, 2 * h + 1):
            expected = sum(1 for m in exps if (j - m) % h == 0)
            assert len(win.a_slice(j)) == expected
            assert len(win.c_slice(j)) == alg.rank
        for j in range(1, 2 * h):
            mat = win.ad_p1_matrix(j)
            images = [mat_vec(mat, v) for v in win.c_slice(j)]
            assert rank(images) == alg.rank == len(win.c_slice(j + 1))
            assert (rank(images + win.a_slice(j + 1))
                    == alg.rank + len(win.a_slice(j + 1)))
        assert heisenberg_pairing_check(win)
    alg = build_chevalley("D", 4)
    win = KacWindow(alg, 12)
    assert len(win.a_slice(3)) == 2
    assert len(win.a_slice(9)) == 2
    assert time.monotonic() - start < 120


def test_criterion_10_subregular_table():
    start = time.monotonic()
    rows = subregular_table()
    assert [(r.type_label, r.rank, r.m, r.d, r.orbits) for r in rows] == [
        ("G", 2, 3, 3, 4),
        ("F", 4, 4, 8, 6),
        ("E", 6, 3, 9, 8),
        ("E", 7, 4, 14, 9),
        ("E", 8, 6, 24, 10),
    ]
    for r in rows:
        rs = build_root_system(r.type_label, r.rank)
        assert r.orbits * r.d == r.rank * rs.coxeter_number
        assert r.orbits == r.rank + 2
    assert time.monotonic() - start < 1


def test_criterion_11_property_suites():
    start = time.monotonic()

    # Jacobi identity, exhaustively, for every type of rank at most 4.
    for type_label, n in RANK_LE_4:
        assert jacobi_scan(build_chevalley(type_label, n)) == 0

    # Weyl dimension formula against explicit weight tables.
    rng = random.Random(20260825)
    checked = 0
    while checked < 50:
        type_label, n = RANK_LE_4[rng.randrange(len(RANK_LE_4))]
        rs = build_root_system(type_label, n)
        coords = tuple(rng.randint(0, 2) for _ in range(n))
        expected = weyl_dim(rs, coords)
        if expected > 20000:
            continue
        assert weight_system(rs, coords).dim == expected
        checked += 1

    # Kostant's section: the centralizer of the cyclic element has
    # dimension r with square-free minimal polynomial, for every type.
    for type_label, (lo, hi) in sorted(SUPPORTED.items()):
        for n in range(lo, hi + 1):
            alg = build_chevalley(type_label, n)
            assert kostant_check(alg) == {"kernel_dim": alg.rank,
                                          "minpoly_squarefree": True}

    # Residue pairing is adjoint for the connection and its dual.
    conns = [sl_standard(3), sl2_sym(2), adjoint_connection("A", 1),
             so_odd_standard(5)]
    done = 0
    while done < 100:
        conn = conns[done % len(conns)]
        f = _random_window(rng, conn.dim)
        w = _random_window(rng, conn.dim)
        lhs = residue_pair(apply_connection(conn, f), w)
        rhs = residue_pair(f, apply_connection(conn.dual(), w))
        assert lhs + rhs == 0
        done += 1

    # The irregularity read without the Coxeter projector: where every
    # exponent of the Galois group is prime to h, V^S is the zero weight
    # space, so irr h = dim - m(0).  C3 (2,0,0) is outside that domain.
    cases = [("A", 1, (k,)) for k in (2, 4, 6, 8, 10, 12)]
    cases += [("A", 2, (1, 1)), ("A", 2, (2, 2)), ("A", 3, (1, 0, 1)),
              ("B", 2, (0, 2)), ("B", 3, (0, 1, 0)), ("B", 3, (0, 0, 1)),
              ("C", 3, (2, 0, 0)), ("D", 4, (0, 1, 0, 0)),
              ("F", 4, (0, 0, 0, 1)), ("F", 4, (1, 0, 0, 0)),
              ("G", 2, (1, 0)), ("G", 2, (0, 1)), ("E", 6, (1, 0, 0, 0, 0, 0)),
              ("B", 8, (0, 0, 0, 0, 0, 0, 0, 1))]
    assert len(cases) == 20
    outside = []
    for type_label, n, coords in cases:
        rep = cohomology_dims(type_label, n, coords)
        irr = ref_zero_weight_irr(type_label, n, coords)
        if irr is None:
            outside.append((type_label, n, coords))
        else:
            assert rep.irr == irr, (type_label, n, coords)
    assert outside == [("C", 3, (2, 0, 0))]

    assert time.monotonic() - start < 300


def _random_window(rng, dim):
    coeffs = {}
    for pos in range(-4, 5):
        if rng.random() < 0.6:
            coeffs[pos] = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(dim)]
    return SeriesWindow(dim, coeffs)
