"""Formal solution spaces, the residue pairing, and the double cover."""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_mat_mul, ref_nullspace, ref_rref
import rigidconn
from rigidconn import formal
from rigidconn.chevalley import KacWindow, build_chevalley
from rigidconn.cli import main
from rigidconn.connection import (MatrixConnection, adjoint_connection,
                                  g2_seven_dim, sl2_sym, sl_standard,
                                  slope_at_infinity, so_odd_standard,
                                  sp_standard)
from rigidconn.errors import ConsistencyError, ValidationError
from rigidconn.formal import (SPACES, SeriesWindow, _h1, _kernel_reports,
                              _triangular_order, apply_connection,
                              check_rigidity, h1_middle_via_solver,
                              kernel_dimension, residue_pair,
                              sl2_double_cover_h1)
from rigidconn.galois import cohomology_dims, peel_components
from rigidconn.linalg import rank
from rigidconn.rootsys import build_root_system
from rigidconn.weights import weight_system

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_adjoint_a1_dimensions():
    conn = adjoint_connection("A", 1)
    dims = {space: kernel_dimension(conn, space, 20).dimension
            for space in ("two_sided", "taylor0", "taylor_inf",
                          "laurent_polys")}
    assert dims == {"two_sided": 1, "taylor0": 1, "taylor_inf": 0,
                    "laurent_polys": 0}


def test_reports_carry_metadata():
    conn = sl_standard(2)
    report = kernel_dimension(conn, "taylor0", 12)
    assert report.space == "taylor0"
    assert report.truncation == 12
    assert report.stabilized
    assert report.dimension == len(report.basis) == 1


def test_truncation_floor_enforced():
    conn = adjoint_connection("A", 2)
    with pytest.raises(ValidationError):
        kernel_dimension(conn, "two_sided", 10)
    for check in (lambda t: check_rigidity(conn, conn.dual(), t),
                  lambda t: h1_middle_via_solver(conn, conn.dual(), t)):
        with pytest.raises(ValidationError):
            check(10)
    # below the floor only the private sweep runs
    _kernel_reports(conn, ("two_sided",), 10)


def test_unknown_space_rejected():
    with pytest.raises(ValidationError):
        kernel_dimension(sl_standard(2), "weird", 20)


@pytest.mark.parametrize("conn", [adjoint_connection("A", 2),
                                  sl_standard(4), so_odd_standard(5)],
                         ids=lambda c: c.label)
def test_two_sided_solutions_have_no_negative_part(conn):
    report = kernel_dimension(conn, "two_sided", 30)
    assert report.dimension > 0
    for window in report.basis:
        assert not window.is_zero()
        assert window.n_min >= 0


def test_taylor0_dimension_is_kernel_of_constant_term():
    from rigidconn.linalg import nullspace
    for conn in (sl_standard(3), so_odd_standard(5), sl2_sym(5),
                 adjoint_connection("B", 2)):
        dim = kernel_dimension(conn, "taylor0", 30).dimension
        assert dim == len(nullspace(conn.coefficient(0)))


def test_rigidity_passes_for_small_cases():
    for conn in (sl_standard(3), so_odd_standard(5)):
        result = check_rigidity(conn, conn.dual(), 30)
        assert result["passed"] and result["splits"] and result["stabilized"]


def test_rigidity_fails_for_sym3():
    conn = sl2_sym(3)
    result = check_rigidity(conn, conn.dual(), 40)
    assert not result["passed"]
    dims = result["dimensions"]
    assert dims["laurent_V"] == dims["laurent_V_dual"] == 0
    assert dims["two_sided"] - dims["taylor0"] - dims["taylor_inf"] == 1
    assert result["h1"] == 1


def test_h1_values():
    assert h1_middle_via_solver(adjoint_connection("A", 2),
                                adjoint_connection("A", 2).dual(), 24) == 0
    assert h1_middle_via_solver(sl_standard(4), sl_standard(4).dual(),
                                24) == 0
    assert h1_middle_via_solver(sl2_sym(5), sl2_sym(5).dual(), 30) == 2


def test_h1_needs_vanishing_global_kernel():
    flat = MatrixConnection({0: [[Fraction(-3)]]}, "theta minus 3", h=1)
    assert kernel_dimension(flat, "laurent_polys", 10).dimension == 1
    with pytest.raises(ConsistencyError):
        h1_middle_via_solver(flat, flat.dual(), 10)
    assert check_rigidity(flat, flat.dual(), 10)["h1"] is None


def test_one_sweep_pair_per_seed_family(monkeypatch):
    """taylor0 is read off the laurent_polys sweep and two_sided off the
    taylor_inf one, and one sweep serves both windows (M and M + h), so
    each seed family costs one sweep; h1 runs the sweeps of check_rigidity
    on V, unseeded family first, and only then rejects a flat section."""
    sweeps = []

    def counted(conn, seeded, windows, buffer_depth):
        sweeps.append((seeded, windows))
        return solve(conn, seeded, windows, buffer_depth)

    solve = formal._solve_space
    monkeypatch.setattr(formal, "_solve_space", counted)
    conn = sl_standard(3)
    for solver, count in [(check_rigidity, 3), (h1_middle_via_solver, 2)]:
        sweeps.clear()
        solver(conn, conn.dual(), 20)
        assert len(sweeps) == count
    sweeps.clear()
    kernel_dimension(conn, "taylor0", 20)
    assert len(sweeps) == 1
    sweeps.clear()
    flat = MatrixConnection({0: [[Fraction(-3)]]}, "theta minus 3", h=1)
    with pytest.raises(ConsistencyError):
        h1_middle_via_solver(flat, flat.dual(), 10)
    assert sweeps == [(False, (10, 11)), (True, (10, 11))]


@pytest.mark.parametrize("model,dim", [(("sl", 5), 5),
                                       (("adjoint", "A", 2), 8)],
                         ids=["sl5", "adjoint A2"])
def test_kernel_runs_only_at_singular_and_cut_levels(model, dim, monkeypatch):
    """A(0) = N is strictly triangular in a permuted weight basis, so
    n Id + A(0) is singular only at n = 0: each sweep back-substitutes every
    other level up to M + h and takes the Gauss-Jordan kernel at n = 0 and
    at the cut levels M + 1 (closing the M window on a copy) and M + h + 1
    alone (A(t) has degree 1).  The seeded sweep takes it twice more at
    M + h, where it keeps the seed values that the M + h window's own,
    deeper seeds reach, at the open and at the closed top."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from worker import build_model
    sweeps = []

    def counted_solve(conn, seeded, windows, buffer_depth):
        sweeps.append((seeded, windows, []))
        return solve(conn, seeded, windows, buffer_depth)

    def counted_kernel(block):
        # n of the calling frame: _solve_space's level step or its loop
        frame = sys._getframe(1)
        sweeps[-1][2].append((frame.f_code.co_name, frame.f_locals["n"]))
        return kernel(block)

    solve, kernel = formal._solve_space, formal._kernel
    monkeypatch.setattr(formal, "_solve_space", counted_solve)
    monkeypatch.setattr(formal, "_kernel", counted_kernel)
    conn = build_model(rigidconn, model, random.Random(7).sample(range(dim),
                                                                 dim))
    check_rigidity(conn, conn.dual(), 24)
    assert [seeded for seeded, _, _ in sweeps] == [False, True, False]
    assert all(levels == [("level", n) for n in (0, m + 1, wide + 1)]
               + [("_solve_space", wide)] * 2 * seeded
               for seeded, (m, wide), levels in sweeps)


def test_pivot_pass_stacks_only_generating_levels(monkeypatch):
    """Sym^11 has A(0) = N and A(1) = E, so a window's generating levels are
    its first level -M and the singular level 0: each of the ten pivot
    passes of check_rigidity at truncation 60 (four spaces of V and
    laurent_polys of V*, two windows each) gets 2 * 12 = 24 rows, where the
    whole window M = 60 has 121 * 12 = 1,452."""
    rows = []

    def counted(m):
        rows.append(len(m))
        return row_reduce(m)

    row_reduce = formal._row_reduce
    monkeypatch.setattr(formal, "_row_reduce", counted)
    conn = sl2_sym(11)
    check_rigidity(conn, conn.dual(), 60)
    assert rows == [24] * 10


def test_back_substitution_remainder_survives_optimize():
    """T = [[2, 1], [0, 2]] is one chain of two rows of value 2, so T y = c
    is integral only for c a multiple of 4: for c = (-2, -2) row 1 gives
    y_1 = -1, row 0 leaves (-2 + 1) / 2."""
    code = ("from rigidconn import formal\n"
            "from rigidconn.errors import ConsistencyError\n"
            "steps = formal._triangular_order([[0, 1], [0, 0]])\n"
            "try:\n"
            "    formal._back_substitute(steps, [2, 2], [[-2], [-2]], 7,"
            " 'T')\n"
            "except ConsistencyError as exc:\n"
            "    print(exc)\n"
            "    raise SystemExit(3)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == ("_solve_space: back substitution at level 7 of T "
                           "leaves a remainder in row 0\n")


def test_back_substitution_remainder_exits_3(monkeypatch, capsys):
    """With the diagonal doubled, the scale of T's chains no longer covers
    the product of the diagonal, and the first remainder exits 3."""
    def doubled(steps, diag, c, n, label):
        return substitute(steps, [2 * x for x in diag], c, n, label)

    substitute = formal._back_substitute
    monkeypatch.setattr(formal, "_back_substitute", doubled)
    assert main(["rigidity", "--group", "sl3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency failure: _solve_space: back "
                          "substitution at level ")
    assert "of sl3 standard leaves a remainder" in err


def test_negative_h1_accounting_raises():
    dims = {"laurent_V": 0, "two_sided": 1, "taylor0": 1, "taylor_inf": 1}
    with pytest.raises(ConsistencyError, match="negative h1 accounting for x"):
        _h1("x", dims)


def test_solutions_satisfy_the_recursion():
    conn = so_odd_standard(5)
    report = kernel_dimension(conn, "two_sided", 24)
    for window in report.basis:
        image = apply_connection(conn, window)
        for n in range(window.n_min, 20):
            assert all(x == 0 for x in image.coefficient(n))


def rand_window(rng, dim, lo, hi, density=0.6):
    coeffs = {}
    for n in range(lo, hi + 1):
        if rng.random() < density:
            coeffs[n] = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(dim)]
    return SeriesWindow(dim, coeffs)


@pytest.mark.parametrize("conn", [sl_standard(3), sl2_sym(2),
                                  adjoint_connection("A", 1)],
                         ids=lambda c: c.label)
def test_residue_adjoint_identity(conn):
    """<(theta+A)f, w> + <f, (theta-A^T)w> = 0 for finite windows."""
    rng = random.Random(99)
    dual = conn.dual()
    for _ in range(25):
        f = rand_window(rng, conn.dim, -4, 4)
        w = rand_window(rng, conn.dim, -4, 4)
        lhs = residue_pair(apply_connection(conn, f), w)
        rhs = residue_pair(f, apply_connection(dual, w))
        assert lhs + rhs == 0


def test_residue_pair_basics():
    f = SeriesWindow(2, {0: [Fraction(2), Fraction(3)]})
    w = SeriesWindow(2, {0: [Fraction(1), Fraction(4)]})
    assert residue_pair(f, w) == 14
    shifted = SeriesWindow(2, {3: [Fraction(1), Fraction(4)]})
    assert residue_pair(f, shifted) == 0


def test_residue_pair_rejects_mismatched_dimensions():
    f = SeriesWindow(2, {0: [Fraction(1), Fraction(2)]})
    w = SeriesWindow(3, {0: [Fraction(1), Fraction(2), Fraction(3)]})
    with pytest.raises(ValidationError, match="dimension 2 and 3"):
        residue_pair(f, w)


def test_rigidity_rejects_a_dual_of_another_dimension():
    with pytest.raises(ValidationError, match="dimension 3, its dual"):
        check_rigidity(sl_standard(3), sl_standard(4).dual(), 20)


def test_principal_regrading_of_adjoint_solutions():
    """Solutions of the adjoint connection, re-indexed by the principal
    grading of the loop algebra, satisfy the homogeneous-component
    recursion N y_N + [rho-check, y_N] + h [p1, y_{N-1}] = 0."""
    alg = build_chevalley("A", 2)
    h = alg.rs.coxeter_number
    win = KacWindow(alg, 2 * h)
    conn = adjoint_connection("A", 2)
    report = kernel_dimension(conn, "two_sided", 24)
    assert report.dimension == 2
    for window in report.basis:
        loop = {}
        for m in window.support():
            vec = window.coefficient(m)
            for i, x in enumerate(vec):
                if x:
                    loop[(i, m)] = x
        by_degree = {}
        for (i, k), x in loop.items():
            deg = h * k - alg.weight_of_index(i)
            by_degree.setdefault(deg, {})[(i, k)] = x
        top = h * (window.n_max - 1)
        for deg in range(min(by_degree) + 1, top):
            acc = {}
            for key, x in by_degree.get(deg, {}).items():
                i, _ = key
                acc[key] = x * (deg + alg.weight_of_index(i))
            # [p1, y_{N-1}] through the columns of ad_p1_matrix
            prev = by_degree.get(deg - 1, {})
            coords = [prev.get(key, 0) for key in win.slice_basis(deg - 1)]
            for key, row in zip(win.slice_basis(deg),
                                win.ad_p1_matrix(deg - 1)):
                cur = acc.get(key, 0) + h * sum(map(mul, row, coords))
                if cur:
                    acc[key] = cur
                else:
                    acc.pop(key, None)
            assert acc == {}


@pytest.mark.parametrize("n,want", [(n, n // 2 - 1) for n in range(2, 24, 2)])
def test_double_cover_h1(n, want):
    assert sl2_double_cover_h1(n) == want


def test_double_cover_rejects_odd():
    with pytest.raises(ValidationError):
        sl2_double_cover_h1(5)
    with pytest.raises(ValidationError):
        sl2_double_cover_h1(0)


@pytest.mark.parametrize("n", (4, 6, 8))
def test_double_cover_agrees_with_solver(n):
    """The z-variable recursion and the t-variable solver compute the
    same h1 for Sym^(n-1)."""
    conn = sl2_sym(n - 1)
    assert sl2_double_cover_h1(n) == h1_middle_via_solver(conn, conn.dual(),
                                                          40)


def test_stabilization_flag_consistency():
    conn = sl2_sym(3)
    r1 = kernel_dimension(conn, "two_sided", 30)
    r2 = kernel_dimension(conn, "two_sided", 36)
    assert r1.stabilized and r2.stabilized
    assert r1.dimension == r2.dimension


_EDGE_CASES = [
    (MatrixConnection({0: [[-3]], 1: [[1]], 2: [[1]]}, "theta - 3 + t + t^2"),
     2),
    (MatrixConnection({0: [[0, 0], [1, 0]], 1: [[0, 1], [0, 0]],
                       2: [[1, 0], [0, -1]]}, "2x2 of degree 2"), 4),
    (MatrixConnection({0: [[-2, 0], [1, 0]], 1: [[0, 1], [0, 0]],
                       3: [[0, 0], [1, 1]]},
                      "2x2 of degree 3, A(0) eigenvalue -2"), 4),
]


@pytest.mark.parametrize("conn,two_sided",
                         [pytest.param(c, two, id=c.label)
                          for base, two in _EDGE_CASES
                          for c in (base, base.dual())])
def test_solver_higher_degree_and_singular_levels(conn, two_sided):
    """A(t) of degree 2 or 3 (several seed layers, a closed top edge of
    several levels) and n Id + A(0) singular at levels n != 0."""
    trunc = 12
    big_k = max(conn.coeffs)
    want = {"taylor0": 1, "taylor_inf": 0, "two_sided": two_sided,
            "laurent_polys": 0}
    for space, dim in want.items():
        report = kernel_dimension(conn, space, trunc)
        assert (report.dimension, report.stabilized) == (dim, True), space
        for window in report.basis:
            image = apply_connection(conn, window)
            for n in range(-trunc + big_k, trunc + 1):
                assert not any(image.coefficient(n)), (space, n)


def kronecker_sum(v, w):
    """theta + A_k (x) 1 + 1 (x) B_k, the connection of V (x) W: basis vector
    (i, q) of the product is i dim W + q, with rho-check weight the sum."""
    dv, dw = v.dim, w.dim
    coeffs = {k: [[a[i][j] * (q == s) + (i == j) * b[q][s]
                   for j in range(dv) for s in range(dw)]
                  for i in range(dv) for q in range(dw)]
              for k in set(v.coeffs) | set(w.coeffs)
              for a, b in [(v.coefficient(k), w.coefficient(k))]}
    return MatrixConnection(coeffs, "%s x %s" % (v.label, w.label), h=v.h,
                            rho_weights=[x + y for x in v.rho_weights
                                         for y in w.rho_weights])


def _case(*factors):
    """V_1 (x) ... (x) V_k from (name, connection, highest weight, whether
    it is dualised) factors, all of one group."""
    return pytest.param([f[1:] for f in factors], id=" x ".join(
        name + "*" * dual for name, _, _, dual in factors))


def _dual(factor):
    return factor[:3] + (True,)


def _sym(a):
    return "Sym^%d" % a, sl2_sym(a), (a,), False


_SL3 = ("sl3", sl_standard(3), (1, 0), False)
_G2 = ("g2 dim7", g2_seven_dim(), (1, 0), False)
_SL5 = ("sl5", sl_standard(5), (1, 0, 0, 0), False)
_TENSOR_CASES = (
    [_case(f, w)
     for f in [_SL3, ("sl4", sl_standard(4), (1, 0, 0), False),
               ("sp4", sp_standard(4), (1, 0), False),
               ("so5", so_odd_standard(5), (1, 0), False)]
     for w in (f, _dual(f))]
    + [_case(_sym(a), _sym(b)) for b in range(1, 5) for a in range(1, b + 1)]
    + [_case(_G2, _G2), _case(_SL5, _dual(_SL5)),
       _case(_sym(2), _dual(_sym(3)))]
    # triple and quadruple products, whose components repeat
    + [_case(*map(_sym, sizes))
       for sizes in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3), (2, 2, 2),
                     (1, 1, 1, 1)]]
    + [_case(_sym(1), _dual(_sym(2)), _sym(1)), _case(_SL3, _SL3, _SL3),
       _case(_SL3, _SL3, _dual(_SL3))])


@pytest.mark.parametrize("factors", _TENSOR_CASES)
def test_tensor_products_match_their_components(factors):
    """V_1 (x) ... (x) V_k, some factors dualised: the product character,
    split into irreducibles, predicts the flat sections (sum of m h0), the
    irregularity at infinity (sum of m irr = rank L / h, L the leading term
    there), the inertia invariants at 0 (sum of m inv_I0 = dim ker A(0))
    and, when there are no flat sections, the middle h1 (sum of m h1)."""
    conn = reduce(kronecker_sum, [w.dual() if dual else w
                                  for w, _, dual in factors])
    assert _triangular_order(conn.coefficient(0)) is not None
    rs = build_root_system(*factors[0][0].group)
    table = {(0,) * rs.rank: 1}
    for _, top, dual in factors:
        product = {}
        for mu, m1 in table.items():
            for nu, m2 in weight_system(rs, top).table.items():
                key = tuple(x + (-y if dual else y) for x, y in zip(mu, nu))
                product[key] = product.get(key, 0) + m1 * m2
        table = product
    parts = [(cohomology_dims(*factors[0][0].group, mu), m)
             for mu, m in peel_components(rs, table)]
    leading = slope_at_infinity(conn, details=True)["leading"]
    assert rank(leading) == conn.h * sum(r.irr * m for r, m in parts)
    assert conn.dim - rank(conn.coefficient(0)) == sum(
        r.inv_I0 * m for r, m in parts)
    h0 = sum(r.h0 * m for r, m in parts)
    trunc = 2 * conn.dim + 2 * conn.h
    assert kernel_dimension(conn, "laurent_polys", trunc).dimension == h0
    if h0 == 0:
        assert h1_middle_via_solver(conn, conn.dual(), trunc) == sum(
            r.h1 * m for r, m in parts)


# -- the integer-level solver against the Fraction solver -------------------
#
# ref_solve_space and ref_basis are the solver as it was with every level a
# Fraction matrix, on the Fraction references of conftest.py.


def ref_solve_space(conn, space, m_window, buffer_depth):
    d = conn.dim
    ks = [k for k in conn.coeffs if k >= 1]
    big_k = max(ks, default=0)
    seed_layers = max(big_k, 1)
    a0 = conn.coefficient(0)
    a = {k: conn.coefficient(k) for k in ks}
    phi = {}
    if space in ("taylor_inf", "two_sided"):
        start = -m_window - buffer_depth
        p = seed_layers * d
        for j in range(seed_layers):
            phi[start + j] = [[Fraction(int(q == j * d + i)) for q in range(p)]
                              for i in range(d)]
        start += seed_layers
    else:
        start = -m_window
        p = 0
    top = m_window
    if space in ("taylor_inf", "laurent_polys"):
        top += big_k
    for n in range(start, top + 1):
        if n - big_k - 1 < -m_window:
            phi.pop(n - big_k - 1, None)
        w = d if n <= m_window else 0
        feed = [k for k in ks if n - k in phi]
        if feed:
            c = ref_mat_mul([[x for k in feed for x in a[k][i]]
                             for i in range(d)],
                            [row for k in feed for row in phi[n - k]])
        else:
            c = [[Fraction(0)] * p for _ in range(d)]
        block = [[a0[i][j] + n if i == j else a0[i][j] for j in range(w)]
                 + c[i] for i in range(d)]
        kern = ref_nullspace(block)
        p2 = len(kern)
        pmap = [[kern[col][w + q] for col in range(p2)] for q in range(p)]
        if p2 != p or pmap != [[int(i == j) for j in range(p)]
                               for i in range(p)]:
            for m in phi:
                phi[m] = (ref_mat_mul(phi[m], pmap) if p
                          else [[Fraction(0)] * p2 for _ in range(d)])
        if w:
            phi[n] = [[kern[col][i] for col in range(p2)] for i in range(d)]
        p = p2
    stacked = [row for n in range(-m_window, m_window + 1) for row in phi[n]]
    return phi, ref_rref(stacked)[0]


def ref_kernel_dimension(conn, space, truncation):
    """(dimension, stabilized, basis) as kernel_dimension computes them."""
    h_step = conn.h if conn.h else conn.dim + 1
    phi, pivots = ref_solve_space(conn, space, truncation,
                                  truncation + h_step)
    m2 = truncation + h_step
    stable = len(ref_solve_space(conn, space, m2, m2 + h_step)[1]) == len(
        pivots)
    core = range(-truncation, truncation + 1)
    basis = [SeriesWindow(conn.dim, {n: [phi[n][i][col]
                                         for i in range(conn.dim)]
                                     for n in core})
             for col in pivots]
    return len(pivots), stable, basis


SMALL = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                  st.fractions(-5, 5, max_denominator=12))
BIG = st.fractions(-5, 5, max_denominator=10 ** 6)


@st.composite
def polynomial_connections(draw):
    """theta + A(t), dim <= 4, deg <= 3; A(0) is a permuted triangular
    matrix with integer eigenvalues, so n Id + A(0) is singular at some
    levels inside the window.  Up to three entries off the diagonal of
    A(0) get denominators up to 10^6 (more make the Fraction reference
    slow)."""
    d = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    perm = draw(st.permutations(range(d)))
    eig = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    coeffs = {k: [[Fraction(eig[i]) if (k, i) == (0, j) else
                   draw(SMALL) if k or i < j else Fraction(0)
                   for j in range(d)] for i in range(d)]
              for k in range(degree + 1)}
    spots = [(k, i, j) for k in coeffs for i in range(d) for j in range(d)
             if k or i < j]
    for k, i, j in draw(st.lists(st.sampled_from(spots), max_size=3)
                        if spots else st.just([])):
        coeffs[k][i][j] = draw(BIG)
    coeffs[0] = [[coeffs[0][perm[i]][perm[j]] for j in range(d)]
                 for i in range(d)]
    # h = 1 keeps the stabilization window, and so the test, short
    return MatrixConnection(coeffs, "random", h=1)


@settings(max_examples=60, deadline=None)
@given(polynomial_connections(), st.integers(2, 4))
def test_integer_levels_match_the_fraction_solver(conn, truncation):
    for c in (conn, conn.dual()):
        for space in SPACES:
            got = _kernel_reports(c, (space,), truncation)[space]
            dim, stable, basis = ref_kernel_dimension(c, space, truncation)
            assert (got.dimension, got.stabilized) == (dim, stable), space
            assert [w.coeffs for w in got.basis] == [w.coeffs for w in basis]
            assert all(type(x) is Fraction for w in got.basis
                       for vec in w.coeffs.values() for x in vec)


@settings(max_examples=60, deadline=None)
@given(polynomial_connections(), st.integers(2, 4))
def test_shared_sweeps_match_the_fraction_solver(conn, truncation):
    """Both ends of each seed family's sweep, against the reference run
    per space."""
    for c in (conn, conn.dual()):
        got = _kernel_reports(c, SPACES, truncation)
        assert sorted(got) == sorted(SPACES)
        for space in SPACES:
            dim, stable, basis = ref_kernel_dimension(c, space, truncation)
            report = got[space]
            assert report.space == space
            assert (report.dimension, report.stabilized) == (dim, stable)
            assert ([w.coeffs for w in report.basis]
                    == [w.coeffs for w in basis]), space


_CYCLIC_CASES = [
    MatrixConnection({0: [[0, 1], [1, 0]], 1: [[0, 0], [1, 0]]},
                     "A(0) a swap", h=1),
    MatrixConnection({0: [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                      1: [[0, 0, 0], [2, 0, 0], [0, -1, 1]]},
                     "A(0) a 3-cycle", h=1),
    MatrixConnection({0: [[-1, 0, 2], [Fraction(1, 2), 0, 0], [1, 0, 0]],
                      1: [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
                      2: [[0, 0, 0], [0, 0, 1], [1, 0, 0]]},
                     "A(0) a 2-cycle feeding a row", h=1),
    MatrixConnection({0: [[1, Fraction(1, 2)], [2, 0]], 1: [[0, 1], [1, 0]]},
                     "A(0) with irrational eigenvalues", h=1),
]


@pytest.mark.parametrize("conn", [pytest.param(c, id=c.label)
                                  for base in _CYCLIC_CASES
                                  for c in (base, base.dual())])
def test_elimination_route_matches_the_fraction_solver(conn):
    """An A(0) whose pattern has a cycle has no triangular order, so every
    level takes the Gauss-Jordan kernel.  n Id + A(0) is singular at n = +-1
    (swap), n = -1 (3-cycle), n = 0, -1, 2 (2-cycle feeding a row) or at no
    level, and at the negatives of those for the duals."""
    assert _triangular_order(conn.coefficient(0)) is None
    for space in SPACES:
        got = _kernel_reports(conn, (space,), 5)[space]
        dim, stable, basis = ref_kernel_dimension(conn, space, 5)
        assert (got.dimension, got.stabilized) == (dim, stable), space
        assert [w.coeffs for w in got.basis] == [w.coeffs for w in basis]


_FEED_CASES = [
    MatrixConnection({0: [[1, 1, 0], [0, 0, 1], [0, 0, -1]],
                      2: [[0, 0, 0], [0, 0, 0], [1, 0, 0]]},
                     "A(1) = 0, A(2) nonzero", h=1),
    MatrixConnection({0: [[0, 1, 0], [0, -1, 0], [0, 2, 1]],
                      1: [[0, 0, 0], [1, 2, 0], [0, 0, 1]]},
                     "a zero row in A(1)", h=1),
    MatrixConnection({0: [[1, Fraction(2, 7), 0], [0, 0, Fraction(5, 3)],
                          [0, 0, -1]],
                      1: [[Fraction(p, q) for p, q in row] for row in
                          [[(1, 999983), (-7, 65537), (3, 1000003)],
                           [(11, 524287), (2, 3), (-5, 999979)],
                           [(13, 104729), (-1, 7919), (9, 1299709)]]]},
                     "a dense A(1) with large denominators", h=1),
]


@pytest.mark.parametrize("conn", [pytest.param(c, id=c.label)
                                  for base in _FEED_CASES
                                  for c in (base, base.dual())])
def test_sparse_feed_matches_the_fraction_solver(conn):
    """The feed runs over the nonzero entries of each A_k: a k with no
    coefficient is skipped, a zero row of A(1) adds nothing, and a dense
    A(1) feeds every entry.  n Id + A(0) is singular at n = -1, 0 and 1,
    with A(0) triangular, in each case and its dual."""
    for space in SPACES:
        got = _kernel_reports(conn, (space,), 5)[space]
        dim, stable, basis = ref_kernel_dimension(conn, space, 5)
        assert (got.dimension, got.stabilized) == (dim, stable), space
        assert [w.coeffs for w in got.basis] == [w.coeffs for w in basis]


# den_a A(0) triangular with diagonal (1, 0, 1, 0) on the two chains 1 -> 0
# and 3 -> 2: the scale of a back-substituted level is |n (n + 1)|, a
# proper divisor of det T = n^2 (n + 1)^2 and no power of one factor
_TWO_CHAINS = MatrixConnection({0: [[1, 1, 0, 0], [0, 0, 0, 0],
                                    [0, 0, 1, -2], [0, 0, 0, 0]],
                                1: [[0, 0, 0, 0], [1, 0, 0, 1],
                                    [0, 0, 0, 0], [0, 1, 1, 0]]},
                               "A(0) with two chains", h=1)


def stored_levels(tops):
    """Every level of a window [-m, m] at its open and closed top, in the
    top's final parameters and in lowest terms, the levels the sweep
    dropped back-substituted as a basis does, as bytes."""
    *tops, generating = tops
    m = -generating[0]
    return b"".join(repr([(n, formal._lowest(*full[n]))
                          for n in range(-m, m + 1)]).encode()
                    for full in (levels.window(m) for levels in tops))


def level_hash(conn, truncation):
    """sha256 of the stored levels of both seed families' sweeps of the
    windows truncation and truncation + h, each swept alone."""
    digest = hashlib.sha256()
    for seeded in (False, True):
        for m in (truncation, truncation + conn.h):
            digest.update(stored_levels(formal._solve_space(
                conn, seeded, (m,), m + conn.h)[0]))
    return digest.hexdigest()


def test_parameter_maps_apply_on_read(monkeypatch):
    """A kernel level rewrites only the few levels the sweep keeps, and a
    read rewrites none.  One seeded sl5 sweep at M = 60 and the pivot
    pass's reads of its generating levels, at both tops, take at most 8
    _int_mul calls, where reparametrising every level of the window at
    every kernel level took 181; reading them again takes none."""
    calls = []

    def counted(rows, cols):
        calls.append(len(rows))
        return int_mul(rows, cols)

    int_mul = formal._int_mul
    monkeypatch.setattr(formal, "_int_mul", counted)
    *tops, generating = formal._solve_space(sl_standard(5), True, (60,),
                                            65)[0]
    first = [levels[n] for levels in tops for n in generating]
    assert len(calls) <= 8
    count = len(calls)
    assert [levels[n] for levels in tops for n in generating] == first
    assert len(calls) == count


@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
def test_sweeps_keep_a_store_that_does_not_grow_with_the_window(seeded):
    """A sweep keeps the seeds, the generating levels, and the level it
    computed last with the K below it: for sl5 (K = 1, singular only at
    n = 0) every top of the windows M and M + h holds as many levels at
    M = 30 as at M = 60 (5 unseeded, 6 seeded), where keeping the whole
    window held 121 at M = 60."""
    conn = sl_standard(5)
    sizes = [[len(top.stored) for *tops, _ in formal._solve_space(
        conn, seeded, (m, m + conn.h), m + conn.h) for top in tops]
        for m in (30, 60)]
    assert sizes[0] == sizes[1] == [5 + seeded] * 4


@pytest.mark.parametrize("conn,truncation", [
    (sl_standard(5), 60), (adjoint_connection("B", 4), 88)],
    ids=["sl5", "adjoint B4"])
def test_lowest_terms_only_when_the_denominator_doubles(conn, truncation,
                                                         monkeypatch):
    """A back-substituted level is brought to lowest terms only once its
    denominator has more than twice the bits of the last level the sweep
    brought there.  On one seeded sweep of the windows M and M + h (sl5 at
    M = 60, the adjoint B4 at its floor 88) _lowest runs, for any caller,
    at most once per four back-substituted levels (it ran on every one),
    and no stored D_n has more than twice the bits of the largest
    lowest-terms denominator of the sweep."""
    reduced, stored, lazy_puts = [], [], []

    def lowest(mat, den):
        out = formal_lowest(mat, den)
        reduced.append(out[1].bit_length())
        return out

    def put(levels, n, mat, den, lazy=False):
        lazy_puts.append(lazy)
        formal_put(levels, n, mat, den, lazy)
        stored.append(levels.stored[n][1].bit_length())

    formal_lowest, formal_put = formal._lowest, formal._Levels.put
    monkeypatch.setattr(formal, "_lowest", lowest)
    monkeypatch.setattr(formal._Levels, "put", put)
    windows = (truncation, truncation + conn.h)
    formal._solve_space(conn, True, windows, windows[1])
    assert 4 * len(reduced) <= lazy_puts.count(True)
    assert max(stored) > max(reduced)
    assert max(stored) <= 2 * max(reduced)


def test_rigidity_at_the_floor_holds_no_window():
    """check_rigidity reads no basis, so no window is ever held whole: on
    the adjoint D4 at its floor (M = 68) the traced allocations peak under
    2 MiB, where keeping every window level peaked at 8 MiB."""
    conn = adjoint_connection("D", 4)
    dual = conn.dual()
    tracemalloc.start()
    try:
        assert check_rigidity(conn, dual, 2 * conn.dim + 2 * conn.h)["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def _model(model, dim):
    """A builder of the model in the basis permuted by random.Random(7);
    perfbench must be on sys.path when it is called."""
    def build():
        from worker import build_model
        return build_model(rigidconn, model,
                           random.Random(7).sample(range(dim), dim))
    return build


@pytest.mark.parametrize("build,own,dual", [
    (_model(("sl", 5), 5),
     "9ab27611b2e1825e4aa52c0ae453d38c467c0736477a35e2f08443fcf4be32bd",
     "67662c7f8caa1fab9dcca570b70a296c22f096ec7835d4f41805b1d306a332fc"),
    (_model(("adjoint", "A", 2), 8),
     "f38760924d2bc92f5d5ed8b1dff193845d37a65f363e3e02f655bff59a7e1a55",
     "15e8be2c75594113d03a6258bb66772f54c9c3e69aeb4fa3ddccf1ee4b29e337"),
    (lambda: _FEED_CASES[0],
     "c5d1cb4963ed7d16174fc74f3e6e1336a4182468f5d4552e77851e9fb41adbdd",
     "e18da673327d1b5656fb67034328adfdcdfb9f3389eb44ae25ed5d92844b4981"),
    (_model(("adjoint", "D", 4), 28),
     "1034b1996cb99289e511ce04cf3447aea45618e1d165abbdba0e94fc6277721e",
     "0a2f5b2df1251a5ad44eaa3367a7c53a9017a2b21ec77a1342c6bd839afa7c7c"),
    (lambda: _TWO_CHAINS,
     "822fd532c38123f8b7a8128503481a199cc5dd32f495718e7850e80e6172c95d",
     "62f77d691d7e4c8c8ff342dfac123e5ecb69196d610a828b7d2aeb14e43dadf0"),
], ids=["sl5", "adjoint A2", _FEED_CASES[0].label, "adjoint D4",
        _TWO_CHAINS.label])
def test_stored_levels_are_pinned(build, own, dual, monkeypatch):
    """The stored levels (M_n, D_n) at truncation 24 of two permuted
    models, hashed as recorded before the feed ran over nonzero entries
    only; of a model with A(1) = 0 and A(2) nonzero, where the feed above
    M reads levels below M, so a defect in how the open top keeps them
    shows; and, hashed as recorded while back substitution was scaled by
    |det T|, of the permuted adjoint D4 (scale n^11 where |det T| is n^28)
    and of a triangular A(0) with two chains (scale |n (n + 1)|)."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    conn = build()
    assert (level_hash(conn, 24), level_hash(conn.dual(), 24)) == (own, dual)


_WINDOW_CASES = (
    [(name, _model(model, dim)) for name, model, dim in [
        ("sl5", ("sl", 5), 5), ("adjoint A2", ("adjoint", "A", 2), 8),
        ("adjoint D4", ("adjoint", "D", 4), 28)]]
    + [(base.label, lambda base=base: base)
       for base in [base for base, _ in _EDGE_CASES] + _FEED_CASES
       + _CYCLIC_CASES])


@pytest.mark.parametrize("build,dual",
                         [pytest.param(build, dual,
                                       id=name + (" V*" if dual else " V"))
                          for name, build in _WINDOW_CASES
                          for dual in (False, True)])
def test_shared_windows_match_their_own_sweeps(build, dual, monkeypatch):
    """At the floor M = 2 dim + 2h one sweep per seed family serves the
    windows M and M + h, with no window swept alone.  Its M window stores
    the levels of a sweep of that window alone, and the seeded sweep's
    M + h window, seeded M levels below its bottom and kept to the seed
    values that seeds at -2M - 3h reach, has the rank of a sweep of its own
    seeded there, M + 2h below it, on both tops: the stabilization flag
    read two ways."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    calls = []

    def counted(conn, seeded, windows, buffer_depth):
        calls.append(windows)
        return solve(conn, seeded, windows, buffer_depth)

    solve = formal._solve_space
    monkeypatch.setattr(formal, "_solve_space", counted)
    conn = build().dual() if dual else build()
    h_step = conn.h if conn.h else conn.dim + 1
    floor = 2 * conn.dim + 2 * h_step
    windows = (floor, floor + h_step)
    for seeded in (False, True):
        narrow, wide = formal._solve_space(conn, seeded, windows, windows[1])
        alone = formal._solve_space(conn, seeded, windows[:1], windows[1])
        assert calls == [windows, windows[:1]]
        calls.clear()
        assert stored_levels(narrow) == stored_levels(alone[0])
    deep, = formal._solve_space(conn, True, windows[1:], windows[1] + h_step)
    assert [rank_of(wide, top) for top in (0, 1)] == [rank_of(deep, top)
                                                      for top in (0, 1)]


def rank_of(sweep, top):
    """The rank of a window's generating levels at the open (0) or closed
    (1) top: the dimension the window reads."""
    return len(formal._row_reduce([row for n in sweep[2]
                                   for row in sweep[top][n][0]]))


# A(t) of degree 3 whose seed layers at M = 2 reach the M + h window
_NEAR_SEEDS = MatrixConnection({0: [[2, 0], [0, -1]],
                                1: [[0, 0], [Fraction(9, 8), 0]],
                                2: [[Fraction(-1, 3), 0], [-3, 0]],
                                3: [[3, 0], [0, 0]]},
                               "seeds near the window", h=1)


@pytest.mark.parametrize("conn,ranks", [
    (_NEAR_SEEDS, ([4, 2], [3, 1])), (_NEAR_SEEDS.dual(), ([5, 2], [4, 1]))],
    ids=["V", "V*"])
def test_wide_window_reads_the_rank_of_its_own_seeds(conn, ranks,
                                                     monkeypatch):
    """At M = 2 the M + h window seeded M levels below reads two_sided and
    taylor_inf one rank higher than seeded M + 2h below, as it is seeded
    alone.  The shared seeded sweep keeps only the seed values that the
    deeper seeds reach, so it reads the deeper ranks with no sweep of its
    own: every space matches the reference, stabilized."""
    near, deep = [formal._solve_space(conn, True, (3,), buffer)[0]
                  for buffer in (2, 4)]
    assert ([rank_of(near, top) for top in (0, 1)],
            [rank_of(deep, top) for top in (0, 1)]) == ranks
    calls = []

    def counted(conn, seeded, windows, buffer_depth):
        calls.append((seeded, windows, buffer_depth))
        return solve(conn, seeded, windows, buffer_depth)

    solve = formal._solve_space
    monkeypatch.setattr(formal, "_solve_space", counted)
    wide = formal._solve_space(conn, True, (2, 3), 3)[1]
    assert [rank_of(wide, top) for top in (0, 1)] == ranks[1]
    calls.clear()
    got = _kernel_reports(conn, SPACES, 2)
    assert calls == [(False, (2, 3), 3), (True, (2, 3), 3)]
    for space in SPACES:
        dim, stable, basis = ref_kernel_dimension(conn, space, 2)
        assert (got[space].dimension, got[space].stabilized) == (dim, stable)
        assert stable
        assert [w.coeffs for w in got[space].basis] == [w.coeffs
                                                        for w in basis]


def _degree(big_k):
    """The 2 x 2 A(t) = diag(0, 1) t + E_21 t^big_k, with h = 1."""
    return MatrixConnection({1: [[0, 0], [0, 1]], big_k: [[0, 0], [1, 0]]},
                            "degree %d" % big_k, h=1)


# A(t) of degree 14 > 2M + 1 at the floor M = 6: the cut levels above M read
# levels below -M, and the window's first K levels run past its top
_HIGH_DEGREE = _degree(14)


@pytest.mark.parametrize("conn", [_HIGH_DEGREE, _HIGH_DEGREE.dual()],
                         ids=["V", "V*"])
def test_degree_above_the_window_matches_the_fraction_solver(conn):
    """At the floor every space, its flag and its basis match the
    reference, although the closed top reads levels below the window and
    the seed depth changes the M + h window's rank (V* two_sided)."""
    got = formal._floored_reports(conn, SPACES, 6)
    for space in SPACES:
        dim, stable, basis = ref_kernel_dimension(conn, space, 6)
        assert (got[space].dimension, got[space].stabilized) == (dim, stable)
        assert [w.coeffs for w in got[space].basis] == [w.coeffs
                                                        for w in basis]


def test_seed_layers_that_reach_the_window_top_are_rejected():
    """At the floor M = 6 (h = 1) the seeded sweep starts at -2M - h, so
    the K seed layers of an A(t) of degree K > 3M + h = 19 reach the
    window's top: kernel_dimension and check_rigidity raise a
    ValidationError that names the connection, its degree and the
    truncation.  Degree 19 and the unseeded spaces still run."""
    conn = _degree(20)
    for run in (lambda: kernel_dimension(conn, "taylor_inf", 6),
                lambda: check_rigidity(conn, conn.dual(), 6)):
        with pytest.raises(ValidationError, match="^degree 20: A\\(t\\) has "
                           "degree 20, .* at truncation 6 reach the"):
            run()
    assert kernel_dimension(conn, "taylor0", 6).dimension == 2
    assert kernel_dimension(_degree(19), "taylor_inf", 6).truncation == 6


@settings(max_examples=20, deadline=None)
@given(polynomial_connections())
def test_reports_at_the_floor_match_the_fraction_solver(conn):
    """At the floor 2 dim + 2h, where kernel_dimension runs, each seed
    family's one sweep against the reference run per space and window."""
    floor = 2 * conn.dim + 2 * conn.h
    for c in (conn, conn.dual()):
        got = formal._floored_reports(c, SPACES, floor)
        for space in SPACES:
            dim, stable, basis = ref_kernel_dimension(c, space, floor)
            assert (got[space].dimension, got[space].stabilized) == (dim,
                                                                    stable)
            assert [w.coeffs for w in got[space].basis] == [w.coeffs
                                                            for w in basis]


_DEEP_CASES = [
    MatrixConnection({0: [[6]], 1: [[1]]}, "theta + 6 + t", h=1),
    MatrixConnection({0: [[6, 0], [1, 0]], 1: [[0, 1], [1, 0]]},
                     "2x2, A(0) eigenvalue 6", h=1),
]


@pytest.mark.parametrize("conn", [pytest.param(c, id=c.label)
                                  for base in _DEEP_CASES
                                  for c in (base, base.dual())])
def test_unseeded_window_past_a_parameter_is_swept_alone(conn, monkeypatch):
    """n Id + A(0) is singular at n = -6, inside the window M + h = 6 and
    below the window M = 5: a parameter enters the unseeded sweep below -M,
    so the M window gets a sweep of its own, and all four spaces match the
    reference (taylor0 of theta + 6 + t reads unstabilized).  The duals are
    singular at n = 6 and take no such sweep."""
    sweeps = []

    def counted(conn, seeded, windows, buffer_depth):
        sweeps.append((seeded, windows))
        return solve(conn, seeded, windows, buffer_depth)

    solve = formal._solve_space
    monkeypatch.setattr(formal, "_solve_space", counted)
    got = _kernel_reports(conn, SPACES, 5)
    alone = [] if conn.label.endswith("dual") else [(5,)]
    assert [w for seeded, w in sweeps if not seeded] == [(5, 6)] + alone
    for space in SPACES:
        dim, stable, basis = ref_kernel_dimension(conn, space, 5)
        assert (got[space].dimension, got[space].stabilized) == (dim, stable)
        assert [w.coeffs for w in got[space].basis] == [w.coeffs
                                                        for w in basis]


@pytest.mark.parametrize("build,exponents", [
    (_model(("sl", 5), 5), {0: 5}),
    (_model(("adjoint", "A", 2), 8), {0: 5}),
    (lambda: adjoint_connection("E", 6), {0: 23}),
    (lambda: _FEED_CASES[0], {1: 1, 0: 1, -1: 1}),
    (lambda: _TWO_CHAINS, {1: 1, 0: 1}),
], ids=["sl5", "adjoint A2", "adjoint E6", _FEED_CASES[0].label,
        _TWO_CHAINS.label])
def test_chain_exponents(build, exponents, monkeypatch):
    """A back-substituted level n is scaled by prod |n den_a + v|^E_v, E_v
    the most rows of diagonal value v on one chain of den_a A(0)'s
    triangular order.  E_v never exceeds the number of rows of value v, so
    the scale divides |det T|; it equals it on a single chain (sl5, whose
    N is one Jordan block, and A(1) = 0, A(2) nonzero), and for a nilpotent
    A(0) it is n^(longest chain), as against n^dim."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    conn = build()
    a0, den = formal._cleared(conn.coefficient(0))
    assert den == 1
    got = formal._chain_exponents(_triangular_order(a0), a0)
    assert got == exponents
    diagonal = [a0[i][i] for i in range(conn.dim)]
    assert all(e <= diagonal.count(v) for v, e in got.items())


@pytest.mark.parametrize("build", [_model(("sl", 5), 5),
                                   _model(("adjoint", "A", 2), 8),
                                   _model(("adjoint", "D", 4), 28)],
                         ids=["sl5", "adjoint A2", "adjoint D4"])
def test_a_smaller_scale_leaves_a_remainder(build, monkeypatch):
    """The chain scale n^E_0 of a nilpotent A(0) is the least that keeps
    back substitution exact on these models: with n^(E_0 - 1) some level
    leaves a remainder and the sweep raises ConsistencyError.  (An exponent
    of 1 cannot be lowered: the scale must vanish where T is singular.)"""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    conn = build()
    exponents = formal._chain_exponents
    monkeypatch.setattr(formal, "_chain_exponents", lambda steps, a0: (
        exponents(steps, a0) - Counter([0])))
    with pytest.raises(ConsistencyError, match="leaves a remainder"):
        level_hash(conn, 24)


def test_identity_parameter_maps_rewrite_nothing(monkeypatch):
    """A(0) a swap has no triangular order, so every level takes the
    kernel, but T = n Id + A(0) is singular only at n = -1 and 1: there and
    at the cut level M + 1 of the closed top the parameters change, and
    every other kernel map is the identity and rewrites no level.  A sweep
    takes 12 to 20 kernels; its open top has been rewritten twice and its
    closed top three times."""
    kernels, rewrites = [], []

    def counted(block):
        kernels.append(block)
        return kernel(block)

    def rewrite(levels, pmap, den):
        rewrites.append(levels)
        return reparametrise(levels, pmap, den)

    kernel, reparametrise = formal._kernel, formal._Levels.reparametrise
    monkeypatch.setattr(formal, "_kernel", counted)
    monkeypatch.setattr(formal._Levels, "reparametrise", rewrite)
    conn = _CYCLIC_CASES[0]
    for seeded in (False, True):
        for m in (5, 6):
            kernels.clear()
            rewrites.clear()
            open_top, closed, _ = formal._solve_space(conn, seeded, (m,),
                                                      m + 1)[0]
            assert len(kernels) >= 12
            # the sweep's own store took every rewrite before the tops were
            # copied from it, the closed copy those of its cut level
            assert open_top not in rewrites
            assert (len([lv for lv in rewrites if lv is not closed]),
                    len(rewrites)) == (2, 3)


@pytest.mark.parametrize("type_label,rank", [("A", 3), ("B", 3), ("C", 3),
                                             ("D", 4), ("G", 2)])
def test_adjoint_floors_match_the_weight_formula(type_label, rank):
    """The solver and the weight formula agree on the adjoint at its floor
    2 dim + 2h: the rigidity check passes and has stabilized, taylor0 and
    taylor_inf are the inertia invariants at 0 and infinity, and h1 is 0
    both ways."""
    conn = adjoint_connection(type_label, rank)
    result = check_rigidity(conn, conn.dual(), 2 * conn.dim + 2 * conn.h)
    rep = cohomology_dims(type_label, rank,
                          build_root_system(type_label, rank).theta)
    dims = result["dimensions"]
    assert result["passed"] and result["stabilized"]
    assert (dims["taylor0"], dims["taylor_inf"]) == (rep.inv_I0,
                                                      rep.inv_Iinf)
    assert result["h1"] == rep.h1 == 0


_PIVOT_CASES = (
    [(name, _model(model, dim), trunc) for name, model, dim, trunc in [
        ("sl5", ("sl", 5), 5, 20), ("adjoint A2", ("adjoint", "A", 2), 8, 22),
        ("Sym^5", ("sym", 5), 6, 16)]]
    + [(base.label, lambda base=base: base, 12) for base, _ in _EDGE_CASES]
    + [(base.label, lambda base=base: base, 5) for base in _CYCLIC_CASES]
    + [("sl%d x sl%d%s" % (n, n, "*" if dual else ""),
        lambda n=n, dual=dual: kronecker_sum(
            sl_standard(n), sl_standard(n).dual() if dual else sl_standard(n)),
        4 * n + 6) for n in (3, 4) for dual in (False, True)])


@pytest.mark.parametrize("build,truncation,dual",
                         [pytest.param(build, trunc, dual,
                                       id=name + (" V*" if dual else " V"))
                          for name, build, trunc in _PIVOT_CASES
                          for dual in (False, True)])
def test_generating_levels_have_the_window_pivots(build, truncation, dual,
                                                  monkeypatch):
    """Every stored level off the generating ones is back-substituted from
    the levels below it, so the generating rows and the whole window's rows
    have one kernel and the same pivot columns: both windows of one sweep,
    both tops (all four spaces), on permuted models, levels singular away
    from n = 0, A(0) with no triangular order and Kronecker-sum products."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    conn = build().dual() if dual else build()
    h_step = conn.h if conn.h else conn.dim + 1
    windows = (truncation, truncation + h_step)
    for seeded in (False, True):
        sweeps = formal._solve_space(conn, seeded, windows, windows[1])
        for m, (*tops, generating) in zip(windows, sweeps):
            assert generating == sorted(set(generating))
            assert -m == generating[0] and generating[-1] <= m
            for levels in tops:
                full = levels.window(m)
                assert formal._row_reduce(
                    [row for n in generating for row in levels[n][0]]
                ) == formal._row_reduce(
                    [row for n in range(-m, m + 1) for row in full[n][0]])


def test_basis_is_built_on_first_read(monkeypatch):
    """h1_middle_via_solver and check_rigidity build no basis; a report
    builds its basis when it is first read, once, with the entries of an
    eager _basis call on a fresh sweep."""
    built = []

    def counted(*args):
        built.append(args)
        return basis(*args)

    basis = formal._basis
    monkeypatch.setattr(formal, "_basis", counted)
    conn = sl2_sym(5)
    assert h1_middle_via_solver(conn, conn.dual(), 30) == 2
    result = check_rigidity(conn, conn.dual(), 30)
    assert built == []
    report = result["reports"]["two_sided"]
    first = report.basis
    assert report.basis is first
    assert len(built) == 1 and len(first) == report.dimension > 0
    levels = formal._solve_space(conn, True, (30,), 30 + conn.h)[0][0]
    full = levels.window(30)
    pivots = formal._row_reduce([row for n in range(-30, 31)
                                 for row in full[n][0]])
    eager = basis(conn.dim, levels, pivots, 30)
    assert [w.coeffs for w in first] == [w.coeffs for w in eager]
    for rep in result["reports"].values():
        assert len(rep.basis) == rep.dimension
    assert len(built) == 5
