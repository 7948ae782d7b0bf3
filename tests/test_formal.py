"""Formal solution spaces, the residue pairing, and the double cover."""

import random
from fractions import Fraction

import pytest

from conftest import loop_bracket
from rigidconn.chevalley import build_chevalley, kac_decomposition
from rigidconn.connection import (MatrixConnection, adjoint_connection,
                                  sl2_sym, sl_standard, so_odd_standard)
from rigidconn.errors import ConsistencyError, ValidationError
from rigidconn.formal import (SeriesWindow, _h1, apply_connection,
                              check_rigidity, h1_middle_via_solver,
                              kernel_dimension, residue_pair,
                              sl2_double_cover_h1)


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
    kernel_dimension(conn, "two_sided", 10, enforce_floor=False)


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


def test_principal_regrading_of_adjoint_solutions():
    """Solutions of the adjoint connection, re-indexed by the principal
    grading of the loop algebra, satisfy the homogeneous-component
    recursion N y_N + [rho-check, y_N] + h [p1, y_{N-1}] = 0."""
    alg = build_chevalley("A", 2)
    h = alg.rs.coxeter_number
    win = kac_decomposition(alg, 2 * h)
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
            for key, x in win.ad_p1(by_degree.get(deg - 1, {})).items():
                cur = acc.get(key, 0) + h * x
                if cur:
                    acc[key] = cur
                else:
                    acc.pop(key, None)
            assert acc == {}


@pytest.mark.parametrize("n,want", [(2, 0), (4, 1), (6, 2), (10, 4),
                                    (12, 5)])
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
