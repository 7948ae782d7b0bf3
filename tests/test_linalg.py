"""Exact linear algebra cross-checked against sympy."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (identity, ref_charpoly, ref_graded_cycle_check,
                      ref_is_nilpotent, ref_is_semisimple, ref_mat_mul,
                      ref_nullspace, ref_poly_at_matrix, ref_rref)

from rigidconn import linalg, poly
from rigidconn.connection import (adjoint_connection, g2_seven_dim,
                                  sl_standard, slope_at_infinity,
                                  so_odd_standard, sp_standard)
from rigidconn.errors import ConsistencyError
from rigidconn.linalg import (_cleared, _int_mul, _kernel, _row_reduce,
                              charpoly, graded_cycle_check, inverse,
                              is_nilpotent, is_semisimple, mat_mul, mat_vec,
                              nullspace, poly_at_matrix, rank)


def rand_matrix(rng, n, m, density=0.7):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             if rng.random() < density else Fraction(0)
             for _ in range(m)] for _ in range(n)]


def to_sympy(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in a])


def test_rank_matches_sympy():
    rng = random.Random(11)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                        density=rng.choice((0.3, 0.7, 1.0)))
        assert rank(a) == to_sympy(a).rank()


def test_nullspace_matches_sympy():
    rng = random.Random(5)
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, n, m, density=0.5)
        basis = nullspace(a)
        assert len(basis) == len(to_sympy(a).nullspace())
        for v in basis:
            assert all(x == 0 for x in mat_vec(a, v))
        if basis:
            assert rank(basis) == len(basis)


def test_nullspace_degenerate_shapes():
    assert len(nullspace([[Fraction(0)] * 3])) == 3
    assert nullspace([[Fraction(1), Fraction(2)]]) != []
    assert len(nullspace([[Fraction(1)], [Fraction(2)]])) == 0


def test_charpoly_matches_sympy():
    rng = random.Random(23)
    t = sympy.Symbol("t")
    for _ in range(15):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        ours = charpoly(a)
        theirs = sympy.Poly(to_sympy(a).charpoly(t), t).all_coeffs()
        assert [sympy.Rational(c.numerator, c.denominator)
                for c in reversed(ours)] == theirs


def test_inverse_round_trip_and_singular():
    rng = random.Random(7)
    found = 0
    while found < 10:
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        if rank(a) < n:
            continue
        found += 1
        assert mat_mul(a, inverse(a)) == identity(n)
    with pytest.raises(ValueError):
        inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_semisimple_and_nilpotent_classification():
    diag = [[Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(2)]]
    jordan = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    strict = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert is_semisimple(diag)
    assert not is_semisimple(jordan)
    assert not is_nilpotent(jordan)
    assert is_nilpotent(strict)
    assert not is_semisimple(strict)
    assert is_semisimple([[Fraction(0)]])
    # denominators > 1: distinct eigenvalues 1/2, 1/5, then a Jordan block
    # at 1/2
    third, half = Fraction(1, 3), Fraction(1, 2)
    apart = [[half, third], [Fraction(0), Fraction(1, 5)]]
    block = [[half, third], [Fraction(0), half]]
    assert is_semisimple(apart) and ref_is_semisimple(apart)
    assert not is_semisimple(block) and not ref_is_semisimple(block)
    # chi = (x^2 + 1)^2: a repeated irreducible quadratic factor
    c = [[0, -1], [1, 0]]
    for top, want in (([[0, 0], [0, 0]], True), ([[1, 0], [0, 1]], False)):
        m = ([row + t for row, t in zip(c, top)]
             + [[0, 0] + row for row in c])
        assert is_semisimple(m) is want
        assert ref_is_semisimple(m) is want
        assert not is_nilpotent(m)


def test_semisimple_squarefree_remainder_raises(monkeypatch):
    """A gcd(chi, chi') that does not divide chi names stage and label."""
    monkeypatch.setattr(poly, "_zgcd", lambda a, b: [1, 1])
    with pytest.raises(ConsistencyError, match=r"^stage: gcd\(chi, chi'\) "
                       r"does not divide the charpoly chi of the label$"):
        is_semisimple([[1, 0], [0, 2]], "stage", "the label")


def test_semisimple_squarefree_remainder_survives_optimize():
    code = ("from rigidconn import linalg, poly\n"
            "from rigidconn.errors import ConsistencyError\n"
            "poly._zgcd = lambda a, b: [1, 1]\n"
            "try:\n"
            "    linalg.is_semisimple([[1, 0], [0, 2]], 'stage', 'the label')\n"
            "except ConsistencyError as exc:\n"
            "    print(exc)\n"
            "    raise SystemExit(3)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout.startswith("stage: gcd(chi, chi')")
    assert "of the label" in proc.stdout


def _mixed_leading_term():
    """Leading term of a connection with h = 2: a nonzero 2-cycle on
    indices 0, 1 next to a Jordan block on 2, 3."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[1][0] = m[3][2] = m[0][1] = Fraction(-2)
    half = Fraction(1, 2)
    return m, [half, -half, half, -half], 2


def _criterion_02_leading_terms():
    conns = [sl_standard(n) for n in range(2, 9)]
    conns += [so_odd_standard(n) for n in (3, 5, 7, 9)]
    conns += [sp_standard(n) for n in (2, 4, 6, 8)]
    conns.append(g2_seven_dim())
    conns += [adjoint_connection(t, r)
              for t, r in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                           ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2)]]
    for conn in conns:
        assert conn.dim <= 30
        leading = slope_at_infinity(conn, details=True)["leading"]
        yield leading, conn.rho_weights, conn.h


def _dense(m):
    return {"kernel_dim": len(nullspace(m)), "semisimple": is_semisimple(m),
            "nilpotent": is_nilpotent(m)}


def test_graded_cycle_check_agrees_with_dense():
    empty_class = ([[Fraction(0), Fraction(5)], [Fraction(0), Fraction(0)]],
                   [0, 1], 3)
    cases = list(_criterion_02_leading_terms())
    cases += [_mixed_leading_term(), empty_class]
    for m, degrees, h in cases:
        got = graded_cycle_check(m, degrees, h, "test", "leading term")
        assert got == _dense(m)
    assert graded_cycle_check(*_mixed_leading_term(), "test", "mixed") == {
        "kernel_dim": 1, "semisimple": False, "nilpotent": False}
    assert graded_cycle_check(*empty_class, "test", "empty") == {
        "kernel_dim": 1, "semisimple": False, "nilpotent": True}


def _permuted(m, degrees, order):
    return ([[m[i][j] for j in order] for i in order],
            [degrees[i] for i in order])


def test_graded_cycle_check_two_cosets():
    """h = 2: the integer cycle on 0, 1 swaps them (eigenvalues +-1) or,
    with m[1][0] = 0, is nilpotent; the half-integer cycle on 2..5 has
    product [[1, 1], [0, 1]], a Jordan block at 1.  Only the second cycle
    is not semisimple, and it is not nilpotent: each cycle must be
    checked, whichever class comes last."""
    m = [[Fraction(0)] * 6 for _ in range(6)]
    m[0][1] = m[2][4] = m[3][5] = m[4][2] = m[4][3] = m[5][3] = 1
    half = Fraction(1, 2)
    degrees = [0, 1, half, half, -half, -half]
    for back, kernel_dim in [(1, 0), (0, 1)]:
        m[1][0] = back
        want = {"kernel_dim": kernel_dim, "semisimple": False,
                "nilpotent": False}
        for order in ([0, 1, 2, 3, 4, 5], [2, 3, 4, 5, 0, 1]):
            case = _permuted(m, degrees, order)
            assert _dense(case[0]) == want
            assert graded_cycle_check(*case, 2, "test", "two cosets") == want


def test_graded_cycle_check_zero_cycle_product():
    """h = 2, m = [[0, 1], [0, 0]] on two classes: m^2 = 0, so the cycle
    product is the semisimple 1 x 1 zero, yet m is a Jordan block; only
    ker m != ker m^2 tells."""
    m = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    want = {"kernel_dim": 1, "semisimple": False, "nilpotent": True}
    assert _dense(m) == want
    assert graded_cycle_check(m, [0, 1], 2, "test", "jordan") == want


@pytest.mark.parametrize("m,degrees,h", [
    ([[0, 7], [0, 0]], [1, 2], 3),
    ([[0, 7], [0, 0]], [2, 3], 4),
    ([[0, 2, 0], [0, 0, 3], [0, 0, 0]], [1, 2, 3], 4),
    ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [Fraction(1, 2), Fraction(3, 2), 0],
     3),
], ids=["h=3", "h=4, two empty", "h=4, chain", "two cosets"])
def test_graded_cycle_check_empty_last_class(monkeypatch, m, degrees, h):
    """Every cycle here has an empty class, in most of them the last class
    the product passes before it closes; the product is the n_c x n_c
    zero block of its class all the same."""
    shapes = []

    def recorded(power):
        shapes.append((len(power), {len(row) for row in power}))
        return nilpotent(power)

    nilpotent = linalg.is_nilpotent
    monkeypatch.setattr(linalg, "is_nilpotent", recorded)
    m = [[Fraction(x) for x in row] for row in m]
    got = graded_cycle_check(m, degrees, h, "test", "empty class")
    assert got == _dense(m)
    assert shapes and all(cols == {rows} for rows, cols in shapes)


def test_graded_cycle_check_rejects_wrong_grading():
    m, degrees, h = _mixed_leading_term()
    with pytest.raises(ConsistencyError, match=r"stage: mixed .* \(0, 1\)"):
        graded_cycle_check(m, [0] * 4, h, "stage", "mixed")


def test_graded_cycle_check_rejects_wrong_grading_under_optimize():
    code = ("from fractions import Fraction\n"
            "from rigidconn.errors import ConsistencyError\n"
            "from rigidconn.linalg import graded_cycle_check\n"
            "try:\n"
            "    graded_cycle_check([[Fraction(1)]], [0], 2, 'stage', 'one')\n"
            "except ConsistencyError:\n"
            "    raise SystemExit(3)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 3


# -- the integer kernels against a Fraction Gauss-Jordan reference ----------
#
# The reference is classical Gauss-Jordan on Fractions with the same pivot
# rule (first nonzero at or below the current row), and the schoolbook
# product (ref_rref, ref_nullspace and ref_mat_mul in conftest.py, which the
# formal solver's reference shares).  The RREF is unique, so the integer
# kernels must return exactly the same values, as Fractions.


ENTRIES = st.one_of(
    st.just(0), st.just(Fraction(0)), st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(max_denominator=10 ** 18))


@st.composite
def matrices(draw, nrows=None, ncols=None, max_dim=7):
    """Mixed int/Fraction matrices; some are products through a narrow
    middle (rank deficient), some get a zero row or column."""
    if nrows is None:
        nrows = draw(st.integers(0, max_dim))
    if ncols is None:
        ncols = draw(st.integers(0, max_dim))
    inner = draw(st.integers(0, max(nrows, ncols)))
    if 0 < inner < min(nrows, ncols):
        m = ref_mat_mul(draw(matrices(nrows, inner)),
                        draw(matrices(inner, ncols)))
    else:
        m = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                          min_size=nrows, max_size=nrows))
    if nrows and ncols and draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        m[i] = [0] * ncols
        for row in m:
            row[j] = Fraction(0)
    return m


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_row_reduce_gives_integer_multiples_of_rref(m):
    ints, den = _cleared(m)
    assert all(type(x) is int for row in ints for x in row)
    assert [[Fraction(x, den) for x in row] for row in ints] == m
    before = [row[:] for row in ints]
    work = list(ints)
    pivots = _row_reduce(work)
    ref_pivots, ref = ref_rref(m)
    assert pivots == ref_pivots
    assert ints == before
    assert all(type(x) is int for row in work for x in row)
    for r, row in enumerate(work):
        if r < len(pivots):
            assert [Fraction(x, row[pivots[r]]) for x in row] == ref[r]
        else:
            assert not any(row)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_reference(m):
    assert rank(m) == len(ref_rref(m)[0])
    got = nullspace(m)
    assert got == ref_nullspace(m)
    assert all_fractions(got)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_integer_kernel_over_its_denominator_is_the_nullspace(m):
    """Shapes include no rows, n x 0, 1 x n and rank-deficient products."""
    ints, _ = _cleared(m)
    before = [row[:] for row in ints]
    vecs, den, free = _kernel(ints)
    assert ints == before
    assert type(den) is int and den > 0
    assert all(type(x) is int for v in vecs for x in v)
    assert [[Fraction(x, den) for x in v] for v in vecs] == ref_nullspace(m)
    ncols = len(m[0]) if m else 0
    assert free == [f for f in range(ncols) if f not in ref_rref(m)[0]]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: matrices(n, n)))
def test_inverse_matches_reference(m):
    n = len(m)
    pivots, work = ref_rref([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(m)])
    if pivots != list(range(n)):
        with pytest.raises(ValueError):
            inverse(m)
        return
    got = inverse(m)
    assert got == [row[n:] for row in work]
    assert all_fractions(got)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 6), st.integers(1, 6),
                 st.integers(0, 6)).flatmap(
    lambda s: st.tuples(matrices(s[0], s[1]), matrices(s[1], s[2]))))
def test_mat_mul_matches_reference(ab):
    """Includes a zero-width right factor."""
    a, b = ab
    got = mat_mul(a, b)
    assert got == ref_mat_mul(a, b)
    assert all_fractions(got)
    assert len(got) == len(a)


@pytest.mark.parametrize("nrows", [1, 3])
def test_mat_mul_with_empty_inner_dimension_gives_empty_rows(nrows):
    """An n x 0 left factor gives n empty rows, whatever the width of the
    0 x m right factor would be: a list of no rows cannot carry m.
    _int_mul takes the right factor by columns and keeps the width, as the
    formal solver needs when its parameter space is empty."""
    assert mat_mul([[] for _ in range(nrows)], []) == [[]] * nrows
    assert _int_mul([[] for _ in range(nrows)], [[]] * 2) == [[0, 0]] * nrows


# -- charpoly, poly_at_matrix and the graded cycle check against Fractions --
#
# The references (conftest.py) are the Fraction routines these replaced:
# the Hessenberg charpoly, Horner's rule with Fraction products, and the
# cycle check on Fraction blocks.  The integer routines clear denominators
# once, so they must return exactly the same values.


SQUARE = st.integers(0, 8).flatmap(lambda n: matrices(n, n))


@settings(max_examples=200, deadline=None)
@given(SQUARE)
def test_charpoly_matches_reference(m):
    got = charpoly(m)
    assert got == ref_charpoly(m)
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=200, deadline=None)
@given(SQUARE, st.lists(ENTRIES, max_size=7))
def test_poly_at_matrix_matches_reference(m, coeffs):
    got = poly_at_matrix(coeffs, m)
    assert got == ref_poly_at_matrix(coeffs, m)
    assert all_fractions(got)
    assert len(got) == len(m)


@st.composite
def graded_cyclic(draw):
    """(m, degrees, h) with m lowering the degree by one mod h.  Degrees
    are integers and half-integers in [-h, h], so some classes stay empty;
    the entries are either 0/1, which gives nilpotent and non-semisimple
    blocks, or ENTRIES (big denominators included)."""
    h = draw(st.integers(1, 6))
    n = draw(st.integers(0, 8))
    degrees = draw(st.lists(st.integers(-2 * h, 2 * h), min_size=n,
                            max_size=n))
    degrees = [Fraction(d, 2) for d in degrees]
    cls = [d % h for d in degrees]
    entries = draw(st.sampled_from([st.sampled_from([0, 1]), ENTRIES]))
    m = [[draw(entries) if cls[i] == (cls[j] - 1) % h else Fraction(0)
          for j in range(n)] for i in range(n)]
    return m, degrees, h


@settings(max_examples=300, deadline=None)
@given(graded_cyclic())
def test_graded_cycle_check_matches_reference(case):
    """Against the Fraction cycle check and against the dense answer."""
    m, degrees, h = case
    got = graded_cycle_check(m, degrees, h, "test", "random")
    assert got == ref_graded_cycle_check(m, degrees, h)
    assert got == {"kernel_dim": len(ref_nullspace(m)),
                   "semisimple": ref_is_semisimple(m),
                   "nilpotent": ref_is_nilpotent(m)}


def test_charpoly_inexact_division_survives_optimize():
    """With every product off by one, tr / 2 is inexact at step 2 of
    Faddeev-LeVerrier on the 3 x 3 zero matrix."""
    code = ("from rigidconn import linalg\n"
            "from rigidconn.errors import ConsistencyError\n"
            "mul = linalg._int_mul\n"
            "def off_by_one(rows, cols):\n"
            "    out = mul(rows, cols)\n"
            "    out[0][0] += 1\n"
            "    return out\n"
            "linalg._int_mul = off_by_one\n"
            "try:\n"
            "    linalg.charpoly([[0] * 3 for _ in range(3)])\n"
            "except ConsistencyError as exc:\n"
            "    print(exc)\n"
            "    raise SystemExit(3)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "charpoly: the trace at Faddeev-LeVerrier step 2" in proc.stdout
