"""Matrix connections: the six case constructors, gauge moves, scalar
reduction, and the slope at infinity."""

import ast
import glob
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (pdeg, pdivmod, pmonic, ref_gauge_transform, ref_pgcd,
                      ref_scalar_reduction)
from rigidconn import connection, linalg, poly
from rigidconn.cli import main
from rigidconn.connection import (MatrixConnection, ScalarOperator,
                                  adjoint_connection,
                                  companion_connection, g2_seven_dim,
                                  gauge_transform, scalar_reduction, sl2_sym,
                                  sl_standard, slope_at_infinity,
                                  so_odd_standard, sp_standard)
from rigidconn.errors import (ConsistencyError, CyclicVectorError,
                              SlopeVerificationError, ValidationError)
from rigidconn.formal import check_rigidity, kernel_dimension
from rigidconn.galois import cohomology_dims
from rigidconn.linalg import nullspace, zeros
from rigidconn.poly import RatFun
from rigidconn.weights import (principal_sl2_decomposition, weight_system)
from rigidconn.rootsys import build_root_system


@pytest.mark.parametrize("n", range(2, 9))
def test_sl_scalar_operator(n):
    op = scalar_reduction(sl_standard(n))
    sign = "+" if n % 2 else "-"
    assert op.render() == "theta^%d %s t" % (n, sign)


@pytest.mark.parametrize("m", range(1, 5))
def test_so_scalar_operator(m):
    op = scalar_reduction(so_odd_standard(2 * m + 1))
    assert op.render() == "theta^%d - 2*t*theta - t" % (2 * m + 1)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_sp_equals_sl(n):
    assert sp_standard(n).coeffs == sl_standard(n).coeffs
    assert (scalar_reduction(sp_standard(n)).to_json_dict()
            == scalar_reduction(sl_standard(n)).to_json_dict())


def test_g2_equals_so7():
    assert g2_seven_dim().coeffs == so_odd_standard(7).coeffs
    assert (scalar_reduction(g2_seven_dim()).to_json_dict()
            == scalar_reduction(so_odd_standard(7)).to_json_dict())


def test_gauge_identity_fixes_connection():
    conn = sl_standard(3)
    g = [[RatFun(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert gauge_transform(conn, g).coeffs == conn.coeffs
    # a constant gauge keeps the zero connection zero, and its size
    zero = MatrixConnection({0: zeros(2, 2)}, "z")
    for g in ([[1, 0], [0, 1]], [[1, 2], [0, 1]]):
        out = gauge_transform(zero, g)
        assert (out.dim, out.coeffs, out.label) == (2, {}, "z gauged")


@pytest.mark.parametrize("m", (1, 2, 3))
def test_gauge_so_to_companion_form(m):
    """The upper-triangular gauge with t in the corner turns the so
    connection into companion form with first row (..., 2t, -t)."""
    n = 2 * m + 1
    conn = so_odd_standard(n)
    g = [[RatFun([0, 1]) if (i, j) == (0, n - 1) else RatFun(1 if i == j else 0)
          for j in range(n)] for i in range(n)]
    out = gauge_transform(conn, g)
    want0 = zeros(n, n)
    for i in range(1, n):
        want0[i][i - 1] = Fraction(1)
    want1 = zeros(n, n)
    want1[0][n - 2] = Fraction(2)
    want1[0][n - 1] = Fraction(-1)
    assert out.coefficient(0) == want0
    assert out.coefficient(1) == want1
    assert out.support() == [0, 1]


def test_gauge_diagonal_t_shifts_degrees():
    conn = sl_standard(3)
    g = [[RatFun([0, 1]), RatFun(0), RatFun(0)],
         [RatFun(0), RatFun(1), RatFun(0)],
         [RatFun(0), RatFun(0), RatFun(1)]]
    out = gauge_transform(conn, g)
    assert out.coefficient(2)[0][2] == 1
    assert out.coefficient(-1)[1][0] == 1
    assert out.coefficient(0)[0][0] == -1


def test_gauge_singular_rejected():
    conn = sl_standard(2)
    g = [[RatFun([0, 1]), RatFun(0)], [RatFun([0, 1]), RatFun(0)]]
    with pytest.raises(ValidationError):
        gauge_transform(conn, g)


def test_gauge_non_unit_rejected():
    conn = sl_standard(2)
    with pytest.raises(ValidationError, match="determinant is not a unit"):
        gauge_transform(conn, [[RatFun([1, 1]), 0], [0, 1]])
    with pytest.raises(ValidationError, match="Laurent polynomials"):
        gauge_transform(conn, [[RatFun(1, [1, 1]), 0], [0, 1]])
    with pytest.raises(ValidationError, match="size does not match"):
        gauge_transform(conn, [[1]])


SLOPE_CASES = [sl_standard(2), sl_standard(5), sp_standard(6),
               so_odd_standard(5), so_odd_standard(7), g2_seven_dim(),
               sl2_sym(4)]
# companion forms carry no rho_weights, so the grading is inferred from A(0)
COMPANION_SOURCES = [sl_standard(3), sl_standard(5), so_odd_standard(5),
                     sp_standard(4), g2_seven_dim(), sl2_sym(4)]


@pytest.mark.parametrize(
    "conn",
    SLOPE_CASES + [companion_connection(scalar_reduction(c))
                   for c in COMPANION_SOURCES],
    ids=([c.label for c in SLOPE_CASES]
         + ["companion of " + c.label for c in COMPANION_SOURCES]))
def test_slope_is_one_over_h(conn):
    assert slope_at_infinity(conn) == Fraction(1, conn.h)


def test_slope_rejects_inconsistent_inferred_grading():
    """A(0) ties index 0 to 1 in both directions, so no grading fits."""
    bad = MatrixConnection({0: [[0, 1], [1, 0]], 1: [[0, 1], [0, 0]]},
                           "two-way chain", h=2)
    with pytest.raises(ValidationError,
                       match=r"^inconsistent grading in two-way chain; "
                             r"provide rho_weights$"):
        slope_at_infinity(bad)


@pytest.mark.parametrize("key", [("A", 2), ("A", 3), ("B", 2), ("G", 2)])
def test_slope_adjoint_with_details(key):
    conn = adjoint_connection(*key)
    rs = build_root_system(*key)
    report = slope_at_infinity(conn, details=True)
    assert report["slope"] == Fraction(1, rs.coxeter_number)
    assert report["pole_order"] == 2
    assert len(nullspace(report["leading"])) == rs.rank


def test_slope_rejects_nilpotent_leading_term():
    bad = MatrixConnection({0: [[Fraction(0), Fraction(0)],
                                [Fraction(1), Fraction(0)]]},
                           "no irregular part", h=2,
                           rho_weights=[Fraction(1, 2), Fraction(-1, 2)])
    with pytest.raises(SlopeVerificationError):
        slope_at_infinity(bad)


def test_slope_rejects_mixed_leading_term():
    """The leading term is a nonzero 2-cycle on indices 0, 1 plus a
    Jordan block on 2, 3: neither nilpotent nor semisimple."""
    half = Fraction(1, 2)
    a0 = zeros(4, 4)
    a0[1][0] = a0[3][2] = Fraction(1)
    a1 = zeros(4, 4)
    a1[0][1] = Fraction(1)
    bad = MatrixConnection({0: a0, 1: a1}, "mixed leading term", h=2,
                           rho_weights=[half, -half, half, -half])
    with pytest.raises(SlopeVerificationError, match="not semisimple"):
        slope_at_infinity(bad)


def _sl2_with(coeffs, label):
    return MatrixConnection(coeffs, label, h=2,
                            rho_weights=sl_standard(2).rho_weights)


def test_slope_rejects_a_pole_of_order_four():
    """E at t and at t^2: entry (0, 1) of A_2 sits at u^(1 - 4), a pole of
    order 4 after the gauge; with the weights 1/2, 0 instead, entry
    (1, 0) of A_1 sits at u^(-5/2)."""
    base = sl_standard(2)
    e = base.coefficient(1)
    bad = _sl2_with({0: base.coefficient(0), 1: e, 2: e}, "sl2 E at t, t^2")
    with pytest.raises(SlopeVerificationError,
                       match=r"^pole order 4 at infinity exceeds 2 for "
                             r"sl2 E at t, t\^2$"):
        slope_at_infinity(bad)
    half = MatrixConnection({1: [[0, 0], [1, 0]]}, "half step", h=2,
                            rho_weights=[Fraction(1, 2), 0])
    with pytest.raises(SlopeVerificationError,
                       match=r"^pole order 7/2 at infinity exceeds 2 for "
                             r"half step$"):
        slope_at_infinity(half)


def test_slope_rejects_a_connection_without_second_order_pole():
    """A(1) = 0 and a diagonal A(0): every exponent is 0."""
    bad = _sl2_with({0: [[1, 0], [0, 2]]}, "diagonal")
    with pytest.raises(SlopeVerificationError,
                       match=r"^no second-order pole at infinity for "
                             r"diagonal$"):
        slope_at_infinity(bad)


def test_slope_with_half_integer_weights(monkeypatch):
    """sl4 standard has the weights 3/2, 1/2, -1/2, -3/2: its one cycle of
    degree classes is labelled by a half-integer, and its leading term is
    -4 (N + E)."""
    labels = []

    def recorded(power, stage, label):
        labels.append(label)
        return semisimple(power, stage, label)

    semisimple = linalg.is_semisimple
    monkeypatch.setattr(linalg, "is_semisimple", recorded)
    report = slope_at_infinity(sl_standard(4), details=True)
    assert report["slope"] == Fraction(1, 4)
    assert report["leading"] == [[0, 0, 0, -4], [-4, 0, 0, 0],
                                 [0, -4, 0, 0], [0, 0, -4, 0]]
    assert labels == ["the class-5/2 block of (the leading term at "
                      "infinity of sl4 standard)^4"]


def test_connection_keeps_ints_and_fractions():
    """Fraction entries and rho weights are kept as the same objects and
    ints stay ints; any other number becomes the exact Fraction of its
    value."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    conn = MatrixConnection({0: [[half, 2], [0, third]],
                             1: [[0.5, True], ["1/3", 0]]}, "kept",
                            rho_weights=[half, 1, 0.5, True, "1/3"])
    mat = conn.coeffs[0]
    assert mat[0][0] is half and mat[1][1] is third
    assert conn.rho_weights[0] is half
    assert [type(x) for row in mat for x in row] == [Fraction, int, int,
                                                     Fraction]
    assert mat[0][1] == 2 and mat[1][0] == 0
    converted = [Fraction(1, 2), Fraction(1), Fraction(1, 3)]
    for got in ([x for row in conn.coeffs[1] for x in row][:3],
                conn.rho_weights[2:]):
        assert got == converted
        assert [type(x) for x in got] == [Fraction] * 3
    assert type(conn.rho_weights[1]) is int and conn.rho_weights[1] == 1


# the built models whose entries and rho weights are checked for int input
INT_MODELS = ([sl_standard(n) for n in (2, 3, 4, 5)]
              + [so_odd_standard(n) for n in (3, 5, 7)]
              + [sp_standard(4), g2_seven_dim()]
              + [sl2_sym(k) for k in (3, 4, 5)]
              + [adjoint_connection(*key) for key in
                 [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]])


def _as_fractions(conn):
    """conn rebuilt with every entry and rho weight wrapped in Fraction."""
    return MatrixConnection(
        {k: [[Fraction(x) for x in row] for row in mat]
         for k, mat in conn.coeffs.items()}, conn.label, h=conn.h,
        rho_weights=[Fraction(w) for w in conn.rho_weights], group=conn.group)


@pytest.mark.parametrize("conn", INT_MODELS, ids=lambda c: c.label)
def test_int_and_fraction_entries_agree(conn):
    """The built models hold int entries; the same model with Fraction
    entries gives the same JSON, slope, leading term and scalar operator."""
    assert {type(x) for mat in conn.coeffs.values() for row in mat
            for x in row} == {int}
    frac = _as_fractions(conn)
    assert {type(x) for mat in frac.coeffs.values() for row in mat
            for x in row} == {Fraction}
    assert conn.to_json_dict() == frac.to_json_dict()
    got, want = (slope_at_infinity(c, details=True) for c in (conn, frac))
    assert (got["slope"], got["pole_order"]) == (want["slope"],
                                                 want["pole_order"])
    assert got["leading"] == want["leading"]
    got, want = scalar_reduction(conn), scalar_reduction(frac)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.render() == want.render()


@pytest.mark.parametrize("conn", [sl_standard(3), sl2_sym(3),
                                  adjoint_connection("A", 1)],
                         ids=lambda c: c.label)
def test_int_and_fraction_entries_agree_on_rigidity(conn):
    """check_rigidity at the floor 2 dim + 2h reads the same dimensions
    and flags off int and Fraction entries."""
    floor = 2 * conn.dim + 2 * conn.h
    got, want = (check_rigidity(c, c.dual(), floor)
                 for c in (conn, _as_fractions(conn)))
    for key in ("dimensions", "passed", "splits", "h1", "stabilized"):
        assert got[key] == want[key], key


@pytest.mark.parametrize("conn", INT_MODELS, ids=lambda c: c.label)
def test_no_float_leaks_from_int_entries(conn):
    """Entries, their dual and gauged forms, the leading term at infinity
    and the rho weights of the built models are ints or Fractions."""
    n = conn.dim
    g = [[RatFun([0, 1]) if (i, j) == (0, n - 1) else int(i == j)
          for j in range(n)] for i in range(n)]
    mats = list(conn.coeffs.values()) + list(conn.dual().coeffs.values())
    mats += [conn.coefficient(k) for k in conn.support() + [-1]]
    mats += list(gauge_transform(conn, g).coeffs.values())
    mats.append(slope_at_infinity(conn, details=True)["leading"])
    types = {type(x) for mat in mats for row in mat for x in row}
    assert types <= {int, Fraction}, types
    assert {type(w) for w in conn.rho_weights} <= {int, Fraction}


@pytest.mark.parametrize("weights,match", [
    ([Fraction(1, 5), 0, -1], r"rho weight 1/5 at index 0 of sl3 standard"),
    ([1, -1], r"sl3 standard has 2 rho_weights for dimension 3"),
])
def test_slope_rejects_bad_weights(weights, match):
    """1/5 is not in (1/2h) Z = (1/6) Z, so some exponent would not be."""
    base = sl_standard(3)
    bad = MatrixConnection(base.coeffs, base.label, h=3, rho_weights=weights)
    with pytest.raises(ValidationError, match=match):
        slope_at_infinity(bad)


def test_slope_rejects_weights_off_the_lattice_under_optimize():
    code = ("from fractions import Fraction\n"
            "from rigidconn.connection import (MatrixConnection, "
            "sl_standard, slope_at_infinity)\n"
            "from rigidconn.errors import ValidationError\n"
            "base = sl_standard(3)\n"
            "bad = MatrixConnection(base.coeffs, base.label, h=3, "
            "rho_weights=[Fraction(1, 5), 0, -1])\n"
            "try:\n"
            "    slope_at_infinity(bad)\n"
            "except ValidationError:\n"
            "    raise SystemExit(2)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 2


def test_slope_needs_h():
    conn = MatrixConnection({0: [[Fraction(0)]]}, "bare")
    with pytest.raises(ValidationError):
        slope_at_infinity(conn)



@pytest.mark.parametrize("h", [0, -3, 2.0, Fraction(3), True, "3"])
def test_connection_rejects_a_bad_coxeter_number(h):
    """A bad h is bad input, not a failed slope check further on."""
    base = sl_standard(3)
    with pytest.raises(ValidationError, match="Coxeter number h of sl3"):
        MatrixConnection(base.coeffs, base.label, h=h,
                         rho_weights=base.rho_weights)


@pytest.mark.parametrize("conn", [sl_standard(3), so_odd_standard(5),
                                  g2_seven_dim()], ids=lambda c: c.label)
def test_companion_form_has_same_solution_spaces(conn):
    op = scalar_reduction(conn)
    comp = companion_connection(op)
    for space in ("taylor0", "taylor_inf", "two_sided", "laurent_polys"):
        ours = kernel_dimension(conn, space, 30)
        theirs = kernel_dimension(comp, space, 30)
        assert ours.dimension == theirs.dimension


def test_non_cyclic_vector_reported():
    """Two independent sl2 blocks: e1 only sees the first one."""
    a0 = zeros(4, 4)
    a0[1][0] = Fraction(1)
    a0[3][2] = Fraction(1)
    a1 = zeros(4, 4)
    a1[0][1] = Fraction(1)
    a1[2][3] = Fraction(1)
    conn = MatrixConnection({0: a0, 1: a1}, "two sl2 blocks", h=2)
    with pytest.raises(CyclicVectorError) as info:
        scalar_reduction(conn)
    assert info.value.rank_found == 2
    assert info.value.needed == 4


def test_zero_connections():
    """__init__ keeps no coefficient of a zero connection."""
    one = MatrixConnection({0: [[0]]}, "zero 1x1")
    assert one.coeffs == {}
    assert scalar_reduction(one).render() == "theta^1"
    assert one.dual().coeffs == {}
    assert one.dual().dim == 1
    two = MatrixConnection({0: zeros(2, 2), 1: zeros(2, 2)}, "zero 2x2", h=2)
    dual = two.dual()
    assert (dual.dim, dual.coeffs, dual.label) == (2, {}, "zero 2x2 dual")
    with pytest.raises(CyclicVectorError) as info:
        scalar_reduction(two)
    assert (info.value.rank_found, info.value.needed) == (1, 2)


def _assert_same_operator(conn):
    got = scalar_reduction(conn)
    want = ref_scalar_reduction(conn)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.render() == want.render()
    assert got.h == want.h


BUILT_MODELS = ([sl_standard(n) for n in range(2, 9)]
                + [so_odd_standard(n) for n in (3, 5, 7, 9)]
                + [sp_standard(n) for n in (2, 4, 6, 8)]
                + [g2_seven_dim()] + [sl2_sym(k) for k in range(1, 13)]
                + [adjoint_connection("A", 2)])


@pytest.mark.parametrize("conn", BUILT_MODELS, ids=lambda c: c.label)
def test_scalar_reduction_matches_ratfun_reference(conn):
    _assert_same_operator(conn)


# (model, highest weight of its representation, or None for a standard
# representation, whose irregularity at infinity is 1)
LOCAL_DATA = ([(sl_standard(n), None) for n in range(2, 9)]
              + [(so_odd_standard(n), None) for n in (3, 5, 7, 9)]
              + [(sp_standard(n), None) for n in (2, 4, 6, 8)]
              + [(g2_seven_dim(), None)]
              + [(sl2_sym(k), (k,)) for k in range(1, 13)]
              + [(adjoint_connection(t, r), build_root_system(t, r).theta)
                 for t, r in (("A", 1), ("A", 2), ("B", 2))])


def _newton_at_infinity(op):
    """(largest slope, irregularity) of op's Newton polygon at t = infinity.

    theta_t = -theta_s for s = 1/t, so c_j theta^j sits at height
    -v(c_j) = deg num - deg den; with theta^n at height 0 the largest
    slope is max_j -v(c_j) / (n - j) and the irregularity the largest
    height, at least 0."""
    heights = [(j, pdeg(c.num) - pdeg(c.den))
               for j, c in enumerate(op.coeffs) if not c.is_zero()]
    return (max(Fraction(g, op.order - j) for j, g in heights),
            max([0] + [g for _, g in heights]))


def _indicial_at_zero(op):
    """theta^n + sum_j c_j(0) theta^j, ascending, once every c_j is
    checked to be regular at t = 0 (0 is a regular singular point)."""
    poly = []
    for c in op.coeffs:
        k = next(i for i, x in enumerate(c.den) if x)
        assert not any(c.num[:k])
        poly.append(c.num[k] / c.den[k] if len(c.num) > k else Fraction(0))
    return poly + [Fraction(1)]


def _integer_roots(p):
    """(integer roots with multiplicity, the monic cofactor left)."""
    roots = []
    bound = 1 + int(max(map(abs, p[:-1]), default=0))
    for r in range(-bound, bound + 1):
        while len(p) > 1:
            quot, rem = pdivmod(p, [Fraction(-r), Fraction(1)])
            if rem:
                break
            roots.append(r)
            p = quot
    return roots, p


@pytest.mark.parametrize("conn,highest", LOCAL_DATA,
                         ids=[c.label for c, _ in LOCAL_DATA])
def test_scalar_operator_local_data(conn, highest):
    """A second route to the local data, read off the scalar operator
    alone: slope 1/h at infinity, the irregularity of the weight formula,
    and integer exponents at 0 (unipotent monodromy; the apparent
    singularities of e_0 can add exponents other than 0)."""
    op = scalar_reduction(conn)
    slope, irr = _newton_at_infinity(op)
    assert slope == Fraction(1, conn.h)
    assert irr == (1 if highest is None
                   else cohomology_dims(*conn.group, highest).irr)
    roots, rest = _integer_roots(_indicial_at_zero(op))
    assert rest == [Fraction(1)] and len(roots) == conn.dim


def test_adjoint_a2_indicial_polynomial():
    """The coefficients of the A2 adjoint operator are not Laurent, and its
    indicial polynomial at 0 is theta^3 (theta + 1)^4 (theta + 2)."""
    op = scalar_reduction(adjoint_connection("A", 2))
    assert op.laurent_coefficients() is None
    indicial = _indicial_at_zero(op)
    assert indicial == [0, 0, 0, 2, 9, 16, 14, 6, 1]
    assert _integer_roots(indicial) == ([-2] + [-1] * 4 + [0] * 3, [1])


def _t(k):
    return RatFun([Fraction(0)] * k + [Fraction(1)], [Fraction(1)])


def _inv_t():
    return RatFun([Fraction(1)], [Fraction(0), Fraction(1)])


def _gauge(n, entries):
    """The identity of size n with {(i, j): RatFun} entries put in."""
    return [[entries.get((i, j), RatFun(1 if i == j else 0))
             for j in range(n)] for i in range(n)]


GAUGED = [
    (sl_standard(3), {(0, 0): _t(1)}),
    (sl_standard(3), {(1, 1): _inv_t()}),
    (sl_standard(3), {(0, 1): _inv_t()}),
    (sl_standard(3), {(1, 0): _inv_t(), (0, 0): _t(1)}),
    (sl_standard(3), {(0, 0): _t(1), (2, 2): _inv_t()}),
    (so_odd_standard(5), {(0, 0): _t(1)}),
    (so_odd_standard(5), {(2, 2): _inv_t(), (0, 4): _t(1)}),
    (so_odd_standard(5), {(1, 3): _inv_t()}),
]


@pytest.mark.parametrize("conn,entries", GAUGED,
                         ids=[str(i) for i in range(len(GAUGED))])
def test_gauged_scalar_reduction_matches_ratfun_reference(conn, entries):
    gauged = gauge_transform(conn, _gauge(conn.dim, entries))
    assert min(gauged.support()) < 0
    _assert_same_operator(gauged)


SMALL_Q = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                    st.integers(-2, 2).map(Fraction),
                    st.fractions(-3, 3, max_denominator=4))


@st.composite
def laurent_connections(draw):
    """theta + sum_{k=-1..1} A_k t^k, dim 2 or 3, mostly sparse so that
    e_0 often fails to generate."""
    d = draw(st.integers(2, 3))
    powers = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3,
                           unique=True))
    coeffs = {k: [[draw(SMALL_Q) for _ in range(d)] for _ in range(d)]
              for k in powers}
    return MatrixConnection(coeffs, "random Laurent")


@settings(max_examples=150, deadline=None)
@given(laurent_connections())
def test_scalar_reduction_matches_reference_on_laurent_connections(conn):
    try:
        want = ref_scalar_reduction(conn)
    except CyclicVectorError as exc:
        with pytest.raises(CyclicVectorError) as info:
            scalar_reduction(conn)
        assert ((info.value.rank_found, info.value.needed)
                == (exc.rank_found, exc.needed))
        return
    got = scalar_reduction(conn)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.render() == want.render()


def test_scalar_reduction_remainder_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(connection, "pzdivmod", _int_remainder_one)
    with pytest.raises(ConsistencyError,
                       match=r"^scalar_reduction: dividing .* leaves the "
                             r"remainder 1 for sl3 standard$"):
        scalar_reduction(sl_standard(3))


def test_scalar_reduction_remainder_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(connection, "pzdivmod", _int_remainder_one)
    assert main(["scalar", "--group", "sl3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("consistency failure: scalar_reduction:")
    assert "sl3 standard" in err


def test_scalar_reduction_remainder_survives_optimize():
    code = ("from rigidconn import connection\n"
            "from rigidconn.errors import ConsistencyError\n"
            "connection.pzdivmod = lambda p, q: ([], [1])\n"
            "try:\n"
            "    connection.scalar_reduction(connection.sl_standard(3))\n"
            "except ConsistencyError as exc:\n"
            "    raise SystemExit(3 if 'sl3 standard' in str(exc) else 1)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 3


def _laurent(terms):
    """The RatFun sum of c t^k over {k: c}, k >= -1."""
    return RatFun([terms.get(k, 0) for k in range(-1, 2)],
                  [Fraction(0), Fraction(1)])


@st.composite
def gauged_models(draw):
    """(conn, g) with conn a built model of dimension 2-4 and g = S U D:
    S a row permutation, U unitriangular with Laurent entries above the
    diagonal, D diagonal with entries c t^k."""
    conn = draw(st.sampled_from([c for c in BUILT_MODELS if c.dim <= 4]))
    n = conn.dim
    perm = draw(st.permutations(range(n)))
    upper = {(i, j): _laurent({k: draw(SMALL_Q) for k in range(-1, 2)})
             for i in range(n) for j in range(i + 1, n)}
    diag = [_laurent({draw(st.integers(-1, 1)):
                      draw(st.sampled_from((1, -1, 2, Fraction(-1, 3))))})
            for _ in range(n)]
    unit = _gauge(n, upper)
    return conn, [[unit[perm[i]][j] * diag[j] for j in range(n)]
                  for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(gauged_models())
def test_gauge_transform_matches_ratfun_reference(case):
    conn, g = case
    got, want = gauge_transform(conn, g), ref_gauge_transform(conn, g)
    assert (got.coeffs, got.label, got.h, got.group) == (
        want.coeffs, want.label, want.h, want.group)


def test_gauge_remainder_is_a_consistency_error(monkeypatch):
    monkeypatch.setattr(connection, "pzdivmod", _int_remainder_one)
    with pytest.raises(ConsistencyError,
                       match=r"^gauge_transform: dividing .* leaves the "
                             r"remainder 1 for so5 standard$"):
        gauge_transform(so_odd_standard(5), _gauge(5, {(0, 4): _t(1)}))


def test_gauge_remainder_survives_optimize():
    code = ("from rigidconn import connection\n"
            "from rigidconn.errors import ConsistencyError\n"
            "connection.pzdivmod = lambda p, q: ([], [1])\n"
            "conn = connection.sl_standard(3)\n"
            "g = [[int(i == j) for j in range(3)] for i in range(3)]\n"
            "try:\n"
            "    connection.gauge_transform(conn, g)\n"
            "except ConsistencyError as exc:\n"
            "    raise SystemExit(3 if str(exc).startswith('gauge_transform:')"
            " and 'sl3 standard' in str(exc) else 1)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 3


KERNEL_CASES = [
    (sl_standard(4), "A", 3, (1, 0, 0)),
    (so_odd_standard(7), "B", 3, (1, 0, 0)),
    (g2_seven_dim(), "G", 2, (1, 0)),
    (adjoint_connection("A", 2), "A", 2, (1, 1)),
    (sl2_sym(4), "A", 1, (4,)),
]


@pytest.mark.parametrize("conn,type_label,rank_,lam", KERNEL_CASES,
                         ids=lambda v: getattr(v, "label", str(v)))
def test_constant_term_kernel_counts_sl2_strings(conn, type_label, rank_,
                                                 lam):
    rs = build_root_system(type_label, rank_)
    dec = principal_sl2_decomposition(weight_system(rs, lam))
    assert len(nullspace(conn.coefficient(0))) == dec.summand_count()


def test_nilpotency_of_both_terms():
    for conn in (sl_standard(4), so_odd_standard(5), adjoint_connection("B", 2)):
        from rigidconn.linalg import is_nilpotent
        assert is_nilpotent(conn.coefficient(0))
        assert is_nilpotent(conn.coefficient(1))


def test_json_shape_and_rendering():
    conn = sl2_sym(1)
    assert conn.render_entry(0, 1) == "t"
    assert conn.render_entry(1, 0) == "1"
    assert conn.render_entry(0, 0) == "0"
    data = conn.to_json_dict()
    assert data["dimension"] == 2
    assert data["entries"]["0,1"] == {"1": "1"}
    assert data["entries"]["1,0"] == {"0": "1"}


def test_dual_negates_transpose():
    conn = sl2_sym(2)
    dual = conn.dual()
    assert dual.label == "sl2 Sym^2 dual"
    for k, mat in conn.coeffs.items():
        assert dual.coefficient(k) == [[-mat[j][i] for j in range(3)]
                                       for i in range(3)]
    assert dual.rho_weights == [-w for w in conn.rho_weights]


def test_scalar_operator_json():
    op = scalar_reduction(sl_standard(4))
    data = op.to_json_dict()
    assert data["order"] == 4
    assert data["theta_coefficients"][0] == {"1": "-1"}
    assert data["theta_coefficients"][1] == {}


# sha256 of json.dumps(op.to_json_dict(), sort_keys=True), a newline and
# op.render(), recorded with the scalar reduction over Q[t]
ADJOINT_OPERATOR_HASHES = {
    ("G", 2): "408c06cfd7f272bfc3d6f9af41fc186c304359ed40115d2dfa507306a7deec3b",
    ("A", 3): "7edba731a170d2a505d1a1a078cc5b9035288c9b7c347ceaf62231456fa88de9",
}


@pytest.mark.parametrize("key", sorted(ADJOINT_OPERATOR_HASHES),
                         ids=lambda key: "%s%d" % key)
def test_adjoint_scalar_operator_is_pinned(key):
    op = scalar_reduction(adjoint_connection(*key))
    text = json.dumps(op.to_json_dict(), sort_keys=True) + "\n" + op.render()
    assert (hashlib.sha256(text.encode()).hexdigest()
            == ADJOINT_OPERATOR_HASHES[key])


INT_POLYS = st.lists(st.integers(-40, 40), max_size=6).map(poly.ptrim)


@settings(max_examples=300, deadline=None)
@given(INT_POLYS.filter(bool), INT_POLYS, INT_POLYS)
def test_exact_divider_over_z(q, r, s):
    """(q r) / q is r in Z[t]; q r + s with s nonzero of lower degree than
    q is no multiple of q, and dividing it raises ConsistencyError."""
    assert connection._exact_div(poly.pmul(q, r), q, "stage", "x") == r
    s = poly.ptrim(s[:len(q) - 1])
    if s:
        with pytest.raises(ConsistencyError, match=r"^stage: dividing .* by "
                                                   r".* leaves the remainder "
                                                   r".* for x$"):
            connection._exact_div(poly.padd(poly.pmul(q, r), s), q,
                                  "stage", "x")


def test_exact_divider_needs_an_integral_quotient():
    """1 + t over 2 + 2t is 1/2: a quotient in Q[t] but not in Z[t]."""
    with pytest.raises(ConsistencyError,
                       match=r"leaves the remainder 1 \+ t for x$"):
        connection._exact_div([1, 1], [2, 2], "stage", "x")


def _int_remainder_one(p, q):
    return [], [1]


POLYS = st.lists(SMALL_Q, max_size=6).map(poly.ptrim)


@settings(max_examples=300, deadline=None)
@given(POLYS, POLYS, POLYS)
def test_pgcd_matches_euclid(p, q, common):
    """The primitive remainder sequence gives Euclid's monic gcd, also
    with a common factor put into both; RatFun reduces over Z[t] to the
    num/den that Euclid's gcd and long division over Q give."""
    assert poly.pgcd(p, q) == ref_pgcd(p, q)
    p, q = poly.pmul(p, common), poly.pmul(q, common)
    got = poly.pgcd(p, q)
    assert got == ref_pgcd(p, q)
    assert all(type(x) is Fraction for x in got)
    if not q:
        with pytest.raises(ValidationError, match="zero denominator"):
            RatFun(p, q)
        return
    g = ref_pgcd(p, q)
    num, den = pdivmod(p, g)[0], pdivmod(q, g)[0]
    f = RatFun(p, q)
    assert f.num == [c / den[-1] for c in num] and f.den == pmonic(den)
    assert all(type(x) is Fraction for x in f.num + f.den)
    assert f.den[-1] == 1


def test_poly_checks_raise():
    with pytest.raises(ValidationError, match="by the zero polynomial"):
        poly.pzdivmod([1], [])
    with pytest.raises(ValidationError, match="zero denominator"):
        RatFun([Fraction(1)], [Fraction(0)])
    with pytest.raises(ValidationError, match="zero denominator"):
        RatFun(1, 0)
    with pytest.raises(ValidationError, match="zero denominator"):
        RatFun(0, 0)
    with pytest.raises(ValidationError, match="numerator takes no denominator"):
        RatFun(RatFun(2), [Fraction(1)])
    with pytest.raises(ValidationError, match="by zero rational function"):
        RatFun(2) / RatFun(0)


def test_poly_and_chevalley_checks_survive_optimize():
    """The five checks that were asserts raise under python -O, and so
    do the scalar zero denominators, the check for a non-integral weight
    coordinate, the exact division of a structure constant and its cycle
    check."""
    code = ("from fractions import Fraction\n"
            "from rigidconn import chevalley, poly, weights\n"
            "from rigidconn.errors import ConsistencyError, ValidationError\n"
            "from rigidconn.rootsys import RootSystem, build_root_system\n"
            "def raises(exc, fn, *args):\n"
            "    try:\n"
            "        fn(*args)\n"
            "    except exc:\n"
            "        return 1\n"
            "    return 0\n"
            "one = [Fraction(1)]\n"
            "got = raises(ValidationError, poly.pzdivmod, [1], [])\n"
            "got += raises(ValidationError, poly.RatFun, one, [0])\n"
            "got += raises(ValidationError, poly.RatFun, 1, 0)\n"
            "got += raises(ValidationError, poly.RatFun, 0, 0)\n"
            "got += raises(ValidationError, poly.RatFun, poly.RatFun(2), one)\n"
            "got += raises(ValidationError, poly.RatFun(2).__truediv__, "
            "poly.RatFun(0))\n"
            "alg = chevalley.ChevalleyAlgebra(build_root_system('A', 2))\n"
            "got += raises(ConsistencyError, alg.extraspecial_pair, (1, 0))\n"
            "got += raises(ValidationError, weights.weight_system, "
            "alg.rs, (2.5, 0))\n"
            "rs = RootSystem('B', 2)\n"
            "rs.down[(1, 0)][1] += 1\n"
            "got += raises(ConsistencyError, chevalley.ChevalleyAlgebra(rs)"
            ".structure_constant, (-1, 2), (0, -2))\n"
            "rs = RootSystem('G', 2)\n"
            "rs.down[(3, -1)][1] += 1\n"
            "got += raises(ConsistencyError, chevalley.ChevalleyAlgebra(rs)"
            ".structure_constant, (2, -1), (1, 0))\n"
            "raise SystemExit(3 if got == 10 else 1)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 3


def test_src_has_no_assert():
    """Internal checks raise, so none is lost under python -O."""
    pkg = os.path.dirname(connection.__file__)
    paths = sorted(glob.glob(os.path.join(pkg, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(paths):
    """'file:line name' for each name that a module imports and never uses."""
    unused = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (os.path.basename(path), line, name)
                   for name, line in imported.items() if name not in used]
    return unused


def test_src_imports_are_used():
    """Every name a module of the package imports is used in it, so a
    deletion leaves no stale import behind; __init__.py re-exports."""
    pkg = os.path.dirname(connection.__file__)
    paths = [path for path in sorted(glob.glob(os.path.join(pkg, "*.py")))
             if os.path.basename(path) != "__init__.py"]
    assert paths
    assert _unused_imports(paths) == []


def test_test_imports_are_used():
    """The same for the test modules, conftest.py included."""
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py")))
    assert os.path.join(os.path.dirname(__file__), "conftest.py") in paths
    assert _unused_imports(paths) == []


def test_rendering_has_no_digit_limit():
    """str() of an int past 4,300 digits raises ValueError in CPython;
    rendered and JSON output print a 5,000-digit coefficient in full."""
    big = 10 ** 4999 + 1
    digits = "1" + "0" * 4998 + "1"
    assert RatFun([big]).render() == digits
    assert RatFun([Fraction(-big, 3), 1]).render() == "-%s/3 + t" % digits
    assert RatFun([big], [1, 1]).render() == "(%s)/(1 + t)" % digits
    op = ScalarOperator([RatFun([0, big]), RatFun([big], [1, 1])])
    assert op.to_json_dict()["theta_coefficients_rational"][1] == (
        "(%s)/(1 + t)" % digits)
    assert ScalarOperator([RatFun([0, big])]).to_json_dict() == {
        "order": 1, "theta_coefficients": [{"1": digits}]}
    conn = MatrixConnection({1: [[big]]}, "big")
    assert conn.to_json_dict()["entries"] == {"0,0": {"1": digits}}
    assert conn.render_entry(0, 0) == digits + "*t"
