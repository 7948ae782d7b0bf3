"""Chevalley structure constants, the principal triple, and the loop window."""

import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest

from conftest import (is_zero_matrix, jacobi_scan, loop_bracket, mat_pow,
                      ref_killing_form, ref_string_below)
from rigidconn import linalg
from rigidconn.chevalley import (ChevalleyAlgebra, KacWindow, build_chevalley,
                                 heisenberg_pairing_check, kostant_check,
                                 principal_triple)
from rigidconn.errors import ConsistencyError, ValidationError
from rigidconn.linalg import is_semisimple, mat_vec, nullspace, rank
from rigidconn.rootsys import SUPPORTED, RootSystem, build_root_system

SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
         ("G", 2)]


@pytest.mark.parametrize("key", SMALL + [("D", 4)])
def test_jacobi_exhaustive(key):
    assert jacobi_scan(build_chevalley(*key)) == 0


@pytest.mark.parametrize("key", SMALL)
def test_dimension(key):
    alg = build_chevalley(*key)
    assert alg.dim == alg.rank * (alg.rs.coxeter_number + 1)


@pytest.mark.parametrize("key", [("A", 3), ("B", 3), ("G", 2), ("D", 4)])
def test_structure_constants_are_chain_lengths(key):
    """|N(alpha, beta)| = p + 1 with p the length of the alpha-string
    below beta, for every pair of positive roots with root sum; alpha
    need not be simple, so p comes from walking the string."""
    alg = build_chevalley(*key)
    for a in alg.pos:
        for b in alg.pos:
            total = tuple(x + y for x, y in zip(a, b))
            if a == b or total not in alg.rs.root_set:
                continue
            n = alg.structure_constant(a, b)
            assert abs(n) == ref_string_below(alg.rs, a, b) + 1
            assert n.denominator == 1


ALL_TYPES = [(t, n) for t, (lo, hi) in sorted(SUPPORTED.items())
             for n in range(lo, hi + 1)]


@pytest.mark.parametrize("key", ALL_TYPES, ids=lambda key: "%s%d" % key)
def test_extraspecial_pair_is_the_least_in_root_order(key):
    """The pair read off the string table is the one a search of all
    positive roots finds: the least alpha in root order (height, then
    tuple) with gamma - alpha a positive root after it."""
    alg = build_chevalley(*key)
    order = {beta: k for k, beta in enumerate(alg.pos)}
    for gamma in alg.pos:
        pairs = [(a, tuple(g - x for g, x in zip(gamma, a))) for a in alg.pos]
        pairs = [(a, b) for a, b in pairs if order.get(b, -1) > order[a]]
        if not pairs:
            assert alg.rs.height[gamma] == 1
            with pytest.raises(ConsistencyError, match="no special pair"):
                alg.extraspecial_pair(gamma)
        else:
            assert alg.rs.height[pairs[0][0]] == 1
            assert alg.extraspecial_pair(gamma) == pairs[0]


# sha256 of every N(a, b) over all pairs of roots with a root sum, and of
# ad N and ad E, on the 33 supported types, recorded before the structure
# constants read the string table of RootSystem
STRUCTURE_HASH = ("f799c726c7729187bdde78c3a4c82aa3"
                  "f658e3d69f986c7594013fff1252c11f")


def test_structure_constants_are_pinned():
    digest = hashlib.sha256()
    for key in ALL_TYPES:
        alg = build_chevalley(*key)
        roots = alg.root_of_index[alg.rank:]
        for a in roots:
            for b in roots:
                if tuple(x + y for x, y in zip(a, b)) in alg.rs.root_set:
                    digest.update(("%s%s%s;" % (
                        a, b, alg.structure_constant(a, b))).encode())
        n, e, _ = principal_triple(alg)
        for m in (alg.ad_matrix(n), alg.ad_matrix(e)):
            digest.update(repr([[str(x) for x in row] for row in m]).encode())
    assert digest.hexdigest() == STRUCTURE_HASH


@pytest.mark.parametrize("key", ALL_TYPES, ids=lambda key: "%s%d" % key)
def test_chevalley_data_are_ints(key):
    """Structure constants, brackets, N, E and their ad matrices are
    Python ints; rho-check and its ad matrix alone hold Fractions."""
    alg = build_chevalley(*key)
    roots = alg.root_of_index[alg.rank:]
    got = [alg.structure_constant(a, b) for a in roots for b in roots
           if tuple(x + y for x, y in zip(a, b)) in alg.rs.root_set]
    got += [c for i in range(alg.dim) for j in range(alg.dim)
            for c in alg.bracket_indices(i, j).values()]
    n, e, rho = principal_triple(alg)
    got += list(n.values()) + list(e.values())
    got += [x for m in (alg.ad_matrix(n), alg.ad_matrix(e)) for row in m
            for x in row]
    assert {type(x) for x in got} == {int}
    assert {type(x) for x in rho.values()} == {Fraction}
    assert {type(x) for row in alg.ad_matrix(rho) for x in row} == {Fraction}


@pytest.mark.parametrize("key,beta,i,pair,identity,quotient", [
    (("B", 2), (1, 0), 1, ((-1, 2), (0, -2)), "rotation", "-6/4"),
    (("A", 3), (1, 1, -1), 2, ((2, -1, 0), (-1, 1, 1)), "quadruple",
     "8/16"),
], ids=["rotation", "quadruple"])
def test_inexact_structure_constant_is_a_consistency_error(
        key, beta, i, pair, identity, quotient):
    """One alpha_i-string below beta made one step too long changes a
    structure constant read off the string table, and an identity that
    reads it divides inexactly.  The corrupted root system is a fresh
    one: the shared one keeps its table."""
    rs = RootSystem(*key)
    rs.down[beta][i] += 1
    with pytest.raises(ConsistencyError, match="^%s$" % re.escape(
            "chevalley: the %s identity gives N(%s, %s) = %s of %s, not an "
            "integer" % (identity, pair[0], pair[1], quotient, rs.label()))):
        ChevalleyAlgebra(rs).structure_constant(*pair)
    assert build_root_system(*key).down[beta][i] == rs.down[beta][i] - 1


@pytest.mark.parametrize("key,beta,i,pair,cycle", [
    (("G", 2), (3, -1), 1, ((2, -1), (1, 0)), ((-3, 2), (6, -3))),
    (("C", 3), (2, 0, 0), 2, ((2, -1, 0), (0, 1, 0)),
     ((0, -2, 2), (2, 2, -2))),
    (("B", 3), (1, -1, 2), 1, ((0, -1, 2), (1, 0, 0)),
     ((-1, 2, -2), (2, -3, 4))),
], ids=["G2", "C3", "B3"])
def test_cyclic_structure_constant_is_a_consistency_error(key, beta, i, pair,
                                                          cycle):
    """A string table whose rotation and sign rules call each other in a
    cycle raises ConsistencyError at the constant that recurs, not
    RecursionError.  The corrupted root system is a fresh one."""
    rs = RootSystem(*key)
    rs.down[beta][i] += 1
    with pytest.raises(ConsistencyError, match="^%s$" % re.escape(
            "chevalley: N(%s, %s) of %s depends on itself"
            % (cycle[0], cycle[1], rs.label()))):
        ChevalleyAlgebra(rs).structure_constant(*pair)
    assert build_root_system(*key).down[beta][i] == rs.down[beta][i] - 1


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2)])
def test_kappa_invariance_and_normalization(key):
    alg = build_chevalley(*key)
    assert alg.kappa(alg.e_theta(), alg.f_theta()) == 1
    rng = random.Random(17)
    one = Fraction(1)
    for _ in range(60):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        x, y, z = {i: one}, {j: one}, {k: one}
        assert (alg.kappa(alg.bracket(x, y), z)
                + alg.kappa(y, alg.bracket(x, z))) == 0


@pytest.mark.parametrize("key", ALL_TYPES, ids=lambda key: "%s%d" % key)
def test_kappa_closed_form_matches_killing_traces(key):
    """The closed form read off the Cartan matrix and the root lengths is
    the Killing form by traces of ad e_beta ad f_beta, normalised at theta."""
    alg = build_chevalley(*key)
    alg._build_kappa()
    assert alg._kappa == ref_killing_form(alg)


@pytest.mark.parametrize("key", SMALL)
def test_principal_triple_relations(key):
    alg = build_chevalley(*key)
    n, e, rho = principal_triple(alg)
    h = alg.rs.coxeter_number
    assert alg.bracket(rho, n) == {k: -v for k, v in n.items()}
    assert alg.bracket(rho, e) == {k: (h - 1) * v for k, v in e.items()}
    values = [alg.weight_of_index(i) for i in range(alg.dim)]
    assert all(1 - h <= v <= h - 1 for v in values)
    for k in range(1 - h, h):
        count = values.count(k)
        if k == 0:
            assert count == alg.rank
        else:
            roots_at = sum(1 for b in alg.rs.pos_roots
                           if alg.rs.height[b] == abs(k))
            assert count == roots_at


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2)])
def test_ad_n_nilpotency_index(key):
    alg = build_chevalley(*key)
    n, _, _ = principal_triple(alg)
    m = alg.ad_matrix(n)
    h = alg.rs.coxeter_number
    assert not is_zero_matrix(mat_pow(m, 2 * h - 2))
    assert is_zero_matrix(mat_pow(m, 2 * h - 1))


@pytest.mark.parametrize("key", SMALL + [("D", 4), ("F", 4)])
def test_kostant_regularity(key):
    alg = build_chevalley(*key)
    out = kostant_check(alg)
    assert out["kernel_dim"] == alg.rank
    assert out["minpoly_squarefree"]


def test_kostant_blocked_path_agrees_with_direct():
    """For G2 the dense charpoly test on ad(N+E) is cheap; the graded
    per-class route that kostant_check takes must give the same answer."""
    alg = build_chevalley("G", 2)
    n, e, _ = principal_triple(alg)
    x = dict(n)
    for k, v in e.items():
        x[k] = x.get(k, 0) + v
    m = alg.ad_matrix(x)
    assert len(nullspace(m)) == 2
    assert is_semisimple(m)
    out = kostant_check(alg)
    assert out == {"kernel_dim": 2, "minpoly_squarefree": True}



def test_kostant_check_forms_one_cycle_product(monkeypatch):
    """E8: h = 30 classes, all of integer degree, so one cycle.  One
    product per class for ker (ad)^2, one h-fold product for the cycle and
    the charpoly and squarefree part of that 8 x 8 product: at most 120
    integer products (the h-fold product of every class took 1,404)."""
    alg = build_chevalley("E", 8)
    calls = []

    def counted(rows, cols):
        calls.append(len(rows))
        return int_mul(rows, cols)

    int_mul = linalg._int_mul
    monkeypatch.setattr(linalg, "_int_mul", counted)
    assert kostant_check(alg) == {"kernel_dim": 8, "minpoly_squarefree": True}
    assert 0 < len(calls) <= 120


def test_kostant_check_takes_one_charpoly_per_cycle(monkeypatch):
    """E8: the one cycle product is semisimple and nonzero, so it is not
    nilpotent without a second charpoly: at most 78 integer products (87
    when is_nilpotent ran its own charpoly on it)."""
    alg = build_chevalley("E", 8)
    calls, nilpotent = [], []

    def counted(rows, cols):
        calls.append(len(rows))
        return int_mul(rows, cols)

    int_mul = linalg._int_mul
    monkeypatch.setattr(linalg, "_int_mul", counted)
    monkeypatch.setattr(linalg, "is_nilpotent", nilpotent.append)
    assert kostant_check(alg) == {"kernel_dim": 8, "minpoly_squarefree": True}
    assert 0 < len(calls) <= 78
    assert nilpotent == []


KAC_CASES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("D", 4)]
EXCEPTIONAL = [("F", 4), ("E", 6), ("E", 8)]


@pytest.mark.parametrize("key", KAC_CASES + EXCEPTIONAL)
def test_kac_slice_dimensions(key):
    alg = build_chevalley(*key)
    h = alg.rs.coxeter_number
    win = KacWindow(alg, 2 * h)
    exps = alg.rs.exponents
    for n in range(1, 2 * h + 1):
        a_dim = len(win.a_slice(n))
        assert a_dim == sum(1 for m in exps if (n - m) % h == 0)
        assert len(win.c_slice(n)) == alg.rank


@pytest.mark.parametrize("key", [("B", 2), ("G", 2)])
def test_kac_window_reads_ad_n_and_ad_e(key, monkeypatch):
    """Each column of ad_p1_matrix is the dict bracket [p1, b t^k] =
    [N, b] t^k + [E, b] t^(k+1) of its slice basis element, and the
    window never reaches the dict bracket itself."""
    alg = build_chevalley(*key)
    h = alg.rs.coxeter_number
    win = KacWindow(alg, 2 * h)
    n_el, e_el, _ = principal_triple(alg)
    want = {}
    for n in range(-2 * h, 2 * h):
        for i, k in win.slice_basis(n):
            want[(n, i, k)] = {(j, k + shift): v
                               for shift, x in enumerate((n_el, e_el))
                               for j, v in alg.bracket(x, {i: 1}).items()}

    def no_bracket(x, y):
        raise AssertionError("KacWindow called alg.bracket")

    monkeypatch.setattr(alg, "bracket", no_bracket)
    for n in range(-2 * h, 2 * h):
        mat = win.ad_p1_matrix(n)
        dst = win.slice_basis(n + 1)
        for col, (i, k) in enumerate(win.slice_basis(n)):
            assert want[(n, i, k)] == {key: row[col]
                                       for key, row in zip(dst, mat)
                                       if row[col] != 0}
        win.c_slice(n + 1)
        win.a_slice(n)


def test_kac_d4_exponent_multiplicity():
    alg = build_chevalley("D", 4)
    win = KacWindow(alg, 12)
    assert len(win.a_slice(3)) == 2
    assert len(win.a_slice(9)) == 2
    assert len(win.a_slice(1)) == 1


def test_kac_window_builds_each_ad_p1_matrix_once(monkeypatch):
    """a_slice(n) and c_slice(n + 1) read one matrix: the slices for
    1 <= |n| <= 12 need the 25 matrices from slices -12..12, each built
    once (one slice_basis call for the columns, one for the rows)."""
    win = KacWindow(build_chevalley("G", 2), 12)
    built = []
    basis = win.slice_basis

    def counted(n):
        built.append(n)
        return basis(n)

    monkeypatch.setattr(win, "slice_basis", counted)
    for n in range(1, 13):
        win.a_slice(n)
        win.a_slice(-n)
        win.c_slice(n)
    assert sorted(built[::2]) == list(range(-12, 13))


@pytest.mark.parametrize("key", KAC_CASES)
def test_kac_c_to_c_bijection(key):
    """ad p1 carries c_j onto c_{j+1} isomorphically across the window."""
    alg = build_chevalley(*key)
    h = alg.rs.coxeter_number
    win = KacWindow(alg, 2 * h)
    r = alg.rank
    for j in range(1, 2 * h):
        mat = win.ad_p1_matrix(j)
        images = [mat_vec(mat, v) for v in win.c_slice(j)]
        assert rank(images) == r == len(win.c_slice(j + 1))
        assert rank(images + win.a_slice(j + 1)) == r + len(win.a_slice(j + 1))


@pytest.mark.parametrize("key", [("B", 2), ("G", 2)])
def test_kac_a_perp_c_under_loop_pairing(key):
    alg = build_chevalley(*key)
    h = alg.rs.coxeter_number
    win = KacWindow(alg, 2 * h)
    for n in range(1, 2 * h + 1):
        for u in win.a_slice(n):
            for v in win.c_slice(-n):
                assert win.loop_pairing(win.slice_element(n, u),
                                        win.slice_element(-n, v)) == 0


@pytest.mark.parametrize("key", KAC_CASES)
def test_kac_a_slices_commute(key):
    alg = build_chevalley(*key)
    h = alg.rs.coxeter_number
    win = KacWindow(alg, 2 * h)
    elems = []
    for n in range(-2 * h, 2 * h + 1):
        if n == 0:
            continue
        for coords in win.a_slice(n):
            elems.append(win.slice_element(n, coords))
    for x, y in itertools.combinations(elems, 2):
        assert loop_bracket(alg, x, y) == {}


@pytest.mark.parametrize("key", KAC_CASES + EXCEPTIONAL)
def test_heisenberg_nondegenerate(key):
    alg = build_chevalley(*key)
    win = KacWindow(alg, 2 * alg.rs.coxeter_number)
    assert heisenberg_pairing_check(win)


def test_window_depth_floor():
    alg = build_chevalley("B", 2)
    with pytest.raises(ValidationError):
        KacWindow(alg, 3)


def test_unsupported_type_rejected():
    with pytest.raises(ValidationError):
        build_chevalley("D", 3)


def test_chevalley_checks_raise():
    alg = ChevalleyAlgebra(build_root_system("A", 2))
    with pytest.raises(ConsistencyError,
                       match=r"^chevalley: no special pair for the root "
                             r"\(1, 0\) of A2$"):
        alg.extraspecial_pair((1, 0))
