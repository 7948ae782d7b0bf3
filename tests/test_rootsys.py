"""Root-system tables, the Coxeter element, and the primitive projector.

Closed-form data (dimensions, Weyl orders, exponents) is frozen from the
standard tables; the projector, a sum of powers of the Coxeter element
weighted by Ramanujan sums, is checked against the charpoly and Bezout
reference in conftest and its rank against a floating-point eigenvalue
count.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import (cyclotomic_factorization, identity, mat_pow,
                      ref_charpoly, ref_coxeter_element, ref_height,
                      ref_primitive_projector, ref_reflection_matrix, ref_rref,
                      ref_string_below)
from rigidconn import cli, galois
from rigidconn.errors import ConsistencyError, ValidationError
from rigidconn.linalg import mat_mul, mat_vec, rank
from rigidconn.rootsys import (SUPPORTED, RootSystem, build_root_system,
                               coxeter_element, coxeter_primitive_projector,
                               primitive_rank)

ALL_TYPES = ([("A", n) for n in range(1, 9)]
             + [("B", n) for n in range(2, 10)]
             + [("C", n) for n in range(2, 9)]
             + [("D", n) for n in range(4, 9)]
             + [("E", n) for n in (6, 7, 8)]
             + [("F", 4), ("G", 2)])

COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
           "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get,
           "F": lambda n: 12, "G": lambda n: 6}

WEYL_ORDER = {"A": lambda n: math.factorial(n + 1),
              "B": lambda n: 2 ** n * math.factorial(n),
              "C": lambda n: 2 ** n * math.factorial(n),
              "D": lambda n: 2 ** (n - 1) * math.factorial(n),
              "E": {6: 51840, 7: 2903040, 8: 696729600}.get,
              "F": lambda n: 1152, "G": lambda n: 12}

EXPONENTS = {("G", 2): [1, 5], ("F", 4): [1, 5, 7, 11],
             ("E", 6): [1, 4, 5, 7, 8, 11], ("E", 7): [1, 5, 7, 9, 11, 13, 17],
             ("E", 8): [1, 7, 11, 13, 17, 19, 23, 29]}


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_counting_identities(type_label, rank_):
    rs = build_root_system(type_label, rank_)
    h = COXETER[type_label](rank_)
    assert rs.coxeter_number == h
    assert len(rs.pos_roots) == rank_ * h // 2
    assert rs.height[rs.theta] == h - 1
    assert rs.a_value(rs.theta) == 2 * h - 2
    assert sorted(rs.exponents) == rs.exponents
    assert sum(rs.exponents) == rank_ * h // 2
    assert [h - m for m in reversed(rs.exponents)] == rs.exponents
    assert rs.degrees == [m + 1 for m in rs.exponents]
    assert rs.weyl_order == WEYL_ORDER[type_label](rank_)
    prod = 1
    for d in rs.degrees:
        prod *= d
    assert prod == rs.weyl_order


@pytest.mark.parametrize("key", sorted(EXPONENTS))
def test_exceptional_exponents(key):
    rs = build_root_system(*key)
    assert rs.exponents == EXPONENTS[key]


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_height_duality(type_label, rank_):
    """#{roots of height k} - #{height k+1} = multiplicity of k as an
    exponent; this is the grading fact behind the principal filtration."""
    rs = build_root_system(type_label, rank_)
    by_height = {}
    for beta in rs.pos_roots:
        ht = rs.height[beta]
        by_height[ht] = by_height.get(ht, 0) + 1
    for k in range(1, rs.max_height + 1):
        drop = by_height.get(k, 0) - by_height.get(k + 1, 0)
        assert drop == rs.exponents.count(k)


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_simple_root_data(type_label, rank_):
    rs = build_root_system(type_label, rank_)
    for i in range(rank_):
        alpha = rs.simple_roots[i]
        assert rs.a_value(alpha) == 2
        s = ref_reflection_matrix(rs, i)
        assert mat_mul(s, s) == identity(rank_)
        assert mat_vec(s, alpha) == [-x for x in alpha]
        for j in range(rank_):
            if j != i:
                omega = rs.fundamental_weight(j)
                assert mat_vec(s, omega) == list(omega)
    marks = rs.simple_coords(rs.theta)
    assert all(c.denominator == 1 and c >= 1 for c in marks)
    assert rs.simple_coords(rs.simple_roots[0]) == [Fraction(j == 0)
                                                    for j in range(rank_)]


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_root_strings_match_reference(type_label, rank_):
    """The string-length table finds the roots and heights that walking
    each root string down afresh finds."""
    rs = build_root_system(type_label, rank_)
    height = ref_height(rs)
    assert rs.height == height
    assert rs.pos_roots == sorted(height, key=lambda b: (height[b], b))
    assert rs.theta == max(height, key=height.get)


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_string_table_matches_string_walk(type_label, rank_):
    """down[beta][i] is the length of the alpha_i-string below beta, for
    every positive root beta and every node i."""
    rs = build_root_system(type_label, rank_)
    assert set(rs.down) == set(rs.pos_roots)
    for beta, row in rs.down.items():
        assert row == [ref_string_below(rs, alpha, beta)
                       for alpha in rs.simple_roots]


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_root_norm_table(type_label, rank_, monkeypatch):
    """RootSystem.norms holds gram_den (beta, beta) for every root, built
    by one gram_pair per positive root: -beta has beta's value, every
    value is the norm of a simple root (each root is W-conjugate to one),
    and the highest root theta is long."""
    rs = RootSystem(type_label, rank_)
    calls = []
    pair = RootSystem.gram_pair

    def counted(self, mu, nu):
        calls.append(mu)
        return pair(self, mu, nu)

    monkeypatch.setattr(RootSystem, "gram_pair", counted)
    norms = rs.norms
    assert len(calls) == len(rs.pos_roots)
    monkeypatch.undo()
    assert set(norms) == rs.root_set
    simple = {norms[alpha] for alpha in rs.simple_roots}
    for beta, value in norms.items():
        assert value == rs.gram_pair(beta, beta)
        assert norms[tuple(-x for x in beta)] == value
        assert value in simple
    assert norms[rs.theta] == max(norms.values())


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_coxeter_element_matches_reference(type_label, rank_):
    """The column-updated integer Coxeter element is the Fraction product
    of the simple reflection matrices."""
    rs = build_root_system(type_label, rank_)
    w = coxeter_element(rs)
    assert all(type(x) is int for row in w for x in row)
    assert w == ref_coxeter_element(rs)


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_torus_rows_match_reference(type_label, rank_):
    """Each V^S row is primitive and a multiple of the same row of the
    reduced echelon form of the Fraction projector of the Fraction
    Coxeter element."""
    rs = build_root_system(type_label, rank_)
    rows = galois._torus_rows(rs)
    pivots, rref = ref_rref(ref_primitive_projector(ref_coxeter_element(rs),
                                                    rs.coxeter_number))
    assert len(rows) == len(pivots)
    for row, c, want in zip(rows, pivots, rref):
        assert math.gcd(*row) == 1
        assert [Fraction(x, row[c]) for x in row] == want


@pytest.mark.parametrize("type_label,rank_",
                         [(t, n) for t, (lo, hi) in sorted(SUPPORTED.items())
                          for n in range(lo, hi + 1)])
def test_a_coeffs_are_the_sum_of_positive_coroots(type_label, rank_):
    """2 rho-check is the sum of the positive coroots; a_coeffs holds its
    simple-coroot coordinates."""
    rs = build_root_system(type_label, rank_)
    want = [0] * rank_
    for beta in rs.pos_roots:
        for i, c in enumerate(rs.coroot_coeffs(beta)):
            want[i] += c
    assert rs.a_coeffs == want


def test_cartan_conventions_g2_f4():
    g2 = build_root_system("G", 2)
    assert g2.cartan == [[2, -3], [-1, 2]]
    assert g2.theta == (0, 1)
    f4 = build_root_system("F", 4)
    assert f4.cartan[1][2] == -1 and f4.cartan[2][1] == -2
    assert f4.root_length_sq(f4.simple_roots[0]) == 2
    assert f4.root_length_sq(f4.simple_roots[3]) == 1


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_coxeter_element_order_and_charpoly(type_label, rank_):
    rs = build_root_system(type_label, rank_)
    w = coxeter_element(rs)
    h = rs.coxeter_number
    assert mat_pow(w, h) == identity(rank_)
    factors = cyclotomic_factorization(ref_charpoly(w), h)
    want = {}
    for m in rs.exponents:
        d = h // math.gcd(m, h)
        want[d] = want.get(d, 0) + 1
    totient = {d: sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
               for d in want}
    assert factors == {d: c // totient[d] for d, c in want.items()}


@pytest.mark.parametrize("type_label,rank_",
                         [("A", 3), ("B", 2), ("D", 4), ("G", 2), ("F", 4),
                          ("E", 6)])
def test_coxeter_eigenvalues_numeric(type_label, rank_):
    """Float oracle: the eigenvalue angles of the Coxeter element are
    2 pi m / h over the exponents m."""
    rs = build_root_system(type_label, rank_)
    w = coxeter_element(rs)
    h = rs.coxeter_number
    eig = np.linalg.eigvals(np.array([[float(x) for x in row] for row in w]))
    got = sorted((np.angle(z) / (2 * np.pi)) % 1.0 for z in eig)
    want = sorted((m / h) % 1.0 for m in rs.exponents)
    assert np.allclose(got, want, atol=1e-8)


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_primitive_projector_rank(type_label, rank_):
    rs = build_root_system(type_label, rank_)
    h = rs.coxeter_number
    w = coxeter_element(rs)
    p = coxeter_primitive_projector(w, h)
    want = sum(1 for m in rs.exponents if math.gcd(m, h) == 1)
    assert rank(p) == want == primitive_rank(rs)


def test_primitive_projector_rank_numeric_oracle():
    """Count primitive h-th-root eigenvalues with numpy on one case."""
    rs = build_root_system("A", 3)
    w = coxeter_element(rs)
    eig = np.linalg.eigvals(np.array([[float(x) for x in row] for row in w]))
    primitive = [np.exp(2j * np.pi * k / 4) for k in (1, 3)]
    count = sum(1 for z in eig
                if any(abs(z - p) < 1e-9 for p in primitive))
    assert count == 2
    assert rank(coxeter_primitive_projector(w, 4)) == count


@pytest.mark.parametrize("type_label,rank_", ALL_TYPES)
def test_primitive_projector_matches_reference(type_label, rank_):
    rs = build_root_system(type_label, rank_)
    w = coxeter_element(rs)
    h = rs.coxeter_number
    assert coxeter_primitive_projector(w, h) == ref_primitive_projector(w, h)


def _s1(rs):
    """The simple reflection s_1, a wrong Coxeter element of order 2."""
    return [[int(x) for x in row] for row in ref_reflection_matrix(rs, 0)]


@pytest.mark.parametrize("type_label,rank_", [("A", 2), ("A", 3), ("E", 8)])
def test_projector_checks_raise_on_wrong_matrix(monkeypatch, type_label,
                                                rank_):
    """A wrong order, a non-integral w and a wrong Moebius function are
    each caught, on h = 3 (A2), 4 (A3) and 30 (E8).  With mu = 2 the sum
    is 2 #{d | h : ord(lambda) | d} on the lambda-eigenspace, at least 2,
    so P P = P fails for every w."""
    rs = build_root_system(type_label, rank_)
    h = rs.coxeter_number
    w = coxeter_element(rs)
    with pytest.raises(ConsistencyError,
                       match=r"^Coxeter projector: .* w\^h = I, h = %d$"
                       % (h + 1)):
        coxeter_primitive_projector(w, h + 1)
    half = [[Fraction(x, 2) for x in row] for row in mat_pow(w, 2)]
    with pytest.raises(ConsistencyError,
                       match=r"^Coxeter projector: w is not an integer"):
        coxeter_primitive_projector(half, h)
    monkeypatch.setattr("rigidconn.rootsys._mobius", lambda n: 2)
    with pytest.raises(ConsistencyError,
                       match=r"^Coxeter projector: .* not idempotent, "
                             r"h = %d$" % h):
        coxeter_primitive_projector(w, h)


def test_projector_checks_raise_on_bad_factorization():
    """No primitive h-th root of unity: the identity, or s_1 at even h."""
    with pytest.raises(ConsistencyError,
                       match=r"^Coxeter projector: .* no primitive h-th root "
                             r".* h = 3$"):
        coxeter_primitive_projector(identity(2), 3)
    with pytest.raises(ConsistencyError,
                       match=r"no primitive h-th root .* h = 4$"):
        coxeter_primitive_projector(_s1(build_root_system("A", 3)), 4)


def test_projector_checks_survive_optimize():
    """A wrong Coxeter element in the cohomology route raises under -O."""
    code = ("from rigidconn import galois, rootsys\n"
            "from rigidconn.errors import ConsistencyError\n"
            "galois.coxeter_element = lambda rs: [[-1, 0], [1, 1]]\n"
            "try:\n"
            "    galois._torus_rows(rootsys.build_root_system('A', 2))\n"
            "except ConsistencyError as exc:\n"
            "    raise SystemExit(3 if 'w^h = I' in str(exc) else 1)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 3


def test_projector_check_is_cli_exit_3(monkeypatch, tmp_path, capsys):
    # the V^S rows are kept per root system; start without A2's
    galois._torus_rows.cache_clear()
    monkeypatch.setattr("rigidconn.galois.coxeter_element", _s1)
    monkeypatch.setenv("HOME", str(tmp_path))
    try:
        assert cli.main(["cohomology", "--group", "a2"]) == 3
    finally:
        galois._torus_rows.cache_clear()
    assert "Coxeter projector" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _disconnected_cartan(type_label, rank_):
    """A1 x A1 for any input: two highest roots, no connecting bond."""
    return [[2, 0], [0, 2]]


def _bare_root_system(**attrs):
    """A RootSystem with only the given attributes, for one build step."""
    rs = RootSystem.__new__(RootSystem)
    rs.type_label, rs.rank = "A", 2
    rs.__dict__.update(attrs)
    return rs


def test_root_system_checks_raise(monkeypatch):
    with pytest.raises(ConsistencyError,
                       match=r"^root system: the coroot of \[0, 2\] in A2 "
                             r"is not integral$"):
        build_root_system("A", 2).coroot_coeffs((0, 2))
    rs = _bare_root_system(cartan=[[2, 0], [0, 2]])
    with pytest.raises(ConsistencyError,
                       match=r"^root system: the Dynkin diagram of A2 is not "
                             r"connected$"):
        rs._build_lengths()
    rs = _bare_root_system(height={(1, 0): 1, (0, 1): 2, (1, 1): 2},
                           max_height=2)
    with pytest.raises(ConsistencyError,
                       match=r"^root system: the height histogram of A2 "
                             r"rises at 2$"):
        rs._build_exponents()
    rs = _bare_root_system(height={(2, -1): 1}, max_height=1)
    with pytest.raises(ConsistencyError,
                       match=r"^root system: A2 has 1 exponents$"):
        rs._build_exponents()
    monkeypatch.setattr("rigidconn.rootsys.cartan_matrix",
                        _disconnected_cartan)
    with pytest.raises(ConsistencyError,
                       match=r"^root system: A2 has 2 highest roots$"):
        RootSystem("A", 2)


def test_simple_root_a_value_is_checked(monkeypatch):
    """The orbit expansion's a(s_j nu) = a(nu) - 2 nu_j needs a(alpha_j) =
    2 at every node: a wrong inverse Cartan matrix, and so a wrong 2
    rho-check, is caught by name."""
    rs = _bare_root_system(cartan_inv=[[1, 0], [0, 2]],
                           simple_roots=[(2, -1), (-1, 2)])
    with pytest.raises(ConsistencyError,
                       match=r"^root system: A2 gives the simple root at "
                             r"node 1 the a-value 0, not 2$"):
        rs._build_a_coeffs()
    # B3 with 2 rho-check (6, 10, 8) in place of (6, 10, 6)
    monkeypatch.setattr("rigidconn.rootsys.inverse",
                        lambda m: [[1, 1, Fraction(1, 2)], [1, 2, 1],
                                   [1, 2, Fraction(5, 2)]])
    with pytest.raises(ConsistencyError,
                       match=r"^root system: B3 gives the simple root at "
                             r"node 2 the a-value -2, not 2$"):
        RootSystem("B", 3)


def test_root_system_checks_survive_optimize():
    code = ("from rigidconn import rootsys\n"
            "from rigidconn.errors import ConsistencyError\n"
            "try:\n"
            "    rootsys.build_root_system('A', 2).coroot_coeffs((0, 2))\n"
            "except ConsistencyError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit(1)\n"
            "rootsys.cartan_matrix = lambda t, n: [[2, 0], [0, 2]]\n"
            "try:\n"
            "    rootsys.RootSystem('A', 2)\n"
            "except ConsistencyError:\n"
            "    raise SystemExit(3)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 3


def test_unsupported_types_rejected():
    with pytest.raises(ValidationError):
        build_root_system("A", 0)
    with pytest.raises(ValidationError):
        build_root_system("E", 9)
    with pytest.raises(ValidationError):
        build_root_system("H", 3)


def test_type_letter_case_is_decided_once():
    """build_root_system takes the letter in either case and shares one
    root system; RootSystem itself takes the upper-case letter only."""
    rs = build_root_system("e", 6)
    assert rs is build_root_system("E", 6)
    assert rs.type_label == "E" and rs.label() == "E6"
    with pytest.raises(ValidationError, match="unknown type 'e'"):
        RootSystem("e", 6)


@pytest.mark.parametrize("type_label,rank_", [("A", 4), ("C", 3), ("D", 5)])
def test_coroot_pairing_is_cartan(type_label, rank_):
    """<alpha_j, alpha-check_i> recovers the Cartan matrix from the form."""
    rs = build_root_system(type_label, rank_)
    for i in range(rank_):
        ai = rs.simple_roots[i]
        for j in range(rank_):
            aj = rs.simple_roots[j]
            pairing = 2 * rs.form(aj, ai) / rs.root_length_sq(ai)
            assert pairing == rs.cartan[i][j]
