"""Galois-side invariants: foldings, irregularity, cohomology dimensions."""

import itertools
import math

import pytest

from conftest import ref_zero_weight_irr
from rigidconn import galois
from rigidconn.connection import (adjoint_connection, g2_seven_dim, sl2_sym,
                                  sl_standard, so_odd_standard, sp_standard)
from rigidconn.errors import ConsistencyError, ValidationError
from rigidconn.formal import h1_middle_via_solver
from rigidconn.galois import (cohomology_dims, epsilon_minus_crosscheck,
                              fold_branching, folding_matrix, galois_group,
                              local_invariants, peel_components,
                              subregular_table)
from rigidconn.linalg import mat_vec
from rigidconn.rootsys import (SUPPORTED, build_root_system,
                               coxeter_element, coxeter_primitive_projector)
from rigidconn.weights import a_histogram, epsilon_on, weight_system, weyl_dim


def adjoint_ws(type_label, rank):
    rs = build_root_system(type_label, rank)
    return weight_system(rs, rs.theta)


# ---------------------------------------------------------------- foldings

FOLDING_TARGETS = {
    ("A", 2): None,
    ("A", 3): ("C", 2),
    ("A", 4): None,
    ("A", 5): ("C", 3),
    ("A", 7): ("C", 4),
    ("B", 2): None,
    ("B", 3): ("G", 2),
    ("B", 4): None,
    ("C", 4): None,
    ("D", 4): ("G", 2),
    ("D", 5): ("B", 4),
    ("D", 8): ("B", 7),
    ("E", 6): ("F", 4),
    ("E", 7): None,
    ("E", 8): None,
    ("F", 4): None,
    ("G", 2): None,
}


def test_folding_targets():
    for source, target in FOLDING_TARGETS.items():
        assert galois_group(*source) == (target if target else source)
    assert galois_group("e", 6) == ("F", 4)
    with pytest.raises(ValidationError):
        galois_group("E", 9)


def test_galois_profiles():
    # the group cohomology_dims reports is galois_group's, with the
    # Coxeter number of the source
    for source, target in FOLDING_TARGETS.items():
        group = galois_group(*source)
        rs, rs_g = build_root_system(*source), build_root_system(*group)
        assert rs_g.coxeter_number == rs.coxeter_number
        rep = cohomology_dims(*source, rs.theta)
        assert rep.galois_label == "%s%d" % group


def test_epsilon_rule_matches_fundamental_weights():
    # epsilon is the same read in G or in its Galois group: every
    # component of V restricted to the Galois group has V's sign.  It is
    # always +1 exactly when every fundamental weight is even.
    for type_label, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                             ("A", 5), ("B", 2), ("B", 3), ("C", 2),
                             ("C", 3), ("D", 4), ("D", 5), ("E", 6),
                             ("G", 2)]:
        rs = build_root_system(type_label, rank)
        rs_g = build_root_system(*galois_group(type_label, rank))
        signs = []
        for i in range(rank):
            ws = weight_system(rs, rs.fundamental_weight(i))
            signs.append(epsilon_on(ws))
            if rs_g is not rs:
                table = fold_branching(ws, rs_g,
                                       folding_matrix(type_label, rank))
                for mu, _ in peel_components(rs_g, table):
                    assert (-1) ** rs_g.a_value(mu) == signs[-1]
        always_plus = all(c % 2 == 0 for c in rs.a_coeffs)
        assert always_plus == all(s == 1 for s in signs)


def test_epsilon_rule_by_type():
    # a type has an epsilon = -1 weight exactly when its Galois group does
    plus = [("A", 2), ("B", 3), ("B", 4), ("D", 4), ("D", 5), ("D", 8),
            ("E", 6), ("E", 8), ("F", 4), ("G", 2)]
    sign = [("A", 1), ("A", 3), ("A", 5), ("B", 2), ("C", 3), ("D", 6),
            ("E", 7)]
    for source in plus + sign:
        expect = source in plus
        for type_rank in (source, galois_group(*source)):
            rs = build_root_system(*type_rank)
            assert all(c % 2 == 0 for c in rs.a_coeffs) == expect, type_rank


def test_lower_case_letters_give_the_same_results():
    """galois_group, folding_matrix and cohomology_dims read the letter off
    the root system, so either case gives the same answer."""
    assert folding_matrix("e", 6) == folding_matrix("E", 6)
    assert folding_matrix("a", 5) == folding_matrix("A", 5)
    for source in [("e", 6), ("d", 5), ("g", 2), ("a", 1)]:
        upper = (source[0].upper(), source[1])
        assert galois_group(*source) == galois_group(*upper)
        theta = build_root_system(*upper).theta
        lower_rep = cohomology_dims(*source, theta)
        upper_rep = cohomology_dims(*upper, theta)
        assert lower_rep.to_json_dict() == upper_rep.to_json_dict()
        assert lower_rep.trace == upper_rep.trace
        assert lower_rep.group == upper[0]
    with pytest.raises(ValidationError, match="^type E7 does not fold$"):
        folding_matrix("e", 7)


def test_folding_matrix_shape():
    for source, target in FOLDING_TARGETS.items():
        if target is None:
            with pytest.raises(ValidationError):
                folding_matrix(*source)
            continue
        rows = folding_matrix(*source)
        assert len(rows) == target[1]
        assert all(len(r) == source[1] for r in rows)


@pytest.mark.parametrize("source,folding,message", [
    (("A", 5), (("C", 2), [(1, 5), (2, 4)]), "changes the Coxeter number"),
    (("E", 6), (("F", 4), [(4,), (2,), (3, 5), (1, 6)]), "principal grading"),
])
def test_folding_matrix_rejects_a_wrong_folding(monkeypatch, source, folding,
                                                message):
    monkeypatch.setattr(galois, "_folding", lambda *args: folding)
    with pytest.raises(ConsistencyError, match=message):
        folding_matrix(*source)


# Each case: source type, highest weight provider, expected component
# dimensions in peel order (multiplicities expanded).
def _theta(type_label, rank):
    return build_root_system(type_label, rank).theta


BRANCHINGS = [
    (("A", 3), _theta("A", 3), [10, 5]),
    (("A", 5), _theta("A", 5), [21, 14]),
    (("B", 3), (1, 0, 0), [7]),
    (("B", 3), (0, 0, 1), [7, 1]),
    (("B", 3), _theta("B", 3), [14, 7]),
    (("D", 4), _theta("D", 4), [14, 7, 7]),
    (("D", 5), _theta("D", 5), [36, 9]),
    (("E", 6), _theta("E", 6), [52, 26]),
]


@pytest.mark.parametrize("source,highest,expected", BRANCHINGS,
                         ids=lambda v: str(v))
def test_fold_branching_components(source, highest, expected):
    rs = build_root_system(*source)
    rs_t = build_root_system(*galois_group(*source))
    ws = weight_system(rs, highest)
    table = fold_branching(ws, rs_t, folding_matrix(*source))
    assert sum(table.values()) == ws.dim
    dims = []
    for mu, count in peel_components(rs_t, table):
        dims.extend([weight_system(rs_t, mu).dim] * count)
    assert dims == expected


@pytest.mark.parametrize("source", [("A", 3), ("A", 5), ("A", 7), ("B", 3),
                                    ("D", 4), ("D", 5), ("D", 6), ("D", 7),
                                    ("D", 8), ("E", 6)])
def test_folded_a_histogram_is_the_source_histogram(source):
    """The invariants of a folded group read the a-histogram off ws.a_of:
    on the adjoint and the fundamental weights of Weyl dimension <= 3000
    it is the histogram of the folded table under the target's a-values."""
    rs = build_root_system(*source)
    rs_t = build_root_system(*galois_group(*source))
    rows = folding_matrix(*source)
    highest = {rs.theta}
    highest.update(mu for mu in map(rs.fundamental_weight, range(rs.rank))
                   if weyl_dim(rs, mu) <= 3000)
    for mu in sorted(highest):
        ws = weight_system(rs, mu)
        want = {}
        for nu, mult in fold_branching(ws, rs_t, rows).items():
            a = rs_t.a_value(nu)
            want[a] = want.get(a, 0) + mult
        assert a_histogram(ws) == want, mu


def test_invariants_under_galois():
    # multiplicity of the trivial summand after restriction
    cases = [
        (("B", 3), (0, 0, 1), 1),      # spin restricts as 7 + 1
        (("A", 3), (1, 0, 1), 0),
        (("E", 6), (1, 0, 0, 0, 0, 0), 1),    # 27 = 26 + 1
        (("A", 2), (1, 1), 0),         # no folding, nontrivial weight
        (("A", 2), (0, 0), 1),         # no folding, trivial weight
    ]
    for source, highest, expected in cases:
        assert cohomology_dims(*source, highest).inv_galois == expected


def test_peel_rejects_impossible_tables():
    rs = build_root_system("G", 2)
    # a bare highest weight with none of its orbit present
    with pytest.raises(ConsistencyError):
        peel_components(rs, {(1, 0): 1})
    # a table whose maximal weight is not dominant
    with pytest.raises(ConsistencyError):
        peel_components(rs, {(-1, 0): 1})


# ------------------------------------------- irregularity and inertia data

ADJOINT_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                 ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("type_label,rank", ADJOINT_TYPES)
def test_adjoint_coxeter_invariants(type_label, rank):
    ws = adjoint_ws(type_label, rank)
    assert local_invariants(ws) == {"dim": ws.dim, "V_S": rank, "irr": rank,
                                    "I0": rank, "n_fixed": rank, "Iinf": 0}


def test_irregularity_small_cases():
    for n in range(2, 7):
        rs = build_root_system("A", n - 1)
        ws = weight_system(rs, rs.fundamental_weight(0))
        assert local_invariants(ws)["irr"] == 1
    for key, highest, count in [(("G", 2), (1, 0), 1),
                                (("F", 4), (0, 0, 0, 1), 2)]:
        inv = local_invariants(weight_system(build_root_system(*key), highest))
        assert (inv["V_S"], inv["irr"]) == (count, count)
    for m in (2, 3, 4):
        rs = build_root_system("B", m)
        ws = weight_system(rs, rs.fundamental_weight(0))
        assert local_invariants(ws)["irr"] == 1


def test_trivial_weight_has_no_irregularity():
    ws = weight_system(build_root_system("A", 2), (0, 0))
    assert local_invariants(ws) == {"dim": 1, "V_S": 1, "irr": 0, "I0": 1,
                                    "n_fixed": 1, "Iinf": 1}


def test_inertia_invariants_examples():
    for key, highest, want in [(("A", 1), (5,), (1, 0, 0)),
                               (("F", 4), (0, 0, 0, 1), (2, 2, 0))]:
        inv = local_invariants(weight_system(build_root_system(*key), highest))
        assert (inv["I0"], inv["n_fixed"], inv["Iinf"]) == want


# ------------------------------------------------- cohomology dimensions

@pytest.mark.parametrize("type_label,rank", ADJOINT_TYPES + [("E", 6)])
def test_adjoint_cohomology_vanishes(type_label, rank):
    rs = build_root_system(type_label, rank)
    rep = cohomology_dims(type_label, rank, rs.theta)
    assert rep.epsilon == 1
    assert rep.irr == rank
    assert rep.inv_I0 == rank
    assert rep.inv_Iinf == 0
    assert rep.inv_galois == 0
    assert (rep.h0, rep.h1, rep.h2) == (0, 0, 0)


def sym_h1(n):
    if n % 2:
        return (n - 1) // 2
    if n % 4 == 2:
        return (n - 2) // 2
    return (n - 4) // 2


def test_sym_family_closed_form():
    for n in range(1, 13):
        rep = cohomology_dims("A", 1, (n,))
        assert rep.epsilon == (1 if n % 2 == 0 else -1)
        assert rep.inv_galois == 0
        assert rep.h1 == sym_h1(n)


def test_e6_adjoint_restriction():
    rep = cohomology_dims("E", 6, _theta("E", 6))
    assert rep.galois_label == "F4"
    assert rep.trace[0] == "folded E6 -> F4; V restricts as 52 + 26"
    assert (rep.irr, rep.inv_I0, rep.inv_Iinf, rep.h1) == (6, 6, 0, 0)


def test_f4_26_dim_report():
    rep = cohomology_dims("F", 4, (0, 0, 0, 1))
    assert rep.dim == 26
    assert (rep.irr, rep.inv_I0, rep.inv_Iinf) == (2, 2, 0)
    assert rep.inv_n == 2
    assert rep.h1 == 0
    from rigidconn.weights import principal_sl2_decomposition
    rs = build_root_system("F", 4)
    dec = principal_sl2_decomposition(weight_system(rs, (0, 0, 0, 1)))
    assert dec.pieces() == [(8, 1), (16, 1)]


def test_e6_27_dim_report():
    rep = cohomology_dims("E", 6, (1, 0, 0, 0, 0, 0))
    assert rep.dim == 27
    assert rep.trace[0] == "folded E6 -> F4; V restricts as 26 + 1"
    assert rep.irr == 2
    assert rep.inv_I0 == 3
    assert rep.inv_n == 3
    assert rep.inv_Iinf == 1
    assert rep.inv_galois == 1
    assert (rep.h0, rep.h1, rep.h2) == (1, 0, 1)


def test_b3_spin_report():
    rep = cohomology_dims("B", 3, (0, 0, 1))
    assert rep.galois_label == "G2"
    assert (rep.irr, rep.inv_I0, rep.inv_Iinf, rep.inv_galois) == (1, 2, 1, 1)
    assert (rep.h0, rep.h1, rep.h2) == (1, 0, 1)


def test_spin_threshold():
    for n in range(2, 8):
        highest = tuple([0] * (n - 1) + [1])
        rep = cohomology_dims("B", n, highest)
        assert rep.dim == 2 ** n
        assert rep.h1 == 0
    rep8 = cohomology_dims("B", 8, (0, 0, 0, 0, 0, 0, 0, 1))
    assert rep8.epsilon == 1
    assert rep8.h1 == 2
    rep9 = cohomology_dims("B", 9, (0, 0, 0, 0, 0, 0, 0, 0, 1))
    assert rep9.epsilon == -1
    assert rep9.h1 == 5


def test_trivial_rep_cohomology():
    rep = cohomology_dims("A", 2, (0, 0))
    assert (rep.h0, rep.h1, rep.h2) == (1, 0, 1)
    assert rep.irr == 0
    assert rep.inv_galois == 1


def test_report_json_shape():
    rep = cohomology_dims("G", 2, (0, 1))
    d = rep.to_json_dict()
    assert d == {"group": "G", "rank": 2, "lambda": [0, 1], "dim": 14,
                 "epsilon": 1, "irr": 2, "inv_I0": 2, "inv_n": 2,
                 "inv_Iinf": 0, "inv_galois": 0, "h0": 0, "h1": 0, "h2": 0,
                 "galois_group": "G2"}


def test_small_weights_are_rigid():
    # For an unfolded group, a nontrivial even weight with a(lambda) at
    # most 2h - 2 gives no invariants at infinity and h1 = 0.
    for type_label, rank in [("A", 1), ("A", 2), ("A", 4), ("B", 2),
                             ("B", 4), ("C", 3), ("F", 4), ("G", 2)]:
        rs = build_root_system(type_label, rank)
        bound = 2 * rs.coxeter_number - 2
        top = [bound // int(c) for c in rs.a_coeffs]
        for coords in itertools.product(*[range(t + 1) for t in top]):
            a = rs.a_value(coords)
            if not any(coords) or a % 2 or a > bound:
                continue
            rep = cohomology_dims(type_label, rank, coords)
            assert rep.inv_Iinf == 0, (type_label, rank, coords)
            assert rep.inv_galois == 0
            assert rep.h1 == 0, (type_label, rank, coords)


def test_h1_is_even_for_even_weights():
    cases = [("A", 1, (8,)), ("A", 1, (12,)), ("A", 2, (1, 1)),
             ("B", 8, (0, 0, 0, 0, 0, 0, 0, 1)), ("F", 4, (0, 0, 0, 1)),
             ("G", 2, (2, 0))]
    for type_label, rank, highest in cases:
        rep = cohomology_dims(type_label, rank, highest)
        assert rep.epsilon == 1
        assert (rep.h1 - 2 * rep.inv_galois) % 2 == 0


FOLDED_TYPES = [("A", 3), ("A", 5), ("B", 3), ("D", 4), ("D", 5), ("E", 6)]


@pytest.mark.parametrize("type_label,rank", FOLDED_TYPES)
def test_folded_invariants_match_source_route(type_label, rank):
    # cohomology_dims works in the folded group; local_invariants works in
    # the source group with its own Coxeter element and a-grading.  Both
    # routes must give the same numbers.
    rs = build_root_system(type_label, rank)
    checked = 0
    for coords in itertools.product(range(2), repeat=rank):
        if coords == rs.theta or weyl_dim(rs, coords) > 700:
            continue
        rep = cohomology_dims(type_label, rank, coords)
        ws = weight_system(rs, coords)
        inv = local_invariants(ws)
        assert (inv["irr"], inv["I0"], inv["n_fixed"], inv["Iinf"]) == \
            (rep.irr, rep.inv_I0, rep.inv_n, rep.inv_Iinf), coords
        checked += 1
    assert checked >= 4


def ref_torus_invariants(ws, w):
    """dim V^S by applying the primitive projector of w to every weight,
    the Fraction route the package took before its integer rows."""
    proj = coxeter_primitive_projector(w, ws.rs.coxeter_number)
    return sum(mult for mu, mult in ws.table.items()
               if all(x == 0 for x in mat_vec(proj, list(mu))))


@pytest.mark.parametrize("type_label,rank",
                         [(t, n) for t, (lo, hi) in sorted(SUPPORTED.items())
                          for n in range(lo, min(hi, 8) + 1)])
def test_torus_invariants_match_projector_reference(type_label, rank):
    """On the adjoint and the fundamental weights of Weyl dimension
    <= 5000."""
    rs = build_root_system(type_label, rank)
    w = coxeter_element(rs)
    highest = {rs.theta}
    highest.update(mu for mu in map(rs.fundamental_weight, range(rank))
                   if weyl_dim(rs, mu) <= 5000)
    for mu in sorted(highest):
        ws = weight_system(rs, mu)
        want = ref_torus_invariants(ws, w)
        assert local_invariants(ws)["V_S"] == want, mu


def test_torus_row_count_is_checked(monkeypatch):
    """The rows of the Coxeter element's projector must number
    primitive_rank(rs), which the root heights give independently."""
    galois._torus_rows.cache_clear()
    monkeypatch.setattr("rigidconn.galois.primitive_rank", lambda rs: 1)
    with pytest.raises(ConsistencyError,
                       match=r"^Coxeter torus: the primitive projector of A2 "
                             r"has rank 2, but 1 exponents are coprime to "
                             r"h = 3$"):
        cohomology_dims("A", 2, (1, 1))
    with pytest.raises(ConsistencyError, match=r"projector of A3 has rank 2"):
        local_invariants(adjoint_ws("A", 3))


# ------------------------------------------------ orbit-size criterion

def integer_kernel(mat):
    """Z-basis for the integer kernel, by unimodular column operations."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    m = [[int(x) for x in row] for row in mat]
    track = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def combine(j, k, q):
        for i in range(rows):
            m[i][j] -= q * m[i][k]
        for i in range(cols):
            track[i][j] -= q * track[i][k]

    def swap(j, k):
        for i in range(rows):
            m[i][j], m[i][k] = m[i][k], m[i][j]
        for i in range(cols):
            track[i][j], track[i][k] = track[i][k], track[i][j]

    pivot = 0
    for row in range(rows):
        while pivot < cols:
            live = [j for j in range(pivot, cols) if m[row][j]]
            if not live:
                break
            swap(pivot, min(live, key=lambda j: abs(m[row][j])))
            finished = True
            for j in range(pivot + 1, cols):
                if m[row][j]:
                    combine(j, pivot, m[row][j] // m[row][pivot])
                    if m[row][j]:
                        finished = False
            if finished:
                pivot += 1
                break
    return [[track[i][j] for i in range(cols)] for j in range(pivot, cols)]


def in_lattice(gens, vec):
    cols = [list(g) for g in gens] + [list(vec)]
    mat = [[col[i] for col in cols] for i in range(len(vec))]
    g = 0
    for basis_vec in integer_kernel(mat):
        g = math.gcd(g, basis_vec[-1])
    return g == 1


def small_orbit_lattice(rs):
    """Generators of the sublattice spanned by weights whose Coxeter
    orbit has size less than h."""
    h = rs.coxeter_number
    w = [[int(x) for x in row] for row in coxeter_element(rs)]
    gens = []
    for d in range(1, h):
        if h % d:
            continue
        power = [[int(i == j) for j in range(rs.rank)]
                 for i in range(rs.rank)]
        for _ in range(d):
            power = [[sum(power[i][k] * w[k][j] for k in range(rs.rank))
                      for j in range(rs.rank)] for i in range(rs.rank)]
        delta = [[power[i][j] - (i == j) for j in range(rs.rank)]
                 for i in range(rs.rank)]
        gens.extend(integer_kernel(delta))
    return gens


def test_integer_kernel_basics():
    assert integer_kernel([[1, 0], [0, 1]]) == []
    ker = integer_kernel([[2, -4]])
    assert len(ker) == 1
    v = ker[0]
    assert 2 * v[0] - 4 * v[1] == 0
    assert math.gcd(v[0], v[1]) == 1
    assert in_lattice([[2, 0], [0, 3]], [4, 3])
    assert not in_lattice([[2, 0], [0, 3]], [1, 0])
    assert in_lattice([], [0, 0])
    assert not in_lattice([], [1, 0])


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                          ("B", 2), ("B", 3), ("B", 4), ("C", 2),
                          ("C", 3), ("C", 4), ("D", 4), ("F", 4),
                          ("G", 2)])
def test_projector_kernel_is_small_orbit_lattice(type_label, rank):
    # A weight vanishes under the primitive projector exactly when it
    # lies in the sublattice generated by weights with short Coxeter
    # orbits.  Checked on a box around the origin.
    rs = build_root_system(type_label, rank)
    w = coxeter_element(rs)
    proj = coxeter_primitive_projector(w, rs.coxeter_number)
    gens = small_orbit_lattice(rs)
    spread = 3 if rank <= 3 else 2
    for coords in itertools.product(range(-spread, spread + 1), repeat=rank):
        killed = all(x == 0 for x in mat_vec(proj, list(coords)))
        assert killed == in_lattice(gens, coords), coords


# ------------------------------------------------ solver cross-checks

SOLVER_CASES = [
    (("sym", 1), ("A", 1, (1,)), 40),
    (("sym", 2), ("A", 1, (2,)), 40),
    (("sym", 3), ("A", 1, (3,)), 40),
    (("sym", 4), ("A", 1, (4,)), 40),
    (("sym", 5), ("A", 1, (5,)), 40),
    (("sym", 6), ("A", 1, (6,)), 40),
    (("sl", 3), ("A", 2, (1, 0)), 30),
    (("sl", 4), ("A", 3, (1, 0, 0)), 30),
    (("so", 3), ("A", 1, (2,)), 30),
    (("so", 5), ("B", 2, (1, 0)), 30),
    (("sp", 4), ("C", 2, (1, 0)), 30),
    (("g2_dim7",), ("G", 2, (1, 0)), 36),
    (("adjoint", "A", 2), ("A", 2, (1, 1)), 30),
]


# the case tokens of SOLVER_CASES, which also name the tests
MODELS = {"sym": sl2_sym, "sl": sl_standard, "so": so_odd_standard,
          "sp": sp_standard, "g2_dim7": g2_seven_dim,
          "adjoint": adjoint_connection}


@pytest.mark.parametrize("case,rep_key,trunc", SOLVER_CASES,
                         ids=lambda v: str(v))
def test_solver_agrees_with_formula(case, rep_key, trunc):
    conn = MODELS[case[0]](*case[1:])
    solved = h1_middle_via_solver(conn, conn.dual(), trunc)
    assert solved == cohomology_dims(*rep_key).h1


# ------------------------------------------------ epsilon cross-checks

ZERO_WEIGHT_CASES = [("G", 2, (1, 1)), ("E", 6, (0, 1, 0, 0, 0, 0)),
                     ("A", 1, (6,)), ("A", 1, (8,)), ("A", 1, (1,)),
                     ("A", 3, (1, 0, 0)), ("C", 4, (1, 0, 1, 0)),
                     ("F", 4, (0, 0, 0, 1)), ("D", 4, (1, 0, 0, 1)),
                     ("B", 8, (0, 0, 0, 0, 0, 0, 0, 1))]


def test_irregularity_from_the_zero_weight_space():
    # both signs of epsilon, folded and unfolded Galois groups
    for type_label, rank, coords in ZERO_WEIGHT_CASES:
        irr = ref_zero_weight_irr(type_label, rank, coords)
        assert irr is not None
        assert cohomology_dims(type_label, rank, coords).irr == irr


def test_zero_weight_route_needs_prime_exponents():
    # C3 has the exponent 3 against h = 6, so its Coxeter projector is
    # not the identity and the zero weight space is not V^S: for
    # (1,1,0), dim - m(0) = 64 is not even a multiple of h
    assert ref_zero_weight_irr("C", 3, (1, 1, 0)) is None
    assert ref_zero_weight_irr("A", 5, (1, 1, 0, 0, 0)) is None
    ws = weight_system(build_root_system("C", 3), (1, 1, 0))
    assert (ws.dim, ws.multiplicity((0, 0, 0))) == (64, 0)
    assert cohomology_dims("C", 3, (1, 1, 0)).irr == 10


def test_epsilon_minus_crosscheck_cases():
    rs = build_root_system("A", 1)
    for n in (1, 3, 5, 7, 9):
        assert epsilon_minus_crosscheck(weight_system(rs, (n,)))
    with pytest.raises(ValidationError):
        epsilon_minus_crosscheck(weight_system(rs, (2,)))
    for type_label, rank, coords in [("C", 2, (1, 0)), ("C", 2, (1, 1)),
                                     ("B", 2, (0, 1)), ("A", 3, (1, 0, 0)),
                                     ("C", 4, (1, 0, 0, 0)),
                                     ("C", 4, (0, 1, 1, 1))]:
        ws = weight_system(build_root_system(type_label, rank), coords)
        assert epsilon_on(ws) == -1
        assert epsilon_minus_crosscheck(ws)


def test_epsilon_minus_crosscheck_refuses_c3():
    # the odd-case identity gives 3 against the main formula's 2 here
    for type_label, rank, coords in [("C", 3, (1, 1, 0)),
                                     ("A", 5, (1, 1, 0, 0, 0))]:
        ws = weight_system(build_root_system(type_label, rank), coords)
        assert epsilon_on(ws) == -1
        with pytest.raises(ValidationError, match="C3"):
            epsilon_minus_crosscheck(ws)


# ------------------------------------------------------- subregular rows

def test_subregular_table():
    rows = subregular_table()
    got = [(r.type_label, r.rank, r.m, r.d, r.orbits, r.f_label, r.galois)
           for r in rows]
    assert got == [
        ("G", 2, 3, 3, 4, "F(3)", "SL3"),
        ("F", 4, 4, 8, 6, "F(8)", "Spin9"),
        ("E", 6, 3, 9, 8, "F(9)", "E6"),
        ("E", 7, 4, 14, 9, "F(14)*F(2)", "E7"),
        ("E", 8, 6, 24, 10, "F(24)", "E8"),
    ]
    assert rows[0].to_json_dict() == {"group": "G2", "m": 3, "d": 3,
                                      "orbits": 4, "F": "F(3)",
                                      "galois_group": "SL3"}
    for r in rows:
        assert r.orbits == r.rank + 2
