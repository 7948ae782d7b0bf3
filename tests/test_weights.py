"""Weight multiplicities, the principal SL2 decomposition, and the cache.

The reflection-based build the package used before its orbit expansion
and integer Freudenthal sums is kept here as the reference.
"""

import copy
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_principal_specialisation
from rigidconn import cohomology_dims, weights
from rigidconn.errors import ConsistencyError, ValidationError
from rigidconn.rootsys import SUPPORTED, RootSystem, build_root_system
from rigidconn.weights import (Sl2Decomposition, a_histogram, epsilon_on,
                               load_weight_system,
                               principal_sl2_decomposition,
                               save_weight_system, weight_system, weyl_dim)

KNOWN_DIMS = [
    ("A", 1, (1,), 2), ("A", 1, (6,), 7),
    ("A", 2, (1, 0), 3), ("A", 2, (1, 1), 8), ("A", 2, (3, 0), 10),
    ("A", 3, (0, 1, 0), 6), ("A", 4, (0, 0, 1, 0), 10),
    ("B", 2, (1, 0), 5), ("B", 3, (0, 0, 1), 8), ("B", 4, (0, 0, 0, 1), 16),
    ("C", 3, (1, 0, 0), 6), ("C", 3, (0, 0, 1), 14),
    ("D", 4, (1, 0, 0, 0), 8), ("D", 5, (0, 1, 0, 0, 0), 45),
    ("G", 2, (1, 0), 7), ("G", 2, (0, 1), 14),
    ("F", 4, (0, 0, 0, 1), 26), ("F", 4, (1, 0, 0, 0), 52),
    ("E", 6, (1, 0, 0, 0, 0, 0), 27), ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
]


@pytest.mark.parametrize("type_label,rank,lam,dim", KNOWN_DIMS)
def test_known_dimensions(type_label, rank, lam, dim):
    rs = build_root_system(type_label, rank)
    ws = weight_system(rs, lam)
    assert ws.dim == dim
    assert weyl_dim(rs, lam) == dim
    assert sum(ws.table.values()) == dim


def test_adjoint_zero_weight_multiplicity():
    for type_label, rank in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        rs = build_root_system(type_label, rank)
        ws = weight_system(rs, rs.theta)
        zero = (0,) * rank
        assert ws.multiplicity(zero) == rank
        for beta in rs.pos_roots:
            assert ws.multiplicity(beta) == 1


def test_random_weyl_dimension_crosscheck():
    """Freudenthal total vs the product formula on random dominant
    weights; the two routes share no code."""
    rng = random.Random(2024)
    types = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
             ("G", 2)]
    for _ in range(25):
        type_label, rank = rng.choice(types)
        rs = build_root_system(type_label, rank)
        lam = tuple(rng.randint(0, 2) for _ in range(rank))
        ws = weight_system(rs, lam)
        assert ws.dim == weyl_dim(rs, lam)


def test_spin_b8_histogram_oracle():
    """B8 spin weights are (+-1/2, ..., +-1/2) in coordinates; their
    a-values are sums of signed odd-stage contributions n-i+1.  The
    histogram computed that way must match the weight-system one."""
    n = 8
    rs = build_root_system("B", n)
    ws = weight_system(rs, (0,) * (n - 1) + (1,))
    want = {}
    for signs in itertools.product((1, -1), repeat=n):
        a = sum(s * (n - i) for i, s in enumerate(signs))
        want[a] = want.get(a, 0) + 1
    assert a_histogram(ws) == want
    assert ws.dim == 2 ** n


def test_spin_b3_epsilon_and_pieces():
    rs = build_root_system("B", 3)
    ws = weight_system(rs, (0, 0, 1))
    assert epsilon_on(ws) == 1
    assert principal_sl2_decomposition(ws).pieces() == [(0, 1), (6, 1)]


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("B", 3),
                                             ("C", 3), ("D", 4), ("G", 2),
                                             ("F", 4)])
def test_adjoint_sl2_pieces_are_doubled_exponents(type_label, rank):
    rs = build_root_system(type_label, rank)
    ws = weight_system(rs, rs.theta)
    dec = principal_sl2_decomposition(ws)
    want = {}
    for m in rs.exponents:
        want[2 * m] = want.get(2 * m, 0) + 1
    assert dec.pieces() == sorted(want.items())
    assert dec.summand_count() == rank


def test_g2_seven_dim_is_one_sl2_string():
    rs = build_root_system("G", 2)
    ws = weight_system(rs, (1, 0))
    assert principal_sl2_decomposition(ws).pieces() == [(6, 1)]


@pytest.mark.parametrize("hist,dim", [
    ({0: 1}, 2),                     # one Sym^0, but dim 2
    ({2: 1, 0: 1}, 3),               # not symmetric
    ({2: 2, 0: 1, -2: 2}, 5),        # negative Sym^0 multiplicity
    ({1: 1, 0: 1, -1: 1}, 3),        # Sym^1 + Sym^0: mixed parities
])
def test_sl2_decomposition_rejects_bad_histograms(hist, dim):
    with pytest.raises(ConsistencyError, match="principal SL2: .*bad"):
        Sl2Decomposition(hist, dim, "bad")


def test_sl2_decomposition_rejects_bad_histogram_under_optimize():
    code = ("from rigidconn.errors import ConsistencyError\n"
            "from rigidconn.weights import Sl2Decomposition\n"
            "try:\n"
            "    Sl2Decomposition({0: 1}, 2, 'bad')\n"
            "except ConsistencyError:\n"
            "    raise SystemExit(3)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert proc.returncode == 3


def test_non_dominant_rejected():
    rs = build_root_system("A", 2)
    with pytest.raises(ValidationError):
        weight_system(rs, (-1, 0))


@pytest.mark.parametrize("bad", [2.5, 1.9, Fraction(1, 2), "1", None,
                                 float("nan"), float("inf")],
                         ids=["2.5", "1.9", "1/2", "str", "None", "nan",
                              "inf"])
def test_non_integral_coordinate_is_bad_input(monkeypatch, bad):
    """A coordinate that is not an integer is refused, never rounded: by
    WeightSystem, weyl_dim, the weight_system cache and cohomology_dims."""
    monkeypatch.setattr(weights, "_MEM_CACHE", {})
    a1, e6 = build_root_system("A", 1), build_root_system("E", 6)
    msg = "has a coordinate that is not an integer"
    weight_system(a1, (1,))
    with pytest.raises(ValidationError, match=msg):
        weight_system(a1, (bad,))
    with pytest.raises(ValidationError, match=msg):
        weights.WeightSystem(a1, (bad,))
    with pytest.raises(ValidationError, match=msg):
        weyl_dim(e6, (bad, 0, 0, 0, 0, 0))
    with pytest.raises(ValidationError, match=msg):
        cohomology_dims("A", 1, (bad,))
    assert list(weights._MEM_CACHE) == [("A", 1, (1,))]


def test_integral_coordinates_of_other_types_are_ints():
    rs = build_root_system("A", 2)
    ws = weight_system(rs, (Fraction(1), 1.0))
    assert ws is weight_system(rs, (1, 1))
    assert all(type(x) is int for x in ws.highest)
    assert weyl_dim(rs, (2.0, Fraction(0))) == 6
    assert cohomology_dims("A", 1, (2.0,)).to_json_dict()["lambda"] == [2]


def test_cache_round_trip(tmp_path):
    rs = build_root_system("B", 2)
    ws = weight_system(rs, (1, 1))
    path = tmp_path / "b2.json"
    save_weight_system(ws, str(path))
    loaded = load_weight_system(str(path))
    assert loaded.table == ws.table
    assert loaded.dim == ws.dim


def test_cache_detects_tampering(tmp_path):
    rs = build_root_system("A", 2)
    ws = weight_system(rs, (1, 1))
    path = tmp_path / "a2.json"
    save_weight_system(ws, str(path))
    data = json.loads(path.read_text())
    data["entries"][0][-2] += 1
    path.write_text(json.dumps(data))
    with pytest.raises(ConsistencyError):
        load_weight_system(str(path))


small_types = st.sampled_from([("A", 1), ("A", 2), ("B", 2), ("C", 3),
                               ("G", 2)])


@st.composite
def dominant_weights(draw):
    type_label, rank = draw(small_types)
    lam = tuple(draw(st.integers(min_value=0, max_value=2))
                for _ in range(rank))
    return type_label, rank, lam


@given(dominant_weights())
@settings(max_examples=40, deadline=None)
def test_reflection_invariance(case):
    type_label, rank, lam = case
    rs = build_root_system(type_label, rank)
    ws = weight_system(rs, lam)
    for mu, mult in ws.table.items():
        for i in range(rank):
            refl = tuple(x - mu[i] * y
                         for x, y in zip(mu, rs.simple_roots[i]))
            assert ws.multiplicity(refl) == mult


@given(dominant_weights())
@settings(max_examples=40, deadline=None)
def test_a_parity_is_constant(case):
    type_label, rank, lam = case
    rs = build_root_system(type_label, rank)
    ws = weight_system(rs, lam)
    parity = rs.a_value(lam) % 2
    assert all(a % 2 == parity for a in ws.a_of.values())
    assert epsilon_on(ws) == (1 if parity == 0 else -1)


# ------------------------------------ reference: the reflection-based build

def ref_form(rs, mu, nu):
    """(mu, nu) in Fractions, through the simple-root coordinates of mu."""
    c = rs.simple_coords(mu)
    return sum(cj * dj * vj for cj, dj, vj in zip(c, rs.d, nu))


def ref_dominant_rep(rs, mu):
    """The dominant weight in mu's W-orbit, one simple reflection at a time."""
    while True:
        i = next((k for k, x in enumerate(mu) if x < 0), None)
        if i is None:
            return mu
        mu = tuple(x - mu[i] * y for x, y in zip(mu, rs.simple_roots[i]))


def ref_weight_table(rs, highest):
    """{weight: multiplicity} with the weight set saturated along root
    strings from highest and Freudenthal's recursion summed in Fractions,
    reading non-dominant multiplicities through ref_dominant_rep."""
    weights = {highest}
    frontier = [highest]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(rs.rank):
                cur = mu
                for _ in range(mu[i]):
                    cur = tuple(c - s for c, s in zip(cur, rs.simple_roots[i]))
                    if cur not in weights:
                        weights.add(cur)
                        nxt.append(cur)
        frontier = nxt
    lam_rho = tuple(x + 1 for x in highest)
    norm_top = ref_form(rs, lam_rho, lam_rho)
    dominant = sorted((mu for mu in weights if min(mu) >= 0),
                      key=lambda mu: sum(rs.simple_coords(
                          tuple(l - m for l, m in zip(highest, mu)))))
    dom = {}
    for mu in dominant:
        if mu == highest:
            dom[mu] = 1
            continue
        total = Fraction(0)
        for beta in rs.pos_roots:
            nu = tuple(a + b for a, b in zip(mu, beta))
            while nu in weights:
                total += ref_form(rs, nu, beta) * dom[ref_dominant_rep(rs, nu)]
                nu = tuple(a + b for a, b in zip(nu, beta))
        mu_rho = tuple(x + 1 for x in mu)
        dom[mu] = 2 * total / (norm_top - ref_form(rs, mu_rho, mu_rho))
    return {mu: dom[ref_dominant_rep(rs, mu)] for mu in weights}


def ref_orbit_order(rs, dominant):
    """The W-orbits of the dominant weights, in order, by the walk that
    builds every s_j nu with nu[j] > 0 and keeps it when j is its first
    negative coordinate."""
    out = []
    for mu in dominant:
        orbit = [mu]
        for nu in orbit:
            for j, c in enumerate(nu):
                if c > 0:
                    child = tuple(x - c * y
                                  for x, y in zip(nu, rs.simple_roots[j]))
                    if min(child[:j], default=0) >= 0:
                        orbit.append(child)
        out += orbit
    return out


def reference_sweep(type_label, rank):
    """The adjoint and the fundamental weights of Weyl dimension <= 5000."""
    rs = build_root_system(type_label, rank)
    out = {rs.theta}
    out.update(w for w in map(rs.fundamental_weight, range(rank))
               if weyl_dim(rs, w) <= 5000)
    return sorted(out)


# B9 is the one rank above 8; every cohomology job list builds its spin
# module
SWEEP_TYPES = [(t, n) for t, (lo, hi) in sorted(SUPPORTED.items())
               for n in range(lo, min(hi, 8) + 1)] + [("B", 9)]


@pytest.mark.parametrize("type_label,rank", SWEEP_TYPES)
def test_weight_system_matches_reflection_reference(type_label, rank):
    rs = build_root_system(type_label, rank)
    a_coeffs = [0] * rank
    for beta in rs.pos_roots:
        for i, c in enumerate(rs.coroot_coeffs(beta)):
            a_coeffs[i] += c
    for mu in rs.simple_roots + [rs.theta]:
        for nu in rs.simple_roots:
            assert rs.form(mu, nu) == ref_form(rs, mu, nu)
    for highest in reference_sweep(type_label, rank):
        ws = weight_system(rs, highest)
        want = ref_weight_table(rs, highest)
        assert ws.table == want, highest
        assert all(type(m) is int for m in ws.table.values())
        assert ({mu: m for mu, m in ws.table.items() if min(mu) >= 0}
                == {mu: m for mu, m in want.items() if min(mu) >= 0})
        assert ws.a_of == {mu: sum(map(mul, mu, a_coeffs)) for mu in want}
        assert ws.dim == weyl_dim(rs, highest)
        order = ref_orbit_order(rs, [mu for mu in ws.table if min(mu) >= 0])
        assert list(ws.table) == list(ws.a_of) == order


def test_freudenthal_root_data_are_built_once_per_root_system(monkeypatch):
    """(beta, beta) and gram beta of the positive roots are computed once
    per root system: over two weight systems of a fresh E6, gram_pair
    runs once per positive root and once per dominant weight (the norm
    of lambda + rho, then of mu + rho at each lower one)."""
    monkeypatch.setattr(weights, "_MEM_CACHE", {})
    rs = RootSystem("E", 6)
    calls = []
    pair = RootSystem.gram_pair

    def counted(self, mu, nu):
        calls.append(mu)
        return pair(self, mu, nu)

    monkeypatch.setattr(RootSystem, "gram_pair", counted)
    built = [weight_system(rs, rs.theta),
             weight_system(rs, rs.fundamental_weight(0))]
    dominant = sum(1 for ws in built for mu in ws.table if min(mu) >= 0)
    assert len(calls) == len(rs.pos_roots) + dominant


def test_orbit_a_values_on_the_cohomology_jobs(monkeypatch):
    """a(s_j nu) = a(nu) - 2 nu_j along each orbit gives the dot product
    <nu, 2 rho-check> on every weight system that the benchmark's
    cohomology job lists (seeds 1-3) build, folded components included."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads

    # a fresh cache holds exactly the weight systems the jobs build
    monkeypatch.setattr(weights, "_MEM_CACHE", {})
    for seed in (1, 2, 3):
        for job in workloads.make_jobs("cohomology", seed):
            cohomology_dims(job["type"], job["rank"], job["highest"])
    assert len(weights._MEM_CACHE) > 100
    for ws in weights._MEM_CACHE.values():
        coeffs = ws.rs.a_coeffs
        assert ws.a_of == {mu: sum(map(mul, mu, coeffs)) for mu in ws.table}


ADJOINTS = [(t, n) for t, (lo, hi) in sorted(SUPPORTED.items())
            for n in range(lo, hi + 1)]


@pytest.mark.parametrize("type_label,rank", ADJOINTS,
                         ids=["%s%d" % key for key in ADJOINTS])
def test_principal_specialisation_of_the_adjoint(type_label, rank):
    rs = build_root_system(type_label, rank)
    assert (a_histogram(weight_system(rs, rs.theta))
            == ref_principal_specialisation(rs, rs.theta))


def test_principal_specialisation_on_the_cohomology_jobs(monkeypatch):
    """Weyl's product and the weight build give one a-histogram on every
    highest weight of the benchmark's cohomology job lists (seeds 1-3)
    and on E8 (1,0,0,0,0,0,0,1), of dimension 779,247."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads

    cases = {(job["type"], job["rank"], tuple(job["highest"]))
             for seed in (1, 2, 3)
             for job in workloads.make_jobs("cohomology", seed)}
    cases.add(("E", 8, (1, 0, 0, 0, 0, 0, 0, 1)))
    assert len(cases) > 50
    for type_label, rank, highest in sorted(cases):
        rs = build_root_system(type_label, rank)
        assert (a_histogram(weight_system(rs, highest))
                == ref_principal_specialisation(rs, highest)), highest


def test_principal_specialisation_sees_a_wrong_multiplicity(monkeypatch):
    """A Freudenthal step one too high, at the zero weight of the A2
    adjoint, is caught by the comparison."""
    monkeypatch.setattr(weights, "_MEM_CACHE", {})
    monkeypatch.setattr(weights, "divmod", lambda a, b: (a // b + 1, a % b),
                        raising=False)
    rs = build_root_system("A", 2)
    ws = weight_system(rs, rs.theta)
    assert ws.table[(0, 0)] == 3
    assert a_histogram(ws) != ref_principal_specialisation(rs, rs.theta)


@pytest.mark.parametrize("type_label,rank,highest",
                         [("A", 2, (1, 1)), ("G", 2, (1, 1)),
                          ("B", 3, (0, 0, 1))])
def test_principal_specialisation_sees_a_wrong_orbit_a_value(type_label,
                                                             rank, highest):
    """An a-value moved by 2 at any one non-dominant weight, as a wrong
    a(s_j nu) = a(nu) - 2 nu[j] step of the orbit expansion would give,
    fails both Weyl's product and the symmetry of the a-histogram."""
    rs = build_root_system(type_label, rank)
    ws = weight_system(rs, highest)
    want = ref_principal_specialisation(rs, highest)
    assert a_histogram(ws) == want
    moved = [mu for mu in ws.table if min(mu) < 0]
    assert moved
    for mu in moved:
        bad = copy.copy(ws)
        bad.a_of = dict(ws.a_of)
        bad.a_of[mu] += 2
        assert a_histogram(bad) != want, mu
        with pytest.raises(ConsistencyError, match="not symmetric"):
            Sl2Decomposition(a_histogram(bad), bad.dim, bad.label())
