"""Differential Galois data and cohomology dimensions from weight data.

Everything here is weight combinatorics: the irregularity comes from
counting weights killed by the Coxeter primitive projector, by their
pairings with its integer rows, the inertia invariants from the principal
a-grading, and the fixed space of the differential Galois group from
branching through the folded subgroup when the group has a nontrivial
diagram automorphism fixing the connection.
"""

from functools import lru_cache
from operator import mul

from .errors import ConsistencyError, ValidationError
from .linalg import _cleared, _row_reduce
from .rootsys import (build_root_system, coxeter_element,
                      coxeter_primitive_projector, primitive_rank)
from .weights import (Sl2Decomposition, a_histogram, epsilon_on,
                      weight_system)


def _folding(type_label, rank):
    """(target, orbits) for a type whose differential Galois group is the
    folded target (type, rank), else None; orbits[i] lists the source
    nodes, from 1, whose coordinates add up to target coordinate i."""
    if type_label == "A" and rank >= 3 and rank % 2 == 1:
        n = (rank + 1) // 2
        return ("C", n), [(j, rank + 1 - j) for j in range(1, n)] + [(n,)]
    if type_label == "B" and rank == 3:
        return ("G", 2), [(1, 3), (2,)]
    if type_label == "D" and rank == 4:
        return ("G", 2), [(1, 3, 4), (2,)]
    if type_label == "D":
        return (("B", rank - 1), [(j,) for j in range(1, rank - 1)]
                + [(rank - 1, rank)])
    if type_label == "E" and rank == 6:
        return ("F", 4), [(2,), (4,), (3, 5), (1, 6)]
    return None


def galois_group(type_label, rank):
    """(type, rank) of the differential Galois group, as _folding decides."""
    source = (build_root_system(type_label, rank).type_label, rank)
    folding = _folding(*source)
    return folding[0] if folding else source


def folding_matrix(type_label, rank):
    """Rows of the weight-lattice projection onto the folded subsystem.

    Each row gives one fundamental-weight coordinate of the target as
    an integer combination of source coordinates (orbit sums of the
    diagram automorphism).  The folding must keep the Coxeter number and
    the principal grading.
    """
    rs = build_root_system(type_label, rank)
    folding = _folding(rs.type_label, rank)
    if folding is None:
        raise ValidationError("type %s does not fold" % rs.label())
    target, orbits = folding
    rows = [[int(c in orbit) for c in range(1, rank + 1)] for orbit in orbits]
    rs_t = build_root_system(*target)
    if rs_t.coxeter_number != rs.coxeter_number:
        raise ConsistencyError("folding %s -> %s changes the Coxeter number "
                               "from %d to %d"
                               % (rs.label(), rs_t.label(), rs.coxeter_number,
                                  rs_t.coxeter_number))
    for i in range(rank):
        omega = rs.fundamental_weight(i)
        image = tuple(r[i] for r in rows)
        if rs_t.a_value(image) != rs.a_value(omega):
            raise ConsistencyError("folding %s -> %s does not preserve the "
                                   "principal grading at node %d"
                                   % (rs.label(), rs_t.label(), i + 1))
    return rows


def fold_branching(ws, target_rs, rows):
    """Weight multiset of ws pushed along the folding projection."""
    # each 0/1 row of folding_matrix is the sum over one orbit of nodes
    orbits = [[i for i, c in enumerate(r) if c] for r in rows]
    out = {}
    for mu, mult in ws.table.items():
        image = tuple([sum([mu[i] for i in orbit]) for orbit in orbits])
        if target_rs.a_value(image) != ws.a_of[mu]:
            raise ConsistencyError("projected weight %s changed a-value"
                                   % (mu,))
        out[image] = out.get(image, 0) + mult
    return out


def peel_components(rs, table):
    """Decompose a weight multiset into irreducibles of rs, greedily.

    Repeatedly takes a weight of maximal a-value, which must be the
    highest weight of some summand, and subtracts that irreducible.
    Returns [(highest weight, multiplicity)] in peel order.
    """
    rest = {mu: mult for mu, mult in table.items() if mult}
    # rest only loses keys: a weight outside it would go negative and raise
    a_of = {mu: rs.a_value(mu) for mu in rest}
    comps = []
    while rest:
        mu = max(rest, key=lambda m: (a_of[m], m))
        if any(x < 0 for x in mu):
            raise ConsistencyError("peeling reached the non-dominant weight "
                                   "%s; the projection map is wrong" % (mu,))
        count = rest[mu]
        sub = weight_system(rs, mu)
        for nu, m2 in sub.table.items():
            new = rest.get(nu, 0) - count * m2
            if new < 0:
                raise ConsistencyError("branching multiplicity of %s went "
                                       "negative while peeling %s"
                                       % (nu,  mu))
            if new:
                rest[nu] = new
            else:
                rest.pop(nu, None)
        comps.append((mu, count))
    return comps


def _restrict_to_galois(ws):
    """V as a module of the differential Galois group: that group's root
    system, V's weight multiset in it and its irreducible components
    [(highest weight, multiplicity)]."""
    rs = ws.rs
    target = galois_group(rs.type_label, rs.rank)
    if target == (rs.type_label, rs.rank):
        return rs, ws.table, [(ws.highest, 1)]
    rs_t = build_root_system(*target)
    table = fold_branching(ws, rs_t, folding_matrix(rs.type_label, rs.rank))
    return rs_t, table, peel_components(rs_t, table)


@lru_cache(maxsize=None)
def _torus_rows(rs):
    """Integer rows cutting out the weights in V^S: the nonzero rows of the
    row-reduced primitive projector of coxeter_element(rs).  They must
    number primitive_rank(rs), which the root heights give (Kostant)."""
    rows, _ = _cleared(coxeter_primitive_projector(coxeter_element(rs),
                                                    rs.coxeter_number))
    rows = rows[:len(_row_reduce(rows))]
    if len(rows) != primitive_rank(rs):
        raise ConsistencyError(
            "Coxeter torus: the primitive projector of %s has rank %d, but %d "
            "exponents are coprime to h = %d"
            % (rs.label(), len(rows), primitive_rank(rs), rs.coxeter_number))
    return tuple(map(tuple, rows))


def _local_invariants(rs, table, ws, label):
    """Local invariants of ws, with weight multiset table under rs: ws's
    own, or its restriction to a folded subgroup, which keeps a-values.

    dim V^S counts the weights killed by the primitive projector of the
    Coxeter element, via _torus_rows; the irregularity is (dim V - dim
    V^S)/h; the principal SL2 gives dim V^{I_0}; the weights with a = 0
    mod 2h span V^{<n>}; dim V^{I_inf} is n-fixed - irr when epsilon = +1,
    else 0.  label names V in errors.
    """
    dim = sum(table.values())
    h = rs.coxeter_number
    rows = _torus_rows(rs)
    v_s = sum(mult for mu, mult in table.items()
              if not any(sum(map(mul, row, mu)) for row in rows))
    if (dim - v_s) % h:
        raise ConsistencyError("irregularity: (dim - dim V^S)/h = "
                               "(%d - %d)/%d is not an integer for %s"
                               % (dim, v_s, h, label))
    irr = (dim - v_s) // h
    hist = a_histogram(ws)
    i0 = Sl2Decomposition(hist, dim, label).summand_count()
    n_fixed = sum(c for a, c in hist.items() if a % (2 * h) == 0)
    i_inf = 0
    if epsilon_on(ws) == 1:
        i_inf = n_fixed - irr
        if i_inf < 0:
            raise ConsistencyError("inertia at infinity: m(chi_0) = %d - %d "
                                   "is negative for %s"
                                   % (n_fixed, irr, label))
    return {"dim": dim, "V_S": v_s, "irr": irr, "I0": i0,
            "n_fixed": n_fixed, "Iinf": i_inf}


def local_invariants(ws):
    """{dim, V_S, irr, I0, n_fixed, Iinf} of the irreducible module ws
    under its own root system: dim V^S, Irr_infinity(V) = (dim V - dim
    V^S)/h and the dims of V^{I_0}, V^{<n>} and V^{I_infinity}."""
    return _local_invariants(ws.rs, ws.table, ws, ws.label())


class CohomologyReport:
    def __init__(self, group, rank, highest, dim, epsilon, irr, inv_i0,
                 inv_n, inv_iinf, inv_galois, galois_label, trace):
        self.group = group
        self.rank = rank
        self.highest = tuple(highest)
        self.dim = dim
        self.epsilon = epsilon
        self.irr = irr
        self.inv_I0 = inv_i0
        self.inv_n = inv_n
        self.inv_Iinf = inv_iinf
        self.inv_galois = inv_galois
        self.galois_label = galois_label
        self.trace = list(trace)
        self.h0 = inv_galois
        self.h2 = inv_galois
        self.h1 = irr - inv_i0 - inv_iinf + 2 * inv_galois
        if self.h1 < 0:
            raise ConsistencyError("negative h1 = %d - %d - %d + 2*%d for "
                                   "%s%d weight %s"
                                   % (irr, inv_i0, inv_iinf, inv_galois,
                                      group, rank, list(highest)))

    def to_json_dict(self):
        return {
            "group": self.group,
            "rank": self.rank,
            "lambda": list(self.highest),
            "dim": self.dim,
            "epsilon": self.epsilon,
            "irr": self.irr,
            "inv_I0": self.inv_I0,
            "inv_n": self.inv_n,
            "inv_Iinf": self.inv_Iinf,
            "inv_galois": self.inv_galois,
            "h0": self.h0,
            "h1": self.h1,
            "h2": self.h2,
            "galois_group": self.galois_label,
        }


def cohomology_dims(type_label, rank, highest):
    """Cohomology of the middle extension for the irreducible V(highest).

    All local invariants are computed inside the differential Galois
    group; for folded types that means projecting the weights first and
    working in the smaller system.
    """
    rs = build_root_system(type_label, rank)
    ws = weight_system(rs, highest)
    epsilon = epsilon_on(ws)
    rs_t, table, comps = _restrict_to_galois(ws)
    inv_g = sum(c for mu, c in comps if not any(mu))
    if rs_t.label() != rs.label():
        pieces = " + ".join("%d" % (weight_system(rs_t, mu).dim * count)
                            for mu, count in comps)
        trace = ["folded %s -> %s; V restricts as %s"
                 % (rs.label(), rs_t.label(), pieces)]
        label = "%s restricted to %s" % (ws.label(), rs_t.label())
    else:
        trace = ["galois group is all of %s" % rs.label()]
        label = ws.label()
    inv = _local_invariants(rs_t, table, ws, label)
    trace.append("irregularity (%d - %d)/%d = %d via the Coxeter projector"
                 % (inv["dim"], inv["V_S"], rs_t.coxeter_number, inv["irr"]))
    if epsilon == 1:
        trace.append("epsilon = +1: I_inf = n-fixed(%d) - irr(%d) = %d"
                     % (inv["n_fixed"], inv["irr"], inv["Iinf"]))
    else:
        trace.append("epsilon = -1 forbids the trivial character: I_inf = 0")
    return CohomologyReport(rs.type_label, rank, ws.highest, ws.dim, epsilon,
                            inv["irr"], inv["I0"], inv["n_fixed"],
                            inv["Iinf"], inv_g, rs_t.label(), trace)


def epsilon_minus_crosscheck(ws):
    """The odd-case identity d(V) = #{a = 2k+1 : k = 0 mod h, k nonzero}
    against the main formula.  It holds when every exponent of the
    differential Galois group is prime to h (A1, B2 = C2, C4), so that V^S
    is the zero weight space; other groups (C3) are refused."""
    rs = ws.rs
    rs_t = build_root_system(*galois_group(rs.type_label, rs.rank))
    if primitive_rank(rs_t) != rs_t.rank:
        raise ValidationError("cross-check needs every exponent of the "
                              "Galois group %s prime to h = %d"
                              % (rs_t.label(), rs_t.coxeter_number))
    rep = cohomology_dims(rs.type_label, rs.rank, ws.highest)
    if rep.epsilon != -1:
        raise ValidationError("cross-check needs epsilon = -1 on V")
    h = rs.coxeter_number
    # a = 2k + 1 with k = 0 mod h, k nonzero
    count = sum(c for a, c in a_histogram(ws).items()
                if a % 2 and a != 1 and (a - 1) // 2 % h == 0)
    d_main = rep.h1 - 2 * rep.inv_galois
    if count != d_main:
        raise ConsistencyError("odd-case formula gives %d but the main "
                               "formula gives %d for %s" % (count, d_main,
                                                            ws.label()))
    return True


class SubregularRow:
    def __init__(self, type_label, rank, m, d, orbits, f_label, galois):
        self.type_label = type_label
        self.rank = rank
        self.m = m
        self.d = d
        self.orbits = orbits
        self.f_label = f_label
        self.galois = galois

    def to_json_dict(self):
        return {"group": "%s%d" % (self.type_label, self.rank), "m": self.m,
                "d": self.d, "orbits": self.orbits, "F": self.f_label,
                "galois_group": self.galois}


_SUBREGULAR_STATIC = [
    ("G", 2, "F(3)", "SL3"),
    ("F", 4, "F(8)", "Spin9"),
    ("E", 6, "F(9)", "E6"),
    ("E", 7, "F(14)*F(2)", "E7"),
    ("E", 8, "F(24)", "E8"),
]


def subregular_table():
    """Numerical invariants of the subregular analog, one row per
    exceptional type: m, d = h - m, and the orbit count r + 2."""
    rows = []
    for type_label, rank, f_label, galois in _SUBREGULAR_STATIC:
        rs = build_root_system(type_label, rank)
        coeffs = rs.simple_coords(rs.theta)
        m = max(coeffs)
        if m.denominator != 1:
            raise ConsistencyError("subregular table: highest root of %s "
                                   "has the non-integral mark %s"
                                   % (rs.label(), m))
        m = int(m)
        d = rs.coxeter_number - m
        orbits, rem = divmod(rank * rs.coxeter_number, d)
        if rem or orbits != rank + 2:
            raise ConsistencyError("subregular orbit count for %s is "
                                   "%d*%d/%d, expected %d"
                                   % (rs.label(), rank, rs.coxeter_number,
                                      d, rank + 2))
        rows.append(SubregularRow(type_label, rank, m, d, orbits, f_label,
                                  galois))
    return rows
