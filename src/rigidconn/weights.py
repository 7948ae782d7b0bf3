"""Weight multiplicities, the a-grading, and principal SL2 decompositions.

The weights of V are the W-orbits of the dominant weights below lambda,
each orbit generated by simple reflections where a coordinate is
positive; s_j with j above nu's first negative coordinate f and not
next to it is skipped unbuilt.  Multiplicities come from the Freudenthal
recursion on the dominant weights, in integers over the Gram form and
the root strings that RootSystem.strings builds once per root system.
The a-grading a(mu) = <mu, 2rho-check> is a dot product only at the
dominant weights and is carried along each orbit; it drives the
decomposition of V under the principal SL2 and epsilon = (-1)^{a(lambda)}.
"""

from fractions import Fraction
import json
from math import prod
from numbers import Real
from operator import add, mul, sub
import os

from .errors import ConsistencyError, ValidationError
from .rootsys import build_root_system


def _integral(highest):
    """highest as a tuple of ints; any other coordinate is bad input."""
    highest = tuple(highest)
    if not all(isinstance(x, Real) and x % 1 == 0 for x in highest):
        raise ValidationError("highest weight %r has a coordinate that is "
                              "not an integer" % (highest,))
    return tuple(map(int, highest))


class WeightSystem:
    """All weights of the irreducible module with a given highest weight."""

    def __init__(self, rs, highest):
        highest = _integral(highest)
        if len(highest) != rs.rank:
            raise ValidationError("highest weight length %d does not match rank %d"
                                  % (len(highest), rs.rank))
        if any(x < 0 for x in highest):
            raise ValidationError("highest weight %r is not dominant" % (highest,))
        self.rs = rs
        self.highest = highest
        self._build()

    def _build(self):
        rs = self.rs
        lam = self.highest
        # every dominant mu < lambda is reached from lambda through dominant
        # weights by subtracting positive roots (Stembridge); depth[mu] is
        # the height of lambda - mu
        depth = {lam: 0}
        dominant = [lam]
        for mu in dominant:
            for beta in rs.pos_roots:
                nu = tuple(map(sub, mu, beta))
                if min(nu) >= 0 and nu not in depth:
                    depth[nu] = depth[mu] + rs.height[beta]
                    dominant.append(nu)
        dominant.sort(key=lambda mu: (depth[mu], mu))
        # their W-orbits (Snow, ACM TOMS 16, 1990): s_j nu with nu[j] > 0 is
        # kept only when j is its first negative coordinate, so it has one
        # parent and every orbit element comes once.  s_j nu changes only
        # nu[j] and its Dynkin neighbours, and a(s_j nu) = a(nu) - 2 nu[j].
        # Given nu's first negative coordinate f (rank if none), every j < f
        # passes; a j > f passes only if it neighbours f, else child[f] < 0
        links = [[(k, rs.cartan[k][j]) for k in range(rs.rank)
                  if k != j and rs.cartan[k][j]] for j in range(rs.rank)]
        tries = [[*range(f), *(k for k, _x in links[f] if k > f)]
                 for f in range(rs.rank)] + [list(range(rs.rank))]
        rep = {}
        self.a_of = a_of = {}
        for mu in dominant:
            orbit = [(mu, rs.a_value(mu), rs.rank)]
            for nu, a, f in orbit:
                rep[nu] = mu
                a_of[nu] = a
                for j in tries[f]:
                    c = nu[j]
                    if c > 0:
                        child = list(nu)
                        child[j] = -c
                        for k, x in links[j]:
                            child[k] -= c * x
                        if j < f or min(child[:j]) >= 0:
                            orbit.append((tuple(child), a - 2 * c, j))
        # Freudenthal in integers: gram_den * (nu, beta) grows by
        # gram_den * (beta, beta) along each root string
        lam_rho = tuple(x + 1 for x in lam)
        norm_top = rs.gram_pair(lam_rho, lam_rho)
        dom_mult = {lam: 1}
        for mu in dominant[1:]:
            total = 0
            for beta, step, g_beta in rs.strings:
                pair = sum(map(mul, mu, g_beta))
                nu = tuple(map(add, mu, beta))
                top = rep.get(nu)
                while top is not None:
                    pair += step
                    total += pair * dom_mult[top]
                    nu = tuple(map(add, nu, beta))
                    top = rep.get(nu)
            mu_rho = tuple(x + 1 for x in mu)
            denom = norm_top - rs.gram_pair(mu_rho, mu_rho)
            m, rem = divmod(2 * total, denom)
            if rem or m <= 0:
                raise ConsistencyError(
                    "Freudenthal: %s gives weight %s the multiplicity %s, not "
                    "a positive integer"
                    % (self.label(), mu, Fraction(2 * total, denom)))
            dom_mult[mu] = m
        self.table = {nu: dom_mult[mu] for nu, mu in rep.items()}
        self.weights = self.table.keys()
        self.dim = sum(self.table.values())
        parity = self.a_of[lam] % 2
        if any(a % 2 != parity for a in self.a_of.values()):
            raise ConsistencyError("a-grading parity is not constant on the "
                                   "weights of %r" % (lam,))

    def multiplicity(self, mu):
        return self.table.get(tuple(mu), 0)

    def label(self):
        return "%s, lambda=%s" % (self.rs.label(), list(self.highest))


def a_histogram(ws):
    """N_j = total multiplicity of the weights mu of ws with a(mu) = j.

    It is also the histogram of ws restricted to a folded subgroup:
    galois.fold_branching keeps the a-value of every weight."""
    hist = {}
    for mu, m in ws.table.items():
        a = ws.a_of[mu]
        hist[a] = hist.get(a, 0) + m
    return hist


class Sl2Decomposition:
    """V = sum of Sym^k with multiplicity m(k) under the principal SL2.

    Read off the a-histogram of V (total multiplicity of each a-value),
    which must come from a module of dimension dim; label names the
    module in errors.
    """

    def __init__(self, hist, dim, label):
        for j, n in hist.items():
            if hist.get(-j, 0) != n:
                raise ConsistencyError("principal SL2: a-histogram of %s is "
                                       "not symmetric at %d" % (label, j))
        self.m = {}
        top = max(hist) if hist else 0
        for k in range(top + 1):
            mk = hist.get(k, 0) - hist.get(k + 2, 0)
            if mk < 0:
                raise ConsistencyError("principal SL2: negative Sym^%d "
                                       "multiplicity in %s" % (k, label))
            if mk:
                self.m[k] = mk
        total = sum(mk * (k + 1) for k, mk in self.m.items())
        if total != dim:
            raise ConsistencyError("principal SL2: Sym multiplicities of %s "
                                   "add up to %d, not dim %d"
                                   % (label, total, dim))
        parities = {k % 2 for k in self.m}
        if len(parities) > 1:
            raise ConsistencyError("principal SL2: mixed Sym parities in %s; "
                                   "the central involution does not act by "
                                   "a scalar" % label)

    def summand_count(self):
        return sum(self.m.values())

    def pieces(self):
        return sorted(self.m.items())


def principal_sl2_decomposition(ws):
    return Sl2Decomposition(a_histogram(ws), ws.dim, ws.label())


def epsilon_on(ws):
    """(-1)^{a(lambda)}, the action of (2rho-check)(-1) on V."""
    return -1 if ws.a_of[ws.highest] % 2 else 1


def weyl_dim(rs, highest):
    """Weyl dimension formula; an independent check on Freudenthal sums."""
    highest = _integral(highest)
    rho = (1,) * rs.rank
    lam_rho = tuple(x + 1 for x in highest)
    out = Fraction(prod(rs.gram_pair(lam_rho, b) for b in rs.pos_roots),
                   prod(rs.gram_pair(rho, b) for b in rs.pos_roots))
    if out.denominator != 1:
        raise ConsistencyError("weyl_dim: %s, lambda=%s has Weyl dimension "
                               "%s, not an integer"
                               % (rs.label(), list(highest), out))
    return int(out)


_MEM_CACHE = {}


def weight_system(rs, highest):
    key = (rs.type_label, rs.rank, _integral(highest))
    got = _MEM_CACHE.get(key)
    if got is None:
        got = _MEM_CACHE[key] = WeightSystem(rs, key[2])
    return got


def weight_system_to_dict(ws):
    entries = []
    for mu in sorted(ws.table):
        entries.append(list(mu) + [ws.table[mu], ws.a_of[mu]])
    return {"type": ws.rs.type_label, "rank": ws.rs.rank,
            "lambda": list(ws.highest), "entries": entries}


def save_weight_system(ws, path):
    import tempfile
    payload = json.dumps(weight_system_to_dict(ws), sort_keys=True)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_weight_system(path):
    """A save_weight_system file, checked against a fresh computation."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            rs = build_root_system(data["type"], data["rank"])
            ws = weight_system(rs, data["lambda"])
            expect = {tuple(row[:-2]): row[-2] for row in data["entries"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConsistencyError("cached weight table %s is malformed: %r"
                                   % (path, exc))
    if expect != ws.table:
        raise ConsistencyError("cached weight table for %s disagrees with "
                               "a fresh computation" % ws.label())
    return ws
