"""Weight multiplicities, the a-grading, and principal SL2 decompositions.

Multiplicities come from the Freudenthal recursion on dominant weights
followed by Weyl-orbit expansion.  The a-grading a(mu) = <mu, 2rho-check>
is stored eagerly as exact integers; it drives the decomposition of V
under the principal SL2 and the sign epsilon = (-1)^{a(lambda)}.
"""

from fractions import Fraction
import json
import os
import tempfile

from .errors import ConsistencyError, ValidationError
from .rootsys import build_root_system


class WeightSystem:
    """All weights of the irreducible module with a given highest weight."""

    def __init__(self, rs, highest):
        highest = tuple(int(x) for x in highest)
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
        r = rs.rank
        simple = rs.simple_roots
        # saturate: fill every root string from each weight toward its
        # reflections; the closure is the full weight set
        weights = {self.highest}
        frontier = [self.highest]
        while frontier:
            nxt = []
            for mu in frontier:
                for i in range(r):
                    if mu[i] > 0:
                        cur = mu
                        for _ in range(mu[i]):
                            cur = tuple(c - s for c, s in zip(cur, simple[i]))
                            if cur not in weights:
                                weights.add(cur)
                                nxt.append(cur)
            frontier = nxt
        self.weights = weights

        lam_rho = tuple(x + 1 for x in self.highest)
        norm_top = rs.form(lam_rho, lam_rho)
        dominant = [mu for mu in weights if all(x >= 0 for x in mu)]

        def depth(mu):
            coords = rs.simple_coords(tuple(l - m for l, m in
                                            zip(self.highest, mu)))
            return sum(coords)

        dominant.sort(key=depth)
        self._dominant_rep_cache = {}
        dom_mult = {}
        for mu in dominant:
            if mu == self.highest:
                dom_mult[mu] = 1
                continue
            total = Fraction(0)
            for beta in rs.pos_roots:
                nu = mu
                while True:
                    nu = tuple(a + b for a, b in zip(nu, beta))
                    if nu not in weights:
                        break
                    total += rs.form(nu, beta) * self._mult_of(nu, dom_mult)
            mu_rho = tuple(x + 1 for x in mu)
            denom = norm_top - rs.form(mu_rho, mu_rho)
            m = 2 * total / denom
            if m.denominator != 1 or m <= 0:
                raise ConsistencyError("Freudenthal: %s gives weight %s the "
                                       "multiplicity %s, not a positive "
                                       "integer" % (self.label(), mu, m))
            dom_mult[mu] = int(m)
        self._dominant_mult = dom_mult

        self.table = {mu: self._mult_of(mu, dom_mult) for mu in weights}
        self.dim = sum(self.table.values())
        coeffs = rs.a_coeffs
        self.a_of = {mu: sum(x * c for x, c in zip(mu, coeffs)) for mu in weights}
        parity = self.a_of[self.highest] % 2
        if any(a % 2 != parity for a in self.a_of.values()):
            raise ConsistencyError("a-grading parity is not constant on the "
                                   "weights of %r" % (self.highest,))

    def _mult_of(self, mu, dom_mult):
        got = dom_mult.get(mu)
        if got is not None:
            return got
        return dom_mult[self._dominant_rep(mu)]

    def _dominant_rep(self, mu):
        got = self._dominant_rep_cache.get(mu)
        if got is not None:
            return got
        rs = self.rs
        cur = mu
        while True:
            i = next((k for k, x in enumerate(cur) if x < 0), None)
            if i is None:
                break
            s = rs.simple_roots[i]
            c = cur[i]
            cur = tuple(x - c * y for x, y in zip(cur, s))
        self._dominant_rep_cache[mu] = cur
        return cur

    def multiplicity(self, mu):
        return self.table.get(tuple(mu), 0)

    def a_histogram(self):
        """N_j = total multiplicity of weights with a(mu) = j."""
        hist = {}
        for mu, m in self.table.items():
            a = self.a_of[mu]
            hist[a] = hist.get(a, 0) + m
        return hist

    def label(self):
        return "%s, lambda=%s" % (self.rs.label(), list(self.highest))


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
    return Sl2Decomposition(ws.a_histogram(), ws.dim, ws.label())


def epsilon_on(ws):
    """(-1)^{a(lambda)}, the action of (2rho-check)(-1) on V."""
    return -1 if ws.a_of[ws.highest] % 2 else 1


def weyl_dim(rs, highest):
    """Weyl dimension formula; an independent check on Freudenthal sums."""
    highest = tuple(int(x) for x in highest)
    rho = (1,) * rs.rank
    lam_rho = tuple(x + 1 for x in highest)
    out = Fraction(1)
    for beta in rs.pos_roots:
        out *= rs.form(lam_rho, beta) / rs.form(rho, beta)
    if out.denominator != 1:
        raise ConsistencyError("weyl_dim: %s, lambda=%s has Weyl dimension "
                               "%s, not an integer"
                               % (rs.label(), list(highest), out))
    return int(out)


_MEM_CACHE = {}


def weight_system(rs, highest):
    key = (rs.type_label, rs.rank, tuple(int(x) for x in highest))
    got = _MEM_CACHE.get(key)
    if got is None:
        got = _MEM_CACHE[key] = WeightSystem(rs, highest)
    return got


def weight_system_to_dict(ws):
    entries = []
    for mu in sorted(ws.table):
        entries.append(list(mu) + [ws.table[mu], ws.a_of[mu]])
    return {"type": ws.rs.type_label, "rank": ws.rs.rank,
            "lambda": list(ws.highest), "entries": entries}


def save_weight_system(ws, path):
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
    with open(path) as fh:
        data = json.load(fh)
    rs = build_root_system(data["type"], data["rank"])
    ws = weight_system(rs, data["lambda"])
    expect = {tuple(row[:-2]): row[-2] for row in data["entries"]}
    if expect != ws.table:
        raise ConsistencyError("cached weight table for %s disagrees with "
                               "a fresh computation" % ws.label())
    return ws
