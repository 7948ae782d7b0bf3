"""Chevalley bases, the principal triple, and the loop-algebra grading.

Structure constants come from the extraspecial-pair normalization: for
each non-simple positive root gamma the special pair (alpha, beta) with
alpha + beta = gamma and alpha the least simple root for which beta is a
root gets N(alpha, beta) = p + 1 > 0, p read off RootSystem.down,
and every other constant follows from the standard identities relating
N on rotated, negated, and quadruple configurations, each an exact
division of integers weighted by root norms from the one table
RootSystem.norms.  Elements are sparse dicts {basis index: int}; only
rho_check and the form kappa take Fraction values.
"""

from fractions import Fraction
from operator import add, neg, sub

from .errors import ConsistencyError, ValidationError
from .linalg import (_cleared, _row_reduce, graded_cycle_check, nullspace,
                     rank)
from .rootsys import build_root_system


def _add_into(acc, key, val):
    cur = acc.get(key, 0) + val
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


class ChevalleyAlgebra:
    def __init__(self, rs):
        self.rs = rs
        self.rank = rs.rank
        self.pos = list(rs.pos_roots)
        self.npos = len(self.pos)
        self.dim = rs.rank + 2 * self.npos
        # basis: 0..rank-1 the simple coroots, then e_beta, then f_beta
        self.root_of_index = [None] * rs.rank + self.pos + rs.neg_roots
        self.index_of_root = {beta: i for i, beta in
                              enumerate(self.root_of_index) if beta}
        self._order = {beta: k for k, beta in enumerate(self.pos)}
        self._nc = {}
        self._bracket_cache = {}
        self._kappa = None

    # -- structure constants ----------------------------------------------

    def extraspecial_pair(self, gamma):
        """The special pair (alpha, gamma - alpha), alpha the least simple
        root (in tuple order, the root order at height 1) below gamma."""
        rs = self.rs
        down = rs.down.get(gamma, ())
        below = [alpha for alpha, p in zip(rs.simple_roots, down) if p]
        if not below:
            raise ConsistencyError("chevalley: no special pair for the root "
                                   "%s of %s" % (gamma, rs.label()))
        alpha = min(below)
        return alpha, tuple(map(sub, gamma, alpha))

    def structure_constant(self, a, b):
        """N(a, b) with [x_a, x_b] = N(a, b) x_{a+b}; a, b, a+b roots."""
        key = (a, b)
        val = self._nc.get(key)
        if val is None:
            if key in self._nc:  # None marks a constant in progress
                raise ConsistencyError("chevalley: N(%s, %s) of %s depends on "
                                       "itself" % (a, b, self.rs.label()))
            self._nc[key] = None
            val = self._nc[key] = self._compute_nc(a, b)
        return val

    def _compute_nc(self, a, b):
        rs = self.rs
        norms = rs.norms
        order = self._order
        pos_a, pos_b = a in order, b in order
        if pos_a and pos_b:
            if order[a] > order[b]:
                return -self.structure_constant(b, a)
            gamma = tuple(map(add, a, b))
            a0, b0 = self.extraspecial_pair(gamma)
            if (a, b) == (a0, b0):
                # a is simple: p is the length of its string below b
                return rs.down[b][rs.simple_roots.index(a)] + 1
            # quadruple (a0, b0, -a, -b) sums to zero, no two summing to
            # zero: N(a, b) = |gamma|^2 / N(a0, b0) times the sum of the
            # products below over |c - a|^2, summed as num / den
            na = tuple(map(neg, a))
            nb = tuple(map(neg, b))
            num, den = 0, 1
            for c, pair1, pair2 in ((b0, (b0, na), (a0, nb)),
                                    (a0, (na, a0), (b0, nb))):
                ld = norms.get(tuple(map(sub, c, a)))
                if ld:  # c - a is a root
                    num = (num * ld + den * self.structure_constant(*pair1)
                           * self.structure_constant(*pair2))
                    den *= ld
            return self._exact(num * norms[gamma],
                               den * self.structure_constant(a0, b0),
                               "quadruple", a, b)
        if not pos_a and not pos_b:
            return -self.structure_constant(tuple(map(neg, a)),
                                            tuple(map(neg, b)))
        if not pos_a:
            return -self.structure_constant(b, a)
        # a positive, b negative; rotate to a same-sign pair
        v = tuple(map(neg, b))
        c = tuple(map(add, a, b))
        if c in order:
            return self._exact(-self.structure_constant(v, c) * norms[c],
                               norms[a], "rotation", a, b)
        w = tuple(map(neg, c))
        return self._exact(self.structure_constant(w, a) * norms[c],
                           norms[v], "rotation", a, b)

    def _exact(self, num, den, identity, a, b):
        """num / den, which the identity for N(a, b) makes an integer."""
        quot, rem = divmod(num, den)
        if rem:
            raise ConsistencyError("chevalley: the %s identity gives N(%s, %s)"
                                   " = %d/%d of %s, not an integer"
                                   % (identity, a, b, num, den,
                                      self.rs.label()))
        return quot

    # -- brackets -----------------------------------------------------------

    def coroot_element(self, beta):
        """h_beta = beta-check as an element, for beta a positive root."""
        return {i: c for i, c in enumerate(self.rs.coroot_coeffs(beta)) if c}

    def bracket_indices(self, i, j):
        out = self._bracket_cache.get((i, j))
        if out is None:
            out = self._bracket_cache[i, j] = self._compute_bracket(i, j)
        return out

    def _compute_bracket(self, i, j):
        alpha = self.root_of_index[i]
        beta = self.root_of_index[j]
        if alpha is None and beta is None:
            return {}
        if alpha is None:
            return {j: beta[i]} if beta[i] else {}
        if beta is None:
            return {i: -alpha[j]} if alpha[j] else {}
        total = tuple(map(add, alpha, beta))
        if not any(total):
            if i < j:  # [e, f] = h_alpha
                return self.coroot_element(alpha)
            return {k: -v for k, v in self.coroot_element(beta).items()}
        if total in self.rs.root_set:
            n = self.structure_constant(alpha, beta)
            return {self.index_of_root[total]: n}
        return {}

    def bracket(self, x, y):
        acc = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, c in self.bracket_indices(i, j).items():
                    _add_into(acc, k, xi * yj * c)
        return acc

    def ad_matrix(self, x):
        zero = 0 * next(iter(x.values()), 0)  # int, or Fraction for rho-check
        m = [[zero] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for i, xi in x.items():
                for k, c in self.bracket_indices(i, j).items():
                    m[k][j] += xi * c
        return m

    # -- distinguished elements ----------------------------------------------

    def simple_f(self, i):
        minus = tuple(map(neg, self.rs.simple_roots[i]))
        return {self.index_of_root[minus]: 1}

    def e_theta(self):
        return {self.index_of_root[self.rs.theta]: 1}

    def f_theta(self):
        return {self.index_of_root[tuple(map(neg, self.rs.theta))]: 1}

    def rho_check(self):
        return {i: Fraction(c, 2) for i, c in enumerate(self.rs.a_coeffs)}

    def weight_of_index(self, i):
        """The ad rho-check eigenvalue of a basis element (signed height)."""
        beta = self.root_of_index[i]
        if beta is None:
            return 0
        ht = self.rs.a_value(beta) // 2
        return ht

    # -- invariant form -------------------------------------------------------

    def kappa(self, x, y):
        """Invariant form normalized by kappa(e_theta, f_theta) = 1."""
        if self._kappa is None:
            self._build_kappa()
        total = Fraction(0)
        for i, xi in x.items():
            row = self._kappa.get(i)
            if not row:
                continue
            for j, yj in y.items():
                c = row.get(j)
                if c is not None:
                    total += xi * yj * c
        return total

    def _build_kappa(self):
        """The form with (theta, theta) = 2: (h_i, h_j) = (alpha_i-check,
        alpha_j-check) and (e_beta, f_beta) = (f_beta, e_beta) = 2 /
        (beta, beta), since [e_beta, f_beta] = beta-check."""
        rs, r = self.rs, self.rank
        kappa = {i: {j: Fraction(c) / rs.d[j]
                     for j, c in enumerate(rs.cartan[i]) if c}
                 for i in range(r)}
        for k, beta in enumerate(self.pos):
            ei, fi = r + k, r + self.npos + k
            v = Fraction(2 * rs.gram_den, rs.norms[beta])
            kappa[ei] = {fi: v}
            kappa[fi] = {ei: v}
        self._kappa = kappa


def build_chevalley(type_label, rank):
    return ChevalleyAlgebra(build_root_system(type_label, rank))


def principal_triple(alg):
    """(N, E, rho_check) with N the sum of simple f's and E = e_theta."""
    n = {}
    for i in range(alg.rank):
        n.update(alg.simple_f(i))
    return n, alg.e_theta(), alg.rho_check()


def kostant_check(alg):
    """Kernel dimension and semisimplicity of ad(N + E).

    ad(N + E) lowers the rho-check degree by one modulo h, so
    graded_cycle_check decides both on its blocks between degree classes.
    """
    n, e, _ = principal_triple(alg)
    x = dict(n)
    for k, v in e.items():
        _add_into(x, k, v)
    degrees = [alg.weight_of_index(i) for i in range(alg.dim)]
    out = graded_cycle_check(alg.ad_matrix(x), degrees, alg.rs.coxeter_number,
                             "kostant_check",
                             "ad(N+E) of %s" % alg.rs.label())
    return {"kernel_dim": out["kernel_dim"],
            "minpoly_squarefree": out["semisimple"]}


class KacWindow:
    """Principal-grading slices of the loop algebra on degrees |n| <= D.

    Loop elements are dicts over (basis index, t-power); the degree of
    b t^k is h k - e(b) with e the ad rho-check eigenvalue.  ad p1 is
    read off ad N (same t-power) and ad E (t-power one higher).
    """

    def __init__(self, alg, depth):
        h = alg.rs.coxeter_number
        if depth < h:
            raise ValidationError("window depth %d below the Coxeter number %d"
                                  % (depth, h))
        self.alg = alg
        self.depth = depth
        self.h = h
        n, e, _ = principal_triple(alg)
        self._ad = (alg.ad_matrix(n), alg.ad_matrix(e))
        self._degrees = [alg.weight_of_index(i) for i in range(alg.dim)]
        self._p1 = {}
        self._a = {}
        self._c = {}

    def slice_basis(self, n):
        h = self.h
        return [(i, (n + e) // h) for i, e in enumerate(self._degrees)
                if (n + e) % h == 0]

    def ad_p1_matrix(self, n):
        """Matrix of ad p1 from slice n to slice n+1: the entry at
        [(j, l), (i, k)] is ad N[j][i] when l = k, ad E[j][i] when l = k+1.
        Built once per n: a_slice(n) and c_slice(n + 1) share it."""
        if n not in self._p1:
            ad, cols = self._ad, self.slice_basis(n)
            self._p1[n] = [[ad[l - k][j][i] if 0 <= l - k <= 1
                            else 0 for i, k in cols]
                           for j, l in self.slice_basis(n + 1)]
        return self._p1[n]

    def a_slice(self, n):
        """Basis of the commuting part: Ker(ad p1) inside slice n."""
        if n not in self._a:
            self._a[n] = nullspace(self.ad_p1_matrix(n))
        return self._a[n]

    def c_slice(self, n):
        """Basis of the complement: Im(ad p1: slice n-1 -> slice n), the
        columns at the pivots of one row reduction."""
        if n not in self._c:
            m = self.ad_p1_matrix(n - 1)
            self._c[n] = [[row[j] for row in m]
                          for j in _row_reduce(_cleared(m)[0])]
        return self._c[n]

    def slice_element(self, n, coords):
        return {key: c for key, c in zip(self.slice_basis(n), coords) if c != 0}

    def loop_pairing(self, x, y):
        """kappa(x, y) delta_{a+b,0} extended to loop elements."""
        kappa = self.alg.kappa
        total = Fraction(0)
        for (i, k), xv in x.items():
            for (j, l), yv in y.items():
                if k + l == 0:
                    total += xv * yv * kappa({i: 1}, {j: 1})
        return total

    def heisenberg_cocycle(self, x, y):
        """omega(x t^a, y t^b) = a kappa(x, y) delta_{a+b,0}."""
        return self.loop_pairing({(i, k): k * v for (i, k), v in x.items()}, y)


def heisenberg_pairing_check(win):
    """Non-degeneracy of the cocycle on a_n x a_{-n} over the window."""
    for n in range(1, win.depth + 1):
        plus = win.a_slice(n)
        minus = win.a_slice(-n)
        if len(plus) != len(minus):
            return False
        if not plus:
            continue
        gram = [[win.heisenberg_cocycle(win.slice_element(n, u),
                                        win.slice_element(-n, v))
                 for v in minus] for u in plus]
        if rank(gram) != len(plus):
            return False
    return True
