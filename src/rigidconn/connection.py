"""Matrix forms of the connection, gauge moves, scalar reduction, slopes.

A connection is theta + A(t) with theta = t d/dt and A a matrix of
Laurent polynomials, stored sparsely as {power: coefficient matrix}.
The built-in cases all have A(t) = N(V) + t E(V), normalized so N(V)
has 1's below the diagonal and E(V) is the minimal raising term.
"""

from fractions import Fraction
from functools import reduce
from math import lcm

from .chevalley import build_chevalley, principal_triple
from .errors import (ConsistencyError, CyclicVectorError,
                     SlopeVerificationError, ValidationError)
from .linalg import _cleared, _primitive, graded_cycle_check, zeros
from .poly import (RatFun, _zgcd, padd, pmul, pneg, pscale, psub, ptrim,
                   pzdivmod, render_poly, render_rational, render_terms)


_EXACT = (int, Fraction)


class MatrixConnection:
    """theta + sum_k coeffs[k] t^k.  Entries and rho weights of type
    exactly int or Fraction are stored as given, the same objects; any
    other number (float, bool, numeric string) becomes its exact Fraction.
    The built models hold ints, so x / y on two entries may be a float."""

    def __init__(self, coeffs, label, h=None, rho_weights=None, group=None):
        cleaned = {}
        dim = None
        for k, mat in coeffs.items():
            rows = [[x if type(x) in _EXACT else Fraction(x) for x in row]
                    for row in mat]
            if dim is None:
                dim = len(rows)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValidationError("coefficient matrices must be square "
                                      "of equal size")
            if any(map(any, rows)):
                cleaned[int(k)] = rows
        if dim is None:
            raise ValidationError("a connection needs at least one coefficient")
        if h is not None and (type(h) is not int or h < 1):
            raise ValidationError("the Coxeter number h of %s must be a "
                                  "positive integer, not %r" % (label, h))
        self.dim = dim
        self.coeffs = cleaned
        self.label = label
        self.h = h
        self.rho_weights = (None if rho_weights is None else
                            [w if type(w) in _EXACT else Fraction(w)
                             for w in rho_weights])
        self.group = group

    def coefficient(self, k):
        got = self.coeffs.get(k)
        if got is None:
            return zeros(self.dim, self.dim)
        return [row[:] for row in got]

    def support(self):
        return sorted(self.coeffs)

    def is_polynomial(self):
        return all(k >= 0 for k in self.coeffs)

    def dual(self):
        coeffs = {k: [[-mat[j][i] for j in range(self.dim)]
                      for i in range(self.dim)]
                  for k, mat in self.coeffs.items()}
        # the zero connection keeps no coefficient but still has a size
        coeffs = coeffs or {0: zeros(self.dim, self.dim)}
        rw = None if self.rho_weights is None else [-w for w in self.rho_weights]
        return MatrixConnection(coeffs, self.label + " dual", h=self.h,
                                rho_weights=rw, group=self.group)

    def to_json_dict(self):
        entries = {}
        for k, mat in sorted(self.coeffs.items()):
            for i, row in enumerate(mat):
                for j, x in enumerate(row):
                    if x:
                        cell = entries.setdefault((i, j), {})
                        cell[str(k)] = render_rational(x)
        return {"dimension": self.dim, "label": self.label,
                "entries": {"%d,%d" % ij: terms
                            for ij, terms in sorted(entries.items())}}

    def render_entry(self, i, j):
        return render_terms((k, render_rational(mat[i][j]))
                            for k, mat in sorted(self.coeffs.items())
                            if mat[i][j])


def _subdiagonal(n):
    m = zeros(n, n)
    for i in range(1, n):
        m[i][i - 1] = 1
    return m


def _halved(k):  # k / 2, an int when k is even
    return k // 2 if k % 2 == 0 else Fraction(k, 2)


def sl_standard(n):
    if n < 2:
        raise ValidationError("sl standard needs matrix size >= 2")
    e = zeros(n, n)
    e[0][n - 1] = 1
    weights = [_halved(n - 1 - 2 * i) for i in range(n)]
    return MatrixConnection({0: _subdiagonal(n), 1: e}, "sl%d standard" % n,
                            h=n, rho_weights=weights, group=("A", n - 1))


def sp_standard(n):
    if n < 2 or n % 2:
        raise ValidationError("sp standard needs even matrix size >= 2")
    base = sl_standard(n)
    return MatrixConnection(base.coeffs, "sp%d standard" % n, h=n,
                            rho_weights=base.rho_weights, group=("C", n // 2))


def so_odd_standard(n):
    if n < 3 or n % 2 == 0:
        raise ValidationError("so standard needs odd matrix size >= 3")
    m = (n - 1) // 2
    e = zeros(n, n)
    e[0][n - 2] = 1
    e[1][n - 1] = 1
    weights = [m - i for i in range(n)]
    group = ("B", m) if m >= 2 else ("A", 1)
    return MatrixConnection({0: _subdiagonal(n), 1: e}, "so%d standard" % n,
                            h=2 * m, rho_weights=weights, group=group)


def g2_seven_dim():
    base = so_odd_standard(7)
    return MatrixConnection(base.coeffs, "g2 7-dim", h=6,
                            rho_weights=base.rho_weights, group=("G", 2))


def adjoint_connection(type_label, rank):
    alg = build_chevalley(type_label, rank)
    n_el, e_el, _ = principal_triple(alg)
    weights = [alg.weight_of_index(i) for i in range(alg.dim)]
    return MatrixConnection({0: alg.ad_matrix(n_el), 1: alg.ad_matrix(e_el)},
                            "adjoint %s" % alg.rs.label(),
                            h=alg.rs.coxeter_number, rho_weights=weights,
                            group=(alg.rs.type_label, alg.rs.rank))


def sl2_sym(k):
    if k < 1:
        raise ValidationError("sym power must be >= 1")
    n = k + 1
    e = zeros(n, n)
    for i in range(1, n):
        e[i - 1][i] = i * (k - i + 1)
    weights = [_halved(k - 2 * i) for i in range(n)]
    return MatrixConnection({0: _subdiagonal(n), 1: e}, "sl2 Sym^%d" % k,
                            h=2, rho_weights=weights, group=("A", 1))


# -- elimination over Z[t] ----------------------------------------------------


def _poly_matrix(coeffs, n):
    """(P, den, s) with sum_k coeffs[k] t^k = t^{-s} P / den, P an n x n
    matrix of int polynomials, den a positive int and s >= 0."""
    s = -min(0, min(coeffs, default=0))
    zero = zeros(n, n)
    mats = [coeffs.get(k, zero)
            for k in range(-s, max(coeffs, default=0) + 1)]
    flat, den = _cleared([[m[i][j] for m in mats]
                          for i in range(n) for j in range(n)])
    return [[ptrim(flat[i * n + j]) for j in range(n)]
            for i in range(n)], den, s


def _exact_div(p, q, stage, label):
    """p / q for int polynomials where q divides p in Z[t]."""
    quot, rem = pzdivmod(p, q)
    if rem:
        raise ConsistencyError("%s: dividing %s by %s leaves the remainder "
                               "%s for %s"
                               % (stage, render_poly(p), render_poly(q),
                                  render_poly(rem), label))
    return quot


def _theta_poly(p, shift=0):
    """(theta - shift) p for a polynomial p in t."""
    return ptrim([(i - shift) * c for i, c in enumerate(p)])


def _bareiss(work, ncols, stage, label):
    """Fraction-free Gauss-Jordan over Z[t] on the first ncols columns.

    Each update top[c] x - row[c] y is divided exactly by the previous
    pivot (Bareiss, Math. Comp. 22, 1968).  Returns (rank, last pivot d).
    At full rank the columns past ncols hold d times the reduced row
    echelon form; the entries left of them are not rewritten.
    """
    prev = [1]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        for i in range(len(work)):
            if i != r:
                row = work[i]
                work[i] = row[:c] + [[]] + [
                    _exact_div(psub(pmul(top[c], x), pmul(row[c], y)),
                               prev, stage, label)
                    for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = top[c]
        r += 1
    return r, prev


def _pmat_mul(a, b):
    return [[reduce(padd, map(pmul, row, col), []) for col in zip(*b)]
            for row in a]


# -- gauge transformations ----------------------------------------------------


def _is_monomial(p):
    return sum(1 for c in p if c != 0) == 1


def _laurent_terms(f):
    """{exponent: coefficient} for a RatFun whose denominator is t^m."""
    if not _is_monomial(f.den) and not f.is_zero():
        raise ValidationError("entry %s is not a Laurent polynomial"
                              % f.render())
    shift = len(f.den) - 1
    return {i - shift: c for i, c in enumerate(f.num) if c != 0}


def gauge_transform(conn, g):
    """theta + A conjugated by g: A -> g A g^{-1} - theta(g) g^{-1}.

    With g = t^{-a} G / e and A = t^{-s} P / f, G and P int polynomial,
    _bareiss takes [G | Id] to [d Id | B] with G B = d Id, and the new
    matrix is t^{-s} (G P - f t^s (theta - a) G) B / (f d).  g is a unit
    over the Laurent polynomials exactly when d = c t^m.
    """
    n = conn.dim
    if len(g) != n or any(len(row) != n for row in g):
        raise ValidationError("gauge matrix size does not match the connection")
    g = [[RatFun(x) for x in row] for row in g]
    if not all(_is_monomial(x.den) for row in g for x in row):
        raise ValidationError("gauge entries must be Laurent polynomials")
    a = max(len(x.den) - 1 for row in g for x in row)
    flat, e = _cleared([[0] * (a + 1 - len(x.den)) + x.num
                        for row in g for x in row])
    big_g = [[ptrim(flat[i * n + j]) for j in range(n)] for i in range(n)]
    work = [row + [[1] if j == i else [] for j in range(n)]
            for i, row in enumerate(big_g)]
    rank, d = _bareiss(work, n, "gauge_transform", conn.label)
    if rank < n:
        raise ValidationError("gauge matrix is singular")
    if not _is_monomial(d):
        raise ValidationError("gauge determinant is not a unit: up to sign "
                              "it is %s" % render_terms(
                                  (k - n * a,
                                   render_rational(Fraction(x, e ** n)))
                                  for k, x in enumerate(d) if x))
    p_mat, f, s = _poly_matrix(conn.coeffs, n)
    left = [[psub(x, [0] * s + pscale(_theta_poly(y, a), f))
             for x, y in zip(gp_row, g_row)]
            for gp_row, g_row in zip(_pmat_mul(big_g, p_mat), big_g)]
    shift, den = s + len(d) - 1, f * d[-1]
    coeffs = {}
    for i, row in enumerate(_pmat_mul(left, [r[n:] for r in work])):
        for j, p in enumerate(row):
            for k, x in enumerate(p):
                if x:
                    mat = coeffs.setdefault(k - shift, zeros(n, n))
                    mat[i][j] = Fraction(x, den)
    # a constant gauge keeps the zero connection zero, as in dual()
    return MatrixConnection(coeffs or {0: zeros(n, n)}, conn.label + " gauged",
                            h=conn.h, rho_weights=None, group=conn.group)


# -- scalar reduction ---------------------------------------------------------


class ScalarOperator:
    """theta^n + c_{n-1} theta^{n-1} + ... + c_0 with theta = t d/dt."""

    def __init__(self, coeffs, h=None):
        self.coeffs = [RatFun(x) for x in coeffs]
        self.order = len(self.coeffs)
        self.h = h

    def laurent_coefficients(self):
        """Per-coefficient {exponent: value} maps, or None when rational."""
        out = []
        for c in self.coeffs:
            try:
                out.append(_laurent_terms(c))
            except ValidationError:
                return None
        return out

    def render(self):
        return render_terms(((i, self.coeffs[i].render())
                             for i in range(self.order - 1, -1, -1)
                             if not self.coeffs[i].is_zero()),
                            "theta", head="theta^%d" % self.order)

    def to_json_dict(self):
        maps = self.laurent_coefficients()
        if maps is not None:
            coeffs = [{str(k): render_rational(v) for k, v in m.items()}
                      for m in maps]
            return {"order": self.order, "theta_coefficients": coeffs}
        return {"order": self.order,
                "theta_coefficients_rational": [c.render()
                                                for c in self.coeffs]}


def scalar_reduction(conn):
    """The scalar operator in theta satisfied through the frame of e_0.

    With A = t^{-s} P / f, P int polynomial, D^k e_0 = t^{-ks} p_k / f^k
    where p_{k+1} = f t^s (theta - ks) p_k + P p_k.  _bareiss solves
    sum_j e_j p_j = p_n over Z[t] as e_j = x_j / d, and D^n e_0 =
    sum_j d_j D^j e_0 with d_j = x_j / (d f^{n-j} t^{(n-j)s}) = x / (c b)
    in lowest terms, b primitive.  The result is theta^n - sum_j
    (-1)^{n-j} theta^j o d_j, (-1)^n times the formal adjoint of theta^n
    - sum_j d_j theta^j, built in ints: after step m the coefficient of
    theta^j is over C q^(m-j), q the lcm of the b and C of the c, each
    quotient exact by Gauss's lemma.  A coefficient x / (C q^(n-j)) sheds
    at most n - j factors g = gcd(x, g) of q, each dividing the last.
    """
    n, label, stage = conn.dim, conn.label, "scalar_reduction"
    p_mat, f, s = _poly_matrix(conn.coeffs, n)
    frame = [[[1]] + [[] for _ in range(n - 1)]]
    for k in range(n):
        vec = frame[-1]
        frame.append([reduce(padd, map(pmul, row, vec),
                             [0] * s + pscale(_theta_poly(v, k * s), f))
                      for row, v in zip(p_mat, vec)])
    work = [[frame[j][i] for j in range(n + 1)] for i in range(n)]
    r, prev = _bareiss(work, n, stage, label)
    if r < n:
        raise CyclicVectorError(rank_found=r, needed=n)
    d, q = [], [1]
    for j, row in enumerate(work):
        den = pscale([0] * ((n - j) * s) + prev, f ** (n - j))
        g = _zgcd(row[n], den)
        b = _primitive(_exact_div(den, g, stage, label))
        d.append((_exact_div(row[n], g, stage, label),
                  den[-1] // g[-1] // b[-1], b))
        q = pmul(q, _exact_div(b, _zgcd(q, b), stage, label))
    theta_q = _theta_poly(q)
    big_c = lcm(*[c for _, c, _ in d])
    # op <- -theta o op - d_j for j = n-1, ..., 0, op[j] over C q^(m-j) at
    # step m: theta(N / q^e) = (theta(N) q - e N theta(q)) / q^{e+1}
    op, qpow = [[big_c]], [[1]]
    for m, (x, c, b) in enumerate(reversed(d)):
        qpow.append(pmul(qpow[-1], q))
        out = [pneg(pmul(pscale(x, big_c // c),
                         _exact_div(qpow[-1], b, stage, label)))]
        out += [[] for _ in op]
        for j, y in enumerate(op):
            out[j] = padd(out[j], psub(pscale(pmul(y, theta_q), m - j),
                                       pmul(_theta_poly(y), q)))
            out[j + 1] = psub(out[j + 1], y)
        op = out
    coeffs = []
    for j, x in enumerate(op[:n]):
        x, den, g = pscale(x, (-1) ** n), pscale(qpow[n - j], big_c), q
        for _ in range(n - j if x else 0):
            if len(g := _zgcd(x, g)) == 1:
                break
            x, den = (_exact_div(y, g, stage, label) for y in (x, den))
        den = den if x else [1]
        coeffs.append(RatFun._lowest([Fraction(y, den[-1]) for y in x],
                                     [Fraction(y, den[-1]) for y in den]))
    return ScalarOperator(coeffs, h=conn.h)


def companion_connection(op):
    """The connection theta + A whose last solution coordinate satisfies op.

    A has 1's below the diagonal and first row (-1)^j c_{n-1-j}; feeding
    the built cases' scalar operators back through this reproduces the
    canonical forms, e.g. the sl_n matrix itself.
    """
    n = op.order
    coeffs = {0: _subdiagonal(n)}
    for j in range(n):
        c = op.coeffs[n - 1 - j]
        sign = 1 if j % 2 == 0 else -1
        for k, val in _laurent_terms(c).items():
            coeffs.setdefault(k, zeros(n, n))[0][j] = sign * val
    return MatrixConnection(coeffs, "companion order %d" % n, h=op.h,
                            rho_weights=None)


# -- slope at infinity --------------------------------------------------------


def _weights_from_sparsity(conn):
    """Recover a grading from the constant term's chain structure.

    Each nonzero entry of A(0) ties w_i = w_j - 1; canonical companion
    forms have a single chain, which pins the weights up to one shift
    per connected component (shifts only move the regular part).  The
    caller still verifies the resulting leading term, so a bad guess
    fails loudly rather than silently.
    """
    n = conn.dim
    a0 = conn.coefficient(0)
    edges = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(n):
            if a0[i][j] != 0 and i != j:
                edges[j].append((i, -1))
                edges[i].append((j, 1))
    weights = [None] * n
    for start in range(n):
        if weights[start] is not None:
            continue
        weights[start] = 0
        queue = [start]
        while queue:
            i = queue.pop()
            for j, diff in edges[i]:
                expect = weights[i] + diff
                if weights[j] is None:
                    weights[j] = expect
                    queue.append(j)
                elif weights[j] != expect:
                    raise ValidationError("inconsistent grading in %s; "
                                          "provide rho_weights" % conn.label)
    return weights


def slope_at_infinity(conn, details=False):
    """Slope of the connection at t = infinity, verified to be 1/h.

    Substitutes t = u^{-h}, gauges by diag(u^{w_i}) with w the rho-check
    weights, and checks a second-order pole whose leading coefficient is
    semisimple and not nilpotent (it equals -h(N+E) in the representation).
    Its entries have w_i = w_j - 1 mod h, so graded_cycle_check decides
    both on its blocks between the degree classes of w.
    """
    h = conn.h
    if h is None:
        raise ValidationError("slope needs the Coxeter number h")
    w = conn.rho_weights
    if w is None:
        w = _weights_from_sparsity(conn)
    n = conn.dim
    if len(w) != n:
        raise ValidationError("%s has %d rho_weights for dimension %d"
                              % (conn.label, len(w), n))
    for i, wi in enumerate(w):
        # so that every exponent below lies in (1/2h) Z
        if (wi * 2 * h).denominator != 1:
            raise ValidationError("rho weight %s at index %d of %s is not "
                                  "in (1/%d) Z" % (wi, i, conn.label, 2 * h))
    w2 = [int(wi * 2 * h) for wi in w]
    # after the gauge, entry (i, j) of -h A_k sits at u^(w_i - w_j - hk)
    # and -diag(w) at u^0: the lowest exponent gives the pole order, and
    # the leading term is the part at u^-1; exponents are kept times 2h
    leading = zeros(n, n)
    low = 0
    for k, mat in conn.coeffs.items():
        shift = 2 * h * h * k
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x:
                    exp = w2[i] - w2[j] - shift
                    low = min(low, exp)
                    if exp == -2 * h:
                        leading[i][j] = -h * x
    if low < -2 * h:
        raise SlopeVerificationError("pole order %s at infinity exceeds 2 "
                                     "for %s" % (1 - Fraction(low, 2 * h),
                                                 conn.label))
    if not any(map(any, leading)):
        raise SlopeVerificationError("no second-order pole at infinity "
                                     "for %s" % conn.label)
    graded = graded_cycle_check(leading, w, h, "slope_at_infinity",
                                "the leading term at infinity of %s"
                                % conn.label)
    if graded["nilpotent"]:
        raise SlopeVerificationError("nilpotent leading term at infinity "
                                     "for %s" % conn.label)
    if not graded["semisimple"]:
        raise SlopeVerificationError("leading term at infinity is not "
                                     "semisimple for %s" % conn.label)
    slope = Fraction(1, h)
    if not details:
        return slope
    return {"slope": slope, "pole_order": 2, "leading": leading}
