"""Shared helpers for the test suite."""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from rigidconn.connection import MatrixConnection, ScalarOperator
from rigidconn.errors import (ConsistencyError, CyclicVectorError,
                              ValidationError)
from rigidconn.galois import fold_branching, folding_matrix, galois_group
from rigidconn.linalg import mat_mul, zeros
from rigidconn.poly import RatFun, pderiv, pmul, pscale, psub, ptrim
from rigidconn.rootsys import build_root_system
from rigidconn.weights import weight_system


def jacobi_scan(alg):
    """Count violations of antisymmetry (all index pairs) and the Jacobi
    identity (all strictly increasing index triples).

    Bilinearity extends both checks to arbitrary triples: a triple with a
    repeated index satisfies Jacobi automatically once antisymmetry
    holds, and permutations only flip signs.
    """
    one = Fraction(1)
    defects = 0
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            fwd = alg.bracket_indices(i, j)
            back = alg.bracket_indices(j, i)
            if fwd != {k: -v for k, v in back.items()}:
                defects += 1
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = alg.bracket_indices(b, c)
            if not inner:
                continue
            for idx, v in alg.bracket({a: one}, inner).items():
                cur = acc.get(idx, 0) + v
                if cur:
                    acc[idx] = cur
                else:
                    acc.pop(idx, None)
        if acc:
            defects += 1
    return defects


def loop_bracket(alg, x, y):
    """[x t^a, y t^b] = [x, y] t^{a+b} on sparse loop elements."""
    out = {}
    for (i, k), xv in x.items():
        for (j, l), yv in y.items():
            for idx, c in alg.bracket_indices(i, j).items():
                key = (idx, k + l)
                cur = out.get(key, 0) + xv * yv * c
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)
    return out


# -- Fraction-matrix and Q[t] helpers; the library reduces over Z --------


def identity(n):
    """The n x n identity matrix of Fractions."""
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def pdeg(p):
    return len(p) - 1


def pmonic(p):
    return [c / p[-1] for c in p]


def pdivmod(p, q):
    """(quot, rem) with p = quot q + rem and deg rem < deg q, by long
    division over Q; q must be nonzero."""
    rem = [Fraction(c) for c in p]
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = f = rem[i + len(q) - 1] / q[-1]
        for j, c in enumerate(q):
            rem[i + j] -= f * c
    return ptrim(quot), ptrim(rem)


def mat_pow(a, k):
    """a^k by repeated squaring (k >= 0)."""
    out = identity(len(a))
    base = [row[:] for row in a]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


# -- Fraction references for the integer kernels ---------------------------


def ref_rref(m):
    """(pivots, RREF) of m by Fraction Gauss-Jordan."""
    m = [[Fraction(x) for x in row] for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, m


def ref_nullspace(m):
    ncols = len(m[0]) if m else 0
    if ncols == 0:
        return []
    pivots, work = ref_rref(m)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -work[r][f]
        basis.append(v)
    return basis


def ref_mat_mul(a, b):
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


# -- Fraction references for the charpoly and the graded cycle check -------


def _ref_hessenberg(m):
    h = [[Fraction(x) for x in row] for row in m]
    n = len(h)
    for c in range(n - 2):
        pivot = next((i for i in range(c + 1, n) if h[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[c + 1], h[pivot] = h[pivot], h[c + 1]
            for row in h:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        for i in range(c + 2, n):
            if h[i][c] != 0:
                f = h[i][c] / h[c + 1][c]
                h[i] = [x - f * y for x, y in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] += f * row[i]
    return h


def ref_charpoly(m):
    """det(x I - m), ascending, by a Fraction Hessenberg reduction."""
    n = len(m)
    if n == 0:
        return [Fraction(1)]
    h = _ref_hessenberg(m)
    # p[k] is the charpoly of the leading k x k block of h.
    p = [[Fraction(1)]]
    for k in range(1, n + 1):
        prev = p[k - 1]
        term = [Fraction(0)] + prev
        term = [term[i] - (h[k - 1][k - 1] * prev[i] if i < len(prev) else 0)
                for i in range(len(term))]
        sub = Fraction(1)
        for i in range(k - 2, -1, -1):
            sub *= h[i + 1][i]
            coeff = h[i][k - 1] * sub
            if coeff != 0:
                for j, c in enumerate(p[i]):
                    term[j] -= coeff * c
        p.append(term)
    return p[n]


def ref_poly_at_matrix(coeffs, m):
    """A polynomial at a square matrix by Horner's rule on Fractions."""
    n = len(m)
    out = zeros(n, n)
    for c in reversed(coeffs):
        out = ref_mat_mul(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def ref_is_semisimple(m):
    chi = ref_charpoly(m)
    s = pdivmod(chi, ref_pgcd(chi, pderiv(chi)))[0]
    return all(x == 0 for row in ref_poly_at_matrix(s, m) for x in row)


def ref_is_nilpotent(m):
    return not any(ref_charpoly(m)[:-1])


def ref_graded_cycle_check(m, degrees, h):
    """The graded cycle check on Fraction blocks of m, classes of m^h
    multiplied out around the cycle by ref_mat_mul."""
    cls = [Fraction(d) % h for d in degrees]
    classes = {}
    for i, c in enumerate(cls):
        classes.setdefault(c, []).append(i)
    blocks = {c: [[Fraction(m[i][j]) for j in cols]
                  for i in classes.get((c - 1) % h, [])]
              for c, cols in classes.items()}
    kernel_dim = kernel_dim_h = 0
    semisimple = nilpotent = True
    for c, cols in classes.items():
        kernel_dim += len(cols) - len(ref_rref(blocks[c])[0])
        power = identity(len(cols))
        cur = c
        for _ in range(h):
            if cur not in blocks:
                power = zeros(len(cols), len(cols))
                break
            power = ref_mat_mul(blocks[cur], power)
            cur = (cur - 1) % h
        kernel_dim_h += len(cols) - len(ref_rref(power)[0])
        nilpotent = nilpotent and ref_is_nilpotent(power)
        semisimple = semisimple and ref_is_semisimple(power)
    return {"kernel_dim": kernel_dim,
            "semisimple": semisimple and kernel_dim == kernel_dim_h,
            "nilpotent": nilpotent}


# -- Fraction references for the root-system set-up -----------------------


def ref_height(rs):
    """{positive root: height}, layer by layer: beta + alpha_i is a root
    when the alpha_i-string through beta, walked down afresh from beta,
    has length p > <beta, alpha_i-check>."""
    simples = rs.simple_roots
    height = {beta: 1 for beta in simples}
    layer = list(simples)
    ht = 1
    while layer:
        nxt = []
        for beta in layer:
            for i, alpha in enumerate(simples):
                gamma = tuple(b + a for b, a in zip(beta, alpha))
                if gamma in height:
                    continue
                p = 0
                down = tuple(b - a for b, a in zip(beta, alpha))
                while down in height:
                    p += 1
                    down = tuple(b - a for b, a in zip(down, alpha))
                if p - beta[i] > 0:
                    height[gamma] = ht + 1
                    nxt.append(gamma)
        layer = nxt
        ht += 1
    return height


def ref_string_below(rs, alpha, beta):
    """The largest p with beta - p alpha a root, walking the alpha-string
    down from beta one root at a time."""
    p = 0
    cur = tuple(b - a for b, a in zip(beta, alpha))
    while cur in rs.root_set:
        p += 1
        cur = tuple(b - a for b, a in zip(cur, alpha))
    return p


def ref_reflection_matrix(rs, i):
    """The simple reflection s_i on fundamental-weight coordinates, as a
    Fraction matrix: s_i mu = mu - mu[i] alpha_i."""
    s = identity(rs.rank)
    for k in range(rs.rank):
        s[k][i] -= rs.cartan[k][i]
    return s


def ref_coxeter_element(rs):
    """s_1 s_2 ... s_r as a product of Fraction reflection matrices."""
    w = ref_reflection_matrix(rs, 0)
    for i in range(1, rs.rank):
        w = ref_mat_mul(w, ref_reflection_matrix(rs, i))
    return w


@lru_cache(maxsize=None)
def cyclotomic(d):
    """Coefficients of the d-th cyclotomic polynomial (ascending): x^d - 1
    divided by Phi_e for every proper divisor e of d."""
    num = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            num, rem = pdivmod(num, cyclotomic(e))
            assert not rem
    return tuple(num)


def cyclotomic_factorization(p, h):
    """{d: multiplicity} for p a product of Phi_d with d | h; asserts that
    the factorization is exact."""
    factors = {}
    rest = list(p)
    for d in range(1, h + 1):
        if h % d:
            continue
        phi = list(cyclotomic(d))
        while pdeg(rest) >= pdeg(phi):
            quot, rem = pdivmod(rest, phi)
            if rem:
                break
            factors[d] = factors.get(d, 0) + 1
            rest = quot
    assert pdeg(rest) == 0
    return factors


def pbezout(p, q):
    """(u, v, g) with u p + v q = g, g the monic gcd, by the extended
    Euclidean algorithm over Q."""
    r0, r1 = list(p), list(q)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        quot, rem = pdivmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, psub(u0, pmul(quot, u1))
        v0, v1 = v1, psub(v0, pmul(quot, v1))
    if not r0:
        return [], [], []
    lead = r0[-1]
    return pscale(u0, 1 / lead), pscale(v0, 1 / lead), pmonic(r0)


def ref_primitive_projector(w, h):
    """The primitive projector of w as a polynomial in w: the Bezout inverse
    of the non-primitive cyclotomic factors of the charpoly modulo Phi_h,
    times those factors, evaluated by Horner's rule on Fractions and
    checked by Fraction products."""
    factors = cyclotomic_factorization(ref_charpoly(w), h)
    rest = [Fraction(1)]
    for d in factors:
        if d != h:
            rest = pmul(rest, list(cyclotomic(d)))
    u = pbezout(rest, list(cyclotomic(h)))[0]
    proj = ref_poly_at_matrix(pmul(u, rest), w)
    assert ref_mat_mul(proj, proj) == proj
    assert ref_mat_mul(proj, w) == ref_mat_mul(w, proj)
    assert not any(map(any, ref_mat_mul(
        ref_poly_at_matrix(list(cyclotomic(h)), w), proj)))
    return proj


# -- RatFun references for the gauge and the scalar reduction -------------


def ref_pgcd(p, q):
    """Monic gcd by Euclid's remainder sequence over Q."""
    a, b = list(p), list(q)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def ref_ratfun_matrix(conn):
    """The matrix A(t) of conn with RatFun entries over t^s."""
    shift = min((k for k in conn.coeffs if k < 0), default=0)
    den = [Fraction(0)] * (-shift) + [Fraction(1)]
    out = []
    for i in range(conn.dim):
        row = []
        for j in range(conn.dim):
            num = [Fraction(0)] * (max(conn.coeffs, default=0) - shift + 1)
            for k, mat in conn.coeffs.items():
                num[k - shift] = mat[i][j]
            row.append(RatFun(num, den[:]))
        out.append(row)
    return out


def _ref_rf_matmul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), RatFun(0))
             for j in range(n)] for i in range(n)]


def _ref_rf_invert(g):
    """Inverse and determinant of a RatFun matrix via Gauss-Jordan."""
    n = len(g)
    work = [row[:] for row in g]
    aug = [[RatFun(1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = RatFun(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if not work[i][c].is_zero()), None)
        if pivot is None:
            raise ValidationError("gauge matrix is singular")
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            aug[c], aug[pivot] = aug[pivot], aug[c]
            det = -det
        det = det * work[c][c]
        inv = RatFun(1) / work[c][c]
        work[c] = [x * inv for x in work[c]]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return aug, det


def _ref_is_monomial(p):
    return sum(1 for c in p if c != 0) == 1


def _ref_laurent_terms(f):
    """{exponent: coefficient} for a RatFun whose denominator is t^m."""
    if not _ref_is_monomial(f.den) and not f.is_zero():
        raise ValidationError("%s is not a Laurent polynomial" % f.render())
    shift = len(f.den) - 1
    return {i - shift: c for i, c in enumerate(f.num) if c != 0}


def ref_gauge_transform(conn, g):
    """g A g^{-1} - theta(g) g^{-1} by Gauss-Jordan inversion of g and
    matrix products in RatFun arithmetic."""
    n = conn.dim
    g = [[x if isinstance(x, RatFun) else RatFun(x) for x in row]
         for row in g]
    g_inv, det = _ref_rf_invert(g)
    if not (_ref_is_monomial(det.num) and _ref_is_monomial(det.den)):
        raise ValidationError("gauge determinant %s is not a unit"
                              % det.render())
    a = ref_ratfun_matrix(conn)
    theta_g = [[x.theta() for x in row] for row in g]
    new = _ref_rf_matmul(g, _ref_rf_matmul(a, g_inv))
    correction = _ref_rf_matmul(theta_g, g_inv)
    coeffs = {}
    for i in range(n):
        for j in range(n):
            entry = new[i][j] - correction[i][j]
            for k, c in _ref_laurent_terms(entry).items():
                coeffs.setdefault(k, zeros(n, n))[i][j] = c
    return MatrixConnection(coeffs, conn.label + " gauged", h=conn.h,
                            rho_weights=None, group=conn.group)


def _ref_theta_compose(op):
    """theta composed with sum op_j theta^j, as operator coefficients."""
    out = [RatFun(0)] * (len(op) + 1)
    for j, c in enumerate(op):
        out[j] = out[j] + c.theta()
        out[j + 1] = out[j + 1] + c
    return out


def ref_scalar_reduction(conn):
    """The scalar operator of conn by Gauss-Jordan over Q(t) in RatFun
    arithmetic: solve [v, Dv, ..., D^{n-1}v] d = D^n v for v = e_0, then
    build the adjoint by theta-compositions."""
    n = conn.dim
    a = ref_ratfun_matrix(conn)
    frame = [[RatFun(1 if i == 0 else 0) for i in range(n)]]
    for _ in range(n):
        vec = frame[-1]
        frame.append([vec[i].theta() + sum((a[i][j] * vec[j]
                                            for j in range(n)), RatFun(0))
                      for i in range(n)])
    work = [[frame[j][i] for j in range(n + 1)] for i in range(n)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if not work[i][c].is_zero()),
                     None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = RatFun(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(n):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    if r < n:
        raise CyclicVectorError(rank_found=r, needed=n)
    d = [work[i][n] for i in range(n)]
    op = [RatFun(1)]
    for i in range(n - 2, -1, -1):
        op = [-x for x in _ref_theta_compose(op)]
        op[0] = op[0] - d[i + 1]
    op = _ref_theta_compose(op)
    op[0] = op[0] + d[0]
    sign = RatFun(1 if (n - 1) % 2 == 0 else -1)
    op = [sign * x for x in op]
    if op[n] != RatFun(1):
        raise ConsistencyError("reference scalar operator is not monic")
    return ScalarOperator(op[:n], h=conn.h)


# -- Killing-form reference for the closed-form invariant form -------------


def ref_killing_form(alg):
    """The Killing form by traces, divided by its value at (e_theta,
    f_theta), as {i: {j: value}} over the nonzero entries.

    On the Cartan block kappa(h_i, h_j) is the sum over all roots of
    beta(h_i) beta(h_j); kappa(e_beta, f_beta) = kappa(f_beta, e_beta) is
    the trace of ad e_beta ad f_beta, found one basis bracket at a time.
    """
    r = alg.rank
    one = Fraction(1)
    gram = {}
    for i in range(r):
        for j in range(r):
            v = sum(2 * Fraction(beta[i] * beta[j]) for beta in alg.pos)
            if v:
                gram.setdefault(i, {})[j] = v
    for k in range(alg.npos):
        ei, fi = r + k, r + alg.npos + k
        tr = Fraction(0)
        for j in range(alg.dim):
            inner = alg.bracket({fi: one}, {j: one})
            tr += alg.bracket({ei: one}, inner).get(j, 0)
        gram.setdefault(ei, {})[fi] = tr
        gram.setdefault(fi, {})[ei] = tr
    theta = alg.index_of_root[alg.rs.theta]
    scale = gram[theta][theta + alg.npos]
    return {i: {j: v / scale for j, v in row.items()}
            for i, row in gram.items()}


def ref_zero_weight_irr(type_label, rank, coords):
    """(dim V - m(0))/h, with m(0) the zero-weight multiplicity of V
    restricted to its differential Galois group, or None when some
    exponent of that group shares a factor with h.

    When every exponent is prime to h, every eigenvalue of the Coxeter
    element is a primitive h-th root of unity, so its primitive projector
    is the identity and V^S is the zero weight space: this is
    Irr_infinity(V) without the projector rows.
    """
    ws = weight_system(build_root_system(type_label, rank), coords)
    rs_t = build_root_system(*galois_group(type_label, rank))
    h = rs_t.coxeter_number
    if any(gcd(m, h) != 1 for m in rs_t.exponents):
        return None
    table = (ws.table if rs_t.label() == ws.rs.label() else
             fold_branching(ws, rs_t, folding_matrix(type_label, rank)))
    irr, rem = divmod(ws.dim - table.get((0,) * rs_t.rank, 0), h)
    assert rem == 0, (type_label, rank, coords)
    return irr


def ref_principal_specialisation(rs, highest):
    """The a-histogram {a: N_a} of the irreducible module with highest
    weight lambda by Weyl's principal specialisation, with no weights and
    no Freudenthal:

        sum_mu m(mu) z^a(mu) = prod_{alpha > 0} (z^A - z^-A) / (z^B - z^-B),

    A = <lambda + rho, alpha-check>, B = <rho, alpha-check> (Kostant 1959;
    Kac, Infinite-dimensional Lie algebras, ch. 10).  That is
    z^(sum B - sum A) prod (z^2A - 1) / prod (z^2B - 1): the numerator
    factors are multiplied out first, each a shift and a subtraction, and
    then each z^2B - 1 is divided out by a running sum with a zero
    remainder.  A quotient of one factor pair at a time is not a
    polynomial in general (G2 adjoint), so the order matters.
    """
    num, den = [], []
    for beta in rs.pos_roots:
        coeffs = rs.coroot_coeffs(beta)
        num.append(sum((x + 1) * c for x, c in zip(highest, coeffs)))
        den.append(sum(coeffs))
    poly = [1]
    for a in num:
        poly = [s - p for s, p in itertools.zip_longest(
            [0] * (2 * a) + poly, poly, fillvalue=0)]
    for b in den:
        # p_k = q_(k - 2b) - q_k
        quot = []
        for k, p in enumerate(poly):
            quot.append((quot[k - 2 * b] if k >= 2 * b else 0) - p)
        poly, rest = quot[:-2 * b], quot[-2 * b:]
        assert not any(rest), (rs.label(), highest, b)
    shift = sum(den) - sum(num)
    return {k + shift: n for k, n in enumerate(poly) if n}
