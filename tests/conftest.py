"""Shared helpers for the test suite."""

import itertools
from fractions import Fraction

from rigidconn.connection import ScalarOperator
from rigidconn.errors import ConsistencyError, CyclicVectorError
from rigidconn.linalg import identity, mat_mul
from rigidconn.poly import RatFun


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


# -- RatFun reference for the scalar reduction -----------------------------


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
    a = conn.ratfun_matrix()
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
