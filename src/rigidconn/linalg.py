"""Exact linear algebra over the rationals.

Matrices are lists of row lists with Fraction or int entries (ints mix
freely and stay exact).  The kernels take Python ints only:
_row_reduce is fraction-free Gauss-Jordan, _kernel reads a kernel basis
over one denominator off its reduced rows, and _int_mul takes integer
dot products.  _cleared, the one place denominators are cleared, puts
rows over one common denominator; the Fraction-facing routines
(mat_mul, rank, nullspace, inverse, charpoly, poly_at_matrix) call it
once before the kernels, and the formal solver, whose levels are ints,
calls the kernels directly.  Fractions are divided out only for the
entries returned.  There is no floating point here.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ConsistencyError


def zeros(nrows, ncols):
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def _cleared(rows):
    """(ints, den): ints[i][j] / den == rows[i][j], den the lcm of all the
    denominators.  rows hold ints and Fractions and may differ in length."""
    den = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows], den


def _int_mul(rows, cols):
    """Integer rows times a right factor given by its columns, so that a
    factor of no rows keeps its width: d x 0 times 0 x m is d x m zeros."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def mat_mul(a, b):
    """The product a b as Fractions: _int_mul of a and b, each cleared of
    denominators once, over da * db.  When b has no rows (a is n x 0) the
    result is n empty rows, not an n x m zero matrix: a list of no rows
    cannot carry its width m."""
    ia, da = _cleared(a)
    ib, db = _cleared(b)
    den = da * db
    return [[Fraction(x, den) if den > 1 else Fraction(x) for x in row]
            for row in _int_mul(ia, list(zip(*ib)))]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _row_reduce(m):
    """Fraction-free Gauss-Jordan elimination of the int rows m; returns
    the pivot columns.

    The rows of m are replaced by new int lists, each first divided by
    the gcd of its entries: the row lists passed in are not modified, the
    list m is (pass a copy to keep it).  The pivot of column c is the
    first nonzero entry at or below row r; every other row_i with a
    nonzero in column c becomes a row_i - b row_r, with a / b = m[r][c] /
    m[i][c] in lowest terms, divided by the gcd of its entries.  On return
    row r is a nonzero multiple of row r of the reduced row echelon form,
    so the RREF entry is m[r][j] / m[r][pivots[r]]; rows below the rank
    are zero.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    for i in range(nrows):
        m[i] = _primitive(m[i])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            e = m[i][c]
            if i != r and e:
                g = gcd(p, e)
                a, b = p // g, e // g
                m[i] = _primitive([a * x - b * y for x, y in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(m):
    return len(_row_reduce(_cleared(m)[0]))


def _kernel(m):
    """(vecs, den, free): the nullspace vectors of the int rows m are
    vecs[j] / den, one per free column free[j], with den the lcm of the
    pivots, so that each entry -row[f] den / row[c] is an int."""
    ncols = len(m[0]) if m else 0
    work = list(m)
    pivots = _row_reduce(work)
    den = lcm(*[row[c] for row, c in zip(work, pivots)])
    rows = [(row, c, -den // row[c]) for row, c in zip(work, pivots)]
    free = [f for f in range(ncols) if f not in pivots]
    vecs = [[0] * ncols for _ in free]
    for v, f in zip(vecs, free):
        v[f] = den
        for row, c, s in rows:
            v[c] = row[f] * s
    return vecs, den, free


def nullspace(m):
    """Basis of the right kernel of m, as a list of vectors."""
    vecs, den, _ = _kernel(_cleared(m)[0])
    return [[Fraction(x, den) for x in v] for v in vecs]


def inverse(m):
    n = len(m)
    a, den = _cleared(m)
    aug = [row + [den * (i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots = _row_reduce(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, row[r]) for x in row[n:]]
            for r, row in enumerate(aug)]


def charpoly(m):
    """Coefficients of det(x I - m), ascending degree, exact.

    Faddeev-LeVerrier over Z on a = den m: with M_1 = I, b_n = 1,
    b_{n-k} = -tr(a M_k) / k and M_{k+1} = a M_k + b_{n-k} I, each
    division exact, det(x I - a) = sum b_k x^k, so the coefficient of x^k
    in det(x I - m) is b_k den^(k-n).  M_k is kept by columns.
    """
    n = len(m)
    a, den = _cleared(m)
    b = [0] * n + [1]
    cols = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = _int_mul(cols, a)
        b[n - k], r = divmod(-sum(cols[i][i] for i in range(n)), k)
        if r:
            raise ConsistencyError("charpoly: the trace at Faddeev-LeVerrier "
                                   "step %d is not divisible by %d" % (k, k))
        for i in range(n):
            cols[i][i] += b[n - k]
    return [Fraction(x, den ** (n - k)) for k, x in enumerate(b)]


def poly_at_matrix(coeffs, m):
    """Evaluate a polynomial (ascending coefficients) at a square matrix.

    Horner's rule over Z on a = den m and the coefficients c_k = u_k / e
    over one denominator e: with d the degree, the integer matrix
    sum_k u_k den^(d-k) a^k is e den^d times the value.
    """
    n = len(m)
    a, den = _cleared(m)
    cols = list(zip(*a))
    (u,), e = _cleared([coeffs])
    out = [[0] * n for _ in range(n)]
    for k, c in enumerate(reversed(u)):
        if k:
            out = _int_mul(out, cols)
        for i in range(n):
            out[i][i] += c * den ** k
    scale = e * den ** max(len(u) - 1, 0)
    return [[Fraction(x, scale) for x in row] for row in out]


def is_semisimple(m, stage="is_semisimple", label="the matrix"):
    """True iff the squarefree part s of the charpoly annihilates m.  Over
    Z[t], chi cleared of denominators, s = chi / gcd(chi, chi') is exact
    because _zgcd is primitive (Gauss's lemma); s(m) runs on integers."""
    from .poly import _zgcd, pderiv, pzdivmod

    (chi,), _ = _cleared([charpoly(m)])
    s, r = pzdivmod(chi, _zgcd(chi, pderiv(chi)))
    if r:
        raise ConsistencyError("%s: gcd(chi, chi') does not divide the "
                               "charpoly chi of %s" % (stage, label))
    return not any(map(any, poly_at_matrix(s, m)))


def is_nilpotent(m):
    chi = charpoly(m)
    return all(c == 0 for c in chi[:-1])


def graded_cycle_check(m, degrees, h, stage, label):
    """Kernel dimension, semisimplicity and nilpotency of a cyclic matrix.

    m must lower the grading by one modulo h: every nonzero m[i][j] has
    degrees[i] = degrees[j] - 1 mod h (degrees may be half-integers), else
    ConsistencyError names the stage, the matrix and the entry.  With M_c
    the block of m from class c to class c - 1, ker m and ker m^2 are sums
    over the classes of ker M_c and ker M_{c-1} M_c.  Each coset of Z among
    the classes is a cycle; m^h on it has as blocks the rotations of one
    product P = M_{c+1} ... M_c (zero if a class on the cycle is empty),
    which share their Jordan blocks at every nonzero eigenvalue.  So m is
    nilpotent iff every P is.  ker m = ker m^2 iff 0 is a semisimple
    eigenvalue of m, and then the zero part of m^h is semisimple too.  Off
    its generalized kernel m is invertible and x^h - a is squarefree for
    a != 0, so m is semisimple there iff m^h is.  Hence m is semisimple iff
    ker m = ker m^2 and every P is.  The blocks are of den m, in ints.
    """
    # class of degree d: q d mod q h, q the lcm of the denominators
    q = lcm(*[d.denominator for d in degrees])
    qh = q * h
    cls = [d.numerator * (q // d.denominator) % qh for d in degrees]
    classes = {}
    for i, c in enumerate(cls):
        classes.setdefault(c, []).append(i)
    a, _ = _cleared(m)
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x and cls[i] != (cls[j] - q) % qh:
                raise ConsistencyError(
                    "%s: %s does not lower the degree by one mod %d at "
                    "entry (%d, %d), degree %s -> %s"
                    % (stage, label, h, i, j, degrees[j], degrees[i]))
    # blocks[c] = M_c by rows: _int_mul(x, blocks[c]) is x M_c^T
    blocks = {c: [[a[i][j] for j in cols]
                  for i in classes.get((c - q) % qh, [])]
              for c, cols in classes.items()}
    kernel_dim = kernel_dim_2 = 0
    for c, cols in classes.items():
        kernel_dim += len(cols) - len(_row_reduce(list(blocks[c])))
        square = _int_mul(blocks.get((c - q) % qh, []), list(zip(*blocks[c])))
        kernel_dim_2 += len(cols) - len(_row_reduce(square))
    semisimple, nilpotent = kernel_dim == kernel_dim_2, True
    for c in {c % q: c for c in classes}.values():
        n = len(classes[c])
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(h):
            if (c - k * q) % qh not in blocks:
                power = [[0] * n for _ in range(n)]
                break
            power = _int_mul(power, blocks[(c - k * q) % qh])
        semisimple = semisimple and is_semisimple(
            power, stage, "the class-%s block of (%s)^%d"
            % (Fraction(c, q), label, h))
        # a semisimple product is nilpotent iff it is zero
        nilpotent = nilpotent and (not any(map(any, power)) if semisimple
                                   else is_nilpotent(power))
    return {"kernel_dim": kernel_dim, "semisimple": semisimple,
            "nilpotent": nilpotent}
