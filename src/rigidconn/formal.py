"""Truncated formal solutions of (theta + A)f = 0 and the residue pairing.

The recursion n v_n + sum_k A_k v_{n-k} = 0 is solved upward, one level
at a time, with a running parameter space.  A level is an integer matrix
over one denominator, v_n = M_n / D_n, D_n > 0; level n solves
den(A) [n Id + A(0) | L sum A_k v_{n-k}] = [T | c], L the lcm of the fed
D_{n-k}.  Kernel levels and rewritten levels are in lowest terms; a
back-substituted level is brought there only once D_n has more than twice
the bits of the last level the sweep brought there, so D_n never has more
than twice the bits of a lowest-terms denominator of its sweep.
Where T is nonsingular and den(A) A(0) is triangular in
some order of its rows (found once per sweep; A(0) = N raises the grading,
so every built model has one, permuted or dual), v_n = -T^-1 c / L by back
substitution along that order, scaled by the least exact scale of T's
chains.  Elsewhere (T singular, a cut level above a closed top, or no such
order) the Gauss-Jordan kernel of [T | c] runs: a kernel vector (x, y)
gives (x, L y) in the true one, v_n and the old parameters in terms of the
new ones.  Parameters enter where T is singular or, for spaces with an
infinite tail at t = 0, as seed layers a buffer below the window; above a
closed top edge v_n = 0, so the block is c alone and only cuts the
parameter space down.  A kernel level whose map of the old parameters is
not the identity rewrites the stored levels into the new ones, and a sweep
stores only what is read: the seeds, each window's generating levels
(below) and the K levels that feed the next one.  A back-substituted level
whose feed c is zero or empty is stored as zero.
Dimensions are ranks over the core window [-M, M], taken on its
generating levels: its first max(K, 1) levels, K the degree of A(t), and
those that took the kernel.  Every other level is back-substituted from
the K below it, so a parameter vector that kills the generating levels
kills the window, and both row sets have the same pivots.  Up to M,
taylor0 runs the steps of laurent_polys and two_sided those of taylor_inf;
the closed top only adds cut levels above M.  One sweep serves both spaces
and both windows, M and M + h, keeping each window open and closing a copy
at its top.  Seeded, it starts M + h below -M, as the M window alone does,
and the M + h window keeps the seed values that its own seeds, M + 2h below
it, reach: ranks depend on the seed placement.  Unseeded, it starts at
-(M + h); the M window is swept alone if a parameter entered below -M.
The feed c runs over the nonzero entries of each A_k; a report builds its
Fraction basis on read, back-substituting the window's other levels.
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm, prod

from .connection import sl2_sym
from .errors import ConsistencyError, ValidationError
from .linalg import _cleared, _int_mul, _kernel, _row_reduce, inverse

SPACES = ("taylor0", "taylor_inf", "two_sided", "laurent_polys")
# the unseeded and the seeded family, each (open-top, closed-top space)
_FAMILIES = (("taylor0", "laurent_polys"), ("two_sided", "taylor_inf"))


class SeriesWindow:
    """Finitely many exact coefficients v_n of a formal series."""

    def __init__(self, dim, coeffs):
        self.dim = dim
        self.coeffs = {}
        for n, vec in coeffs.items():
            vec = [Fraction(x) for x in vec]
            if len(vec) != dim:
                raise ValidationError("coefficient at degree %d has length "
                                      "%d, expected %d" % (n, len(vec), dim))
            if any(vec):
                self.coeffs[int(n)] = vec

    @classmethod
    def _exact(cls, dim, coeffs):
        """A window over {int n: nonzero list of dim Fractions}, taken as
        it is."""
        window = cls.__new__(cls)
        window.dim, window.coeffs = dim, coeffs
        return window

    @property
    def n_min(self):
        return min(self.coeffs, default=0)

    @property
    def n_max(self):
        return max(self.coeffs, default=0)

    def coefficient(self, n):
        got = self.coeffs.get(n)
        if got is None:
            return [Fraction(0)] * self.dim
        return got[:]

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self):
        return not self.coeffs


class KernelReport:
    """A space's dimension and stabilization; basis is built on first read
    from the levels of its window's top, in the top's final parameters."""

    def __init__(self, space, truncation, stabilized, dim, levels, pivots):
        self.space = space
        self.dimension = len(pivots)
        self.truncation = truncation
        self.stabilized = stabilized
        self._basis_args = (dim, levels, pivots, truncation)

    @cached_property
    def basis(self):
        return _basis(*self._basis_args)

    def __repr__(self):
        return ("KernelReport(space=%r, dimension=%d, truncation=%d, "
                "stabilized=%r)" % (self.space, self.dimension,
                                    self.truncation, self.stabilized))


def _lowest(mat, den):
    """(mat, den) over the gcd of den and every entry, folded row by row:
    the level in lowest terms, where kernel levels, rewritten levels and a
    back-substituted level whose denominator has doubled are kept (see
    _Levels.put)."""
    g = den
    for row in mat:
        if (g := gcd(g, *row)) == 1:
            return mat, den
    return [[x // g for x in row] for row in mat], den // g


class _Levels:
    """Levels {n: (M, D)} in the current parameters, M None for zero, and
    the level step of their sweep (see _solve_space).  bits is the bit
    length of the last denominator the step brought to lowest terms."""

    def __init__(self, d, p, stored, step, bits=1):
        self.d, self.p, self.stored, self.step = d, p, stored, step
        self.bits = bits

    def __getitem__(self, n):
        mat, den = self.stored[n]
        return ([[0] * self.p] * self.d, 1) if mat is None else (mat, den)

    def copy(self):
        return _Levels(self.d, self.p, dict(self.stored), self.step,
                       self.bits)

    def put(self, n, mat, den, lazy=False):
        """Store level n, in lowest terms unless lazy and den has at most
        twice the bits of the last level brought to lowest terms."""
        if not lazy or den.bit_length() > 2 * self.bits:
            mat, den = _lowest(mat, den)
            self.bits = den.bit_length()
        self.stored[n] = mat, den

    def reparametrise(self, pmap, den):
        """Every level into new parameters, in which the old ones are the
        columns pmap over den."""
        self.stored = {n: (mat, dn) if mat is None
                       else _lowest(_int_mul(mat, pmap), dn * den)
                       for n, (mat, dn) in self.stored.items()}
        self.p = len(pmap)

    def window(self, m):
        """A copy holding every level of [-m, m]: a level not stored is
        back-substituted from the K below it, in increasing n."""
        full = self.copy()
        for n in range(-m, m + 1):
            if n not in full.stored:
                full.step(full, n, full.d)
        return full


def _triangular_order(a0):
    """[(i, [(j, a0[i][j]), ...]), ...]: the rows of the int matrix a0, each
    with its nonzero entries off the diagonal, ordered so that row i comes
    after every such j (Kahn's algorithm); None if that pattern has a cycle."""
    deps = [[(j, x) for j, x in enumerate(row) if x and j != i]
            for i, row in enumerate(a0)]
    users = [[i for i, row in enumerate(a0) if row[j] and i != j]
             for j in range(len(a0))]
    waiting = [len(dep) for dep in deps]
    order = [i for i, k in enumerate(waiting) if not k]
    for j in order:  # the list grows while it is read
        for i in users[j]:
            waiting[i] -= 1
            if not waiting[i]:
                order.append(i)
    return [(i, deps[i]) for i in order] if len(order) == len(a0) else None


def _chain_exponents(steps, a0):
    """{v: E_v}, E_v the most rows of diagonal entry v of the int matrix a0
    on one chain of steps (from _triangular_order); | keeps larger counts."""
    ends = {}
    for i, dep in steps:
        ends[i] = reduce(Counter.__or__, [ends[j] for j, _ in dep], Counter())
        ends[i][a0[i][i]] += 1
    return reduce(Counter.__or__, ends.values())


def _add(acc, x, row):
    """acc + x row, formed as x row when acc is zero."""
    return ([u + x * v for u, v in zip(acc, row)] if any(acc)
            else [x * v for v in row])


def _back_substitute(steps, diag, c, n, label):
    """The int rows y with T y = c, T triangular along steps (from
    _triangular_order) with diagonal diag.  Row i is exact once c is a
    multiple of diag[j] over the rows j of any chain ending at i (see
    _chain_exponents); a remainder is a ConsistencyError at level n."""
    y = [None] * len(diag)
    for i, dep in steps:
        acc = c[i]
        for j, x in dep:
            acc = _add(acc, -x, y[j])
        y[i] = []
        for s in acc:
            q, r = divmod(s, diag[i])
            if r:
                raise ConsistencyError("_solve_space: back substitution at "
                                       "level %d of %s leaves a remainder in "
                                       "row %d" % (n, label, i))
            y[i].append(q)
    return y


def _solve_space(conn, seeded, windows, buffer_depth):
    """[(open top, closed top, generating levels)] of one sweep per window
    M of the increasing windows: copies of the stored levels at n = M, open
    and closed, and the generating levels of [-M, M] in increasing order."""
    if not conn.is_polynomial():
        raise ValidationError("formal solving needs polynomial A(t); %s has "
                              "poles at t = 0" % conn.label)
    d = conn.dim
    ks = [k for k in conn.coeffs if k >= 1]
    big_k = max(ks, default=0)
    rows, den_a = _cleared([row for k in [0] + ks
                            for row in conn.coefficient(k)])
    a = {k: rows[i * d:i * d + d] for i, k in enumerate([0] + ks)}
    steps = _triangular_order(a[0])
    exps = steps and _chain_exponents(steps, a[0])
    nonzero = {k: [(i, j, x) for i, row in enumerate(a[k])
                   for j, x in enumerate(row) if x] for k in ks}
    layers = max(big_k, 1) if seeded else 0
    start = -windows[0] - buffer_depth if seeded else -windows[-1]
    if start + layers > windows[0]:
        raise ValidationError("%s: A(t) has degree %d, so the seed layers "
                              "of the seeded sweep at truncation %d reach "
                              "the window's top"
                              % (conn.label, big_k, windows[0]))
    p = layers * d
    eye = [[int(i == q) for q in range(p)] for i in range(p)]
    seeds = {start + j: (eye[j * d:j * d + d], 1) for j in range(layers)}

    def level(phi, n, w):
        """Level n into phi, w = 0 above a closed top; True at a kernel."""
        p = phi.p
        # den_a [n Id + A(0) | big_l sum A_k phi[n-k]] = [T | c], c[i]
        # summing (x big_l / D_k) M_{n-k}[j] over nonzero x = A_k[i][j] once
        # p > 0; scale is 0 (kernel) or T y = -scale c, v_n = y / (scale big_l)
        scale = prod(abs(n * den_a + v) ** e
                     for v, e in exps.items()) if w and exps else 0
        feed = [(nonzero[k], phi[n - k]) for k in ks
                if p and phi.stored.get(n - k, (None,))[0] is not None]
        big_l = lcm(*[dk for _, (_, dk) in feed])
        c = [[0] * p] * d  # rows are replaced, never changed
        for entries, (mk, dk) in feed:
            s = big_l // dk * (-scale if scale else 1)
            for i, j, x in entries:
                c[i] = _add(c[i], x * s, mk[j])
        if scale:
            if any(map(any, c)):
                diag = [n * den_a + a[0][i][i] for i in range(d)]
                y = _back_substitute(steps, diag, c, n, conn.label)
                phi.put(n, y, scale * big_l, lazy=True)
            else:
                phi.stored[n] = (None, 1)
            return False
        block = [[x + n * den_a if i == j else x
                  for j, x in enumerate(a[0][i][:w])] + c[i]
                 for i in range(d)]
        vecs, den, free = _kernel(block)
        # (x, y) in its kernel is (x, big_l y) in the true one: normalised at
        # the free entry, y / den and x / (den big_l), times big_l if f < w
        lift = [big_l if f < w else 1 for f in free]
        pmap = [[x * s for x in v[w:]] for v, s in zip(vecs, lift)]
        if pmap != [[den * (i == j) for j in range(p)] for i in range(p)]:
            phi.reparametrise(pmap, den)
        if w:
            phi.put(n, [[v[i] * s for v, s in zip(vecs, lift)]
                        for i in range(d)], den * big_l)
        return True

    phi = _Levels(d, p, dict(seeds), level)
    # the window levels every other one is a linear function of: the first
    # max(big_k, 1), which may be fed from below the window, and those that
    # take the kernel (a back-substituted level is linear in its feed)
    lead = max(big_k, 1)
    generating = {m: list(range(-m, min(lead - m, m + 1))) for m in windows}
    keep = set(seeds).union(*generating.values())
    tops, own = {}, list(windows)
    for n in range(start + layers, windows[-1] + 1):
        # a level feeds big_k equations, then goes unless a top reads it
        if n - big_k - 1 not in keep:
            phi.stored.pop(n - big_k - 1, None)
        if not seeded and phi.p and -n in own:
            own.remove(-n)
        if level(phi, n, d):
            for m in windows:
                if lead - m <= n <= m:
                    generating[m].append(n)
                    keep.add(n)
        if n in own:
            closed = phi.copy()
            for j in range(n + 1, n + big_k + 1):
                level(closed, j, 0)
            tops[n] = phi.copy(), closed, generating[n]
        if seeded and n in windows[1:]:
            # window n alone is seeded 2 (n - M) lower: keep the seed values
            # x whose states B x = Q z a sweep from there reaches
            low = 2 * (n - windows[0])
            pre = _Levels(d, p, {j - low: s for j, s in seeds.items()}, level)
            for j in range(start - low + layers, start + layers):
                level(pre, j, d)
            for top in tops[n][:2]:
                vecs, den, _ = _kernel([
                    [x * dq for x in mb[i]] + [-x * db for x in mq[i]]
                    for j in seeds for (mb, db), (mq, dq) in [(top[j], pre[j])]
                    for i in range(d)])
                top.reparametrise([v[:top.p] for v in vecs], den)
    # an unseeded window a parameter entered below is swept alone
    return [tops[m] if m in own else _solve_space(conn, seeded, (m,), 0)[0]
            for m in windows]


def _basis(d, phi, pivots, m_window):
    """One SeriesWindow over the core window per pivot parameter column."""
    phi = phi.window(m_window)
    core = [(n,) + phi[n] for n in range(-m_window, m_window + 1)]
    return [SeriesWindow._exact(d, {n: [Fraction(mat[i][col], den)
                                        for i in range(d)]
                                    for n, mat, den in core
                                    if any(row[col] for row in mat)})
            for col in pivots]


def _h_step(conn):
    return conn.h or conn.dim + 1  # dim + 1 for a connection without h


def _kernel_reports(conn, spaces, truncation):
    """{space: KernelReport}, one sweep per seed family read at the windows
    M and M + h, unseeded first, at any truncation."""
    h_step = _h_step(conn)
    windows = (truncation, truncation + h_step)
    reports = {}
    for seeded, family in enumerate(_FAMILIES):
        ends = [(top, s) for top, s in enumerate(family) if s in spaces]
        sweeps = ends and _solve_space(conn, seeded, windows, windows[1])
        for top, space in ends:
            # pivot columns of the generating levels of each core window:
            # the parameters they kill are those the whole window kills
            pivots, wide = [_row_reduce([row for n in sweep[2]
                                         for row in sweep[top][n][0]])
                            for sweep in sweeps]
            reports[space] = KernelReport(
                space, truncation, len(wide) == len(pivots), conn.dim,
                sweeps[0][top], pivots)
    return reports


def _floored_reports(conn, spaces, truncation):
    """_kernel_reports, once the truncation reaches the floor."""
    floor = 2 * conn.dim + 2 * _h_step(conn)
    if truncation < floor:
        raise ValidationError("truncation %d is below the floor %d for %s"
                              % (truncation, floor, conn.label))
    return _kernel_reports(conn, spaces, truncation)


def kernel_dimension(conn, space, truncation):
    """Dimension of the truncated solution space, with stabilization.

    The dimension is read again at the window enlarged by one h-period
    off the same sweep; the report is flagged unstabilized if they differ.
    The truncation must reach the floor 2 dim + 2h, with dim + 1 in
    place of h when the connection has none.  taylor0 is read off the
    laurent_polys sweep at M and two_sided off the taylor_inf one.  The
    seeded spaces refuse an A(t) of degree above 3 truncation + h, whose
    seed layers would reach the window's top.
    """
    if space not in SPACES:
        raise ValidationError("unknown space %r; expected one of %s"
                              % (space, ", ".join(SPACES)))
    return _floored_reports(conn, (space,), truncation)[space]


def _h1(label, dims):
    """two_sided - taylor0 - taylor_inf, or None if laurent_V is nonzero.

    This is the middle-extension h^1 when the connection has no flat
    sections over the punctured line.
    """
    if dims["laurent_V"] != 0:
        return None
    out = dims["two_sided"] - dims["taylor0"] - dims["taylor_inf"]
    if out < 0:
        raise ConsistencyError("negative h1 accounting for %s: %d - %d - %d"
                               % (label, dims["two_sided"], dims["taylor0"],
                                  dims["taylor_inf"]))
    return out


def check_rigidity(conn, conn_dual, truncation):
    """The two solver-side rigidity criteria, evaluated at truncation.

    Passes when the Laurent-polynomial kernels of V and V* vanish and
    the two-sided kernel splits as taylor0 + taylor_inf.  "h1" is the
    middle-extension h^1, None when V has flat sections.
    """
    if conn_dual.dim != conn.dim:
        raise ValidationError("%s has dimension %d, its dual %s has %d" % (
            conn.label, conn.dim, conn_dual.label, conn_dual.dim))
    own = _floored_reports(conn, SPACES, truncation)
    reports = {"laurent_V": own["laurent_polys"],
               "laurent_V_dual": kernel_dimension(conn_dual, "laurent_polys",
                                                  truncation)}
    reports.update((s, own[s]) for s in ("two_sided", "taylor0", "taylor_inf"))
    dims = {k: r.dimension for k, r in reports.items()}
    split_ok = dims["two_sided"] == dims["taylor0"] + dims["taylor_inf"]
    passed = (dims["laurent_V"] == 0 and dims["laurent_V_dual"] == 0
              and split_ok)
    return {
        "passed": passed,
        "splits": split_ok,
        "dimensions": dims,
        "h1": _h1(conn.label, dims),
        "stabilized": all(r.stabilized for r in reports.values()),
        "reports": reports,
    }


def h1_middle_via_solver(conn, conn_dual, truncation):
    """dim two_sided - dim taylor0 - dim taylor_inf for V.

    This equals the middle-extension h^1 when the connection has no flat
    sections over the punctured line, checked on check_rigidity's sweeps.
    conn_dual is unused, kept only until ROADMAP item 2 drops it.
    """
    dims = {space: report.dimension for space, report
            in _floored_reports(conn, SPACES, truncation).items()}
    if dims["laurent_polys"] != 0:
        raise ConsistencyError("solver h1 needs a vanishing global kernel; "
                               "%s has dimension %d"
                               % (conn.label, dims["laurent_polys"]))
    return _h1(conn.label, dict(dims, laurent_V=0))


def apply_connection(conn, window):
    """(theta + A) acting on a series window."""
    if not conn.is_polynomial():
        raise ValidationError("series application needs polynomial A(t)")
    d = conn.dim
    if window.dim != d:
        raise ValidationError("window dimension %d does not match connection "
                              "dimension %d" % (window.dim, d))
    out = {}
    for n, vec in window.coeffs.items():
        acc = out.setdefault(n, [Fraction(0)] * d)
        for i in range(d):
            acc[i] += n * vec[i]
        for k, mat in conn.coeffs.items():
            tgt = out.setdefault(n + k, [Fraction(0)] * d)
            for i in range(d):
                row = mat[i]
                tgt[i] += sum(row[j] * vec[j] for j in range(d))
    return SeriesWindow(d, out)


def residue_pair(f, omega):
    """Res_{t=0} of the pairing series: sum over n + m = 0 of <v_n, w_m>."""
    if f.dim != omega.dim:
        raise ValidationError("windows of dimension %d and %d do not pair"
                              % (f.dim, omega.dim))
    total = Fraction(0)
    for n, vec in f.coeffs.items():
        other = omega.coeffs.get(-n)
        if other is not None:
            total += sum(x * y for x, y in zip(vec, other))
    return total


def sl2_double_cover_h1(n):
    """The middle h^1 for the even-dimensional SL2 representation.

    Works on the double cover t = z^2 after the diagonal gauge: the
    two-sided solutions are seeded at level n, a solution dies at the
    bottom exactly when its level-0 layer vanishes, and the answer is
    the rank of the down-propagation on even-level seeds.
    """
    if n < 2 or n % 2:
        raise ValidationError("the double-cover computation needs even "
                              "dimension n >= 2")
    sym = sl2_sym(n - 1)  # E + N of Sym^(n-1)
    ef, _ = _cleared(inverse([[x + y for x, y in zip(*rows)]
                              for rows in zip(sym.coefficient(1),
                                              sym.coefficient(0))]))
    # the even-level seed columns of the down-propagation, each step
    # (E + N)^-1 diag(m - j - 1) without its nonzero scalar -1/2 den
    seeds = [[int(i == j) for i in range(n)] for j in range(1, n, 2)]
    for m in range(n, 0, -1):
        seeds = _int_mul(seeds, [[x * (m - j - 1) for j, x in enumerate(row)]
                                 for row in ef])
    return len(_row_reduce(seeds))
