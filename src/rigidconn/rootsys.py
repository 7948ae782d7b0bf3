"""Root systems of the finite simple types in fundamental-weight coordinates.

Weights are integer tuples of pairings with the simple coroots, so
<mu, alpha_i-check> is just mu[i].  The Cartan matrix convention is
A[i][j] = <alpha_j, alpha_i-check>, which makes the j-th simple root
equal to the j-th column of A in these coordinates.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, prod
from operator import add, mul

from .errors import ConsistencyError, ValidationError
from .linalg import _cleared, _int_mul, inverse, mat_vec

SUPPORTED = {"A": (1, 8), "B": (2, 9), "C": (2, 8), "D": (4, 8),
             "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def cartan_matrix(type_label, rank):
    n = rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i, j, aij=-1, aji=-1):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if type_label == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif type_label == "B":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, -1, -2)
    elif type_label == "C":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 1, n, -2, -1)
    elif type_label == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif type_label == "E":
        for i, j in [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)][: n - 1]:
            bond(i, j)
        if n >= 7:
            bond(6, 7)
        if n == 8:
            bond(7, 8)
    elif type_label == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)
        bond(3, 4)
    elif type_label == "G":
        bond(1, 2, -3, -1)
    else:
        raise ValidationError("unknown type %r" % type_label)
    return a


class RootSystem:
    def __init__(self, type_label, rank):
        if type_label not in SUPPORTED:
            raise ValidationError("unknown type %r" % type_label)
        lo, hi = SUPPORTED[type_label]
        if not lo <= rank <= hi:
            raise ValidationError("rank %d out of range [%d, %d] for type %s"
                                  % (rank, lo, hi, type_label))
        self.type_label = type_label
        self.rank = rank
        self.cartan = cartan_matrix(type_label, rank)
        self.cartan_inv = inverse(self.cartan)
        self.simple_roots = [tuple(self.cartan[k][j] for k in range(rank))
                             for j in range(rank)]
        self._build_positive_roots()
        self._build_lengths()
        self._build_gram()
        self._build_exponents()
        self._build_a_coeffs()

    # -- construction ---------------------------------------------------

    def _build_positive_roots(self):
        n = self.rank
        simples = self.simple_roots
        height = {beta: 1 for beta in simples}
        # down[beta][i]: p, the length of the alpha_i-string below beta
        self.down = down = {beta: [0] * n for beta in simples}
        layer = list(simples)
        ht = 1
        while layer:
            nxt = []
            for beta in layer:
                for i in range(n):
                    # q = p - <beta, alpha_i-check> counts the string above
                    if down[beta][i] > beta[i]:
                        gamma = tuple(map(add, beta, simples[i]))
                        if gamma not in height:
                            height[gamma] = ht + 1
                            down[gamma] = [0] * n
                            nxt.append(gamma)
                        down[gamma][i] = down[beta][i] + 1
            layer = nxt
            ht += 1
        self.height = height
        self.pos_roots = sorted(height, key=lambda b: (height[b], b))
        self.root_set = set(self.pos_roots)
        self.root_set.update(tuple(-x for x in b) for b in self.pos_roots)
        self.max_height = max(height.values())
        tops = [b for b, h in height.items() if h == self.max_height]
        if len(tops) != 1:
            raise ConsistencyError("root system: %s has %d highest roots"
                                   % (self.label(), len(tops)))
        self.theta = tops[0]

    def _build_lengths(self):
        n = self.rank
        a = self.cartan
        ell = [None] * n
        ell[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(n):
                if i != j and a[i][j] != 0 and ell[j] is None:
                    ell[j] = ell[i] * Fraction(a[i][j], a[j][i])
                    todo.append(j)
        if None in ell:
            raise ConsistencyError("root system: the Dynkin diagram of %s is "
                                   "not connected" % self.label())
        self.d = [x / max(ell) for x in ell]  # (alpha_i, alpha_i) / 2

    def _build_exponents(self):
        counts = {}
        for h in self.height.values():
            counts[h] = counts.get(h, 0) + 1
        exps = []
        for k in range(1, self.max_height + 1):
            mult = counts.get(k, 0) - counts.get(k + 1, 0)
            if mult < 0:
                raise ConsistencyError("root system: the height histogram "
                                       "of %s rises at %d"
                                       % (self.label(), k + 1))
            exps.extend([k] * mult)
        if len(exps) != self.rank:
            raise ConsistencyError("root system: %s has %d exponents"
                                   % (self.label(), len(exps)))
        self.exponents = exps
        self.coxeter_number = self.max_height + 1
        self.degrees = [m + 1 for m in exps]
        self.weyl_order = prod(self.degrees)

    def _build_gram(self):
        form = [[row[k] * dj for row, dj in zip(self.cartan_inv, self.d)]
                for k in range(self.rank)]
        self.gram, self.gram_den = _cleared(form)

    def _build_a_coeffs(self):
        # 2 rho-check is twice the sum of the fundamental coweights, whose
        # simple-coroot coordinates are the rows of the inverse Cartan matrix
        coeffs = []
        for i in range(self.rank):
            c = 2 * sum(row[i] for row in self.cartan_inv)
            if c.denominator != 1:
                raise ConsistencyError("root system: %s has 2 rho-check "
                                       "coordinate %s at node %d, not an "
                                       "integer" % (self.label(), c, i + 1))
            coeffs.append(int(c))
        self.a_coeffs = coeffs  # a(omega_i) = coeffs[i]; 2 rho-check in coroot basis
        # a(s_j nu) = a(nu) - 2 nu_j on Weyl orbits needs a(alpha_j) = 2
        for j, alpha in enumerate(self.simple_roots):
            if self.a_value(alpha) != 2:
                raise ConsistencyError("root system: %s gives the simple root "
                                       "at node %d the a-value %d, not 2"
                                       % (self.label(), j + 1,
                                          self.a_value(alpha)))

    # -- basic queries ---------------------------------------------------

    def simple_coords(self, mu):
        return mat_vec(self.cartan_inv, list(mu))

    def gram_pair(self, mu, nu):
        """gram_den * (mu, nu) = mu^T gram nu, with gram an integer matrix."""
        return sum(m * sum(map(mul, row, nu))
                   for m, row in zip(mu, self.gram) if m)

    def form(self, mu, nu):
        """W-invariant symmetric form with (theta, theta) = 2."""
        return Fraction(self.gram_pair(mu, nu), self.gram_den)

    def root_length_sq(self, beta):
        return self.form(beta, beta)

    @cached_property
    def strings(self):
        """(beta, gram_den (beta, beta), gram beta) for each positive beta."""
        return [(beta, self.gram_pair(beta, beta),
                 [sum(map(mul, row, beta)) for row in self.gram])
                for beta in self.pos_roots]

    def coroot_coeffs(self, beta):
        """Coordinates of beta-check in the simple coroot basis (integers):
        <omega_i, beta-check> = 2 (omega_i, beta) / (beta, beta)."""
        g_beta = [sum(map(mul, row, beta)) for row in self.gram]
        norm = sum(map(mul, beta, g_beta))
        out = [divmod(2 * g, norm) for g in g_beta]
        if any(rem for _c, rem in out):
            raise ConsistencyError("root system: the coroot of %s in %s is "
                                   "not integral" % (list(beta), self.label()))
        return [c for c, _rem in out]

    def a_value(self, mu):
        """Pairing <mu, 2 rho-check>; the principal grading of the weight mu."""
        return sum(map(mul, mu, self.a_coeffs))

    def fundamental_weight(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def label(self):
        return "%s%d" % (self.type_label, self.rank)


def build_root_system(type_label, rank):
    """The shared, read-only RootSystem of a type, either case of its letter;
    built once per process."""
    return _root_system(type_label.upper(), rank)


_root_system = lru_cache(maxsize=None)(RootSystem)


def coxeter_element(rs):
    """The Coxeter element s_1 s_2 ... s_r acting on fundamental-weight
    coordinates (applied right to left), as an integer matrix: multiplying
    w by s_i = I - alpha_i e_i^T on the right takes w alpha_i off column i."""
    w = [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    for i, alpha in enumerate(rs.simple_roots):
        for row in w:
            row[i] -= sum(map(mul, row, alpha))
    return w


def _mobius(n):
    """The Moebius function mu(n), by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def coxeter_primitive_projector(w, h):
    """Projector onto the primitive h-th root-of-unity eigenspaces of w, an
    integer matrix (Fractions of denominator 1 pass) with w^h = I.

    P = (1/h) sum_{k<h} c_h(k) w^k, where Ramanujan's sum c_h(k) = sum over
    d | gcd(k, h) of d mu(h/d) is the sum of zeta^k over the primitive h-th
    roots of unity zeta.  As a polynomial in w, P commutes with w and is
    killed by Phi_h(w); the checks are w^h = I, P != 0 and P P = P, on hP.
    """
    n = len(w)
    one = [[int(i == j) for j in range(n)] for i in range(n)]
    w_cols = [[int(x) for x in col] for col in zip(*w)]
    power, hp = one, [[0] * n for _ in range(n)]
    for k in range(h):
        g = gcd(k, h)
        c = sum(d * _mobius(h // d) for d in range(1, g + 1) if g % d == 0)
        hp = [[x + c * y for x, y in zip(row, prow)]
              for row, prow in zip(hp, power)]
        power = _int_mul(power, w_cols)
    if power != one or any(x != int(x) for row in w for x in row):
        raise ConsistencyError("Coxeter projector: w is not an integer "
                               "matrix with w^h = I, h = %d" % h)
    if not any(map(any, hp)):
        raise ConsistencyError("Coxeter projector: the Coxeter element has no "
                               "primitive h-th root of unity as eigenvalue, "
                               "h = %d" % h)
    if _int_mul(hp, list(zip(*hp))) != [[h * x for x in row] for row in hp]:
        raise ConsistencyError("Coxeter projector: the projector is not "
                               "idempotent, h = %d" % h)
    return [[Fraction(x, h) for x in row] for row in hp]


def primitive_rank(rs):
    """Number of exponents coprime to the Coxeter number."""
    h = rs.coxeter_number
    return sum(1 for m in rs.exponents if gcd(m, h) == 1)
