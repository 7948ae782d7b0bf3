"""Polynomials as ascending coefficient lists, and rational functions.

A polynomial is a list [c0, c1, ...] meaning c0 + c1 x + ...; the zero
polynomial is the empty list.  The arithmetic keeps int coefficients
int, and every reduction (pzdivmod, _zgcd) runs over Z[t] on lists
cleared of denominators.  Fractions appear in the value of a RatFun, a
reduced fraction of two such lists with a monic denominator used for the
variable t, in pgcd's monic result and in rendering.
"""

from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import ValidationError
from .linalg import _cleared, _primitive


def ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return ptrim(out)


def pneg(p):
    return [-c for c in p]


def psub(p, q):
    return padd(p, pneg(q))


def pscale(p, c):
    return [c * x for x in p] if c else []


def pmul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def pderiv(p):
    return ptrim([i * c for i, c in enumerate(p)][1:])


def pzdivmod(p, q):
    """(quot, rem) with p = quot q + rem in Z[t], for int polynomials: long
    division that stops at the first coefficient the lead of q does not
    divide, so rem is [] exactly when q divides p in Z[t]."""
    if not q:
        raise ValidationError("division by the zero polynomial")
    p, lead, nq = list(p), q[-1], len(q)
    quot = [0] * max(len(p) - nq + 1, 0)
    for i in range(len(p) - nq, -1, -1):
        f, r = divmod(p[i + nq - 1], lead)
        if r:
            break
        if f:
            quot[i] = f
            for j, c in enumerate(q):
                p[i + j] -= f * c
    return ptrim(quot), ptrim(p)


def _zgcd(a, b):
    """Primitive gcd of int polynomials by the primitive remainder sequence:
    each pseudo-remainder is cut to its primitive part, so the coefficients
    stay near the size of the gcd's instead of growing as over Q."""
    a, b = _primitive(ptrim(list(a))), _primitive(ptrim(list(b)))
    if len(a) < len(b):
        a, b = b, a
    while b:
        lead, nb = b[-1], len(b)
        for i in range(len(a) - nb, -1, -1):
            f = a.pop()
            if f:
                g = gcd(lead, f)
                u, v = lead // g, f // g
                a = [u * x for x in a]
                for j in range(nb - 1):
                    a[i + j] -= v * b[j]
        a, b = b, _primitive(ptrim(a))
    return a


def pgcd(p, q):
    """Monic gcd: _zgcd of the inputs over one denominator."""
    a = _zgcd(*_cleared([p, q])[0])
    return [Fraction(x, a[-1]) for x in a]


class RatFun:
    """A rational function num/den over Q, den monic, gcd-reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFun):
            if den is not None:
                raise ValidationError("a RatFun numerator takes no denominator")
            self.num, self.den = num.num, num.den
            return
        if den is None:
            den = 1
        num, den = (ptrim([Fraction(c) for c in (p if isinstance(p, list)
                                                  else [p])])
                    for p in (num, den))
        if not den:
            raise ValidationError("zero denominator")
        # over one denominator, both exact quotients by a primitive gcd (Gauss)
        (num, den), _ = _cleared([num, den])
        g = _zgcd(num, den)
        num, den = pzdivmod(num, g)[0], pzdivmod(den, g)[0]
        self.num = [Fraction(c, den[-1]) for c in num]
        self.den = [Fraction(c, den[-1]) for c in den]

    @classmethod
    def _lowest(cls, num, den):
        """num/den for coprime num and monic den: no gcd is taken."""
        self = cls.__new__(cls)
        self.num, self.den = num, den
        return self

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return self.den == [Fraction(1)]

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = other if isinstance(other, RatFun) else RatFun(other)
        return RatFun(padd(pmul(self.num, other.den), pmul(other.num, self.den)),
                      pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFun(pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-(other if isinstance(other, RatFun) else RatFun(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = other if isinstance(other, RatFun) else RatFun(other)
        return RatFun(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, RatFun) else RatFun(other)
        if not other.num:
            raise ValidationError("division by zero rational function")
        return RatFun(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return RatFun(other) / self

    def __eq__(self, other):
        other = other if isinstance(other, RatFun) else RatFun(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.num), tuple(self.den)))

    def theta(self):
        """t d/dt of this function."""
        n, d = self.num, self.den
        deriv = psub(pmul(pderiv(n), d), pmul(n, pderiv(d)))
        return RatFun(pmul([Fraction(0), Fraction(1)], deriv), pmul(d, d))

    def __repr__(self):
        return "RatFun(%r, %r)" % (self.num, self.den)

    def render(self):
        if self.den == [Fraction(1)] or not self.num:
            return render_poly(self.num)
        return "(%s)/(%s)" % (render_poly(self.num), render_poly(self.den))


def render_terms(terms, var="t", head=None):
    """The sum of (exponent, coefficient text) terms in var, or "0".

    Exponents may be negative.  A coefficient 1 or -1 drops before a power
    of var and one that is itself a sum is parenthesised; head, when
    given, is a first term already rendered.
    """
    parts = [] if head is None else [head]
    for k, text in terms:
        if k == 0:
            parts.append(text)
            continue
        mon = var if k == 1 else "%s^%d" % (var, k)
        if text == "1":
            parts.append(mon)
        elif text == "-1":
            parts.append("-" + mon)
        elif "+" in text or "-" in text[1:]:
            parts.append("(%s)*%s" % (text, mon))
        else:
            parts.append("%s*%s" % (text, mon))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def render_rational(x):
    """str(x) for an int or Fraction; str() refuses ints past 4,300 digits."""
    num, den = Decimal(x.numerator), Decimal(x.denominator)
    return str(num) if den == 1 else "%s/%s" % (num, den)


def render_poly(p):
    return render_terms((i, render_rational(c)) for i, c in enumerate(p) if c)
