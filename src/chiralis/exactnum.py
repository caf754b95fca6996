"""Exact scalar and univariate rational-function arithmetic over Q(i).

* ``GaussRational`` -- numbers a + b*i with a, b arbitrary-precision
  rationals: the one coefficient field of the package.
* ``Poly`` / ``RatFunc`` -- polynomials and reduced rational functions in
  one variable with ``GaussRational`` coefficients.  Ints and rationals
  are coerced on the way in; anything else (a rational function, a jet)
  raises ``TypeError``, so rational functions never nest.

Canonical forms everywhere: fractions in lowest terms, polynomial
fractions gcd-reduced with monic denominator, so equality is plain
representation equality.

Local expansions, residues and partial fractions build no rational
function: numerator and denominator coefficient lists are Taylor-shifted
to the point by Horner passes, and each pole part is read from the
Laurent expansion of the function itself.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable

try:  # exact big-rational backend; stdlib fallback keeps behaviour identical
    from gmpy2 import mpq as RATIONAL
except ImportError:  # pragma: no cover
    RATIONAL = Fraction

__all__ = [
    "ExactnumError",
    "UnsupportedDenominatorError",
    "GaussRational",
    "is_rational_scalar",
    "QI_ZERO",
    "QI_ONE",
    "QI_I",
    "qi",
    "Point",
    "INFINITY",
    "Poly",
    "RatFunc",
    "PartialFractions",
    "partial_fractions",
    "partial_fractions_known",
    "residue_at",
    "residue_pairing",
    "sqrt_gauss_rational",
]


class ExactnumError(ArithmeticError):
    """Base class for exact-arithmetic failures."""


class UnsupportedDenominatorError(ExactnumError):
    """A denominator did not split into linear factors over Q(i)."""


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


_RATIONAL_TYPES = (int, Fraction, type(RATIONAL(0)))


def is_rational_scalar(x) -> bool:
    """True for an int or an exact rational (``Fraction`` or the backend's)."""
    return isinstance(x, _RATIONAL_TYPES)


class GaussRational:
    """a + b*i with exact rational a, b; immutable and hashable.

    Stored as three ints: the value is (a + b*i)/d with ``d > 0`` and
    ``gcd(a, b, d) == 1``, so equal values have equal triples and every
    operation costs a few integer products and one gcd.  ``re`` and ``im``
    are read back as rationals of the ``RATIONAL`` backend.  A value's hash
    and sort key are computed once, from the ints, and stored with it.
    """

    __slots__ = ("a", "b", "d", "_hash", "_key")

    def __init__(self, re=0, im=0, *, _den=0):
        # _den > 0 marks (re, im, _den) as an already reduced integer triple
        if not _den:
            if type(re) is int and type(im) is int:
                _den = 1
            else:
                re, im = RATIONAL(re), RATIONAL(im)
                q, s = re.denominator, im.denominator
                _den = q * s // math.gcd(q, s)
                re, im = re.numerator * (_den // q), im.numerator * (_den // s)
        _SET_A(self, re)
        _SET_B(self, im)
        _SET_D(self, _den)

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("GaussRational is immutable")

    @property
    def re(self):
        return RATIONAL(self.a, self.d)

    @property
    def im(self):
        return RATIONAL(self.b, self.d)

    # -- coercion helpers ---------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussRational":
        out = _as_gauss(value)
        if out is NotImplemented:
            raise TypeError(f"cannot coerce {value!r} to GaussRational")
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        d, d2 = self.d, other.d
        if d == d2:
            return _from_triple(self.a + other.a, self.b + other.b, d)
        return _from_triple(self.a * d2 + other.a * d, self.b * d2 + other.b * d, d * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        d, d2 = self.d, other.d
        if d == d2:
            return _from_triple(self.a - other.a, self.b - other.b, d)
        return _from_triple(self.a * d2 - other.a * d, self.b * d2 - other.b * d, d * d2)

    def __rsub__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, a2, b2 = self.a, self.b, other.a, other.b
        return _from_triple(a * a2 - b * b2, a * b2 + b * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + bi)/d / ((a2 + b2 i)/d2) = (a + bi)(a2 - b2 i) d2 / (d (a2^2 + b2^2))
        a, b, a2, b2, d2 = self.a, self.b, other.a, other.b, other.d
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero GaussRational")
        return _from_triple((a * a2 + b * b2) * d2, (b * a2 - a * b2) * d2, self.d * n)

    def __rtruediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussRational(-self.a, -self.b, _den=self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** -n
        return repeated_squaring(self, n) if n else GaussRational(1)

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.a, -self.b, _den=self.d)

    def inverse(self) -> "GaussRational":
        # d / (a + bi) = d (a - bi) / (a^2 + b^2)
        n = self.a * self.a + self.b * self.b
        if not n:
            raise ZeroDivisionError("division by zero GaussRational")
        return _from_triple(self.a * self.d, -self.b * self.d, n)

    def norm(self):
        """|z|^2 as an exact rational."""
        return RATIONAL(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # hash(re) when real, else hash((re, im)), as ints and rationals hash,
        # so mixed-coefficient polynomials hash compatibly with equality
        try:
            return self._hash
        except AttributeError:
            a, b, d = self.a, self.b, self.d
            h = hash((_rational_hash(a, d), _rational_hash(b, d))) if b else _rational_hash(a, d)
            _SET_HASH(self, h)
            return h

    def sort_key(self):
        # ints order, compare and hash as the equal rationals do
        try:
            return self._key
        except AttributeError:
            key = ("q", self.a, self.b) if self.d == 1 else ("q", self.re, self.im)
            _SET_KEY(self, key)
            return key

    def is_rational(self) -> bool:
        return not self.b

    # -- text format --------------------------------------------------------

    def __str__(self):
        if not self.b:
            return str(self.re)
        sign = "+" if self.b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def __repr__(self):
        return f"GaussRational('{self}')"

    @staticmethod
    def parse(text: str) -> "GaussRational":
        """Parse the "a/b" / "a/b+c/d*i" text format."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar string")
        if not s.endswith("*i") and not s.endswith("i"):
            return GaussRational(_parse_rat(s))
        if s.endswith("*i"):
            body = s[:-2]
        else:
            body = s[:-1]
            if body in ("", "+", "-"):
                return GaussRational(0, _parse_rat(body + "1"))
        # split real and imaginary on the last +/- that is not part of a
        # fraction's own sign (scan from the right, skipping position 0)
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/*":
                re_part, im_part = body[:k], body[k:]
                im = _parse_rat(im_part) if im_part not in ("+", "-") else _parse_rat(im_part + "1")
                return GaussRational(_parse_rat(re_part), im)
        return GaussRational(0, _parse_rat(body))


def _parse_rat(text: str):
    return RATIONAL(Fraction(text))


_SET_A, _SET_B, _SET_D, _SET_HASH, _SET_KEY = (getattr(GaussRational, n).__set__
                                               for n in GaussRational.__slots__)
_HASH_P, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, by the same modular formula, without the Fraction."""
    if d == 1:
        return hash(n)
    g = math.gcd(n, d)
    n, d = n // g, d // g
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_P))
    except ValueError:  # d is a multiple of the modulus: no inverse
        h = _HASH_INF
    return hash(h if n >= 0 else -h)  # 0 <= h < P, and hash(-1) == -2 as for a Fraction


def _from_triple(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d for ints a, b and d > 0, reduced by one gcd."""
    g = math.gcd(a, b, d)
    return GaussRational(a // g, b // g, _den=d // g)


def repeated_squaring(x, n: int):
    """x ** n for n >= 1, the one power routine of the scalar types: the first
    factor starts the product, and no squaring follows the last bit."""
    out, base = None, x
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _as_gauss(value):
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, _RATIONAL_TYPES):
        return GaussRational(value)
    return NotImplemented


QI_ZERO = GaussRational(0)
QI_ONE = GaussRational(1)
QI_I = GaussRational(0, 1)


def qi(re=0, im=0) -> GaussRational:
    """Shorthand constructor."""
    return GaussRational(re, im)


def sqrt_gauss_rational(s: GaussRational):
    """Exact square root in Q(i), or None when no such root exists."""
    s = GaussRational.coerce(s)
    if not s:
        return QI_ZERO
    n = s.norm()
    r = _fraction_sqrt(n)
    if r is None:
        return None
    half = RATIONAL(1, 2)
    a2 = (s.re + r) * half
    if a2 >= 0:
        a = _fraction_sqrt(a2)
        if a is not None and a != 0:
            b = s.im / (2 * a)
            cand = GaussRational(a, b)
            if cand * cand == s:
                return cand
    if not s.b and s.a < 0:
        b = _fraction_sqrt(-s.re)
        if b is not None:
            return GaussRational(0, b)
    return None


def _fraction_sqrt(x):
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return RATIONAL(pn, pd)
    return None


# ---------------------------------------------------------------------------
# Points on the projective line
# ---------------------------------------------------------------------------


class Point:
    """A point of the line: a finite coordinate value or the point at infinity."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        if value is not None and not isinstance(value, GaussRational):
            value = GaussRational.coerce(value)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Point is immutable")

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("point", self.value))

    def __str__(self):
        return "inf" if self.is_infinity else str(self.value)

    def __repr__(self):
        return f"Point({self})"


INFINITY = Point()


def as_point(z) -> Point:
    return z if isinstance(z, Point) else Point(z)


# ---------------------------------------------------------------------------
# Polynomials over Q(i)
# ---------------------------------------------------------------------------


def _trim(coeffs: list) -> tuple:
    """The coefficients as GaussRationals, trailing zeros dropped, so equal
    polynomials are equal tuples; a non-scalar entry raises TypeError."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(c if type(c) is GaussRational else GaussRational.coerce(c) for c in coeffs[:n])


class Poly:
    """Dense univariate polynomial, coefficients low-to-high degree."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # degree of the zero polynomial is -1 by convention
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.coeffs)
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __sub__(self, other):
        out = list(self.coeffs)
        for k, c in enumerate(other.coeffs):
            if k < len(out):
                out[k] = out[k] - c
            else:
                out.append(-c)
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [QI_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def scale(self, s):
        if not s:
            return Poly()
        return Poly([c * s for c in self.coeffs])

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return repeated_squaring(self, n) if n else _POLY_ONE

    def divmod(self, other: "Poly"):
        """Exact field division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [QI_ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if not top:
                continue
            q = top / lead
            quot[k] = q
            for j, c in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - q * c
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            r = a % b
            if not r.is_zero():
                r = r.monic()  # keeps coefficient growth in check
            a, b = b, r
        if a.is_zero():
            return a
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        out = None
        for c in reversed(self.coeffs):
            out = c if out is None else out * x + c
        if out is None:
            return x * 0  # zero of the right field
        return out

    def sort_key(self):
        return ("poly", len(self.coeffs), tuple(c.sort_key() for c in self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


_POLY_ONE = Poly([QI_ONE])


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function num/den; den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly | None = None, *, _reduced=False):
        if den is None:
            den = _POLY_ONE
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = _POLY_ONE
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num // g
                    den = den // g
                lead = den.leading()
                den = den.monic()
                num = Poly([c / lead for c in num.coeffs])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly([c]))

    @staticmethod
    def variable(one=QI_ONE) -> "RatFunc":
        """The coordinate function u, scaled by the scalar ``one``."""
        return RatFunc(Poly([QI_ZERO, one]))

    # -- field protocol --------------------------------------------------------

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        b = _lift(other)
        if b is NotImplemented:
            return NotImplemented
        return self.num == b.num and self.den == b.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        a, b = self, _lift(other)
        if b is NotImplemented:
            return NotImplemented
        return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _lift(other)
        if b is NotImplemented:
            return NotImplemented
        return RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)

    def __rsub__(self, other):
        b = _lift(other)
        if b is NotImplemented:
            return NotImplemented
        return b - self

    def __mul__(self, other):
        a, b = self, _lift(other)
        if b is NotImplemented:
            return NotImplemented
        return RatFunc(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _lift(other)
        if b is NotImplemented:
            return NotImplemented
        if b.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(a.num * b.den, a.den * b.num)

    def __rtruediv__(self, other):
        b = _lift(other)
        if b is NotImplemented:
            return NotImplemented
        return b / self

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** (-n)
        return repeated_squaring(self, n) if n else RatFunc(_POLY_ONE, _POLY_ONE, _reduced=True)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def conjugate(self) -> "RatFunc":
        return RatFunc(
            Poly([c.conjugate() for c in self.num.coeffs]),
            Poly([c.conjugate() for c in self.den.coeffs]),
        )

    def compose_mobius(self, a, b, c, d) -> "RatFunc":
        """Substitute u -> (a*u + b)/(c*u + d)."""
        if not (a * d - b * c):
            raise ExactnumError("singular Mobius substitution")
        top = Poly([b, a])
        bot = Poly([d, c])
        deg = max(self.num.degree, self.den.degree, 0)

        def clear(p: Poly) -> Poly:
            out = Poly()
            for k, coeff in enumerate(p.coeffs):
                out = out + (top ** k * bot ** (deg - k)).scale(coeff)
            return out

        return RatFunc(clear(self.num), clear(self.den))

    def sort_key(self):
        return ("rf", self.num.sort_key(), self.den.sort_key())

    def __str__(self):
        def poly_str(p: Poly) -> str:
            if p.is_zero():
                return "0"
            parts = []
            for k, c in enumerate(p.coeffs):
                if not c:
                    continue
                if k == 0:
                    parts.append(f"{c}")
                elif k == 1:
                    parts.append(f"({c})*u")
                else:
                    parts.append(f"({c})*u^{k}")
            return " + ".join(parts)

        if self.den.degree == 0 and self.den.coeffs and self.den.coeffs[0] == 1:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


def _lift(other):
    """other as a RatFunc: a rational function, or a Q(i) scalar as a
    constant; NotImplemented for anything else."""
    if isinstance(other, RatFunc):
        return other
    other = _as_gauss(other)
    return other if other is NotImplemented else RatFunc(Poly([other]))


# ---------------------------------------------------------------------------
# Local expansion machinery
# ---------------------------------------------------------------------------


def _taylor_shift(coeffs, c, count: int) -> list:
    """The first ``count`` coefficients (low to high) of p(u + c): in-place
    Horner passes on p's coefficients, pass i fixing the one of u^i."""
    a = list(coeffs)
    n = len(a) - 1
    for i in range(min(count, n) if c else 0):
        for j in range(n - 1, i - 1, -1):
            if a[j + 1]:
                a[j] = a[j] + c * a[j + 1]
    return a[:count]


def _shifted_den(den, c):
    """(m, rest): den shifted to c, its m leading zeros (the pole order) dropped."""
    d = _taylor_shift(den, c, len(den))
    m = next(k for k, x in enumerate(d) if x)
    return m, d[m:]


def _chart(f: RatFunc, z):
    """(num, den, c): f's coefficient lists and centre near the point z; at
    infinity those of f(1/t) near t = 0."""
    if isinstance(z, Point):
        if z.is_infinity:
            size = max(len(f.num.coeffs), len(f.den.coeffs))
            num, den = ([QI_ZERO] * (size - len(p.coeffs)) + [*p.coeffs[::-1]] for p in (f.num, f.den))
            return num, den, 0
        z = z.value
    return f.num.coeffs, f.den.coeffs, z


def _series_inverse_mul(num: list, den: list, terms: int) -> list:
    """Coefficients of (num/den) as a power series; den[0] must be a unit."""
    lead = den[0]
    out = []
    for k in range(terms):
        acc = num[k] if k < len(num) else QI_ZERO
        for j in range(1, min(k, len(den) - 1) + 1):
            if den[j] and out[k - j]:
                acc = acc - den[j] * out[k - j]
        out.append(acc / lead)
    return out


def _laurent(num, den, c, order: int):
    m, den = _shifted_den(den, c)
    terms = max(order + m + 1, 0)
    return m, _series_inverse_mul(_taylor_shift(num, c, terms), den, terms)


def local_expansion(f: RatFunc, c, order: int):
    """Laurent coefficients of f at u = c, from the pole order up to ``order``.

    Returns (pole order m, coeffs) with coeffs[j] the coefficient of
    (u-c)^(j-m), j = 0 .. order+m.
    """
    if f.is_zero():
        return 0, []
    return _laurent(f.num.coeffs, f.den.coeffs, c, order)


def residue_at(f: RatFunc, z) -> GaussRational:
    """Residue of the one-form f(u) du at the point z (infinity allowed).

    ``z`` may be a Point or an int/Fraction/GaussRational.  At infinity
    u = 1/t, du = -dt/t^2: minus the t^1 coefficient of f(1/t).
    """
    if f.is_zero():
        return QI_ZERO
    at_infinity = isinstance(z, Point) and z.is_infinity
    m, coeffs = _laurent(*_chart(f, z), 1 if at_infinity else -1)
    if at_infinity:
        return -coeffs[m + 1]
    return coeffs[m - 1] if m else QI_ZERO


def residue_pairing(phi: RatFunc, psi: RatFunc, z):
    """Res_z(phi dpsi), z as in ``residue_at``: sum_k k psi_k phi_(-k) over
    the Laurent coefficients at z, at infinity those of phi(1/t) and
    psi(1/t) at t = 0 (a residue does not depend on the coordinate)."""
    total = QI_ZERO
    if phi.is_zero() or psi.is_zero():
        return total
    (pnum, pden, c), (qnum, qden, _) = _chart(phi, z), _chart(psi, z)
    (mp, pden), (mq, qden) = _shifted_den(pden, c), _shifted_den(qden, c)
    terms = mp + mq + 1
    a = _series_inverse_mul(_taylor_shift(pnum, c, terms), pden, terms)  # a[j] = phi_(j - mp)
    b = _series_inverse_mul(_taylor_shift(qnum, c, terms), qden, terms)  # b[j] = psi_(j - mq)
    for k in range(-mq, mp + 1):
        if k and b[k + mq] and a[mp - k]:
            total = total + k * b[k + mq] * a[mp - k]
    return total


# ---------------------------------------------------------------------------
# Partial fractions
# ---------------------------------------------------------------------------


class PartialFractions:
    """Polynomial part plus pole terms (pole c, order l, coefficient)."""

    __slots__ = ("polynomial", "terms")

    def __init__(self, polynomial: Poly, terms):
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PartialFractions is immutable")

    def __repr__(self):
        return f"PartialFractions(poly={self.polynomial!r}, terms={self.terms!r})"


def partial_fractions_known(f: RatFunc, poles) -> PartialFractions:
    """Partial fractions given the (super)set of finite poles; no factoring.

    The pole part at each distinct listed point, highest order first, is
    read from the Laurent expansion of f.  Raises
    UnsupportedDenominatorError when the pole orders found do not exhaust
    the denominator.
    """
    terms, found = [], 0
    for c in dict.fromkeys(poles):
        m, coeffs = local_expansion(f, c, -1)
        found += m
        terms += [(c, m - j, x) for j, x in enumerate(coeffs) if x]
    if found != f.den.degree:
        raise UnsupportedDenominatorError("denominator has poles outside the supplied set")
    # a canonical denominator is monic: of degree 0 it is 1
    return PartialFractions(f.num // f.den if f.den.degree else f.num, terms)


def partial_fractions(f: RatFunc) -> PartialFractions:
    """Full decomposition over Q(i); denominator must split into linear factors."""
    roots = gauss_rational_roots(f.den)
    return partial_fractions_known(f, roots)


# ---------------------------------------------------------------------------
# Root finding over Q(i)
# ---------------------------------------------------------------------------

_CANDIDATE_NORM_LIMIT = 10**10


def gauss_rational_roots(p: Poly) -> list:
    """Distinct roots of a Q(i)-split polynomial (multiplicities implied).

    Raises UnsupportedDenominatorError when the polynomial has a factor
    with no root in Q(i).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    work = p
    roots = []
    while work.degree >= 1:
        root = _find_one_root(work)
        if root is None:
            raise UnsupportedDenominatorError(
                "denominator factor has no root in Q(i)"
            )
        if root not in roots:
            roots.append(root)
        lin = Poly([-root, QI_ONE])
        while work.degree >= 1:
            q, r = work.divmod(lin)
            if not r.is_zero():
                break
            work = q
    return roots


def _find_one_root(p: Poly):
    """One root of p in Q(i), or None.  Where the candidate search gives up,
    it searches the square-free part p / gcd(p, p') instead: the same roots,
    with smaller coefficients."""
    try:
        root, failure = _search_one_root(p), None
    except UnsupportedDenominatorError as exc:
        root, failure = None, exc
    reduced = p.divmod(p.gcd(p.derivative()))[0] if root is None else p
    if reduced.degree < p.degree:
        return _find_one_root(reduced)
    if failure is not None:
        raise failure
    return root


def _search_one_root(p: Poly):
    coeffs = list(p.coeffs)
    # strip u | p
    if not coeffs[0]:
        return QI_ZERO
    if p.degree == 1:
        return -coeffs[0] / coeffs[1]
    if p.degree == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        root = sqrt_gauss_rational(disc)
        if root is None:
            return None
        return (-b + root) / (2 * a)
    # clear denominators -> Z[i] coefficients
    scale = math.lcm(*(co.d for co in coeffs))
    zi = [(co.a * (scale // co.d), co.b * (scale // co.d)) for co in coeffs]
    lead = zi[-1]
    const = zi[0]
    n_const = const[0] * const[0] + const[1] * const[1]
    n_lead = lead[0] * lead[0] + lead[1] * lead[1]
    if n_const > _CANDIDATE_NORM_LIMIT or n_lead > _CANDIDATE_NORM_LIMIT:
        raise UnsupportedDenominatorError(
            "coefficient size beyond the supported input class"
        )
    tops = _gaussian_integers_of_dividing_norm(n_const)
    bottoms = _gaussian_integers_of_dividing_norm(n_lead)
    seen = set()
    for beta in bottoms:
        bn = beta.norm()
        if not bn:
            continue
        for alpha in tops:
            cand = alpha / beta
            if cand in seen:
                continue
            seen.add(cand)
            if not p.evaluate(cand):
                return cand
    return None


def _gaussian_integers_of_dividing_norm(n: int) -> list:
    """All Gaussian integers whose norm divides n (n > 0), with units."""
    divisors = set()
    k = 1
    while k * k <= n:
        if n % k == 0:
            divisors.add(k)
            divisors.add(n // k)
        k += 1
    out = []
    for d in sorted(divisors):
        x = 0
        while x * x <= d:
            y2 = d - x * x
            y = math.isqrt(y2)
            if y * y == y2:
                for sx in (x, -x):
                    for sy in (y, -y):
                        out.append(GaussRational(sx, sy))
                        out.append(GaussRational(sy, sx))
            x += 1
    return list(dict.fromkeys(out))
