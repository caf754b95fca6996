"""Rational-function towers: the test-side coefficient field of the oracles.

``chiralis`` computes over Q(i) only: its ``Poly``/``RatFunc`` coerce every
coefficient to ``GaussRational``.  The oracles that replay a computation at
a symbolic point (a moving point t, the second variable of a bivariate
kernel) need rational functions whose coefficients are rational functions
again.  This module is that field, kept apart from ``chiralis``'s scalar
layer so the expected side of those tests does not share it:

* ``Poly`` / ``RatFunc`` -- polynomials and reduced rational functions over
  any field obeying the informal scalar protocol (arithmetic among
  themselves and with ints, truthiness as a zero test, ``sort_key``).
  ``RatFunc`` obeys it too, so ``RatFunc.variable(RatFunc.const(QI_ONE))``
  is the variable of Q(i)(w)(x); a shallower rational function acts as a
  constant of a deeper one.
* ``local_expansion``, ``pole_order``, ``pole_part_coeffs``, ``residue_at``
  and ``partial_fractions_known`` -- the coefficient-list Horner passes of
  ``chiralis.exactnum`` over such a field.
* ``lift`` / ``lower`` -- the conversions from and to ``chiralis``'s
  rational functions over Q(i).

No public ``chiralis`` function is called with a tower value: the current
fields at a symbolic point are the recursions of ``current_oracle``, whose
straightening (``current_oracle._left_multiply``, which scales the unit
``pbw_normalize`` states itself) and ``CurrentState`` terms take the tower
scalars as they come.  Arithmetic mixing a
``chiralis.exactnum.RatFunc`` with a ``RatFunc`` raises TypeError.
"""

from __future__ import annotations

from typing import Iterable

from chiralis import exactnum
from chiralis.exactnum import RATIONAL, GaussRational, Point, UnsupportedDenominatorError, is_rational_scalar

__all__ = [
    "Poly",
    "RatFunc",
    "PartialFractions",
    "lift",
    "lower",
    "pole_order",
    "local_expansion",
    "pole_part_coeffs",
    "residue_at",
    "partial_fractions_known",
]


# ---------------------------------------------------------------------------
# Polynomials over a scalar field
# ---------------------------------------------------------------------------


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    coeffs = coeffs[:n]
    # promote plain int/Fraction entries to the coefficient field so that
    # equal polynomials always hash equal and division stays exact
    one = None
    for c in coeffs:
        if hasattr(c, "sort_key"):
            one = c * 0 + 1
            break
    if one is not None:
        coeffs = [c if hasattr(c, "sort_key") else one * c for c in coeffs]
    else:
        coeffs = [RATIONAL(c) if isinstance(c, int) else c for c in coeffs]
    return tuple(coeffs)


def _key_of(scalar):
    sk = getattr(scalar, "sort_key", None)
    if sk is not None:
        return sk()
    return ("int", scalar)


def _one_like(p: "Poly"):
    for c in p.coeffs:
        return c * 0 + 1
    return 1


class Poly:
    """Dense univariate polynomial, coefficients low-to-high degree."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _trim(list(coeffs)))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly is immutable")

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
            return Poly([c * other for c in self.coeffs]) if other else Poly()
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    def __pow__(self, n: int):
        out, base = Poly([_one_like(self)]), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly"):
        """Exact field division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [0] * (dq + 1)
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
        return a if a.is_zero() else a.monic()

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
        return ("poly", len(self.coeffs), tuple(_key_of(c) for c in self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function num/den; den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly | None = None, *, _reduced=False):
        if den is None:
            den = Poly([_one_like(num)]) if num.coeffs else Poly([1])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = Poly([_one_like(den)])
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

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly([c]))

    @staticmethod
    def variable(one=1) -> "RatFunc":
        """The coordinate function over the field of ``one``."""
        return RatFunc(Poly([0 * one, one]))

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if self.num.is_zero():
            return _one_like(self.den) * 0
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __eq__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def _level(self) -> int:
        """Nesting depth: 0 over Q(i), 1 over Q(i)(w), and so on."""
        c = self.den.coeffs[0]
        lvl = 0
        while isinstance(c, RatFunc):
            lvl += 1
            c = c.den.coeffs[0]
        return lvl

    def _align(self, other):
        """Bring self and other to a common nesting level, or NotImplemented.

        A shallower rational function acts as a scalar constant of the
        deeper field.
        """
        if isinstance(other, RatFunc):
            sl, ol = self._level(), other._level()
            a, b = self, other
            while ol < sl:
                b = RatFunc(Poly([b]))
                ol += 1
            while sl < ol:
                a = RatFunc(Poly([a]))
                sl += 1
            return a, b
        if isinstance(other, GaussRational) or is_rational_scalar(other):
            return self, RatFunc(Poly([_one_like(self.den) * other]))
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)

    def __rsub__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return b - a

    def __mul__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return RatFunc(a.num * b.num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        if b.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(a.num * b.den, a.den * b.num)

    def __rtruediv__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return b / a

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** (-n)
        out, base = RatFunc.const(_one_like(self.den)), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def sort_key(self):
        return ("rf", self.num.sort_key(), self.den.sort_key())

    def __repr__(self):
        return f"RatFunc({list(self.num.coeffs)} / {list(self.den.coeffs)})"


def lift(f: exactnum.RatFunc) -> RatFunc:
    """A ``chiralis`` rational function over Q(i) as a tower rational function."""
    return RatFunc(Poly(f.num.coeffs), Poly(f.den.coeffs))


def lower(f: RatFunc) -> exactnum.RatFunc:
    """A tower rational function over Q(i) as a ``chiralis`` one; TypeError
    when a coefficient is itself a rational function."""
    return exactnum.RatFunc(exactnum.Poly(f.num.coeffs), exactnum.Poly(f.den.coeffs))


# ---------------------------------------------------------------------------
# Local expansions: the Horner passes of chiralis.exactnum over any field
# ---------------------------------------------------------------------------


def _taylor_shift(coeffs, c, count: int) -> list:
    """The first ``count`` coefficients (low to high) of p(u + c)."""
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


def _series_inverse_mul(num: list, den: list, terms: int) -> list:
    """Coefficients of (num/den) as a power series; den[0] must be a unit."""
    lead = den[0]
    out = []
    for k in range(terms):
        acc = num[k] if k < len(num) else lead * 0
        for j in range(1, min(k, len(den) - 1) + 1):
            if den[j] and out[k - j]:
                acc = acc - den[j] * out[k - j]
        out.append(acc / lead)
    return out


def _laurent(num, den, c, order: int):
    m, den = _shifted_den(den, c)
    terms = max(order + m + 1, 0)
    return m, _series_inverse_mul(_taylor_shift(num, c, terms), den, terms)


def pole_order(f: RatFunc, c) -> int:
    """Multiplicity of u = c as a root of the denominator."""
    return _shifted_den(f.den.coeffs, c)[0]


def local_expansion(f: RatFunc, c, order: int):
    """(pole order m, coeffs): coeffs[j] is the coefficient of (u-c)^(j-m)
    in the Laurent expansion of f at u = c, j = 0 .. order+m."""
    if f.is_zero():
        return 0, []
    return _laurent(f.num.coeffs, f.den.coeffs, c, order)


def pole_part_coeffs(f: RatFunc, c) -> dict:
    """{order l: coefficient of (u-c)^(-l)} of the pole part of f at c."""
    m, coeffs = local_expansion(f, c, -1)
    return {m - j: x for j, x in enumerate(coeffs) if x}


def residue_at(f: RatFunc, z):
    """Residue of f(u) du at z: a Point (infinity allowed) or a scalar of f's
    coefficient field."""
    zero = _one_like(f.den) * 0
    if f.is_zero():
        return zero
    if isinstance(z, Point) and z.is_infinity:
        # u = 1/t, du = -dt/t^2: minus the t^1 coefficient of f(1/t)
        size = max(len(f.num.coeffs), len(f.den.coeffs))
        num, den = ([0] * (size - len(p.coeffs)) + [*p.coeffs[::-1]] for p in (f.num, f.den))
        m, coeffs = _laurent(num, den, 0, 1)
        return -coeffs[m + 1]
    m, coeffs = _laurent(f.num.coeffs, f.den.coeffs, z.value if isinstance(z, Point) else z, -1)
    return coeffs[m - 1] if m else zero


class PartialFractions:
    """Polynomial part plus pole terms (pole c, order l, coefficient)."""

    __slots__ = ("polynomial", "terms")

    def __init__(self, polynomial: Poly, terms):
        self.polynomial = polynomial
        self.terms = tuple(terms)


def partial_fractions_known(f: RatFunc, poles) -> PartialFractions:
    """Partial fractions given the (super)set of finite poles, each pole part
    read from the Laurent expansion of f at its point."""
    terms, found = [], 0
    for c in dict.fromkeys(poles):
        m, coeffs = local_expansion(f, c, -1)
        found += m
        terms += [(c, m - j, x) for j, x in enumerate(coeffs) if x]
    if found != f.den.degree:
        raise UnsupportedDenominatorError("denominator has poles outside the supplied set")
    return PartialFractions(f.num // f.den if f.den.degree else f.num, terms)
