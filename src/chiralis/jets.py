"""Truncated Laurent-series scalars with exact coefficients.

A jet represents sum_{k >= val} c_k t^k known exactly for k < prec and
unknown beyond; arithmetic propagates the precision bound, so any
extraction below the bound is exact (a PrecisionError is raised rather
than ever returning a possibly-corrupt coefficient).  A jet has one
level, over Q(i): its coefficients are GaussRationals, never jets or
rational functions, and ``jet_point`` rejects both as its point.

Jets are the engine for expansions around a moving point: every such
expansion (operator products of the boson and of the currents, the
translation parameter of the vertex structures, the Taylor coefficients
of the current pairing) applies a field "at z + t", gets jet-valued
matrix entries and reads the orders off directly, instead of
canonicalizing rational functions of a generic coordinate.
``moved_expansion`` is the shared step that expands the poles sitting at
the moving point.  Laurent data of a rational function at a fixed point
(``exactnum.local_expansion``, ``residue_at``, ``residue_pairing``) stay
on exactnum's coefficient-list Horner shifts and series division, the
faster path there.  A jet takes a plain operand exactly where
``exactnum._as_gauss`` does: a nonzero scalar factor scales the
coefficients, and any other scalar operand acts as its exact jet.
"""

from __future__ import annotations

import itertools

from .exactnum import QI_ONE, QI_ZERO, GaussRational, _as_gauss, is_rational_scalar, repeated_squaring

__all__ = [
    "Jet",
    "JetPrecisionError",
    "jet_point",
    "coerce_scalar_or_jet",
    "moved_expansion",
    "with_jet_retry",
]


class JetPrecisionError(ArithmeticError):
    """An extraction or division needed orders beyond the tracked bound."""


#: precision sentinel for exact scalars (known to all orders)
EXACT = 1 << 60

#: orders kept beyond the deepest one an expansion reads, on the first try
SLACK = 6
#: a retry doubles the precision until it passes this bound
PREC_CEILING = 512


class Jet:
    __slots__ = ("val", "coeffs", "prec", "_hash")

    def __init__(self, val: int, coeffs, prec: int):
        coeffs = [c if type(c) is GaussRational else GaussRational.coerce(c) for c in coeffs]
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            val += 1
        if val >= prec:
            coeffs = []
            val = prec
        else:
            coeffs = coeffs[: prec - val]
        # a trailing zero reads back as QI_ZERO: dropping it keeps equal jets one key
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Jet is immutable")

    # -- coercion ------------------------------------------------------------------

    def _align(self, other):
        if isinstance(other, Jet):
            return self, other
        other = _as_gauss(other)
        # a bare scalar is exact: it never erodes the precision window
        return self, other if other is NotImplemented else Jet(0, [other], EXACT)

    def coefficient(self, k: int):
        """Exact coefficient of t^k; raises if k is beyond the bound."""
        if k >= self.prec:
            raise JetPrecisionError(f"order {k} beyond precision {self.prec}")
        if k < self.val or k - self.val >= len(self.coeffs):
            return QI_ZERO
        return self.coeffs[k - self.val]

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        prec = min(a.prec, b.prec)
        lo = min(a.val, b.val)
        hi = min(prec, max(a.val + len(a.coeffs), b.val + len(b.coeffs)))
        out = []
        for k in range(lo, hi):
            x = a.coeffs[k - a.val] if 0 <= k - a.val < len(a.coeffs) else QI_ZERO
            y = b.coeffs[k - b.val] if 0 <= k - b.val < len(b.coeffs) else QI_ZERO
            out.append(x + y)
        return Jet(lo, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return b + (-a)

    def __mul__(self, other):
        if self.coeffs and (type(other) is GaussRational or is_rational_scalar(other)) and other:
            # a nonzero scalar scales each coefficient, to the bound its exact jet gives
            prec = min(self.val + EXACT, self.prec)
            return Jet(self.val, [c * other if c else QI_ZERO for c in self.coeffs], prec)
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        prec = min(a.val + b.prec, b.val + a.prec)
        if not a.coeffs or not b.coeffs:
            return Jet(prec, [], prec)
        val = a.val + b.val
        width = min(prec - val, len(a.coeffs) + len(b.coeffs) - 1)
        if width <= 0:
            return Jet(prec, [], prec)
        out = [None] * width
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                k = i + j
                if k >= width:
                    break
                prod = x * y
                out[k] = prod if out[k] is None else out[k] + prod
        out = [QI_ZERO if c is None else c for c in out]
        return Jet(val, out, prec)

    __rmul__ = __mul__

    def inverse(self) -> "Jet":
        if not self.coeffs:
            raise JetPrecisionError("cannot invert a series with no known part")
        lead = self.coeffs[0]
        width = self.prec - self.val
        inv = [QI_ZERO] * width
        inv[0] = 1 / lead
        for k in range(1, width):
            acc = QI_ZERO
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc = acc + self.coeffs[j] * inv[k - j]
            inv[k] = -(acc * inv[0])
        return Jet(-self.val, inv, -self.val + width)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            other = _as_gauss(other)
            # an exact scalar's jet would invert to its unbounded precision
            return other if other is NotImplemented else self * (QI_ONE / other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        a, b = self._align(other)
        if b is NotImplemented:
            return NotImplemented
        return b * a.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.coeffs) <= 2:
                return self._affine_power(-n)
            return self.inverse() ** (-n)
        if n == 0:
            return Jet(0, [QI_ONE], self.prec)
        return repeated_squaring(self, n)

    def _affine_power(self, m: int) -> "Jet":
        """(t^v (a + s t))^-m, m >= 1, over scalars a, s with one scalar inversion:
        t^(-mv) sum_k C(m+k-1, k) (-s)^k a^(-m-k) t^k, equal to
        ``self.inverse() ** m`` in every coefficient and the precision bound."""
        if not self.coeffs:
            raise JetPrecisionError("cannot invert a series with no known part")
        inv = 1 / self.coeffs[0]
        ratio = -(self.coeffs[1] if len(self.coeffs) == 2 else QI_ZERO) * inv
        term, binom, out = inv ** m, 1, []
        for k in range(self.prec - self.val):
            out.append(term * binom if binom != 1 else term)
            term, binom = term * ratio, binom * (m + k) // (k + 1)
        return Jet(-m * self.val, out, self.prec - (m + 1) * self.val)

    # -- structure ------------------------------------------------------------------

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)

    def __eq__(self, other):
        """Exact equality of order, coefficients and precision bound, so that
        equal jets hash alike and no cache hands out a jet of another
        precision; a jet never equals a plain scalar."""
        if not isinstance(other, Jet):
            return NotImplemented if _as_gauss(other) is NotImplemented else False
        return (self.val, self.prec, self.coeffs) == (other.val, other.prec, other.coeffs)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.val, self.coeffs, self.prec))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self):
        return ("jet", self.val, tuple(c.sort_key() for c in self.coeffs))

    def __repr__(self):
        bits = [f"({c})t^{self.val + i}" for i, c in enumerate(self.coeffs) if c]
        return "Jet(" + (" + ".join(bits) or "0") + f"; O(t^{self.prec}))"


def jet_point(z, prec: int) -> Jet:
    """The jet of the moving point z + t to the given precision; z is a
    Q(i) scalar, so a jet or a rational function raises TypeError."""
    return Jet(0, [z, QI_ONE], prec)


def coerce_scalar_or_jet(z):
    """A point that may move: a jet passes through, anything else goes
    through ``GaussRational.coerce`` (TypeError for a non-scalar)."""
    return z if isinstance(z, Jet) else GaussRational.coerce(z)


def moved_expansion(coeff, moved, order: int):
    """Expand coeff * prod_i (u - p_i - s_i t)^(-l_i) in t through t^order.

    ``coeff`` is a jet in t or a scalar, constant in t, and ``moved`` lists
    (s_i, l_i), one per pole at a moving point p_i + s_i t.  Each pole expands as
    (u - p - s t)^(-l) = sum_k C(l+k-1, k) s^k t^k (u - p)^(-(l+k)),
    so this yields (order k, scalar factor, new pole orders l_i + k_i) for
    every combination of total order k <= ``order``.  Raises
    JetPrecisionError when the coefficient is not known through ``order``.
    """
    if isinstance(coeff, Jet):
        if coeff.prec <= order:
            raise JetPrecisionError("coefficient window too shallow")
        gammas = [(j, coeff.coefficient(j)) for j in range(coeff.val, order + 1)]
    else:
        gammas = [(0, coeff)]
    depth = order - min(0, gammas[0][0]) if gammas else 0
    options = []
    for slope, l in moved:
        opts = []
        weight = 1
        for k in range(depth + 1):
            if k > 0:
                weight = weight * (l + k - 1) // k
            opts.append((k, l + k, weight * slope ** k))
        options.append(opts)
    for j, gamma in gammas:
        if not gamma:
            continue
        for combo in itertools.product(*options):
            total = j + sum(k for k, _, _ in combo)
            if total > order:
                continue
            factor = gamma
            for _, _, w in combo:
                factor = factor * w
            yield total, factor, [o for _, o, _ in combo]


def with_jet_retry(compute, prec: int):
    """compute(prec), retried with prec doubled on JetPrecisionError.

    Gives up (re-raising) once prec has passed ``PREC_CEILING``.
    """
    while True:
        try:
            return compute(prec)
        except JetPrecisionError:
            if prec > PREC_CEILING:
                raise
            prec = max(2 * prec, 1)
