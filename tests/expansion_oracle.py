"""Generic local expansions and partial fractions: the oracle for the
coefficient-list fast path of ``chiralis.exactnum``.

These are the ``Poly``/``RatFunc`` implementations the fast path replaced,
kept as they were:

* ``poly_shift`` -- the Taylor shift u -> u + c by ``Poly`` products;
* ``pole_order`` -- the pole order by repeated division by (u - c);
* ``local_expansion`` -- the denominator divided by (u - c)^m, both
  polynomials shifted by ``poly_shift``, then a power-series quotient;
* ``partial_fractions_known`` -- each pole part subtracted from a
  canonicalized ``RatFunc`` remainder, the polynomial part what is left;
* ``residue_at`` -- at infinity through f(1/t) * (-1/t^2) as a ``RatFunc``.

Each function builds its polynomials and rational functions in the layer
of its input: ``chiralis``'s over Q(i), or the test-side tower of
``tower_field``.
"""

from __future__ import annotations

from chiralis import exactnum
from chiralis.exactnum import Point, UnsupportedDenominatorError

import tower_field


def _layer(x):
    """(Poly, RatFunc, PartialFractions) of the module that x (a polynomial
    or rational function) belongs to."""
    mod = tower_field if isinstance(x, (tower_field.Poly, tower_field.RatFunc)) else exactnum
    return mod.Poly, mod.RatFunc, mod.PartialFractions


def _one_like(p):
    for c in p.coeffs:
        return c * 0 + 1
    return 1


def poly_shift(p, c):
    """Compose with u -> u + c (Taylor shift)."""
    Poly = _layer(p)[0]
    out = Poly([0])
    for coeff in reversed(p.coeffs):
        out = out * Poly([c, 1]) + Poly([coeff])
    return out


def pole_order(f, c) -> int:
    """Multiplicity of u = c as a root of the denominator."""
    order = 0
    den = f.den
    lin = _layer(f)[0]([-c, c * 0 + 1])
    while True:
        q, r = den.divmod(lin)
        if not r.is_zero():
            return order
        order += 1
        den = q


def _series_inverse_mul(num: list, den: list, terms: int) -> list:
    """Coefficients of (num/den) as a power series; den[0] must be a unit."""
    lead = den[0]
    out = []
    for k in range(terms):
        acc = num[k] if k < len(num) else lead * 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc / lead)
    return out


def local_expansion(f, c, order: int):
    """Laurent coefficients of f at u = c, from the pole order up to ``order``.

    Returns (pole_order m, coeffs) with coeffs[j] the coefficient of
    (u-c)^(j-m), j = 0 .. order+m.
    """
    if f.is_zero():
        return 0, []
    m = pole_order(f, c)
    lin = _layer(f)[0]([-c, c * 0 + 1])
    den = f.den
    for _ in range(m):
        den = den // lin
    terms = order + m + 1
    if terms <= 0:
        return m, []
    num_shift = poly_shift(f.num, c)
    den_shift = poly_shift(den, c)
    ncs = list(num_shift.coeffs) or [c * 0]
    dcs = list(den_shift.coeffs)
    return m, _series_inverse_mul(ncs, dcs, terms)


def pole_part_coeffs(f, c) -> dict:
    """{order l: coefficient of (u-c)^(-l)} of the pole part of f at c."""
    m = pole_order(f, c)
    if m == 0:
        return {}
    _, coeffs = local_expansion(f, c, -1)
    return {m - j: coeffs[j] for j in range(m) if coeffs[j]}


def _reversed_padded(p, degree: int):
    """Coefficient-reverse as a degree-``degree`` polynomial (u -> 1/u)."""
    if p.degree > degree:
        raise ValueError("padding degree too small")
    out = [0] * (degree + 1)
    for k, c in enumerate(p.coeffs):
        out[degree - k] = c
    return _layer(p)[0](out)


def at_infinity_substitution(f):
    """f(1/t) as a rational function of t."""
    deg = max(f.num.degree, f.den.degree, 0)
    return _layer(f)[1](_reversed_padded(f.num, deg), _reversed_padded(f.den, deg))


def residue_at(f, z):
    """Residue of the one-form f(u) du at the point z (infinity allowed)."""
    zero = _one_like(f.den) * 0
    if isinstance(z, Point):
        if z.is_infinity:
            g = at_infinity_substitution(f)
            t = _layer(f)[1].variable(_one_like(f.den))
            g = g * (-(t ** -2))
            parts = pole_part_coeffs(g, zero)
            return parts.get(1, zero)
        c = z.value
    else:
        c = z
    parts = pole_part_coeffs(f, c)
    return parts.get(1, zero)


def partial_fractions_known(f, poles):
    """Partial fractions given the (super)set of finite poles; no factoring.

    Raises UnsupportedDenominatorError when pole parts at the listed points
    do not exhaust the denominator.
    """
    Poly, RatFunc, PartialFractions = _layer(f)
    terms = []
    remainder = f
    for c in poles:
        parts = pole_part_coeffs(remainder, c)
        if not parts:
            continue
        u = RatFunc.variable(_one_like(f.den))
        for order in sorted(parts, reverse=True):
            coeff = parts[order]
            terms.append((c, order, coeff))
            remainder = remainder - RatFunc.const(coeff) / (u - c) ** order
    if remainder.den.degree != 0:
        raise UnsupportedDenominatorError(
            "denominator has poles outside the supplied set"
        )
    poly = Poly([c / remainder.den.coeffs[0] for c in remainder.num.coeffs])
    return PartialFractions(poly, terms)
