"""The generic Virasoro action: the test oracle for the closed forms.

``symmetry.vir_apply`` and ``boson.lie_action`` act on basis atoms by
binomial closed forms.  This module computes the same action the generic
way, on rational functions:

* pairs: ``residue_at`` of xi a_i a_j at the site;
* Lie term: the partial fractions of (xi a)', with xi's poles found by
  root search, projected to the site;
* creation: the symmetric state of the Lie derivative of the invariant
  bidifferential omega = du1 du2/(u1-u2)^2 along the doubled singular part
  of xi (``lie_derivative_bidiff`` -> ``bifunction_atom_matrix``).

``L_word_oracle`` is the word rule of ``symmetry.L_mode`` on L_n itself,
with the undoubled Sugawara weights (p-1)(q-1) and, on the diagonal, the
half-integer (p-1)^2/2: the oracle for the integer kernel
``symmetry._L_word``, which holds the image of 2 L_n.

The generic creation costs seconds per call, and on a singular part with
two poles its pole search can fail, so ``vir_apply_oracle(..., split=True)``
sums the creation over the pole parts one pole at a time.

The bivariate calculus behind the creation (rational functions of u1
over rational functions of u2, the invariant bidifferential, the exchange
u1 <-> u2, the closed form omega_X, d/du2 of a bivariate function, the
Lie derivative of a bidifferential and its expansion in pairs of form
atoms) lives here too, on the test-side tower field ``tower_field``: the
closed forms in ``chiralis``, the genus-0 kernels (u1-u2)^-k among them,
no longer need it, and ``chiralis`` computes over Q(i) only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from chiralis import exactnum
from chiralis.exactnum import (
    GaussRational,
    QI_ONE,
    QI_ZERO,
    gauss_rational_roots,
    partial_fractions,
    partial_fractions_known,
    residue_at,
)
from chiralis.geometry import (
    GeometryError,
    VectorField,
    atom_sort_key,
    dec_atoms,
)
from chiralis.states import SymState, add_term

import tower_field
from closed_form_oracle import atom_ratfunc
from tower_field import Poly, RatFunc, lift, lower


# ---------------------------------------------------------------------------
# Bivariate calculus (rational functions of u1 over rational functions of u2)
# ---------------------------------------------------------------------------


def outer_variable() -> RatFunc:
    return RatFunc.variable(RatFunc.const(QI_ONE))


def inner_variable() -> RatFunc:
    return RatFunc.variable(QI_ONE)


def subst(f, value):
    """f evaluated at an arbitrary scalar-like value (exact substitution); a
    ``chiralis`` rational function is lifted to the tower first."""
    if isinstance(f, exactnum.RatFunc):
        f = lift(f)
    return f.num.evaluate(value) / f.den.evaluate(value)


def omega_bifunction() -> RatFunc:
    """The invariant bidifferential 1/(u1-u2)^2 (hatted)."""
    x = outer_variable()
    w = inner_variable()
    return 1 / ((x - w) * (x - w))


def swap_bifunction(F: RatFunc) -> RatFunc:
    """Exchange u1 and u2 in a bivariate rational function."""
    pm, qm = _nested_to_bivar(F)
    return _bivar_to_nested(_transpose(pm), _transpose(qm))


def _nested_to_bivar(F: RatFunc):
    def clear(p: Poly):
        dens = Poly([QI_ONE])
        for c in p.coeffs:
            c = _as_inner(c)
            g = dens.gcd(c.den)
            dens = dens * (c.den // g)
        rows = []
        for c in p.coeffs:
            c = _as_inner(c)
            scaled = c.num * (dens // c.den)
            rows.append(list(scaled.coeffs))
        return rows, dens

    pn, dn = clear(F.num)
    pd, dd = clear(F.den)
    # F = (pn/dn) / (pd/dd) = (pn*dd) / (pd*dn) as bivariate polynomials
    return _mat_scale_poly(pn, dd), _mat_scale_poly(pd, dn)


def _as_inner(c) -> RatFunc:
    if isinstance(c, RatFunc):
        return c
    return RatFunc(Poly([c]))


def _mat_scale_poly(rows, inner_poly: Poly):
    return [list((Poly(row) * inner_poly).coeffs) for row in rows]


def _transpose(rows):
    width = max((len(r) for r in rows), default=0)
    out = [[QI_ZERO] * len(rows) for _ in range(width)]
    for i, row in enumerate(rows):
        for j, c in enumerate(row):
            out[j][i] = c
    return out


def _bivar_to_nested(pm, qm) -> RatFunc:
    def build(rows) -> Poly:
        return Poly([RatFunc(Poly(row)) for row in rows])

    return RatFunc(build(pm), build(qm))


def _spec_inner(c, value):
    if isinstance(c, RatFunc):
        return subst(c, value)
    return c


def omega_x_bifunction(X: VectorField) -> RatFunc:
    """Closed form {2(xi(u1)-xi(u2)) - (xi'(u1)+xi'(u2))(u1-u2)} / (2(u1-u2)^3)."""
    x = outer_variable()
    w = inner_variable()
    xi = X.xi
    xip = xi.derivative()
    xi1, xi2 = subst(xi, x), subst(xi, w)
    xi1p, xi2p = subst(xip, x), subst(xip, w)
    return (2 * (xi1 - xi2) - (xi1p + xi2p) * (x - w)) / (2 * (x - w) ** 3)


def inner_derivative(F: RatFunc) -> RatFunc:
    """d/du2 of a bivariate function (derivative of the inner scalars)."""

    def dpoly(p: Poly) -> Poly:
        return Poly([c.derivative() for c in p.coeffs])

    n, d = F.num, F.den
    return RatFunc(dpoly(n) * d - n * dpoly(d), d * d)


def lie_derivative_bidiff(X: VectorField, F: RatFunc) -> RatFunc:
    """L_{X1+X2} of the bidifferential F(u1,u2) du1 du2 (hatted result)."""
    x = outer_variable()
    w = inner_variable()
    xi1 = subst(X.xi, x)
    xi2 = subst(X.xi, w)
    xi1p = subst(X.xi.derivative(), x)
    xi2p = subst(X.xi.derivative(), w)
    return (
        xi1 * F.derivative()
        + xi2 * inner_derivative(F)
        + (xi1p + xi2p) * F
    )




def bifunction_atom_matrix(F: RatFunc, poles=None) -> dict:
    """Expand F(u1,u2) as sum c[(a1,a2)] * a1(u1) * a2(u2) over form atoms.

    Requires F to have constant (u2-independent) pole locations in u1;
    ``poles`` may supply them, otherwise they are found from the inner
    content of the denominator.
    """
    if poles is None:
        poles = _constant_outer_poles(F)
    lifted_poles = [RatFunc.const(p) if not isinstance(p, RatFunc) else p for p in poles]
    dec = tower_field.partial_fractions_known(F, lifted_poles)
    out = {}

    def base_scalar(v):
        if isinstance(v, GaussRational):
            return v
        return GaussRational.coerce(v)

    def add_inner(atom1, inner_coeff: RatFunc):
        inner_dec = partial_fractions(lower(inner_coeff))
        for c2, order2, co2 in inner_dec.terms:
            if order2 == 1:
                raise GeometryError("bidifferential has a residue in u2")
            out[(atom1, ("pole", base_scalar(c2), order2))] = base_scalar(co2)
        for m2, co2 in enumerate(inner_dec.polynomial.coeffs):
            if co2:
                out[(atom1, ("poly", m2))] = base_scalar(co2)

    for c, order, coeff in dec.terms:
        if order == 1:
            raise GeometryError("bidifferential has a residue in u1")
        c_const = c.constant_value() if isinstance(c, RatFunc) else c
        add_inner(("pole", base_scalar(c_const), order), _as_inner(coeff))
    for m, coeff in enumerate(dec.polynomial.coeffs):
        if _as_inner(coeff):
            add_inner(("poly", m), _as_inner(coeff))
    return out


def _constant_outer_poles(F: RatFunc):
    # inner-content-free part of the outer denominator factors through
    # constant pole locations; find them over Q(i)
    consts = []
    den = F.den
    # collect candidate constants from each coefficient's numerator roots
    # the reliable generic route: the outer denominator of the bivariate
    # fraction, with inner scalars cleared, factors over Q(i)(u2); the
    # constant roots are roots of the content's gcd across specializations.
    # Desk-scale shortcut: specialize u2 at two generic rational values and
    # intersect the root sets.
    for probe in (GaussRational(Fraction(7, 13)), GaussRational(Fraction(19, 11))):
        specialized = exactnum.Poly([_spec_inner(c, probe) for c in den.coeffs])
        roots = set()
        for r in gauss_rational_roots(specialized):
            roots.add(r)
        consts.append(roots)
    return sorted(consts[0] & consts[1], key=lambda s: s.sort_key())


# ---------------------------------------------------------------------------
# The generic action
# ---------------------------------------------------------------------------


_CREATION: dict = {}


def _creation_state(xi_part: exactnum.RatFunc) -> SymState:
    """Degree-2 creation state of a singular vector-field part, from omega."""
    cached = _CREATION.get(xi_part)
    if cached is not None:
        return cached
    terms: dict = {}
    if not xi_part.is_zero():
        F = lie_derivative_bidiff(VectorField(xi_part), omega_bifunction())
        for (a1, a2), coeff in bifunction_atom_matrix(F).items():
            add_term(terms, tuple(sorted((a1, a2), key=atom_sort_key)), coeff * Fraction(1, 2))
    _CREATION[xi_part] = out = SymState(terms)
    return out


def singular_parts(xi: exactnum.RatFunc, site) -> dict:
    """{pole c: the pole part of xi at c} for the poles that create at the site."""
    u = exactnum.RatFunc.variable()
    parts: dict = {}
    for c, order, coeff in partial_fractions(xi).terms:
        if site.is_infinity or c == site.value:
            parts[c] = parts.get(c, exactnum.RatFunc.const(QI_ZERO)) + coeff / (u - c) ** order
    return parts


def lie_image(xi: exactnum.RatFunc, atom) -> dict:
    """L_xi(atom du) in form atoms, through RatFunc arithmetic."""
    a = atom_ratfunc(atom)
    poles = list(gauss_rational_roots(xi.den))
    if atom[0] == "pole":
        poles.append(atom[1])
    dec = partial_fractions_known(xi * a.derivative() + xi.derivative() * a, poles)
    if any(order == 1 for _, order, _ in dec.terms):
        raise GeometryError("form has a nonzero residue (not second kind)")
    return dict(dec_atoms(dec))


def lie_action(X, state: SymState) -> SymState:
    xi = X.xi if hasattr(X, "xi") else X
    return state.derive_atoms(lambda atom: lie_image(xi, atom))


def vir_apply_oracle(op, state: SymState, split: bool = False) -> SymState:
    """The three-part action, each part computed on rational functions."""
    xi, site = op.X.xi, op.site
    sign = 1 if site.is_infinity else -1
    pairs: dict = {}
    for mon, c in state.terms.items():
        for i in range(len(mon)):
            for j in range(i + 1, len(mon)):
                val = residue_at(xi * atom_ratfunc(mon[i]) * atom_ratfunc(mon[j]), site)
                if val:
                    add_term(pairs, mon[:i] + mon[i + 1: j] + mon[j + 1:], c * val * sign)

    def projected(atom):
        return {a: w for a, w in lie_image(xi, atom).items()
                if a[0] == "pole" and (site.is_infinity or a[1] == site.value)}

    out = SymState(pairs) + state.derive_atoms(projected)
    parts = list(singular_parts(xi, site).values())
    if not split:
        parts = [sum(parts, exactnum.RatFunc.const(QI_ZERO))]
    for part in parts:
        out = out + state.multiply(_creation_state(part))
    return out


def L_word_oracle(n: int, ks: tuple) -> dict:
    """L_n on one word ks of pole orders at the origin, with ``Fraction``
    weights: pairs with k_i + k_j = n + 2 removed with weight 1, an order k
    with k - n >= 2 lowered to k - n with weight k - n - 1, and the Sugawara
    pairs (p, q), p + q = 2 - n, with weight (p-1)(q-1) summed over the
    ordered pairs.  Not memoized."""
    out: dict = {}
    for i, j in itertools.combinations(range(len(ks)), 2):
        if ks[i] + ks[j] == n + 2:
            add_term(out, ks[:i] + ks[i + 1: j] + ks[j + 1:], 1)
    for i, k in enumerate(ks):
        if k - n >= 2:
            add_term(out, tuple(sorted(ks[:i] + (k - n,) + ks[i + 1:])), k - n - 1)
    for p in range(2, (2 - n) // 2 + 1):
        q = 2 - n - p
        w = (p - 1) * (q - 1) if p < q else Fraction((p - 1) ** 2, 2)
        add_term(out, tuple(sorted(ks + (p, q))), w)
    return out
