"""The free boson: creation/evaluation fields, Wick correlation functions,
operator product expansions, and the function-space avatar.

States live in the symmetric algebra over second-kind forms, expanded in
the canonical partial-fraction basis; a field applied at a point acts by
exact symbolic manipulation of that basis.  Operator products are
expanded by moving one insertion point along a formal direction (scalars
become exact truncated Laurent series) and reading off the orders.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .exactnum import GaussRational, QI_ONE, RatFunc
from .geometry import VectorField, atom_deriv_eval, atom_derivative, atom_sort_key, bergman_genus0, lie_atom
from .jets import SLACK, coerce_scalar_or_jet, jet_point, with_jet_retry
from .states import (AtomValues, DomainError, SymState, _contract_terms, drop_above_degree,
                     require_distinct, require_regular, vacuum)
from .symmetry import _phi_pole_parts

__all__ = [
    "vacuum",
    "e_apply",
    "i_apply",
    "b_apply",
    "T_apply",
    "e_deriv_apply",
    "i_deriv_apply",
    "b_deriv_apply",
    "commutator_ie",
    "npoint_wick",
    "npoint_operator",
    "Field",
    "field_by_name",
    "RenormProduct",
    "DerivedField",
    "OpeExpansion",
    "expand_at_generic_point",
    "ope_extract",
    "lie_action",
    "covariance_check",
    "eps_apply",
    "iota_apply",
    "d_isomorphism",
    "davatar_check",
    "eps_tilde_offset",
]

# ---------------------------------------------------------------------------
# The four basic fields (hatted)
# ---------------------------------------------------------------------------


def e_apply(z, state: SymState) -> SymState:
    """Multiplication by the double-pole creation form at z (hatted -1/(u-z)^2)."""
    return e_deriv_apply(z, 0, state)


def e_deriv_apply(z, order: int, state: SymState) -> SymState:
    """The (order)-th coordinate derivative of the creation field at z.

    order = 0 is the field itself; the l-th derivative multiplies by
    -(l+1)!/(u-z)^(l+2).
    """
    z = coerce_scalar_or_jet(z)
    return state.multiply_atom(("pole", z, order + 2), GaussRational(-factorial(order + 1)))


def i_apply(z, state: SymState) -> SymState:
    """The evaluation derivation at z: each basis form goes to -(its value at z)."""
    return i_deriv_apply(z, 0, state)


def i_deriv_apply(z, order: int, state: SymState) -> SymState:
    """order-th coordinate derivative of the evaluation field."""
    z = coerce_scalar_or_jet(z)
    require_regular(state.terms, z)
    return state.contract(lambda atom: -atom_deriv_eval(atom, z, order))


def b_apply(z, state: SymState) -> SymState:
    return _b_group(z, (0,), state)


def b_deriv_apply(z, order: int, state: SymState) -> SymState:
    return _b_group(z, (order,), state)


def T_apply(z, state: SymState) -> SymState:
    """Energy field: half the normal-ordered square of b at z."""
    return _b_group(z, (0, 0), state, Fraction(1, 2))


def _b_group(z, orders, state: SymState, factor=1) -> SymState:
    """factor times the normal-ordered product :b^(k_1)...b^(k_n):(z) of
    b-derivative fields applied to the state, for orders (k_1, ..., k_n).

    Wick's rule, as b^(k) = i^(k) + e^(k): each factor either contracts one
    atom of the input monomial, by -atom^(k)(z), or creates ("pole", z, k+2)
    with weight -(k+1)!.  Contractions read the input's own atoms only, and
    each distinct (atom, order) is evaluated once.  Factors of one order are
    alike: the j of n that contract are counted once, with weight C(n, j).
    """
    z = coerce_scalar_or_jet(z)
    require_regular(state.terms, z)
    partial = {(): state.terms}  # atoms created -> {input atoms left: coefficient}
    for k in dict.fromkeys(orders):
        n = orders.count(k)
        values = AtomValues(lambda atom, k=k: -atom_deriv_eval(atom, z, k))
        level, partial = partial, {}
        for j in range(n + 1):
            if j:
                level = {made: _contract_terms(terms, values) for made, terms in level.items()}
            weight = comb(n, j) * (-factorial(k + 1)) ** (n - j) * factor
            weight = None if weight == 1 else GaussRational(weight)
            for made, terms in level.items():
                partial[made + (("pole", z, k + 2),) * (n - j)] = (
                    terms if weight is None else {mon: c * weight for mon, c in terms.items()})
        factor = 1
    return SymState({tuple(sorted(mon + made, key=atom_sort_key)) if made else mon: c
                     for made, terms in partial.items() for mon, c in terms.items()})


def commutator_ie(z1, z2):
    """Measured [i(z1), e(z2)] on the vacuum; returns the scalar multiplier.

    Must equal 1/(z1-z2)^2 exactly.
    """
    z1, z2 = coerce_scalar_or_jet(z1), coerce_scalar_or_jet(z2)
    if not (z1 - z2):
        raise DomainError("coincident points in the i/e commutator")
    vac = vacuum()
    lhs = i_apply(z1, e_apply(z2, vac)) - e_apply(z2, i_apply(z1, vac))
    expected = 1 / (z1 - z2) ** 2
    if lhs != vac.scale(expected):
        raise AssertionError("i/e commutator is not the invariant bidifferential")
    return expected


# ---------------------------------------------------------------------------
# n-point functions
# ---------------------------------------------------------------------------


def npoint_wick(points) -> GaussRational:
    """Pair-partition sum of products of 1/(z_a - z_b)^2."""
    pts = [coerce_scalar_or_jet(p) for p in points]
    require_distinct(pts)
    return bergman_genus0().matching_sum(pts)


def npoint_operator(points) -> GaussRational:
    """Vacuum component of the composed field product at the given points.

    Each field moves a term's degree by one, so with ``left`` fields still
    to apply a term of degree above ``left`` cannot reach the vacuum: such
    terms are dropped after every field, and the value is unchanged.
    """
    pts = [coerce_scalar_or_jet(p) for p in points]
    require_distinct(pts)
    state = vacuum()
    for left in range(len(pts) - 1, -1, -1):
        state = drop_above_degree(b_apply(pts[left], state), left)
    return state.vacuum_coefficient()


# ---------------------------------------------------------------------------
# Fields as objects, generic-point expansion, OPE
# ---------------------------------------------------------------------------


class Field:
    """A pointwise operator family z -> F(z) with a conformal weight."""

    name = "field"
    weight = 1
    deriv = None  # (z, order, state) -> the order-th derivative, when in closed form

    def apply(self, z, state: SymState) -> SymState:
        raise NotImplementedError


class DerivedField(Field):
    """Coordinate derivative of another field."""

    def __init__(self, base: Field, order: int):
        self.base = base
        self.order = order
        self.name = f"{base.name}'" + "'" * (order - 1)
        self.weight = base.weight + order

    def apply(self, z, state):
        if self.base.deriv is not None:
            return self.base.deriv(z, self.order, state)
        expansion = expand_at_generic_point(self.base, z, state, self.order)
        return expansion.coefficient(self.order).scale(factorial(self.order))


class RenormProduct(Field):
    """Normal-ordered product: the regular value of A(w) B(z) as w -> z."""

    def __init__(self, left: Field, right: Field):
        self.left = left
        self.right = right
        self.name = f":{left.name}{right.name}:"
        self.weight = left.weight + right.weight

    def apply(self, z, state):
        return ope_extract(self.left, self.right, z, state, 0).regular


class _BasicField(Field):
    def __init__(self, name: str):
        self.name = name
        self.weight, self.apply, self.deriv = _BASIC_FIELDS[name]


# name -> (weight, apply, closed-form derivative or None); the lambdas look
# the module functions up at call time, so a rebound function (a span of
# bench/tracer.py) also sees the calls made through a field object
_BASIC_FIELDS = {
    "e": (1, lambda z, s: e_apply(z, s), lambda z, k, s: e_deriv_apply(z, k, s)),
    "i": (1, lambda z, s: i_apply(z, s), lambda z, k, s: i_deriv_apply(z, k, s)),
    "b": (1, lambda z, s: b_apply(z, s), lambda z, k, s: b_deriv_apply(z, k, s)),
    "T": (2, lambda z, s: T_apply(z, s), None),
}


def field_by_name(name: str) -> Field:
    if name in _BASIC_FIELDS:
        return _BasicField(name)
    raise ValueError(f"unknown field {name!r}")


class OpeExpansion:
    """Exact Laurent data of A(w)B(z)v at w = z, as states per order."""

    def __init__(self, point, order: int, buckets: dict):
        self.point = point
        self.order = order
        self.buckets = {k: v for k, v in buckets.items() if v}

    def coefficient(self, k: int) -> SymState:
        return self.buckets.get(k, SymState())

    @property
    def regular(self) -> SymState:
        return self.coefficient(0)


def expand_at_generic_point(field: Field, z, state: SymState, order: int) -> OpeExpansion:
    """Apply field at the moving point z + t and expand exactly in t.

    Scalar arithmetic runs in truncated Laurent series with a tracked
    precision bound; if an extraction would need orders beyond the bound,
    the expansion retries with a deeper window, so results are exact.
    """
    from .vertexalg import jet_parameter_expansion  # vertexalg imports this module

    z = GaussRational.coerce(z)
    return OpeExpansion(z, order, with_jet_retry(
        lambda p: jet_parameter_expansion(field.apply(jet_point(z, p), state), order), order + SLACK))


def ope_extract(A, B, z, state: SymState, order: int) -> OpeExpansion:
    """Expansion of A(w) B(z) v at w = z: singular orders and the regular value."""
    if isinstance(A, str):
        A = field_by_name(A)
    if isinstance(B, str):
        B = field_by_name(B)
    z = GaussRational.coerce(z)
    inner = B.apply(z, state)
    return expand_at_generic_point(A, z, inner, order)


# ---------------------------------------------------------------------------
# Automorphism action and covariance
# ---------------------------------------------------------------------------


def lie_action(X: VectorField, state: SymState) -> SymState:
    """The derivation extending the Lie derivative along X to states."""
    dec = _phi_pole_parts(X.xi)
    return state.derive_atoms(lambda atom: lie_atom(dec, atom))


def field_lie_derivative(field, X: VectorField, z, state: SymState) -> SymState:
    """Transport derivative of z -> F(z) along X, acting on a fixed state.

    This is the derivative of F along the state-space flow generated by
    the Lie-derivative action: -(xi(z) F'(z) + c xi'(z) F(z)) for a
    weight-c field, the sign fixed so that the commutator identity with
    lie_action holds for every vector field regular on the whole line.
    """
    xi = X.xi
    z = coerce_scalar_or_jet(z)
    xi_z = xi.num.evaluate(z) / xi.den.evaluate(z)
    xip_z = xi.derivative().num.evaluate(z) / xi.derivative().den.evaluate(z)
    deriv = DerivedField(field, 1).apply(z, state)
    out = deriv.scale(xi_z) + field.apply(z, state).scale(field.weight * xip_z)
    return out.scale(-1)


def covariance_check(X: VectorField, field: str, z, state: SymState) -> bool:
    """True iff the named field's z-derivative along X equals [L^X, F(z)] on the state."""
    field = field_by_name(field)
    lhs = field_lie_derivative(field, X, z, state)
    rhs = lie_action(X, field.apply(z, state)) - field.apply(z, lie_action(X, state))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Function-space avatar (states over functions vanishing at infinity)
# ---------------------------------------------------------------------------


def eps_apply(z, state: SymState) -> SymState:
    """Multiplication by the simple-pole function 1/(u - z)."""
    z = coerce_scalar_or_jet(z)
    return state.multiply_atom(("pole", z, 1), QI_ONE)


def iota_apply(z, state: SymState) -> SymState:
    """Derivation sending each basis function to minus its derivative's value."""
    return i_deriv_apply(z, 1, state)


def d_isomorphism(state: SymState) -> SymState:
    """Factorwise differentiation: function monomials to form monomials."""

    def on_monomial(mon):
        if ("poly", 0) in mon:
            raise DomainError("constant factor has no image under d")
        images = [atom_derivative(atom) for atom in mon]
        return [a for a, _ in images], prod(w for _, w in images)

    return state.map_monomials(on_monomial)


def eps_tilde_offset(z) -> RatFunc:
    """Difference between the origin-based and infinity-based creation functions.

    Returns the exact rational function (in u) by which the origin-based
    multiplier exceeds 1/(u-z); must equal the constant 1/z.
    """
    z = coerce_scalar_or_jet(z)
    if not z:
        raise DomainError("base-point comparison needs z away from both points")
    u = RatFunc.variable(QI_ONE)
    u_tilde = 1 / u
    zt = 1 / z
    # multiplier in the reciprocal chart, converted back: [1/(ut - zt)] d(ut)/du(z)
    tilde_mult = (1 / (u_tilde - zt)) * (-1 / z ** 2)
    return tilde_mult - 1 / (u - z)


def davatar_check(z, state: SymState) -> bool:
    """d intertwines the function-space fields with the form-space fields,
    and the base-point change shifts the creation multiplier by 1/z."""
    z = coerce_scalar_or_jet(z)
    d_then_eps = d_isomorphism(eps_apply(z, state))
    e_then_d = e_apply(z, d_isomorphism(state))
    if d_then_eps != e_then_d:
        return False
    d_then_iota = d_isomorphism(iota_apply(z, state))
    i_then_d = i_apply(z, d_isomorphism(state))
    if d_then_iota != i_then_d:
        return False
    if z:
        offset = eps_tilde_offset(z)
        if offset != RatFunc.const(1 / z):
            return False
    return True
