"""The free boson: creation/evaluation fields, Wick correlation functions,
operator product expansions, and the function-space avatar.

States live in the symmetric algebra over second-kind forms, expanded in
the canonical partial-fraction basis; a field applied at a point acts by
exact symbolic manipulation of that basis.  Operator products are
expanded by moving one insertion point along a formal direction (scalars
become exact truncated Laurent series) and reading off the orders.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactnum import GaussRational, QI_ONE, QI_ZERO, RatFunc, partial_fractions
from .geometry import atom_deriv_eval, atom_eval, lie_atom
from .jets import coerce_scalar_or_jet
from .states import DomainError, SymState, monomial_state, vacuum

__all__ = [
    "BosonState",
    "FuncState",
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

BosonState = SymState
FuncState = SymState


def _check_form_domain(state: SymState, z):
    for atom in state.atoms():
        if atom[0] == "pole" and not (z - atom[1]):
            raise DomainError(f"state has a basis pole at the field point {z}")


# ---------------------------------------------------------------------------
# The four basic fields (hatted)
# ---------------------------------------------------------------------------


def e_apply(z, state: SymState) -> SymState:
    """Multiplication by the double-pole creation form at z (hatted -1/(u-z)^2)."""
    z = coerce_scalar_or_jet(z)
    return state.multiply_atom(("pole", z, 2), -QI_ONE)


def e_deriv_apply(z, order: int, state: SymState) -> SymState:
    """The (order)-th coordinate derivative of the creation field at z.

    order = 0 is the field itself; the l-th derivative multiplies by
    -(l+1)!/(u-z)^(l+2).
    """
    z = coerce_scalar_or_jet(z)
    fact = 1
    for k in range(2, order + 2):
        fact *= k
    return state.multiply_atom(("pole", z, order + 2), -fact * QI_ONE)


def i_apply(z, state: SymState) -> SymState:
    """The evaluation derivation at z: each basis form goes to -(its value at z)."""
    z = coerce_scalar_or_jet(z)
    _check_form_domain(state, z)
    return state.contract(lambda atom: -atom_eval(atom, z))


def i_deriv_apply(z, order: int, state: SymState) -> SymState:
    """order-th coordinate derivative of the evaluation field."""
    z = coerce_scalar_or_jet(z)
    _check_form_domain(state, z)
    return state.contract(lambda atom: -atom_deriv_eval(atom, z, order))


def b_apply(z, state: SymState) -> SymState:
    return i_apply(z, state) + e_apply(z, state)


def b_deriv_apply(z, order: int, state: SymState) -> SymState:
    return i_deriv_apply(z, order, state) + e_deriv_apply(z, order, state)


def T_apply(z, state: SymState) -> SymState:
    """Energy field: half the normal-ordered square of b at z."""
    z = coerce_scalar_or_jet(z)
    ii = i_apply(z, i_apply(z, state))
    ee = e_apply(z, e_apply(z, state))
    ei = e_apply(z, i_apply(z, state))
    return (ii + ee + ei.scale(2)).scale(Fraction(1, 2))


def commutator_ie(z1, z2, state: SymState | None = None):
    """Measured [i(z1), e(z2)] on a state; returns the scalar multiplier.

    Must equal 1/(z1-z2)^2 exactly.
    """
    z1, z2 = coerce_scalar_or_jet(z1), coerce_scalar_or_jet(z2)
    if not (z1 - z2):
        raise DomainError("coincident points in the i/e commutator")
    if state is None:
        state = vacuum()
    lhs = i_apply(z1, e_apply(z2, state)) - e_apply(z2, i_apply(z1, state))
    expected = 1 / (z1 - z2) ** 2
    if lhs != state.scale(expected):
        raise AssertionError("i/e commutator is not the invariant bidifferential")
    return expected


# ---------------------------------------------------------------------------
# n-point functions
# ---------------------------------------------------------------------------


def _pair_partitions(indices):
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for k, second in enumerate(rest):
        for tail in _pair_partitions(rest[:k] + rest[k + 1:]):
            yield [(first, second)] + tail


def npoint_wick(points) -> GaussRational:
    """Pair-partition sum of products of 1/(z_a - z_b)^2."""
    pts = [coerce_scalar_or_jet(p) for p in points]
    _require_distinct(pts)
    n = len(pts)
    if n % 2:
        return QI_ZERO
    total = QI_ZERO
    for pairing in _pair_partitions(list(range(n))):
        term = QI_ONE
        for a, b in pairing:
            term = term / (pts[a] - pts[b]) ** 2
        total = total + term
    return total


def npoint_operator(points) -> GaussRational:
    """Vacuum component of the composed field product at the given points."""
    pts = [coerce_scalar_or_jet(p) for p in points]
    _require_distinct(pts)
    state = vacuum()
    for z in reversed(pts):
        state = b_apply(z, state)
    return state.vacuum_coefficient()


def _require_distinct(pts):
    for a, b in itertools.combinations(range(len(pts)), 2):
        if not (pts[a] - pts[b]):
            raise DomainError("points must be pairwise distinct")


# ---------------------------------------------------------------------------
# Fields as objects, generic-point expansion, OPE
# ---------------------------------------------------------------------------


class Field:
    """A pointwise operator family z -> F(z) with a conformal weight."""

    name = "field"
    weight = 1

    def apply(self, z, state: SymState) -> SymState:
        raise NotImplementedError


class _EField(Field):
    name, weight = "e", 1

    def apply(self, z, state):
        return e_apply(z, state)


class _IField(Field):
    name, weight = "i", 1

    def apply(self, z, state):
        return i_apply(z, state)


class _BField(Field):
    name, weight = "b", 1

    def apply(self, z, state):
        return b_apply(z, state)


class _TField(Field):
    name, weight = "T", 2

    def apply(self, z, state):
        return T_apply(z, state)


class DerivedField(Field):
    """Coordinate derivative of another field."""

    def __init__(self, base: Field, order: int):
        self.base = base
        self.order = order
        self.name = f"{base.name}'" + "'" * (order - 1)
        self.weight = base.weight + order

    def apply(self, z, state):
        if isinstance(self.base, _EField):
            return e_deriv_apply(z, self.order, state)
        if isinstance(self.base, _IField):
            return i_deriv_apply(z, self.order, state)
        if isinstance(self.base, _BField):
            return b_deriv_apply(z, self.order, state)
        expansion = expand_at_generic_point(self.base, z, state, self.order)
        fact = 1
        for k in range(1, self.order + 1):
            fact *= k
        return expansion.coefficient(self.order).scale(fact)


class RenormProduct(Field):
    """Normal-ordered product: the regular value of A(w) B(z) as w -> z."""

    def __init__(self, left: Field, right: Field):
        self.left = left
        self.right = right
        self.name = f":{left.name}{right.name}:"
        self.weight = left.weight + right.weight

    def apply(self, z, state):
        return ope_extract(self.left, self.right, z, state, 0).regular


def field_by_name(name: str) -> Field:
    basics = {"e": _EField(), "i": _IField(), "b": _BField(), "T": _TField()}
    if name in basics:
        return basics[name]
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
    def singular(self) -> dict:
        return {k: v for k, v in self.buckets.items() if k < 0}

    @property
    def regular(self) -> SymState:
        return self.coefficient(0)


_JET_SLACK = 6
_JET_PREC_CEILING = 512


def expand_at_generic_point(
    field: Field, z, state: SymState, order: int, _prec: int | None = None
) -> OpeExpansion:
    """Apply field at the moving point z + t and expand exactly in t.

    Scalar arithmetic runs in truncated Laurent series with a tracked
    precision bound; if an extraction would need orders beyond the bound,
    the expansion retries with a deeper window, so results are exact.
    """
    from .jets import JetPrecisionError

    z = coerce_scalar_or_jet(z)
    prec = _prec if _prec is not None else order + _JET_SLACK
    try:
        return _expand_with_jets(field, z, state, order, prec)
    except JetPrecisionError:
        if prec > _JET_PREC_CEILING:
            raise
        return expand_at_generic_point(field, z, state, order, _prec=prec * 2)


def _expand_with_jets(field, z, state, order, prec) -> OpeExpansion:
    from .jets import Jet, JetPrecisionError, jet_point

    w = jet_point(z, prec)
    w_level = w._level()
    applied = field.apply(w, state)
    buckets: dict[int, SymState] = {}
    for mon, coeff in applied.terms.items():
        moving = [a for a in mon if a[0] == "pole" and a[1] is w]
        fixed = tuple(a for a in mon if not (a[0] == "pole" and a[1] is w))
        if isinstance(coeff, Jet) and coeff._level() == w_level:
            if coeff.prec <= order:
                raise JetPrecisionError("coefficient window too shallow")
            gammas = [
                (j, coeff.coefficient(j))
                for j in range(coeff.val, min(coeff.prec, order + 1))
            ]
        else:
            gammas = [(0, coeff)]
        moved_options = []
        for atom in moving:
            opts = []
            l = atom[2]
            binom = 1
            for k in range(order - min(0, min(j for j, _ in gammas)) + 1):
                if k > 0:
                    binom = binom * (l + k - 1) // k
                opts.append((k, ("pole", z, l + k), Fraction(binom)))
            moved_options.append(opts)
        for j, gamma in gammas:
            if not gamma:
                continue
            for combo in itertools.product(*moved_options):
                total_order = j + sum(c[0] for c in combo)
                if total_order > order:
                    continue
                factor = gamma
                atoms = list(fixed)
                for k, atom, binom in combo:
                    factor = factor * binom
                    atoms.append(atom)
                add = monomial_state(atoms, factor)
                buckets[total_order] = buckets.get(total_order, SymState()) + add
    return OpeExpansion(z, order, buckets)


def ope_extract(A, B, z, state: SymState, order: int) -> OpeExpansion:
    """Expansion of A(w) B(z) v at w = z: singular orders and the regular value."""
    if isinstance(A, str):
        A = field_by_name(A)
    if isinstance(B, str):
        B = field_by_name(B)
    z = coerce_scalar_or_jet(z)
    inner = B.apply(z, state)
    return expand_at_generic_point(A, z, inner, order)


# ---------------------------------------------------------------------------
# Automorphism action and covariance
# ---------------------------------------------------------------------------


def lie_action(X, state: SymState) -> SymState:
    """The derivation extending the Lie derivative along X to states."""
    xi = X.xi if hasattr(X, "xi") else X
    dec = partial_fractions(xi)
    return state.derive_atoms(lambda atom: lie_atom(dec, atom))


def field_lie_derivative(field, X, z, state: SymState) -> SymState:
    """Transport derivative of z -> F(z) along X, acting on a fixed state.

    This is the derivative of F along the state-space flow generated by
    the Lie-derivative action: -(xi(z) F'(z) + c xi'(z) F(z)) for a
    weight-c field, the sign fixed so that the commutator identity with
    lie_action holds for every vector field regular on the whole line.
    """
    if isinstance(field, str):
        field = field_by_name(field)
    xi = X.xi if hasattr(X, "xi") else X
    z = coerce_scalar_or_jet(z)
    xi_z = xi.num.evaluate(z) / xi.den.evaluate(z)
    xip_z = xi.derivative().num.evaluate(z) / xi.derivative().den.evaluate(z)
    deriv = DerivedField(field, 1).apply(z, state)
    out = deriv.scale(xi_z) + field.apply(z, state).scale(field.weight * xip_z)
    return out.scale(-1)


def covariance_check(X, field, z, state: SymState) -> bool:
    """True iff the field's z-derivative along X equals [L^X, F(z)] on the state."""
    if isinstance(field, str):
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
    z = coerce_scalar_or_jet(z)
    _check_form_domain(state, z)
    return state.contract(lambda atom: -atom_deriv_eval(atom, z, 1))


def d_isomorphism(state: SymState) -> SymState:
    """Factorwise differentiation: function monomials to form monomials."""

    def on_atom(atom):
        if atom[0] == "pole":
            _, c, l = atom
            return {("pole", c, l + 1): -l * QI_ONE}
        m = atom[1]
        if m == 0:
            raise DomainError("constant factor has no image under d")
        return {("poly", m - 1): GaussRational(m)}

    return state.map_atoms_linear(on_atom)


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
