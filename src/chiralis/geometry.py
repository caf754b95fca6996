"""One-forms of the second kind, vector fields, and bidifferentials.

Forms are stored "hatted": a form is coeff(u)*du in the fixed affine
coordinate u (u = infinity is the base point at infinity).  The canonical
linear basis used throughout:

* ``("pole", c, l)`` with l >= 2  <->  (u-c)^(-l) du   (zero residue)
* ``("poly", m)``   with m >= 0  <->  u^m du

The same tuples with l >= 1 / m >= 1 serve as the basis of functions
vanishing at infinity (resp. of functions modulo constants) in the modules
that need function-valued states.

Bivariate objects (the invariant bidifferential and its Lie derivatives)
are realized as rational functions in an outer variable u1 whose scalars
are rational functions in the inner variable u2.
"""

from __future__ import annotations

from math import comb

from .exactnum import (
    GaussRational,
    Poly,
    QI_ONE,
    QI_ZERO,
    RatFunc,
    gauss_rational_roots,
    local_expansion,
    partial_fractions,
    partial_fractions_known,
    residue_at,
)

__all__ = [
    "GeometryError",
    "atom_sort_key",
    "atom_ratfunc",
    "atom_eval",
    "atom_product",
    "atom_derivative",
    "dec_atoms",
    "lie_atom",
    "form_to_atoms",
    "Form",
    "VectorField",
    "is_second_kind",
    "antiderivative",
    "lie_derivative",
    "interior_product",
    "mobius_pushforward",
    "omega_bifunction",
    "omega_x_bifunction",
    "lie_derivative_bidiff",
    "bifunction_atom_matrix",
    "Kernel",
    "bergman_genus0",
    "szego_genus0",
    "kernel_by_name",
]


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Basis atoms
# ---------------------------------------------------------------------------


def atom_sort_key(atom):
    if atom[0] == "pole":
        return (0, atom[1].sort_key(), atom[2])
    return (1, atom[1])


def atom_ratfunc(atom, one=QI_ONE) -> RatFunc:
    """The atom's coefficient function of u (hatted value)."""
    u = RatFunc.variable(one)
    if atom[0] == "pole":
        return 1 / (u - atom[1]) ** atom[2]
    return u ** atom[1]


def atom_eval(atom, z):
    """Exact value of the atom's coefficient function at the scalar point z."""
    if atom[0] == "pole":
        base = z - atom[1]
        if not base:
            raise GeometryError(f"atom {atom} has a pole at {z}")
        return 1 / base ** atom[2]
    return z ** atom[1]


def atom_deriv_eval(atom, z, k: int):
    """Value at z of the k-th coordinate derivative of the atom's function.

    Closed form: no rational-function construction, exact in any scalar
    field containing z.
    """
    if atom[0] == "pole":
        _, c, l = atom
        base = z - c
        if not base:
            raise GeometryError(f"atom {atom} has a pole at {z}")
        rising = 1
        for j in range(k):
            rising *= l + j
        sign = -1 if k % 2 else 1
        return sign * rising / base ** (l + k)
    m = atom[1]
    if k > m:
        return z * 0
    falling = 1
    for j in range(k):
        falling *= m - j
    return falling * z ** (m - k)


def _loop_product(c1, l1, c2, l2):
    """(u-c1)^-l1 (u-c2)^-l2 expanded in the simple-pole basis.

    Returns [(pole, order, coeff)].  For c1 != c2 this is the binomial
    closed form of the partial fractions: expanding (u-c2)^-l2 around c1,
    the coefficient of (u-c1)^-(l1-j) is C(-l2, j) (c1-c2)^(-l2-j) for
    0 <= j < l1, and symmetrically at c2.  The poles may be scalars of any
    field, such as the symbolic point 1/t of Q(i)(t).
    """
    if c1 == c2:
        return [(c1, l1 + l2, QI_ONE)]
    return _pole_part_of_product(c1, l1, c2, l2) + _pole_part_of_product(c2, l2, c1, l1)


def _pole_part_of_product(a, la, b, lb):
    """Pole part at a of (u-a)^-la (u-b)^-lb, highest order first."""
    inv = 1 / (a - b)
    power = inv ** lb
    binom = 1  # C(-lb, j)
    out = []
    for j in range(la):
        out.append((a, la - j, binom * power))
        binom = binom * -(lb + j) // (j + 1)
        power = power * inv
    return out


def atom_product(x, y) -> list:
    """The product of two function atoms, ("pole", c, k >= 1) or ("poly", m >= 0).

    Returns [(atom, coeff)] in the same basis.  Binomial closed forms:
    u^m (u-c)^-k has the pole part sum_{i<k} C(m, i) c^(m-i) (u-c)^(i-k),
    from u = (u-c) + c, and the polynomial part
    sum_t C(k+t-1, t) c^t u^(m-k-t), from its expansion at infinity.
    """
    if x[0] == "poly" and y[0] == "poly":
        return [(("poly", x[1] + y[1]), QI_ONE)]
    if x[0] == "poly":
        x, y = y, x
    _, c, k = x
    if y[0] == "pole":
        return [(("pole", p, l), co) for p, l, co in _loop_product(c, k, y[1], y[2])]
    m = y[1]
    out = [(("pole", c, k - i), comb(m, i) * c ** (m - i)) for i in range(min(k, m + 1))]
    out += [(("poly", m - k - t), comb(k + t - 1, t) * c ** t) for t in range(m - k + 1)]
    return out


def atom_derivative(atom):
    """(atom', w) with d atom = w atom': d(u-c)^-k = -k (u-c)^-(k+1), d u^m = m u^(m-1)."""
    if atom[0] == "pole":
        return ("pole", atom[1], atom[2] + 1), -atom[2]
    return ("poly", atom[1] - 1), atom[1]


def dec_atoms(dec) -> list:
    """Partial fractions sum p_n u^n + sum g (u-a)^-j as [(function atom, coeff)]."""
    out = [(("poly", n), p) for n, p in enumerate(dec.polynomial.coeffs) if p]
    return out + [(("pole", a, j), g) for a, j, g in dec.terms]


def lie_atom(dec, atom) -> dict:
    """L_xi(atom du) = d(xi atom) in form atoms, from xi's partial fractions dec."""
    out: dict = {}
    for factor, g in dec_atoms(dec):
        for f, co in atom_product(factor, atom):
            df, w = atom_derivative(f)
            if w and co:
                out[df] = out.get(df, QI_ZERO) + g * co * w
    return {df: c for df, c in out.items() if c}


def form_to_atoms(f: RatFunc, poles=None) -> dict:
    """Expand a second-kind coefficient function into form atoms.

    ``poles``: optional known pole locations (skips root finding).
    Raises GeometryError when a simple pole (nonzero residue) appears.
    """
    if poles is None:
        dec = partial_fractions(f)
    else:
        dec = partial_fractions_known(f, poles)
    out = {}
    for c, order, coeff in dec.terms:
        if order == 1:
            raise GeometryError("form has a nonzero residue (not second kind)")
        out[("pole", c, order)] = coeff
    for m, coeff in enumerate(dec.polynomial.coeffs):
        if coeff:
            out[("poly", m)] = coeff
    return out


# ---------------------------------------------------------------------------
# Forms and vector fields
# ---------------------------------------------------------------------------


class Form:
    """A one-form coeff(u) * du of the second kind."""

    __slots__ = ("coeff",)

    def __init__(self, coeff: RatFunc, *, check=True):
        if check and not _all_residues_vanish(coeff):
            raise GeometryError("not a second-kind form (nonzero residue)")
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Form is immutable")

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.coeff == other.coeff

    def __hash__(self):
        return hash(("form", self.coeff))

    def __repr__(self):
        return f"Form(({self.coeff}) du)"


class VectorField:
    """A meromorphic vector field xi(u) * d/du."""

    __slots__ = ("xi",)

    def __init__(self, xi: RatFunc):
        object.__setattr__(self, "xi", xi)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("VectorField is immutable")

    def is_regular_everywhere(self) -> bool:
        return self.xi.den.degree == 0 and self.xi.num.degree <= 2

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.xi == other.xi

    def __repr__(self):
        return f"VectorField(({self.xi}) d/du)"


def _all_residues_vanish(coeff: RatFunc) -> bool:
    if coeff.is_zero():
        return True
    for c in gauss_rational_roots(coeff.den):
        if residue_at(coeff, c):
            return False
    return True


def is_second_kind(form: Form | RatFunc) -> bool:
    coeff = form.coeff if isinstance(form, Form) else form
    return _all_residues_vanish(coeff)


def antiderivative(form: Form | RatFunc) -> RatFunc:
    """The function whose derivative is the form's coefficient.

    Normalized so the polynomial part has no constant term.
    """
    coeff = form.coeff if isinstance(form, Form) else form
    dec = partial_fractions(coeff)
    u = RatFunc.variable(QI_ONE)
    out = RatFunc.const(QI_ZERO)
    for c, order, co in dec.terms:
        if order == 1:
            raise GeometryError("not a second-kind form: simple pole present")
        out = out + co / ((1 - order) * (u - c) ** (order - 1))
    for m, co in enumerate(dec.polynomial.coeffs):
        if co:
            out = out + co * u ** (m + 1) / (m + 1)
    return out


def lie_derivative(X: VectorField, form: Form) -> Form:
    """L_X (a du) = (xi a' + xi' a) du."""
    a = form.coeff
    out = X.xi * a.derivative() + X.xi.derivative() * a
    return Form(out, check=False)


def interior_product(X: VectorField, form: Form) -> RatFunc:
    """i_X (a du) = xi a."""
    return X.xi * form.coeff


def mobius_pushforward(matrix, form: Form) -> Form:
    """Transport a form along the automorphism u -> (a u + b)/(c u + d)."""
    a, b, c, d = (GaussRational.coerce(x) for x in matrix)
    det = a * d - b * c
    if not det:
        raise GeometryError("singular Mobius matrix")
    # pushforward = pullback along the inverse map (d u - b)/(-c u + a)
    p, q, r, s = d, -b, -c, a
    f = form.coeff.compose_mobius(p, q, r, s)
    u = RatFunc.variable(QI_ONE)
    jac = (p * s - q * r) / (r * u + s) ** 2
    return Form(f * jac, check=False)


# ---------------------------------------------------------------------------
# Bivariate machinery
# ---------------------------------------------------------------------------


def outer_variable() -> RatFunc:
    return RatFunc.variable(RatFunc.const(QI_ONE))


def inner_variable() -> RatFunc:
    return RatFunc.variable(QI_ONE)


def subst(f: RatFunc, value):
    """f evaluated at an arbitrary scalar-like value (exact substitution)."""
    top = f.num.evaluate(value)
    bot = f.den.evaluate(value)
    return top / bot


def omega_bifunction() -> RatFunc:
    """The invariant bidifferential 1/(u1-u2)^2 (hatted)."""
    x = outer_variable()
    w = inner_variable()
    return 1 / ((x - w) * (x - w))


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
    out = []
    for row in rows:
        out.append(list((Poly(row) * inner_poly).coeffs))
    return out


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


def bifunction_atom_matrix(F: RatFunc, poles=None) -> dict:
    """Expand F(u1,u2) as sum c[(a1,a2)] * a1(u1) * a2(u2) over form atoms.

    Requires F to have constant (u2-independent) pole locations in u1;
    ``poles`` may supply them, otherwise they are found from the inner
    content of the denominator.
    """
    if poles is None:
        poles = _constant_outer_poles(F)
    one_inner = RatFunc.const(QI_ONE)
    lifted_poles = [RatFunc.const(p) if not isinstance(p, RatFunc) else p for p in poles]
    dec = partial_fractions_known(F, lifted_poles)
    out = {}

    def base_scalar(v):
        if isinstance(v, GaussRational):
            return v
        return GaussRational.coerce(v)

    def add_inner(atom1, inner_coeff: RatFunc):
        inner_dec = partial_fractions(inner_coeff)
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
    from fractions import Fraction

    for probe in (GaussRational(Fraction(7, 13)), GaussRational(Fraction(19, 11))):
        specialized = Poly([_spec_inner(c, probe) for c in den.coeffs])
        roots = set()
        for r in gauss_rational_roots(specialized):
            roots.add(r)
        consts.append(roots)
    return sorted(consts[0] & consts[1], key=lambda s: s.sort_key())


def _spec_inner(c, value):
    if isinstance(c, RatFunc):
        return subst(c, value)
    return c


# ---------------------------------------------------------------------------
# Correlation kernels
# ---------------------------------------------------------------------------


class Kernel:
    """A two-point kernel given as a closed-form bivariate rational function.

    ``parity`` is +1 for symmetric (boson-type) kernels and -1 for odd
    (fermion-type) kernels; ``diagonal_order`` is the diagonal pole order
    whose top coefficient must be 1.
    """

    __slots__ = ("name", "bifunction", "parity", "diagonal_order")

    def __init__(self, name, bifunction: RatFunc, parity: int, diagonal_order: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "bifunction", bifunction)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "diagonal_order", diagonal_order)
        self.validate()

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Kernel is immutable")

    def validate(self):
        swapped = swap_bifunction(self.bifunction)
        expected = self.bifunction if self.parity > 0 else -self.bifunction
        if swapped != expected:
            raise GeometryError(f"kernel {self.name!r} fails its exchange symmetry")
        w = inner_variable()
        m, coeffs = local_expansion(self.bifunction, RatFunc(Poly([QI_ZERO, QI_ONE])), 0)
        # expansion of F(u1, u2) at u1 = u2: leading coefficient must be 1
        if m != self.diagonal_order or coeffs[0] != RatFunc.const(QI_ONE):
            raise GeometryError(
                f"kernel {self.name!r} has wrong diagonal behaviour"
            )

    def section_at(self, z) -> RatFunc:
        """K(u, z) as a rational function of u (exact substitution of u2=z)."""
        def specialize(p: Poly) -> Poly:
            return Poly([_spec_inner(c, z) for c in p.coeffs])

        return RatFunc(specialize(self.bifunction.num), specialize(self.bifunction.den))

    def value(self, z1, z2):
        return subst(self.section_at(z2), z1)


def bergman_genus0() -> Kernel:
    return Kernel("bergman_genus0", omega_bifunction(), +1, 2)


def szego_genus0() -> Kernel:
    x = outer_variable()
    w = inner_variable()
    return Kernel("szego_genus0", 1 / (x - w), -1, 1)


def kernel_by_name(name: str) -> Kernel:
    if name == "bergman_genus0":
        return bergman_genus0()
    if name == "szego_genus0":
        return szego_genus0()
    raise GeometryError(f"unknown kernel {name!r}")
