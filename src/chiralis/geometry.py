"""One-forms of the second kind, vector fields, and bidifferentials.

Forms are stored "hatted": a form is coeff(u)*du in the fixed affine
coordinate u (u = infinity is the base point at infinity).  The canonical
linear basis used throughout:

* ``("pole", c, l)`` with l >= 2  <->  (u-c)^(-l) du   (zero residue)
* ``("poly", m)``   with m >= 0  <->  u^m du

The same tuples with l >= 1 / m >= 1 serve as the basis of functions
vanishing at infinity (resp. of functions modulo constants) in the modules
that need function-valued states.

The two-point kernels are the genus-0 family (u1-u2)^-k: k = 2 is the
invariant bidifferential, k = 1 the Szego kernel.  A kernel is its order;
its sections and values are those of the atom ("pole", u2, k).
"""

from __future__ import annotations

from itertools import combinations
from math import comb, perm

from .exactnum import (
    GaussRational,
    QI_ONE,
    QI_ZERO,
    RatFunc,
    partial_fractions,
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


def atom_ratfunc(atom) -> RatFunc:
    """The atom's coefficient function of u (hatted value)."""
    u = RatFunc.variable()
    if atom[0] == "pole":
        return 1 / (u - atom[1]) ** atom[2]
    return u ** atom[1]


def atom_eval(atom, z):
    """Exact value of the atom's coefficient function at the scalar point z."""
    if atom[0] == "pole":
        base = z - atom[1]
        if not base:
            raise GeometryError(f"atom {atom} has a pole at {z}")
        return base ** -atom[2]
    return z ** atom[1]


def atom_deriv_eval(atom, z, k: int):
    """Value at z of the k-th coordinate derivative of the atom's function.

    Closed form: no rational-function construction, exact at a Q(i) point
    or a jet point z.  k = 0 is ``atom_eval``, with no unit factors.
    """
    if not k:
        return atom_eval(atom, z)
    if atom[0] == "pole":
        _, c, l = atom
        base = z - c
        if not base:
            raise GeometryError(f"atom {atom} has a pole at {z}")
        return (-1) ** k * perm(l + k - 1, k) * base ** -(l + k)
    m = atom[1]
    if k > m:
        return z * 0
    return perm(m, k) * z ** (m - k)


def _loop_product(c1, l1, c2, l2):
    """(u-c1)^-l1 (u-c2)^-l2 expanded in the simple-pole basis.

    Returns [(pole, order, coeff)].  For c1 != c2 this is the binomial
    closed form of the partial fractions: expanding (u-c2)^-l2 around c1,
    the coefficient of (u-c1)^-(l1-j) is C(-l2, j) (c1-c2)^(-l2-j) for
    0 <= j < l1, and symmetrically at c2.  The poles are Q(i) scalars or
    jet points, such as the point 1/t of the current pairing.
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


def _binom(x: int, r: int) -> int:
    """C(x, r) for any integer x and r >= 0."""
    out = 1
    for t in range(r):
        out = out * (x - t) // (t + 1)
    return out


def _pair_residue(x, y, o):
    """Res_{u=o} x(u) y(u) du for two atoms: one binomial times one power."""
    if x[0] == "poly" or (y[0] == "pole" and y[1] == o):
        x, y = y, x
    if x[0] == "poly" or x[1] != o:
        return 0  # no factor has a pole at o
    k = x[2]
    if y[0] == "poly":
        m = y[1]
        return _binom(m, k - 1) * o ** (m - k + 1) if m >= k - 1 else 0
    if y[1] == o:
        return 0
    return _binom(-y[2], k - 1) * (o - y[1]) ** (1 - k - y[2])


def _atom_residue(atoms, atom, o):
    """Res_o f(u) atom(u) du for f = sum g a over the (a, g) in atoms; o None is infinity.

    At infinity this is minus the sum of the finite residues, over the
    poles of f and of the atom.
    """
    if o is None:
        poles = {a[1] for a, _ in atoms if a[0] == "pole"} | ({atom[1]} if atom[0] == "pole" else set())
        return -sum((_atom_residue(atoms, atom, p) for p in poles), QI_ZERO)
    out = QI_ZERO
    for factor, g in atoms:
        r = _pair_residue(factor, atom, o)
        if r and g:
            out = out + g * r
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


def form_to_atoms(f: RatFunc) -> dict:
    """Expand a second-kind coefficient function into form atoms.

    Raises GeometryError when a simple pole (nonzero residue) appears.
    """
    dec = partial_fractions(f)
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

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.xi == other.xi

    def __repr__(self):
        return f"VectorField(({self.xi}) d/du)"


def _all_residues_vanish(coeff: RatFunc) -> bool:
    return all(order != 1 for _, order, _ in partial_fractions(coeff).terms)


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
# Correlation kernels
# ---------------------------------------------------------------------------


class Kernel:
    """The genus-0 two-point kernel (u1-u2)^-k of diagonal order k >= 1.

    ``parity`` (-1)^k is +1 for the symmetric (boson-type) kernels and -1
    for the odd (fermion-type) ones; the top diagonal coefficient is 1.
    """

    __slots__ = ("name", "parity", "diagonal_order")

    def __init__(self, name, order: int):
        if order < 1:
            raise GeometryError(f"kernel {name!r} needs a diagonal pole of order at least 1")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "parity", -1 if order % 2 else 1)
        object.__setattr__(self, "diagonal_order", order)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Kernel is immutable")

    def section_at(self, z) -> RatFunc:
        """K(u, z) = (u-z)^-k as a rational function of u."""
        return atom_ratfunc(("pole", z, self.diagonal_order))

    def value(self, z1, z2):
        return atom_eval(("pole", z2, self.diagonal_order), z1)

    def matching_sum(self, pts):
        """Sum over the perfect matchings of pts of the products of the pair
        values K(z_a, z_b), a < b, signed by the matching's parity for an odd
        kernel: the hafnian or Pfaffian of the pair table, each entry computed once."""
        n = len(pts)
        if n % 2:
            return QI_ZERO
        table = {(a, b): self.value(pts[a], pts[b]) for a, b in combinations(range(n), 2)}

        def expand(idx):
            total = QI_ZERO if idx else QI_ONE
            for j in range(1, len(idx)):
                rest = idx[1:j] + idx[j + 1:]
                term = table[idx[0], idx[j]] * expand(rest) if rest else table[idx[0], idx[j]]
                total = total - term if self.parity < 0 and not j % 2 else total + term
            return total

        return expand(tuple(range(n)))


def bergman_genus0() -> Kernel:
    return Kernel("bergman_genus0", 2)


def szego_genus0() -> Kernel:
    return Kernel("szego_genus0", 1)


def kernel_by_name(name: str) -> Kernel:
    if name == "bergman_genus0":
        return bergman_genus0()
    if name == "szego_genus0":
        return szego_genus0()
    raise GeometryError(f"unknown kernel {name!r}")
