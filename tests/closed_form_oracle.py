"""Closed forms, contour residues and test-only helpers: the expected sides.

The paper's statements are identities: correlation values against closed
forms, pairings against contour residues, Gram entries against permutation
sums.  The program computes the left-hand sides; the right-hand sides live
here, apart from the code they check.  They are:

* the current three- and four-point closed forms, and the degree-one
  current pairing as a sum of residues inside the disc (through
  ``residue_at`` on a ``RatFunc``, not the program's atom kernel);
* the composite boson's vacuum two-point value, read off the composite
  field;
* the permutation-sum Gram entry of creation states, the single-form
  pairing as finite residues of an antiderivative times the form, and the
  dual-side oscillator modes as ``heis_P_local_apply`` of a monomial;
* the antiderivative of a second-kind form, an atom's coefficient
  function as a ``RatFunc``, the genus-0 kernels by name, a seeded point
  of the open unit disc and the JSON encoding of a rational function,
  which only the tests build.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from chiralis.current import _as_elem
from chiralis.exactnum import QI_ONE, QI_ZERO, GaussRational, RatFunc, partial_fractions, residue_at
from chiralis.fermion import bc_vacuum, composite_b_apply
from chiralis.geometry import Form, GeometryError, Kernel, atom_product, bergman_genus0, szego_genus0
from chiralis.pairing import heis_P_local_apply
from chiralis.serialize import scalar_to_str
from chiralis.states import DomainError, SymState

_U = RatFunc.variable(QI_ONE)


# ---------------------------------------------------------------------------
# Currents
# ---------------------------------------------------------------------------


def three_point_closed_form(algebra, vs, points):
    v1, v2, v3 = (_as_elem(algebra, v) for v in vs)
    z1, z2, z3 = (GaussRational.coerce(p) for p in points)
    num = algebra.pair(v1, algebra.bracket(v2, v3))
    return num / ((z1 - z2) * (z1 - z3) * (z2 - z3))


def four_point_closed_form(algebra, vs, points):
    v = [_as_elem(algebra, x) for x in vs]
    z = [GaussRational.coerce(p) for p in points]

    def g(i, j):
        return algebra.pair(v[i], v[j])

    def gb(i, j, k, l):
        return algebra.pair(algebra.bracket(v[i], v[j]), algebra.bracket(v[k], v[l]))

    total = g(0, 1) * g(2, 3) / ((z[0] - z[1]) ** 2 * (z[2] - z[3]) ** 2)
    total = total + g(0, 2) * g(1, 3) / ((z[0] - z[2]) ** 2 * (z[1] - z[3]) ** 2)
    total = total + g(0, 3) * g(1, 2) / ((z[0] - z[3]) ** 2 * (z[1] - z[2]) ** 2)
    total = total + gb(0, 1, 2, 3) / (
        (z[0] - z[1]) * (z[1] - z[2]) * (z[1] - z[3]) * (z[2] - z[3])
    )
    total = total - gb(0, 2, 1, 3) / (
        (z[0] - z[2]) * (z[1] - z[2]) * (z[1] - z[3]) * (z[2] - z[3])
    )
    total = total + gb(0, 3, 1, 2) / (
        (z[0] - z[3]) * (z[2] - z[3]) * (z[1] - z[3]) * (z[1] - z[2])
    )
    return total


def residue_pair_degree_one(algebra, dual_gen, gen):
    """Degree-one contour realization: minus the sum of the residues inside
    the disc of (u/(1 - c~ u))^l d(u-c)^-m, times (a, b).

    The dual generator's u-chart function (u/(1 - c~ u))^l has its poles at
    1/c~ (none for c~ = 0), and d(u-c)^-m = -m (u-c)^-(m+1) du has its pole
    at c; each residue comes from ``residue_at`` on the product."""
    a, ctil, l = dual_gen
    b, c, m = gen
    g = algebra.form.get((a, b), QI_ZERO)
    if not g:
        return QI_ZERO
    f = (_U / (1 - ctil * _U)) ** l / (_U - c) ** (m + 1)
    poles = {c, 1 / ctil} if ctil else {c}
    return g * m * sum((residue_at(f, p) for p in poles if p.norm() < 1), QI_ZERO)


# ---------------------------------------------------------------------------
# Fermions
# ---------------------------------------------------------------------------


def composite_two_point(z1, z2) -> GaussRational:
    """Vacuum two-point value of the composite field (double-pole kernel)."""
    state = composite_b_apply(GaussRational.coerce(z1), composite_b_apply(GaussRational.coerce(z2), bc_vacuum()))
    return state.vacuum_coefficient()


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------


def gram_entry_closed_form(ys, zs):
    """Permutation-sum closed form of the inner product of creation states."""
    if len(ys) != len(zs):
        return QI_ZERO
    total = QI_ZERO
    for sigma in itertools.permutations(range(len(ys))):
        term = QI_ONE
        for i, z in enumerate(zs):
            term = term / (1 - z * ys[sigma[i]].conjugate()) ** 2
        total = total + term
    return total


def _atom_antiderivative(atom):
    """(F, w): w F is the antiderivative of the form atom, (u-c)^(1-l)/(1-l) or u^(m+1)/(m+1)."""
    if atom[0] == "poly":
        return ("poly", atom[1] + 1), Fraction(1, atom[1] + 1)
    if atom[2] == 1:
        raise GeometryError("not a second-kind form: simple pole present")
    return ("pole", atom[1], atom[2] - 1), Fraction(1, 1 - atom[2])


def single_form_residue_pairing(dual_form: SymState, form: SymState):
    """Contour realization of the degree-1 pairing: sum of finite residues
    of (antiderivative of the dual form) times the form.  The residues are
    the simple-pole coefficients of the atom product (``atom_product``)."""
    total = QI_ZERO
    for dmon, dc in dual_form.terms.items():
        if len(dmon) != 1:
            raise DomainError("single-form pairing needs degree-1 inputs")
        for mon, c in form.terms.items():
            if len(mon) != 1:
                raise DomainError("single-form pairing needs degree-1 inputs")
            F, w = _atom_antiderivative(dmon[0])
            for p, co in atom_product(F, mon[0]):
                if p[0] == "pole" and p[2] == 1:
                    total = total + dc * c * w * co
    return total


def dual_mode_apply(l: int, dual: SymState) -> SymState:
    """The dual-side oscillator modes on infinity-supported states."""
    return heis_P_local_apply(_U ** l if l >= 0 else 1 / _U ** (-l), dual)


# ---------------------------------------------------------------------------
# Geometry, sampling and serialization
# ---------------------------------------------------------------------------


def antiderivative(form: Form | RatFunc) -> RatFunc:
    """The function whose derivative is the form's coefficient.

    Normalized so the polynomial part has no constant term.
    """
    coeff = form.coeff if isinstance(form, Form) else form
    dec = partial_fractions(coeff)
    out = RatFunc.const(QI_ZERO)
    for c, order, co in dec.terms:
        if order == 1:
            raise GeometryError("not a second-kind form: simple pole present")
        out = out + co / ((1 - order) * (_U - c) ** (order - 1))
    for m, co in enumerate(dec.polynomial.coeffs):
        if co:
            out = out + co * _U ** (m + 1) / (m + 1)
    return out


def atom_ratfunc(atom) -> RatFunc:
    """The atom's coefficient function of u (hatted value)."""
    if atom[0] == "pole":
        return 1 / (_U - atom[1]) ** atom[2]
    return _U ** atom[1]


def kernel_by_name(name: str) -> Kernel:
    if name == "bergman_genus0":
        return bergman_genus0()
    if name == "szego_genus0":
        return szego_genus0()
    raise GeometryError(f"unknown kernel {name!r}")


def rand_disc_point(rng: random.Random) -> GaussRational:
    """A point with |u|^2 < 1 exactly."""
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(4, 7))
        im = Fraction(rng.randint(-3, 3), rng.randint(4, 7)) if rng.random() < 0.5 else Fraction(0)
        p = GaussRational(re, im)
        if p.norm() < 1:
            return p


def ratfunc_to_json(f: RatFunc) -> dict:
    return {
        "num": [scalar_to_str(c) for c in f.num.coeffs],
        "den": [scalar_to_str(c) for c in f.den.coeffs],
    }
