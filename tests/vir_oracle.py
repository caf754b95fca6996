"""The generic Virasoro action: the test oracle for the closed forms.

``symmetry.vir_apply`` and ``boson.lie_action`` act on basis atoms by
binomial closed forms.  This module computes the same action the generic
way, on rational functions:

* pairs: ``residue_at`` of xi a_i a_j at the site;
* Lie term: ``form_to_atoms`` of (xi a)', with xi's poles found by root
  search, projected to the site;
* creation: the symmetric state of the Lie derivative of the invariant
  bidifferential omega = du1 du2/(u1-u2)^2 along the doubled singular part
  of xi (``lie_derivative_bidiff`` -> ``bifunction_atom_matrix``).

The generic creation costs seconds per call, and on a singular part with
two poles its pole search can fail, so ``vir_apply_oracle(..., split=True)``
sums the creation over the pole parts one pole at a time.
"""

from __future__ import annotations

from fractions import Fraction

from chiralis.exactnum import (
    QI_ONE,
    QI_ZERO,
    RatFunc,
    gauss_rational_roots,
    partial_fractions,
    residue_at,
)
from chiralis.geometry import (
    VectorField,
    atom_ratfunc,
    atom_sort_key,
    bifunction_atom_matrix,
    form_to_atoms,
    lie_derivative_bidiff,
    omega_bifunction,
)
from chiralis.states import SymState, add_term

_CREATION: dict = {}


def _creation_state(xi_part: RatFunc) -> SymState:
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


def singular_parts(xi: RatFunc, site) -> dict:
    """{pole c: the pole part of xi at c} for the poles that create at the site."""
    u = RatFunc.variable(QI_ONE)
    parts: dict = {}
    for c, order, coeff in partial_fractions(xi).terms:
        if site.is_infinity or c == site.value:
            parts[c] = parts.get(c, RatFunc.const(QI_ZERO)) + coeff / (u - c) ** order
    return parts


def lie_image(xi: RatFunc, atom) -> dict:
    """L_xi(atom du) in form atoms, through RatFunc arithmetic."""
    a = atom_ratfunc(atom)
    poles = list(gauss_rational_roots(xi.den))
    if atom[0] == "pole":
        poles.append(atom[1])
    return form_to_atoms(xi * a.derivative() + xi.derivative() * a, poles=poles)


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
        parts = [sum(parts, RatFunc.const(QI_ZERO))]
    for part in parts:
        out = out + state.multiply(_creation_state(part))
    return out
