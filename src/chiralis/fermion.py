"""Neutral fermion, the two-sector ghost system, and kernel-driven bosons.

Fermionic states are exterior monomials over half-form coefficient atoms
(the same pole/monomial tuples as everywhere else, read against the
square-root trivialization); signs are normalized by sorted insertion.
The two-sector system carries one exterior factor per twist, with the
crossing sign between sectors tracked explicitly.  The kernels are the
genus-0 family (u1-u2)^-k: the odd k = 1 behind the fermion fields, the
symmetric k = 2 behind the kernel-driven bosons.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .exactnum import GaussRational, QI_ONE, QI_ZERO
from .geometry import Kernel, atom_eval, atom_sort_key, szego_genus0
from .states import (AtomValues, DomainError, LinComb, SymState, add_term, drop_above_degree,
                     require_distinct, require_regular)

__all__ = [
    "ExtState",
    "fermion_vacuum",
    "psi_e_apply",
    "psi_i_apply",
    "psi_apply",
    "fermion_npoint",
    "fermion_npoint_operator",
    "mode_psi",
    "BCState",
    "bc_vacuum",
    "bc_apply",
    "composite_b_apply",
    "KernelBoson",
]


def _wedge(atom, mono):
    """Sorted insertion into a strict exterior monomial: (sign, new) or None."""
    pos = bisect_left(mono, atom_sort_key(atom), key=atom_sort_key)
    if pos < len(mono) and mono[pos] == atom:
        return None
    sign = -1 if pos % 2 else 1
    return sign, mono[:pos] + (atom,) + mono[pos:]


class ExtState(LinComb):
    """Linear combination of exterior monomials (strictly sorted tuples)."""

    __slots__ = ()

    def vacuum_coefficient(self):
        return self.terms.get((), QI_ZERO)

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def wedge_front(self, atom):
        return self.contract(None, ((atom, QI_ONE),))

    def contract(self, value_of_atom, creation=()):
        """Signed contraction sum_j (-1)^(j-1) value(atom_j) drop_j, plus
        the wedge from the front with sum g * atom over the (atom, g) pairs
        of creation, in one term dict; value_of_atom None contracts nothing.

        value_of_atom depends only on the atom, and is evaluated once per
        distinct atom per call (``AtomValues``).
        """
        out = {}
        if value_of_atom is not None:
            values = AtomValues(value_of_atom)
            for mon, c in self.terms.items():
                for j, atom in enumerate(mon):
                    val = values[atom]
                    if val:
                        term = c * val
                        add_term(out, mon[:j] + mon[j + 1:], -term if j % 2 else term)
        for atom, g in creation:
            for mon, c in self.terms.items():
                hit = _wedge(atom, mon)
                if hit is not None:
                    term = c * g
                    add_term(out, hit[1], term if hit[0] > 0 else -term)
        return ExtState(out)

    def __repr__(self):
        bits = [f"({c})*{list(m)}" for m, c in self.terms.items()]
        return "ExtState(" + (" + ".join(bits) or "0") + ")"


def fermion_vacuum() -> ExtState:
    return ExtState({(): QI_ONE})


# ---------------------------------------------------------------------------
# The neutral fermion
# ---------------------------------------------------------------------------


def psi_e_apply(z, state: ExtState) -> ExtState:
    """Wedge with the simple-pole half-form section at z."""
    return state.wedge_front(("pole", GaussRational.coerce(z), 1))


def psi_i_apply(z, state: ExtState) -> ExtState:
    z = GaussRational.coerce(z)
    require_regular(state.terms, z)
    return state.contract(lambda atom: atom_eval(atom, z))


def psi_apply(z, state: ExtState) -> ExtState:
    """psi = psi_i + psi_e: the contraction and the wedge in one state."""
    z = GaussRational.coerce(z)
    require_regular(state.terms, z)
    return state.contract(lambda atom: atom_eval(atom, z), ((("pole", z, 1), QI_ONE),))


def fermion_npoint(points) -> GaussRational:
    """Signed pair-partition sum of the odd kernel 1/(z_a - z_b)."""
    pts = [GaussRational.coerce(p) for p in points]
    require_distinct(pts)
    return szego_genus0().matching_sum(pts)


def fermion_npoint_operator(points) -> GaussRational:
    """Vacuum component of the composed field product, degree-bounded as in
    ``boson.npoint_operator``."""
    pts = [GaussRational.coerce(p) for p in points]
    require_distinct(pts)
    state = fermion_vacuum()
    for left in range(len(pts) - 1, -1, -1):
        state = drop_above_degree(psi_apply(pts[left], state), left)
    return state.vacuum_coefficient()


def mode_psi(l, state: ExtState) -> ExtState:
    """Half-integer modes: negative wedge, positive contract."""
    l = Fraction(l)
    if l.denominator != 2:
        raise ValueError("modes are indexed by half-odd integers")
    if l < 0:
        return state.wedge_front(("pole", QI_ZERO, int(-l + Fraction(1, 2))))
    target = ("pole", QI_ZERO, int(l + Fraction(1, 2)))
    return state.contract(lambda atom: QI_ONE if atom == target else QI_ZERO)


# ---------------------------------------------------------------------------
# The two-sector ghost system
# ---------------------------------------------------------------------------


class BCState(LinComb):
    """Pairs of exterior monomials: the weight-one sector and its twist dual."""

    __slots__ = ()

    def vacuum_coefficient(self):
        return self.terms.get(((), ()), QI_ZERO)

    def __repr__(self):
        bits = [f"({co})*{list(b)}|{list(c)}" for (b, c), co in self.terms.items()]
        return "BCState(" + (" + ".join(bits) or "0") + ")"


def bc_vacuum() -> BCState:
    return BCState({((), ()): QI_ONE})


# the parts of the sector fields: (the sector acted on, whether it contracts)
_PARTS = {"b_e": (0, False), "c_i": (0, True), "c_e": (1, False), "b_i": (1, True)}
_FIELDS = {"b": ("b_i", "b_e"), "c": ("c_i", "c_e"), **{part: (part,) for part in _PARTS}}


def _sector_part(part, z, values, terms: dict, out: dict, parity=0) -> None:
    """Accumulate (-1)^parity part(z) applied to a term dict into out.

    b_e wedges the pole atom at z into the first sector; c_e into the twist
    sector, whose section reads the kernel in its second slot, minus it.
    b_i contracts the twist sector and c_i, with a minus sign, the first,
    by values[atom] = atom(z).  A part on the twist sector crosses the first.
    """
    sector, contracts = _PARTS[part]
    if contracts:
        require_regular((key[sector] for key in terms), z)
    for key, coeff in terms.items():
        mon = key[sector]
        odd = parity + (len(key[0]) if sector else 0) + (part[0] == "c")  # the crossing, the minus
        if contracts:
            for j, atom in enumerate(mon):
                val = values[atom]
                if val:
                    term, rest = coeff * val, mon[:j] + mon[j + 1:]
                    add_term(out, (key[0], rest) if sector else (rest, key[1]),
                             -term if (odd + j) % 2 else term)
            continue
        hit = _wedge(("pole", z, 1), mon)
        if hit is not None:
            sign, new = hit
            add_term(out, (key[0], new) if sector else (new, key[1]),
                     -coeff if (odd + (sign < 0)) % 2 else coeff)


def bc_apply(field: str, z, state: BCState) -> BCState:
    """Apply b_e, b_i, c_e, c_i, b = b_i + b_e or c = c_i + c_e."""
    z = GaussRational.coerce(z)
    if field not in _FIELDS:
        raise ValueError(f"unknown sector field {field!r}")
    values = AtomValues(lambda atom: atom_eval(atom, z))
    out = {}
    for part in _FIELDS[field]:
        _sector_part(part, z, values, state.terms, out)
    return BCState(out)


def composite_b_apply(z, state: BCState) -> BCState:
    """The normal-ordered bilinear of the two sector fields at one point:
    b_e c + b_i c_i - c_e b_i."""
    z = GaussRational.coerce(z)
    values = AtomValues(lambda atom: atom_eval(atom, z))
    c, b_i, out = {}, {}, {}
    # c holds c_i(state) when b_i reads it, then c(state) when b_e does
    _sector_part("c_i", z, values, state.terms, c)
    _sector_part("b_i", z, values, c, out)
    _sector_part("c_e", z, values, state.terms, c)
    _sector_part("b_e", z, values, c, out)
    _sector_part("b_i", z, values, state.terms, b_i)
    _sector_part("c_e", z, values, b_i, out, parity=1)
    return BCState(out)


# ---------------------------------------------------------------------------
# Kernel-parametrized boson
# ---------------------------------------------------------------------------


class KernelBoson:
    """Boson fields built from the symmetric double-pole kernel (u1-u2)^-2.

    This reproduces the standard boson operator for operator: the
    creation at z multiplies by minus the kernel's section, the form atom
    ("pole", z, 2).
    """

    def __init__(self, kernel: Kernel):
        if kernel.parity != 1 or kernel.diagonal_order != 2:
            raise DomainError("boson construction needs a symmetric double-pole kernel")
        self.kernel = kernel

    def e_apply(self, z, state: SymState) -> SymState:
        return state.multiply_atom(("pole", GaussRational.coerce(z), 2), -QI_ONE)

    def i_apply(self, z, state: SymState) -> SymState:
        from .boson import i_apply as plain_i

        return plain_i(z, state)

    def b_apply(self, z, state: SymState) -> SymState:
        return self.i_apply(z, state) + self.e_apply(z, state)
