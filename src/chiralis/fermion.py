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
    "composite_two_point",
    "KernelBoson",
]


def _wedge(atom, mono):
    """Sorted insertion into a strict exterior monomial: (sign, new) or None."""
    key = atom_sort_key(atom)
    pos = 0
    for existing in mono:
        k = atom_sort_key(existing)
        if k == key:
            return None
        if k < key:
            pos += 1
        else:
            break
    sign = -1 if pos % 2 else 1
    return sign, mono[:pos] + (atom,) + mono[pos:]


class ExtState(LinComb):
    """Linear combination of exterior monomials (strictly sorted tuples)."""

    __slots__ = ()

    def vacuum_coefficient(self):
        return self.terms.get((), QI_ZERO)

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def wedge_front(self, atom, coeff=QI_ONE):
        out = {}
        for mon, c in self.terms.items():
            hit = _wedge(atom, mon)
            if hit is None:
                continue
            sign, new = hit
            term = c * coeff
            add_term(out, new, term if sign > 0 else -term)
        return ExtState(out)

    def contract(self, value_of_atom):
        """Signed contraction: sum_j (-1)^(j-1) value(atom_j) drop_j.

        value_of_atom depends only on the atom, and is evaluated once per
        distinct atom per call (``AtomValues``).
        """
        values = AtomValues(value_of_atom)
        out = {}
        for mon, c in self.terms.items():
            for j, atom in enumerate(mon):
                val = values[atom]
                if val:
                    term = c * val
                    add_term(out, mon[:j] + mon[j + 1:], -term if j % 2 else term)
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
    return psi_i_apply(z, state) + psi_e_apply(z, state)


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
        order = int(-l + Fraction(1, 2))
        return state.wedge_front(("pole", QI_ZERO, order))

    def value(atom):
        if atom[0] == "pole" and atom[1] == QI_ZERO and atom[2] == int(l + Fraction(1, 2)):
            return QI_ONE
        return QI_ZERO

    return state.contract(value)


# ---------------------------------------------------------------------------
# The two-sector ghost system
# ---------------------------------------------------------------------------


class BCState(LinComb):
    """Pairs of exterior monomials: the weight-one sector and its twist dual."""

    __slots__ = ()

    def vacuum_coefficient(self):
        return self.terms.get(((), ()), QI_ZERO)

    def degree(self):
        return max((len(b) + len(c) for b, c in self.terms), default=0)

    def __repr__(self):
        bits = [f"({co})*{list(b)}|{list(c)}" for (b, c), co in self.terms.items()]
        return "BCState(" + (" + ".join(bits) or "0") + ")"


def bc_vacuum() -> BCState:
    return BCState({((), ()): QI_ONE})


def bc_apply(field: str, z, state: BCState) -> BCState:
    """Apply one of the sector fields; Koszul signs cross the first sector."""
    z = GaussRational.coerce(z)
    out = {}
    if field in ("b_e", "c_e"):
        # b_e wedges into the first sector; c_e into the twist sector, whose
        # section reads the kernel in its second slot, minus the pole atom
        # 1/(z - u), and crosses the first sector
        sector = 1 if field == "c_e" else 0
        for key, coeff in state.terms.items():
            hit = _wedge(("pole", z, 1), key[sector])
            if hit is None:
                continue
            sign, mon = hit
            odd = (sign < 0) + (len(key[0]) + 1 if sector else 0)  # the wedge sign, the crossing, the minus
            add_term(out, (key[0], mon) if sector else (mon, key[1]), -coeff if odd % 2 else coeff)
    elif field in ("b_i", "c_i"):
        # b_i contracts the twist sector, crossing the first; c_i the first
        # sector, with a minus sign
        sector = 1 if field == "b_i" else 0
        require_regular((key[sector] for key in state.terms), z)
        values = AtomValues(lambda atom: atom_eval(atom, z))
        for key, coeff in state.terms.items():
            mon, flip = key[sector], len(key[0]) if sector else 1
            for j, atom in enumerate(mon):
                val = values[atom]
                if val:
                    term, rest = coeff * val, mon[:j] + mon[j + 1:]
                    add_term(out, (key[0], rest) if sector else (rest, key[1]),
                             -term if (flip + j) % 2 else term)
    elif field == "b":
        return bc_apply("b_i", z, state) + bc_apply("b_e", z, state)
    elif field == "c":
        return bc_apply("c_i", z, state) + bc_apply("c_e", z, state)
    else:
        raise ValueError(f"unknown sector field {field!r}")
    return BCState(out)


def composite_b_apply(z, state: BCState) -> BCState:
    """The normal-ordered bilinear of the two sector fields at one point."""
    z = GaussRational.coerce(z)
    out = bc_apply("b_i", z, bc_apply("c_i", z, state))
    out = out + bc_apply("b_e", z, bc_apply("c_e", z, state))
    out = out + bc_apply("b_e", z, bc_apply("c_i", z, state))
    out = out - bc_apply("c_e", z, bc_apply("b_i", z, state))
    return out


def composite_two_point(z1, z2) -> GaussRational:
    """Vacuum two-point value of the composite field (double-pole kernel)."""
    state = composite_b_apply(GaussRational.coerce(z1), composite_b_apply(GaussRational.coerce(z2), bc_vacuum()))
    return state.vacuum_coefficient()


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

    def two_point(self, z1, z2):
        state = self.b_apply(z1, self.b_apply(z2, SymState({(): QI_ONE})))
        return state.vacuum_coefficient()
