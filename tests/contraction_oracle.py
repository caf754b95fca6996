"""Per-occurrence contractions, state-by-state Wick sums and unpruned
n-point values: the test oracle.

These are the field applications as they were written before every
contraction read its atom values through one per-call memo
(``states.AtomValues``): each occurrence of an atom is evaluated on its
own, multiplicities are counted by scanning the whole monomial, and the
n-point values are the full compositions and pair-partition sums.  The
boson fields b, b^(k), T and the normal-ordered groups of b-derivatives
are the compositions of evaluation and creation states that the one
Wick kernel (``boson._b_group``) replaced.  The tests compare the
program's versions with them on seeded states with repeated atoms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from chiralis.boson import b_apply, e_apply, e_deriv_apply, i_apply, i_deriv_apply
from chiralis.exactnum import QI_ONE, QI_ZERO
from chiralis.fermion import BCState, ExtState, fermion_vacuum, psi_apply
from chiralis.geometry import atom_deriv_eval, atom_sort_key
from chiralis.lattice import LatticeState
from chiralis.states import SymState, add_term, vacuum


def _sorted_monomial(atoms):
    return tuple(sorted(atoms, key=atom_sort_key))


def sym_contract(state: SymState, value_of_atom) -> SymState:
    out = {}
    for mon, c in state.terms.items():
        for k, atom in enumerate(mon):
            if k and mon[k - 1] == atom:
                continue
            val = value_of_atom(atom)
            if val:
                mult = sum(1 for a in mon if a == atom)
                add_term(out, mon[:k] + mon[k + 1:], c * val * mult)
    return SymState(out)


def sym_derive(state: SymState, fn) -> SymState:
    out = {}
    for mon, c in state.terms.items():
        for k, atom in enumerate(mon):
            if k and mon[k - 1] == atom:
                continue
            mult = sum(1 for a in mon if a == atom)
            for new_atom, w in fn(atom).items():
                add_term(out, _sorted_monomial(mon[:k] + mon[k + 1:] + (new_atom,)), c * w * mult)
    return SymState(out)


def ext_contract(state: ExtState, value_of_atom) -> ExtState:
    out = {}
    for mon, c in state.terms.items():
        for j, atom in enumerate(mon):
            val = value_of_atom(atom)
            if val:
                sign = -1 if j % 2 else 1
                add_term(out, mon[:j] + mon[j + 1:], c * val * sign)
    return ExtState(out)


def bc_contract(field: str, value_of_atom, state: BCState) -> BCState:
    """The b_i (twist sector, crossing the first) and c_i (first sector,
    with a minus sign) contractions, with value_of_atom = atom_eval at z."""
    out = {}
    for (b, c), coeff in state.terms.items():
        if field == "b_i":
            cross = -1 if len(b) % 2 else 1
            for j, atom in enumerate(c):
                sign = -1 if j % 2 else 1
                add_term(out, (b, c[:j] + c[j + 1:]), coeff * value_of_atom(atom) * sign * cross)
        else:
            for j, atom in enumerate(b):
                sign = -1 if j % 2 else 1
                add_term(out, (b[:j] + b[j + 1:], c), -coeff * value_of_atom(atom) * sign)
    return BCState(out)


def lattice_iota(theory, z, state: LatticeState) -> LatticeState:
    """Contraction by -d alpha(z) plus -sqrt(N) (log f)'(z), per term."""
    out = {}
    for (mon, section, tdu), coeff in state.terms.items():
        for i in range(len(mon)):
            if i > 0 and mon[i] == mon[i - 1]:
                continue
            mult = sum(1 for a in mon if a == mon[i])
            val = -atom_deriv_eval(mon[i], z, 1)
            add_term(out, (mon[:i] + mon[i + 1:], section, tdu + 2), coeff * val * mult)
        log_val = section.dlog_value(z)
        if log_val:
            add_term(out, (mon, section, tdu + 2), coeff * theory.sqrtN * (-log_val))
    return LatticeState(theory.N, out)


def boson_npoint_composition(pts):
    """<b(z_1) ... b(z_n)> as the vacuum component of the full composition."""
    state = vacuum()
    for z in reversed(pts):
        state = b_apply(z, state)
    return state.vacuum_coefficient()


def fermion_npoint_composition(pts):
    state = fermion_vacuum()
    for z in reversed(pts):
        state = psi_apply(z, state)
    return state.vacuum_coefficient()


def _pair_partitions(indices):
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for k, second in enumerate(rest):
        for tail in _pair_partitions(rest[:k] + rest[k + 1:]):
            yield [(first, second)] + tail


def wick_sum(pts):
    """Pair-partition sum of products of 1/(z_a - z_b)^2."""
    if len(pts) % 2:
        return QI_ZERO
    total = QI_ZERO
    for pairing in _pair_partitions(list(range(len(pts)))):
        term = QI_ONE
        for a, b in pairing:
            term = term / (pts[a] - pts[b]) ** 2
        total = total + term
    return total


def pfaffian_sum(pts):
    """First-row expansion of the Pfaffian of 1/(z_a - z_b)."""
    if len(pts) % 2:
        return QI_ZERO
    if not pts:
        return QI_ONE
    total = QI_ZERO
    for j in range(1, len(pts)):
        sign = -1 if (j - 1) % 2 else 1
        total = total + sign / (pts[0] - pts[j]) * pfaffian_sum(pts[1:j] + pts[j + 1:])
    return total


def b_deriv_oracle(z, order: int, state: SymState) -> SymState:
    """b^(order) = i^(order) + e^(order): the evaluation state plus the creation state."""
    return i_deriv_apply(z, order, state) + e_deriv_apply(z, order, state)


def T_oracle(z, state: SymState) -> SymState:
    """T = ½ i i + e i + ½ e e, combined from five states."""
    iv = i_apply(z, state)
    return (i_apply(z, iv) + e_apply(z, e_apply(z, state))).scale(Fraction(1, 2)) + e_apply(z, iv)


def b_group_oracle(z, orders, state: SymState) -> SymState:
    """:b^(k_1)...b^(k_n):(z) by Wick's rule, as b = i + e: the sum over
    subsets S of the factors of the e^(k)(z) off S applied after the
    i^(k)(z) on S, one state per subset."""
    out = SymState()
    for in_s in itertools.product((True, False), repeat=len(orders)):
        piece = state
        for k in itertools.compress(orders, in_s):
            piece = i_deriv_apply(z, k, piece)
        for k in itertools.compress(orders, [not x for x in in_s]):
            piece = e_deriv_apply(z, k, piece)
        out = out + piece
    return out
