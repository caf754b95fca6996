"""Per-occurrence contractions, state-by-state Wick sums and unpruned
n-point values: the test oracle.

These are the field applications as they were written before every
contraction read its atom values through one per-call memo
(``states.AtomValues``): each occurrence of an atom is evaluated on its
own, multiplicities are counted by scanning the whole monomial, and the
n-point values are the full compositions and pair-partition sums.  The
boson fields b, b^(k), T and the normal-ordered groups of b-derivatives
are the compositions of evaluation and creation states that the one
Wick kernel (``boson._b_group``) replaced.  The Heisenberg operators, at
a site and with insertions, are the contraction plus one product state
per pole part plus one scaled copy for the scalar part, which one call
of ``SymState.contract`` replaced; their values come from ``residue_at``
on a fresh partial-fraction split.  The fermion fields are the sums of
their parts that the one sector kernel (``fermion._sector_part``) and the
contract-and-wedge call of ``ExtState.contract`` replaced: b = b_i + b_e
and c = c_i + c_e as two states, the composite field as its four
compositions, and psi = psi_i + psi_e; each wedge counts the atoms it moves
past instead of inserting by bisection.  The boson's d isomorphism is the
generic factorwise substitution ``map_atoms_linear``, which
``boson.d_isomorphism`` replaced by one image atom per atom.  The tests
compare the program's versions with them on seeded states with repeated
atoms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from chiralis.boson import b_apply, e_apply, e_deriv_apply, i_apply, i_deriv_apply
from chiralis.exactnum import INFINITY, QI_ONE, QI_ZERO, GaussRational, partial_fractions, residue_at
from chiralis.fermion import BCState, ExtState, fermion_vacuum, psi_apply
from chiralis.geometry import atom_deriv_eval, atom_eval, atom_sort_key
from chiralis.lattice import LatticeState
from chiralis.states import DomainError, SymState, add_term, require_regular, vacuum

from closed_form_oracle import atom_ratfunc


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


def map_atoms_linear(state: SymState, fn) -> SymState:
    """Apply an atom-wise linear substitution atom -> {atom: coeff} factorwise."""
    out = {}
    for mon, c in state.terms.items():
        expanded = [((), c)]
        for piece in [fn(a) for a in mon]:
            expanded = [(atoms + (atom,), coeff * w)
                        for atoms, coeff in expanded for atom, w in piece.items()]
        for atoms, coeff in expanded:
            add_term(out, _sorted_monomial(atoms), coeff)
    return SymState(out)


def d_isomorphism_oracle(state: SymState) -> SymState:
    """Factorwise d through the generic substitution: d(u-c)^-l = -l (u-c)^-(l+1),
    d u^m = m u^(m-1); a constant factor has no image."""

    def on_atom(atom):
        if atom[0] == "pole":
            _, c, l = atom
            return {("pole", c, l + 1): -l * QI_ONE}
        if atom[1] == 0:
            raise DomainError("constant factor has no image under d")
        return {("poly", atom[1] - 1): GaussRational(atom[1])}

    return map_atoms_linear(state, on_atom)


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


def _wedge_sign(atom, mon) -> int:
    """(-1)^(the atoms of mon that sort before atom), or 0 when mon holds it."""
    if atom in mon:
        return 0
    return -1 if sum(atom_sort_key(a) < atom_sort_key(atom) for a in mon) % 2 else 1


def ext_wedge(state: ExtState, atom, coeff=QI_ONE) -> ExtState:
    """The wedge from the front: the atom moves past each smaller atom."""
    out = {}
    for mon, c in state.terms.items():
        sign = _wedge_sign(atom, mon)
        if sign:
            add_term(out, _sorted_monomial(mon + (atom,)), c * coeff * sign)
    return ExtState(out)


def psi_oracle(z, state: ExtState) -> ExtState:
    """psi = psi_i + psi_e: the contraction state plus the wedge state."""
    z = GaussRational.coerce(z)
    require_regular(state.terms, z)
    return ext_contract(state, lambda a: atom_eval(a, z)) + ext_wedge(state, ("pole", z, 1))


def bc_wedge(field: str, z, state: BCState) -> BCState:
    """b_e wedges the pole atom at z into the first sector; c_e wedges minus
    it into the twist sector, crossing the first."""
    atom = ("pole", z, 1)
    out = {}
    for (b, c), coeff in state.terms.items():
        if field == "b_e":
            sign = _wedge_sign(atom, b)
            if sign:
                add_term(out, (_sorted_monomial(b + (atom,)), c), coeff * sign)
        else:
            sign = _wedge_sign(atom, c) * (-1 if len(b) % 2 else 1)
            if sign:
                add_term(out, (b, _sorted_monomial(c + (atom,))), -coeff * sign)
    return BCState(out)


def bc_apply_oracle(field: str, z, state: BCState) -> BCState:
    """The sector fields as sums of their parts: b = b_i + b_e and
    c = c_i + c_e, two states each."""
    z = GaussRational.coerce(z)
    if field in ("b", "c"):
        return bc_apply_oracle(field + "_i", z, state) + bc_apply_oracle(field + "_e", z, state)
    if field in ("b_e", "c_e"):
        return bc_wedge(field, z, state)
    if field in ("b_i", "c_i"):
        require_regular((key[1 if field == "b_i" else 0] for key in state.terms), z)
        return bc_contract(field, lambda a: atom_eval(a, z), state)
    raise ValueError(f"unknown sector field {field!r}")


def composite_oracle(z, state: BCState) -> BCState:
    """b_i c_i + b_e c_e + b_e c_i - c_e b_i, one composition each."""
    def part(field, s):
        return bc_apply_oracle(field, z, s)

    out = part("b_i", part("c_i", state))
    out = out + part("b_e", part("c_e", state))
    out = out + part("b_e", part("c_i", state))
    return out - part("c_e", part("b_i", state))


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


def heis_oracle(phi, site, state: SymState) -> SymState:
    """H^phi at a site: the contraction by -Res_o(phi atom) (+Res at
    infinity) plus, per pole part g (u-c)^(-j) of phi singular at the site
    (every finite one at infinity), the product with -j g ("pole", c, j+1)."""
    sign = 1 if site.is_infinity else -1
    out = sym_contract(state, lambda atom: sign * residue_at(phi * atom_ratfunc(atom), site))
    for c, j, g in partial_fractions(phi).terms:
        if site.is_infinity or c == site.value:
            out = out + state.multiply_atom(("pole", c, j + 1), -j * g)
    return out


def heis_insertion_oracle(phi, zl, weights: dict, state: SymState) -> SymState:
    """H^phi at the insertion point zl on function states, weights
    {point: lambda}: the contraction by -Res_zl(phi atom'), the product with
    each pole part of phi at zl, and the scalar lambda_zl phi_reg(zl) -
    sum_{j != zl} lambda_j phi_s(z_j)."""
    dec = partial_fractions(phi)
    out = sym_contract(state, lambda atom: -residue_at(phi * atom_ratfunc(atom).derivative(), zl))
    scalar = weights[zl] * dec.polynomial.evaluate(zl)
    for c, order, coeff in dec.terms:
        if c != zl:
            scalar = scalar + weights[zl] * coeff / (zl - c) ** order
            continue
        out = out + state.multiply_atom(("pole", c, order), coeff)
        for zj, lam in weights.items():
            if zj != zl:
                scalar = scalar - lam * coeff / (zj - c) ** order
    return out + state.scale(scalar)


def heis_P_with_insertions_oracle(phi, weights: dict, state: SymState) -> SymState:
    """H^phi at infinity on function states: the contraction by
    Res_inf(phi atom'), the product with every pole part of phi, and the
    scalar sum_j lambda_j p(z_j) of its polynomial part p."""
    dec = partial_fractions(phi)
    out = sym_contract(state, lambda atom: residue_at(phi * atom_ratfunc(atom).derivative(), INFINITY))
    for c, order, coeff in dec.terms:
        out = out + state.multiply_atom(("pole", c, order), coeff)
    scalar = sum((lam * dec.polynomial.evaluate(zj) for zj, lam in weights.items()), QI_ZERO)
    return out + state.scale(scalar)
