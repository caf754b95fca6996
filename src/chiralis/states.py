"""Symmetric-monomial state vectors over canonical basis atoms.

A state is a finite linear combination of multisets of basis atoms; the
multiset is stored as a tuple sorted by the atom order, so equality of
states is plain dictionary equality.  Coefficients are GaussRational, or
jets in t when a field is applied at a moving point.

``LinComb`` is the linear structure that every state type of the package
shares, and ``add_term`` the one way a coefficient is accumulated into a
term dict.
"""

from __future__ import annotations

import itertools

from .exactnum import QI_ONE, QI_ZERO
from .geometry import atom_sort_key

__all__ = ["DomainError", "require_regular", "require_distinct", "LinComb", "add_term", "central_scalar",
           "AtomValues", "atom_runs", "drop_above_degree", "SymState", "vacuum", "monomial_state"]


class DomainError(ValueError):
    """A field was applied outside its domain (pole collision etc.)."""


def require_regular(monomials, z) -> None:
    """Raise DomainError when an atom of the monomials has its pole at the field point z."""
    for atom in {a for mon in monomials for a in mon}:
        if atom[0] == "pole" and not (z - atom[1]):
            raise DomainError(f"atom {atom} has a pole at the field point {z}")


def require_distinct(pts) -> None:
    """Raise DomainError unless the points are pairwise distinct."""
    for a, b in itertools.combinations(pts, 2):
        if not (a - b):
            raise DomainError("points must be pairwise distinct")


def _sorted_monomial(atoms) -> tuple:
    return tuple(sorted(atoms, key=atom_sort_key))


def add_term(out: dict, key, val) -> None:
    """Accumulate val into out[key], dropping the key when the sum is zero."""
    acc = out.get(key)
    acc = val if acc is None else acc + val
    if acc:
        out[key] = acc
    elif key in out:
        del out[key]


def central_scalar(pairs, what: str):
    """The scalar c with [A, B] v = c v on every spanning state v: pairs
    yields the term dicts (v, [A, B] v), the first v the vacuum {(): 1}, on
    which c is read.  Raises AssertionError "<what> is not central"."""
    central = None
    for v, lhs in pairs:
        if central is None:
            central = lhs.get((), 0)
        if lhs != ({key: c * central for key, c in v.items()} if central else {}):
            raise AssertionError(f"{what} is not central")
    return central


class AtomValues(dict):
    """The per-call memo of every contraction: ``values[atom]`` is fn(atom),
    computed on the first read only; fn depends on the atom alone (or on a
    section, for its logarithmic derivative)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, atom):
        val = self[atom] = self.fn(atom)
        return val


def atom_runs(mon):
    """(atom, multiplicity, mon without one occurrence of it) for each
    distinct atom of a sorted monomial."""
    k = 0
    for atom, run in itertools.groupby(mon):
        mult = sum(1 for _ in run)
        yield atom, mult, mon[:k] + mon[k + 1:]
        k += mult


def _contract_terms(terms: dict, values) -> dict:
    """The derivation sending each atom to values[atom], on a term dict."""
    out = {}
    for mon, c in terms.items():
        for atom, mult, rest in atom_runs(mon):
            val = values[atom]
            if val:
                add_term(out, rest, c * val * mult if mult > 1 else c * val)
    return out


def drop_above_degree(state, degree: int):
    """Delete, in place, the terms of a state the caller has just built whose
    monomial has more than ``degree`` atoms; returns the state."""
    for mon in [m for m in state.terms if len(m) > degree]:
        del state.terms[mon]
    return state


class LinComb:
    """Finite linear combination over a basis: a dict of nonzero coefficients.

    Every state type of the package is one of these; a subclass names its
    basis keys and overrides ``_like`` when a result must carry more than
    the terms, and ``_merge`` when a sum has a rule of its own.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # a zero-free input is copied whole: the copy keeps its keys' stored hashes
        terms = terms or {}
        self.terms = dict(terms) if all(terms.values()) else {key: c for key, c in terms.items() if c}

    def _like(self, terms):
        """A combination of the same kind as self with the given terms."""
        return type(self)(terms)

    def _merge(self, other, sign: int):
        """self + sign * other in one term dict; sign is 1 or -1."""
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(out, key, coeff if sign == 1 else -coeff)
        return self._like(out)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        if not s:
            return self._like({})
        return self._like({key: c * s for key, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms


class SymState(LinComb):
    """Linear combination of symmetric monomials in basis atoms."""

    __slots__ = ()

    # an entry of its own: bench/tracer.py counts SymState constructions by
    # patching SymState.__dict__["__init__"]
    __init__ = LinComb.__init__

    def __repr__(self):
        if not self.terms:
            return "SymState(0)"
        bits = []
        for mon in sorted(self.terms, key=lambda m: (len(m), tuple(map(atom_sort_key, m)))):
            bits.append(f"({self.terms[mon]})*{list(mon)}")
        return "SymState(" + " + ".join(bits) + ")"

    # -- structure helpers ----------------------------------------------------

    def degree(self) -> int:
        """Largest monomial length present."""
        return max((len(m) for m in self.terms), default=0)

    def vacuum_coefficient(self):
        return self.terms.get((), QI_ZERO)

    def atoms(self) -> set:
        out = set()
        for mon in self.terms:
            out.update(mon)
        return out

    def multiply_atom(self, atom, coeff=QI_ONE) -> "SymState":
        """Symmetric product with a single atom, scaled."""
        out = {}
        for mon, c in self.terms.items():
            add_term(out, _sorted_monomial(mon + (atom,)), c * coeff)
        return SymState(out)

    def multiply(self, other: "SymState") -> "SymState":
        """Symmetric product with another state."""
        out = {}
        for mon, c in self.terms.items():
            for omon, oc in other.terms.items():
                add_term(out, _sorted_monomial(mon + omon), c * oc)
        return SymState(out)

    def contract(self, value_of_atom, creation=(), scalar=0) -> "SymState":
        """Apply the derivation sending each atom to the scalar value_of_atom(atom),
        plus the symmetric product with sum g * atom over the (atom, g) pairs
        of creation, plus scalar times the state, in one term dict.

        The derivation is the common shape of every 'evaluation' field: the
        sum over atom occurrences of value * (monomial without it).
        value_of_atom depends only on the atom, and is evaluated once per
        distinct atom per call (``AtomValues``).
        """
        out = _contract_terms(self.terms, AtomValues(value_of_atom))
        for atom, g in creation:
            for mon, c in self.terms.items():
                add_term(out, _sorted_monomial(mon + (atom,)), c * g)
        if scalar:
            for mon, c in self.terms.items():
                add_term(out, mon, c * scalar)
        return SymState(out)

    def map_monomials(self, fn) -> "SymState":
        """Relabel monomials; fn(mon) -> (new_mon_atoms, scalar factor)."""
        out = {}
        for mon, c in self.terms.items():
            new_atoms, factor = fn(mon)
            add_term(out, _sorted_monomial(new_atoms), c * factor)
        return SymState(out)

    def derive_atoms(self, fn) -> "SymState":
        """Extend an atom-wise linear map atom -> {atom: coeff} as a derivation.

        fn depends only on the atom, and is evaluated once per distinct atom
        per call (``AtomValues``).
        """
        images = AtomValues(fn)
        out = {}
        for mon, c in self.terms.items():
            for atom, mult, rest in atom_runs(mon):
                for new_atom, w in images[atom].items():
                    add_term(out, _sorted_monomial(rest + (new_atom,)), c * w * mult)
        return SymState(out)


def vacuum() -> SymState:
    return SymState({(): QI_ONE})


def monomial_state(atoms, coeff=QI_ONE) -> SymState:
    return SymState({_sorted_monomial(atoms): coeff})
