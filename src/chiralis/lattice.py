"""Rank-one lattice fields for a positive integer parameter N.

States are graded pairs: a function-space monomial (over functions
vanishing at infinity) tensored with a factored half-form section class
E[f sqrt(du)], with the power of du picked up by the fields tracked in a
ledger.  The section class is stored by its root multiset; the grade is
the degree character chi(f sqrt(du)) = -deg f (the sign fixed by
requiring the zero-mode proposition and grade additivity, as measured).

Coefficients are Gaussian rationals.  sqrt(N) enters through the vertex
operators only, so a term is keyed by (monomial, section class, du-power,
r) and its coefficient c stands for c * sqrt(N)^r with r in {0, 1}; r is 0
throughout when N is a perfect square.
"""

from __future__ import annotations

import math

from .exactnum import GaussRational, QI_ONE, QI_ZERO, RatFunc
from .geometry import atom_deriv_eval, atom_eval, atom_sort_key
from .states import AtomValues, DomainError, LinComb, add_term, atom_runs, require_regular

__all__ = [
    "LatticeTheory",
    "SectionClass",
    "LatticeState",
    "du_power_balance",
]


class SectionClass:
    """Root data of a factored section f sqrt(du); the grade is -deg f."""

    __slots__ = ("roots",)

    def __init__(self, roots=()):
        clean = {}
        for c, m in roots:
            add_term(clean, GaussRational.coerce(c), m)
        object.__setattr__(
            self,
            "roots",
            tuple(sorted(clean.items(), key=lambda it: it[0].sort_key())),
        )

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("SectionClass is immutable")

    @property
    def grade(self) -> int:
        return -sum(m for _, m in self.roots)

    def multiplicity(self, c) -> int:
        for root, m in self.roots:
            if root == c:
                return m
        return 0

    def with_root(self, c, m: int) -> "SectionClass":
        return SectionClass(self.roots + ((c, m),))

    def value_at(self, z) -> GaussRational:
        """f(z), exactly, from the factored representation."""
        out = QI_ONE
        for c, m in self.roots:
            base = z - c
            if not base:
                raise DomainError(f"section vanishes or blows up at {z}")
            out = out * base ** m
        return out

    def dlog_value(self, z) -> GaussRational:
        """(log f)'(z) = sum m/(z - c)."""
        out = QI_ZERO
        for c, m in self.roots:
            base = z - c
            if not base:
                raise DomainError(f"logarithmic derivative singular at {z}")
            out = out + m / base
        return out

    def __eq__(self, other):
        if not isinstance(other, SectionClass):
            return NotImplemented
        return self.roots == other.roots

    def __hash__(self):
        return hash(self.roots)

    def __repr__(self):
        bits = "*".join(f"(u-{c})^{m}" for c, m in self.roots) or "1"
        return f"SectionClass({bits})"


def du_power_balance(N: int, grade: int, lam_check: int) -> int:
    """The coordinate-weight exponent forced by scale invariance."""
    return -N * lam_check * (grade + lam_check)


class LatticeState(LinComb):
    """Linear combination of (function monomial, section class, du-power, r).

    A coefficient is a GaussRational c standing for c * sqrt(N)^r of the
    state's own N; states of different N neither add nor compare equal.
    """

    __slots__ = ("N",)

    def __init__(self, N: int, terms=None):
        LinComb.__init__(self, terms)
        self.N = N

    def _like(self, terms):
        return LatticeState(self.N, terms)

    def _merge(self, other: "LatticeState", sign: int) -> "LatticeState":
        if other.N != self.N:
            raise ValueError("mixed lattice parameters")
        return LinComb._merge(self, other, sign)

    def __eq__(self, other):
        if isinstance(other, LatticeState) and other.N != self.N:
            return False
        return LinComb.__eq__(self, other)

    def __repr__(self):
        bits = []
        for (mon, section, tdu, r), coeff in self.terms.items():
            root = f"*sqrt({self.N})" if r else ""
            bits.append(f"({coeff}){root}*{list(mon)}x{section!r}[du^{tdu}/2]")
        return "LatticeState(" + (" + ".join(bits) or "0") + ")"


class LatticeTheory:
    """All field actions for one lattice parameter N."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("the lattice parameter is a positive integer")
        self.N = N

    def _times_sqrtN(self, r: int, c) -> tuple:
        """(r', c') with c' sqrt(N)^r' = sqrt(N) * c sqrt(N)^r."""
        root = math.isqrt(self.N)
        if root * root == self.N:
            return 0, c * root
        return (0, c * self.N) if r else (1, c)

    # -- constructors -------------------------------------------------------

    def vacuum(self, section: SectionClass | None = None) -> LatticeState:
        section = section or SectionClass()
        return LatticeState(self.N, {((), section, 0, 0): QI_ONE})

    def monomial(self, atoms, section: SectionClass) -> LatticeState:
        atoms = tuple(sorted(atoms, key=atom_sort_key))
        return LatticeState(self.N, {(atoms, section, 0, 0): QI_ONE})

    # -- oscillator-type fields ---------------------------------------------

    def epsilon(self, z, state: LatticeState) -> LatticeState:
        """Multiplication by the simple-pole function; adds one du."""
        z = GaussRational.coerce(z)
        out = {}
        for (mon, section, tdu, r), coeff in state.terms.items():
            atoms = tuple(sorted(mon + (("pole", z, 1),), key=atom_sort_key))
            add_term(out, (atoms, section, tdu + 2, r), coeff)
        return LatticeState(self.N, out)

    def iota(self, z, state: LatticeState) -> LatticeState:
        """Contraction plus the section's logarithmic-derivative response."""
        z = GaussRational.coerce(z)
        require_regular((key[0] for key in state.terms), z)
        values = AtomValues(lambda atom: -atom_deriv_eval(atom, z, 1))
        dlogs = AtomValues(lambda section: section.dlog_value(z))
        out = {}
        for (mon, section, tdu, r), coeff in state.terms.items():
            if section.multiplicity(z):
                raise DomainError("field point sits on a section root")
            # derivation over the function factors: alpha -> -d alpha(z)
            for atom, mult, rest in atom_runs(mon):
                add_term(out, (rest, section, tdu + 2, r), coeff * values[atom] * mult)
            # vacuum-sector response: -sqrt(N) (log f)'(z)
            log_val = dlogs[section]
            if log_val:
                r_out, c = self._times_sqrtN(r, coeff * (-log_val))
                add_term(out, (mon, section, tdu + 2, r_out), c)
        return LatticeState(self.N, out)

    def j(self, z, state: LatticeState) -> LatticeState:
        return self.epsilon(z, state) + self.iota(z, state)

    # -- vertex-type fields ---------------------------------------------------

    def flat_plus(self, lam_check: int, z, state: LatticeState, scale=None) -> LatticeState:
        """Grade-shifting section twist; commutes with the function factors."""
        z = GaussRational.coerce(z)
        out = {}
        for (mon, section, tdu, r), coeff in state.terms.items():
            if section.multiplicity(z):
                raise DomainError("twist point collides with a section root")
            grade = section.grade
            new_section = section.with_root(z, -lam_check)
            shift = 2 * du_power_balance(self.N, grade, lam_check)
            c = coeff
            if scale is not None:
                # a non-canonical representative E[t sigma] re-canonicalizes
                # with t^(-N * new grade)
                c = c * GaussRational.coerce(scale) ** (-self.N * new_section.grade)
            add_term(out, (mon, new_section, tdu + shift, r), c)
        return LatticeState(self.N, out)

    def flat_minus(self, lam_check: int, z, state: LatticeState, scale=None) -> LatticeState:
        """Evaluation twist: multiplies by sigma(z)^(N lam) and dresses the
        function factors with -lambda alpha(z) cross-terms, where lambda is
        sqrt(N) lam_check."""
        z = GaussRational.coerce(z)
        require_regular((key[0] for key in state.terms), z)
        values = AtomValues(lambda atom: atom_eval(atom, z))
        out = {}
        for (mon, section, tdu, r), coeff in state.terms.items():
            if section.multiplicity(z):
                raise DomainError("evaluation point sits on a section root")
            value = section.value_at(z) ** (self.N * lam_check)
            if scale is not None:
                value = value * GaussRational.coerce(scale) ** (self.N * lam_check)
            # peel function factors in order: each either stays or is replaced
            # by its value times -lambda, so every piece stays sorted
            pieces = [((), r, coeff * value)]
            for atom in mon:
                peel = values[atom] * -lam_check
                nxt = []
                for atoms, r_w, w in pieces:
                    nxt.append((atoms + (atom,), r_w, w))
                    nxt.append((atoms, *self._times_sqrtN(r_w, w * peel)))
                pieces = nxt
            for atoms, r_w, w in pieces:
                add_term(out, (atoms, section, tdu + self.N * lam_check, r_w), w)
        return LatticeState(self.N, out)

    def vertex(self, lam_check: int, z, state: LatticeState, scale=None) -> LatticeState:
        """The normal-ordered exponential: twist after evaluation."""
        return self.flat_plus(lam_check, z, self.flat_minus(lam_check, z, state, scale), scale)

    # -- checks ----------------------------------------------------------------

    def sign_rule_check(self, lam1: int, lam2: int, z1, z2, state: LatticeState) -> bool:
        """Exchange of two vertex fields produces the parity sign."""
        z1, z2 = GaussRational.coerce(z1), GaussRational.coerce(z2)
        if not (z1 - z2):
            raise DomainError("exchange needs distinct points")
        a = self.vertex(lam2, z2, self.vertex(lam1, z1, state))
        b = self.vertex(lam1, z1, self.vertex(lam2, z2, state))
        sign = -1 if (self.N * lam1 * lam2) % 2 else 1
        return a == b.scale(sign)

    def zero_mode_apply(self, state: LatticeState) -> LatticeState:
        """The constant-test-function operator at infinity (measured).

        The contraction against a constant test function vanishes on the
        function factors; the section responds through the residue at
        infinity of sqrt(N) times its logarithmic derivative.
        """
        from .exactnum import INFINITY, residue_at

        out = {}
        u = RatFunc.variable(QI_ONE)
        for (mon, section, tdu, r), coeff in state.terms.items():
            dlog = RatFunc.const(QI_ZERO)
            for c, m in section.roots:
                dlog = dlog + m / (u - c)
            response = residue_at(dlog, INFINITY)
            if response:
                r_out, c = self._times_sqrtN(r, coeff * response)
                add_term(out, (mon, section, tdu, r_out), c)
        return LatticeState(self.N, out)

    def zero_mode_check(self, section: SectionClass):
        """Measured zero-mode scalar on the section vacuum (N = 1)."""
        if self.N != 1:
            raise DomainError("the zero-mode statement is the N = 1 case")
        state = self.vacuum(section)
        out = self.zero_mode_apply(state)
        expected = state.scale(section.grade)
        if out != expected:
            raise AssertionError("zero mode does not read off the grade")
        return GaussRational(section.grade)
