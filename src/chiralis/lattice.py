"""Rank-one lattice fields for a positive integer parameter N.

States are graded pairs: a function-space monomial (over functions
vanishing at infinity) tensored with a factored half-form section class
E[f sqrt(du)], with the power of du picked up by the fields tracked in a
ledger.  The section class is stored by its root multiset; the grade is
the degree character chi(f sqrt(du)) = -deg f (the sign fixed by
requiring the zero-mode proposition and grade additivity, as measured).

Scalars live in Q(i)[sqrt(N)]: exact quadratic-extension arithmetic that
collapses to Q(i) whenever N is a perfect square.
"""

from __future__ import annotations

import math

from .exactnum import GaussRational, QI_ONE, QI_ZERO, RatFunc, _as_gauss, repeated_squaring
from .geometry import atom_deriv_eval, atom_eval, atom_sort_key
from .states import AtomValues, DomainError, LinComb, add_term, atom_runs, require_regular

__all__ = [
    "LatticeScalar",
    "LatticeTheory",
    "SectionClass",
    "LatticeState",
    "du_power_balance",
]


class LatticeScalar:
    """a + b*sqrt(N) with Gaussian-rational components, exact."""

    __slots__ = ("a", "b", "N")

    def __init__(self, N: int, a=QI_ZERO, b=QI_ZERO):
        a = a if isinstance(a, GaussRational) else GaussRational.coerce(a)
        b = b if isinstance(b, GaussRational) else GaussRational.coerce(b)
        root = math.isqrt(N)
        if root * root == N and b:
            a = a + b * root
            b = QI_ZERO
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LatticeScalar is immutable")

    def _coerce(self, other):
        if isinstance(other, LatticeScalar):
            if other.N != self.N:
                raise ValueError("mixed lattice parameters")
            return other
        other = _as_gauss(other)
        return other if other is NotImplemented else LatticeScalar(self.N, other)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LatticeScalar(self.N, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LatticeScalar(self.N, self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LatticeScalar(
            self.N,
            self.a * other.a + self.b * other.b * self.N,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.a * other.a - other.b * other.b * self.N
        if not norm:
            raise ZeroDivisionError("division by zero lattice scalar")
        conj = LatticeScalar(self.N, other.a, -other.b)
        out = self * conj
        return LatticeScalar(self.N, out.a / norm, out.b / norm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return LatticeScalar(self.N, -self.a, -self.b)

    def __pow__(self, n: int):
        if n < 0:
            return 1 / (self ** (-n))
        return repeated_squaring(self, n) if n else LatticeScalar(self.N, QI_ONE)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, LatticeScalar) and other.N != self.N:
            return False
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.N, self.a, self.b)) if self.b else hash(self.a)

    def conjugate(self):
        return LatticeScalar(self.N, self.a.conjugate(), self.b.conjugate())

    def sort_key(self):
        return ("lat", self.a.sort_key(), self.b.sort_key())

    def __str__(self):
        if not self.b:
            return str(self.a)
        return f"({self.a}) + ({self.b})*sqrt({self.N})"

    def __repr__(self):
        return f"LatticeScalar({self.N}, '{self}')"


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
            out = out + GaussRational(m) / base
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
    """Linear combination of (function monomial, section class, du-power).

    Coefficients are LatticeScalars of the state's own N; states of
    different N neither add nor compare equal.
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

    def scale(self, s) -> "LatticeState":
        return LinComb.scale(self, _lat(self.N, s))

    def __eq__(self, other):
        if isinstance(other, LatticeState) and other.N != self.N:
            return False
        return LinComb.__eq__(self, other)

    def __repr__(self):
        bits = []
        for (mon, section, tdu), coeff in self.terms.items():
            bits.append(f"({coeff})*{list(mon)}x{section!r}[du^{tdu}/2]")
        return "LatticeState(" + (" + ".join(bits) or "0") + ")"


class LatticeTheory:
    """All field actions for one lattice parameter N."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("the lattice parameter is a positive integer")
        self.N = N
        self.sqrtN = LatticeScalar(N, QI_ZERO, QI_ONE)

    # -- constructors -------------------------------------------------------

    def one(self):
        return LatticeScalar(self.N, QI_ONE)

    def vacuum(self, section: SectionClass | None = None) -> LatticeState:
        section = section or SectionClass()
        return LatticeState(self.N, {((), section, 0): self.one()})

    def monomial(self, atoms, section: SectionClass) -> LatticeState:
        atoms = tuple(sorted(atoms, key=atom_sort_key))
        return LatticeState(self.N, {(atoms, section, 0): self.one()})

    # -- oscillator-type fields ---------------------------------------------

    def epsilon(self, z, state: LatticeState) -> LatticeState:
        """Multiplication by the simple-pole function; adds one du."""
        z = GaussRational.coerce(z)
        out = {}
        for (mon, section, tdu), coeff in state.terms.items():
            atoms = tuple(sorted(mon + (("pole", z, 1),), key=atom_sort_key))
            add_term(out, (atoms, section, tdu + 2), coeff)
        return LatticeState(self.N, out)

    def iota(self, z, state: LatticeState) -> LatticeState:
        """Contraction plus the section's logarithmic-derivative response."""
        z = GaussRational.coerce(z)
        require_regular((key[0] for key in state.terms), z)
        values = AtomValues(lambda atom: -atom_deriv_eval(atom, z, 1))
        dlogs = AtomValues(lambda section: section.dlog_value(z))
        out = {}
        for (mon, section, tdu), coeff in state.terms.items():
            if section.multiplicity(z):
                raise DomainError("field point sits on a section root")
            # derivation over the function factors: alpha -> -d alpha(z)
            for atom, mult, rest in atom_runs(mon):
                add_term(out, (rest, section, tdu + 2), coeff * values[atom] * mult)
            # vacuum-sector response: -sqrt(N) (log f)'(z)
            log_val = dlogs[section]
            if log_val:
                add_term(out, (mon, section, tdu + 2), coeff * self.sqrtN * (-log_val))
        return LatticeState(self.N, out)

    def j(self, z, state: LatticeState) -> LatticeState:
        return self.epsilon(z, state) + self.iota(z, state)

    # -- vertex-type fields ---------------------------------------------------

    def flat_plus(self, lam_check: int, z, state: LatticeState, scale=None) -> LatticeState:
        """Grade-shifting section twist; commutes with the function factors."""
        z = GaussRational.coerce(z)
        out = {}
        for (mon, section, tdu), coeff in state.terms.items():
            if section.multiplicity(z):
                raise DomainError("twist point collides with a section root")
            grade = section.grade
            new_section = section.with_root(z, -lam_check)
            shift = 2 * du_power_balance(self.N, grade, lam_check)
            c = coeff
            if scale is not None:
                # a non-canonical representative E[t sigma] re-canonicalizes
                # with t^(-N * new grade)
                t = _lat(self.N, scale)
                c = c * t ** (-self.N * new_section.grade)
            add_term(out, (mon, new_section, tdu + shift), c)
        return LatticeState(self.N, out)

    def flat_minus(self, lam_check: int, z, state: LatticeState, scale=None) -> LatticeState:
        """Evaluation twist: multiplies by sigma(z)^(N lam) and dresses the
        function factors with -lambda alpha(z) cross-terms."""
        z = GaussRational.coerce(z)
        require_regular((key[0] for key in state.terms), z)
        values = AtomValues(lambda atom: atom_eval(atom, z))
        out = {}
        lam = self.sqrtN * lam_check
        for (mon, section, tdu), coeff in state.terms.items():
            if section.multiplicity(z):
                raise DomainError("evaluation point sits on a section root")
            value = section.value_at(z) ** (self.N * lam_check)
            if scale is not None:
                value = value * _lat(self.N, scale) ** (self.N * lam_check)
            base = coeff * value
            # peel function factors in order: each either stays or is replaced
            # by its value times -lambda, so every piece stays sorted
            pieces = [((), LatticeScalar(self.N, QI_ONE))]
            for atom in mon:
                nxt = []
                for atoms, w in pieces:
                    nxt.append((atoms + (atom,), w))
                    nxt.append((atoms, w * (-lam) * values[atom]))
                pieces = nxt
            for atoms, w in pieces:
                add_term(out, (atoms, section, tdu + self.N * lam_check), base * w)
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
        for (mon, section, tdu), coeff in state.terms.items():
            dlog = RatFunc.const(QI_ZERO)
            for c, m in section.roots:
                dlog = dlog + GaussRational(m) / (u - c)
            response = self.sqrtN * residue_at(dlog, INFINITY)
            if response:
                add_term(out, (mon, section, tdu), coeff * response)
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


def _lat(N, s):
    if isinstance(s, LatticeScalar):
        return s
    return LatticeScalar(N, s)
