"""The rank-one lattice fields over Q(i)[sqrt(N)] scalars: the test oracle.

These are ``LatticeScalar`` and the field code of ``LatticeTheory`` as they
were written before a lattice state carried sqrt(N) in its term key: each
coefficient is one exact a + b*sqrt(N) with Gaussian-rational a and b,
collapsing to b = 0 when N is a perfect square, and the states are keyed by
(monomial, section class, du-power).  ``chiralis.lattice`` keys a term by
(monomial, section class, du-power, r) with a Gaussian-rational coefficient
c standing for c*sqrt(N)^r; the tests map its states to a + b*sqrt(N) and
compare them with these on seeded states and chains of fields
(``seeded_case``, ``build``, ``apply``, ``sqrt_pairs``).  One line differs
from the code it keeps: ``LatticeScalar`` accepts a plain operand by the
public ``is_rational_scalar`` test, which takes the same ints and rationals
as the program's private scalar rule.  ``TestLatticeScalar`` checks the
oracle's own field arithmetic; ``test_lattice.py`` imports it, so it is
collected there.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from chiralis.exactnum import (
    INFINITY,
    QI_ONE,
    QI_ZERO,
    GaussRational,
    RatFunc,
    is_rational_scalar,
    qi,
    repeated_squaring,
    residue_at,
)
from chiralis.geometry import atom_deriv_eval, atom_eval, atom_sort_key
from chiralis.lattice import SectionClass, du_power_balance
from chiralis.sampling import rand_scalar
from chiralis.states import AtomValues, DomainError, LinComb, add_term, atom_runs, require_regular


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
        if not (isinstance(other, GaussRational) or is_rational_scalar(other)):
            return NotImplemented
        return LatticeScalar(self.N, other)

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

    def zero_mode_apply(self, state: LatticeState) -> LatticeState:
        """The constant-test-function operator at infinity (measured).

        The contraction against a constant test function vanishes on the
        function factors; the section responds through the residue at
        infinity of sqrt(N) times its logarithmic derivative.
        """
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


def _lat(N, s):
    if isinstance(s, LatticeScalar):
        return s
    return LatticeScalar(N, s)


# -- seeded inputs and chains of fields --------------------------------------

_ROOTS = [qi(1), qi(-1, 1), qi(Fraction(1, 2), 2), qi(3, -1)]
_ATOMS = [("pole", qi(0), 1), ("pole", qi(-2), 2), ("pole", qi(1, 1), 1), ("poly", 1), ("poly", 2)]
_POINTS = [qi(4), qi(-3, 1), qi(Fraction(5, 2), -2), qi(0, -3), qi(-4, -1)]
_SCALES = [None, qi(2), qi(Fraction(-1, 3), 1), qi(0, 2)]
_FIELDS = ("epsilon", "iota", "j", "flat_plus", "flat_minus", "vertex", "zero_mode_apply")


def seeded_case(rng):
    """(terms, chain): terms (sorted atoms, section, coefficient) over one
    random section of 0-3 roots, with repeated atoms and Q(i) coefficients,
    and a chain of 2-3 fields, each a (name, args, keywords) at its own
    point.  The section roots, the poles of the atoms and the field points
    are disjoint, so no field meets a domain error."""
    section = SectionClass([(c, rng.choice((-2, -1, 1, 2))) for c in rng.sample(_ROOTS, rng.randint(0, 3))])
    terms = []
    for _ in range(rng.randint(1, 3)):
        atoms = tuple(sorted(rng.choices(_ATOMS, k=rng.randint(0, 4)), key=atom_sort_key))
        terms.append((atoms, section, rand_scalar(rng) or QI_ONE))
    chain = []
    for z in rng.sample(_POINTS, rng.randint(2, 3)):
        name = rng.choice(_FIELDS)
        if name == "zero_mode_apply":
            chain.append((name, (), {}))
        elif name in ("epsilon", "iota", "j"):
            chain.append((name, (z,), {}))
        else:
            chain.append((name, (rng.choice((-2, -1, 1, 2)), z), {"scale": rng.choice(_SCALES)}))
    return terms, chain


def build(theory, terms):
    """The state sum c * monomial(atoms, section) of either lattice theory."""
    state = theory.vacuum().scale(0)
    for atoms, section, c in terms:
        state = state + theory.monomial(atoms, section).scale(c)
    return state


def apply(theory, step, state):
    name, args, keywords = step
    return getattr(theory, name)(*args, state, **keywords)


def sqrt_pairs(state) -> dict:
    """{(monomial, section, du-power): (a, b)} for a + b*sqrt(N): the oracle's
    LatticeScalar components, or the r = 0 and r = 1 coefficients of a
    ``chiralis.lattice`` state."""
    if isinstance(state, LatticeState):
        return {key: (c.a, c.b) for key, c in state.terms.items()}
    out = {}
    for (mon, section, tdu, r), c in state.terms.items():
        out.setdefault((mon, section, tdu), [QI_ZERO, QI_ZERO])[r] = c
    return {key: tuple(pair) for key, pair in out.items()}


class TestLatticeScalar:
    def test_square_parameter_collapses(self):
        s = LatticeScalar(4, qi(1), qi(1))  # 1 + sqrt(4) = 3
        assert s == LatticeScalar(4, qi(3))
        assert not s.b

    def test_nonsquare_field(self):
        s = LatticeScalar(2, qi(1), qi(1))
        inv = 1 / s
        assert s * inv == LatticeScalar(2, qi(1))
        assert (s * s) == LatticeScalar(2, qi(3), qi(2))

    def test_root_squares_to_parameter(self):
        th = LatticeTheory(3)
        assert th.sqrtN * th.sqrtN == LatticeScalar(3, qi(3))

    def test_scalars_of_different_parameters_are_unequal(self):
        # b = 0 on both sides, so the hashes coincide and a dict lookup compares them
        one, other = LatticeScalar(1, qi(1)), LatticeScalar(2, qi(1))
        assert one != other and not one == other
        assert {one: 0}.get(other) is None
        assert one == 1 and other == 1
        with pytest.raises(ValueError, match="mixed lattice parameters"):
            one + other
