"""Pairings and hermitian structure on boson states.

Three layers, all generated algorithmically from adjointness and the
vacuum normalization:

* the bilinear pairing between infinity-supported dual states (polynomial
  basis atoms) and infinity-regular states;
* the hermitian inner product on origin-supported states (mode moves);
* the hermitian inner product on disc-supported states, realized through
  the exact reflection kernel 1/(1 - u conj(y))^2, with Gram matrices and
  positivity via exact determinants.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .exactnum import GaussRational, INFINITY, QI_ONE, QI_ZERO, RatFunc
from .geometry import _atom_residue, dec_atoms
from .states import DomainError, SymState, monomial_state, require_distinct, vacuum
from .symmetry import HeisenbergOp, _phi_pole_parts, heis_apply

__all__ = [
    "pair_P",
    "heis_P_local_apply",
    "heis_adjointness_check",
    "hermitian_inner_O",
    "hermitian_inner_disc",
    "reflection_kernel_value",
    "gram_matrix",
    "leading_minors",
    "positivity_check",
    "in_open_disc",
]

_U = RatFunc.variable(QI_ONE)


# ---------------------------------------------------------------------------
# The infinity pairing
# ---------------------------------------------------------------------------


def _check_dual(state: SymState):
    for atom in state.atoms():
        if atom[0] != "poly":
            raise DomainError("dual states carry polynomial basis atoms only")


def _check_P_regular(state: SymState):
    for atom in state.atoms():
        if atom[0] != "pole":
            raise DomainError("state must be regular at infinity")


def pair_P(dual: SymState, state: SymState, peel_last: bool = False):
    """Adjointness-generated pairing; exact, independent of peeling order."""
    _check_dual(dual)
    _check_P_regular(state)
    total = QI_ZERO
    for mon, c in dual.terms.items():
        total = total + c * _pair_monomial(mon, state, peel_last)
    return total


def _pair_monomial(mon, state: SymState, peel_last: bool):
    if not mon:
        return state.vacuum_coefficient()
    idx = -1 if peel_last else 0
    k = mon[idx][1]
    rest = mon[:idx] if peel_last else mon[1:]
    moved = heis_apply(HeisenbergOp(_U ** (k + 1), INFINITY), state)
    return -Fraction(1, k + 1) * _pair_monomial(rest, moved, peel_last)


def heis_P_local_apply(phi: RatFunc, dual: SymState) -> SymState:
    """The operator attached to phi, local at infinity, on dual states.

    Oriented along the dual contour (the boundary as seen from the other
    side), which flips the overall sign relative to a finite-site operator;
    this is the orientation under which the adjointness with the
    infinity-site operator holds with a plus sign.
    """
    _check_dual(dual)
    dec = _phi_pole_parts(phi)
    atoms = dec_atoms(dec)
    # creation: from the part of phi singular only at infinity (polynomials)
    creation = [(("poly", m - 1), -coeff * m) for m, coeff in enumerate(dec.polynomial.coeffs) if m and coeff]
    return dual.contract(lambda atom: _atom_residue(atoms, atom, None), creation)


def heis_adjointness_check(phi: RatFunc) -> bool:
    """<P-local op dual, state> = <dual, op-at-infinity state> on spanning states."""
    duals = [
        vacuum(),
        monomial_state([("poly", 0)]),
        monomial_state([("poly", 1)]),
        monomial_state([("poly", 0), ("poly", 2)]),
        monomial_state([("poly", 1), ("poly", 1), ("poly", 0)]),
    ]
    states = [
        vacuum(),
        monomial_state([("pole", QI_ZERO, 2)]),
        monomial_state([("pole", GaussRational(2), 3)]),
        monomial_state([("pole", QI_ZERO, 2), ("pole", QI_ZERO, 3)]),
        monomial_state([("pole", QI_ZERO, 2)] * 3),
    ]
    op_inf = HeisenbergOp(phi, INFINITY)
    for d in duals:
        for s in states:
            lhs = pair_P(heis_P_local_apply(phi, d), s)
            rhs = pair_P(d, heis_apply(op_inf, s))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# Hermitian structure
# ---------------------------------------------------------------------------


def hermitian_inner_O(chi: SymState, psi: SymState):
    """Inner product on origin-supported states via mode adjointness.

    Conjugate-linear in the first slot; (vac, vac) = 1.
    """
    for atom in chi.atoms() | psi.atoms():
        if atom[0] != "pole" or atom[1] != QI_ZERO:
            raise DomainError("states must be supported at the origin")
    total = QI_ZERO
    for mon, c in chi.terms.items():
        total = total + c.conjugate() * _inner_O_monomial(mon, psi)
    return total


def _inner_O_monomial(mon, psi: SymState):
    from .symmetry import mode_b

    if not mon:
        return psi.vacuum_coefficient()
    k = mon[0][2]
    l = k - 1
    # the atom is -(1/l) d(u^-l), i.e. -(1/l) times the creation mode b_{-l}
    moved = mode_b(l, psi)
    return -Fraction(1, l) * _inner_O_monomial(mon[1:], moved)


def in_open_disc(point) -> bool:
    return GaussRational.coerce(point).norm() < 1


# (k, l) -> [(coeff, px, py, pw)], the terms of the closed form below
_KERNEL_DERIV_CACHE: dict = {}
_KERNEL_VALUE_CACHE: dict = {}


def reflection_kernel_value(a, k: int, b, l: int):
    """Single-form inner product of (u-a)^-k du against (u-b)^-l du.

    A pole of order k is the (k-2)-th coordinate derivative of the basic
    double pole (up to the factorial below), so the value is the mixed
    (k-2, l-2) derivative of the reflection kernel (1 - y x)^-2 at
    x = conj(a), y = b, divided by (k-1)! (l-1)!.  The y-derivatives give
    (l-1)! x^(l-2) (1 - xy)^-l, and Leibniz in x turns the whole into
    sum_{i <= min(k-2, l-2)} coeff x^(l-2-i) y^(k-2-i) (1 - xy)^-(k+l-2-i)
    with coeff = C(k-2, i) (l-2)!/(l-2-i)! (k+l-3-i)! / ((k-1)! (l-1)!).
    """
    if k < 2 or l < 2:
        raise DomainError("disc atoms are poles of order at least 2")
    key = (a, k, b, l)
    cached = _KERNEL_VALUE_CACHE.get(key)
    if cached is not None:
        return cached
    terms = _KERNEL_DERIV_CACHE.get((k, l))
    if terms is None:
        n, m = k - 2, l - 2
        denom = factorial(k - 1) * factorial(l - 1)
        terms = []
        for i in range(min(n, m) + 1):
            coeff = Fraction(comb(n, i) * perm(m, i) * factorial(k + l - 3 - i), denom)
            terms.append((coeff, m - i, n - i, k + l - 2 - i))
        _KERNEL_DERIV_CACHE[(k, l)] = terms
    x, y = a.conjugate(), b
    w = 1 - x * y
    val = QI_ZERO
    for coeff, px, py, pw in terms:
        val = val + coeff * x ** px * y ** py / w ** pw
    _KERNEL_VALUE_CACHE[key] = val
    return val


def _permanent(rows):
    n = len(rows)
    if n == 0:
        return QI_ONE
    first = rows[0]
    total = QI_ZERO
    for j in range(n):
        if not first[j]:
            continue
        sub = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        total = total + first[j] * _permanent(sub)
    return total


def hermitian_inner_disc(chi: SymState, psi: SymState):
    """Inner product on disc-supported states: permanent of the single-form
    reflection kernel, conjugate-linear in the first slot."""
    for state in (chi, psi):
        for atom in state.atoms():
            if atom[0] != "pole":
                raise DomainError("disc states are regular at infinity")
            if not in_open_disc(atom[1]):
                raise DomainError(f"basis pole {atom[1]} is not inside the disc")
    total = QI_ZERO
    for mon_a, ca in chi.terms.items():
        for mon_b, cb in psi.terms.items():
            if len(mon_a) != len(mon_b):
                continue
            rows = []
            for a in mon_a:
                rows.append(
                    [reflection_kernel_value(a[1], a[2], b[1], b[2]) for b in mon_b]
                )
            total = total + ca.conjugate() * cb * _permanent(rows)
    return total


# ---------------------------------------------------------------------------
# Gram matrices of creation states
# ---------------------------------------------------------------------------


def _e_state(points) -> SymState:
    out = vacuum()
    for z in points:
        out = out.multiply_atom(("pole", z, 2), -QI_ONE)
    return out


def gram_matrix(points, degree: int):
    """Gram matrix of all creation monomials of degree <= degree at the points.

    Returns (labels, matrix); points must be distinct and inside the disc.
    """
    pts = [GaussRational.coerce(p) for p in points]
    require_distinct(pts)
    for p in pts:
        if not in_open_disc(p):
            raise DomainError(f"point {p} is not inside the open disc")
    import itertools

    labels = []
    for d in range(degree + 1):
        labels.extend(itertools.combinations_with_replacement(range(len(pts)), d))
    states = [_e_state([pts[i] for i in label]) for label in labels]
    matrix = [
        [hermitian_inner_disc(si, sj) for sj in states] for si in states
    ]
    return labels, matrix


def leading_minors(matrix):
    """Exact leading principal minors by forward elimination.

    Up to the first zero pivot, the k-th minor is the product of the first
    k pivots.  Past a zero pivot that product no longer describes the
    matrix, so each remaining minor is the determinant of its own block.
    """
    n = len(matrix)
    work = [row[:] for row in matrix]
    minors = []
    det = QI_ONE
    for k in range(n):
        pivot = work[k][k]
        det = det * pivot
        minors.append(det)
        if not pivot:
            for m in range(k + 2, n + 1):
                minors.append(_determinant([row[:m] for row in matrix[:m]]))
            return minors
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            for j in range(k, n):
                work[i][j] = work[i][j] - factor * work[k][j]
    return minors


def _determinant(block):
    """Determinant by elimination, each row swap flipping the sign."""
    work = [row[:] for row in block]
    n = len(work)
    det = QI_ONE
    for k in range(n):
        row = next((i for i in range(k, n) if work[i][k]), None)
        if row is None:
            return QI_ZERO
        if row != k:
            work[k], work[row] = work[row], work[k]
            det = -det
        pivot = work[k][k]
        det = det * pivot
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            for j in range(k, n):
                work[i][j] = work[i][j] - factor * work[k][j]
    return det


def _gram_verdict(matrix):
    """(leading minors, hermitian, positive) of a square matrix, exactly:
    positive when every leading principal minor is rational and positive."""
    minors = leading_minors(matrix)
    n = len(matrix)
    hermitian = all(matrix[i][j] == matrix[j][i].conjugate() for i in range(n) for j in range(n))
    positive = all(m.is_rational() and m.re > 0 for m in minors)
    return minors, hermitian, positive


def positivity_check(points, degree: int) -> bool:
    """Hermitian + all leading principal minors positive, exactly."""
    _, hermitian, positive = _gram_verdict(gram_matrix(points, degree)[1])
    return hermitian and positive
