"""Two vertex-operator assignments on infinity-regular boson states.

``Y_comm`` sends a state to the product of its translated creation
monomials (the multiplication structure); ``Y_prime`` rewrites the state
in the basis of normal-ordered field monomials and applies those, each
group of b-derivatives through the boson's Wick kernel, at the translated
points.  ``jet_parameter_expansion`` expands a state whose poles move with
a jet parameter, for structure derivatives and boson operator products.
The axiom suite checks the defining identities exactly on seeded random
data and reports witnesses on failure.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .boson import _b_group, lie_action
from .exactnum import GaussRational, QI_ONE, QI_ZERO, RatFunc
from .geometry import VectorField, atom_sort_key
from .jets import Jet, coerce_scalar_or_jet, jet_point, moved_expansion
from .sampling import rand_scalar
from .states import DomainError, SymState, add_term, monomial_state, vacuum

__all__ = [
    "translate",
    "rotate",
    "sing_support",
    "translation_generator",
    "Y_comm",
    "Y_prime",
    "b_basis_coordinates",
    "b_basis_vector",
    "structure_derivative",
    "axiom_suite",
    "generation_check",
]


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


def translate(amount, state: SymState) -> SymState:
    """Shift every basis pole by the translation amount."""
    amount = coerce_scalar_or_jet(amount)

    def fn(mon):
        atoms = []
        for atom in mon:
            if atom[0] == "pole":
                atoms.append(("pole", atom[1] + amount, atom[2]))
            else:
                raise DomainError("translation needs infinity-regular states")
        return atoms, QI_ONE

    return state.map_monomials(fn)


def rotate(lam, state: SymState) -> SymState:
    """Pullback along z -> lam^{-1} z; scales a k-th order pole by lam^(k-1)."""
    lam = coerce_scalar_or_jet(lam)
    if not lam:
        raise DomainError("rotation scale must be nonzero")

    def fn(mon):
        atoms = []
        factor = QI_ONE
        for atom in mon:
            if atom[0] == "pole":
                atoms.append(("pole", lam * atom[1], atom[2]))
                factor = factor * lam ** (atom[2] - 1)
            else:
                factor = factor * lam ** (-atom[1] - 1)
                atoms.append(atom)
        return atoms, factor

    return state.map_monomials(fn)


def sing_support(state: SymState) -> set:
    """The set of finite points where some basis monomial has a pole."""
    out = set()
    for atom in state.atoms():
        if atom[0] == "pole":
            out.add(atom[1])
        else:
            raise DomainError("state is not regular at infinity")
    return out


def translation_generator(state: SymState) -> SymState:
    """The infinitesimal translation (the lowering energy mode)."""
    return lie_action(VectorField(RatFunc.const(-QI_ONE)), state)


# ---------------------------------------------------------------------------
# The two structures
# ---------------------------------------------------------------------------


def _check_no_collision(shifted_support, target: SymState):
    target_poles = sing_support(target)
    for p in shifted_support:
        for q in target_poles:
            if not (p - q):
                raise DomainError(
                    f"operator support point {p} collides with a target pole"
                )


def Y_comm(state: SymState, amount, target: SymState) -> SymState:
    """The multiplication structure: symmetric product with the translate."""
    moved = translate(amount, state)
    _check_no_collision(sing_support(moved), target)
    return moved.multiply(target)


_B_BASIS_CACHE: dict = {}


def b_basis_vector(label) -> SymState:
    """The normal-ordered monomial state for a label ((z, parts), ...)."""
    cached = _B_BASIS_CACHE.get(label)
    if cached is not None:
        return cached
    out = vacuum()
    for z, parts in reversed(label):
        out = _b_group(z, tuple(p - 1 for p in parts), out)
    _B_BASIS_CACHE[label] = out
    return out


def _e_label_of_monomial(mon):
    groups: dict = {}
    for atom in mon:
        groups.setdefault(atom[1], []).append(atom[2] - 1)
    label = []
    for z in sorted(groups, key=lambda s: s.sort_key()):
        label.append((z, tuple(sorted(groups[z], reverse=True))))
    return tuple(label)


def b_basis_coordinates(state: SymState) -> dict:
    """Exact coordinates of a state in the normal-ordered monomial basis.

    Triangular elimination: the top-degree part of each basis vector is the
    corresponding creation monomial, so peeling by descending degree
    terminates with the zero remainder.
    """
    coords: dict = {}
    remaining = state
    while remaining:
        degree = remaining.degree()
        layer = {m: c for m, c in remaining.terms.items() if len(m) == degree}
        if not layer:
            raise AssertionError("triangular elimination lost its top layer")
        for mon, c in layer.items():
            label = _e_label_of_monomial(mon)
            basis = b_basis_vector(label)
            coeff = c / basis.terms[mon]
            coords[label] = coords.get(label, QI_ZERO) + coeff
            remaining = remaining - basis.scale(coeff)
    return {k: v for k, v in coords.items() if v}


def Y_prime(state: SymState, amount, target: SymState) -> SymState:
    """The normal-ordered structure: fields at the translated points."""
    amount = coerce_scalar_or_jet(amount)
    _check_no_collision({p + amount for p in sing_support(state)}, target)
    coords = b_basis_coordinates(state)
    out = SymState()
    for label, coeff in coords.items():
        piece = target
        for z, parts in reversed(label):
            piece = _b_group(z + amount, tuple(p - 1 for p in parts), piece)
        out = out + piece.scale(coeff)
    return out


def structure(name: str):
    if name in ("comm", "Y", "Y_comm"):
        return Y_comm
    if name in ("prime", "Y'", "Y_prime"):
        return Y_prime
    raise ValueError(f"unknown vertex structure {name!r}")


# ---------------------------------------------------------------------------
# Parameter expansion (exact derivative in the translation amount)
# ---------------------------------------------------------------------------


def structure_derivative(Y, state: SymState, amount, target: SymState) -> SymState:
    """Exact derivative of amount -> Y(state, amount) target.

    The amount is moved along a first-order jet; the moved-atom and
    coefficient contributions at order one are collected exactly.
    """
    h = jet_point(amount, 2)
    shifted = Y(state, h, target)
    buckets = jet_parameter_expansion(shifted, 1)
    return buckets.get(1, SymState())


def jet_parameter_expansion(state: SymState, order: int) -> dict:
    """Expand a state whose scalars and pole locations are jets in a parameter t.

    A pole location in t must be affine, p0 + s t.  Returns {order: state}
    through ``order``.
    """
    buckets: dict = {}
    for mon, coeff in state.terms.items():
        moving = []
        fixed = []
        for atom in mon:
            p = atom[1]
            if atom[0] == "pole" and isinstance(p, Jet):
                if any(c for k, c in enumerate(p.coeffs, p.val) if k not in (0, 1)):
                    raise DomainError("pole location is not affine in the parameter")
                moving.append(atom)
            else:
                fixed.append(atom)
        moved = [(p.coefficient(1), l) for _, p, l in moving]
        for k, factor, orders in moved_expansion(coeff, moved, order):
            atoms = fixed + [("pole", p.coefficient(0), o) for (_, p, _), o in zip(moving, orders)]
            add_term(buckets.setdefault(k, {}), tuple(sorted(atoms, key=atom_sort_key)), factor)
    return {k: SymState(terms) for k, terms in buckets.items() if terms}


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------


def _rand_vertex_state(rng, pool, max_degree=3, max_support=2, max_order=3):
    points = rng.sample(pool, rng.randint(1, max_support))
    out = SymState()
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(0, max_degree)
        atoms = [
            ("pole", rng.choice(points), rng.randint(2, max_order)) for _ in range(deg)
        ]
        out = out + monomial_state(atoms, rand_scalar(rng))
    return out if out else vacuum()


def _safe_translation(rng, pool_amounts, *states_and_supports):
    for amount in pool_amounts:
        ok = True
        for sup, targets in states_and_supports:
            moved = {p + amount for p in sup}
            for q in targets:
                if any(not (p - q) for p in moved):
                    ok = False
        if ok:
            return amount
    raise AssertionError("no collision-free translation available")


def axiom_suite(structure_name: str, seed: int, degree: int = 3, samples: int = 25) -> dict:
    """Exact randomized verification of the defining identities.

    Returns {identity-name: {"passed": bool, "checked": n, "witness": ...}}.
    """
    Y = structure(structure_name)
    rng = random.Random(seed)
    pool = [GaussRational(k) for k in (-2, -1, 1, 2, 3)] + [GaussRational(0, 1)]
    amounts = [GaussRational(k) for k in (5, 7, -6, 11)] + [GaussRational(0, 5)]
    lambdas = [GaussRational(2), GaussRational(-1), GaussRational(Fraction(1, 2))]

    report: dict = {}

    def record(name, passed, witness=None):
        entry = report.setdefault(name, {"passed": True, "checked": 0, "witness": None})
        entry["checked"] += 1
        if not passed and entry["passed"]:
            entry["passed"] = False
            entry["witness"] = witness

    max_order = 3
    for trial in range(samples):
        v1 = _rand_vertex_state(rng, pool, max_degree=degree, max_order=max_order)
        v2 = _rand_vertex_state(rng, pool, max_degree=min(2, degree), max_order=max_order)
        psi = _rand_vertex_state(rng, pool, max_degree=2, max_order=max_order)
        s1, s2, sp = sing_support(v1), sing_support(v2), sing_support(psi)

        a1 = _safe_translation(rng, rng.sample(amounts, len(amounts)), (s1, sp | s2))
        # vacuum/identity/creation
        record("identity", Y(vacuum(), a1, psi) == psi, trial)
        record("creation-at-zero", Y(v1, QI_ZERO, vacuum()) == v1, trial)
        record(
            "creation-translates",
            Y(v1, a1, vacuum()) == translate(a1, v1),
            trial,
        )
        # support containment
        out = Y(v1, a1, psi)
        allowed = sp | {p + a1 for p in s1}
        record(
            "support-containment",
            sing_support(out) <= allowed,
            trial,
        )
        # skew-symmetry
        try:
            lhs = Y(v1, a1, v2)
            rhs = translate(a1, Y(v2, -a1, v1))
            record("skew-symmetry", lhs == rhs, trial)
        except DomainError:
            pass
        # translation covariance
        a2 = _safe_translation(
            rng, rng.sample(amounts, len(amounts)), ({p + a1 for p in s1}, sp)
        )
        lhs = Y(translate(a2, v1), a1, psi)
        rhs = translate(a2, Y(v1, a1, translate(-a2, psi)))
        record("translation-covariance", lhs == rhs, trial)
        # rotation covariance
        lam = rng.choice(lambdas)
        lhs = Y(rotate(lam, v1), lam * a1, psi)
        rhs = rotate(lam, Y(v1, a1, rotate(1 / lam, psi)))
        record("rotation-covariance", lhs == rhs, trial)
        # commutativity at disjoint shifted supports
        b1 = a1
        b2 = _safe_translation(
            rng,
            rng.sample(amounts, len(amounts)),
            (s2, sp | {p + b1 for p in s1}),
        )
        try:
            lhs = Y(v1, b1, Y(v2, b2, psi))
            rhs = Y(v2, b2, Y(v1, b1, psi))
            record("commutativity", lhs == rhs, trial)
        except DomainError:
            pass
        # associativity
        try:
            inner = Y(v1, b1 - b2, v2)
            lhs = Y(inner, b2, psi)
            rhs = Y(v1, b1, Y(v2, b2, psi))
            record("associativity", lhs == rhs, trial)
        except DomainError:
            pass
        # lowering-mode derivative property
        lhs = Y(translation_generator(v1), a1, psi)
        rhs = structure_derivative(Y, v1, a1, psi)
        record("lowering-derivative", lhs == rhs, trial)
    return report


# ---------------------------------------------------------------------------
# Generation within explicit budgets
# ---------------------------------------------------------------------------


def _state_to_vector(state: SymState, basis_index: dict, grow):
    vec = {}
    for mon, c in state.terms.items():
        if mon not in basis_index:
            if not grow:
                return None
            basis_index[mon] = len(basis_index)
        vec[basis_index[mon]] = c
    return vec


def solve_membership(vectors, target_vec, dim) -> bool:
    """Exact Gaussian elimination membership test."""
    rows = [dict(v) for v in vectors]
    target = dict(target_vec)
    pivots = {}
    for row in rows:
        r = dict(row)
        for col, prow in pivots.items():
            if col in r and r[col]:
                factor = r[col]
                for k, val in prow.items():
                    add_term(r, k, -factor * val)
        lead = None
        for k in sorted(r):
            if r[k]:
                lead = k
                break
        if lead is None:
            continue
        inv = 1 / r[lead]
        pivots[lead] = {k: v * inv for k, v in r.items() if v}
    for col, prow in pivots.items():
        if col in target and target[col]:
            factor = target[col]
            for k, val in prow.items():
                add_term(target, k, -factor * val)
    return not any(target.values())


def generation_check(structure_name: str, points, degree_bound: int, target: SymState, max_order: int = 3) -> dict:
    """Span test: products of structure operators on the vacuum against a target.

    The span is explored within explicit degree and pole-order budgets;
    the report says whether the target was reached within them.
    """
    Y = structure(structure_name)
    pts = [coerce_scalar_or_jet(p) for p in points]
    singles = []
    for k in range(2, max_order + 1):
        singles.append(monomial_state([("pole", QI_ZERO, k)]))
    generated = [vacuum()]
    frontier = [vacuum()]
    for _ in range(degree_bound):
        nxt = []
        for base in frontier:
            for single in singles:
                for p in pts:
                    try:
                        new = Y(single, p, base)
                    except DomainError:
                        continue
                    if new.degree() <= degree_bound:
                        nxt.append(new)
        generated.extend(nxt)
        frontier = nxt
    basis_index: dict = {}
    vectors = []
    for g in generated:
        vec = _state_to_vector(g, basis_index, grow=True)
        vectors.append(vec)
    target_vec = _state_to_vector(target, basis_index, grow=False)
    if target_vec is None:
        return {"within_budget": False, "generated": len(vectors)}
    ok = solve_membership(vectors, target_vec, len(basis_index))
    return {"within_budget": ok, "generated": len(vectors)}
