"""Loop-algebra currents with structure-constant Lie data.

States are spanned by ordered products of loop generators v_a (u-c)^(-l)
(straightened into a fixed normal form on construction), optionally
tensored with marked finite-dimensional representation vectors.  The
fields act by exact left multiplication and by the commutation-driven
contraction recursion; operators attached to test functions act through
residues.  Everything is measured on states, never assumed.
"""

from __future__ import annotations

import itertools

from .exactnum import (
    GaussRational,
    INFINITY,
    Poly,
    QI_ONE,
    QI_ZERO,
    RatFunc,
    coerce_scalar,
    gauss_rational_roots,
    local_expansion,
    partial_fractions,
    residue_at,
)
from .boson import eps_tilde_offset
from .geometry import _loop_product
from .states import DomainError, LinComb, add_term

__all__ = [
    "LieAlgebra",
    "abelian_algebra",
    "sl2_algebra",
    "lie_algebra_by_name",
    "InsertionContext",
    "CurrentState",
    "current_vacuum",
    "LoopGen",
    "pbw_normalize",
    "epsilon_apply",
    "iota_apply",
    "j_apply",
    "npoint_current",
    "npoint_current_operator",
    "three_point_closed_form",
    "four_point_closed_form",
    "mode_j",
    "affine_bracket_check",
    "J_P_apply",
    "J_site_apply",
    "base_point_independence_check",
    "current_pair",
    "residue_pair_degree_one",
    "dual_gen_function",
    "separation_check",
    "current_expand_at_generic_point",
]


# ---------------------------------------------------------------------------
# Lie data
# ---------------------------------------------------------------------------


# structure (labels, brackets, form) -> small int: the cache key of an algebra
_STRUCTURE_KEYS: dict = {}


class LieAlgebra:
    """Structure constants plus an invariant symmetric bilinear form.

    ``key`` identifies the structure, not the name: the caches of this
    module are keyed on it, so two algebras share entries exactly when
    their labels, brackets and form agree.
    """

    def __init__(self, name, labels, brackets, form):
        self.name = name
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        table = {}
        for (i, j), comps in brackets.items():
            comps = {k: GaussRational.coerce(c) for k, c in comps.items()}
            table[(i, j)] = {k: c for k, c in comps.items() if c}
            table[(j, i)] = {k: -c for k, c in comps.items() if c}
        self.brackets = table
        self.form = {}
        for (i, j), val in form.items():
            self.form[(i, j)] = self.form[(j, i)] = GaussRational.coerce(val)
        self.validate()
        structure = (
            self.labels,
            tuple(sorted((ij, tuple(sorted(comps.items()))) for ij, comps in table.items())),
            tuple(sorted(self.form.items())),
        )
        self.key = _STRUCTURE_KEYS.setdefault(structure, len(_STRUCTURE_KEYS))

    def bracket_basis(self, i, j) -> dict:
        return self.brackets.get((i, j), {})

    def bracket(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, c in self.bracket_basis(i, j).items():
                    add_term(out, k, ci * cj * c)
        return out

    def pair(self, x: dict, y: dict):
        total = QI_ZERO
        for i, ci in x.items():
            for j, cj in y.items():
                g = self.form.get((i, j))
                if g:
                    total = total + ci * cj * g
        return total

    def basis_element(self, i) -> dict:
        if isinstance(i, str):
            i = self.labels.index(i)
        return {i: QI_ONE}

    def validate(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                lhs = self.bracket_basis(i, j)
                rhs = {k: -c for k, c in self.bracket_basis(j, i).items()}
                if lhs != rhs:
                    raise ValueError("bracket table is not antisymmetric")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    # [i,[j,k]] - [[i,j],k] - [j,[i,k]] must vanish
                    acc: dict = {}
                    for mid, c in self.bracket_basis(j, k).items():
                        for m, c2 in self.bracket_basis(i, mid).items():
                            acc[m] = acc.get(m, QI_ZERO) + c * c2
                    for mid, c in self.bracket_basis(i, j).items():
                        for m, c2 in self.bracket_basis(mid, k).items():
                            acc[m] = acc.get(m, QI_ZERO) - c * c2
                    for mid, c in self.bracket_basis(i, k).items():
                        for m, c2 in self.bracket_basis(j, mid).items():
                            acc[m] = acc.get(m, QI_ZERO) - c * c2
                    if any(acc.values()):
                        raise ValueError("structure constants fail the Jacobi identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    total = QI_ZERO
                    for m, c in self.bracket_basis(i, j).items():
                        total = total + c * self.form.get((m, k), QI_ZERO)
                    for m, c in self.bracket_basis(i, k).items():
                        total = total + c * self.form.get((j, m), QI_ZERO)
                    if total:
                        raise ValueError("bilinear form is not invariant")

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim})"


def abelian_algebra() -> LieAlgebra:
    return LieAlgebra("abelian", ("t",), {}, {(0, 0): 1})


def sl2_algebra() -> LieAlgebra:
    """Basis e, h, f with the trace form of the defining representation."""
    return LieAlgebra(
        "sl2",
        ("e", "h", "f"),
        {
            (0, 2): {1: 1},    # [e, f] = h
            (1, 0): {0: 2},    # [h, e] = 2e
            (1, 2): {2: -2},   # [h, f] = -2f
        },
        {(0, 2): 1, (1, 1): 2},
    )


def lie_algebra_by_name(name: str) -> LieAlgebra:
    if name == "abelian":
        return abelian_algebra()
    if name == "sl2":
        return sl2_algebra()
    raise ValueError(f"unknown algebra {name!r}")


def sl2_fundamental() -> dict:
    """Matrices of the defining two-dimensional representation (by rows)."""
    return {
        0: ((QI_ZERO, QI_ONE), (QI_ZERO, QI_ZERO)),   # e
        1: ((QI_ONE, QI_ZERO), (QI_ZERO, -QI_ONE)),   # h
        2: ((QI_ZERO, QI_ZERO), (QI_ONE, QI_ZERO)),   # f
    }


def trivial_rep() -> dict:
    return {}


class InsertionContext:
    """Marked points with representation matrices (rows of the action)."""

    def __init__(self, algebra: LieAlgebra, sites):
        self.algebra = algebra
        self.points = tuple(GaussRational.coerce(p) for p, _ in sites)
        self.reps = tuple(rep for _, rep in sites)
        self.dims = tuple(
            max((len(m) for m in rep.values()), default=1) for rep in self.reps
        )
        if len(set((p.re, p.im) for p in self.points)) != len(self.points):
            raise DomainError("insertion points must be distinct")

    def act(self, site: int, lie_idx: int, vec_idx: int) -> dict:
        """Action of a basis element on a basis vector: {new_idx: coeff}."""
        rep = self.reps[site]
        matrix = rep.get(lie_idx)
        if matrix is None:
            return {}
        out = {}
        for row in range(len(matrix)):
            c = matrix[row][vec_idx]
            if c:
                out[row] = c
        return out


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def LoopGen(a: int, c, l: int):
    if l < 1:
        raise ValueError("loop generators vanish at infinity (order >= 1)")
    return (a, coerce_scalar(c), l)


def _gen_key(gen):
    a, c, l = gen
    return (c.sort_key(), -l, a)


class CurrentState(LinComb):
    """Linear combination of normal-form words, with insertion indices.

    ``ctx`` rides along: results keep it, and a sum takes whichever side
    has one.  Equality compares the terms only.
    """

    __slots__ = ("ctx",)

    def __init__(self, terms=None, ctx: InsertionContext | None = None):
        LinComb.__init__(self, terms)
        self.ctx = ctx

    def _like(self, terms):
        return CurrentState(terms, self.ctx)

    def __add__(self, other: "CurrentState") -> "CurrentState":
        out = LinComb.__add__(self, other)
        out.ctx = self.ctx or other.ctx
        return out

    def degree(self) -> int:
        return max((len(w) for w, _ in self.terms), default=0)

    def vacuum_coefficient(self):
        for (word, ins), coeff in self.terms.items():
            if not word:
                return coeff
        return QI_ZERO

    def poles(self) -> set:
        out = set()
        for (word, _), _ in self.terms.items():
            for gen in word:
                out.add(gen[1])
        return out

    def __repr__(self):
        bits = []
        for (word, ins), coeff in self.terms.items():
            bits.append(f"({coeff})*{list(word)}|{list(ins)}")
        return "CurrentState(" + (" + ".join(bits) or "0") + ")"


def _sum_terms(state: CurrentState, term_of) -> CurrentState:
    """The sum of coeff * term_of(word, ins) over the terms (word, ins) -> coeff of state.

    Accumulates into one dict, so a term costs its own size, not the size
    of the sum so far; the result keeps state.ctx.
    """
    out: dict = {}
    for (word, ins), coeff in state.terms.items():
        for key, c in term_of(word, ins).terms.items():
            add_term(out, key, c * coeff)
    return CurrentState(out, state.ctx)


def current_vacuum(ctx: InsertionContext | None = None, ins=None) -> CurrentState:
    if ctx is None:
        return CurrentState({((), ()): QI_ONE})
    if ins is None:
        ins = tuple(0 for _ in ctx.points)
    return CurrentState({((), tuple(ins)): QI_ONE}, ctx)


# ---------------------------------------------------------------------------
# Straightening
# ---------------------------------------------------------------------------

_PBW_CACHE: dict = {}


def _pbw_word_terms(algebra: LieAlgebra, word) -> dict:
    """Normal-form expansion {sorted word: coeff} of one input word."""
    key = (algebra.key, word)
    cached = _PBW_CACHE.get(key)
    if cached is not None:
        return cached
    out: dict = {}
    stack = [(word, QI_ONE)]
    while stack:
        w, c = stack.pop()
        idx = None
        for i in range(len(w) - 1):
            if _gen_key(w[i]) > _gen_key(w[i + 1]):
                idx = i
                break
        if idx is None:
            add_term(out, w, c)
            continue
        x, y = w[idx], w[idx + 1]
        swapped = w[:idx] + (y, x) + w[idx + 2:]
        stack.append((swapped, c))
        comps = algebra.bracket_basis(x[0], y[0])
        if comps:
            for cc, order, pcoeff in _loop_product(x[1], x[2], y[1], y[2]):
                for k, bc in comps.items():
                    neww = w[:idx] + ((k, cc, order),) + w[idx + 2:]
                    stack.append((neww, c * bc * pcoeff))
    _PBW_CACHE[key] = out
    return out


def pbw_normalize(algebra: LieAlgebra, word, ins=(), coeff=QI_ONE, ctx=None) -> CurrentState:
    """Straighten an arbitrary word into the fixed normal form."""
    ins = tuple(ins)
    out: dict = {}
    for w, c in _pbw_word_terms(algebra, tuple(word)).items():
        val = c * coeff
        if val:
            out[(w, ins)] = val
    return CurrentState(out, ctx)


def _left_multiply(algebra, combos, state: CurrentState) -> CurrentState:
    """Left multiplication by sum(coeff * LoopGen) followed by straightening."""
    out: dict = {}
    for gen, gcoeff in combos:
        for (word, ins), c in state.terms.items():
            coeff = c * gcoeff
            for w, wc in _pbw_word_terms(algebra, (gen,) + word).items():
                add_term(out, (w, ins), wc * coeff)
    return CurrentState(out, state.ctx)


# ---------------------------------------------------------------------------
# The three fields
# ---------------------------------------------------------------------------


def _as_elem(algebra, v):
    if isinstance(v, dict):
        return v
    return algebra.basis_element(v)


def epsilon_apply(algebra, v, z, state: CurrentState) -> CurrentState:
    """Left multiplication by the simple-pole loop element at z."""
    v = _as_elem(algebra, v)
    z = coerce_scalar(z)
    combos = [((a, z, 1), coeff) for a, coeff in v.items()]
    return _left_multiply(algebra, combos, state)


_IOTA_CACHE: dict = {}


def iota_apply(algebra, v, z, state: CurrentState) -> CurrentState:
    """Contraction field at z via the commutation recursion."""
    v = _as_elem(algebra, v)
    z = coerce_scalar(z)
    ctx = state.ctx
    return _sum_terms(state, lambda word, ins: _iota_term_cached(algebra, v, z, word, ins, ctx))


def _iota_term_cached(algebra, v, z, word, ins, ctx) -> CurrentState:
    if ctx is not None:
        return _iota_term(algebra, v, z, word, ins, ctx)
    key = (algebra.key, tuple(sorted(v.items())), z, word)
    cached = _IOTA_CACHE.get(key)
    if cached is None:
        cached = _iota_term(algebra, v, z, word, ins, ctx)
        _IOTA_CACHE[key] = cached
    return cached


def _iota_term(algebra, v, z, word, ins, ctx) -> CurrentState:
    if not word:
        if ctx is None:
            return CurrentState({}, ctx)
        out: dict = {}
        for j, zj in enumerate(ctx.points):
            dz = z - zj
            if not dz:
                raise DomainError("contraction field applied at an insertion point")
            for a, va in v.items():
                for new_idx, mc in ctx.act(j, a, ins[j]).items():
                    new_ins = ins[:j] + (new_idx,) + ins[j + 1:]
                    add_term(out, ((), new_ins), va * mc / dz)
        return CurrentState(out, ctx)
    x = word[0]
    rest = word[1:]
    b, c, l = x
    if not (z - c):
        raise DomainError("state has a loop pole at the field point")
    rest_state = CurrentState({(rest, ins): QI_ONE}, ctx)
    # x . iota(rest)
    out = _left_multiply(algebra, [(x, QI_ONE)], _iota_term_cached(algebra, v, z, rest, ins, ctx))
    # -(v, dx(z)) rest : the function part differentiates to -l (z-c)^-(l+1)
    vb = {b: QI_ONE}
    g = algebra.pair(v, vb)
    if g:
        out = out + rest_state.scale(g * l / (z - c) ** (l + 1))
    # bracket element [v, x(z)] and its two field contributions
    w_elem = algebra.bracket(v, vb)
    if w_elem:
        xz = 1 / (z - c) ** l
        scaled = {k: cv * xz for k, cv in w_elem.items()}
        out = out + _iota_term_cached(algebra, scaled, z, rest, ins, ctx)
        out = out + _left_multiply(
            algebra, [((k, z, 1), cv) for k, cv in scaled.items()], rest_state
        )
        # -[eps^v(z), x] as a multiplication operator
        combos = []
        for cc, order, pcoeff in _loop_product(z, 1, c, l):
            for k, bc in w_elem.items():
                combos.append(((k, cc, order), -bc * pcoeff))
        out = out + _left_multiply(algebra, combos, rest_state)
    return out


def j_apply(algebra, v, z, state: CurrentState) -> CurrentState:
    return epsilon_apply(algebra, v, z, state) + iota_apply(algebra, v, z, state)


# ---------------------------------------------------------------------------
# n-point functions
# ---------------------------------------------------------------------------


def npoint_current(algebra, vs, points):
    """Closed recursion for the vacuum expectation of a product of currents."""
    vs = [_as_elem(algebra, v) for v in vs]
    pts = [coerce_scalar(p) for p in points]
    _require_distinct(pts)
    return _npoint_rec(algebra, vs, pts)


def _npoint_rec(algebra, vs, pts):
    n = len(vs)
    if n == 0:
        return QI_ONE
    if n == 1:
        return QI_ZERO
    total = QI_ZERO
    v1, z1 = vs[0], pts[0]
    for l in range(1, n):
        g = algebra.pair(v1, vs[l])
        if g:
            rest_v = vs[1:l] + vs[l + 1:]
            rest_p = pts[1:l] + pts[l + 1:]
            total = total + g / (z1 - pts[l]) ** 2 * _npoint_rec(algebra, rest_v, rest_p)
        br = algebra.bracket(v1, vs[l])
        if br:
            new_v = vs[1:l] + [br] + vs[l + 1:]
            new_p = pts[1:]
            total = total + _npoint_rec(algebra, new_v, new_p) / (z1 - pts[l])
    return total


def npoint_current_operator(algebra, vs, points):
    """Vacuum component of the composed field product."""
    vs = [_as_elem(algebra, v) for v in vs]
    pts = [coerce_scalar(p) for p in points]
    _require_distinct(pts)
    state = current_vacuum()
    for v, z in zip(reversed(vs), reversed(pts)):
        state = j_apply(algebra, v, z, state)
    return state.vacuum_coefficient()


def _require_distinct(pts):
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not (pts[i] - pts[j]):
                raise DomainError("points must be pairwise distinct")


def three_point_closed_form(algebra, vs, points):
    v1, v2, v3 = (_as_elem(algebra, v) for v in vs)
    z1, z2, z3 = (coerce_scalar(p) for p in points)
    num = algebra.pair(v1, algebra.bracket(v2, v3))
    return num / ((z1 - z2) * (z1 - z3) * (z2 - z3))


def four_point_closed_form(algebra, vs, points):
    v = [_as_elem(algebra, x) for x in vs]
    z = [coerce_scalar(p) for p in points]

    def g(i, j):
        return algebra.pair(v[i], v[j])

    def gb(i, j, k, l):
        return algebra.pair(algebra.bracket(v[i], v[j]), algebra.bracket(v[k], v[l]))

    total = g(0, 1) * g(2, 3) / ((z[0] - z[1]) ** 2 * (z[2] - z[3]) ** 2)
    total = total + g(0, 2) * g(1, 3) / ((z[0] - z[2]) ** 2 * (z[1] - z[3]) ** 2)
    total = total + g(0, 3) * g(1, 2) / ((z[0] - z[3]) ** 2 * (z[1] - z[2]) ** 2)
    total = total + gb(0, 1, 2, 3) / (
        (z[0] - z[1]) * (z[1] - z[2]) * (z[1] - z[3]) * (z[2] - z[3])
    )
    total = total - gb(0, 2, 1, 3) / (
        (z[0] - z[2]) * (z[1] - z[2]) * (z[1] - z[3]) * (z[2] - z[3])
    )
    total = total + gb(0, 3, 1, 2) / (
        (z[0] - z[3]) * (z[2] - z[3]) * (z[1] - z[3]) * (z[1] - z[2])
    )
    return total


# ---------------------------------------------------------------------------
# Modes and test-function operators
# ---------------------------------------------------------------------------


_MODE_CACHE: dict = {}


def mode_j(algebra, v, l: int, state: CurrentState) -> CurrentState:
    """Loop modes at the origin; negative modes multiply, others recurse."""
    v = _as_elem(algebra, v)
    if l <= -1:
        combos = [((a, QI_ZERO, -l), coeff) for a, coeff in v.items()]
        return _left_multiply(algebra, combos, state)
    return _sum_terms(state, lambda word, ins: _mode_term(algebra, v, l, word, ins, state.ctx))


def _mode_term(algebra, v, l, word, ins, ctx) -> CurrentState:
    if not word:
        return CurrentState({}, ctx)
    key = (algebra.key, tuple(sorted(v.items())), l, word, ins)
    cached = _MODE_CACHE.get(key)
    if cached is not None:
        return cached
    x = word[0]
    b, c, m = x
    if c != QI_ZERO:
        raise DomainError("nonnegative modes act on origin-supported states")
    rest = word[1:]
    rest_state = CurrentState({(rest, ins): QI_ONE}, ctx)
    out = _left_multiply(algebra, [(x, QI_ONE)], _mode_term(algebra, v, l, rest, ins, ctx))
    vb = {b: QI_ONE}
    if l == m:
        g = algebra.pair(v, vb)
        if g:
            out = out + rest_state.scale(g * l)
    br = algebra.bracket(v, vb)
    if br:
        if l - m <= -1:
            combos = [((k, QI_ZERO, m - l), bc) for k, bc in br.items()]
            out = out + _left_multiply(algebra, combos, rest_state)
        else:
            out = out + _mode_term(algebra, br, l - m, rest, ins, ctx)
    _MODE_CACHE[key] = out
    return out


def affine_bracket_check(algebra, a, l: int, b, m: int, spanning=None):
    """Measure [j_l, j_m] against the loop bracket plus central term.

    Returns the measured central scalar; raises when the operator part is
    not the expected mode of the bracket element.
    """
    va = _as_elem(algebra, a)
    vb = _as_elem(algebra, b)
    if spanning is None:
        spanning = _origin_spanning(algebra)
    br = algebra.bracket(va, vb)
    central = None
    for state in spanning:
        lhs = mode_j(algebra, va, l, mode_j(algebra, vb, m, state)) - mode_j(
            algebra, vb, m, mode_j(algebra, va, l, state)
        )
        if br:
            lhs = lhs - mode_j(algebra, br, l + m, state)
        if central is None:
            central = lhs.vacuum_coefficient() if state.degree() == 0 else None
        expected = state.scale(central if central is not None else QI_ZERO)
        if lhs != expected:
            raise AssertionError(f"mode bracket [{a},{l};{b},{m}] is not central")
    expected_central = (
        algebra.pair(va, vb) * l if l + m == 0 else QI_ZERO
    )
    if central != expected_central:
        raise AssertionError(
            f"central term {central} differs from {expected_central}"
        )
    return central


def _origin_spanning(algebra):
    out = [current_vacuum()]
    for a in range(algebra.dim):
        out.append(pbw_normalize(algebra, ((a, QI_ZERO, 1),)))
        out.append(pbw_normalize(algebra, ((a, QI_ZERO, 2),)))
    for a in range(algebra.dim):
        for b in range(algebra.dim):
            out.append(
                pbw_normalize(algebra, ((a, QI_ZERO, 1), (b, QI_ZERO, 2)))
            )
    return out


# ---------------------------------------------------------------------------
# Operators attached to Lie-valued functions
# ---------------------------------------------------------------------------


def _nu_components(algebra, nu):
    """Normalize a Lie-valued function to {basis index: RatFunc}."""
    out = {}
    for key, f in (nu.items() if isinstance(nu, dict) else nu):
        idx = algebra.labels.index(key) if isinstance(key, str) else key
        if not isinstance(f, RatFunc):
            f = RatFunc.const(GaussRational.coerce(f))
        if f:
            out[idx] = out.get(idx, RatFunc.const(QI_ZERO)) + f
    return {k: v for k, v in out.items() if v}


def _nu_bracket_gen(algebra, nu_comps, gen):
    """[nu, v_b (u-c)^-l] as a Lie-valued rational function."""
    b, c, l = gen
    u = RatFunc.variable(QI_ONE)
    base = 1 / (u - c) ** l
    out = {}
    for a, f in nu_comps.items():
        for k, bc in algebra.bracket_basis(a, b).items():
            out[k] = out.get(k, RatFunc.const(QI_ZERO)) + f * base * bc
    return {k: v for k, v in out.items() if v}


def _nu_pair_d_gen(algebra, nu_comps, gen, site):
    """Res_site (nu, d[v_b (u-c)^-l])."""
    b, c, l = gen
    u = RatFunc.variable(QI_ONE)
    dfn = (1 / (u - c) ** l).derivative()
    total = QI_ZERO
    for a, f in nu_comps.items():
        g = algebra.form.get((a, b))
        if g:
            total = total + g * residue_at(f * dfn, site)
    return total


def _nu_split(nu_comps):
    """Partial-fraction split: (pole atoms by location, constant, polynomial)."""
    atoms = {}
    const = {}
    polys = {}
    for a, f in nu_comps.items():
        dec = partial_fractions(f)
        for c, order, coeff in dec.terms:
            atoms.setdefault(c, []).append((a, order, coeff))
        for m, coeff in enumerate(dec.polynomial.coeffs):
            if not coeff:
                continue
            if m == 0:
                const[a] = const.get(a, QI_ZERO) + coeff
            else:
                polys.setdefault(a, {})[m] = coeff
    return atoms, {k: v for k, v in const.items() if v}, polys


def J_P_apply(algebra, nu, state: CurrentState) -> CurrentState:
    """Operator attached to nu at the base point at infinity."""
    nu_comps = _nu_components(algebra, nu)
    return _sum_terms(state, lambda word, ins: _J_P_term(algebra, nu_comps, word, ins, state.ctx))


def _J_P_term(algebra, nu_comps, word, ins, ctx) -> CurrentState:
    if not word:
        return _J_P_base(algebra, nu_comps, ins, ctx)
    x = word[0]
    rest = word[1:]
    rest_state = CurrentState({(rest, ins): QI_ONE}, ctx)
    out = _left_multiply(
        algebra, [(x, QI_ONE)], _J_P_term(algebra, nu_comps, rest, ins, ctx)
    )
    bracket_nu = _nu_bracket_gen(algebra, nu_comps, x)
    if bracket_nu:
        out = out + _J_P_term(algebra, bracket_nu, rest, ins, ctx)
    res = _nu_pair_d_gen(algebra, nu_comps, x, INFINITY)
    if res:
        out = out - rest_state.scale(res)
    return out


def _J_P_base(algebra, nu_comps, ins, ctx) -> CurrentState:
    atoms, const, polys = _nu_split(nu_comps)
    out = CurrentState({}, ctx)
    vac = CurrentState({((), tuple(ins)): QI_ONE}, ctx)
    combos = []
    for c, entries in atoms.items():
        for a, order, coeff in entries:
            combos.append(((a, c, order), coeff))
    if combos:
        out = out + _left_multiply(algebra, combos, vac)
    if ctx is not None:
        acts: dict = {}
        for j, zj in enumerate(ctx.points):
            # constant part acts diagonally; polynomial part by its value
            _act_on_slot(ctx, j, ins, const.items(), acts)
            _act_on_slot(ctx, j, ins, _poly_values(polys, zj), acts)
        out = out + CurrentState(acts, ctx)
    return out


def _poly_values(polys, z):
    """[(a, p_a(z))] for polynomial parts {a: {power: coeff}}."""
    out = []
    for a, powers in polys.items():
        val = QI_ZERO
        for m, coeff in powers.items():
            val = val + coeff * z ** m
        out.append((a, val))
    return out


def _act_on_slot(ctx, j, ins, values, out: dict):
    """Accumulate the action of sum(val * v_a) on insertion slot j into out."""
    for a, val in values:
        if val:
            for idx, mc in ctx.act(j, a, ins[j]).items():
                add_term(out, ((), ins[:j] + (idx,) + ins[j + 1:]), val * mc)


def J_site_apply(algebra, nu, site_index: int, state: CurrentState) -> CurrentState:
    """Operator attached to nu, local at the given insertion point."""
    if state.ctx is None:
        raise DomainError("site operators need an insertion context")
    nu_comps = _nu_components(algebra, nu)
    return _sum_terms(
        state, lambda word, ins: _J_site_term(algebra, nu_comps, site_index, word, ins, state.ctx)
    )


def _J_site_term(algebra, nu_comps, site, word, ins, ctx) -> CurrentState:
    if not word:
        return _J_site_base(algebra, nu_comps, site, ins, ctx)
    x = word[0]
    rest = word[1:]
    rest_state = CurrentState({(rest, ins): QI_ONE}, ctx)
    out = _left_multiply(
        algebra, [(x, QI_ONE)], _J_site_term(algebra, nu_comps, site, rest, ins, ctx)
    )
    bracket_nu = _nu_bracket_gen(algebra, nu_comps, x)
    if bracket_nu:
        out = out + _J_site_term(algebra, bracket_nu, site, rest, ins, ctx)
    res = _nu_pair_d_gen(algebra, nu_comps, x, ctx.points[site])
    if res:
        out = out + rest_state.scale(res)
    return out


def _J_site_base(algebra, nu_comps, site, ins, ctx) -> CurrentState:
    zl = ctx.points[site]
    atoms, const, polys = _nu_split(nu_comps)
    out = CurrentState({}, ctx)
    vac = CurrentState({((), tuple(ins)): QI_ONE}, ctx)
    acts: dict = {}
    # singular-at-the-site part: multiply, minus its values at other sites
    sing = [entry for c, entries in atoms.items() if c == zl for entry in entries]
    if sing:
        combos = [((a, zl, order), coeff) for a, order, coeff in sing]
        out = out + _left_multiply(algebra, combos, vac)
        for j, zj in enumerate(ctx.points):
            if j != site:
                values = [(a, -coeff / (zj - zl) ** order) for a, order, coeff in sing]
                _act_on_slot(ctx, j, ins, values, acts)
    # regular-at-the-site part: value at the site acting there
    _act_on_slot(ctx, site, ins, const.items(), acts)
    for c, entries in atoms.items():
        if c != zl:
            values = [(a, coeff / (zl - c) ** order) for a, order, coeff in entries]
            _act_on_slot(ctx, site, ins, values, acts)
    _act_on_slot(ctx, site, ins, _poly_values(polys, zl), acts)
    return out + CurrentState(acts, ctx)


# ---------------------------------------------------------------------------
# Base-point independence
# ---------------------------------------------------------------------------


def constant_adjoint(algebra, elem: dict, state: CurrentState) -> CurrentState:
    """Action of a constant Lie element on the vacuum-sector quotient.

    Constants act by the derivation bracketing each word letter (their
    direct action on the vacuum slot vanishes; insertion slots, when
    present, are acted on matrix-wise).
    """
    out = CurrentState({}, state.ctx)
    acts: dict = {}
    for (word, ins), coeff in state.terms.items():
        for i, (b, c, l) in enumerate(word):
            br = algebra.bracket(elem, {b: QI_ONE})
            for k, bc in br.items():
                neww = word[:i] + ((k, c, l),) + word[i + 1:]
                out = out + pbw_normalize(algebra, neww, ins, coeff * bc, state.ctx)
        if state.ctx is not None:
            for j in range(len(state.ctx.points)):
                for a, va in elem.items():
                    for idx, mc in state.ctx.act(j, a, ins[j]).items():
                        add_term(acts, (word, ins[:j] + (idx,) + ins[j + 1:]), coeff * va * mc)
    return out + CurrentState(acts, state.ctx)


def _convert_reciprocal_word_to_origin(algebra, word, coeff):
    """Rewrite a reciprocal-chart word as an origin-chart state.

    A reciprocal-chart generator v_a (u_t - c)^(-l) (u_t = 1/u) is, in the
    u-chart, a function regular at infinity: loop atoms plus a constant.
    The atoms multiply; the constant acts adjointly (it annihilates only
    the vacuum slot).
    """
    u = RatFunc.variable(QI_ONE)
    state = CurrentState({((), ()): coeff})
    for (a, c, l) in reversed(word):
        f = (1 / (1 / u - c)) ** l
        dec = partial_fractions(f)
        if dec.polynomial.degree > 0:
            raise DomainError("reciprocal generator has a pole at the origin")
        combos = [((a, cc, order), co) for cc, order, co in dec.terms]
        new_state = _left_multiply(algebra, combos, state)
        if dec.polynomial.coeffs:
            const = dec.polynomial.coeffs[0]
            if const:
                new_state = new_state + constant_adjoint(
                    algebra, {a: const}, state
                )
        state = new_state
    return state


def base_point_independence_check(algebra, v, z, recip_word) -> bool:
    """The current computed in the reciprocal chart matches the u-chart one.

    ``recip_word`` is a word of reciprocal-chart loop generators; the check
    converts it (modulo constants), applies the current on both sides, and
    compares, also measuring that the creation halves differ by exactly
    the constant Lie element v/z (the base-point shift).
    """
    v = _as_elem(algebra, v)
    z = coerce_scalar(z)
    if not z:
        raise DomainError("base-point comparison needs a point away from both charts")
    # u-chart side
    state_u = _convert_reciprocal_word_to_origin(algebra, recip_word, QI_ONE)
    j_u = j_apply(algebra, v, z, state_u)
    # reciprocal-chart side: the same word, fields in the reciprocal coordinate
    state_t = pbw_normalize(algebra, recip_word)
    zt = 1 / z
    eps_t = epsilon_apply(algebra, v, zt, state_t)
    iota_t = iota_apply(algebra, v, zt, state_t)
    # hatted conversion: the reciprocal form factor d(u_t)/du at z is -1/z^2
    j_t = (eps_t + iota_t).scale(-1 / z ** 2)
    converted = CurrentState({}, None)
    for (word, ins), c in j_t.terms.items():
        converted = converted + _convert_reciprocal_word_to_origin(algebra, word, c)
    return converted == j_u


# the origin-based creation multiplier exceeds 1/(u-z) by the constant 1/z
epsilon_base_point_offset = eps_tilde_offset


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def in_unit_disc(c) -> bool:
    return c.norm() < 1


def dual_gen_function(gen) -> RatFunc:
    """The u-chart function of a reciprocal-chart generator."""
    a, c, l = gen
    u = RatFunc.variable(QI_ONE)
    return (1 / (1 / u - c)) ** l


def current_pair(algebra, dual: CurrentState, state: CurrentState):
    """Adjointness-generated pairing of reciprocal-chart against u-chart states.

    The dual side carries poles (in the reciprocal coordinate) strictly
    inside the unit circle, the primal side strictly inside in the u-chart;
    region violations are rejected.
    """
    for c in state.poles():
        if not in_unit_disc(c):
            raise DomainError(f"state pole {c} is not inside the unit circle")
    for c in dual.poles():
        if not in_unit_disc(c):
            raise DomainError(f"dual pole {c} is outside its region")
    total = QI_ZERO
    for (word, ins), coeff in dual.terms.items():
        total = total + coeff * _pair_word(algebra, word, state)
    return total


def _pair_word(algebra, word, state: CurrentState):
    if not word:
        return state.vacuum_coefficient()
    a, ctil, l = word[0]
    rest = word[1:]
    one = _one_of_state(state)
    t = RatFunc.variable(one)
    zu = 1 / t
    lifted = CurrentState(
        {key: c for key, c in state.terms.items()}, state.ctx
    )
    moved = iota_apply(algebra, algebra.basis_element(a) if isinstance(a, int) else a, zu, lifted)
    moved = moved.scale(1 / (t * t))
    value = _pair_word(algebra, rest, moved)
    value_rf = value if isinstance(value, RatFunc) else RatFunc(Poly([value]))
    for _ in range(l - 1):
        value_rf = value_rf.derivative()
    fact = 1
    for j in range(1, l):
        fact *= j
    ctil_l = ctil if isinstance(ctil, RatFunc) and isinstance(one, RatFunc) else ctil
    num = value_rf.num.evaluate(ctil_l)
    den = value_rf.den.evaluate(ctil_l)
    return (num / den) / fact


def _one_of_state(state: CurrentState):
    for coeff in state.terms.values():
        return coeff * 0 + 1
    return QI_ONE


def residue_pair_degree_one(algebra, dual_gen, gen):
    """Degree-one contour realization: minus the sum of residues inside."""
    a, ctil, l = dual_gen
    b, c, m = gen
    g = algebra.form.get((a, b), QI_ZERO)
    if not g:
        return QI_ZERO
    u = RatFunc.variable(QI_ONE)
    fprime = dual_gen_function(dual_gen)
    alpha = (1 / (u - c) ** m).derivative()
    prod = fprime * alpha
    total = QI_ZERO
    for root in gauss_rational_roots(prod.den):
        if in_unit_disc(root):
            total = total + residue_at(prod, root)
    return -g * total


def separation_check(algebra, z1, z2, gens1, gens2) -> bool:
    """Two trivial-representation sites: the site operators commute on the vacuum."""
    ctx = InsertionContext(algebra, [(z1, trivial_rep()), (z2, trivial_rep())])
    vac = current_vacuum(ctx)
    u = RatFunc.variable(QI_ONE)
    nu1 = {gens1[0]: 1 / (u - GaussRational.coerce(z1)) ** gens1[1]}
    nu2 = {gens2[0]: 1 / (u - GaussRational.coerce(z2)) ** gens2[1]}
    lhs = J_site_apply(algebra, nu1, 0, J_site_apply(algebra, nu2, 1, vac))
    rhs = J_site_apply(algebra, nu2, 1, J_site_apply(algebra, nu1, 0, vac))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Generic-point expansion for the current (locality / operator products)
# ---------------------------------------------------------------------------


def current_expand_at_generic_point(
    algebra, v, z, state: CurrentState, order: int, field: str = "j"
) -> dict:
    """Expand the chosen field at a generic point, exactly, around z.

    Returns {order: CurrentState}; negative orders are the singular data,
    order 0 the regular value.
    """
    z = coerce_scalar(z)
    one = z * 0 + 1 if isinstance(z, RatFunc) else QI_ONE
    w = RatFunc.variable(one)
    apply_fn = {"j": j_apply, "iota": iota_apply, "epsilon": epsilon_apply}[field]
    applied = apply_fn(algebra, _as_elem(algebra, v), w, state)
    buckets: dict = {}
    for (word, ins), coeff in applied.terms.items():
        moving_pos = [
            i
            for i, gen in enumerate(word)
            if isinstance(gen[1], RatFunc) and gen[1] == w
        ]
        coeff_rf = coeff if isinstance(coeff, RatFunc) else RatFunc(Poly([coeff]))
        while isinstance(coeff_rf, RatFunc) and coeff_rf._level() < w._level():
            coeff_rf = RatFunc(Poly([coeff_rf]))
        m, series = local_expansion(coeff_rf, z, order)
        depth = order + m
        moved_options = []
        for i in moving_pos:
            a, _, l = word[i]
            opts = []
            binom = 1
            for k in range(depth + 1):
                if k > 0:
                    binom = binom * (l + k - 1) // k
                opts.append((k, (a, z, l + k), GaussRational(binom)))
            moved_options.append(opts)
        for jdx, gamma in enumerate(series):
            if not gamma:
                continue
            base_order = jdx - m
            for combo in itertools.product(*moved_options):
                k_total = sum(cb[0] for cb in combo)
                total = base_order + k_total
                if total > order:
                    continue
                factor = gamma
                # substitute the expanded generators at their word positions
                # (the product is ordered, so positions matter)
                new_word = list(word)
                for pos, (k, gen, binom) in zip(moving_pos, combo):
                    factor = factor * binom
                    new_word[pos] = gen
                addition = pbw_normalize(
                    algebra, tuple(new_word), ins, factor, state.ctx
                )
                buckets[total] = buckets.get(total, CurrentState({}, state.ctx)) + addition
    return {k: s for k, s in buckets.items() if s}
