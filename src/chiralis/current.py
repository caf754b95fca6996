"""Loop-algebra currents with structure-constant Lie data.

States are spanned by ordered products of loop generators v_a (u-c)^(-l)
(straightened into a fixed normal form on construction), optionally
tensored with marked finite-dimensional representation vectors.  The
creation field acts by exact left multiplication.  The contraction field
and the operators attached to Lie-valued functions share one commutation
recursion, which passes a word letter by letter, T(x rest) = x T(rest) +
[T, x] rest, on term dicts; the functions' brackets and residues are read
on their known poles.  Everything is measured on states, never assumed.
"""

from __future__ import annotations

from math import comb

from .exactnum import (
    GaussRational,
    QI_ONE,
    QI_ZERO,
    RatFunc,
)
from .geometry import _atom_residue, _loop_product, _pole_part_of_product, atom_eval, atom_product, dec_atoms
from .jets import SLACK, coerce_scalar_or_jet, jet_point, moved_expansion, with_jet_retry
from .pairing import in_open_disc
from .states import DomainError, LinComb, add_term, central_scalar, require_distinct
from .symmetry import _phi_pole_parts

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
    "mode_j",
    "affine_bracket_check",
    "J_P_apply",
    "J_site_apply",
    "base_point_independence_check",
    "current_pair",
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
        # int/Fraction wherever an entry is rational: the tables straightening and the mode kernel read
        self.q_brackets = {ij: {k: _demote(c) for k, c in comps.items()} for ij, comps in table.items()}
        self.q_form = {ij: _demote(g) for ij, g in self.form.items()}
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
        require_distinct(self.points)

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
    return (a, GaussRational.coerce(c), l)


def _gen_key(gen):
    a, c, l = gen
    return (c.sort_key(), -l, a)


def _demote(c):
    """A rational GaussRational as an int or a Fraction; anything else as it is."""
    return (c.a if c.d == 1 else c.re) if isinstance(c, GaussRational) and not c.b else c


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

    def _merge(self, other: "CurrentState", sign: int) -> "CurrentState":
        out = LinComb._merge(self, other, sign)
        out.ctx = self.ctx or other.ctx
        return out

    def degree(self) -> int:
        return max((len(w) for w, _ in self.terms), default=0)

    def vacuum_coefficient(self):
        """The coefficient of the empty word.  In an insertion context the
        empty word carries a vector of the sites' representations: this is
        the coefficient of the one basis vector it has, and DomainError when
        it has several, since a scalar would then depend on the basis."""
        if self.ctx is None:
            return self.terms.get(((), ()), QI_ZERO)
        found = [c for (word, _), c in self.terms.items() if not word]
        if len(found) > 1:
            raise DomainError("the empty word carries several insertion vectors")
        return found[0] if found else QI_ZERO

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
    """Normal-form expansion {sorted word: coeff} of one input word, bracketing
    by ``algebra.q_brackets``: letters (a, c, l) over GaussRational, or origin
    letters (a, l) on an int lane, where u^-l u^-m = u^-(l+m)."""
    key = (algebra.key, word)
    cached = _PBW_CACHE.get(key)
    if cached is not None:
        return cached
    origin = bool(word) and len(word[0]) == 2
    sort_key = (lambda gen: (-gen[1], gen[0])) if origin else _gen_key  # (a, l) is (a, 0, l)
    out: dict = {}
    stack = [(word, 1 if origin else QI_ONE)]
    while stack:
        w, c = stack.pop()
        idx = None
        for i in range(len(w) - 1):
            if sort_key(w[i]) > sort_key(w[i + 1]):
                idx = i
                break
        if idx is None:
            add_term(out, w, c)
            continue
        x, y = w[idx], w[idx + 1]
        swapped = w[:idx] + (y, x) + w[idx + 2:]
        stack.append((swapped, c))
        comps = algebra.q_brackets.get((x[0], y[0]))
        if comps:
            if origin:
                products = [((x[1] + y[1],), c)]
            else:
                products = [((cc, order), c * p) for cc, order, p in _loop_product(x[1], x[2], y[1], y[2])]
            for tail, pc in products:
                for k, bc in comps.items():
                    stack.append((w[:idx] + ((k,) + tail,) + w[idx + 2:], pc * bc))
    _PBW_CACHE[key] = out
    return out


def pbw_normalize(algebra: LieAlgebra, word, ins=(), coeff=QI_ONE, ctx=None) -> CurrentState:
    """Straighten an arbitrary word into the fixed normal form."""
    out: dict = {}
    _add_word(algebra, tuple(word), tuple(ins), coeff, out)
    return CurrentState(out, ctx)


def _add_word(algebra, word, ins, coeff, out: dict) -> None:
    """Accumulate coeff * word, straightened, at insertion indices ins into out."""
    for w, c in _pbw_word_terms(algebra, word).items():
        add_term(out, (w, ins), c * coeff)


def _apply(algebra, state: CurrentState, op=None, combos=()) -> CurrentState:
    """The kernel operator op (``_through_word``) plus left multiplication by
    sum(coeff * LoopGen) over combos, on a state, in one term dict."""
    out: dict = {}
    for (word, ins), coeff in state.terms.items():
        if op is not None:
            for key, c in _through_word(algebra, op, word, ins).items():
                add_term(out, key, c * coeff)
        for gen, gc in combos:
            _add_word(algebra, (gen,) + word, ins, coeff * gc, out)
    return CurrentState(out, state.ctx)


_IOTA_CACHE: dict = {}


def _through_word(algebra, op, word, ins) -> dict:
    """The one commutation recursion: op on the basis state (word, ins) as a term dict.

    op is (key, base, step): base(ins) is op on the vacuum of ins, and
    step(x) gives [op, x] as (op', s, combos), so that
    op(x rest) = x op(rest) + s rest + op'(rest) + combos . rest, op' None
    when it vanishes.  An op with a key (the contraction field without
    insertions) is memoized in ``_IOTA_CACHE``, looked up by its global
    name; the cached dicts are shared, so no caller may mutate them.
    """
    key, base, step = op
    if key is not None:
        cached = _IOTA_CACHE.get(key + (word,))
        if cached is not None:
            return cached
    if not word:
        out = base(ins)
    else:
        x, rest = word[0], word[1:]
        bracket, scalar, combos = step(x)
        out = {}
        for (w, i), c in _through_word(algebra, op, rest, ins).items():
            _add_word(algebra, (x,) + w, i, c, out)
        if scalar:
            add_term(out, (rest, ins), scalar)
        if bracket is not None:
            for term, c in _through_word(algebra, bracket, rest, ins).items():
                add_term(out, term, c)
        for gen, gc in combos:
            _add_word(algebra, (gen,) + rest, ins, gc, out)
    if key is not None:
        _IOTA_CACHE[key + (word,)] = out
    return out


# ---------------------------------------------------------------------------
# The three fields
# ---------------------------------------------------------------------------


def _as_elem(algebra, v):
    if isinstance(v, dict):
        return v
    return algebra.basis_element(v)


def epsilon_apply(algebra, v, z, state: CurrentState) -> CurrentState:
    """Left multiplication by the simple-pole loop element at z."""
    z = coerce_scalar_or_jet(z)
    return _apply(algebra, state, combos=[((a, z, 1), c) for a, c in _as_elem(algebra, v).items()])


def iota_apply(algebra, v, z, state: CurrentState) -> CurrentState:
    """Contraction field at z via the commutation recursion."""
    return _apply(algebra, state, _iota_op(algebra, _as_elem(algebra, v), coerce_scalar_or_jet(z), state.ctx))


def _iota_op(algebra, v, z, ctx):
    """iota^v(z) as a ``_through_word`` operator: it kills the vacuum slot and
    acts on each insertion slot by v/(z - z_j)."""

    def base(ins):
        out: dict = {}
        if ctx is not None:
            for j, zj in enumerate(ctx.points):
                dz = z - zj
                if not dz:
                    raise DomainError("contraction field applied at an insertion point")
                for a, va in v.items():
                    _act_on_slot(ctx, j, ins, a, va / dz, out)
        return out

    def step(x):
        b, c, l = x
        d = z - c
        if not d:
            raise DomainError("state has a loop pole at the field point")
        vb = {b: QI_ONE}
        g, w_elem = algebra.pair(v, vb), algebra.bracket(v, vb)
        # -(v, dx(z)) rest : the function part differentiates to -l (z-c)^-(l+1)
        scalar = g * l / d ** (l + 1) if g else 0
        if not w_elem:
            return None, scalar, ()
        # [v, x(z)] contracts through rest; of -[eps^v(z), x] only the pole part
        # at c multiplies, its part at z cancels the creation half of [v, x(z)]
        xz = 1 / d ** l
        combos = [((k, c, order), -bc * p) for _, order, p in _pole_part_of_product(c, l, z, 1)
                  for k, bc in w_elem.items()]
        return _iota_op(algebra, {k: cv * xz for k, cv in w_elem.items()}, z, ctx), scalar, combos

    return (algebra.key, tuple(sorted(v.items())), z) if ctx is None else None, base, step


def j_apply(algebra, v, z, state: CurrentState) -> CurrentState:
    """The current j = epsilon + iota at z, in one ``_apply``."""
    v, z = _as_elem(algebra, v), coerce_scalar_or_jet(z)
    return _apply(algebra, state, _iota_op(algebra, v, z, state.ctx), [((a, z, 1), c) for a, c in v.items()])


# ---------------------------------------------------------------------------
# n-point functions
# ---------------------------------------------------------------------------


def npoint_current(algebra, vs, points):
    """Closed recursion for the vacuum expectation of a product of currents."""
    vs = [_as_elem(algebra, v) for v in vs]
    pts = [GaussRational.coerce(p) for p in points]
    require_distinct(pts)
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
    pts = [GaussRational.coerce(p) for p in points]
    require_distinct(pts)
    state = current_vacuum()
    for v, z in zip(reversed(vs), reversed(pts)):
        state = j_apply(algebra, v, z, state)
    return state.vacuum_coefficient()


# ---------------------------------------------------------------------------
# Modes and test-function operators
# ---------------------------------------------------------------------------


_MODE_CACHE: dict = {}


def mode_j(algebra, v, l: int, state: CurrentState) -> CurrentState:
    """Loop modes at the origin.  A negative mode multiplies on any state;
    a mode l >= 0 needs a state supported at the origin (else DomainError)
    and runs on the exponent kernel ``_j_exponents``, its result rewrapped
    into (a, 0, k) letters over the state's scalars."""
    v = _as_elem(algebra, v)
    if l <= -1:
        return _apply(algebra, state, combos=[((a, QI_ZERO, -l), c) for a, c in v.items()])
    out: dict = {}
    for ins, terms in _origin_sectors(state).items():
        for w, c in _j_exponents(algebra, _q_elem(v), l, terms).items():
            out[(tuple((a, QI_ZERO, k) for a, k in w), ins)] = c
    return CurrentState(out, state.ctx)


def _origin_sectors(state: CurrentState) -> dict:
    """{insertion indices: {origin word: coeff}}; DomainError for a letter off the origin."""
    out: dict = {}
    for (word, ins), c in state.terms.items():
        if any(gen[1] != QI_ZERO for gen in word):
            raise DomainError("nonnegative modes act on origin-supported states")
        out.setdefault(ins, {})[tuple((a, k) for a, _, k in word)] = c
    return out


def _q_elem(v: dict) -> tuple:
    return tuple(sorted((k, _demote(c)) for k, c in v.items()))


def _add_scaled(out: dict, terms: dict, c) -> None:
    for w, wc in terms.items():
        add_term(out, w, wc * c)


def _j_exponents(algebra, v: tuple, l: int, terms: dict, sign=1, out=None) -> dict:
    """Accumulate sign * j^v_l(terms) into out (a new dict when None); return out.
    terms maps origin words, sorted tuples of (basis index, pole order), to
    coefficients and v is ``_q_elem`` items, so a rational algebra stays on ints
    and Fractions.  A negative mode puts v u^l in front and straightens; a mode
    l >= 0 kills the vacuum and passes the first letter x = v_b u^-m by
    j_l x rest = x j_l rest + l (v, b) delta_{l,m} rest + j^[v,b]_{l-m} rest."""
    out = {} if out is None else out
    for word, c in terms.items():
        _add_scaled(out, _j_word(algebra, v, l, word), c * sign if sign != 1 else c)
    return out


def _j_word(algebra, v: tuple, l: int, word) -> dict:
    """j^v_l on one origin word (``_j_exponents``); memoized for l >= 0."""
    out: dict = {}
    if l <= -1:
        for a, va in v:
            _add_scaled(out, _pbw_word_terms(algebra, ((a, -l),) + word), va)
        return out
    if not word:
        return out
    key = (algebra.key, v, l, word)
    cached = _MODE_CACHE.get(key)
    if cached is not None:
        return cached
    x, rest = word[0], word[1:]
    for w, c in _j_word(algebra, v, l, rest).items():
        _add_scaled(out, _pbw_word_terms(algebra, (x,) + w), c)
    b, m = x
    g = sum(va * algebra.q_form.get((a, b), 0) for a, va in v) if l == m else 0
    if g:
        add_term(out, rest, g * l)
    br: dict = {}
    for a, va in v:
        _add_scaled(br, algebra.q_brackets.get((a, b), {}), va)
    if br:
        for w, c in _j_word(algebra, tuple(sorted(br.items())), l - m, rest).items():
            add_term(out, w, c)
    _MODE_CACHE[key] = out
    return out


def affine_bracket_check(algebra, a, l: int, b, m: int, spanning=None):
    """Measure [j_l, j_m] against the loop bracket plus central term.

    On the exponent kernel: per spanning state v (``_origin_spanning``, or
    the vacuum and the given states split by insertion indices)
    [j^a_l, j^b_m] v - j^[a,b]_{l+m} v accumulates in one dict, which must
    be central * v (``states.central_scalar``, central read on the vacuum).
    Returns it as a GaussRational; raises AssertionError when the operator
    part is not central or the central term is not l (a, b) delta_{l+m,0}.
    """
    ea, eb = _as_elem(algebra, a), _as_elem(algebra, b)
    va, vb, br = _q_elem(ea), _q_elem(eb), _q_elem(algebra.bracket(ea, eb))

    def bracket(v):
        out = _j_exponents(algebra, va, l, _j_exponents(algebra, vb, m, v))
        _j_exponents(algebra, vb, m, _j_exponents(algebra, va, l, v), -1, out)
        return _j_exponents(algebra, br, l + m, v, -1, out) if br else out

    if spanning is None:
        spanning = _origin_spanning(algebra)
    else:
        spanning = [{(): 1}] + [terms for s in spanning for terms in _origin_sectors(s).values()]
    central = central_scalar(((v, bracket(v)) for v in spanning), f"mode bracket [{a},{l};{b},{m}]")
    expected_central = algebra.pair(ea, eb) * l if l + m == 0 else QI_ZERO
    if central != expected_central:
        raise AssertionError(
            f"central term {central} differs from {expected_central}"
        )
    return GaussRational.coerce(central)


def _origin_spanning(algebra):
    n = range(algebra.dim)
    return [{(): 1}] + [{((a, k),): 1} for a in n for k in (1, 2)] + [
        _pbw_word_terms(algebra, ((a, 1), (b, 2))) for a in n for b in n
    ]


# ---------------------------------------------------------------------------
# Operators attached to Lie-valued functions
# ---------------------------------------------------------------------------


def _nu_components(algebra, nu):
    """Normalize a Lie-valued function to {basis index: {function atom: coeff}}.

    Each ``RatFunc`` component is decomposed once, through the cached
    partial fractions of ``symmetry._phi_pole_parts``; a scalar is the
    constant atom ("poly", 0).  Every later step reads these known poles.
    """
    out: dict = {}
    for key, f in nu.items():
        idx = algebra.labels.index(key) if isinstance(key, str) else key
        if isinstance(f, RatFunc):
            atoms = dec_atoms(_phi_pole_parts(f))
        else:
            atoms = [(("poly", 0), GaussRational.coerce(f))]
        comp = out.setdefault(idx, {})
        for atom, g in atoms:
            add_term(comp, atom, g)
    return {k: v for k, v in out.items() if v}


def _nu_bracket_gen(algebra, nu_comps, gen):
    """[nu, v_b (u-c)^-l] in function atoms, by ``geometry.atom_product``."""
    b, c, l = gen
    x = ("pole", c, l)
    out: dict = {}
    for a, atoms in nu_comps.items():
        for k, bc in algebra.bracket_basis(a, b).items():
            comp = out.setdefault(k, {})
            for atom, g in atoms.items():
                for p, w in atom_product(atom, x):
                    add_term(comp, p, g * w * bc)
    return {k: v for k, v in out.items() if v}


def _nu_pair_d_gen(algebra, nu_comps, gen, site):
    """Res_site (nu, d[v_b (u-c)^-l]), with d(u-c)^-l = -l (u-c)^-(l+1); site None is infinity."""
    b, c, l = gen
    d = ("pole", c, l + 1)
    total = QI_ZERO
    for a, atoms in nu_comps.items():
        g = algebra.form.get((a, b))
        if g:
            total = total + g * _atom_residue(atoms.items(), d, site)
    return total * -l


def J_P_apply(algebra, nu, state: CurrentState) -> CurrentState:
    """Operator attached to nu at the base point at infinity."""
    return _apply(algebra, state, _nu_op(algebra, _nu_components(algebra, nu), None, state.ctx))


def J_site_apply(algebra, nu, site_index: int, state: CurrentState) -> CurrentState:
    """Operator attached to nu, local at the given insertion point."""
    if state.ctx is None:
        raise DomainError("site operators need an insertion context")
    return _apply(algebra, state, _nu_op(algebra, _nu_components(algebra, nu), site_index, state.ctx))


def _nu_op(algebra, nu_comps, site, ctx):
    """The operator of nu at insertion site ``site`` (None: at infinity) as a
    ``_through_word`` operator: [J, x] is J of [nu, x] plus Res_site (nu, dx),
    or minus Res_infinity (nu, dx) at infinity."""
    point = None if site is None else ctx.points[site]

    def base(ins):
        if site is None:
            return _J_P_base(algebra, nu_comps, ins, ctx)
        return _J_site_base(algebra, nu_comps, site, ins, ctx)

    def step(x):
        bracket_nu = _nu_bracket_gen(algebra, nu_comps, x)
        res = _nu_pair_d_gen(algebra, nu_comps, x, point)
        bracket = _nu_op(algebra, bracket_nu, site, ctx) if bracket_nu else None
        return bracket, res if site is not None else -res, ()

    return None, base, step


def _J_P_base(algebra, nu_comps, ins, ctx) -> dict:
    """The pole atoms multiply; the polynomial atoms, constants included,
    act on each insertion slot by their value at its point."""
    out: dict = {}
    for a, atoms in nu_comps.items():
        for atom, g in atoms.items():
            if atom[0] == "pole":
                _add_word(algebra, ((a, atom[1], atom[2]),), ins, g, out)
    if ctx is not None:
        for j, zj in enumerate(ctx.points):
            for a, atoms in nu_comps.items():
                for atom, g in atoms.items():
                    if atom[0] == "poly":
                        _act_on_slot(ctx, j, ins, a, g * atom_eval(atom, zj), out)
    return out


def _act_on_slot(ctx, j, ins, a, val, out: dict):
    """Accumulate the action of val * v_a on insertion slot j into out."""
    for idx, mc in ctx.act(j, a, ins[j]).items():
        add_term(out, ((), ins[:j] + (idx,) + ins[j + 1:]), val * mc)


def _J_site_base(algebra, nu_comps, site, ins, ctx) -> dict:
    """The atoms singular at the site multiply, minus their values at the
    other sites; every other atom acts on the site's slot by its value there."""
    zl = ctx.points[site]
    out: dict = {}
    for a, atoms in nu_comps.items():
        for atom, g in atoms.items():
            if atom[0] == "pole" and atom[1] == zl:
                _add_word(algebra, ((a, zl, atom[2]),), ins, g, out)
                for j, zj in enumerate(ctx.points):
                    if j != site:
                        _act_on_slot(ctx, j, ins, a, -g * atom_eval(atom, zj), out)
            else:
                _act_on_slot(ctx, site, ins, a, g * atom_eval(atom, zl), out)
    return out


# ---------------------------------------------------------------------------
# Base-point independence
# ---------------------------------------------------------------------------


def _adjoint_op(algebra, elem: dict, ctx):
    """A constant Lie element as a ``_through_word`` operator: it brackets
    each letter, kills the vacuum slot and acts on each insertion slot
    (``_J_P_base`` of the constant function)."""
    comps = {a: {("poly", 0): va} for a, va in elem.items()}

    def step(x):
        b, c, l = x
        return None, 0, [((k, c, l), bc) for k, bc in algebra.bracket(elem, {b: QI_ONE}).items()]

    return None, lambda ins: _J_P_base(algebra, comps, ins, ctx), step


def _dual_gen_atoms(ctil, l) -> list:
    """The u-chart function (u/(1 - c~ u))^l of a reciprocal-chart generator, in function atoms.

    With p = 1/c~, u/(1 - c~ u) = -1/c~ - c~^-2 (u - p)^-1, so the binomial
    theorem gives sum_k C(l, k) (-1/c~)^(l-k) (-c~^-2)^k (u - p)^-k, the
    k = 0 term a constant.  For c~ = 0 the function is u^l.
    """
    if not ctil:
        return [(("poly", l), QI_ONE)]
    a, b = -1 / ctil, -1 / (ctil * ctil)
    return [(("poly", 0), a ** l)] + [
        (("pole", 1 / ctil, k), comb(l, k) * a ** (l - k) * b ** k) for k in range(1, l + 1)
    ]


def _convert_reciprocal_word_to_origin(algebra, word, coeff):
    """Rewrite a reciprocal-chart word as an origin-chart state.

    A reciprocal-chart generator v_a (u_t - c)^(-l) (u_t = 1/u) is, in the
    u-chart, a function regular at infinity: loop atoms plus a constant
    (``_dual_gen_atoms``).  The atoms multiply; the constant acts
    adjointly (it annihilates only the vacuum slot).
    """
    state = CurrentState({((), ()): coeff})
    for (a, c, l) in reversed(word):
        if not c:
            raise DomainError("reciprocal generator has a pole at the origin")
        (_, const), *poles = _dual_gen_atoms(c, l)
        combos = [((a, p[1], p[2]), co) for p, co in poles]
        state = _apply(algebra, state, _adjoint_op(algebra, {a: const}, None), combos)
    return state


def base_point_independence_check(algebra, v, z, recip_word) -> bool:
    """The current computed in the reciprocal chart matches the u-chart one.

    ``recip_word`` is a word of reciprocal-chart loop generators; the check
    converts it (modulo constants), applies the current on both sides, and
    compares.  The creation-half offset v/z of the base-point shift is
    ``boson.eps_tilde_offset``, which this check does not measure.
    """
    v = _as_elem(algebra, v)
    z = GaussRational.coerce(z)
    if not z:
        raise DomainError("base-point comparison needs a point away from both charts")
    # u-chart side
    state_u = _convert_reciprocal_word_to_origin(algebra, recip_word, QI_ONE)
    j_u = j_apply(algebra, v, z, state_u)
    # reciprocal-chart side: the same word, the field in the reciprocal coordinate
    j_t = j_apply(algebra, v, 1 / z, pbw_normalize(algebra, recip_word))
    # hatted conversion: the reciprocal form factor d(u_t)/du at z is -1/z^2
    factor = -1 / z ** 2
    converted: dict = {}
    for (word, _), c in j_t.terms.items():
        for key, cc in _convert_reciprocal_word_to_origin(algebra, word, c * factor).terms.items():
            add_term(converted, key, cc)
    return converted == j_u.terms


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


def current_pair(algebra, dual: CurrentState, state: CurrentState):
    """Adjointness-generated pairing of reciprocal-chart against u-chart states.

    The dual side carries poles (in the reciprocal coordinate) strictly
    inside the unit circle, the primal side strictly inside in the u-chart;
    region violations are rejected, and so are insertion indices on the dual
    side or ones that do not index the sites of the state's context.
    """
    sites = len(state.ctx.points) if state.ctx else 0
    if any(ins for _, ins in dual.terms) or any(len(ins) != sites for _, ins in state.terms):
        raise DomainError("insertion indices that index no insertion site")
    for c in state.poles():
        if not in_open_disc(c):
            raise DomainError(f"state pole {c} is not inside the unit circle")
    for c in dual.poles():
        if not in_open_disc(c):
            raise DomainError(f"dual pole {c} is outside its region")
    total = QI_ZERO
    for (word, ins), coeff in dual.terms.items():
        value = with_jet_retry(lambda slack: _pair_word(algebra, word, state, slack), SLACK)
        total = total + coeff * value
    return total


def _pair_word(algebra, word, state: CurrentState, slack: int):
    """Pairing of one reciprocal-chart word against a state over Q(i).

    The first letter v_a (u_t - c~)^(-l) pairs through the order-(l-1)
    Taylor coefficient at t = c~ of t^-2 <rest | iota_a(1/t) state>.  iota
    leaves every letter at its Q(i) pole, so the moved state is
    sum_k (t - c~)^k s_k with states s_k over Q(i): the rest of the word
    pairs with s_(l-1), and an s_k with k < 0 that pairs to nonzero is a
    pole at the dual point.  t is a jet at c~ of precision
    l + ``slack`` - SLACK, l on the first try: every denominator of iota at
    1/t is a unit since 1/c~ - c != 0 inside the disc; at c~ = 0, where 1/t
    has a pole, it is l + ``slack``.  A shortfall raises JetPrecisionError.
    """
    if not word:
        return state.vacuum_coefficient()
    a, ctil, l = word[0]
    t = jet_point(ctil, l + slack - (SLACK if ctil else 0))
    inv_t2 = 1 / (t * t)
    moved = {key: c * inv_t2 for key, c in iota_apply(algebra, a, 1 / t, state).terms.items()}

    def pair_rest(k):
        s_k = CurrentState({key: c.coefficient(k) for key, c in moved.items()}, state.ctx)
        return _pair_word(algebra, word[1:], s_k, slack)

    for k in range(min((c.val for c in moved.values()), default=0), 0):
        if pair_rest(k):
            raise DomainError(f"the pairing has a pole at the dual point {ctil}")
    return pair_rest(l - 1)


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

    The field is applied at the jet point z + t and the orders are read
    off the jets (retried at doubled precision when a window is too
    shallow).  Returns {order: CurrentState}; negative orders are the
    singular data, order 0 the regular value.
    """
    z = GaussRational.coerce(z)
    apply_fn = {"j": j_apply, "iota": iota_apply, "epsilon": epsilon_apply}[field]
    v = _as_elem(algebra, v)
    return with_jet_retry(
        lambda prec: _expand_current(algebra, apply_fn, v, z, state, order, prec),
        order + SLACK,
    )


def _expand_current(algebra, apply_fn, v, z, state, order, prec) -> dict:
    w = jet_point(z, prec)
    buckets: dict = {}
    for (word, ins), coeff in apply_fn(algebra, v, w, state).terms.items():
        moving = [i for i, gen in enumerate(word) if gen[1] == w]
        moved = [(1, word[i][2]) for i in moving]
        for k, factor, orders in moved_expansion(coeff, moved, order):
            # the product is ordered: each expanded generator keeps its position
            new_word = list(word)
            for i, o in zip(moving, orders):
                new_word[i] = (word[i][0], z, o)
            _add_word(algebra, tuple(new_word), ins, factor, buckets.setdefault(k, {}))
    return {k: CurrentState(terms, state.ctx) for k, terms in buckets.items() if terms}
