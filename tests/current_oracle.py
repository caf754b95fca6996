"""The rational-function ν operators: test oracles for the atom closed forms.

``chiralis.current`` decomposes each component of a Lie-valued function ν
once into function atoms and acts on states through closed forms on
those atoms.  This module computes the same operators the generic way,
with ν a dict of ``RatFunc`` components:

* ``iota_apply_oracle``: the contraction field by the commutation
  recursion on ``CurrentState`` words, with no cache, keeping the
  creation term at the field point and the whole loop product that
  ``chiralis.current`` drops because they cancel; with
  ``epsilon_apply_oracle`` and ``j_apply_oracle`` it applies the fields
  at a symbolic point of the test-side ``tower_field`` too, where
  ``chiralis.current`` takes Q(i) and jet points only;
* ``J_P_apply_oracle`` / ``J_site_apply_oracle``: brackets by
  ``RatFunc`` products, residues by ``residue_at``, and the base action
  from a fresh ``partial_fractions`` (a root search) on every call;
* ``convert_reciprocal_word_oracle``: the u-chart function of each
  reciprocal-chart generator split by ``partial_fractions``;
* ``residue_pair_degree_one_oracle``: the degree-one contour pairing by
  ``residue_at`` at the known poles inside the unit disc;
* ``mode_j_oracle`` / ``affine_bracket_check_oracle``: the loop modes at
  the origin by the commutation recursion on ``CurrentState`` words with
  GaussRational coefficients, where ``chiralis.current`` runs an exponent
  kernel on (basis index, pole order) tuples over ints and Fractions.
"""

from __future__ import annotations

from chiralis.current import (
    CurrentState,
    _as_elem,
    _left_multiply,
    constant_adjoint,
    current_vacuum,
    pbw_normalize,
)
from chiralis.exactnum import (
    INFINITY,
    GaussRational,
    QI_ONE,
    QI_ZERO,
    RatFunc,
    partial_fractions,
    residue_at,
)
from chiralis.geometry import _loop_product
from chiralis.pairing import in_open_disc
from chiralis.states import DomainError, add_term


def _sum_terms(state: CurrentState, term_of) -> CurrentState:
    """The sum of coeff * term_of(word, ins) over the terms (word, ins) -> coeff of state."""
    out: dict = {}
    for (word, ins), coeff in state.terms.items():
        for key, c in term_of(word, ins).terms.items():
            add_term(out, key, c * coeff)
    return CurrentState(out, state.ctx)


def iota_apply_oracle(algebra, v, z, state: CurrentState) -> CurrentState:
    """Contraction field at z via the commutation recursion."""
    v = _as_elem(algebra, v)
    return _sum_terms(state, lambda word, ins: _iota_term(algebra, v, z, word, ins, state.ctx))


def epsilon_apply_oracle(algebra, v, z, state: CurrentState) -> CurrentState:
    """Left multiplication by the simple-pole loop element at z."""
    return _left_multiply(algebra, [((a, z, 1), c) for a, c in _as_elem(algebra, v).items()], state)


def j_apply_oracle(algebra, v, z, state: CurrentState) -> CurrentState:
    return epsilon_apply_oracle(algebra, v, z, state) + iota_apply_oracle(algebra, v, z, state)


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
    out = _left_multiply(algebra, [(x, QI_ONE)], _iota_term(algebra, v, z, rest, ins, ctx))
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
        out = out + _iota_term(algebra, scaled, z, rest, ins, ctx)
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


def J_P_apply_oracle(algebra, nu, state: CurrentState) -> CurrentState:
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


def J_site_apply_oracle(algebra, nu, site_index: int, state: CurrentState) -> CurrentState:
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


def convert_reciprocal_word_oracle(algebra, word, coeff):
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


def dual_gen_function(gen) -> RatFunc:
    """The u-chart function of a reciprocal-chart generator."""
    a, c, l = gen
    u = RatFunc.variable(QI_ONE)
    return (1 / (1 / u - c)) ** l


def residue_pair_degree_one_oracle(algebra, dual_gen, gen):
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
    # the poles are known: c, from alpha, and 1/ctil, from fprime when ctil != 0
    poles = {c, 1 / ctil} if ctil else {c}
    total = QI_ZERO
    for pole in poles:
        if in_open_disc(pole):
            total = total + residue_at(prod, pole)
    return -g * total


def mode_j_oracle(algebra, v, l: int, state: CurrentState) -> CurrentState:
    """Loop modes at the origin; negative modes multiply, others recurse."""
    v = _as_elem(algebra, v)
    if l <= -1:
        combos = [((a, QI_ZERO, -l), coeff) for a, coeff in v.items()]
        return _left_multiply(algebra, combos, state)
    return _sum_terms(state, lambda word, ins: _mode_term(algebra, v, l, word, ins, state.ctx))


def _mode_term(algebra, v, l, word, ins, ctx) -> CurrentState:
    if not word:
        return CurrentState({}, ctx)
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
    return out


def affine_bracket_check_oracle(algebra, a, l: int, b, m: int):
    """[j_l, j_m] - j_{l+m} of the bracket on the origin spanning states, by
    ``mode_j_oracle``; returns the central scalar or raises AssertionError."""
    va, vb = _as_elem(algebra, a), _as_elem(algebra, b)
    spanning = [current_vacuum()]
    for x in range(algebra.dim):
        spanning += [pbw_normalize(algebra, ((x, QI_ZERO, k),)) for k in (1, 2)]
    for x in range(algebra.dim):
        for y in range(algebra.dim):
            spanning.append(pbw_normalize(algebra, ((x, QI_ZERO, 1), (y, QI_ZERO, 2))))
    br = algebra.bracket(va, vb)
    central = None
    for state in spanning:
        lhs = mode_j_oracle(algebra, va, l, mode_j_oracle(algebra, vb, m, state)) - mode_j_oracle(
            algebra, vb, m, mode_j_oracle(algebra, va, l, state)
        )
        if br:
            lhs = lhs - mode_j_oracle(algebra, br, l + m, state)
        if central is None:
            central = lhs.vacuum_coefficient() if state.degree() == 0 else None
        if lhs != state.scale(central if central is not None else QI_ZERO):
            raise AssertionError(f"mode bracket [{a},{l};{b},{m}] is not central")
    expected_central = algebra.pair(va, vb) * l if l + m == 0 else QI_ZERO
    if central != expected_central:
        raise AssertionError(f"central term {central} differs from {expected_central}")
    return central
