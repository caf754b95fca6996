"""The rational-function towers: test oracles for the jet expansions.

``chiralis`` reads Taylor and Laurent coefficients around a moving point
off jets (``chiralis.jets``).  This module computes the same coefficients
the generic way, with the moving point a variable t of Q(i)(t) (or a
tower over it, from the test-side field ``tower_field``) and
``local_expansion`` or repeated derivatives:

* ``current_pair_tower``: the current pairing, applying iota at the
  symbolic point 1/t and differentiating l - 1 times in t;
* ``current_expand_tower``: the current OPE, applying the field at the
  symbolic point w and expanding the coefficients at z;
* ``parameter_expansion``: a boson state whose pole locations are affine
  in a rational parameter (``translate_tower``), expanded at parameter 0;
* ``reflection_kernel_symbolic``: the mixed derivative of (1 - yx)^-2,
  taken symbolically in x and y.

``chiralis`` takes Q(i) points only, so the fields at a symbolic point are
the recursions of ``current_oracle``.  The towers cost seconds where the
jets cost milliseconds; a degree-two current pairing can take minutes.
"""

from __future__ import annotations

import itertools

from chiralis.current import CurrentState, pbw_normalize
from chiralis.exactnum import GaussRational, QI_ONE, QI_ZERO
from chiralis.states import DomainError, SymState, monomial_state

from current_oracle import epsilon_apply_oracle, iota_apply_oracle, j_apply_oracle
from tower_field import Poly, RatFunc, local_expansion
from vir_oracle import inner_derivative, inner_variable, outer_variable, subst


def _one_of_state(state: CurrentState):
    for coeff in state.terms.values():
        return coeff * 0 + 1
    return QI_ONE


def pair_word_tower(algebra, word, state: CurrentState):
    """<word | state> with the first letter's point the variable t of a tower."""
    if not word:
        return state.vacuum_coefficient()
    a, ctil, l = word[0]
    rest = word[1:]
    one = _one_of_state(state)
    t = RatFunc.variable(one)
    zu = 1 / t
    moved = iota_apply_oracle(algebra, a, zu, state)
    moved = CurrentState({key: c / (t * t) for key, c in moved.terms.items()}, moved.ctx)
    value = pair_word_tower(algebra, rest, moved)
    value_rf = value if isinstance(value, RatFunc) else RatFunc(Poly([value]))
    for _ in range(l - 1):
        value_rf = value_rf.derivative()
    fact = 1
    for j in range(1, l):
        fact *= j
    return (value_rf.num.evaluate(ctil) / value_rf.den.evaluate(ctil)) / fact


def current_pair_tower(algebra, dual: CurrentState, state: CurrentState):
    total = QI_ZERO
    for (word, ins), coeff in dual.terms.items():
        total = total + coeff * pair_word_tower(algebra, word, state)
    return total


def current_expand_tower(algebra, v, z, state: CurrentState, order: int, field: str = "j") -> dict:
    """The current OPE with the field applied at the symbolic point w of Q(i)(w)."""
    z = GaussRational.coerce(z)
    w = RatFunc.variable(QI_ONE)
    apply_fn = {"j": j_apply_oracle, "iota": iota_apply_oracle, "epsilon": epsilon_apply_oracle}[field]
    applied = apply_fn(algebra, v, w, state)
    buckets: dict = {}
    for (word, ins), coeff in applied.terms.items():
        moving_pos = [
            i for i, gen in enumerate(word) if isinstance(gen[1], RatFunc) and gen[1] == w
        ]
        coeff_rf = coeff if isinstance(coeff, RatFunc) else RatFunc(Poly([coeff]))
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
                total = base_order + sum(cb[0] for cb in combo)
                if total > order:
                    continue
                factor = gamma
                new_word = list(word)
                for pos, (k, gen, binom) in zip(moving_pos, combo):
                    factor = factor * binom
                    new_word[pos] = gen
                addition = pbw_normalize(algebra, tuple(new_word), ins, factor, state.ctx)
                buckets[total] = buckets.get(total, CurrentState({}, state.ctx)) + addition
    return {k: s for k, s in buckets.items() if s}


def translate_tower(amount, state: SymState) -> dict:
    """The terms {monomial: coeff} of the boson state with every basis pole
    shifted by ``amount``, which may be a rational function of a parameter."""
    out = {}
    for mon, coeff in state.terms.items():
        if any(atom[0] != "pole" for atom in mon):
            raise DomainError("translation needs infinity-regular states")
        out[tuple(("pole", atom[1] + amount, atom[2]) for atom in mon)] = coeff
    return out


def parameter_expansion(terms: dict, order: int) -> dict:
    """Expand the terms {monomial: coeff} of a boson state whose scalars and
    pole keys depend on one rational parameter around parameter = 0;
    returns {order: state}."""
    buckets: dict = {}
    for mon, coeff in terms.items():
        moving = []
        fixed = []
        for atom in mon:
            if atom[0] == "pole" and isinstance(atom[1], RatFunc) and not atom[1].is_constant():
                moving.append(atom)
            elif atom[0] == "pole" and isinstance(atom[1], RatFunc):
                fixed.append(("pole", atom[1].constant_value(), atom[2]))
            else:
                fixed.append(atom)
        coeff_rf = coeff if isinstance(coeff, RatFunc) else RatFunc(Poly([coeff]))
        m, series = local_expansion(coeff_rf, QI_ZERO, order)
        depth = order + m
        moved_options = []
        for atom in moving:
            p = atom[1]
            if p.den.degree != 0 or p.num.degree != 1:
                raise DomainError("pole location is not affine in the parameter")
            p0 = p.num.coeffs[0] / p.den.coeffs[0]
            slope = p.num.coeffs[1] / p.den.coeffs[0]
            l = atom[2]
            opts = []
            binom = 1
            spow = QI_ONE
            for k in range(depth + 1):
                if k > 0:
                    binom = binom * (l + k - 1) // k
                    spow = spow * slope
                opts.append((k, ("pole", p0, l + k), spow * binom))
            moved_options.append(opts)
        for j, gamma in enumerate(series):
            if not gamma:
                continue
            base_order = j - m
            for combo in itertools.product(*moved_options):
                total = base_order + sum(c[0] for c in combo)
                if total > order:
                    continue
                factor = gamma
                atoms = list(fixed)
                for k, atom, w in combo:
                    factor = factor * w
                    atoms.append(atom)
                buckets[total] = buckets.get(total, SymState()) + monomial_state(atoms, factor)
    return {k: v for k, v in buckets.items() if v}


_KERNEL_DERIVATIVES: dict = {}


def reflection_kernel_symbolic(a, k: int, b, l: int):
    """The (k-2, l-2) derivative of (1 - yx)^-2 at x = conj(a), y = b, over (k-1)!(l-1)!."""
    g = _KERNEL_DERIVATIVES.get((k, l))
    if g is None:
        x = outer_variable()
        y = inner_variable()
        g = 1 / ((1 - y * x) * (1 - y * x))
        for _ in range(k - 2):
            g = g.derivative()  # in x
        for _ in range(l - 2):
            g = inner_derivative(g)  # in y
        _KERNEL_DERIVATIVES[(k, l)] = g
    fact = 1
    for j in range(1, k):
        fact *= j
    for j in range(1, l):
        fact *= j
    return subst(subst(g, RatFunc.const(a.conjugate())), b) / fact
