import random
import sys
from fractions import Fraction

import pytest

from chiralis.current import (
    CurrentState,
    InsertionContext,
    J_P_apply,
    J_site_apply,
    LieAlgebra,
    abelian_algebra,
    affine_bracket_check,
    base_point_independence_check,
    current_expand_at_generic_point,
    current_pair,
    current_vacuum,
    epsilon_apply,
    iota_apply,
    j_apply,
    mode_j,
    npoint_current,
    npoint_current_operator,
    pbw_normalize,
    separation_check,
    sl2_algebra,
    sl2_fundamental,
    trivial_rep,
)
from chiralis import current, exactnum, fermion, geometry, pairing, symmetry
from chiralis.boson import eps_tilde_offset
from chiralis.current import (
    _convert_reciprocal_word_to_origin,
    _dual_gen_atoms,
    _loop_product,
)
from chiralis.exactnum import (
    GaussRational,
    QI_ONE,
    QI_ZERO,
    RatFunc,
    partial_fractions,
    partial_fractions_known,
    qi,
    residue_at,
)
from chiralis.geometry import bergman_genus0, dec_atoms
from chiralis.jets import SLACK, jet_point
from chiralis.sampling import rand_distinct_scalars, rand_scalar
from chiralis.states import DomainError, monomial_state

from closed_form_oracle import four_point_closed_form, residue_pair_degree_one, three_point_closed_form
from current_oracle import (
    J_P_apply_oracle,
    J_site_apply_oracle,
    _left_multiply,
    affine_bracket_check_oracle,
    constant_adjoint,
    convert_reciprocal_word_oracle,
    epsilon_apply_oracle,
    iota_apply_oracle,
    j_apply_oracle,
    mode_j_oracle,
)
import tower_field
from tower_oracle import current_expand_tower, current_pair_tower

SL2 = sl2_algebra()
AB = abelian_algebra()
U = RatFunc.variable(GaussRational(1))


def rand_state(rng, algebra, pole_pool, max_len=2, ctx=None, ins=None):
    word = tuple(
        (rng.randrange(algebra.dim), rng.choice(pole_pool), rng.randint(1, 2))
        for _ in range(rng.randint(0, max_len))
    )
    base = pbw_normalize(algebra, word, ins or (), rand_scalar(rng), ctx)
    if base.is_zero():
        return current_vacuum(ctx, ins)
    return base


class TestLieData:
    def test_builtins_validate(self):
        assert SL2.dim == 3
        assert AB.dim == 1

    def test_sl2_relations(self):
        e, h, f = (SL2.basis_element(k) for k in ("e", "h", "f"))
        assert SL2.bracket(e, f) == h
        assert SL2.bracket(h, e) == {0: qi(2)}
        assert SL2.pair(e, f) == qi(1)
        assert SL2.pair(h, h) == qi(2)

    def test_invalid_jacobi_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra(
                "bad",
                ("x", "y", "z"),
                {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: 1}},
                {(0, 0): 1, (1, 1): 1, (2, 2): 1},
            )

    def test_noninvariant_form_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra(
                "bad2",
                ("e", "h", "f"),
                {(0, 2): {1: 1}, (1, 0): {0: 2}, (1, 2): {2: -2}},
                {(0, 0): 1},
            )


class TestPBW:
    def test_abelian_words_sort(self):
        w = ((0, qi(1), 1), (0, qi(0), 2))
        out = pbw_normalize(AB, w)
        assert list(out.terms) == [(((0, qi(0), 2), (0, qi(1), 1)), ())]

    def test_single_straightening_step(self):
        # a reversed pair picks up the bracket with the pole orders added
        out = pbw_normalize(SL2, ((2, qi(0), 1), (0, qi(0), 1)))
        sorted_word = ((0, qi(0), 1), (2, qi(0), 1))
        assert out.terms[(sorted_word, ())] == qi(1)
        assert out.terms[(((1, qi(0), 2),), ())] == qi(-1)

    def test_confluence(self):
        rng = random.Random(7)
        for _ in range(10):
            gens = tuple(
                (rng.randrange(3), qi(rng.randint(0, 2)), rng.randint(1, 2))
                for _ in range(4)
            )
            whole = pbw_normalize(SL2, gens)
            partial = _left_multiply(
                SL2, [(gens[0], QI_ONE)], pbw_normalize(SL2, gens[1:])
            )
            assert whole == partial

    def test_loop_product_matches_partial_fractions(self):
        # the binomial closed form against the generic decomposition; the
        # symbolic cases are the ones the pairing feeds in (the point 1/t of
        # Q(i)(t) against a simple pole), since the generic path costs
        # seconds each there; it runs on the test-side tower field
        rng = random.Random(13)
        t = tower_field.RatFunc.variable(QI_ONE)
        cases = []
        for _ in range(12):
            c1, c2 = rand_distinct_scalars(rng, 2, span=4)
            cases.append((c1, rng.randint(1, 4), c2, rng.randint(1, 4)))
        c = rand_scalar(rng)
        cases += [(1 / t, 1, c, l) for l in (1, 2, 3)]
        cases += [(c, 2, 1 / t, 1), (1 / t + c, 1, c * 2, 2)]
        for c1, l1, c2, l2 in cases:
            u = tower_field.RatFunc.variable((c1 - c2) * 0 + 1)
            f = 1 / ((u - c1) ** l1 * (u - c2) ** l2)
            expected = list(tower_field.partial_fractions_known(f, [c1, c2]).terms)
            assert _loop_product(c1, l1, c2, l2) == expected, (c1, l1, c2, l2)
        assert _loop_product(1 / t, 2, 1 / t, 1) == [(1 / t, 3, QI_ONE)]


class TestFields:
    def test_epsilon_on_vacuum(self):
        out = epsilon_apply(SL2, "e", qi(2), current_vacuum())
        assert out.terms == {(((0, qi(2), 1),), ()): qi(1)}

    def test_iota_kills_vacuum(self):
        assert iota_apply(SL2, "e", qi(2), current_vacuum()).is_zero()

    def test_iota_abelian_matches_function_avatar(self):
        # rank-one loop contraction reproduces the function-space value
        from chiralis.boson import iota_apply as boson_iota
        from chiralis.states import monomial_state

        c = qi(1)
        s = pbw_normalize(AB, ((0, c, 1),))
        z = qi(3)
        out = iota_apply(AB, 0, z, s)
        assert out.terms == {((), ()): 1 / (z - c) ** 2}
        bos = boson_iota(z, monomial_state([("pole", c, 1)]))
        assert bos.terms[()] == out.terms[((), ())]

    def test_iota_with_insertion(self):
        ctx = InsertionContext(SL2, [(qi(0), sl2_fundamental())])
        vac = current_vacuum(ctx, ins=(1,))
        out = iota_apply(SL2, "e", qi(2), vac)
        assert out.terms == {((), (0,)): qi(Fraction(1, 2))}

    def test_j_locality_no_insertions(self):
        rng = random.Random(11)
        pool = [qi(0), qi(1), qi(-2)]
        for _ in range(6):
            s = rand_state(rng, SL2, pool)
            z1, z2 = rand_distinct_scalars(rng, 2, span=5)
            if any(not (z - p) for z in (z1, z2) for p in pool):
                continue
            va = rng.choice(("e", "h", "f"))
            vb = rng.choice(("e", "h", "f"))
            lhs = j_apply(SL2, va, z1, j_apply(SL2, vb, z2, s))
            rhs = j_apply(SL2, vb, z2, j_apply(SL2, va, z1, s))
            assert lhs == rhs

    def test_j_locality_with_insertion(self):
        rng = random.Random(13)
        ctx = InsertionContext(SL2, [(qi(0), sl2_fundamental())])
        pool = [qi(1), qi(-2)]
        for _ in range(6):
            s = rand_state(rng, SL2, pool, ctx=ctx, ins=(rng.randint(0, 1),))
            z1, z2 = rand_distinct_scalars(rng, 2, span=5)
            if any(not (z - p) for z in (z1, z2) for p in pool + [qi(0)]):
                continue
            lhs = j_apply(SL2, "e", z1, j_apply(SL2, "f", z2, s))
            rhs = j_apply(SL2, "f", z2, j_apply(SL2, "e", z1, s))
            assert lhs == rhs

    def test_j_alpha_commutator(self):
        # [j^v(z), alpha] = -(v, d alpha(z)) + j^{[v, alpha(z)]}(z)
        rng = random.Random(17)
        for _ in range(5):
            v = rng.choice(("e", "h", "f"))
            b = rng.randrange(3)
            c = qi(rng.randint(-2, 2))
            l = rng.randint(1, 2)
            z = qi(5)
            s = rand_state(rng, SL2, [qi(0)], max_len=1)
            gen = (b, c, l)
            alpha_s = _left_multiply(SL2, [(gen, QI_ONE)], s)
            lhs = j_apply(SL2, v, z, alpha_s) - _left_multiply(
                SL2, [(gen, QI_ONE)], j_apply(SL2, v, z, s)
            )
            velem = SL2.basis_element(v)
            pair = SL2.pair(velem, {b: QI_ONE})
            expected = s.scale(pair * l / (z - c) ** (l + 1)) if pair else CurrentState({}, s.ctx)
            br = SL2.bracket(velem, {b: QI_ONE})
            if br:
                scaled = {k: cv / (z - c) ** l for k, cv in br.items()}
                expected = expected + j_apply(SL2, scaled, z, s)
            assert lhs == expected


class TestNPoint:
    def test_one_point_vanishes(self):
        assert npoint_current(SL2, ["e"], [qi(0)]) == qi(0)

    def test_two_point(self):
        assert npoint_current(SL2, ["e", "f"], [qi(0), qi(1)]) == qi(1)
        assert npoint_current(SL2, ["e", "e"], [qi(0), qi(1)]) == qi(0)

    def test_three_point_closed_form(self):
        pts = [qi(0), qi(1), qi(2)]
        vs = ["e", "f", "h"]
        assert npoint_current(SL2, vs, pts) == three_point_closed_form(SL2, vs, pts)
        assert npoint_current(SL2, vs, pts) == npoint_current_operator(SL2, vs, pts)
        # (e,[f,h]) = (e, 2f) = 2 over (0-1)(0-2)(1-2) = -2
        assert npoint_current(SL2, vs, pts) == qi(-1)

    def test_four_point_closed_form(self):
        rng = random.Random(19)
        for _ in range(4):
            pts = rand_distinct_scalars(rng, 4, span=5)
            vs = [rng.choice(("e", "h", "f")) for _ in range(4)]
            rec = npoint_current(SL2, vs, pts)
            assert rec == four_point_closed_form(SL2, vs, pts)
            assert rec == npoint_current_operator(SL2, vs, pts)

    def test_abelian_matches_oscillator_wick(self):
        from chiralis.boson import npoint_wick

        rng = random.Random(23)
        pts = rand_distinct_scalars(rng, 6, span=6)
        assert npoint_current(AB, [0] * 6, pts) == npoint_wick(pts)

    def test_repeated_points_rejected(self):
        with pytest.raises(DomainError):
            npoint_current(SL2, ["e", "f"], [qi(1), qi(1)])


class TestModes:
    def test_sl2_bracket_with_central(self):
        assert affine_bracket_check(SL2, "e", 1, "f", -1) == qi(1)
        assert affine_bracket_check(SL2, "h", 2, "h", -2) == qi(4)
        assert affine_bracket_check(SL2, "e", 1, "f", -2) == qi(0)
        assert affine_bracket_check(SL2, "h", 0, "e", -1) == qi(0)

    def test_abelian_heisenberg(self):
        assert affine_bracket_check(AB, 0, 1, 0, -1) == qi(1)
        assert affine_bracket_check(AB, 0, 2, 0, -2) == qi(2)

    def test_h0_action(self):
        # [j^h_0, j^e_{-1}] = 2 j^e_{-1}
        s = mode_j(SL2, "e", -1, current_vacuum())
        out = mode_j(SL2, "h", 0, s)
        assert out == s.scale(2)


def _impostor():
    # sl2's labels with an abelian bracket and a form that pairs e with f
    return LieAlgebra("sl2", ("e", "f", "h"), {}, {(0, 1): 5, (2, 2): 1})


def _origin_state(rng, algebra, ctx=None):
    """A straightened origin state of degree <= 3, generators often repeated."""
    out = CurrentState({}, ctx)
    for _ in range(rng.randint(1, 3)):
        pool = [(rng.randrange(algebra.dim), rng.randint(1, 3)) for _ in range(2)]
        word = tuple((a, QI_ZERO, k) for a, k in (rng.choice(pool) for _ in range(rng.randint(0, 3))))
        ins = (rng.randrange(2),) if ctx is not None else ()
        out = out + pbw_normalize(algebra, word, ins, rand_scalar(rng), ctx)
    return out


def _rand_elem(rng, algebra):
    return {a: rand_scalar(rng) for a in rng.sample(range(algebra.dim), rng.randint(1, algebra.dim))}


class TestModeKernel:
    """``mode_j`` and ``affine_bracket_check`` run on the exponent kernel over
    ints and Fractions; the oracle recurses on CurrentStates over Q(i)."""

    @pytest.mark.parametrize("algebra", [SL2, AB, _impostor()], ids=["sl2", "abelian", "impostor"])
    def test_mode_j_matches_oracle(self, algebra):
        rng = random.Random(1501 + algebra.dim)
        for _ in range(12):
            state = _origin_state(rng, algebra)
            for v in [rng.randrange(algebra.dim), _rand_elem(rng, algebra)]:
                for l in range(-3, 4):
                    got = mode_j(algebra, v, l, state)
                    assert got == mode_j_oracle(algebra, v, l, state), (v, l, state)
                    assert all(type(c) is GaussRational for c in got.terms.values())

    def test_mode_j_with_insertions_matches_oracle(self):
        rng = random.Random(1511)
        ctx = InsertionContext(SL2, [(qi(Fraction(1, 2)), sl2_fundamental())])
        for _ in range(8):
            state = _origin_state(rng, SL2, ctx)
            for l in range(0, 4):
                v = _rand_elem(rng, SL2)
                got = mode_j(SL2, v, l, state)
                assert got == mode_j_oracle(SL2, v, l, state) and got.ctx is ctx

    @pytest.mark.parametrize("algebra", [SL2, AB, _impostor()], ids=["sl2", "abelian", "impostor"])
    def test_bracket_check_matches_oracle(self, algebra):
        for a in range(algebra.dim):
            for b in range(algebra.dim):
                for l, m in [(1, -1), (2, -2), (0, 0), (1, 0), (-2, 2), (-1, -2), (3, -1)]:
                    got = affine_bracket_check(algebra, a, l, b, m)
                    assert type(got) is GaussRational
                    assert got == affine_bracket_check_oracle(algebra, a, l, b, m)

    def test_given_spanning_states(self):
        span = [current_vacuum(), pbw_normalize(SL2, ((0, QI_ZERO, 1), (2, QI_ZERO, 2)))]
        assert affine_bracket_check(SL2, "e", 1, "f", -1, span) == qi(1)
        # the central term is read on the vacuum, whatever the order, scale or presence of
        # a degree-0 state among the given ones
        e1 = pbw_normalize(SL2, ((0, QI_ZERO, 1),))
        for span in ([e1, current_vacuum()], [current_vacuum().scale(2), e1], [e1, span[1]]):
            assert affine_bracket_check(SL2, "e", 1, "f", -1, span) == qi(1)
        with pytest.raises(DomainError):
            affine_bracket_check(SL2, "e", 1, "f", -1, [pbw_normalize(SL2, ((0, qi(1, 1), 1),))])

    def test_nonnegative_modes_need_the_origin(self):
        off = pbw_normalize(SL2, ((0, QI_ZERO, 1), (2, qi(Fraction(1, 2)), 1)))
        for l in range(0, 3):
            with pytest.raises(DomainError):
                mode_j(SL2, "h", l, off)
        assert mode_j(SL2, "h", -1, off) == mode_j_oracle(SL2, "h", -1, off)

    @pytest.mark.parametrize("wrong", ["form", "bracket"])
    def test_bracket_check_raises_on_wrong_tables(self, monkeypatch, wrong):
        # the kernel reads the int tables; a wrong one must not slip through
        monkeypatch.setattr(current, "_MODE_CACHE", {})
        monkeypatch.setattr(current, "_PBW_CACHE", {})
        algebra = sl2_algebra()
        if wrong == "form":
            algebra.q_form = {ij: 2 * g for ij, g in algebra.q_form.items()}
        else:
            algebra.q_brackets[(0, 2)], algebra.q_brackets[(2, 0)] = {1: 2}, {1: -2}
        with pytest.raises(AssertionError):
            affine_bracket_check(algebra, "e", 1, "f", -1)

    def test_public_results_keep_gauss_rational(self):
        s = mode_j(SL2, "e", -1, mode_j(SL2, "f", -2, current_vacuum()))
        straightened = pbw_normalize(SL2, ((2, QI_ZERO, 1), (0, QI_ZERO, 2)))
        for state in (s, mode_j(SL2, "h", 1, s), mode_j(SL2, {0: qi(0, 1)}, 2, s), straightened):
            assert state and all(type(c) is GaussRational for c in state.terms.values())
        assert type(affine_bracket_check(SL2, "h", 2, "h", -2)) is GaussRational


class TestAffineOperators:
    def test_constant_at_infinity_acts_diagonally(self):
        ctx = InsertionContext(SL2, [(qi(0), sl2_fundamental())])
        vac = current_vacuum(ctx, ins=(1,))
        out = J_P_apply(SL2, {"h": RatFunc.const(qi(1))}, vac)
        assert out.terms == {((), (1,)): qi(-1)}

    def test_distinct_sites_commute(self):
        rng = random.Random(29)
        ctx = InsertionContext(SL2, [(qi(0), sl2_fundamental()), (qi(1), sl2_fundamental())])
        for _ in range(4):
            s = rand_state(rng, SL2, [qi(-2), qi(3)], ctx=ctx, ins=(rng.randint(0, 1), rng.randint(0, 1)))
            nu1 = {"e": 1 / (U - qi(0)), "h": RatFunc.const(qi(2))}
            nu2 = {"f": 1 / (U - qi(1)) ** 2, "e": RatFunc.const(qi(1))}
            lhs = J_site_apply(SL2, nu1, 0, J_site_apply(SL2, nu2, 1, s))
            rhs = J_site_apply(SL2, nu2, 1, J_site_apply(SL2, nu1, 0, s))
            assert lhs == rhs

    def test_sites_sum_to_infinity_operator(self):
        # on site-supported states, with the test function's finite poles at
        # the sites, the site operators sum to the infinity operator
        rng = random.Random(31)
        ctx = InsertionContext(SL2, [(qi(0), sl2_fundamental()), (qi(1), sl2_fundamental())])
        for _ in range(6):
            s = rand_state(rng, SL2, [qi(0), qi(1)], ctx=ctx, ins=(0, 1))
            nu = {
                "e": 1 / (U - qi(0)) + rand_scalar(rng) * U,
                "f": 1 / (U - qi(1)) ** 2,
                "h": RatFunc.const(rand_scalar(rng)),
            }
            total = J_site_apply(SL2, nu, 0, s) + J_site_apply(SL2, nu, 1, s)
            assert total == J_P_apply(SL2, nu, s)

    def test_same_site_central_term(self):
        ctx = InsertionContext(SL2, [(qi(0), sl2_fundamental()), (qi(1), sl2_fundamental())])
        vac = current_vacuum(ctx, ins=(0, 1))
        mu = {"e": 1 / U}
        nu = {"f": U}  # (mu, d nu) = u^-1 du: residue 1 at the site
        lhs = J_site_apply(SL2, mu, 0, J_site_apply(SL2, nu, 0, vac)) - J_site_apply(
            SL2, nu, 0, J_site_apply(SL2, mu, 0, vac)
        )
        br = {"h": (1 / U) * U}
        lhs = lhs - J_site_apply(SL2, br, 0, vac)
        expected = residue_at((1 / U) * U.derivative(), qi(0))
        assert lhs == vac.scale(expected)

    def test_products_build_enveloping_words(self):
        nua = {"e": 1 / (U - qi(0))}
        nub = {"f": 1 / (U - qi(1)) ** 2}
        built = J_P_apply(SL2, nua, J_P_apply(SL2, nub, current_vacuum()))
        direct = pbw_normalize(SL2, ((0, qi(0), 1), (2, qi(1), 2)))
        assert built == direct

    def test_infinity_bracket_central(self):
        # [J^mu, J^nu] - J^[mu,nu] is central, with value the clockwise
        # residue at infinity (the sum of the finite residues) of (mu, d nu)
        vac = current_vacuum()
        mu = {"e": U}
        nu = {"f": 1 / U}
        lhs = J_P_apply(SL2, mu, J_P_apply(SL2, nu, vac)) - J_P_apply(
            SL2, nu, J_P_apply(SL2, mu, vac)
        )
        br = {"h": U * (1 / U)}
        lhs = lhs - J_P_apply(SL2, br, vac)
        expected = residue_at(U * (1 / U).derivative(), qi(0))
        assert lhs == vac.scale(expected)
        # and the value is nonzero here, so the extension is genuinely central
        assert expected == qi(-1)


class TestSeparation:
    def test_abelian(self):
        assert separation_check(AB, qi(0), qi(1), (0, 1), (0, 2))

    def test_sl2(self):
        assert separation_check(SL2, qi(0), qi(1), (0, 1), (2, 2))
        assert separation_check(SL2, qi(2), qi(-1), (1, 2), (0, 1))


class TestBasePoint:
    def test_vacuum(self):
        assert base_point_independence_check(SL2, "e", qi(2), ())

    def test_degree_one(self):
        w = ((0, qi(Fraction(1, 2)), 1),)
        assert base_point_independence_check(SL2, "f", qi(3), w)

    def test_degree_two(self):
        w = ((0, qi(Fraction(1, 2)), 1), (2, qi(Fraction(-1, 3)), 2))
        assert base_point_independence_check(SL2, "h", qi(5), w)

    def test_creation_offset(self):
        for z in (qi(2), qi(-3), qi(0, 1)):
            assert eps_tilde_offset(z) == RatFunc.const(1 / z)


def _assert_pair_matches_tower(algebra, dual, state):
    """The jet pairing equals the tower's, or both fail on a pole at the dual point."""
    try:
        expected = current_pair_tower(algebra, dual, state)
    except ZeroDivisionError:
        with pytest.raises(DomainError):
            current_pair(algebra, dual, state)
        return
    assert current_pair(algebra, dual, state) == expected, (dual, state)


def _disc_point(rng):
    while True:
        z = qi(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        if z.norm() < 1:
            return z


class TestPairing:
    def test_vacuum_normalization(self):
        assert current_pair(SL2, current_vacuum(), current_vacuum()) == qi(1)

    def test_degree_one_matches_residue(self):
        rng = random.Random(37)
        for algebra in (SL2, AB):
            for _ in range(6):
                a = rng.randrange(algebra.dim)
                b = rng.randrange(algebra.dim)
                ctil = qi(Fraction(rng.randint(-2, 2), rng.randint(3, 5)))
                c = qi(Fraction(rng.randint(-2, 2), rng.randint(3, 5)))
                l = rng.randint(1, 3)
                m = rng.randint(1, 3)
                dual = pbw_normalize(algebra, ((a, ctil, l),))
                state = pbw_normalize(algebra, ((b, c, m),))
                assert current_pair(algebra, dual, state) == residue_pair_degree_one(
                    algebra, (a, ctil, l), (b, c, m)
                )

    def test_degree_one_regression_pair(self):
        # the Q(i) root search on the product's denominator gave up on this pair
        dual = (0, qi(Fraction(3, 7), Fraction(-1, 3)), 2)
        gen = (2, qi(Fraction(1, 6), Fraction(1, 2)), 2)
        expected = GaussRational.parse("4397949909171/1043729299208+1845138070755/260932324802*i")
        assert residue_pair_degree_one(SL2, dual, gen) == expected
        assert current_pair(SL2, pbw_normalize(SL2, (dual,)), pbw_normalize(SL2, (gen,))) == expected

    def test_degree_one_matches_pairing_on_disc_points(self):
        rng = random.Random(1401)

        def disc_point():
            while True:
                z = qi(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 9)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 9)),
                )
                if z.norm() < 1:
                    return z

        for k in range(200):
            algebra = (SL2, AB)[k % 2]
            dual = (rng.randrange(algebra.dim), disc_point(), rng.randint(1, 3))
            gen = (rng.randrange(algebra.dim), disc_point(), rng.randint(1, 3))
            paired = current_pair(algebra, pbw_normalize(algebra, (dual,)), pbw_normalize(algebra, (gen,)))
            assert residue_pair_degree_one(algebra, dual, gen) == paired, (dual, gen)

    def test_spec_anchor_value(self):
        # the double pole of e/u against the region-adjusted dual of f/(u-2)
        dual = pbw_normalize(SL2, ((2, qi(Fraction(1, 2)), 1),))
        state = pbw_normalize(SL2, ((0, qi(0), 1),))
        direct = -residue_at((1 / (U - 2)) * (1 / U).derivative(), qi(0))
        # the dual class of f/(u-2) is -(1/4) of the canonical dual atom
        assert current_pair(SL2, dual, state) == direct * qi(-4)

    def test_abelian_degree_one_matches_boson(self):
        # both realizations compute the same residue pairing
        dual = pbw_normalize(AB, ((0, qi(Fraction(1, 4)), 1),))
        state = pbw_normalize(AB, ((0, qi(0), 1),))
        assert current_pair(AB, dual, state) == residue_pair_degree_one(
            AB, (0, qi(Fraction(1, 4)), 1), (0, qi(0), 1)
        )

    def test_adjointness_cross_relation(self):
        # <eps' dual, state> = u(z')^2 <dual, iota(z') state> at sample points
        dual = pbw_normalize(SL2, ((2, qi(Fraction(1, 3)), 1),))
        state = pbw_normalize(SL2, ((0, qi(0), 1), (1, qi(Fraction(1, 5)), 1)))
        zt = qi(Fraction(1, 2))
        zu = 1 / zt
        lifted = _left_multiply(SL2, [((0, zt, 1), QI_ONE)], dual)
        lhs = current_pair(SL2, lifted, state)
        rhs = zu * zu * current_pair(SL2, dual, iota_apply(SL2, "e", zu, state))
        assert lhs == rhs

    def test_jet_pair_matches_tower_degree_one(self):
        rng = random.Random(1203)
        for k in range(60):
            algebra = (SL2, AB)[k % 2]
            ctil = qi(0) if k % 5 == 0 else _disc_point(rng)
            dual = (rng.randrange(algebra.dim), ctil, rng.randint(1, 3))
            gen = (rng.randrange(algebra.dim), _disc_point(rng), rng.randint(1, 3))
            dual_state = pbw_normalize(algebra, (dual,), (), rand_scalar(rng))
            state = pbw_normalize(algebra, (gen,)) + current_vacuum().scale(rand_scalar(rng))
            _assert_pair_matches_tower(algebra, dual_state, state)

    def test_no_tower_point_outlives_its_test(self):
        # the tower test above straightens words at tower_field points through
        # the program's _PBW_CACHE; the conftest fixture empties the program
        # caches around every test of a module that uses the tower oracles
        def holds_tower_value(x):
            if isinstance(x, tuple):
                return any(holds_tower_value(y) for y in x)
            return type(x).__module__ == "tower_field"

        for name, module in list(sys.modules.items()):
            if name.startswith("chiralis."):
                for attr, cache in vars(module).items():
                    if attr.endswith("_CACHE"):
                        assert not [key for key in cache if holds_tower_value(key)], (name, attr)

    def test_jet_pair_matches_tower_degree_two(self):
        # degree-two duals and states on which the tower takes under 1 s
        rng = random.Random(1207)
        for _ in range(4):
            word = tuple(
                (0, qi(0) if rng.random() < 0.3 else _disc_point(rng), rng.randint(1, 2)) for _ in range(2)
            )
            sword = tuple((0, _disc_point(rng), 1) for _ in range(2))
            _assert_pair_matches_tower(AB, pbw_normalize(AB, word), pbw_normalize(AB, sword))
        h = 1  # the basis index of h in sl2
        for word, sword in (
            (((h, "-1/4+1/2*i", 1), (h, "1/4-2/3*i", 1)), ((h, "0+3/4*i", 1), (h, "-3/4-1/4*i", 1))),
            (((h, "-1/2-1/2*i", 2), (h, "3/4+1/4*i", 1)), ((h, "0-1/3*i", 1), (h, "0-1/3*i", 1))),
            (((h, "-1/3-1/2*i", 2), (h, "-1/4+2/3*i", 1)), ((h, "1/2+1/2*i", 1), (h, "1/3", 1))),
        ):
            dual = pbw_normalize(SL2, tuple((a, GaussRational.parse(c), l) for a, c, l in word))
            state = pbw_normalize(SL2, tuple((a, GaussRational.parse(c), l) for a, c, l in sword))
            _assert_pair_matches_tower(SL2, dual, state)

    def test_jet_pair_matches_tower_with_insertions(self):
        rng = random.Random(1213)
        for _ in range(8):
            ctx = InsertionContext(SL2, [(_disc_point(rng), sl2_fundamental())])
            gen = (rng.randrange(3), _disc_point(rng), rng.randint(1, 2))
            state = pbw_normalize(SL2, (gen,), (rng.randrange(2),), QI_ONE, ctx)
            ctil = qi(0) if rng.random() < 0.3 else _disc_point(rng)
            dual = pbw_normalize(SL2, ((rng.randrange(3), ctil, rng.randint(1, 3)),))
            _assert_pair_matches_tower(SL2, dual, state)

    def test_pole_at_the_dual_point(self):
        # the first letter is h at c~ = 0, and t^-2 <e(i/3)| iota_h(1/t) state> has a
        # simple pole at t = 0: the tower divides by zero there (after about 3 s)
        dual = pbw_normalize(SL2, ((1, qi(0), 1), (0, qi(0, Fraction(1, 3)), 1)))
        state = pbw_normalize(
            SL2, ((2, GaussRational.parse("-1/2-1/3*i"), 1), (1, GaussRational.parse("2/3+1/4*i"), 1))
        )
        with pytest.raises(DomainError):
            current_pair(SL2, dual, state)

    def test_degree_two_regression_pair(self):
        # the tower over Q(i)(t) took about 151 s on this pair; the value is the tower's
        word = ((2, GaussRational.parse("-3/4-1/3*i"), 1), (1, GaussRational.parse("1/3-5/7*i"), 1))
        sword = ((0, GaussRational.parse("4/9+2/5*i"), 1), (1, GaussRational.parse("-1/2+2/3*i"), 2))
        expected = GaussRational.parse(
            "1536576382220254571797955492778198720/236564440845116065828675623713499413"
            "+844381992642851812842168685165152000/236564440845116065828675623713499413*i"
        )
        assert current_pair(SL2, pbw_normalize(SL2, word), pbw_normalize(SL2, sword)) == expected

    def test_precision_l_matches_tower(self):
        # degree one over sl2 (c~ = 0 included), with an insertion, and degree
        # two over the abelian algebra, a repeated dual point included
        rng = random.Random(1523)
        for k in range(20):
            ctil = qi(0) if k % 4 == 0 else _disc_point(rng)
            dual = pbw_normalize(SL2, ((rng.randrange(3), ctil, rng.randint(1, 3)),), (), rand_scalar(rng))
            ctx = InsertionContext(SL2, [(_disc_point(rng), sl2_fundamental())]) if k % 3 == 0 else None
            gen = (rng.randrange(3), _disc_point(rng), rng.randint(1, 2))
            state = pbw_normalize(SL2, (gen,), (rng.randrange(2),) if ctx else (), QI_ONE, ctx)
            _assert_pair_matches_tower(SL2, dual, state)
        for k in range(4):
            p = _disc_point(rng)
            word = ((0, p, 1), (0, p if k % 2 else _disc_point(rng), rng.randint(1, 2)))
            sword = tuple((0, _disc_point(rng), 1) for _ in range(2))
            _assert_pair_matches_tower(AB, pbw_normalize(AB, word), pbw_normalize(AB, sword))

    @pytest.mark.parametrize("ctil, slack", [(qi(Fraction(1, 3), Fraction(-1, 2)), 0), (qi(0), SLACK)])
    def test_one_attempt_at_precision_l(self, monkeypatch, ctil, slack):
        precs = []

        def recording_jet_point(z, prec):
            precs.append(prec)
            return jet_point(z, prec)

        jet_point = current.jet_point
        monkeypatch.setattr(current, "jet_point", recording_jet_point)
        gen = (0, qi(Fraction(1, 4), Fraction(1, 5)), 2)
        for l in (1, 2, 3):
            precs.clear()
            paired = current_pair(SL2, pbw_normalize(SL2, ((2, ctil, l),)), pbw_normalize(SL2, (gen,)))
            assert paired == residue_pair_degree_one(SL2, (2, ctil, l), gen)
            assert precs == [l + slack]  # one attempt, at precision l away from c~ = 0

    def test_repeated_dual_point_needs_no_retry(self, monkeypatch):
        # one attempt at the first try's slack reads the value at a repeated dual point
        attempts = []
        pair_word = current._pair_word

        def counting(algebra, word, state, slack):
            if len(word) == 2:
                attempts.append(slack)
            return pair_word(algebra, word, state, slack)

        monkeypatch.setattr(current, "_pair_word", counting)
        p = qi(Fraction(1, 3), Fraction(1, 4))
        dual = pbw_normalize(AB, ((0, p, 2), (0, p, 1)))
        state = pbw_normalize(AB, ((0, qi(Fraction(-1, 2)), 1), (0, qi(0, Fraction(1, 2)), 2)))
        value = current_pair(AB, dual, state)
        assert attempts == [SLACK]
        assert value == current_pair_tower(AB, dual, state)

    def test_repeated_dual_point_at_precision_l(self, monkeypatch):
        # h (or f) at c~ brackets e into a letter at 1/t; the rest of the word pairs
        # with a coefficient state over Q(i), so a later letter at c~ meets no 1/t and
        # every letter starts at l, at a repeated dual point as at two distinct ones
        precs = []

        def recording_jet_point(z, prec):
            precs.append(prec)
            return jet_point(z, prec)

        jet_point = current.jet_point
        monkeypatch.setattr(current, "jet_point", recording_jet_point)
        p, q = qi(Fraction(1, 3), Fraction(1, 4)), qi(Fraction(-1, 4), Fraction(1, 2))
        state = pbw_normalize(SL2, ((0, qi(Fraction(-1, 2)), 1),))
        cases = (((1, 1), (2, 1)), ((2, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (1, 2)), ((1, 1), (2, 2)))
        for (a1, l1), (a2, l2) in cases:
            for p2 in (p, q):
                word = tuple(sorted(((a1, p, l1), (a2, p2, l2)), key=current._gen_key))
                dual = pbw_normalize(SL2, word)
                precs.clear()
                assert current_pair(SL2, dual, state) == current_pair_tower(SL2, dual, state)
                assert precs == [word[0][2], word[1][2]]

    # degree-two and -three pairings recorded from the nested-jet implementation;
    # (algebra, dual word, state word, insertion point or None, value)
    PINNED = (
        ("SL2", ((2, "-1/2", 1), (0, "-1/2", 1)), ((0, "0-1/3*i", 1), (2, "-1/2", 1)), None,
         "-11712/1369-7040/4107*i"),
        ("SL2", ((1, "-2/3", 2), (1, "-2/3", 1)), ((1, "0-3/4*i", 1), (1, "0", 1)), None, "528/125-96/125*i"),
        ("SL2", ((0, "-1/2", 2), (1, "0", 2)), ((1, "0-2/3*i", 2), (2, "-1/3-3/4*i", 2)), None,
         "12930993245952/6690989040125+41872948683264/6690989040125*i"),
        ("SL2", ((2, "-1/2-1/2*i", 2), (2, "0", 1)), ((0, "1/2-1/2*i", 1), (0, "0+1/2*i", 1)), None,
         "3256/3375+2408/3375*i"),
        ("SL2", ((0, "0", 2), (0, "2/3+1/3*i", 2), (1, "-2/3", 1)),
         ((2, "0", 1), (2, "-2/3-1/2*i", 1), (1, "3/4", 1)), None,
         "70823645793464/317294190975-37663502982194/951882572925*i"),
        ("SL2", ((1, "0", 1), (1, "2/3-2/3*i", 1), (0, "2/3-2/3*i", 1)),
         ((2, "-1/2-2/3*i", 1), (1, "-1/2-1/2*i", 2), (1, "-1/2", 1)), None,
         "14797728/8256125-89849088/41280625*i"),
        ("SL2", ((1, "0-2/3*i", 1), (1, "-1/3", 1)), ((1, "-1/2-1/3*i", 2), (1, "0+1/2*i", 1)), "-1/3+1/2*i",
         "-36829573354517472/4514919019047125-27936368295978096/4514919019047125*i"),
        ("SL2", ((1, "-1/2", 1), (2, "0-1/2*i", 1), (1, "-1/2+1/2*i", 1)),
         ((1, "-1/4", 1), (2, "0+3/4*i", 1), (0, "1/2-2/3*i", 1)), "-1/2-1/2*i",
         "-21403737690299265318912/2226790409675386953125-7354334944521343401984/2226790409675386953125*i"),
        ("AB", ((0, "-3/4+1/4*i", 1), (0, "-3/4+1/4*i", 2), (0, "-3/4+1/4*i", 2)),
         ((0, "1/2+2/3*i", 2), (0, "0+2/3*i", 2), (0, "0", 1)), None,
         "61170868224/276281640625+105399263232/276281640625*i"),
        ("AB", ((0, "-1/2", 1), (0, "0", 1), (0, "0", 2)), ((0, "-2/3", 1), (0, "-3/4", 2), (0, "-1/2-1/2*i", 2)),
         None, "-1312/125-416/125*i"),
        ("SL2", ((1, "0", 2), (0, "0+1/3*i", 1)), ((1, "1/4-2/3*i", 2), (2, "1/3", 1)), None, None),
        ("SL2", ((1, "0", 1), (2, "1/4+1/3*i", 2), (1, "1/4+1/3*i", 1)), ((1, "-2/3", 1), (1, "0", 1), (0, "3/4", 1)),
         None, None),
    )

    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_degree_two_and_three_pinned(self, case):
        # repeated dual points, c~ = 0, insertions and poles at the dual point (value None)
        name, word, sword, site, value = self.PINNED[case]
        algebra = {"SL2": SL2, "AB": AB}[name]
        ctx = InsertionContext(SL2, [(GaussRational.parse(site), sl2_fundamental())]) if site else None
        dual = pbw_normalize(algebra, tuple((a, GaussRational.parse(c), l) for a, c, l in word))
        state = pbw_normalize(
            algebra, tuple((a, GaussRational.parse(c), l) for a, c, l in sword), (0,) if site else (), QI_ONE, ctx
        )
        if value is None:
            with pytest.raises(DomainError):
                current_pair(algebra, dual, state)
        else:
            assert current_pair(algebra, dual, state) == GaussRational.parse(value)

    def test_region_violation(self):
        dual = pbw_normalize(SL2, ((2, qi(Fraction(1, 2)), 1),))
        bad = pbw_normalize(SL2, ((0, qi(3), 1),))
        with pytest.raises(DomainError):
            current_pair(SL2, dual, bad)

    def test_insertion_indices_without_a_site_are_rejected(self):
        # the value used to be that of whichever empty-word term came first
        vacuum = current_vacuum()
        for terms in ({((), (1,)): qi(5), ((), (0,)): qi(3)}, {((), (0,)): qi(3), ((), (1,)): qi(5)}):
            state = CurrentState(terms)
            assert state.vacuum_coefficient() == 0
            with pytest.raises(DomainError):
                current_pair(SL2, vacuum, state)
            with pytest.raises(DomainError):
                current_pair(SL2, state, vacuum)

    def test_vacuum_coefficient_does_not_depend_on_term_order(self):
        word = ((0, qi(Fraction(1, 2)), 1),)
        terms = [((word, ()), qi(2)), (((), ()), qi(7))]
        assert CurrentState(dict(terms)).vacuum_coefficient() == 7
        assert CurrentState(dict(terms[::-1])).vacuum_coefficient() == 7
        ctx = InsertionContext(SL2, [(qi(0), sl2_fundamental())])
        assert CurrentState({((), (1,)): qi(5), (word, (0,)): qi(2)}, ctx).vacuum_coefficient() == 5
        with pytest.raises(DomainError):
            CurrentState({((), (1,)): qi(5), ((), (0,)): qi(3)}, ctx).vacuum_coefficient()


class TestCurrentOpe:
    def test_expansion_structure(self):
        z1 = qi(1)
        for s in (
            current_vacuum(),
            pbw_normalize(SL2, ((1, qi(0), 1),)),
            pbw_normalize(SL2, ((0, qi(2), 1), (2, qi(0), 1))),
        ):
            inner = j_apply(SL2, "e", z1, s)
            buckets = current_expand_at_generic_point(SL2, "f", z1, inner, 1)
            g = SL2.pair(SL2.basis_element("e"), SL2.basis_element("f"))
            zero = CurrentState({}, s.ctx)
            assert buckets.get(-2, zero) == s.scale(g)
            br = SL2.bracket(SL2.basis_element("f"), SL2.basis_element("e"))
            assert buckets.get(-1, zero) == j_apply(SL2, br, z1, s)
            i2i1 = iota_apply(SL2, "f", z1, iota_apply(SL2, "e", z1, s))
            e2e1 = epsilon_apply(SL2, "f", z1, epsilon_apply(SL2, "e", z1, s))
            e2i1 = epsilon_apply(SL2, "f", z1, iota_apply(SL2, "e", z1, s))
            e1i2 = epsilon_apply(SL2, "e", z1, iota_apply(SL2, "f", z1, s))
            diota = current_expand_at_generic_point(
                SL2, br, z1, s, 1, field="iota"
            ).get(1, zero)
            assert buckets.get(0, zero) == i2i1 + e2e1 + e2i1 + e1i2 + diota

    def test_jet_expansion_matches_tower(self):
        rng = random.Random(1217)
        states = [
            current_vacuum(),
            pbw_normalize(SL2, ((1, qi(0), 1),)),
            pbw_normalize(SL2, ((0, qi(2), 1), (2, qi(0), 2))),
        ]
        for field in ("j", "iota", "epsilon"):
            for s in states:
                z1 = rand_scalar(rng) + 5
                inner = j_apply(SL2, rng.choice("ehf"), z1, s)
                v = rng.choice("ehf")
                for order in (0, 1):
                    assert current_expand_at_generic_point(SL2, v, z1, inner, order, field) == (
                        current_expand_tower(SL2, v, z1, inner, order, field)
                    ), (field, s, order)

    def test_iota_commutators(self):
        # the two-contraction and contraction-current relations
        rng = random.Random(41)
        z1, z2 = qi(2), qi(-1)
        for _ in range(4):
            s = rand_state(rng, SL2, [qi(0), qi(1)], max_len=2)
            v1, v2 = rng.choice(("e", "h", "f")), rng.choice(("e", "h", "f"))
            e1, e2 = SL2.basis_element(v1), SL2.basis_element(v2)
            lhs = iota_apply(SL2, v1, z1, iota_apply(SL2, v2, z2, s)) - iota_apply(
                SL2, v2, z2, iota_apply(SL2, v1, z1, s)
            )
            br = SL2.bracket(e1, e2)
            expected = CurrentState({}, s.ctx)
            if br:
                expected = iota_apply(SL2, br, z2, s).scale(1 / (z1 - z2)) - iota_apply(
                    SL2, br, z1, s
                ).scale(1 / (z1 - z2))
            assert lhs == expected
            # contraction against the full current
            lhs2 = iota_apply(SL2, v1, z1, j_apply(SL2, v2, z2, s)) - j_apply(
                SL2, v2, z2, iota_apply(SL2, v1, z1, s)
            )
            g = SL2.pair(e1, e2)
            expected2 = s.scale(g / (z1 - z2) ** 2)
            if br:
                expected2 = expected2 + j_apply(SL2, br, z2, s).scale(1 / (z1 - z2))
            assert lhs2 == expected2


class TestCachesKeyOnStructure:
    """An algebra that shares sl2's name but not its brackets gets its own
    straightening, contractions and modes, whichever runs first."""

    def test_abelian_impostor_then_sl2(self):
        fake = _impostor()
        word = ((0, qi(1), 1), (1, qi(0), 1))
        one_gen = ((1, qi(0), 1),)
        fake_pbw = pbw_normalize(fake, word)
        fake_iota = iota_apply(fake, {0: QI_ONE}, qi(2), pbw_normalize(fake, one_gen))
        fake_mode = mode_j(fake, {0: QI_ONE}, 1, pbw_normalize(fake, one_gen))
        # abelian: the word only sorts; e meets f through the form alone
        assert fake_pbw == CurrentState({((word[1], word[0]), ()): QI_ONE})
        assert fake_iota == current_vacuum().scale(qi(Fraction(5, 4)))
        assert fake_mode == current_vacuum().scale(qi(5))

        real = sl2_algebra()
        real_pbw = pbw_normalize(real, word)
        assert len(real_pbw.terms) > 1  # [e, h] = -2e adds a straightening term
        assert real_pbw != fake_pbw
        # in sl2 index 1 is h: (e, h) = 0 and [e, h] = -2e
        assert mode_j(real, {0: QI_ONE}, 1, pbw_normalize(real, one_gen)).is_zero()
        real_iota = iota_apply(real, {0: QI_ONE}, qi(2), pbw_normalize(real, one_gen))
        assert real_iota.vacuum_coefficient() == 0 and not real_iota.is_zero()

        assert pbw_normalize(fake, word) == fake_pbw
        assert LieAlgebra("other", ("e", "f", "h"), {}, {(0, 1): 5, (2, 2): 1}).key == fake.key
        assert fake.key != real.key


def _rand_nu(rng, sites, off_sites):
    """A Lie-valued function with poles on and off the sites, polynomial and constant parts."""
    nu = {}
    for label in rng.sample(("e", "h", "f"), rng.randint(1, 3)):
        f = RatFunc.const(rand_scalar(rng)) if rng.random() < 0.5 else RatFunc.const(qi(0))
        for c in rng.sample(sites + off_sites, rng.randint(1, 2)):
            f = f + rand_scalar(rng) / (U - c) ** rng.randint(1, 3)
        if rng.random() < 0.5:
            f = f + rand_scalar(rng) * U ** rng.randint(1, 2)
        nu[label] = f
    if rng.random() < 0.3:
        nu["h"] = rand_scalar(rng)  # a bare scalar component
    return nu


class TestKnownPoles:
    """The atom closed forms against the RatFunc oracles they replace, and a
    pin that the site check runs the generic machinery only on its inputs."""

    SITES = [qi(0), qi(1)]
    OFF_SITES = [qi(-2), qi(1, 1), qi(Fraction(1, 2), -1)]

    def ctx(self):
        return InsertionContext(SL2, [(z, sl2_fundamental()) for z in self.SITES])

    def test_site_operators_match_oracle(self):
        rng = random.Random(1301)
        ctx = self.ctx()
        for k in range(24):
            length = 1 + k % 2
            word = tuple((rng.randrange(3), rng.choice(self.SITES + self.OFF_SITES), rng.randint(1, 2))
                         for _ in range(length))
            s = pbw_normalize(SL2, word, (rng.randint(0, 1), rng.randint(0, 1)), rand_scalar(rng), ctx)
            nu = _rand_nu(rng, self.SITES, self.OFF_SITES)
            for site in (0, 1):
                assert J_site_apply(SL2, nu, site, s) == J_site_apply_oracle(SL2, nu, site, s), (nu, s)
            assert J_P_apply(SL2, nu, s) == J_P_apply_oracle(SL2, nu, s), (nu, s)
            bare = CurrentState(s.terms)  # no insertions: J_P only multiplies and contracts
            assert J_P_apply(SL2, nu, bare) == J_P_apply_oracle(SL2, nu, bare), (nu, s)

    @pytest.mark.parametrize("ctil", [qi(Fraction(1, 2)), qi(-3), qi(1, -1), qi(Fraction(1, 3), Fraction(-2, 5))])
    def test_reciprocal_atoms_match_partial_fractions(self, ctil):
        for l in range(1, 5):
            f = (1 / (1 / U - ctil)) ** l
            # the root search gives up on 1/c~ for the last c~; its pole is known
            dec = partial_fractions(f) if ctil.norm() != Fraction(61, 225) else partial_fractions_known(f, [1 / ctil])
            assert sorted(_dual_gen_atoms(ctil, l), key=repr) == sorted(dec_atoms(dec), key=repr)
        assert _dual_gen_atoms(qi(0), 3) == [(("poly", 3), QI_ONE)]

    def test_reciprocal_conversion_matches_oracle(self):
        rng = random.Random(1303)
        points = [qi(Fraction(1, 2)), qi(Fraction(-2, 3)), qi(0, Fraction(3, 4)), qi(Fraction(1, 2), Fraction(1, 2))]
        for l in range(1, 5):
            for ctil in points:
                word = ((rng.randrange(3), ctil, l),)
                assert _convert_reciprocal_word_to_origin(SL2, word, qi(2)) == convert_reciprocal_word_oracle(
                    SL2, word, qi(2)
                )
                word = word + ((rng.randrange(3), rng.choice(points), rng.randint(1, 4)),)
                assert _convert_reciprocal_word_to_origin(SL2, word, qi(-1)) == convert_reciprocal_word_oracle(
                    SL2, word, qi(-1)
                )
        with pytest.raises(DomainError):
            _convert_reciprocal_word_to_origin(SL2, ((0, qi(0), 2),), QI_ONE)

    def test_base_point_past_the_root_search(self):
        # the root search on (u/(1 - c~u))^4 gave up on the pole 1/c~
        assert base_point_independence_check(SL2, "e", qi(3), ((0, qi(Fraction(1, 3), Fraction(-1, 2)), 4),))

    def test_no_generic_path(self, monkeypatch):
        # the site check decomposes each distinct nu component once (its one
        # root search and partial fractions) and finds no pole again; the
        # other operators below know their poles from the start
        calls = []
        names = ("residue_at", "partial_fractions", "form_to_atoms", "gauss_rational_roots")
        for module in (exactnum, geometry, symmetry, current, pairing, fermion):
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    def counting(*args, _fn=fn, _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(symmetry, "_PF_CACHE", {})
        ctx = self.ctx()
        nu1 = {"e": 1 / U ** 2, "h": RatFunc.const(qi(3, 1))}
        nu2 = {"f": 1 / (U - 1) ** 2}
        nu = {"e": 1 / U + U * qi(2, -1), "f": 1 / (U - 1) ** 2}
        distinct = len({f for n in (nu1, nu2, nu) for f in n.values()})
        states = [
            current_vacuum(ctx, (0, 1)),
            pbw_normalize(SL2, ((0, qi(0), 1),), (0, 1), qi(2), ctx),
            pbw_normalize(SL2, ((0, qi(0), 1), (2, qi(1), 2)), (1, 0), qi(2), ctx),
        ]
        for s in states:
            lhs = J_site_apply(SL2, nu1, 0, J_site_apply(SL2, nu2, 1, s))
            assert lhs == J_site_apply(SL2, nu2, 1, J_site_apply(SL2, nu1, 0, s))
            total = J_site_apply(SL2, nu, 0, s) + J_site_apply(SL2, nu, 1, s)
            assert total == J_P_apply(SL2, nu, s)
        assert calls.count("gauss_rational_roots") <= distinct
        assert calls.count("partial_fractions") <= distinct
        assert set(calls) <= {"gauss_rational_roots", "partial_fractions"}

        calls.clear()
        assert base_point_independence_check(SL2, "h", qi(5), ((0, qi(Fraction(1, 2)), 1), (2, qi(0, -1), 3)))
        fermion.KernelBoson(bergman_genus0()).b_apply(qi(3), monomial_state([("pole", qi(0), 2)]))
        assert calls == []


class TestOneAccumulation:
    """Every current field is one ``_apply`` call: epsilon, j and the negative
    modes against the compositions kept in ``current_oracle``, with no
    context and with one and two insertion sites, and a pin of one
    ``CurrentState`` per call."""

    POOL = [qi(0), qi(Fraction(1, 2)), qi(Fraction(-2, 3), Fraction(1, 4))]
    POINTS = [qi(Fraction(5, 2)), qi(Fraction(1, 3), Fraction(-2, 5))]

    def contexts(self, algebra):
        rep = sl2_fundamental() if algebra is SL2 else trivial_rep()
        sites = [qi(Fraction(-3, 2)), qi(Fraction(3, 4), 1)]
        return [None] + [InsertionContext(algebra, [(z, rep) for z in sites[:n]]) for n in (1, 2)]

    def states(self, rng, algebra, ctx):
        for _ in range(4):
            ins = tuple(rng.randint(0, 1) if algebra is SL2 else 0 for _ in (ctx.points if ctx else ()))
            s = rand_state(rng, algebra, self.POOL, 3, ctx, ins)
            yield s + pbw_normalize(algebra, ((rng.randrange(algebra.dim), rng.choice(self.POOL), 1),),
                                    ins, rand_scalar(rng), ctx)

    @pytest.mark.parametrize("algebra", [SL2, AB], ids=["sl2", "abelian"])
    def test_fields_match_oracle(self, algebra):
        rng = random.Random(1801)
        for ctx in self.contexts(algebra):
            for s in self.states(rng, algebra, ctx):
                v = _rand_elem(rng, algebra)
                for z in self.POINTS:
                    for got, expected in ((epsilon_apply(algebra, v, z, s), epsilon_apply_oracle(algebra, v, z, s)),
                                          (j_apply(algebra, v, z, s), j_apply_oracle(algebra, v, z, s))):
                        assert got == expected and got.ctx is ctx, (v, z, s)
                for l in (-1, -2, -3):
                    got = mode_j(algebra, v, l, s)
                    assert got == mode_j_oracle(algebra, v, l, s) and got.ctx is ctx, (v, l, s)

    def test_adjoint_op_matches_oracle(self):
        rng = random.Random(1802)
        for ctx in self.contexts(SL2):
            for s in self.states(rng, SL2, ctx):
                elem = _rand_elem(rng, SL2)
                assert current._apply(SL2, s, current._adjoint_op(SL2, elem, ctx)) == constant_adjoint(SL2, elem, s)

    def test_one_state_per_call(self, monkeypatch):
        ctx = self.contexts(SL2)[2]
        s = pbw_normalize(SL2, ((0, QI_ZERO, 2), (2, self.POOL[2], 1)), (0, 1), qi(2), ctx)
        bare = CurrentState(s.terms)
        origin = pbw_normalize(SL2, ((0, QI_ZERO, 1), (1, QI_ZERO, 2)), (), qi(3))
        nu = {"e": 1 / (U - ctx.points[0]) ** 2 + U, "h": qi(2)}
        z = self.POINTS[1]
        calls = [
            lambda: epsilon_apply(SL2, "e", z, s),
            lambda: iota_apply(SL2, "h", z, s),
            lambda: j_apply(SL2, {0: qi(1), 2: qi(0, 1)}, z, s),
            lambda: j_apply(SL2, "f", z, bare),
            lambda: mode_j(SL2, "f", -2, s),
            lambda: mode_j(SL2, "e", 1, origin),
            lambda: J_P_apply(SL2, nu, s),
            lambda: J_site_apply(SL2, nu, 0, s),
        ]
        built = []
        init = CurrentState.__init__
        monkeypatch.setattr(CurrentState, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        for call in calls:
            built.clear()
            assert call()
            assert len(built) == 1

        # the expansion: per precision attempt one state for the inner field,
        # then one per returned order
        attempts = []
        monkeypatch.setattr(current, "jet_point", lambda *a: attempts.append(1) or jet_point(*a))
        for field in ("j", "iota", "epsilon"):
            for state in (s, bare):
                built.clear()
                attempts.clear()
                orders = current_expand_at_generic_point(SL2, "e", z, state, 1, field)
                assert orders and len(attempts) == 1
                assert len(built) == 1 + len(orders), field

    def test_pair_builds_one_state_per_letter_and_order(self, monkeypatch):
        """Each dual letter pairs through its iota state, scaled by 1/t^2 in
        the same term dict, and one state per order it reads: off the origin
        a word of degree n builds 2n states, whatever the state's degree."""
        ctil = qi(Fraction(1, 3), Fraction(1, 4))
        states = [pbw_normalize(SL2, ((2, qi(Fraction(1, 2)), 2),)),
                  pbw_normalize(SL2, ((2, qi(Fraction(1, 2)), 2), (1, qi(Fraction(-1, 3)), 1)))]
        built = []
        init = CurrentState.__init__
        monkeypatch.setattr(CurrentState, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        for l in (1, 2, 3):
            for word in (((0, ctil, l),), ((0, ctil, l), (2, ctil, 1))):
                dual = pbw_normalize(SL2, word)
                for state in states:
                    built.clear()
                    current_pair(SL2, dual, state)
                    assert len(built) == 2 * len(word), (word, state)


class TestOneRecursion:
    """iota, J_P and J_site on the one commutation recursion against the
    parent recursions kept in ``current_oracle``: seeded words of degree <= 3
    with repeated generators, with and without an insertion context."""

    POOL = [qi(0), qi(1), qi(Fraction(1, 2), -1)]

    def states(self, rng, algebra, ctx):
        for _ in range(6):
            gens = [(rng.randrange(algebra.dim), rng.choice(self.POOL), rng.randint(1, 2))
                    for _ in range(rng.randint(1, 2))]
            word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))
            ins = (rng.randint(0, 1), rng.randint(0, 1)) if ctx else ()
            s = pbw_normalize(algebra, word, ins, rand_scalar(rng), ctx)
            yield s + pbw_normalize(algebra, word[:1], ins, rand_scalar(rng), ctx)

    def context(self, algebra, points):
        return InsertionContext(algebra, [(z, sl2_fundamental() if algebra is SL2 else {}) for z in points])

    @pytest.mark.parametrize("algebra", [SL2, AB], ids=["sl2", "abelian"])
    def test_iota_matches_oracle(self, algebra):
        rng = random.Random(1701)
        t = jet_point(qi(Fraction(2, 3)), 3)
        points = [qi(5), qi(-1, 2), jet_point(qi(Fraction(5, 2)), 4), 1 / t]
        for ctx in (None, self.context(algebra, [qi(-2), qi(3, 1)])):
            for s in self.states(rng, algebra, ctx):
                for z in points:
                    v = {rng.randrange(algebra.dim): rand_scalar(rng)}
                    assert iota_apply(algebra, v, z, s) == iota_apply_oracle(algebra, v, z, s), (v, z, s)

    def test_iota_leaves_cached_terms_alone(self):
        rng = random.Random(1702)
        for z in (qi(5), jet_point(qi(-3), 4)):
            for s in self.states(rng, SL2, None):
                first = iota_apply(SL2, "h", z, s)
                cached = {key: dict(terms) for key, terms in current._IOTA_CACHE.items()}
                assert iota_apply(SL2, "h", z, s) == first
                assert {key: dict(terms) for key, terms in current._IOTA_CACHE.items()} == cached

    @pytest.mark.parametrize("algebra", [SL2, AB], ids=["sl2", "abelian"])
    def test_site_operators_match_oracle(self, algebra):
        rng = random.Random(1703)
        ctx = self.context(algebra, self.POOL[:2])
        for s in self.states(rng, algebra, ctx):
            nu = {label: rand_scalar(rng) / (U - rng.choice(self.POOL)) ** rng.randint(1, 2)
                  + rand_scalar(rng) * U for label in algebra.labels}
            for site in (0, 1):
                assert J_site_apply(algebra, nu, site, s) == J_site_apply_oracle(algebra, nu, site, s)
            assert J_P_apply(algebra, nu, s) == J_P_apply_oracle(algebra, nu, s)
            bare = CurrentState(s.terms)
            assert J_P_apply(algebra, nu, bare) == J_P_apply_oracle(algebra, nu, bare)
