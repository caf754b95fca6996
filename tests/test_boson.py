import random
from fractions import Fraction

import pytest

import contraction_oracle
from chiralis import boson, exactnum, geometry, symmetry
from chiralis.boson import (
    DerivedField,
    RenormProduct,
    T_apply,
    b_apply,
    b_deriv_apply,
    commutator_ie,
    covariance_check,
    d_isomorphism,
    davatar_check,
    e_apply,
    e_deriv_apply,
    eps_apply,
    field_by_name,
    i_apply,
    iota_apply,
    npoint_operator,
    npoint_wick,
    ope_extract,
    vacuum,
)
from chiralis.exactnum import GaussRational, RatFunc, qi
from chiralis.geometry import VectorField
from chiralis.jets import jet_point
from chiralis.sampling import rand_distinct_scalars, rand_scalar
from chiralis.states import DomainError, SymState, monomial_state

U = RatFunc.variable(GaussRational(1))


def rand_form_state(rng, pole_pool, max_degree=3, max_order=3):
    """Random state whose basis poles lie in pole_pool."""
    out = SymState()
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(0, max_degree)
        atoms = []
        for _ in range(deg):
            c = rng.choice(pole_pool)
            atoms.append(("pole", c, rng.randint(2, max_order)))
        out = out + monomial_state(atoms, rand_scalar(rng))
    if out.is_zero():
        out = vacuum()
    return out


class TestBasicFields:
    def test_e_on_vacuum(self):
        s = e_apply(0, vacuum())
        assert s.terms == {(("pole", qi(0), 2),): qi(-1)}

    def test_e_commutes(self):
        s = rand_form_state(random.Random(1), [qi(5)])
        assert e_apply(0, e_apply(1, s)) == e_apply(1, e_apply(0, s))

    def test_e_raises_degree_by_one(self):
        s = rand_form_state(random.Random(2), [qi(5)])
        assert e_apply(0, s).degree() == s.degree() + 1

    def test_i_evaluates(self):
        s = monomial_state([("pole", qi(0), 2)])  # the form u^-2 du
        out = i_apply(3, s)
        assert out.terms == {(): qi(Fraction(-1, 9))}

    def test_i_kills_vacuum(self):
        assert i_apply(7, vacuum()).is_zero()

    def test_i_domain_error(self):
        s = monomial_state([("pole", qi(0), 2)])
        with pytest.raises(DomainError):
            i_apply(0, s)

    def test_b_and_T_on_vacuum(self):
        z = qi(3)
        assert b_apply(z, vacuum()) == e_apply(z, vacuum())
        assert T_apply(z, vacuum()) == e_apply(z, e_apply(z, vacuum())).scale(
            Fraction(1, 2)
        )

    def test_locality(self):
        rng = random.Random(3)
        pool = rand_distinct_scalars(rng, 3)
        for _ in range(8):
            s = rand_form_state(rng, pool)
            z1, z2 = rand_distinct_scalars(rng, 2)
            while any(not (z - c) for z in (z1, z2) for c in pool):
                z1, z2 = rand_distinct_scalars(rng, 2)
            assert b_apply(z1, b_apply(z2, s)) == b_apply(z2, b_apply(z1, s))

    def test_T_commutes_with_b(self):
        rng = random.Random(4)
        pool = [qi(5), qi(0, 2)]
        s = rand_form_state(rng, pool, max_degree=2)
        z1, z2 = qi(1), qi(2)
        assert T_apply(z2, b_apply(z1, s)) == b_apply(z1, T_apply(z2, s))


class TestCommutatorIE:
    def test_on_vacuum(self):
        assert commutator_ie(0, 2) == qi(Fraction(1, 4))

    def test_even_under_swap(self):
        assert commutator_ie(0, 2) == commutator_ie(2, 0)

    def test_scalar_on_degree_three(self):
        rng = random.Random(5)
        s = rand_form_state(rng, [qi(4), qi(-3)], max_degree=3)
        z1, z2 = qi(1), qi(2)
        lhs = i_apply(z1, e_apply(z2, s)) - e_apply(z2, i_apply(z1, s))
        assert lhs == s.scale(1 / (z1 - z2) ** 2)


class TestNPoint:
    def test_two_point(self):
        assert npoint_wick([0, 2]) == qi(Fraction(1, 4))
        assert npoint_operator([0, 2]) == qi(Fraction(1, 4))

    def test_odd_vanishes(self):
        assert npoint_wick([0, 1, 3]) == qi(0)
        assert npoint_operator([5]) == qi(0)

    def test_four_point_agreement(self):
        pts = [qi(0), qi(1), qi(2), qi(3)]
        assert npoint_wick(pts) == npoint_operator(pts)

    def test_six_point_agreement(self):
        rng = random.Random(6)
        pts = rand_distinct_scalars(rng, 6)
        assert npoint_wick(pts) == npoint_operator(pts)

    def test_repeated_point_rejected(self):
        with pytest.raises(DomainError):
            npoint_wick([1, 1])

    def test_degree_bound_keeps_the_full_composition(self):
        rng = random.Random(14)
        for n in range(0, 9):
            for _ in range(2 if n < 8 else 1):
                pts = rand_distinct_scalars(rng, n)
                full = contraction_oracle.boson_npoint_composition(pts)
                assert npoint_operator(pts) == full, pts
                assert npoint_wick(pts) == contraction_oracle.wick_sum(pts) == full, pts

    def test_degree_bound_at_jet_points(self):
        # a moving point among fixed ones: the values are jets
        from chiralis.jets import jet_point

        pts = [jet_point(qi(1, 1), 4), qi(0), qi(3), qi(-2, 1)]
        full = contraction_oracle.boson_npoint_composition(pts)
        assert npoint_operator(pts) == full and not (npoint_wick(pts) - full)


class TestAtomValuesOnce:
    """Count pins: each distinct (atom, order) is evaluated once per field application."""

    @staticmethod
    def _count_evaluations(monkeypatch):
        calls = []
        atom_deriv_eval = geometry.atom_deriv_eval

        def counting(atom, z, k):
            calls.append((atom, k))
            return atom_deriv_eval(atom, z, k)

        monkeypatch.setattr(boson, "atom_deriv_eval", counting)
        return calls

    def test_i_apply_evaluates_each_distinct_atom_once(self, monkeypatch):
        calls = self._count_evaluations(monkeypatch)
        a, b, c = ("pole", qi(0), 2), ("pole", qi(1, 1), 3), ("poly", 2)
        v = (monomial_state([a, a, a, b], qi(2)) + monomial_state([a, b, b, c], qi(0, 1))
             + monomial_state([c, c], qi(-1)) + monomial_state([a]))
        out = i_apply(qi(5), v)
        assert sorted(calls, key=repr) == sorted([(a, 0), (b, 0), (c, 0)], key=repr)
        assert out == contraction_oracle.sym_contract(v, lambda x: -geometry.atom_eval(x, qi(5)))

    def test_T_apply_evaluates_each_distinct_atom_order_once(self, monkeypatch):
        rng = random.Random(15)
        v, z = rand_form_state(rng, [qi(1), qi(0, 2)]), qi(-3)
        iv = i_apply(z, v)
        ii, ee, ei = i_apply(z, iv), e_apply(z, e_apply(z, v)), e_apply(z, iv)
        want = (ii + ee + ei.scale(2)).scale(Fraction(1, 2))
        calls = self._count_evaluations(monkeypatch)
        assert T_apply(z, v) == want
        assert sorted(calls, key=repr) == sorted({(a, 0) for a in v.atoms()}, key=repr)


class TestWickKernel:
    """The one kernel behind b, b^(k), T and the groups of Y', against the
    state-by-state compositions it replaced (``contraction_oracle``)."""

    def test_fields_match_their_compositions(self):
        rng = random.Random(2023)
        pool = [qi(4), qi(-1, 2), qi(Fraction(1, 3))]
        for trial in range(12):
            s = rand_form_state(rng, pool, max_degree=3)
            z = qi(2) if trial % 3 else jet_point(qi(2, -1), 4)
            assert b_apply(z, s) == contraction_oracle.b_deriv_oracle(z, 0, s)
            k = rng.randint(1, 3)
            assert b_deriv_apply(z, k, s) == contraction_oracle.b_deriv_oracle(z, k, s)
            assert T_apply(z, s) == contraction_oracle.T_oracle(z, s)

    def test_groups_match_the_subset_sum(self):
        # 1 to 3 factors, repeated orders, Q(i) and jet points, and states
        # with a pole at the group point, where both routes raise DomainError
        rng = random.Random(2029)
        pool = [qi(k) for k in (-1, 0, 1)] + [qi(0, 1), qi(Fraction(1, 2), -1)]
        fixed = [(0,), (2,), (0, 0), (1, 1), (0, 1), (0, 0, 0), (2, 1, 1), (1, 0, 1)]
        orders_list = fixed + [tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))) for _ in range(30)]
        checked = raised = jets = 0
        for orders in orders_list:
            z = rng.choice(pool)
            if rng.random() < 0.3:
                z, jets = jet_point(z, 3), jets + 1
            s = rand_form_state(rng, pool, max_degree=3)
            try:
                want = contraction_oracle.b_group_oracle(z, orders, s)
            except DomainError:
                with pytest.raises(DomainError):
                    boson._b_group(z, orders, s)
                raised += 1
                continue
            assert boson._b_group(z, orders, s) == want, (orders, z, s)
            checked += 1
        assert checked >= 20 and raised >= 5 and jets >= 5


class TestOpe:
    def test_bb_on_vacuum(self):
        z = qi(1)
        exp = ope_extract("b", "b", z, vacuum(), 0)
        assert exp.coefficient(-2) == vacuum()
        assert exp.coefficient(-1).is_zero()
        assert exp.regular == e_apply(z, e_apply(z, vacuum()))

    def test_bb_singular_matches_wick_kernel(self):
        rng = random.Random(7)
        s = rand_form_state(rng, [qi(4)], max_degree=2)
        z = qi(-2)
        exp = ope_extract("b", "b", z, s, 0)
        assert exp.coefficient(-2) == s

    def test_TT_central_and_field_terms(self):
        z = qi(2)
        exp = ope_extract("T", "T", z, vacuum(), 0)
        assert exp.coefficient(-4) == vacuum().scale(Fraction(1, 2))
        assert exp.coefficient(-3).is_zero()
        assert exp.coefficient(-2) == T_apply(z, vacuum()).scale(2)

    def test_TT_on_state(self):
        rng = random.Random(8)
        s = rand_form_state(rng, [qi(5)], max_degree=2, max_order=2)
        z = qi(1)
        exp = ope_extract("T", "T", z, s, 0)
        assert exp.coefficient(-4) == s.scale(Fraction(1, 2))
        assert exp.coefficient(-2) == T_apply(z, s).scale(2)
        tprime = DerivedField(field_by_name("T"), 1)
        assert exp.coefficient(-1) == tprime.apply(z, s)

    def test_Tb_first_order_is_b_prime(self):
        rng = random.Random(9)
        s = rand_form_state(rng, [qi(4), qi(-1)], max_degree=2)
        z = qi(2)
        exp = ope_extract("T", "b", z, s, 0)
        assert exp.coefficient(-1) == b_deriv_apply(z, 1, s)
        assert exp.coefficient(-2) == b_apply(z, s)

    def test_renormalized_bT_is_cubic_sum(self):
        # :b T: acting on states equals e^3 + 3e^2 i + 3 e i^2 + i^3 over 2...
        # direct statement: 2 :b T: = S with S the cubic sum
        rng = random.Random(10)
        s = rand_form_state(rng, [qi(3)], max_degree=2, max_order=2)
        z = qi(1)
        prod = RenormProduct(field_by_name("b"), field_by_name("T")).apply(z, s)

        def S(state):
            e3 = e_apply(z, e_apply(z, e_apply(z, state)))
            e2i = e_apply(z, e_apply(z, i_apply(z, state))).scale(3)
            ei2 = e_apply(z, i_apply(z, i_apply(z, state))).scale(3)
            i3 = i_apply(z, i_apply(z, i_apply(z, state)))
            return e3 + e2i + ei2 + i3

        assert prod.scale(2) == S(s)


class TestCovariance:
    def test_translation_on_e(self):
        X = VectorField(RatFunc.const(qi(1)))
        assert covariance_check(X, "e", qi(3), vacuum())

    def test_quadratic_on_b(self):
        rng = random.Random(11)
        X = VectorField(U * U)
        s = rand_form_state(rng, [qi(4)], max_degree=2)
        assert covariance_check(X, "b", qi(2), s)

    def test_cubic_fails(self):
        X = VectorField(U * U * U)
        assert not covariance_check(X, "e", qi(2), vacuum())

    def test_one_root_search_per_field(self, monkeypatch):
        # lie_action takes xi's pole parts from the cache that heis_apply and
        # vir_apply share, so repeated checks search xi's poles once
        calls = []
        for module in (exactnum, geometry, boson, symmetry):
            fn = getattr(module, "gauss_rational_roots", None)
            if fn is not None:
                def counting(*args, _fn=fn, **kwargs):
                    calls.append(args)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, "gauss_rational_roots", counting)
        monkeypatch.setattr(symmetry, "_PF_CACHE", {})
        rng = random.Random(89)
        fields = []
        for _ in range(2):
            a, b = rand_distinct_scalars(rng, 2)
            xi = rand_scalar(rng) * U * U + rand_scalar(rng) / (U - a) ** 2 + rand_scalar(rng) / (U - b)
            fields.append(VectorField(xi))
        s = rand_form_state(rng, [qi(4)], max_degree=2)
        for X in fields + fields:
            for name in ("b", "e"):
                covariance_check(X, name, qi(2), s)
        assert len(calls) <= len(fields)


class TestAvatar:
    def test_vacuum(self):
        assert davatar_check(qi(2), vacuum())

    def test_single_function_factor(self):
        s = monomial_state([("pole", qi(1), 1)])
        assert davatar_check(qi(2), s)

    def test_random_states(self):
        rng = random.Random(12)
        for _ in range(10):
            atoms = [
                ("pole", c, rng.randint(1, 3))
                for c in rand_distinct_scalars(rng, rng.randint(1, 3))
            ]
            s = monomial_state(atoms, rand_scalar(rng))
            z = rand_scalar(rng, span=7)
            if not z or any(not (z - a[1]) for a in atoms):
                continue
            assert davatar_check(z, s)

    def test_iota_value(self):
        # iota at z on the single factor 1/(u-c): +1/(z-c)^2
        c = qi(1)
        s = monomial_state([("pole", c, 1)])
        out = iota_apply(qi(2), s)
        assert out.terms == {(): 1 / (qi(2) - c) ** 2}

    def test_eps_matches_boson_after_d(self):
        s = monomial_state([("pole", qi(3), 2)])
        z = qi(-1)
        assert d_isomorphism(eps_apply(z, s)) == e_apply(z, d_isomorphism(s))

    def test_d_isomorphism_matches_generic_substitution(self):
        rng = random.Random(31)
        for _ in range(30):
            s = SymState()
            for _ in range(rng.randint(1, 3)):
                pts = rand_distinct_scalars(rng, 2)
                atoms = [("pole", rng.choice(pts), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
                atoms += [("poly", rng.randint(1, 3))] * rng.randint(0, 2)
                s = s + monomial_state(atoms + atoms[:1], rand_scalar(rng))
            assert d_isomorphism(s) == contraction_oracle.d_isomorphism_oracle(s), s

    def test_d_isomorphism_rejects_a_constant_factor(self):
        s = monomial_state([("pole", qi(1), 2), ("poly", 0)])
        for d in (d_isomorphism, contraction_oracle.d_isomorphism_oracle):
            with pytest.raises(DomainError):
                d(s)


class TestGeneration:
    def test_e_derivatives_generate_atoms(self):
        # every basis monomial with poles in Y arises from creation fields at Y
        z = qi(2)
        got = e_deriv_apply(z, 1, vacuum())
        assert got.terms == {(("pole", z, 3),): qi(-2)}

    def test_membership(self):
        # a degree-2 target with poles in {0, 1} is a combination of
        # creation monomials at those points
        target = monomial_state([("pole", qi(0), 2), ("pole", qi(1), 3)], qi(6))
        build = e_deriv_apply(qi(1), 1, e_apply(qi(0), vacuum()))
        assert build == target.scale(1 / qi(3))
