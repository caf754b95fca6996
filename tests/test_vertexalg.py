import random
from fractions import Fraction

import pytest

from chiralis.boson import DerivedField, RenormProduct, b_apply, e_apply, e_deriv_apply, field_by_name
from chiralis.exactnum import GaussRational, qi
from chiralis.states import DomainError, SymState, monomial_state, vacuum
from chiralis.vertexalg import (
    Y_comm,
    Y_prime,
    axiom_suite,
    b_basis_coordinates,
    b_basis_vector,
    generation_check,
    rotate,
    sing_support,
    structure,
    structure_derivative,
    translate,
    translation_generator,
)
from chiralis.boson import _b_group
from chiralis.vertexalg import _rand_vertex_state


def _group_field_oracle(parts):
    """The left-nested normal-ordered product of b-derivative fields, built
    from ``RenormProduct`` and ``DerivedField`` (an operator product expanded
    at a moving point per factor): the generic route that the Wick kernel
    ``boson._b_group`` replaces, for the parts p = k + 1 of Y''s labels."""
    b = field_by_name("b")
    field = DerivedField(b, parts[-1] - 1) if parts[-1] > 1 else b
    for p in reversed(parts[:-1]):
        left = DerivedField(b, p - 1) if p > 1 else b
        field = RenormProduct(left, field)
    return field


def _orders(parts):
    return tuple(p - 1 for p in parts)


class TestGroupActions:
    def test_translate_moves_pole(self):
        s = monomial_state([("pole", qi(0), 2)])
        assert translate(qi(1), s) == monomial_state([("pole", qi(1), 2)])

    def test_rotation_scales_modes(self):
        # the third creation mode scales by lam^3
        s = monomial_state([("pole", qi(0), 4)], qi(-3))  # d(u^-3)
        assert rotate(qi(2), s) == s.scale(qi(8))

    def test_group_laws(self):
        rng = random.Random(3)
        s = monomial_state([("pole", qi(1), 2), ("pole", qi(-1), 3)])
        a, b = qi(2), qi(Fraction(1, 3))
        assert translate(a, translate(b, s)) == translate(a + b, s)
        lam = qi(Fraction(5, 2))
        lhs = rotate(lam, translate(a, rotate(1 / lam, s)))
        assert lhs == translate(lam * a, s)

    def test_jet_expansion_needs_affine_poles(self):
        from chiralis.jets import jet_point
        from chiralis.vertexalg import jet_parameter_expansion

        t = jet_point(qi(0), 3)
        with pytest.raises(DomainError):
            jet_parameter_expansion(monomial_state([("pole", t * t + 1, 2)]), 1)

    def test_sing_support(self):
        v = e_apply(qi(0), e_apply(qi(1), vacuum()))
        assert sing_support(v) == {qi(0), qi(1)}

    def test_translation_exponentiates(self):
        # k-fold lowering application matches the k-th Taylor coefficient
        s = monomial_state([("pole", qi(0), 2)])
        amount = qi(3)
        moved = translate(amount, s)
        from chiralis.exactnum import QI_ONE
        from chiralis.jets import jet_point
        from chiralis.vertexalg import jet_parameter_expansion
        from tower_field import RatFunc
        from tower_oracle import parameter_expansion, translate_tower

        h = RatFunc.variable(QI_ONE)
        shifted = translate_tower(amount + h, s)
        buckets = parameter_expansion(shifted, 4)
        jet_buckets = jet_parameter_expansion(translate(jet_point(amount, 5), s), 4)
        gen = s
        fact = 1
        for k in range(5):
            coeff = buckets.get(k, SymState())
            expected = translate(amount, gen).scale(Fraction(1, fact))
            assert coeff == expected
            assert jet_buckets.get(k, SymState()) == expected
            gen = translation_generator(gen)
            fact *= k + 1
        assert set(jet_buckets) == set(buckets)


class TestYComm:
    def test_identity(self):
        psi = e_apply(qi(3), vacuum())
        assert Y_comm(vacuum(), qi(5), psi) == psi

    def test_creation(self):
        v = e_apply(qi(0), e_apply(qi(1), vacuum()))
        assert Y_comm(v, qi(0), vacuum()) == v
        assert Y_comm(v, qi(5), vacuum()) == translate(qi(5), v)

    def test_collision_rejected(self):
        v = e_apply(qi(0), vacuum())
        psi = e_apply(qi(5), vacuum())
        with pytest.raises(DomainError):
            Y_comm(v, qi(5), psi)


class TestBBasis:
    def test_round_trip(self):
        rng = random.Random(11)
        pool = [qi(0), qi(1), qi(-2)]
        for _ in range(8):
            s = SymState()
            for _ in range(rng.randint(1, 3)):
                atoms = [
                    ("pole", rng.choice(pool), rng.randint(2, 4))
                    for _ in range(rng.randint(0, 3))
                ]
                s = s + monomial_state(atoms, qi(rng.randint(-3, 3)))
            if s.is_zero():
                continue
            coords = b_basis_coordinates(s)
            acc = SymState()
            for label, c in coords.items():
                acc = acc + b_basis_vector(label).scale(c)
            assert acc == s

    def test_degree_one_agrees_with_creation(self):
        # single field application equals single creation application
        w = b_apply(qi(2), vacuum())
        assert Y_prime(w, qi(3), vacuum()) == translate(qi(3), w)


class TestYPrime:
    def test_identity_and_creation(self):
        psi = e_apply(qi(3), vacuum())
        v = e_apply(qi(0), e_apply(qi(0), vacuum()))
        assert Y_prime(vacuum(), qi(5), psi) == psi
        assert Y_prime(v, qi(0), vacuum()) == v

    def test_basis_vector_recreated(self):
        label = ((qi(0), (2, 1)),)
        v = b_basis_vector(label)
        assert Y_prime(v, qi(0), vacuum()) == v

    @pytest.mark.parametrize("target_order", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2])
    def test_translate_onto_a_target_pole_rejected(self, order, target_order):
        # a pole of the state at 0, moved by 1 onto the target's pole at 1:
        # the Wick kernel finds the collision before it applies a field
        state = monomial_state([("pole", qi(0), order)])
        target = monomial_state([("pole", qi(1), target_order)])
        with pytest.raises(DomainError):
            Y_prime(state, qi(1), target)


class TestWickGroups:
    def test_matches_the_normal_ordered_product(self):
        # 2 and 3 parts, repeated parts, and states with poles at the group point,
        # where both routes raise DomainError
        rng = random.Random(2011)
        pool = [qi(k) for k in (-1, 0, 1, 2)] + [qi(0, 1), qi(Fraction(1, 2), -1)]
        fixed = [(1, 1), (2, 2), (1, 1, 1), (3, 2, 2), (2, 1, 2)]
        parts_list = fixed + [tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3))) for _ in range(35)]
        checked = raised = 0
        for parts in parts_list:
            z = rng.choice(pool)
            state = _rand_vertex_state(rng, pool, max_degree=3)
            try:
                want = _group_field_oracle(list(parts)).apply(z, state)
            except DomainError:
                with pytest.raises(DomainError):
                    _b_group(z, _orders(parts), state)
                raised += 1
                continue
            assert _b_group(z, _orders(parts), state) == want, (parts, z, state)
            checked += 1
        assert checked >= 20 and raised >= 5

    def test_one_part_is_the_derivative_field(self):
        state = e_apply(qi(1), e_apply(qi(2), vacuum()))
        for p in (1, 2, 3):
            assert _b_group(qi(0), (p - 1,), state) == _group_field_oracle([p]).apply(qi(0), state)


class TestDerivativeProperty:
    def test_both_structures(self):
        v = e_apply(qi(0), e_apply(qi(1), vacuum()))
        psi = e_deriv_apply(qi(3), 1, vacuum())
        for Y in (Y_comm, Y_prime):
            lhs = Y(translation_generator(v), qi(5), psi)
            rhs = structure_derivative(Y, v, qi(5), psi)
            assert lhs == rhs

    def test_three_part_group(self):
        # Y' applies the group :b b' b': at the moving point 5 + t, by Wick's rule
        v = monomial_state([("pole", qi(0), 2), ("pole", qi(0), 3), ("pole", qi(0), 3)], qi(2))
        v = v + monomial_state([("pole", qi(1), 2)])
        psi = e_deriv_apply(qi(3), 1, vacuum())
        assert ((qi(0), (2, 2, 1)),) in b_basis_coordinates(v)
        lhs = Y_prime(translation_generator(v), qi(5), psi)
        assert lhs == structure_derivative(Y_prime, v, qi(5), psi)


class TestAxiomSuite:
    def test_comm_structure_passes(self):
        rep = axiom_suite("comm", seed=7, degree=2, samples=8)
        assert all(entry["passed"] for entry in rep.values()), rep

    def test_prime_structure_passes(self):
        rep = axiom_suite("prime", seed=7, degree=2, samples=6)
        assert all(entry["passed"] for entry in rep.values()), rep

    def test_deterministic(self):
        a = axiom_suite("comm", seed=13, degree=2, samples=4)
        b = axiom_suite("comm", seed=13, degree=2, samples=4)
        assert a == b

    def test_structure_names(self):
        # the names of the CLI's --structure choices, and no others
        assert structure("comm") is Y_comm and structure("prime") is Y_prime
        for alias in ("Y", "Y_comm", "Y'", "Y_prime"):
            with pytest.raises(ValueError, match="unknown vertex structure"):
                structure(alias)


class TestGeneration:
    def test_reaches_translated_mode(self):
        target = translate(qi(2), monomial_state([("pole", qi(0), 2)], qi(-1)))
        rep = generation_check("comm", [qi(2)], 2, target)
        assert rep["within_budget"]

    def test_vacuum_reached(self):
        rep = generation_check("comm", [qi(1)], 1, vacuum())
        assert rep["within_budget"]

    def test_budget_exceeded_reported(self):
        target = monomial_state([("pole", qi(2), 9)])
        rep = generation_check("comm", [qi(2)], 2, target)
        assert not rep["within_budget"]

    def test_prime_structure_generates(self):
        target = translate(qi(1), monomial_state([("pole", qi(0), 2)], qi(-1)))
        rep = generation_check("prime", [qi(1)], 2, target)
        assert rep["within_budget"]
