import random
from fractions import Fraction

import pytest

from chiralis.exactnum import GaussRational, qi
from chiralis.lattice import (
    LatticeScalar,
    LatticeState,
    LatticeTheory,
    SectionClass,
    du_power_balance,
)
from chiralis.geometry import atom_sort_key
from chiralis.sampling import rand_scalar
from chiralis.states import DomainError


def rescaled_representative(th, state, t):
    """The same states written against the rescaled section t*sigma."""
    t = LatticeScalar(th.N, t)
    return LatticeState(th.N, {key: coeff * t ** (th.N * key[1].grade) for key, coeff in state.terms.items()})


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


class TestSections:
    def test_grade_is_minus_degree(self):
        assert SectionClass().grade == 0
        assert SectionClass([(qi(1), 1)]).grade == -1
        assert SectionClass([(qi(1), 1), (qi(2), -1)]).grade == 0
        assert SectionClass([(qi(0), -3)]).grade == 3

    def test_values(self):
        sec = SectionClass([(qi(1), 2), (qi(-1), -1)])
        z = qi(3)
        assert sec.value_at(z) == (z - 1) ** 2 / (z + 1)
        assert sec.dlog_value(z) == 2 / (z - 1) - 1 / (z + 1)

    def test_root_merging(self):
        sec = SectionClass([(qi(1), 2), (qi(1), -2)])
        assert sec == SectionClass()


class TestFields:
    def test_iota_on_trivial_section(self):
        th = LatticeTheory(1)
        assert th.iota(qi(3), th.vacuum(SectionClass())).is_zero()

    def test_iota_reads_log_derivative(self):
        th = LatticeTheory(1)
        sec = SectionClass([(qi(1), 1)])
        out = th.iota(qi(3), th.vacuum(sec))
        assert out.terms == {
            ((), sec, 2): LatticeScalar(1, -1 / (qi(3) - 1))
        }

    def test_iota_bracket_rule(self):
        # [iota(z), alpha] = -d alpha(z) = +1/(z-c)^2 on the simple pole
        th = LatticeTheory(1)
        sec = SectionClass()
        z, c = qi(3), qi(0)
        s = th.epsilon(c, th.vacuum(sec))
        lhs = th.iota(z, s) - th.epsilon(c, th.iota(z, th.vacuum(sec)))
        assert lhs.terms == {((), sec, 4): LatticeScalar(1, 1 / (z - c) ** 2)}

    def test_iota_at_root_rejected(self):
        th = LatticeTheory(1)
        sec = SectionClass([(qi(1), 1)])
        with pytest.raises(DomainError):
            th.iota(qi(1), th.vacuum(sec))

    def test_flat_plus_ledger(self):
        # grade 0 vacuum: the du power moves by -2N per the exponent law
        for N in (1, 2, 4):
            th = LatticeTheory(N)
            out = th.flat_plus(1, qi(2), th.vacuum(SectionClass()))
            ((mon, sec, tdu),) = out.terms
            assert sec.roots == ((qi(2), -1),)
            assert sec.grade == 1
            assert tdu == 2 * du_power_balance(N, 0, 1)

    def test_flat_minus_trivial_section(self):
        th = LatticeTheory(1)
        out = th.flat_minus(1, qi(2), th.vacuum(SectionClass()))
        ((mon, sec, tdu),) = out.terms
        assert sec == SectionClass()
        assert out.terms[(mon, sec, tdu)] == LatticeScalar(1, qi(1))

    def test_flat_plus_collision_rejected(self):
        th = LatticeTheory(1)
        sec = SectionClass([(qi(2), 1)])
        with pytest.raises(DomainError):
            th.flat_plus(1, qi(2), th.vacuum(sec))

    def test_iterated_twists_commute(self):
        th = LatticeTheory(2)
        s = th.vacuum(SectionClass())
        a = th.flat_plus(1, qi(0), th.flat_plus(2, qi(1), s))
        b = th.flat_plus(2, qi(1), th.flat_plus(1, qi(0), s))
        assert a == b


class TestVertex:
    def test_grade_additivity(self):
        rng = random.Random(3)
        for N in (1, 2, 4):
            th = LatticeTheory(N)
            sec = SectionClass([(qi(1), rng.randint(-2, 2))])
            s = th.vacuum(sec)
            for lam in (-2, -1, 1, 2):
                out = th.vertex(lam, qi(5), s)
                assert {key[1].grade for key in out.terms} == {sec.grade + lam}

    def test_du_ledger_after_vertex(self):
        for N in (1, 2, 4):
            th = LatticeTheory(N)
            sec = SectionClass([(qi(1), 1)])
            grade = sec.grade
            for lam in (-1, 1, 2):
                out = th.vertex(lam, qi(5), th.vacuum(sec))
                ((_, _, tdu),) = [k for k in out.terms]
                assert tdu == N * lam + 2 * du_power_balance(N, grade, lam)

    def test_scale_independence(self):
        th = LatticeTheory(4)
        state = th.monomial([("pole", qi(0), 1)], SectionClass([(qi(1), 2)])).scale(qi(3))
        for t in (qi(Fraction(2, 3)), qi(0, 1), qi(-2)):
            lhs = th.vertex(1, qi(5), state)
            rhs = th.vertex(1, qi(5), rescaled_representative(th, state, t), scale=t)
            assert lhs == rhs

    def test_j_commutes_with_vertex(self):
        rng = random.Random(7)
        for N in (1, 2):
            th = LatticeTheory(N)
            sec = SectionClass([(qi(1), rng.choice((-2, -1, 1)))])
            s = th.monomial([("pole", qi(0), rng.randint(1, 2))], sec).scale(rand_scalar(rng))
            zV, zj = qi(2), qi(-3)
            lam = rng.choice((-1, 1, 2))
            a = th.j(zj, th.vertex(lam, zV, s))
            b = th.vertex(lam, zV, th.j(zj, s))
            assert a == b


    def test_output_monomials_stay_sorted(self):
        # flat_minus keys each peeled piece without re-sorting it
        rng = random.Random(11)
        pool = [("pole", qi(Fraction(1, 2), -1), 1), ("pole", qi(Fraction(1, 2), -1), 2),
                ("pole", qi(-1, Fraction(1, 3)), 1), ("pole", qi(Fraction(2, 5)), 3), ("poly", 2)]
        for _ in range(12):
            th = LatticeTheory(rng.choice((1, 2, 3)))
            sec = SectionClass([(qi(4, 1), rng.choice((-1, 1, 2)))])
            state = th.vacuum(sec).scale(0)
            for _ in range(3):
                atoms = rng.choices(pool, k=rng.randint(3, 5))
                atoms.append(atoms[0])  # a repeated atom
                state = state + th.monomial(atoms, sec).scale(rand_scalar(rng) or qi(1))
            lam, z = rng.choice((-2, -1, 1, 2)), qi(Fraction(rng.randint(5, 9), 7), rng.randint(-2, 2))
            for out in (th.flat_minus(lam, z, state), th.vertex(lam, z, state)):
                monomials = [mon for mon, _, _ in out.terms]
                assert any(len(mon) >= 3 and len(set(mon)) < len(mon) for mon in monomials)
                for mon in monomials:
                    assert mon == tuple(sorted(mon, key=atom_sort_key))


class TestSignRule:
    def test_full_table(self):
        rng = random.Random(11)
        for N in (1, 2, 4):
            th = LatticeTheory(N)
            for l1 in range(-2, 3):
                for l2 in range(-2, 3):
                    if l1 == 0 or l2 == 0:
                        continue
                    pts = []
                    while len(pts) < 2:
                        p = rand_scalar(rng, span=3)
                        if p not in pts:
                            pts.append(p)
                    s = th.vacuum(SectionClass())
                    assert th.sign_rule_check(l1, l2, pts[0], pts[1], s)

    def test_fermionic_case(self):
        th = LatticeTheory(1)
        s = th.vacuum(SectionClass())
        z1, z2 = qi(0), qi(3)
        a = th.vertex(-1, z2, th.vertex(1, z1, s))
        b = th.vertex(1, z1, th.vertex(-1, z2, s))
        assert a == b.scale(-1)


class TestZeroMode:
    def test_grade_readout(self):
        th = LatticeTheory(1)
        assert th.zero_mode_check(SectionClass()) == qi(0)
        assert th.zero_mode_check(SectionClass([(qi(1), 1)])) == qi(-1)
        assert th.zero_mode_check(SectionClass([(qi(1), 1), (qi(2), -1)])) == qi(0)

    def test_random_sections(self):
        rng = random.Random(13)
        th = LatticeTheory(1)
        for _ in range(10):
            roots = []
            for _ in range(rng.randint(0, 3)):
                c = rand_scalar(rng, span=3)
                if all(c != r for r, _ in roots):
                    roots.append((c, rng.choice((-2, -1, 1, 2))))
            sec = SectionClass(roots)
            assert th.zero_mode_check(sec) == qi(sec.grade)
