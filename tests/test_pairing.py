import random
from fractions import Fraction

import pytest

from chiralis import pairing
from chiralis.boson import e_apply, i_apply
from chiralis.exactnum import (
    INFINITY,
    GaussRational,
    RatFunc,
    gauss_rational_roots,
    partial_fractions,
    qi,
    residue_at,
)
from chiralis.geometry import GeometryError
from chiralis.pairing import (
    gram_matrix,
    heis_P_local_apply,
    heis_adjointness_check,
    hermitian_inner_O,
    hermitian_inner_disc,
    in_open_disc,
    leading_minors,
    pair_P,
    positivity_check,
    reflection_kernel_value,
)
from chiralis.pairing import _e_state
from chiralis.sampling import rand_ratfunc, rand_scalar
from chiralis.states import DomainError, SymState, monomial_state, vacuum
from chiralis.symmetry import mode_b

from closed_form_oracle import (
    antiderivative,
    atom_ratfunc,
    dual_mode_apply,
    gram_entry_closed_form,
    rand_disc_point,
    single_form_residue_pairing,
)
from tower_oracle import reflection_kernel_symbolic

U = RatFunc.variable(GaussRational(1))


def dual_mono(*powers):
    return monomial_state([("poly", m) for m in powers])


class TestPairP:
    def test_normalization(self):
        assert pair_P(vacuum(), vacuum()) == qi(1)

    def test_mode_example(self):
        dual = dual_mono(0)  # du
        assert pair_P(dual, mode_b(-1, vacuum())) == qi(-1)

    def test_dual_modes_generate(self):
        # the positive dual generator creates the degree-one polynomial atom
        out = dual_mode_apply(1, vacuum())
        assert out == monomial_state([("poly", 0)], qi(-1))

    def test_degree_mismatch_is_zero(self):
        assert pair_P(dual_mono(0), vacuum()) == qi(0)
        assert pair_P(vacuum(), mode_b(-1, vacuum())) == qi(0)

    def test_peeling_order_independence(self):
        rng = random.Random(61)
        for _ in range(6):
            dual = SymState()
            for _ in range(2):
                dual = dual + monomial_state(
                    [("poly", rng.randint(0, 3)) for _ in range(rng.randint(0, 3))],
                    rand_scalar(rng),
                )
            state = SymState()
            for _ in range(2):
                state = state + monomial_state(
                    [("pole", qi(rng.randint(-2, 2)), rng.randint(2, 4)) for _ in range(rng.randint(0, 3))],
                    rand_scalar(rng),
                )
            assert pair_P(dual, state) == pair_P(dual, state, peel_last=True)

    def test_creation_evaluation_adjointness(self):
        # <chi', creation(z) chi> = <evaluation(z) chi', chi>: the dual-side
        # evaluation carries the dual contour orientation, so the plain
        # derivation appears with a plus sign; checked at sample points
        rng = random.Random(67)
        dual = dual_mono(0, 1)
        state = monomial_state([("pole", qi(2), 2)])
        for z in (qi(1), qi(-3), qi(0, 1)):
            lhs = pair_P(dual, e_apply(z, state))
            rhs = pair_P(i_apply(z, dual), state)
            assert lhs == rhs

    def test_rescaling_invariance(self):
        # transporting both slots along u -> lam u leaves the pairing fixed
        from chiralis.vertexalg import rotate

        lam = qi(Fraction(3, 2))
        dual = dual_mono(0, 2)
        state = monomial_state([("pole", qi(1), 2), ("pole", qi(1), 3)])
        assert pair_P(rotate(lam, dual), rotate(lam, state)) == pair_P(dual, state)

    def test_single_form_residue_realization(self):
        # the contour value agrees with the adjointness-generated pairing
        rng = random.Random(71)
        for _ in range(10):
            k = rng.randint(0, 2)
            dual = monomial_state([("poly", k)], rand_scalar(rng))
            g = rand_ratfunc(rng, max_poles=3)
            atoms = SymState()
            from chiralis.geometry import form_to_atoms

            try:
                expansion = form_to_atoms(g.derivative())
            except Exception:
                continue
            for atom, coeff in expansion.items():
                if atom[0] == "pole":
                    atoms = atoms + monomial_state([atom], coeff)
            if atoms.is_zero() or atoms.degree() != 1:
                continue
            assert single_form_residue_pairing(dual, atoms) == pair_P(dual, atoms)


class TestHermitianO:
    def test_normalization(self):
        assert hermitian_inner_O(vacuum(), vacuum()) == qi(1)

    def test_first_modes(self):
        b1 = mode_b(-1, vacuum())
        b2 = mode_b(-2, vacuum())
        assert hermitian_inner_O(b1, b1) == qi(1)
        assert hermitian_inner_O(b2, b2) == qi(2)
        assert hermitian_inner_O(b1, b2) == qi(0)

    def test_hermitian_symmetry(self):
        rng = random.Random(73)
        for _ in range(6):
            chi = monomial_state(
                [("pole", qi(0), rng.randint(2, 4)) for _ in range(rng.randint(0, 3))],
                rand_scalar(rng),
            )
            psi = monomial_state(
                [("pole", qi(0), rng.randint(2, 4)) for _ in range(rng.randint(0, 3))],
                rand_scalar(rng),
            )
            assert hermitian_inner_O(chi, psi) == hermitian_inner_O(psi, chi).conjugate()

    def test_mode_adjointness(self):
        rng = random.Random(79)
        for l in (1, 2, 3):
            chi = monomial_state([("pole", qi(0), 2), ("pole", qi(0), 3)], rand_scalar(rng))
            psi = monomial_state([("pole", qi(0), l + 1)], rand_scalar(rng))
            lhs = hermitian_inner_O(chi, mode_b(l, psi) if False else mode_b(l, psi))
            # (chi, b_l psi) = (b_{-l} chi, psi)
            assert hermitian_inner_O(chi, mode_b(l, psi)) == hermitian_inner_O(
                mode_b(-l, chi), psi
            )

    def test_disc_inner_product_agrees_on_origin_states(self):
        rng = random.Random(83)
        for _ in range(6):
            chi = monomial_state(
                [("pole", qi(0), rng.randint(2, 4)) for _ in range(rng.randint(0, 2))],
                rand_scalar(rng),
            )
            psi = monomial_state(
                [("pole", qi(0), rng.randint(2, 4)) for _ in range(rng.randint(0, 2))],
                rand_scalar(rng),
            )
            assert hermitian_inner_O(chi, psi) == hermitian_inner_disc(chi, psi)


class TestReflectionKernel:
    def test_closed_form_matches_symbolic_derivative(self):
        # the symbolic derivative costs 0.03 s at (2, 2) and 1.6 s at (6, 6)
        rng = random.Random(89)
        orders = [(rng.randint(2, 4), rng.randint(2, 4)) for _ in range(30)] + [(2, 6), (6, 3)]
        for k, l in orders:
            a, b = rand_disc_point(rng), rand_disc_point(rng)
            assert reflection_kernel_value(a, k, b, l) == reflection_kernel_symbolic(a, k, b, l), (a, k, b, l)

    def test_double_poles_give_the_kernel(self):
        a, b = qi(Fraction(1, 2), Fraction(1, 3)), qi(Fraction(-1, 4))
        assert reflection_kernel_value(a, 2, b, 2) == 1 / (1 - a.conjugate() * b) ** 2

    def test_simple_pole_rejected(self):
        with pytest.raises(DomainError):
            reflection_kernel_value(qi(0), 1, qi(0), 2)


class TestGram:
    def test_single_point_at_origin(self):
        assert gram_entry_closed_form([qi(0)], [qi(0)]) == qi(1)

    def test_mixed_entry(self):
        assert gram_entry_closed_form([qi(0)], [qi(Fraction(1, 2))]) == qi(1)

    def test_degree_mismatch_zero(self):
        assert gram_entry_closed_form([qi(0)], [qi(0), qi(Fraction(1, 3))]) == qi(0)

    def test_closed_form_matches_inner_product(self):
        rng = random.Random(89)
        for count in (1, 2, 3):
            ys = []
            zs = []
            while len(ys) < count:
                p = rand_disc_point(rng)
                if p not in ys:
                    ys.append(p)
            while len(zs) < count:
                p = rand_disc_point(rng)
                if p not in zs:
                    zs.append(p)
            lhs = gram_entry_closed_form(ys, zs)
            rhs = hermitian_inner_disc(_e_state(ys), _e_state(zs))
            assert lhs == rhs

    def test_positivity_single_point(self):
        p = qi(Fraction(1, 2))
        _, matrix = gram_matrix([p], 1)
        minors = leading_minors(matrix)
        expected = 1 / (1 - p.norm()) ** 2
        assert matrix[1][1] == expected
        assert all(m.re > 0 and m.im == 0 for m in minors)

    def test_positivity_two_points(self):
        assert positivity_check([qi(Fraction(1, 3)), qi(0, Fraction(1, 2))], 1)

    def test_positivity_random_configurations(self):
        rng = random.Random(97)
        for _ in range(3):
            pts = []
            while len(pts) < 3:
                p = rand_disc_point(rng)
                if p not in pts:
                    pts.append(p)
            assert positivity_check(pts, 2)

    def test_point_outside_disc_rejected(self):
        with pytest.raises(DomainError):
            gram_matrix([qi(2)], 1)

    def test_repeated_point_rejected(self):
        with pytest.raises(DomainError):
            gram_matrix([qi(0), qi(0)], 1)


class TestPositivityGuards:
    """``positivity_check`` rejects each way a Gram matrix can fail to be
    positive definite.  ``gram_matrix`` admits only distinct points inside
    the disc, whose matrices pass, so the failing matrices are patched in."""

    MATRICES = {
        "zero-minor": [[2, 1], [1, Fraction(1, 2)]],
        "zero-first-minor": [[0, 0], [0, 1]],
        "negative-minor": [[1, 2], [2, 1]],
        "non-real-minor": [[qi(1, 1), 0], [0, 1]],
        "non-hermitian": [[1, 1], [0, 1]],
        "non-hermitian-complex": [[1, qi(0, 1)], [qi(0, 1), 2]],
    }

    def _check(self, monkeypatch, rows):
        matrix = [[GaussRational.coerce(x) for x in row] for row in rows]
        monkeypatch.setattr(pairing, "gram_matrix", lambda points, degree: ([(), ()], matrix))
        return positivity_check([qi(0)], 1)

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_rejected(self, monkeypatch, name):
        assert self._check(monkeypatch, self.MATRICES[name]) is False

    def test_positive_definite_accepted(self, monkeypatch):
        # minors 2 and 2 - i(-i) = 1
        assert self._check(monkeypatch, [[2, qi(0, 1)], [qi(0, -1), 1]]) is True

    def test_non_real_minor_is_not_positive(self):
        # the non-hermitian matrix alone fails positivity_check; the verdict's
        # "positive", which `chiralis gram` reports, must fail on its own
        minors, hermitian, positive = pairing._gram_verdict([[qi(1, 1), qi(0)], [qi(0), qi(1)]])
        assert minors == [qi(1, 1), qi(1, 1)]
        assert (hermitian, positive) == (False, False)


class TestHeisAdjointness:
    def test_polynomial(self):
        assert heis_adjointness_check(U)

    def test_inverse_square(self):
        assert heis_adjointness_check(1 / (U * U))

    def test_constant(self):
        assert heis_adjointness_check(RatFunc.const(qi(1)))

    def test_random(self):
        rng = random.Random(101)
        for _ in range(4):
            assert heis_adjointness_check(rand_ratfunc(rng, max_poles=2))


def heis_P_local_oracle(phi, dual):
    """The P-local operator through residue_at and a fresh partial-fraction split."""
    out = dual.contract(lambda atom: residue_at(phi * atom_ratfunc(atom), INFINITY))
    for m, coeff in enumerate(partial_fractions(phi).polynomial.coeffs):
        if m >= 1 and coeff:
            out = out + dual.multiply_atom(("poly", m - 1), -coeff * m)
    return out


def single_form_oracle(dual_form, form):
    """The single-form pairing through antiderivative, a root search and residue_at."""
    total = qi(0)
    for (datom,), dc in dual_form.terms.items():
        for (atom,), c in form.terms.items():
            prod = antiderivative(atom_ratfunc(datom)) * atom_ratfunc(atom)
            for root in gauss_rational_roots(prod.den):
                total = total + dc * c * residue_at(prod, root)
    return total


class TestKnownPolePairings:
    def test_P_local_matches_oracle(self):
        rng = random.Random(1307)
        duals = [vacuum(), dual_mono(0), dual_mono(1, 3), dual_mono(0, 0, 2)]
        for _ in range(12):
            phi = rand_ratfunc(rng, max_poles=2)
            if rng.random() < 0.5:
                phi = phi + rand_scalar(rng) * U ** rng.randint(1, 3)
            for d in duals:
                d = d.scale(rand_scalar(rng))
                assert heis_P_local_apply(phi, d) == heis_P_local_oracle(phi, d), (phi, d)

    def test_single_form_matches_oracle(self):
        rng = random.Random(1309)
        pool = [qi(0), qi(2), qi(1, -1), qi(Fraction(1, 2), 1)]
        for _ in range(40):
            atoms = []
            for _ in range(2):
                if rng.random() < 0.3:
                    atoms.append(("poly", rng.randint(0, 3)))
                else:
                    atoms.append(("pole", rng.choice(pool), rng.randint(2, 4)))
            dual = monomial_state([atoms[0]], rand_scalar(rng))
            form = monomial_state([atoms[1]], rand_scalar(rng))
            assert single_form_residue_pairing(dual, form) == single_form_oracle(dual, form), atoms
        with pytest.raises(GeometryError):
            single_form_residue_pairing(monomial_state([("pole", qi(1), 1)]), monomial_state([("poly", 0)]))


def _cofactor_det(rows):
    """Determinant over Fraction by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * a * _cofactor_det(minor)
    return total


class TestLeadingMinorsPastAZeroPivot:
    def test_swap_matrix(self):
        assert leading_minors([[qi(0), qi(1)], [qi(1), qi(0)]]) == [qi(0), qi(-1)]

    def test_seeded_forced_zero_pivot(self):
        rng = random.Random(131)
        for trial in range(40):
            n = rng.randint(2, 5)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            # make the leading k-block singular, so that pivot k is zero
            k = rng.randrange(n)
            if k == 0:
                rows[0][0] = Fraction(0)
            else:
                t = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                rows[k][:k + 1] = [t * a for a in rows[k - 1][:k + 1]]
            minors = leading_minors([[GaussRational(a) for a in row] for row in rows])
            expected = [_cofactor_det([row[:m] for row in rows[:m]]) for m in range(1, n + 1)]
            assert expected[k] == 0
            assert minors == [GaussRational(d) for d in expected], (trial, rows)
