import random
from fractions import Fraction

import pytest

from chiralis.exactnum import GaussRational, Poly, RatFunc, qi
from chiralis.geometry import (
    Form,
    GeometryError,
    Kernel,
    VectorField,
    antiderivative,
    atom_deriv_eval,
    atom_eval,
    atom_ratfunc,
    bergman_genus0,
    form_to_atoms,
    interior_product,
    is_second_kind,
    kernel_by_name,
    lie_derivative,
    mobius_pushforward,
    szego_genus0,
)
from chiralis.jets import jet_point
from chiralis.sampling import rand_ratfunc, rand_scalar

import tower_field
from vir_oracle import (
    _spec_inner,
    bifunction_atom_matrix,
    inner_variable,
    lie_derivative_bidiff,
    omega_bifunction,
    omega_x_bifunction,
    outer_variable,
    subst,
    swap_bifunction,
)

U = RatFunc.variable(GaussRational(1))


def form(coeff):
    return Form(coeff)


class TestSecondKind:
    def test_double_pole_is_second_kind(self):
        assert is_second_kind(1 / ((U - 2) * (U - 2)))

    def test_simple_pole_is_not(self):
        assert not is_second_kind(1 / (U - 2))

    def test_polynomial_is_second_kind(self):
        assert is_second_kind(U)


class TestAntiderivative:
    def test_inverse_square(self):
        w = qi(5)
        f = -1 / ((U - w) * (U - w))
        g = antiderivative(f)
        assert g.derivative() == f
        assert g == 1 / (U - w)

    def test_polynomial(self):
        assert antiderivative(U) == U * U / 2

    def test_simple_pole_rejected(self):
        with pytest.raises(GeometryError):
            antiderivative(1 / (U - 1))

    def test_round_trip_mod_constant(self):
        rng = random.Random(11)
        for _ in range(10):
            g = rand_ratfunc(rng, max_poles=2)
            f = g.derivative()
            h = antiderivative(f)
            assert (g - h).derivative() == RatFunc.const(qi(0))


class TestDerivations:
    def test_lie_translation(self):
        X = VectorField(RatFunc.const(qi(1)))
        out = lie_derivative(X, form(U * U))
        assert out.coeff == 2 * U

    def test_interior(self):
        X = VectorField(U)
        assert interior_product(X, form(1 / (U * U))) == 1 / U

    def test_lie_preserves_second_kind(self):
        rng = random.Random(13)
        for _ in range(10):
            alpha = rand_ratfunc(rng, max_poles=2).derivative()
            X = VectorField(rand_ratfunc(rng, max_poles=1))
            assert is_second_kind(lie_derivative(VectorField(X.xi), Form(alpha)).coeff)

    def test_cartan_relation(self):
        # L_X = d i_X + i_X d on forms (for functions, d yields a form)
        rng = random.Random(17)
        for _ in range(10):
            alpha = Form(rand_ratfunc(rng, max_poles=2).derivative())
            X = VectorField(rand_ratfunc(rng, max_poles=1))
            lhs = lie_derivative(X, alpha).coeff
            f = interior_product(X, alpha)
            rhs = f.derivative()  # d(i_X alpha) hatted; i_X(d alpha)=0 on forms
            assert lhs == rhs


class TestOmegaX:
    def test_regular_field_gives_zero(self):
        X = VectorField(RatFunc(Poly([qi(3), qi(-2), qi(1)])))
        assert omega_x_bifunction(X).is_zero()

    def test_matches_lie_derivative_oracle(self):
        X = VectorField(U * U * U)
        direct = omega_x_bifunction(X)
        oracle = lie_derivative_bidiff(X, omega_bifunction()) / (-2)
        assert direct == oracle

    def test_diagonal_vanishing_order_two(self):
        X = VectorField(U * U * U)
        x, w = outer_variable(), inner_variable()
        xi1 = subst(X.xi, x)
        xi2 = subst(X.xi, w)
        xi1p = subst(X.xi.derivative(), x)
        xi2p = subst(X.xi.derivative(), w)
        numerator = 2 * (xi1 - xi2) - (xi1p + xi2p) * (x - w)
        diag_scalar = tower_field.RatFunc(tower_field.Poly([qi(0), qi(1)]))
        m, coeffs = tower_field.local_expansion(numerator, diag_scalar, 1)
        assert m == 0
        assert not coeffs[0]
        assert not coeffs[1]

    def test_symmetric_and_second_kind(self):
        rng = random.Random(23)
        for _ in range(4):
            c = rand_scalar(rng, span=2)
            xi = 1 / (U - c) if rng.random() < 0.5 else 1 / ((U - c) * (U - c))
            X = VectorField(xi)
            F = omega_x_bifunction(X)
            assert swap_bifunction(F) == F
            matrix = bifunction_atom_matrix(F)
            for (a1, a2), coeff in matrix.items():
                assert a1[0] != "pole" or a1[2] >= 2
                assert a2[0] != "pole" or a2[2] >= 2


class TestMobius:
    def test_identity(self):
        alpha = form(1 / (U * U))
        out = mobius_pushforward((1, 0, 0, 1), alpha)
        assert out == alpha

    def test_translation_moves_pole(self):
        alpha = form(1 / (U * U))
        out = mobius_pushforward((1, 1, 0, 1), alpha)
        assert out.coeff == 1 / ((U - 1) * (U - 1))

    def test_inversion_on_monomials(self):
        # oracle: substitute u -> 1/u with Jacobian -1/u^2
        for m in range(4):
            alpha = form(U ** m)
            out = mobius_pushforward((0, 1, 1, 0), alpha)
            assert out.coeff == -(U ** (-m - 2))

    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            mobius_pushforward((1, 2, 2, 4), form(U))


class TestKernels:
    def test_builtins_validate(self):
        bergman_genus0()
        szego_genus0()
        assert kernel_by_name("bergman_genus0").parity == 1

    def test_bergman_section(self):
        k = bergman_genus0()
        sec = k.section_at(qi(2))
        assert sec == 1 / ((U - 2) * (U - 2))

    def test_szego_is_odd(self):
        k = szego_genus0()
        assert k.value(qi(0), qi(1)) == qi(-1)
        assert k.value(qi(1), qi(0)) == qi(1)

    def test_order_below_one_rejected(self):
        for order in (0, -2):
            with pytest.raises(GeometryError):
                Kernel("regular", order)

    def test_matches_bivariate_tower(self):
        # the closed form against the tower it replaces: parity is the
        # exchange symmetry, and section and value substitute u2 and u1
        x, w = outer_variable(), inner_variable()
        for k in (1, 2, 3, 4):
            tower = 1 / (x - w) ** k
            kernel = Kernel("order", k)
            assert kernel.diagonal_order == k
            assert swap_bifunction(tower) == kernel.parity * tower
            for z1, z2 in ((qi(0), qi(1)), (qi(2, -1), qi(Fraction(1, 3), 2))):
                section = RatFunc(*(Poly([_spec_inner(c, z2) for c in p.coeffs]) for p in (tower.num, tower.den)))
                assert kernel.section_at(z2) == section
                assert kernel.value(z1, z2) == subst(section, z1)


class TestAtoms:
    def test_form_expansion_round_trip(self):
        rng = random.Random(31)
        for _ in range(10):
            g = rand_ratfunc(rng, max_poles=2)
            f = g.derivative()
            atoms = form_to_atoms(f)
            total = RatFunc.const(qi(0))
            for atom, coeff in atoms.items():
                total = total + coeff * atom_ratfunc(atom)
            assert total == f

    def test_zeroth_derivative_is_the_value(self, monkeypatch):
        # k = 0 returns the value itself: no unit factors, so no more
        # GaussRational constructions than atom_eval
        rng = random.Random(37)
        built = []
        init = GaussRational.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GaussRational, "__init__", counting)
        for trial in range(20):
            atom = ("pole", rand_scalar(rng), rng.randint(1, 4)) if trial % 4 else ("poly", rng.randint(0, 3))
            z = rand_scalar(rng)
            if trial % 3 == 0:
                z = jet_point(z, 4)
            if atom[0] == "pole" and not (z - atom[1]):
                continue
            del built[:]
            value = atom_eval(atom, z)
            evals = len(built)
            del built[:]
            deriv = atom_deriv_eval(atom, z, 0)
            assert len(built) == evals and deriv == value, (atom, z)
