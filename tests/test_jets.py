import random
from fractions import Fraction
from math import comb

import pytest

from chiralis.boson import expand_at_generic_point, field_by_name, ope_extract
from chiralis.current import current_expand_at_generic_point, current_vacuum, sl2_algebra
from chiralis.exactnum import GaussRational, qi
from chiralis.jets import Jet, JetPrecisionError, jet_point, moved_expansion, with_jet_retry
from chiralis.sampling import rand_scalar
from chiralis.states import monomial_state, vacuum
from chiralis.vertexalg import Y_prime, structure_derivative


class TestEquality:
    def test_precision_is_part_of_equality(self):
        low, high = jet_point(2, 2), jet_point(2, 3)
        assert low != high
        assert not (low - high) and not (high - low)
        assert len({low, high}) == 2
        cache = {low: "prec 2"}
        assert high not in cache
        cache[high] = "prec 3"
        assert cache[jet_point(2, 2)] == "prec 2"
        assert cache[jet_point(2, 3)] == "prec 3"

    def test_equal_jets_are_one_key(self):
        rng = random.Random(5)
        for _ in range(20):
            z, prec = rand_scalar(rng), rng.randint(1, 6)
            a = 1 / (jet_point(z, prec) - 7)
            b = 1 / (jet_point(z, prec) - 7)
            assert a is not b and a == b and hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_never_equal_to_a_scalar(self):
        assert jet_point(0, 3) * 0 + 2 != 2
        assert jet_point(0, 3) * 0 + 2 != qi(2)
        assert not (jet_point(qi(2), 1) - qi(2))

    def test_truncated_comparison(self):
        t = jet_point(0, 4)
        assert not (1 / (1 - t) - (1 + t + t * t + t ** 3))
        assert 1 / (1 - t) - (1 + t + t * t)
        assert not (jet_point(qi(1), 3) - jet_point(qi(1), 5))
        assert jet_point(qi(1), 3) != jet_point(qi(1), 5)

    def test_jets_do_not_nest(self):
        # a jet point is rejected wherever an expansion would put a jet inside a jet
        w = jet_point(qi(1), 3)
        state = monomial_state([("pole", qi(0), 2)])
        calls = (
            lambda: jet_point(w, 2),
            lambda: ope_extract("b", "b", w, state, 0),
            lambda: expand_at_generic_point(field_by_name("b"), w, state, 0),
            lambda: current_expand_at_generic_point(sl2_algebra(), "e", w, current_vacuum(), 0),
            lambda: structure_derivative(Y_prime, state, w, vacuum()),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call()


class TestCanonicalCoefficients:
    def test_trailing_zeros_are_dropped(self):
        # (1/2, 1/2, 0) and (1/2, 1/2): one value, one precision, one key
        t = jet_point(0, 3)
        a = (jet_point(1, 3) + t * t - t * t) / 2
        b = jet_point(1, 3) * Fraction(1, 2)
        assert a == b and hash(a) == hash(b) and a.coeffs == b.coeffs
        assert len({a, b}) == 1 and {a: "value"}[b] == "value"
        t = jet_point(0, 5)
        assert (t * 0 + 1).coeffs == (qi(1),)

    def test_padded_sum_reaches_the_closed_form_power(self, monkeypatch):
        t = jet_point(0, 6)
        c = t * 0 + qi(2, 1)  # a constant jet, padded with zeros by the sum
        x = t * t * c + t ** 3
        assert x.coeffs == (qi(2, 1), qi(1))
        want = {m: x.inverse() ** m for m in range(1, 4)}

        def no_inverse(self):
            raise AssertionError("inverse() called")

        monkeypatch.setattr(Jet, "inverse", no_inverse)
        for m in range(1, 4):
            assert x ** -m == want[m]


class TestMovedExpansion:
    def test_single_pole_is_the_binomial_series(self):
        # (u - p - s t)^-l = sum_k C(l+k-1, k) s^k t^k (u - p)^-(l+k)
        s = qi(Fraction(2, 3), -1)
        for l in range(1, 5):
            got = {k: (f, o) for k, f, o in moved_expansion(qi(1), [(s, l)], 4)}
            assert got == {k: (comb(l + k - 1, k) * s ** k, [l + k]) for k in range(5)}

    def test_coefficient_series_and_negative_orders(self):
        t = jet_point(0, 6)
        coeff = 3 / (t * t) + 5
        terms = list(moved_expansion(coeff, [(1, 2)], 0))
        # t^-2 (3 + 5 t^2) times 1 + 2 t (u-p)^-3 + 3 t^2 (u-p)^-4 + ...
        assert sorted(terms, key=lambda x: (x[0], x[2])) == [
            (-2, qi(3), [2]),
            (-1, qi(6), [3]),
            (0, qi(5), [2]),
            (0, qi(9), [4]),
        ]

    def test_shallow_coefficient_raises(self):
        with pytest.raises(JetPrecisionError):
            list(moved_expansion(jet_point(1, 2) ** 2, [], 2))

    def test_retry_doubles_until_the_ceiling(self):
        seen = []

        def compute(prec):
            seen.append(prec)
            if prec < 40:
                raise JetPrecisionError("shallow")
            return prec

        assert with_jet_retry(compute, 5) == 40
        assert seen == [5, 10, 20, 40]
        seen.clear()
        assert with_jet_retry(compute, -3) == 64
        assert seen == [-3, 1, 2, 4, 8, 16, 32, 64]
        with pytest.raises(JetPrecisionError):
            with_jet_retry(lambda prec: (_ for _ in ()).throw(JetPrecisionError("never")), 5)



class TestOneLevel:
    def test_coefficients_are_gauss_rationals(self):
        w = jet_point(qi(2), 4)
        assert not hasattr(w, "one")
        v = Jet(0, [2, Fraction(1)], 4)
        assert v == w and hash(v) == hash(w) and v.sort_key() == w.sort_key()
        assert all(type(c) is GaussRational for c in v.coeffs)
        assert w.coefficient(3) == qi(0) and type(w.coefficient(3)) is GaussRational


def _two_term_jets(rng, prec):
    """The jets a negative power meets: moving points z + t minus a pole,
    the moving point on the pole (t alone), and t^v (a + s t) with v > 0."""
    w = jet_point(rand_scalar(rng), prec)
    t = w - w.coefficient(0)
    shifted = Jet(2, [rand_scalar(rng) + 5, rand_scalar(rng)], prec)
    return [w - (rand_scalar(rng) + 20), t, t * (rand_scalar(rng) or qi(3)), shifted, w - 20]


class TestAffinePower:
    @pytest.mark.parametrize("batch", [0, 1])
    def test_matches_inverse_power(self, batch):
        rng = random.Random(31 + batch)
        for m in range(1, 7):
            for prec in range(1, 13):
                for base in _two_term_jets(rng, prec):
                    assert len(base.coeffs) <= 2
                    try:
                        want = base.inverse() ** m
                    except JetPrecisionError:
                        with pytest.raises(JetPrecisionError):
                            base ** -m
                        continue
                    got = base ** -m
                    assert got == want, (m, prec, base)
                    assert got.prec == want.prec and got.coeffs == want.coeffs

    def test_scalar_jets_skip_the_inverse(self, monkeypatch):
        def no_inverse(self):
            raise AssertionError("inverse() called")

        w = jet_point(qi(2, 1), 8)
        want = {m: w.inverse() ** m for m in range(1, 5)}
        monkeypatch.setattr(Jet, "inverse", no_inverse)
        for m in range(1, 5):
            assert w ** -m == want[m]

    def test_series_coefficients(self):
        # (a + t)^-3 = sum_k C(k+2, 2) (-1)^k a^(-3-k) t^k
        a = qi(Fraction(1, 2), 2)
        got = (jet_point(a, 6) ** -3).coeffs
        assert got == tuple(comb(k + 2, 2) * (-1) ** k * a ** (-3 - k) for k in range(6))


class TestScalarDivision:
    @pytest.mark.parametrize("divisor", [2, Fraction(2, 3), qi(2), qi(1, -1), qi(0, 3)])
    def test_level_zero(self, divisor):
        w, inv = jet_point(1, 3), 1 / GaussRational.coerce(divisor)
        got = w / divisor
        assert got == w * inv and got.prec == 3 and got.coeffs == (inv, inv)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            jet_point(1, 3) / 0
