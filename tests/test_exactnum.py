import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chiralis.exactnum import (
    INFINITY,
    GaussRational,
    Point,
    Poly,
    RatFunc,
    UnsupportedDenominatorError,
    gauss_rational_roots,
    local_expansion,
    partial_fractions,
    partial_fractions_known,
    qi,
    residue_at,
    residue_pairing,
    sqrt_gauss_rational,
)
from chiralis import exactnum
from chiralis.geometry import dec_atoms
from chiralis.sampling import rand_distinct_scalars, rand_poly, rand_ratfunc, rand_scalar

import expansion_oracle as oracle
import tower_field
from closed_form_oracle import atom_ratfunc, ratfunc_to_json

U = RatFunc.variable(GaussRational(1))


def rf(num, den=None):
    num = Poly([GaussRational.coerce(c) for c in num])
    if den is None:
        return RatFunc(num)
    return RatFunc(num, Poly([GaussRational.coerce(c) for c in den]))


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def gauss_rationals(draw):
    return GaussRational(draw(small_fractions), draw(small_fractions))


class TestGaussRational:
    @given(gauss_rationals(), gauss_rationals(), gauss_rationals())
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if c:
            assert (a * c) / c == a

    @given(gauss_rationals(), gauss_rationals())
    def test_conjugation_is_automorphism(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()
        assert a.conjugate().conjugate() == a

    def test_conjugation_fixes_rationals(self):
        assert qi(Fraction(3, 2)).conjugate() == qi(Fraction(3, 2))

    @given(gauss_rationals())
    def test_text_round_trip(self, a):
        assert GaussRational.parse(str(a)) == a

    def test_text_format(self):
        assert str(qi(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
        assert str(qi(2)) == "2"
        assert GaussRational.parse("0+1/2*i") == qi(0, Fraction(1, 2))

    def test_sqrt(self):
        assert sqrt_gauss_rational(qi(0, 2)) in (qi(1, 1), qi(-1, -1))
        assert sqrt_gauss_rational(qi(-1)) in (qi(0, 1), qi(0, -1))
        assert sqrt_gauss_rational(qi(2)) is None


# -- the reduced integer triple against a reference pair of Fractions ---------


def _pair(x):
    """The reference value of an int, Fraction or GaussRational: (re, im)."""
    if isinstance(x, GaussRational):
        return Fraction(x.a, x.d), Fraction(x.b, x.d)
    return Fraction(x), Fraction(0)


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def _ref_pow(x, n):
    if n < 0:
        return _ref_pow(_ref_div((Fraction(1), Fraction(0)), x), -n)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = _ref_mul(out, x)
    return out


_REF_OPS = {
    "+": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "-": lambda x, y: (x[0] - y[0], x[1] - y[1]),
    "*": _ref_mul,
    "/": _ref_div,
}
_OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def _assert_reduced(z, expected):
    assert type(z) is GaussRational
    assert type(z.a) is int and type(z.b) is int and type(z.d) is int
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == expected == _pair(z)


def _check_against_pairs(x, y):
    px, py = _pair(x), _pair(y)
    for name, op in _OPS.items():
        if name == "/" and not any(py):
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        _assert_reduced(op(x, y), _REF_OPS[name](px, py))
    assert (x == y) == (px == py)
    assert (x != y) == (px != py)


def _rand_operand(rng):
    def frac():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6, 9, 35)))

    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-12, 12)
    if kind == 1:
        return frac()
    return GaussRational(frac(), frac() if kind == 3 else 0)


operands = st.one_of(
    st.integers(-20, 20), small_fractions, gauss_rationals(), st.builds(GaussRational, small_fractions)
)


class TestOnePowerRoutine:
    """Every scalar type raises to n >= 1 by ``exactnum.repeated_squaring``
    and keeps its own one for n = 0: x ** n is the repeated product, and a
    jet's precision bound is that of the product too."""

    @staticmethod
    def values(rng):
        from chiralis.jets import Jet
        from chiralis.lattice import LatticeScalar

        for _ in range(3):
            yield rand_scalar(rng), GaussRational(1)
            yield rand_poly(rng, max_degree=2), Poly([1])
            yield rand_ratfunc(rng, max_poles=1), RatFunc.const(GaussRational(1))
            val, prec = rng.randint(-1, 1), rng.randint(2, 4)
            jet = Jet(val, [rand_scalar(rng) or qi(1) for _ in range(prec - val)], prec)
            yield jet, Jet(0, [qi(1)], prec)
            yield LatticeScalar(2, rand_scalar(rng), rand_scalar(rng)), LatticeScalar(2, qi(1))

    def test_power_is_the_repeated_product(self):
        rng = random.Random(2901)
        for x, one in self.values(rng):
            assert x ** 0 == one and type(x ** 0) is type(x)
            product = x
            for n in range(1, 10):
                got = x ** n
                assert got == product and type(got) is type(x), (x, n)
                assert getattr(got, "prec", None) == getattr(product, "prec", None), (x, n)
                product = product * x


def _scalar_rule_values():
    from chiralis.jets import Jet
    from chiralis.lattice import LatticeScalar

    return {"RatFunc": (U + 1) / (U - 2), "Jet": Jet(-1, [qi(1), qi(2, 1), qi(3)], 3),
            "LatticeScalar": LatticeScalar(2, qi(1), qi(Fraction(1, 2), 1))}


_SCALAR_OPS = [lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x - y, lambda x, y: y - x,
               lambda x, y: x * y, lambda x, y: y * x, lambda x, y: x / y, lambda x, y: y / x]


class TestOneScalarRule:
    """RatFunc, Jet and LatticeScalar take a plain operand exactly where
    ``exactnum._as_gauss`` does: an int, a Fraction or a GaussRational acts on
    either side of + - * / as its GaussRational, and a float, a str or one of
    the other two types raises TypeError."""

    @pytest.mark.parametrize("kind", ["RatFunc", "Jet", "LatticeScalar"])
    def test_operands(self, kind):
        values = _scalar_rule_values()
        x = values.pop(kind)
        for operand in [3, Fraction(-2, 5), qi(Fraction(1, 3), -2), 1.5, "2", *values.values()]:
            g = exactnum._as_gauss(operand)
            for op in _SCALAR_OPS:
                if g is NotImplemented:
                    with pytest.raises(TypeError):
                        op(x, operand)
                else:
                    got = op(x, operand)
                    assert type(got) is type(x) and got == op(x, g), (kind, operand)
            assert (g is NotImplemented) == (type(operand) not in (int, Fraction, GaussRational))


class TestGaussTriple:
    def test_operators_match_fraction_pairs_seeded(self):
        rng = random.Random(1969)
        for _ in range(400):
            x, y = _rand_operand(rng), _rand_operand(rng)
            if not isinstance(x, GaussRational) and not isinstance(y, GaussRational):
                x = GaussRational(x)
            _check_against_pairs(x, y)

    @given(gauss_rationals(), operands)
    def test_operators_match_fraction_pairs(self, x, y):
        _check_against_pairs(x, y)
        _check_against_pairs(y, x)

    @given(operands)
    def test_unary_operations(self, x):
        z = GaussRational.coerce(x)
        re, im = _pair(x)
        _assert_reduced(z, (re, im))
        _assert_reduced(-z, (-re, -im))
        _assert_reduced(z.conjugate(), (re, -im))
        assert z.norm() == re * re + im * im
        assert z.is_rational() == (im == 0)
        assert bool(z) == bool(re or im)
        for n in (0, 1, 2, 3, 5):
            _assert_reduced(z**n, _ref_pow((re, im), n))
        if z:
            _assert_reduced(z.inverse(), _ref_div((Fraction(1), Fraction(0)), (re, im)))
            for n in (-1, -2, -3):
                _assert_reduced(z**n, _ref_pow((re, im), n))

    @given(operands)
    def test_hash_sort_key_and_text(self, x):
        z = GaussRational.coerce(x)
        re, im = _pair(x)
        assert hash(z) == (hash(re) if im == 0 else hash((re, im)))
        if not isinstance(x, GaussRational):
            assert hash(z) == hash(x) and z == x and x == z
        assert z.sort_key() == ("q", re, im)
        assert GaussRational.parse(str(z)) == z

    def test_sort_key_orders_as_the_rational_pair(self):
        # an integer value keys on ints, any other on rationals: the order
        # and the key equalities are those of ("q", re, im)
        rng = random.Random(97)
        values = []
        for _ in range(300):
            den = rng.choice((1, 1, 2, 3, 6))
            values.append(qi(Fraction(rng.randint(-9, 9), den), Fraction(rng.randint(-9, 9), rng.choice((1, den)))))
        values += [qi(0), qi(Fraction(4, 2)), qi(2), qi(0, -1), qi(Fraction(-3, 3), 1)]

        def old_key(z):
            return ("q", z.re, z.im)

        assert any(z.d == 1 for z in values) and any(z.d > 1 for z in values)
        assert sorted(values, key=GaussRational.sort_key) == sorted(values, key=old_key)
        for x in values[:60]:
            for y in values:
                assert (x.sort_key() == y.sort_key()) == (old_key(x) == old_key(y))
                assert (x.sort_key() < y.sort_key()) == (old_key(x) < old_key(y))
                if x.sort_key() == y.sort_key():
                    assert hash(x.sort_key()) == hash(y.sort_key())

    def test_construction_reduces_and_zero_is_unique(self):
        _assert_reduced(qi(Fraction(2, 4), Fraction(-3, 9)), (Fraction(1, 2), Fraction(-1, 3)))
        _assert_reduced(qi(Fraction(1, 6), Fraction(1, 6)) * 3, (Fraction(1, 2), Fraction(1, 2)))
        _assert_reduced(qi(Fraction(1, 2), 1) - qi(Fraction(1, 2), 1), (0, 0))
        assert (qi(0).a, qi(0).b, qi(0).d) == (0, 0, 1)

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(1531)
        for x in [qi(0), qi(1), qi(0, 1)] + [rand_scalar(rng) for _ in range(40)]:
            for n in range(-6, 7):
                if n < 0 and not x:
                    continue
                want = qi(1)
                for _ in range(abs(n)):
                    want = want * x if n > 0 else want / x
                got = x ** n
                assert got == want and (got.a, got.b, got.d) == (want.a, want.b, want.d), (x, n)
        assert qi(0) ** 0 == 1 and qi(0) ** 3 == 0
        for x in (qi(Fraction(2, 3), -5), qi(0, Fraction(-1, 7))):
            assert x.inverse() == 1 / x and x.inverse() * x == 1

    def test_division_by_zero_raises(self):
        for zero in (0, Fraction(0), qi(0)):
            with pytest.raises(ZeroDivisionError):
                qi(1, 2) / zero
        with pytest.raises(ZeroDivisionError):
            1 / qi(0)
        with pytest.raises(ZeroDivisionError):
            qi(0).inverse()
        with pytest.raises(ZeroDivisionError):
            qi(0) ** -2

    # values computed with the two-Fraction representation; the order of the
    # roots is the order gauss_rational_roots found them in
    SQRT = [
        ("9/4", "3/2"),
        ("1/9", "1/3"),
        ("-35/36-1/3*i", "1/6-1*i"),
        ("11/225-4/15*i", "2/5-1/3*i"),
        ("91/225+4/15*i", "2/3+1/5*i"),
        ("2/9+1/6*i", "1/2+1/6*i"),
        ("2", None),
        ("-3/4", None),
        ("1+i", None),
        ("5/9-1/3*i", None),
        ("-7", None),
        ("0", "0"),
    ]
    ROOTS = [
        (["3/4-17/8*i", "1+3/2*i"], ["3/4+1*i"]),
        (["-3/4-3/2*i", "3/2-9/4*i", "3/2"], ["0+1*i", "-1+1/2*i"]),
        (["-5/16-5/8*i", "1/4-11/8*i", "3/2-2*i"], ["0+1/2*i", "-1/2-1/4*i"]),
        (
            ["-5+15/4*i", "-25/24-245/24*i", "61/12+17/12*i", "-1/3+1*i"],
            ["1+1*i", "3/4+1*i", "-3/2+3*i"],
        ),
        (
            ["-1/27+11/54*i", "-1/3+83/108*i", "-23/36+49/36*i", "-1/3+1*i"],
            ["-1/2-1/2*i", "-2/3", "-1/4+1/3*i"],
        ),
        (
            ["45/32+225/32*i", "9+3/16*i", "39/8+39/4*i", "-3/2+3/4*i", "-3+3/2*i"],
            ["-3/2-3/2*i", "0-1/2*i", "-1/2+1*i", "3/2+1*i"],
        ),
    ]

    def test_sqrt_matches_recorded_values(self):
        for text, expected in self.SQRT:
            root = sqrt_gauss_rational(GaussRational.parse(text))
            assert (None if root is None else str(root)) == expected

    def test_roots_match_recorded_values(self):
        for coeffs, expected in self.ROOTS:
            poly = Poly([GaussRational.parse(c) for c in coeffs])
            assert [str(r) for r in gauss_rational_roots(poly)] == expected


class TestTripleHash:
    """A value's hash comes from its int triple by the modular formula of
    ``Fraction.__hash__``, and its sort key is computed once."""

    P = sys.hash_info.modulus  # 2**61 - 1

    @staticmethod
    def _reference(re, im):
        return hash(re) if im == 0 else hash((re, im))

    def _check(self, re, im):
        z = qi(re, im)
        assert hash(z) == self._reference(Fraction(re), Fraction(im)), (re, im)
        return z

    def test_seeded_values_hash_as_fractions(self):
        rng = random.Random(2611)
        dens = (1, 2, 6, 10**6 + 3, self.P, 3 * self.P)
        seen = set()
        for _ in range(600):
            d = rng.choice(dens) if rng.random() < 0.7 else rng.randint(1, 10**12)
            re = Fraction(rng.randint(-10**20, 10**20), d)
            im = Fraction(rng.choice((0, rng.randint(-10**20, 10**20))), rng.choice((1, d)))
            z = self._check(re, im)
            seen.add((z.d == 1, z.b == 0, z.a < 0 or z.b < 0))
        assert len(seen) == 8

    def test_parts_reduce_apart_from_the_common_denominator(self):
        # gcd(a, d) > 1 while gcd(a, b, d) == 1: a/d is reduced before hashing
        for re, im, triple in [(Fraction(1, 2), Fraction(1, 4), (2, 1, 4)),
                               (Fraction(-2, 3), Fraction(1, 9), (-6, 1, 9)),
                               (Fraction(5, 6), Fraction(-1, 4), (10, -3, 12)),
                               (Fraction(1, 2), Fraction(1, 2 * self.P), (self.P, 1, 2 * self.P))]:
            z = self._check(re, im)
            assert (z.a, z.b, z.d) == triple
            assert math.gcd(z.a, z.d) > 1 and math.gcd(z.a, z.b, z.d) == 1

    def test_denominator_without_a_modular_inverse(self):
        # a multiple of 2**61 - 1 has no inverse mod P: hash(inf), signed, as Fraction
        inf = sys.hash_info.inf
        for k in (1, 2, 7):
            d = k * self.P
            assert hash(qi(Fraction(1, d))) == hash(Fraction(1, d)) == inf
            assert hash(qi(Fraction(-1, d))) == hash(Fraction(-1, d)) == -inf
            self._check(Fraction(-3, d), Fraction(1, d))
            self._check(Fraction(2), Fraction(-5, d))

    def test_equal_keys_share_one_dict_entry(self):
        for a, b, c in [(3, Fraction(3), qi(3)), (-1, Fraction(-2, 2), qi(Fraction(-3, 3))),
                        (0, Fraction(0), qi(0, 0)), (Fraction(1, 2), Fraction(2, 4), qi(Fraction(1, 2)))]:
            table = {a: "int"}
            table[b] = "fraction"
            table[c] = "gauss"
            assert len(table) == 1 and table[a] == "gauss"
        x = qi(Fraction(1, 3), Fraction(-2, 5))
        table = {x: 1, (x * 7) / 7: 2, qi(1, 2) * qi(1, 2).inverse() * x: 3}
        assert list(table.values()) == [3]

    def test_hash_builds_no_rational(self, monkeypatch):
        values = [qi(Fraction(2, 3), Fraction(-1, 6)), qi(Fraction(5, 7)), qi(4, -1)]

        def refuse(*args):
            raise AssertionError("a rational was built")

        monkeypatch.setattr(exactnum, "RATIONAL", refuse)
        hashes = [hash(z) for z in values]
        monkeypatch.undo()
        assert hashes == [hash((Fraction(2, 3), Fraction(-1, 6))), hash(Fraction(5, 7)), hash((4, -1))]

    def test_sort_key_is_computed_once(self):
        for z in (qi(Fraction(1, 3), 2), qi(-4, 1), qi(Fraction(-7, 2)), qi(0)):
            key = z.sort_key()
            assert z.sort_key() is key
            assert key == ("q", z.re, z.im)


class TestOneCoefficientField:
    """Q(i) is the only coefficient field: ints and rationals are coerced,
    and a rational function is neither a coefficient nor a point."""

    def test_int_coefficients_are_gauss_rationals(self):
        p, q = Poly([1, 2]), Poly([qi(1), qi(2)])
        assert p == q and hash(p) == hash(q)
        assert p.sort_key() == q.sort_key()
        assert all(type(c) is GaussRational for c in Poly([Fraction(1, 2), 0, 3]).coeffs)
        assert RatFunc(Poly([1]), Poly([0, 2])) == 1 / (2 * U)

    def test_sort_key_orders_by_length_then_rational_pairs(self):
        # the order of Poly.sort_key when coefficients could be of any field,
        # on the seeded Q(i) polynomials: by length, then coefficient by
        # coefficient as the (re, im) pairs
        rng = random.Random(2203)
        polys = [Poly([rand_scalar(rng, span=2) for _ in range(rng.randint(1, 3))]) for _ in range(60)]
        polys += [Poly([c.re, c.im]) for c in (rand_scalar(rng, span=2) for _ in range(10))]

        def reference(p):
            return len(p.coeffs), [(c.re, c.im) for c in p.coeffs]

        assert sorted(polys, key=Poly.sort_key) == sorted(polys, key=reference)

    def test_rational_function_points_and_coefficients_raise(self):
        from chiralis.boson import e_apply
        from chiralis.current import current_vacuum, iota_apply, sl2_algebra
        from chiralis.jets import Jet, coerce_scalar_or_jet, jet_point
        from chiralis.states import monomial_state, vacuum
        from chiralis.vertexalg import translate

        state = monomial_state([("pole", qi(0), 2)])
        calls = [
            lambda: Poly([U]),
            lambda: Poly([qi(1), U]),
            lambda: Poly([1, 2]) * U,
            lambda: RatFunc.variable(U),
            lambda: Jet(0, [U], 3),
            lambda: jet_point(qi(1), 3) * U,
            lambda: jet_point(U, 3),
            lambda: coerce_scalar_or_jet(U),
            lambda: e_apply(U, vacuum()),
            lambda: iota_apply(sl2_algebra(), "e", U, current_vacuum()),
            lambda: translate(U, state),
            lambda: translate(qi(3) + U, state),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()


class TestFieldOps:
    def test_sum_of_simple_poles(self):
        # oracle: cross-multiply by hand, (u-2)+(u-1) over (u-1)(u-2)
        f = rf([1]) / (U - 1)
        g = rf([1]) / (U - 2)
        expected = rf([-3, 2], [2, -3, 1])
        assert f + g == expected

    def test_derivative_of_square(self):
        assert (U * U).derivative() == 2 * U

    def test_multiplication_by_zero(self):
        f = rf([1, 2], [3, 1])
        assert f * rf([0]) == rf([0])

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            rf([1]) / rf([0])

    def test_canonical_form_is_syntactic_equality(self):
        a = (U - 1) * (U + 1) / ((U - 1) * (U + 2))
        b = (U + 1) / (U + 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_denominator_monic(self):
        f = rf([1], [2, 4])  # 1/(2+4u)
        assert f.den.leading() == qi(1)


class TestResidues:
    def test_simple_pole(self):
        assert residue_at(rf([1]) / (U - 2), 2) == qi(1)

    def test_double_pole(self):
        assert residue_at(rf([1]) / ((U - 2) * (U - 2)), 2) == qi(0)

    def test_residue_at_infinity_of_u(self):
        # oracle: u = 1/t, du = -dt/t^2 gives -t^{-3}dt, no t^{-1} term
        assert residue_at(U, INFINITY) == qi(0)

    def test_residue_at_infinity_of_inverse(self):
        # 1/u du -> (t)(-1/t^2)dt = -dt/t, residue -1
        assert residue_at(1 / U, INFINITY) == qi(-1)

    def test_residue_sum_vanishes(self):
        rng = random.Random(20240811)
        for _ in range(25):
            f = rand_ratfunc(rng, max_poles=3)
            roots = gauss_rational_roots(f.den)
            total = residue_at(f, INFINITY)
            for c in roots:
                total = total + residue_at(f, c)
            assert total == qi(0)


class TestPartialFractions:
    def test_two_simple_poles(self):
        f = rf([1]) / ((U - 1) * (U - 2))
        dec = partial_fractions(f)
        assert dec.polynomial == Poly()
        assert sorted(
            ((c, order, coeff) for c, order, coeff in dec.terms),
            key=lambda t: t[0].sort_key(),
        ) == [(qi(1), 1, qi(-1)), (qi(2), 1, qi(1))]

    def test_pure_polynomial(self):
        dec = partial_fractions(U * U)
        assert dec.terms == ()
        assert dec.polynomial == Poly([qi(0), qi(0), qi(1)])

    def test_double_pole_at_i(self):
        f = rf([1]) / ((U - qi(0, 1)) * (U - qi(0, 1)))
        dec = partial_fractions(f)
        assert dec.terms == ((qi(0, 1), 2, qi(1)),)

    def test_recompose_round_trip(self):
        rng = random.Random(77)
        for _ in range(30):
            f = rand_ratfunc(rng)
            dec = partial_fractions(f)
            assert sum((atom_ratfunc(a) * w for a, w in dec_atoms(dec)), RatFunc.const(qi(0))) == f

    def test_unsupported_denominator(self):
        with pytest.raises(UnsupportedDenominatorError):
            partial_fractions(rf([1]) / (U * U * U - 2))

    # (u/(1 - c u))^k has the one pole 1/c of order k; the candidate search
    # gives up on the expanded denominator, whose square-free part is linear
    SQUARE_FREE = [
        (qi(Fraction(1, 3), Fraction(-2, 5)), 3, qi(Fraction(75, 61), Fraction(90, 61))),
        (qi(Fraction(1, 3), Fraction(-1, 2)), 4, qi(Fraction(12, 13), Fraction(18, 13))),
    ]

    def test_repeated_pole_beyond_the_candidate_search(self):
        from chiralis.geometry import form_to_atoms
        from chiralis.states import monomial_state
        from chiralis.symmetry import HeisenbergOp, heis_apply

        for c, k, pole in self.SQUARE_FREE:
            f = (U / (1 - c * U)) ** k
            assert gauss_rational_roots(f.den) == [pole]
            dec = partial_fractions(f)
            assert {p for p, _, _ in dec.terms} == {pole}
            assert sorted(order for _, order, _ in dec.terms) == list(range(1, k + 1))
            assert sum((atom_ratfunc(a) * w for a, w in dec_atoms(dec)), RatFunc.const(qi(0))) == f
            # user functions on public paths: a second-kind form, a test function
            form = f.derivative()
            atoms = form_to_atoms(form)
            recomposed = sum((atom_ratfunc(a) * w for a, w in atoms.items()), RatFunc.const(qi(0)))
            assert recomposed == form
            v = monomial_state([("pole", qi(0), 2), ("pole", qi(0), 2), ("poly", 3)], qi(2, 1))
            want = v.contract(lambda a: -residue_at(f * atom_ratfunc(a), qi(0)))
            assert heis_apply(HeisenbergOp(f, qi(0)), v) == want

    def test_square_free_retry_only_where_the_search_gives_up(self, monkeypatch):
        c, k, pole = self.SQUARE_FREE[0]
        den = ((U / (1 - c * U)) ** k).den
        calls = []
        gcd = Poly.gcd

        def counting(self, other):
            calls.append(1)
            return gcd(self, other)

        monkeypatch.setattr(Poly, "gcd", counting)
        for coeffs, expected in TestGaussTriple.ROOTS:
            poly = Poly([GaussRational.parse(c) for c in coeffs])
            assert [str(r) for r in gauss_rational_roots(poly)] == expected
        assert calls == []
        assert gauss_rational_roots(den) == [pole]
        assert calls == [1]


def laurent(f, c, order: int) -> dict:
    """{k: coefficient of (u-c)^k} of f at c, k up to order, zeros left out."""
    m, coeffs = local_expansion(f, c, order)
    return {j - m: x for j, x in enumerate(coeffs) if x}


class TestLaurent:
    def test_pure_double_pole(self):
        w = qi(Fraction(5, 3))
        f = rf([1]) / ((U - w) * (U - w))
        assert laurent(f, w, 2) == {-2: qi(1)}

    def test_geometric_series(self):
        # oracle: 1/(u(u-1)) = -(1/u)(1 + u + u^2 + ...)
        f = rf([1]) / (U * (U - 1))
        assert laurent(f, qi(0), 1) == {-1: qi(-1), 0: qi(-1), 1: qi(-1)}

    def test_binomial(self):
        assert laurent(U * U, qi(1), 2) == {0: qi(1), 1: qi(2), 2: qi(1)}

    def test_matches_taylor_derivatives(self):
        rng = random.Random(99)
        for _ in range(15):
            f = rand_ratfunc(rng, max_poles=2)
            z = rand_scalar(rng, span=7)
            if not f.den.evaluate(z):
                continue
            tail = laurent(f, z, 3)
            g = f
            fact = 1
            for k in range(4):
                assert tail.get(k, qi(0)) == g.num.evaluate(z) / g.den.evaluate(z) / fact
                g = g.derivative()
                fact *= k + 1


def _rand_known(rng, lift, count, max_order, scalar, field=RatFunc):
    """(f, poles): a random polynomial plus up to ``count`` pole parts of
    order <= ``max_order`` at distinct Q(i) points, built term by term in the
    rational functions ``field``, and the pole points lifted into the
    coefficient field by ``lift``."""
    x = field.variable(lift(qi(1)))
    points = rand_distinct_scalars(rng, rng.randint(0, count), span=4)
    f = field.const(lift(qi(0)))
    for k in range(rng.randint(0, 2) + 1):
        f = f + scalar(rng) * x ** k
    for c in points:
        for order in range(1, rng.randint(1, max_order) + 1):
            if rng.random() < 0.7:
                f = f + scalar(rng) / (x - lift(c)) ** order
    return f, [lift(c) for c in points]


class TestTaylorShiftOracle:
    """The coefficient-list expansions against the generic ones they
    replaced (``tests/expansion_oracle.py``), on seeded random data: those
    of ``chiralis.exactnum`` over Q(i), and the same Horner passes of the
    test-side ``tower_field`` over a rational function field."""

    def assert_matches(self, f, poles, others, fast=exactnum):
        for c in poles + others:
            if fast is tower_field:  # exactnum reads both from local_expansion, checked below
                assert fast.pole_order(f, c) == oracle.pole_order(f, c), (f, c)
                assert fast.pole_part_coeffs(f, c) == oracle.pole_part_coeffs(f, c), (f, c)
            for order in (-3, -1, 0, 2):
                assert fast.local_expansion(f, c, order) == oracle.local_expansion(f, c, order), (f, c, order)
            assert fast.residue_at(f, c) == oracle.residue_at(f, c), (f, c)
        assert fast.residue_at(f, INFINITY) == oracle.residue_at(f, INFINITY), f
        for p in (f.num, f.den):
            for c in poles + others:
                assert fast._taylor_shift(p.coeffs, c, len(p.coeffs)) == list(oracle.poly_shift(p, c).coeffs)
        # the listed points shuffled, a repeated pole and points that are not poles
        listed = poles + others[:1] + poles[:1]
        rng = random.Random(len(listed))
        for order in (listed, rng.sample(listed, len(listed))):
            got, want = fast.partial_fractions_known(f, order), oracle.partial_fractions_known(f, order)
            assert got.terms == want.terms, (f, order)
            assert got.polynomial == want.polynomial, (f, order)
        if poles and f.den.degree:
            missing = [c for c in poles if oracle.pole_order(f, c)][1:] + others
            for fn in (fast.partial_fractions_known, oracle.partial_fractions_known):
                with pytest.raises(UnsupportedDenominatorError):
                    fn(f, missing)

    def test_over_gauss_rationals(self):
        rng = random.Random(1931)
        for _ in range(40):
            f, poles = _rand_known(rng, lambda c: c, 3, 4, rand_scalar)
            others = rand_distinct_scalars(rng, 2, span=5)
            others = [c for c in others if c not in poles]
            self.assert_matches(f, poles, others)

    def test_over_a_rational_function_field(self):
        # coefficients in Q(i)(t), constant poles lifted as vir_oracle lifts
        # them, and a pole that moves with t
        rng = random.Random(1997)
        tf = tower_field.RatFunc
        t = tf.variable(qi(1))

        def scalar(r):
            return tf.const(rand_scalar(r)) + rand_scalar(r) * t if r.random() < 0.5 else (
                tf.const(rand_scalar(r)) / (t - rand_scalar(r, span=9) - 10))

        for _ in range(6):
            f, poles = _rand_known(rng, tf.const, 2, 3, scalar, field=tf)
            self.assert_matches(f, poles, [tf.const(qi(7, 2))], fast=tower_field)
        x = tf.variable(tf.const(qi(1)))
        w = t + 3
        for f in (1 / (x - w) ** 2 + scalar(rng) / (x - w), x ** 2 / (x - w) ** 3 + scalar(rng) / (x + 1)):
            self.assert_matches(f, [w, tf.const(qi(-1))], [t], fast=tower_field)

    def test_unsplit_denominator(self):
        f = rf([1]) / (U * U * U - 2)
        with pytest.raises(UnsupportedDenominatorError):
            partial_fractions(f)
        for fn in (partial_fractions_known, oracle.partial_fractions_known):
            with pytest.raises(UnsupportedDenominatorError):
                fn(f, [qi(2), qi(0), qi(1, 1)])

    def test_residue_pairing(self):
        rng = random.Random(2015)
        for _ in range(30):
            phi = rand_ratfunc(rng, max_poles=2)
            psi = rand_ratfunc(rng, max_poles=2)
            sites = gauss_rational_roots(phi.den) + gauss_rational_roots(psi.den) + [rand_scalar(rng)]
            form = phi * psi.derivative()
            for z in sites:
                assert residue_pairing(phi, psi, z) == residue_at(form, z), (phi, psi, z)
                assert residue_pairing(phi, psi, Point(z)) == residue_at(form, z), (phi, psi, z)
            assert residue_pairing(phi, psi, INFINITY) == residue_at(form, INFINITY), (phi, psi)
        zero = RatFunc.const(qi(0))
        assert residue_pairing(zero, U, INFINITY) == residue_pairing(U, zero, qi(0)) == qi(0)


class TestConjugation:
    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(15):
            f = rand_ratfunc(rng)
            g = rand_ratfunc(rng)
            assert (f * g).conjugate() == f.conjugate() * g.conjugate()


class TestGenericScalars:
    """The tower field of the oracles (``tests/tower_field.py``) runs the same
    algorithms with rational functions as scalars."""

    def test_nested_ratfunc_field(self):
        tf = tower_field.RatFunc
        w = tf.variable(GaussRational(1))  # inner variable
        one = tf.const(GaussRational(1))
        x = tf.variable(one)  # outer variable over Q(i)(w)
        f = one / (x - w) + one / (x + w)
        # 2x/(x^2 - w^2)
        expected = tf(
            tower_field.Poly([w * 0, w * 0 + 2]), tower_field.Poly([-(w * w), w * 0, w * 0 + 1])
        )
        assert f == expected

    def test_nested_laurent(self):
        tf = tower_field.RatFunc
        w = tf.variable(GaussRational(1))
        one = tf.const(GaussRational(1))
        x = tf.variable(one)
        f = one / (x - w)
        m, coeffs = tower_field.local_expansion(f, w, 1)
        assert m == 1
        assert coeffs[0] == one
        assert not coeffs[1]
        assert not coeffs[2]


class TestMobius:
    def test_translation_of_pole(self):
        f = rf([1]) / (U * U)
        g = f.compose_mobius(qi(1), qi(-1), qi(0), qi(1))  # u -> u－1
        assert g == rf([1]) / ((U - 1) * (U - 1))

    def test_singular_matrix_rejected(self):
        from chiralis.exactnum import ExactnumError

        with pytest.raises(ExactnumError):
            U.compose_mobius(qi(1), qi(1), qi(1), qi(1))


class TestRatFuncJson:
    def test_round_trip(self):
        from chiralis.serialize import ratfunc_from_json

        rng = random.Random(3)
        for _ in range(10):
            f = rand_ratfunc(rng)
            assert ratfunc_from_json(ratfunc_to_json(f)) == f
