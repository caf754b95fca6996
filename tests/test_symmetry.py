import random
from fractions import Fraction

import pytest

from chiralis import boson, cli, exactnum, geometry, symmetry
from chiralis.exactnum import (
    INFINITY,
    GaussRational,
    PartialFractions,
    Point,
    Poly,
    RatFunc,
    qi,
    residue_at,
)
from chiralis.geometry import VectorField, _atom_residue, atom_ratfunc, dec_atoms
from chiralis.sampling import rand_ratfunc, rand_scalar
from chiralis.states import DomainError, SymState, monomial_state, vacuum
from chiralis.symmetry import (
    HeisenbergOp,
    _atom_derivative_residue,
    L_mode,
    bracket_L_b,
    heis_apply,
    heis_commutator_check,
    insertion_suite,
    mode_b,
    primary_check,
    spanning_states,
    vir_apply,
    VirasoroOp,
    virasoro_bracket_check,
)
from chiralis.boson import lie_action
from vir_oracle import _creation_state, lie_action as oracle_lie_action, vir_apply_oracle

U = RatFunc.variable(GaussRational(1))


class TestHeisenberg:
    def test_mode_from_inverse_power(self):
        # the origin operator with test function u^-l creates d(u^-l)
        for l in (1, 2, 3):
            op = HeisenbergOp(1 / U ** l, Point(qi(0)))
            out = heis_apply(op, vacuum())
            assert out == monomial_state([("pole", qi(0), l + 1)], qi(-l))
            assert out == mode_b(-l, vacuum())

    def test_positive_mode_pairs(self):
        for l, m in [(1, 1), (2, 2), (3, 2)]:
            out = mode_b(l, mode_b(-m, vacuum()))
            if l == m:
                assert out == vacuum().scale(l)
            else:
                assert out.is_zero()

    def test_infinity_site_kills_vacuum_for_pole_functions(self):
        op = HeisenbergOp(1 / (U - 5), INFINITY)
        # poles away from infinity create at infinity site
        out = heis_apply(op, vacuum())
        assert out == monomial_state([("pole", qi(5), 2)], qi(-1))

    def test_infinity_site_poly_no_creation(self):
        op = HeisenbergOp(U * U, INFINITY)
        assert heis_apply(op, vacuum()).is_zero()

    def test_commutator_is_residue(self):
        assert heis_commutator_check(U, 1 / U, 0) == qi(1)
        assert heis_commutator_check(U * U, U * U, 0) == qi(0)

    def test_commutator_at_infinity(self):
        # +Res at infinity of u d(1/u)
        phi, psi = U, 1 / U
        expected = residue_at(phi * psi.derivative(), INFINITY)
        assert heis_commutator_check(phi, psi, INFINITY) == expected

    def test_random_commutators(self):
        rng = random.Random(41)
        for _ in range(8):
            phi = rand_ratfunc(rng, max_poles=1)
            psi = rand_ratfunc(rng, max_poles=1)
            heis_commutator_check(phi, psi, 0)

    def test_distinct_sites_commute(self):
        rng = random.Random(43)
        for _ in range(5):
            phi = rand_ratfunc(rng, max_poles=1)
            psi = rand_ratfunc(rng, max_poles=1)
            op1 = HeisenbergOp(phi, Point(qi(0)))
            op2 = HeisenbergOp(psi, Point(qi(1)))
            for v in spanning_states():
                lhs = heis_apply(op1, heis_apply(op2, v))
                rhs = heis_apply(op2, heis_apply(op1, v))
                assert lhs == rhs

    def test_constants_act_trivially(self):
        op = HeisenbergOp(RatFunc.const(qi(7)), Point(qi(0)))
        for v in spanning_states():
            assert heis_apply(op, v).is_zero()

    def test_vector_field_compatibility(self):
        # [L^X, H^phi] = H^{X phi} on spanning states, X regular
        rng = random.Random(47)
        X = VectorField(U * U)
        for _ in range(5):
            phi = rand_ratfunc(rng, max_poles=1)
            xphi = X.xi * phi.derivative()
            op = HeisenbergOp(phi, Point(qi(0)))
            op2 = HeisenbergOp(xphi, Point(qi(0)))
            for v in spanning_states()[:4]:
                if v.degree() > 2:
                    continue
                lhs = lie_action(X, heis_apply(op, v)) - heis_apply(op, lie_action(X, v))
                assert lhs == heis_apply(op2, v)


ORACLE_SITES = [Point(qi(0)), Point(GaussRational(1, Fraction(1, 2))), INFINITY]


def _closed_form_draw(rng, site, case):
    """A test function (polynomial part, pole parts of orders 1-3) and an atom.

    case 0 puts a pole of phi at the site, case 1 the atom's pole at the
    site and case 2 the atom's pole at a pole of phi away from the site;
    at infinity cases 0 and 1 take a polynomial atom, whose pole is there.
    """
    o = site.value
    poles = [rand_scalar(rng) for _ in range(rng.randint(1, 2))]
    if case == 0 and o is not None:
        poles[0] = o
    poles = [a for a in dict.fromkeys(poles) if case != 2 or a != o] or [o + 2]
    poly = [rand_scalar(rng) for _ in range(rng.randint(1, 4))]
    parts = [(a, j, rand_scalar(rng) or qi(1))
             for a in poles for j in range(1, rng.randint(1, 3) + 1)]
    if case == 1 and o is not None:
        atom = ("pole", o, rng.randint(1, 4))
    elif case == 2:
        atom = ("pole", rng.choice(poles), rng.randint(1, 3))
    elif rng.random() < 0.5 or (case < 2 and o is None):
        atom = ("poly", rng.randint(0, 4))
    else:
        atom = ("pole", rand_scalar(rng) + 7, rng.randint(1, 3))
    return poly, parts, atom


def _ratfunc_of(poly, parts):
    """sum p_n u^n + sum g (u-a)^-j over one common denominator."""
    orders = {}
    for a, j, _ in parts:
        orders[a] = max(j, orders.get(a, 0))
    den = Poly([qi(1)])
    for a, j in orders.items():
        den = den * Poly([-a, qi(1)]) ** j
    num = Poly(poly) * den
    for a, j, g in parts:
        num = num + Poly([g]) * den.divmod(Poly([-a, qi(1)]) ** j)[0]
    return RatFunc(num, den)


class TestClosedFormResidues:
    def draws(self, count=204):
        rng = random.Random(7)
        for i in range(count):
            site = ORACLE_SITES[i % 3]
            yield site, _closed_form_draw(rng, site, (i // 3) % 4)

    def test_matches_residue_at(self):
        for site, (poly, parts, atom) in self.draws():
            phi = _ratfunc_of(poly, parts)
            atoms = dec_atoms(PartialFractions(Poly(poly), parts))
            a = atom_ratfunc(atom)
            assert _atom_residue(atoms, atom, site.value) == residue_at(phi * a, site), (site, atom)
            assert _atom_derivative_residue(atoms, atom, site.value) == residue_at(
                phi * a.derivative(), site
            ), (site, atom)

    def test_coincident_cases_are_drawn(self):
        seen = set()
        for site, (poly, parts, atom) in self.draws():
            o, phi_poles = site.value, {a for a, _, _ in parts}
            if o is not None and o in phi_poles:
                seen.add("phi pole at site")
            if atom[0] == "pole" and atom[1] == o:
                seen.add("atom pole at site")
            if atom[0] == "pole" and atom[1] in phi_poles and atom[1] != o:
                seen.add("atom pole at a phi pole")
        assert len(seen) == 3

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        u, t = sympy.symbols("u t")

        def sym(z):
            return sympy.Rational(z.re) + sympy.I * sympy.Rational(z.im)

        for site, (poly, parts, atom) in list(self.draws(12)):
            phi = sum(sym(p) * u ** n for n, p in enumerate(poly))
            phi += sum(sym(g) / (u - sym(a)) ** j for a, j, g in parts)
            f = phi * (1 / (u - sym(atom[1])) ** atom[2] if atom[0] == "pole" else u ** atom[1])
            if site.is_infinity:
                expected = -sympy.residue(f.subs(u, 1 / t) / t ** 2, t, 0)
            else:
                expected = sympy.residue(f, u, sym(site.value))
            got = _atom_residue(dec_atoms(PartialFractions(Poly(poly), parts)), atom, site.value)
            assert sympy.simplify(sym(got) - expected) == 0, (site, atom)

    @pytest.mark.parametrize("site", [qi(0), INFINITY])
    def test_commutator_check_computes_one_residue(self, monkeypatch, site):
        # the contraction values come from the closed form: the one residue
        # left is the check's own expected value, a residue pairing
        calls = []

        def counting(name, fn):
            def counted(*args):
                calls.append(name)
                return fn(*args)
            return counted

        for module in (exactnum, symmetry):
            for name in ("residue_at", "residue_pairing"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(symmetry, "_HEIS_VALUE_CACHE", {})
        rng = random.Random(61)
        for _ in range(3):
            phi = rand_ratfunc(rng, max_poles=2)
            psi = rand_ratfunc(rng, max_poles=2)
            calls.clear()
            heis_commutator_check(phi, psi, site)
            assert calls == ["residue_pairing"]


class TestVirasoro:
    def test_regular_field_is_plain_lie(self):
        X = VectorField(U)
        v = monomial_state([("pole", qi(0), 2)])
        assert vir_apply(VirasoroOp(X, Point(qi(0))), v) == lie_action(X, v)

    def test_L0_eigenvalue(self):
        for m in (1, 2, 3):
            v = monomial_state([("pole", qi(0), m + 1)], qi(-m))  # d(u^-m)
            assert L_mode(0, v) == v.scale(m)

    def test_creation_on_vacuum(self):
        # L_{-2} vac = half the square of the first creation mode
        lhs = L_mode(-2, vacuum())
        rhs = mode_b(-1, mode_b(-1, vacuum())).scale(Fraction(1, 2))
        assert lhs == rhs

    def test_bracket_central_values(self):
        assert virasoro_bracket_check(2, -2) == qi(Fraction(1, 2))
        assert virasoro_bracket_check(1, -1) == qi(0)
        assert virasoro_bracket_check(3, -3) == qi(2)
        assert virasoro_bracket_check(2, -1) == qi(0)

    def test_central_table(self):
        for l in range(-4, 5):
            for m in range(-4, 5):
                if l + m != 0 and abs(l) <= 3 and abs(m) <= 3:
                    assert virasoro_bracket_check(l, m, max_degree=2) == qi(0)
        for l in range(1, 5):
            expected = qi(Fraction(l * (l * l - 1), 12))
            assert virasoro_bracket_check(l, -l, max_degree=3) == expected

    def test_L_b_bracket(self):
        s = monomial_state([("pole", qi(0), 2)])
        assert bracket_L_b(2, -1, s) == mode_b(1, s)
        assert bracket_L_b(-1, 2, s) == mode_b(1, s).scale(-2)
        v = mode_b(-2, vacuum())
        assert bracket_L_b(1, -2, v) == mode_b(-1, v).scale(2)

    def test_domain_enforced(self):
        v = monomial_state([("pole", qi(1), 2)])
        with pytest.raises(DomainError):
            L_mode(0, v)

    def test_L_mode_matches_vir_apply(self):
        # the exponent closed forms against the atom closed forms of the
        # three-part action, at the origin and at two translated sites
        rng = random.Random(61)
        for o, lowest in ((qi(0), -4), (qi(1), -4), (qi(0, Fraction(1, 2)), -4)):
            states = [vacuum()]
            for _ in range(3):
                s = SymState()
                for _ in range(rng.randint(1, 3)):
                    atoms = [("pole", o, rng.randint(2, 5)) for _ in range(rng.randint(0, 3))]
                    s = s + monomial_state(atoms, rand_scalar(rng))
                states.append(s)
            for n in range(lowest, 5):
                op = VirasoroOp(VectorField(-((U - o) ** (n + 1))), Point(o))
                for s in states:
                    assert L_mode(n, s, o) == vir_apply(op, s), (o, n, s)

    def test_L_mode_domain_matches_vir_apply(self):
        for o in (qi(0), qi(1)):
            op = VirasoroOp(VectorField(-((U - o) ** 3)), Point(o))
            for atoms in ([("poly", 1)], [("pole", o + 2, 2)], [("pole", o, 2), ("poly", 0)]):
                v = monomial_state(atoms)
                with pytest.raises(DomainError):
                    vir_apply(op, v)
                with pytest.raises(DomainError):
                    L_mode(2, v, o)

    def test_creation_is_sugawara_sum(self):
        # L_{-m} vac against the generic creation state and 1/2 sum b_{-i} b_{-j} vac
        for m in range(2, 6):
            lhs = L_mode(-m, vacuum())
            assert lhs == _creation_state(-(U ** (1 - m)))
            sugawara = SymState()
            for i in range(1, m):
                sugawara = sugawara + mode_b(-i, mode_b(-(m - i), vacuum()))
            assert lhs == sugawara.scale(Fraction(1, 2))


I_HALF = qi(0, Fraction(1, 2))


def _bracket_check_on_states(l, m, max_degree):
    """The bracket table composed of ``L_mode`` calls on SymStates: the oracle
    for ``virasoro_bracket_check``, which runs on exponent tuples."""
    states = [vacuum()]
    orders = [2, 3, 4, 5]
    for a in orders:
        states.append(monomial_state([("pole", qi(0), a)]))
    for a in orders[:3]:
        for b in orders[:3]:
            if a <= b:
                states.append(monomial_state([("pole", qi(0), a), ("pole", qi(0), b)]))
    states.append(monomial_state([("pole", qi(0), 2)] * min(3, max_degree)))

    def bracket(v):
        lhs = L_mode(l, L_mode(m, v)) - L_mode(m, L_mode(l, v))
        return lhs - L_mode(l + m, v).scale(l - m)

    measured = bracket(vacuum()).vacuum_coefficient()
    for v in states:
        if v.degree() <= max_degree and bracket(v) != v.scale(measured):
            raise AssertionError("not central")
    return measured


class TestExponentKernel:
    def test_bracket_check_matches_state_oracle(self):
        for max_degree in (2, 3, 4):
            for l in range(-5, 6):
                for m in range(-5, 6):
                    got = virasoro_bracket_check(l, m, max_degree)
                    assert isinstance(got, GaussRational)
                    assert got == _bracket_check_on_states(l, m, max_degree), (l, m, max_degree)

    @pytest.mark.parametrize("wrong", [lambda w, p, q: w * 2, lambda w, p, q: w + (p == q)],
                             ids=["doubled", "diagonal-shifted"])
    def test_wrong_sugawara_weights_raise(self, monkeypatch, wrong):
        # the memo of _L_word starts empty (tests/conftest.py), so the
        # patched weights are read
        right = symmetry._sugawara_pairs
        monkeypatch.setattr(symmetry, "_sugawara_pairs",
                            lambda j: [(p, q, wrong(w, p, q)) for p, q, w in right(j)])
        for l, m in ((2, -2), (4, -4)):
            with pytest.raises(AssertionError, match="is not central"):
                virasoro_bracket_check(l, m)

    @pytest.mark.parametrize("o", [qi(0), qi(1), I_HALF])
    def test_mode_b_matches_heis_apply(self, o):
        rng = random.Random(83)
        away = [o + 2, o - qi(1, 1)]
        states = [vacuum()]
        for _ in range(6):
            s = SymState()
            for _ in range(rng.randint(1, 2)):
                atoms = []
                for _ in range(rng.randint(1, 3)):
                    kind = rng.randrange(3)
                    if kind == 0:
                        atoms.append(("pole", o, rng.randint(1, 6)))
                    elif kind == 1:
                        atoms.append(("pole", rng.choice(away), rng.randint(1, 3)))
                    else:
                        atoms.append(("poly", rng.randint(0, 4)))
                s = s + monomial_state(atoms, rand_scalar(rng))
            states.append(s)
        for l in [k for k in range(-5, 6) if k]:
            op = HeisenbergOp((U - o) ** l, Point(o))
            for v in states:
                assert mode_b(l, v, o) == heis_apply(op, v), (o, l, v)

    def test_no_root_search(self, monkeypatch):
        calls = []
        for name in ("partial_fractions", "gauss_rational_roots"):
            for module in (exactnum, symmetry):
                fn = getattr(module, name, None)
                if fn is not None:
                    def counting(*args, _fn=fn, _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(symmetry, "_PF_CACHE", {})
        v = monomial_state([("pole", qi(0), 2), ("pole", qi(0), 3), ("poly", 1)])
        for o in (qi(0), I_HALF):
            for l in (-3, -1, 1, 4):
                mode_b(l, v, o)
        for l, m in ((2, -2), (3, -1), (-4, 4)):
            virasoro_bracket_check(l, m)
        assert calls == []


def _origin_words(rng, count, lowest=1):
    """{sorted tuple of pole orders: coefficient}, seeded: the kernel's input."""
    terms = {}
    for _ in range(count):
        ks = tuple(sorted(rng.randint(lowest, 6) for _ in range(rng.randint(0, 4))))
        terms[ks] = rand_scalar(rng)
    return terms


class TestWordMemo:
    def test_warm_memo_matches_empty_memo(self, monkeypatch):
        rng = random.Random(29)
        for n in range(-6, 7):
            terms = _origin_words(rng, 5)
            base = _origin_words(rng, 2)
            monkeypatch.setattr(symmetry, "_L_WORD_CACHE", {})
            cold = (symmetry._L_exponents(n, terms), symmetry._L_exponents(n, terms, -3, dict(base)))
            assert symmetry._L_WORD_CACHE
            warm = (symmetry._L_exponents(n, terms), symmetry._L_exponents(n, terms, -3, dict(base)))
            assert warm == cold, n

    def test_L_mode_matches_vir_apply_on_random_words(self, monkeypatch):
        monkeypatch.setattr(symmetry, "_L_WORD_CACHE", {})
        rng = random.Random(31)
        for n in range(-6, 7):
            op = VirasoroOp(VectorField(-(U ** (n + 1))), Point(qi(0)))
            terms = _origin_words(rng, 3, lowest=2)
            v = SymState({tuple(("pole", qi(0), k) for k in ks): c for ks, c in terms.items()})
            for _ in range(2):  # on an empty memo, then on the one the first call filled
                assert L_mode(n, v) == vir_apply(op, v), (n, v)

    def test_no_caller_mutates_a_memoized_word(self, monkeypatch):
        rng = random.Random(37)
        for l in range(-5, 6):
            for m in range(-5, 6):
                virasoro_bracket_check(l, m)
        v = SymState({tuple(("pole", qi(0), k) for k in ks): c
                      for ks, c in _origin_words(rng, 4, lowest=2).items()})
        for n in range(-5, 6):
            bracket_L_b(n, 2, L_mode(n, v))
        memo = dict(symmetry._L_WORD_CACHE)
        assert memo
        monkeypatch.setattr(symmetry, "_L_WORD_CACHE", {})
        for (n, ks), image in memo.items():
            assert image == symmetry._L_word(n, ks), (n, ks)

    def test_modes_output_is_pinned_on_cold_and_warm_memo(self, capsys, monkeypatch):
        monkeypatch.setattr(symmetry, "_L_WORD_CACHE", {})
        pinned = ('{\n  "algebra": "virasoro",\n  "bracket": [\n    2,\n    -2\n  ],\n'
                  '  "central": "1/2",\n  "command": "modes",\n'
                  '  "identity": "virasoro-bracket-central",\n  "operator": "4*L_0"\n}\n')
        for _ in range(2):
            assert cli.run(["modes", "--algebra", "virasoro", "--bracket", "2,-2"]) == 0
            assert capsys.readouterr().out == pinned


HALF_I = GaussRational(1, Fraction(1, 2))


def _pole_part(rng, c, order):
    parts = (rand_scalar(rng) / (U - c) ** j for j in range(1, order + 1))
    return sum(parts, RatFunc.const(qi(0)))


def _vir_cases():
    """(site, xi, states, split): one-pole xi at 0, at 1+i/2 and at infinity,
    and a two-pole xi at infinity, whose oracle creation is summed per pole.

    The three pole parts are drawn once and reused: the generic creation of
    a part costs seconds, and the oracle keeps it per part.  The part at
    1+i/2 has order 3, so creation up to j = 3 at a translated site meets
    the bidifferential oracle.
    """
    rng = random.Random(71)
    c = rand_scalar(rng) + 3
    p0, p1, p2 = (_pole_part(rng, a, k) for a, k in ((qi(0), 2), (HALF_I, 3), (c, 2)))

    def poly():
        return sum((rand_scalar(rng) * U ** n for n in range(rng.randint(1, 3))),
                   RatFunc.const(qi(0)))

    def states(points):
        out = [vacuum()]
        for _ in range(3):
            atoms = [("pole", rng.choice(points), rng.randint(2, 4))
                     for _ in range(rng.randint(1, 3))]
            out.append(monomial_state(atoms, rand_scalar(rng)))
        return out

    return [
        (Point(qi(0)), poly() + p0 + p2, states([qi(0)]), False),
        (Point(HALF_I), poly() + p1 + p0, states([HALF_I]), False),
        (INFINITY, poly() + p2, states([c, qi(0), qi(5)]), False),
        (INFINITY, poly() + p0 + p1, states([qi(0), HALF_I, c]), True),
    ]


def _rand_field(rng):
    """A polynomial part of degree <= 3 and up to two poles of orders 1-3."""
    xi = sum((rand_scalar(rng) * U ** n for n in range(rng.randint(1, 4))), RatFunc.const(qi(0)))
    poles = [rand_scalar(rng) for _ in range(rng.randint(0, 2))]
    for a in poles:
        xi = xi + _pole_part(rng, a, rng.randint(1, 3))
    return xi, poles


class TestVirasoroClosedForms:
    @pytest.mark.parametrize("case", range(4))
    def test_vir_apply_matches_oracle(self, case):
        site, xi, states, split = _vir_cases()[case]
        op = VirasoroOp(VectorField(xi), site)
        for s in states:
            assert vir_apply(op, s) == vir_apply_oracle(op, s, split=split), (site, s)

    def test_two_pole_field_at_infinity(self):
        # the bidifferential route's pole search gives up on this field
        a, b = qi(4, -4), qi(5, Fraction(-1, 4))
        xi = qi(Fraction(-5, 4), 4) + qi(1, 1) * U
        xi = xi + qi(0, 1) / (U - a) ** 2 + qi(2, 3) / (U - b) ** 2
        op = VirasoroOp(VectorField(xi), INFINITY)
        for atoms in ([], [("pole", a, 2)], [("pole", qi(0), 3), ("pole", b, 2)]):
            s = monomial_state(atoms)
            assert vir_apply(op, s) == vir_apply_oracle(op, s, split=True), atoms

    def test_lie_action_matches_oracle(self):
        rng = random.Random(73)
        for _ in range(12):
            xi, poles = _rand_field(rng)
            X = VectorField(xi)
            atoms = [("poly", rng.randint(0, 2)), ("pole", rand_scalar(rng) + 7, rng.randint(2, 3))]
            atoms += [("pole", a, rng.randint(2, 4)) for a in poles]
            s = monomial_state([("poly", rng.randint(3, 5))] + rng.sample(atoms, 1), rand_scalar(rng))
            s = s + monomial_state(rng.sample(atoms, 2))
            assert lie_action(X, s) == oracle_lie_action(X, s), (xi, s)

    def test_no_generic_path(self, monkeypatch):
        # beyond the one decomposition of each distinct xi, no residue,
        # root search or rational-function expansion runs
        calls = []
        for name in ("residue_at", "form_to_atoms", "bifunction_atom_matrix", "gauss_rational_roots"):
            for module in (exactnum, geometry, boson, symmetry):
                fn = getattr(module, name, None)
                if fn is not None:
                    def counting(*args, _fn=fn, _name=name, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(symmetry, "_PF_CACHE", {})
        rng = random.Random(79)
        fields = [_rand_field(rng)[0] for _ in range(4)]
        for xi in fields + fields:
            for site in (Point(qi(0)), INFINITY):
                v = monomial_state([("pole", qi(0), 2), ("pole", qi(0), 3)])
                vir_apply(VirasoroOp(VectorField(xi), site), v)
        assert calls == ["gauss_rational_roots"] * len(set(fields))


class TestPrimary:
    def test_vacuum_weight_zero(self):
        assert primary_check(vacuum(), 0)

    def test_double_pole_weight_one(self):
        alpha = monomial_state([("pole", qi(0), 2)], qi(-1))
        assert primary_check(alpha, 1)

    def test_wrong_weight_fails(self):
        alpha = monomial_state([("pole", qi(0), 2)], qi(-1))
        assert not primary_check(alpha, 2)


class TestInsertions:
    def test_suite_two_points(self):
        rng = random.Random(53)
        rep = insertion_suite([qi(0), qi(3)], [qi(2), qi(Fraction(-1, 2))], rng)
        assert all(rep.values()), rep

    def test_suite_three_points(self):
        rng = random.Random(59)
        rep = insertion_suite([qi(1), qi(-2), qi(0, 1)], [qi(1), qi(3), qi(0, -1)], rng)
        assert all(rep.values()), rep

    def test_constant_scalar_action(self):
        ins = [(qi(0), qi(5)), (qi(2), qi(-1))]
        op = HeisenbergOp(RatFunc.const(qi(1)), Point(qi(2)), ins)
        v = monomial_state([("pole", qi(0), 1)])
        assert heis_apply(op, v) == v.scale(qi(-1))
