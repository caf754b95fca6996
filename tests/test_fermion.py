import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import contraction_oracle
from closed_form_oracle import composite_two_point
from chiralis.boson import b_apply, e_apply, i_apply, npoint_wick, vacuum
from chiralis.exactnum import GaussRational, qi
from chiralis.fermion import (
    BCState,
    ExtState,
    KernelBoson,
    bc_apply,
    bc_vacuum,
    composite_b_apply,
    fermion_npoint,
    fermion_npoint_operator,
    fermion_vacuum,
    mode_psi,
    psi_apply,
    psi_e_apply,
    psi_i_apply,
)
from chiralis.geometry import atom_sort_key, bergman_genus0, szego_genus0
from chiralis.sampling import rand_distinct_scalars, rand_scalar
from chiralis.states import DomainError, monomial_state


def rand_fermion_state(rng, pool):
    atoms = set()
    for c in pool:
        if rng.random() < 0.7:
            atoms.add(("pole", c, rng.randint(1, 3)))
    mon = tuple(sorted(atoms, key=atom_sort_key))
    return ExtState({mon: rand_scalar(rng)}) if mon else fermion_vacuum()


def rand_bc_state(rng, pool):
    b, c = set(), set()
    for p in pool:
        if rng.random() < 0.6:
            b.add(("pole", p, rng.randint(1, 2)))
        if rng.random() < 0.6:
            c.add(("pole", p, rng.randint(1, 2)))
    key = (
        tuple(sorted(b, key=atom_sort_key)),
        tuple(sorted(c, key=atom_sort_key)),
    )
    return BCState({key: rand_scalar(rng)}) if (key[0] or key[1]) else bc_vacuum()


class TestNeutralFermion:
    def test_creation_on_vacuum(self):
        out = psi_apply(qi(2), fermion_vacuum())
        assert out.terms == {(("pole", qi(2), 1),): qi(1)}

    def test_anticommutator_vanishes(self):
        rng = random.Random(3)
        checked = 0
        while checked < 8:
            pool = rand_distinct_scalars(rng, 2, span=3)
            s = rand_fermion_state(rng, pool)
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                continue
            anti = psi_apply(z1, psi_apply(z2, s)) + psi_apply(z2, psi_apply(z1, s))
            assert anti.is_zero()
            checked += 1

    def test_two_point_vacuum_coefficient(self):
        state = psi_apply(qi(0), psi_apply(qi(1), fermion_vacuum()))
        assert state.vacuum_coefficient() == 1 / (qi(0) - qi(1))

    def test_domain_error(self):
        s = psi_e_apply(qi(1), fermion_vacuum())
        with pytest.raises(DomainError):
            psi_i_apply(qi(1), s)

    def test_wedge_is_alternating(self):
        s = psi_e_apply(qi(1), fermion_vacuum())
        assert psi_e_apply(qi(1), s).is_zero()


class TestFermionNPoint:
    def test_two_point(self):
        assert fermion_npoint([0, 1]) == qi(-1)

    def test_odd_vanishes(self):
        assert fermion_npoint([0, 1, 2]) == qi(0)

    def test_matches_operator_composition(self):
        rng = random.Random(7)
        for n in (2, 4, 6):
            pts = rand_distinct_scalars(rng, n, span=8)
            assert fermion_npoint(pts) == fermion_npoint_operator(pts)

    def test_first_row_recursion(self):
        # expansion along the first point is how the sum is defined; check
        # against a direct sum over pair partitions with crossing signs
        import itertools

        rng = random.Random(11)
        pts = rand_distinct_scalars(rng, 4, span=6)
        total = qi(0)
        for perm in itertools.permutations(range(4)):
            if perm[0] > perm[1] or perm[2] > perm[3] or perm[0] > perm[2]:
                continue
            sign = _perm_sign(perm)
            total = total + sign / (
                (pts[perm[0]] - pts[perm[1]]) * (pts[perm[2]] - pts[perm[3]])
            )
        assert fermion_npoint(pts) == total

    def test_repeated_points_rejected(self):
        with pytest.raises(DomainError):
            fermion_npoint([1, 1])

    def test_degree_bound_keeps_the_full_composition(self):
        rng = random.Random(16)
        for n in range(0, 9):
            for _ in range(2 if n < 8 else 1):
                pts = rand_distinct_scalars(rng, n, span=8)
                full = contraction_oracle.fermion_npoint_composition(pts)
                assert fermion_npoint_operator(pts) == full, pts
                assert fermion_npoint(pts) == contraction_oracle.pfaffian_sum(pts) == full, pts


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestModes:
    def test_anticommutator(self):
        v = fermion_vacuum()
        h = Fraction(1, 2)
        lhs = mode_psi(h, mode_psi(-h, v)) + mode_psi(-h, mode_psi(h, v))
        assert lhs == v

    def test_positive_mode_kills_vacuum(self):
        assert mode_psi(Fraction(1, 2), fermion_vacuum()).is_zero()

    def test_antisymmetry(self):
        v = fermion_vacuum()
        a = mode_psi(Fraction(-1, 2), mode_psi(Fraction(-3, 2), v))
        b = mode_psi(Fraction(-3, 2), mode_psi(Fraction(-1, 2), v))
        assert a == b.scale(-1)

    def test_mixed_relations(self):
        v = fermion_vacuum()
        for l, m in [(Fraction(3, 2), Fraction(-3, 2)), (Fraction(5, 2), Fraction(-1, 2))]:
            lhs = mode_psi(l, mode_psi(m, v)) + mode_psi(m, mode_psi(l, v))
            expected = v if l + m == 0 else ExtState()
            assert lhs == expected


class TestBCSystem:
    def test_rule_bi_ce(self):
        rng = random.Random(13)
        for _ in range(4):
            pool = rand_distinct_scalars(rng, 2, span=3)
            s = rand_bc_state(rng, pool)
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                continue
            lhs = bc_apply("b_i", z1, bc_apply("c_e", z2, s)) + bc_apply(
                "c_e", z2, bc_apply("b_i", z1, s)
            )
            assert lhs == s.scale(1 / (z2 - z1))

    def test_rule_ci_be(self):
        rng = random.Random(17)
        for _ in range(4):
            pool = rand_distinct_scalars(rng, 2, span=3)
            s = rand_bc_state(rng, pool)
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                continue
            lhs = bc_apply("c_i", z1, bc_apply("b_e", z2, s)) + bc_apply(
                "b_e", z2, bc_apply("c_i", z1, s)
            )
            assert lhs == s.scale(-1 / (z1 - z2))

    def test_same_type_anticommute(self):
        rng = random.Random(19)
        pool = rand_distinct_scalars(rng, 2, span=3)
        s = rand_bc_state(rng, pool)
        z1, z2 = qi(5), qi(-4)
        for f in ("b_e", "c_e"):
            lhs = bc_apply(f, z1, bc_apply(f, z2, s)) + bc_apply(f, z2, bc_apply(f, z1, s))
            assert lhs.is_zero()

    def test_crossing_sign(self):
        # the twist-sector creation picks up the parity of the first sector
        s = bc_apply("b_e", qi(1), bc_vacuum())
        out = bc_apply("c_e", qi(2), s)
        ((key, coeff),) = out.terms.items()
        assert coeff == qi(1)  # (-1)^1 from crossing times the section sign
        out0 = bc_apply("c_e", qi(2), bc_vacuum())
        ((_, coeff0),) = out0.terms.items()
        assert coeff0 == qi(-1)

    def test_mutual_locality(self):
        rng = random.Random(23)
        checked = 0
        while checked < 6:
            pool = rand_distinct_scalars(rng, 2, span=3)
            s = rand_bc_state(rng, pool)
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                continue
            anti = bc_apply("b", z1, bc_apply("c", z2, s)) + bc_apply(
                "c", z2, bc_apply("b", z1, s)
            )
            assert anti.is_zero()
            checked += 1


class TestComposite:
    def test_commutator_vanishes(self):
        rng = random.Random(29)
        checked = 0
        while checked < 5:
            pool = rand_distinct_scalars(rng, 2, span=3)
            s = rand_bc_state(rng, pool)
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            if any(not (z - c) for z in (z1, z2) for c in pool):
                continue
            a = composite_b_apply(z1, composite_b_apply(z2, s))
            b = composite_b_apply(z2, composite_b_apply(z1, s))
            assert a == b
            checked += 1

    def test_two_point_is_boson_kernel(self):
        rng = random.Random(31)
        assert composite_two_point(qi(0), qi(2)) == qi(Fraction(1, 4))
        for _ in range(5):
            z1, z2 = rand_distinct_scalars(rng, 2, span=7)
            assert composite_two_point(z1, z2) == 1 / (z1 - z2) ** 2
            assert composite_two_point(z1, z2) == npoint_wick([z1, z2])


class TestKernelBoson:
    def test_reproduces_boson_fields(self):
        kb = KernelBoson(bergman_genus0())
        rng = random.Random(37)
        for _ in range(5):
            pts = rand_distinct_scalars(rng, 3, span=5)
            st = monomial_state(
                [("pole", pts[0], 2), ("pole", pts[1], 3)], rand_scalar(rng)
            )
            z = pts[2]
            assert kb.e_apply(z, st) == e_apply(z, st)
            assert kb.i_apply(z, st) == i_apply(z, st)
            assert kb.b_apply(z, st) == b_apply(z, st)

    def test_two_point_is_kernel_value(self):
        kb = KernelBoson(bergman_genus0())
        k = bergman_genus0()
        z1, z2 = qi(0), qi(3)
        state = kb.b_apply(z1, kb.b_apply(z2, vacuum()))
        assert state.vacuum_coefficient() == k.value(z1, z2)

    def test_odd_kernel_rejected(self):
        with pytest.raises(DomainError):
            KernelBoson(szego_genus0())


# -- the sector kernel against the sums of its parts ---------------------------

BC_FIELDS = ("b_e", "b_i", "c_e", "c_i", "b", "c")

# points with denominator d != 1, real and not: (n d + 1)/d + i m/d
POINTS = st.builds(lambda n, m, d: qi(Fraction(n * d + 1, d), Fraction(m, d)),
                   st.integers(-2, 2), st.integers(-2, 2), st.sampled_from((2, 3, 5)))
COEFFS = st.builds(lambda re, im: qi(re, im) or qi(1), st.fractions(-3, 3, max_denominator=4),
                   st.fractions(-2, 2, max_denominator=3))
KERNEL_CASES = settings(derandomize=True, max_examples=50, deadline=None)


def _monomials(points, min_size=0):
    """Strictly sorted monomials of at most three atoms at the given points."""
    atoms = [("pole", p, k) for p in points for k in (1, 2)]
    return st.lists(st.sampled_from(atoms), unique=True, min_size=min_size, max_size=3).map(
        lambda mon: tuple(sorted(mon, key=atom_sort_key)))


@st.composite
def bc_states(draw, points, pole_at=None):
    """A BCState with one term that has atoms in both sectors; pole_at =
    (z, sector) puts a pole at z into that sector of the term."""
    mono, filled = _monomials(points), _monomials(points, 1)
    terms = draw(st.dictionaries(st.tuples(mono, mono), COEFFS, max_size=3))
    key = [draw(filled), draw(filled)]
    if pole_at is not None:
        z, sector = pole_at
        atom = ("pole", z, draw(st.sampled_from((1, 2))))
        key[sector] = tuple(sorted(set(key[sector]) | {atom}, key=atom_sort_key))
    terms[tuple(key)] = draw(COEFFS)
    return BCState(terms)


@st.composite
def ext_states(draw, points, pole_at=None):
    """An ExtState with a term of at least one atom; pole_at = z puts a pole
    at z into that term."""
    terms = draw(st.dictionaries(_monomials(points), COEFFS, max_size=3))
    key = draw(_monomials(points, 1))
    if pole_at is not None:
        key = tuple(sorted(set(key) | {("pole", pole_at, 1)}, key=atom_sort_key))
    terms[key] = draw(COEFFS)
    return ExtState(terms)


def _outcome(fn, *args):
    """The state fn builds, or DomainError when it raises that."""
    try:
        return fn(*args)
    except DomainError:
        return DomainError


class TestSectorKernel:
    @KERNEL_CASES
    @given(data=st.data(), points=st.lists(POINTS, min_size=4, max_size=4, unique=True))
    def test_fields_match_sums_of_parts(self, data, points):
        pool, z = points[:3], points[3]
        state = data.draw(bc_states(pool))
        for field in BC_FIELDS:
            assert bc_apply(field, z, state) == contraction_oracle.bc_apply_oracle(field, z, state), field
        assert composite_b_apply(z, state) == contraction_oracle.composite_oracle(z, state)

    @KERNEL_CASES
    @given(data=st.data(), points=st.lists(POINTS, min_size=3, max_size=3, unique=True),
           sector=st.sampled_from((0, 1)))
    def test_domain_errors_match(self, data, points, sector):
        # the wedge parts read no value, so they take the pole at z and
        # compare as states; the contractions of its sector raise
        z = points[0]
        state = data.draw(bc_states(points, pole_at=(z, sector)))
        for field in BC_FIELDS:
            got = _outcome(bc_apply, field, z, state)
            assert got == _outcome(contraction_oracle.bc_apply_oracle, field, z, state), field
        assert _outcome(composite_b_apply, z, state) is DomainError
        assert _outcome(contraction_oracle.composite_oracle, z, state) is DomainError

    @pytest.mark.parametrize("field", ["b_x", "", "bc"])
    def test_unknown_field_rejected(self, field):
        for apply in (bc_apply, contraction_oracle.bc_apply_oracle):
            with pytest.raises(ValueError, match="unknown sector field"):
                apply(field, qi(1), bc_vacuum())

    @KERNEL_CASES
    @given(data=st.data(), points=st.lists(POINTS, min_size=4, max_size=4, unique=True))
    def test_psi_matches_contraction_plus_wedge(self, data, points):
        pool, z = points[:3], points[3]
        state = data.draw(ext_states(pool))
        assert psi_apply(z, state) == contraction_oracle.psi_oracle(z, state)
        for atom in (("pole", z, 1), ("pole", pool[0], 1)):
            assert state.wedge_front(atom) == contraction_oracle.ext_wedge(state, atom)

    @KERNEL_CASES
    @given(data=st.data(), points=st.lists(POINTS, min_size=3, max_size=3, unique=True))
    def test_psi_domain_error_matches(self, data, points):
        state = data.draw(ext_states(points, pole_at=points[0]))
        assert _outcome(psi_apply, points[0], state) is DomainError
        assert _outcome(contraction_oracle.psi_oracle, points[0], state) is DomainError


class TestOneStatePerCall:
    """Each field builds its result as one state, with no intermediate ones."""

    @pytest.fixture
    def built(self, monkeypatch):
        names = []
        for cls in (BCState, ExtState):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                names.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return names

    @staticmethod
    def _states():
        rng = random.Random(41)
        pool = [qi(Fraction(1, 2), 1), qi(Fraction(-1, 3)), qi(Fraction(2, 5), -1)]
        bc = BCState({})
        while len(bc.terms) < 3:
            bc = bc + rand_bc_state(rng, pool)
        ext = rand_fermion_state(rng, pool) + rand_fermion_state(rng, pool)
        return bc, ext

    def test_bc_fields(self, built):
        bc, _ = self._states()
        z = qi(Fraction(7, 3), Fraction(1, 2))
        for field in BC_FIELDS:
            del built[:]
            assert bc_apply(field, z, bc), field
            assert built == ["BCState"], field
        del built[:]
        assert composite_b_apply(z, bc)
        assert built == ["BCState"]

    def test_psi(self, built):
        _, ext = self._states()
        z = qi(Fraction(7, 3), Fraction(1, 2))
        for apply in (psi_apply, psi_i_apply, psi_e_apply):
            del built[:]
            assert apply(z, ext)
            assert built == ["ExtState"], apply.__name__
