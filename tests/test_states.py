"""Seeded property tests of the linear structure shared by every state type."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import contraction_oracle
from chiralis.boson import npoint_wick
from chiralis.current import CurrentState, InsertionContext, sl2_algebra, sl2_fundamental
from chiralis.exactnum import RatFunc, qi
from chiralis.fermion import BCState, ExtState, bc_apply
from chiralis.geometry import atom_eval, atom_sort_key
from chiralis.lattice import LatticeScalar, LatticeState, LatticeTheory, SectionClass
from chiralis.pairing import gram_matrix
from chiralis.sampling import rand_scalar
from chiralis.states import DomainError, LinComb, SymState, add_term, monomial_state

SEEDS = range(8)


def _atoms(rng, count):
    return tuple(sorted({("pole", qi(rng.randint(0, 3)), rng.randint(1, 3)) for _ in range(count)},
                        key=lambda a: (a[1].sort_key(), a[2])))


def sym_key(rng):
    return _atoms(rng, rng.randint(0, 3))


def bc_key(rng):
    return (_atoms(rng, rng.randint(0, 2)), _atoms(rng, rng.randint(0, 2)))


def current_key(rng):
    word = tuple((rng.randint(0, 2), qi(rng.randint(0, 2)), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2)))
    return (word, (rng.randint(0, 1),))


def lattice_key(rng):
    return (_atoms(rng, rng.randint(0, 2)), SectionClass([(qi(rng.randint(1, 3)), 1)]),
            rng.randint(0, 4))


# kind -> (build a state from terms, draw a key, draw a nonzero coefficient)
KINDS = {
    "sym": (SymState, sym_key, rand_scalar),
    "ext": (ExtState, sym_key, rand_scalar),
    "bc": (BCState, bc_key, rand_scalar),
    "current": (CurrentState, current_key, rand_scalar),
    "lattice": (lambda terms=None: LatticeState(2, terms), lattice_key,
                lambda rng: LatticeScalar(2, rand_scalar(rng), rand_scalar(rng))),
}


def _terms(rng, kind, count=5):
    _, key, coeff = KINDS[kind]
    out = {}
    while len(out) < count:
        c = coeff(rng)
        if c:
            out[key(rng)] = c
    return out


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestLinearStructure:
    def test_init_drops_zero_coefficients(self, kind):
        make = KINDS[kind][0]
        for seed in SEEDS:
            rng = random.Random(seed)
            terms = _terms(rng, kind)
            zeros = {key: c * 0 for key, c in _terms(rng, kind).items() if key not in terms}
            state = make({**terms, **zeros})
            assert state.terms == terms
            assert all(state.terms.values())
            assert make(zeros).is_zero()

    def test_sum_drops_cancelled_terms(self, kind):
        make = KINDS[kind][0]
        for seed in SEEDS:
            rng = random.Random(100 + seed)
            a, b = _terms(rng, kind), _terms(rng, kind)
            gone = next(iter(a))
            b[gone] = -a[gone]
            total = make(a) + make(b)
            assert gone not in total.terms
            assert all(total.terms.values())
            assert total == make(b) + make(a)

    def test_difference_with_itself_is_zero(self, kind):
        make = KINDS[kind][0]
        for seed in SEEDS:
            state = make(_terms(random.Random(200 + seed), kind))
            diff = state - state
            assert diff.is_zero() and not diff and diff.terms == {}
            assert type(diff) is type(state)
            assert (state + (-state)).is_zero()

    def test_scale(self, kind):
        make = KINDS[kind][0]
        for seed in SEEDS:
            state = make(_terms(random.Random(300 + seed), kind))
            zero = state.scale(0)
            assert zero.is_zero() and type(zero) is type(state)
            for s in (3, Fraction(-2, 7), qi(1, -2)):
                scaled = state.scale(s)
                assert all(scaled.terms.values())
                assert scaled.terms == {k: c * s for k, c in state.terms.items()}
            assert state.scale(-1) == -state
            assert state.scale(2) - state == state

    def test_equality_is_not_implemented_across_types(self, kind):
        make = KINDS[kind][0]
        state = make(_terms(random.Random(400), kind))
        for other_kind, (other_make, _, _) in KINDS.items():
            if other_kind == kind:
                continue
            other = other_make({})
            assert LinComb.__eq__(state, other) is NotImplemented
            assert state != other
        assert make({}) != LinComb({})
        assert LinComb.__eq__(make({}), LinComb({})) is NotImplemented


def test_scale_accepts_ratfunc():
    u = RatFunc.variable(qi(1))
    for kind in ("sym", "ext", "bc", "current"):
        make = KINDS[kind][0]
        state = make(_terms(random.Random(500), kind))
        scaled = state.scale(u)
        assert scaled.terms == {k: c * u for k, c in state.terms.items()}
        assert state.scale(u - u).is_zero()


def test_current_state_keeps_ctx():
    algebra = sl2_algebra()
    ctx = InsertionContext(algebra, [(qi(0), sl2_fundamental())])
    for seed in SEEDS:
        rng = random.Random(600 + seed)
        with_ctx = CurrentState(_terms(rng, "current"), ctx)
        plain = CurrentState(_terms(rng, "current"))
        assert (with_ctx + plain).ctx is ctx
        assert (plain + with_ctx).ctx is ctx
        assert (plain - with_ctx).ctx is ctx
        assert (with_ctx - with_ctx).ctx is ctx
        assert (-with_ctx).ctx is ctx
        assert with_ctx.scale(rand_scalar(rng)).ctx is ctx
        assert with_ctx.scale(0).ctx is ctx
        assert (plain + plain).ctx is None
        # equality reads the terms only
        assert CurrentState(with_ctx.terms) == with_ctx


class TestConstruction:
    """A state is a fresh, zero-free dict in the insertion order of its input;
    an input without zeros is copied whole, with the hashes its keys hold."""

    CTX = InsertionContext(sl2_algebra(), [(qi(0), sl2_fundamental())])
    MAKERS = {"sym": SymState, "bc": BCState, "current": CurrentState,
              "current-ctx": lambda terms=None: CurrentState(terms, TestConstruction.CTX)}

    @staticmethod
    def _inputs(rng, kind):
        """Nonzero terms, and the same terms with zeros put among them."""
        base = kind.partition("-")[0]
        terms = _terms(rng, base, count=6)
        zeros = {key: c * 0 for key, c in _terms(rng, base, count=3).items() if key not in terms}
        items = list(terms.items())
        return terms, {**dict(items[:3]), **zeros, **dict(items[3:])}

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    def test_drops_zeros_keeps_order_and_copies(self, kind):
        make = self.MAKERS[kind]
        for seed in SEEDS:
            rng = random.Random(1000 + seed)
            terms, with_zeros = self._inputs(rng, kind)
            assert any(not c for c in with_zeros.values())
            for given in (dict(terms), with_zeros):
                state = make(given)
                assert list(state.terms.items()) == [(k, c) for k, c in given.items() if c]
                assert state.terms is not given
                before = list(state.terms.items())
                key = next(iter(given))
                given[key] = given[key] * 2
                given["a key of no state"] = qi(1)
                assert list(state.terms.items()) == before
                given.clear()
                assert list(state.terms.items()) == before
            if kind == "current-ctx":
                assert state.ctx is self.CTX

    def test_one_construction_counts_once(self):
        bench = str(Path(__file__).resolve().parents[1] / "bench")
        sys.path.insert(0, bench)
        try:
            import tracer as tracing
        finally:
            sys.path.remove(bench)
        terms, with_zeros = self._inputs(random.Random(1100), "sym")
        tracer = tracing.Tracer()
        try:
            tracer.install()
            for given in (terms, with_zeros, {}):
                before = tracer.counts["states.symstate_new"]
                SymState(given)
                assert tracer.counts["states.symstate_new"] - before == 1
        finally:
            tracer.uninstall()


def test_lattice_state_keeps_its_parameter():
    for seed in SEEDS:
        rng = random.Random(700 + seed)
        one, two = LatticeState(1, {}), LatticeState(2, _terms(rng, "lattice"))
        with pytest.raises(ValueError):
            one + two
        with pytest.raises(ValueError):
            two - one
        assert one != LatticeState(2, {})
        assert (two - two).N == 2 and (two + two).N == 2 and two.scale(0).N == 2
        scaled = two.scale(rand_scalar(rng) or 1)
        assert scaled.N == 2
        assert all(isinstance(c, LatticeScalar) and c.N == 2 for c in scaled.terms.values())


@pytest.mark.parametrize("call", [
    lambda: gram_matrix([qi(0), Fraction(0)], 1),
    lambda: InsertionContext(sl2_algebra(), [(1, sl2_fundamental()), (qi(1), sl2_fundamental())]),
    lambda: npoint_wick([qi(2), qi(1), qi(2)]),
], ids=["gram_matrix", "InsertionContext", "npoint_wick"])
def test_repeated_points_fail_one_distinctness_check(call):
    with pytest.raises(DomainError, match="^points must be pairwise distinct$"):
        call()


def test_add_term():
    rng = random.Random(800)
    for _ in range(50):
        out, ref = {}, {}
        for _ in range(12):
            key, val = rng.randint(0, 3), rand_scalar(rng, span=2)
            add_term(out, key, val)
            ref[key] = ref.get(key, 0) + val
            add_term(out, key, val * 0)
        assert out == {k: v for k, v in ref.items() if v}
        assert all(out.values())


def test_state_classes_inherit_the_linear_structure():
    """Only the ctx rule of CurrentState and the N rule of LatticeState add
    their own versions of the linear operations; a sum's rule is the one
    merge step ``_merge`` that ``+`` and ``-`` share."""
    own = {"_merge", "__add__", "__sub__", "__neg__", "scale", "is_zero", "__bool__", "__eq__"}
    allowed = {CurrentState: {"_merge"}, LatticeState: {"_merge", "scale", "__eq__"}}
    for cls in (SymState, ExtState, BCState, CurrentState, LatticeState):
        assert issubclass(cls, LinComb)
        assert own & set(vars(cls)) == allowed.get(cls, set())


class TestAtomMemo:
    """Every contraction reads its atom values through one per-call memo; the
    per-occurrence loops of ``contraction_oracle`` give the same states."""

    @staticmethod
    def _pool(rng):
        # no pole at 0, where the ("poly", m >= 1) atoms take the value 0
        pool = [("pole", qi(rng.choice([-2, -1, 1, 2]), rng.randint(0, 1)), rng.randint(1, 3))
                for _ in range(3)]
        return pool + [("poly", rng.randint(0, 2))]

    @staticmethod
    def _counting(fn, seen):
        def counted(atom):
            seen.append(atom)
            return fn(atom)
        return counted

    def test_sym_contract_and_derive(self):
        for seed in SEEDS:
            rng = random.Random(900 + seed)
            pool = self._pool(rng)
            state = SymState()
            for _ in range(4):
                atoms = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
                state = state + monomial_state(atoms, rand_scalar(rng) or qi(1))
            z = rng.choice([qi(0), qi(7, 1), qi(Fraction(5, 2))])
            seen = []
            got = state.contract(self._counting(lambda a: atom_eval(a, z), seen))
            assert got == contraction_oracle.sym_contract(state, lambda a: atom_eval(a, z))
            assert sorted(seen, key=repr) == sorted(state.atoms(), key=repr)

            def image(atom):
                if atom[0] == "pole":
                    return {("pole", atom[1], atom[2] + 1): qi(atom[2]), ("poly", 1): qi(0, 1)}
                return {("poly", atom[1] + 1): qi(atom[1] + 1)}

            seen = []
            want = contraction_oracle.sym_derive(state, image)
            assert state.derive_atoms(self._counting(image, seen)) == want
            assert sorted(seen, key=repr) == sorted(state.atoms(), key=repr)

    def test_ext_contract(self):
        for seed in SEEDS:
            rng = random.Random(950 + seed)
            pool = self._pool(rng)
            state = ExtState({})
            for _ in range(5):
                atoms = _sorted_atoms(rng.sample(pool, rng.randint(0, 4)))
                state = state + ExtState({atoms: rand_scalar(rng) or qi(1)})
            z = qi(5, -1)
            seen = []
            got = state.contract(self._counting(lambda a: atom_eval(a, z), seen))
            assert got == contraction_oracle.ext_contract(state, lambda a: atom_eval(a, z))
            assert len(seen) == len(set(seen))

    def test_bc_contractions(self):
        for seed in SEEDS:
            rng = random.Random(1000 + seed)
            pool = [("pole", qi(rng.randint(-2, 2), rng.randint(0, 1)), 1) for _ in range(4)]
            terms = {}
            for _ in range(5):
                key = (_sorted_atoms(rng.sample(pool, rng.randint(0, 3))),
                       _sorted_atoms(rng.sample(pool, rng.randint(0, 3))))
                terms[key] = rand_scalar(rng) or qi(1)
            state = BCState(terms)
            z = qi(4, 1)
            for field in ("b_i", "c_i"):
                want = contraction_oracle.bc_contract(field, lambda a: atom_eval(a, z), state)
                assert bc_apply(field, z, state) == want, field

    def test_lattice_iota(self):
        for seed in SEEDS:
            rng = random.Random(1050 + seed)
            theory = LatticeTheory(rng.choice([1, 2, 3]))
            pool = [("pole", qi(rng.randint(-2, 2)), rng.randint(1, 2)) for _ in range(2)]
            pool.append(("poly", 2))
            sections = [SectionClass([(qi(rng.randint(3, 5)), rng.randint(-2, 2))])
                        for _ in range(2)]
            state = LatticeState(theory.N, {})
            for _ in range(5):
                atoms = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
                coeff = rand_scalar(rng) or qi(1)
                state = state + theory.monomial(atoms, rng.choice(sections)).scale(coeff)
            z = qi(Fraction(1, 2), 1)
            assert theory.iota(z, state) == contraction_oracle.lattice_iota(theory, z, state)


def _sorted_atoms(atoms):
    return tuple(sorted(atoms, key=atom_sort_key))
