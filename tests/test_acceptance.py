"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion with its runtime against the stated budget.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from chiralis.exactnum import GaussRational, QI_ONE, QI_ZERO, RatFunc, qi, residue_at
from chiralis.sampling import (
    rand_distinct_scalars,
    rand_ratfunc,
    rand_scalar,
)
from chiralis.states import DomainError, SymState, monomial_state, vacuum

from closed_form_oracle import (
    composite_two_point,
    four_point_closed_form,
    gram_entry_closed_form,
    rand_disc_point,
    residue_pair_degree_one,
    three_point_closed_form,
)


def _criterion(number: int, name: str, budget: float):
    def wrap(fn):
        def inner(*a, **k):
            start = time.time()
            try:
                fn(*a, **k)
            except Exception:
                elapsed = time.time() - start
                print(f"[FAIL] criterion {number}: {name} ({elapsed:.2f}s)")
                raise
            elapsed = time.time() - start
            verdict = "PASS" if elapsed < budget else "FAIL"
            print(f"[{verdict}] criterion {number}: {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
            assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded the {budget}s budget"

        inner.__name__ = fn.__name__
        return inner

    return wrap


def _rand_form_state(rng, pool, max_degree=3, max_order=3):
    out = SymState()
    for _ in range(rng.randint(1, 2)):
        atoms = [
            ("pole", rng.choice(pool), rng.randint(2, max_order))
            for _ in range(rng.randint(0, max_degree))
        ]
        out = out + monomial_state(atoms, rand_scalar(rng))
    return out if out else vacuum()


@_criterion(1, "boson pair-sum / operator agreement", 5.0)
def test_criterion_1_wick_agreement():
    from chiralis.boson import npoint_operator, npoint_wick

    rng = random.Random(101)
    for n in (2, 4, 6):
        for _ in range(20):
            pts = rand_distinct_scalars(rng, n, span=8)
            assert npoint_wick(pts) == npoint_operator(pts)


@_criterion(2, "boson locality", 5.0)
def test_criterion_2_locality():
    from chiralis.boson import b_apply

    rng = random.Random(102)
    checked = 0
    while checked < 50:
        pool = rand_distinct_scalars(rng, 3, span=4)
        v = _rand_form_state(rng, pool, max_degree=4)
        z1, z2 = rand_distinct_scalars(rng, 2, span=9)
        if any(not (z - c) for z in (z1, z2) for c in pool):
            continue
        assert b_apply(z1, b_apply(z2, v)) == b_apply(z2, b_apply(z1, v))
        checked += 1


@_criterion(3, "operator product expansions", 10.0)
def test_criterion_3_ope():
    from chiralis.boson import T_apply, b_apply, e_apply, ope_extract

    rng = random.Random(103)
    z = qi(1)
    exp = ope_extract("b", "b", z, vacuum(), 0)
    assert exp.coefficient(-2) == vacuum()
    assert exp.coefficient(-1).is_zero()
    assert exp.regular == e_apply(z, e_apply(z, vacuum()))
    for _ in range(3):
        pool = [p for p in rand_distinct_scalars(rng, 2, span=4) if (p - z)]
        v = _rand_form_state(rng, pool, max_degree=2)
        exp = ope_extract("b", "b", z, v, 0)
        assert exp.coefficient(-2) == v
        ii = lambda s: None
        from chiralis.boson import i_apply

        regular_expected = (
            i_apply(z, i_apply(z, v))
            + e_apply(z, e_apply(z, v))
            + e_apply(z, i_apply(z, v)).scale(2)
        )
        assert exp.regular == regular_expected
        texp = ope_extract("T", "T", z, v, 0)
        assert texp.coefficient(-4) == v.scale(Fraction(1, 2))
        assert texp.coefficient(-2) == T_apply(z, v).scale(2)


@_criterion(4, "measured central terms", 30.0)
def test_criterion_4_central_terms():
    from chiralis.symmetry import heis_commutator_check, virasoro_bracket_check

    rng = random.Random(104)
    for _ in range(30):
        phi = rand_ratfunc(rng, max_poles=1)
        psi = rand_ratfunc(rng, max_poles=1)
        heis_commutator_check(phi, psi, 0)  # raises unless central and exact
    for l in range(-4, 5):
        for m in range(-4, 5):
            if l == 0 and m == 0:
                continue
            measured = virasoro_bracket_check(l, m, max_degree=4)
            expected = (
                qi(Fraction(l ** 3 - l, 12)) if l + m == 0 else QI_ZERO
            )
            assert measured == expected, (l, m, measured)


@_criterion(5, "reflection positivity", 20.0)
def test_criterion_5_reflection_positivity():
    from chiralis.pairing import (
        gram_matrix,
        hermitian_inner_disc,
        leading_minors,
        positivity_check,
    )
    from chiralis.pairing import _e_state

    rng = random.Random(105)
    for count in (1, 2, 3, 4):
        pts = []
        while len(pts) < count:
            p = rand_disc_point(rng)
            if p not in pts:
                pts.append(p)
        _, matrix = gram_matrix(pts, 2)
        n = len(matrix)
        for i in range(n):
            for j in range(n):
                assert matrix[i][j] == matrix[j][i].conjugate()
        for minor in leading_minors(matrix):
            assert minor.is_rational() and minor.re > 0
    # closed form vs inner product on configurations of up to 3 points
    for count in (1, 2, 3):
        ys, zs = [], []
        while len(ys) < count:
            p = rand_disc_point(rng)
            if p not in ys:
                ys.append(p)
        while len(zs) < count:
            p = rand_disc_point(rng)
            if p not in zs:
                zs.append(p)
        assert gram_entry_closed_form(ys, zs) == hermitian_inner_disc(
            _e_state(ys), _e_state(zs)
        )
    assert positivity_check([qi(Fraction(1, 3)), qi(0, Fraction(1, 2))], 2)


@_criterion(6, "vertex structure axiom suites", 60.0)
def test_criterion_6_vertex_axioms():
    from chiralis.vertexalg import axiom_suite

    for structure in ("comm", "prime"):
        report = axiom_suite(structure, seed=106, degree=3, samples=25)
        for name, entry in report.items():
            assert entry["passed"], (structure, name, entry["witness"])
        assert set(report) >= {
            "identity",
            "creation-at-zero",
            "creation-translates",
            "support-containment",
            "skew-symmetry",
            "translation-covariance",
            "rotation-covariance",
            "commutativity",
            "associativity",
            "lowering-derivative",
        }


@_criterion(7, "current algebra", 90.0)
def test_criterion_7_current():
    from chiralis.current import (
        InsertionContext,
        J_P_apply,
        J_site_apply,
        affine_bracket_check,
        base_point_independence_check,
        current_vacuum,
        j_apply,
        npoint_current,
        npoint_current_operator,
        pbw_normalize,
        sl2_algebra,
        sl2_fundamental,
    )

    algebra = sl2_algebra()
    rng = random.Random(107)
    labels = ("e", "h", "f")

    def rand_cstate(pool, ctx=None, ins=None, max_len=2):
        word = tuple(
            (rng.randrange(3), rng.choice(pool), rng.randint(1, 2))
            for _ in range(rng.randint(0, max_len))
        )
        out = pbw_normalize(algebra, word, ins or (), rand_scalar(rng), ctx)
        return out if out else current_vacuum(ctx, ins)

    # locality, 30 samples, with and without one insertion
    ctx = InsertionContext(algebra, [(qi(0), sl2_fundamental())])
    checked = 0
    while checked < 30:
        with_ins = checked % 2 == 0
        pool = [qi(1), qi(-2)] if with_ins else [qi(0), qi(1), qi(-2)]
        s = (
            rand_cstate(pool, ctx=ctx, ins=(rng.randint(0, 1),))
            if with_ins
            else rand_cstate(pool)
        )
        z1, z2 = rand_distinct_scalars(rng, 2, span=6)
        if any(not (z - c) for z in (z1, z2) for c in pool + [qi(0)]):
            continue
        va, vb = rng.choice(labels), rng.choice(labels)
        lhs = j_apply(algebra, va, z1, j_apply(algebra, vb, z2, s))
        rhs = j_apply(algebra, vb, z2, j_apply(algebra, va, z1, s))
        assert lhs == rhs
        checked += 1
    # correlation recursion vs operator composition, n <= 4
    for n in (2, 3, 4):
        for _ in range(5):
            pts = rand_distinct_scalars(rng, n, span=6)
            vs = [rng.choice(labels) for _ in range(n)]
            assert npoint_current(algebra, vs, pts) == npoint_current_operator(
                algebra, vs, pts
            )
    # printed closed forms, 10 random tuples
    for _ in range(10):
        pts3 = rand_distinct_scalars(rng, 3, span=6)
        vs3 = [rng.choice(labels) for _ in range(3)]
        assert npoint_current(algebra, vs3, pts3) == three_point_closed_form(
            algebra, vs3, pts3
        )
        pts4 = rand_distinct_scalars(rng, 4, span=6)
        vs4 = [rng.choice(labels) for _ in range(4)]
        assert npoint_current(algebra, vs4, pts4) == four_point_closed_form(
            algebra, vs4, pts4
        )
    # affine mode brackets, |l|,|m| <= 3
    for va in labels:
        for vb in labels:
            for l in range(-3, 4):
                for m in range(-3, 4):
                    ea = algebra.basis_element(va)
                    eb = algebra.basis_element(vb)
                    expected = (
                        algebra.pair(ea, eb) * l if l + m == 0 else QI_ZERO
                    )
                    assert (
                        affine_bracket_check(algebra, va, l, vb, m) == expected
                    ), (va, l, vb, m)
    # site operators commute and sum to the infinity operator
    U = RatFunc.variable(QI_ONE)
    ctx2 = InsertionContext(
        algebra, [(qi(0), sl2_fundamental()), (qi(1), sl2_fundamental())]
    )
    for _ in range(5):
        s = rand_cstate([qi(0), qi(1)], ctx=ctx2, ins=(rng.randint(0, 1), rng.randint(0, 1)))
        nu1 = {"e": 1 / (U - qi(0)), "h": RatFunc.const(rand_scalar(rng))}
        nu2 = {"f": 1 / (U - qi(1)) ** 2}
        lhs = J_site_apply(algebra, nu1, 0, J_site_apply(algebra, nu2, 1, s))
        rhs = J_site_apply(algebra, nu2, 1, J_site_apply(algebra, nu1, 0, s))
        assert lhs == rhs
        nu = {
            "e": 1 / (U - qi(0)) + rand_scalar(rng) * U,
            "f": 1 / (U - qi(1)) ** 2,
        }
        total = J_site_apply(algebra, nu, 0, s) + J_site_apply(algebra, nu, 1, s)
        assert total == J_P_apply(algebra, nu, s)
    # base-point independence on degree <= 2
    for word in (
        (),
        ((0, qi(Fraction(1, 2)), 1),),
        ((0, qi(Fraction(1, 2)), 1), (2, qi(Fraction(-1, 3)), 2)),
    ):
        assert base_point_independence_check(algebra, "h", qi(5), word)


@_criterion(8, "current pairing", 10.0)
def test_criterion_8_current_pairing():
    from chiralis.current import (
        abelian_algebra,
        current_pair,
        pbw_normalize,
        sl2_algebra,
    )

    points_dual = [qi(Fraction(1, 2)), qi(Fraction(-1, 3)), qi(0, Fraction(1, 4))]
    points_state = [qi(0), qi(Fraction(1, 5)), qi(Fraction(-2, 7))]
    for algebra in (sl2_algebra(), abelian_algebra()):
        for a in range(algebra.dim):
            for b in range(algebra.dim):
                for l in (1, 2, 3):
                    for m in (1, 2, 3):
                        ctil = points_dual[(a + l) % 3]
                        c = points_state[(b + m) % 3]
                        dual = pbw_normalize(algebra, ((a, ctil, l),))
                        state = pbw_normalize(algebra, ((b, c, m),))
                        assert current_pair(algebra, dual, state) == (
                            residue_pair_degree_one(algebra, (a, ctil, l), (b, c, m))
                        )
    # degenerate region violations rejected
    sl2 = sl2_algebra()
    dual = pbw_normalize(sl2, ((0, qi(Fraction(1, 2)), 1),))
    with pytest.raises(DomainError):
        current_pair(sl2, dual, pbw_normalize(sl2, ((0, qi(3), 1),)))
    with pytest.raises(DomainError):
        current_pair(sl2, pbw_normalize(sl2, ((0, qi(2), 1),)), pbw_normalize(sl2, ((0, qi(0), 1),)))


@_criterion(9, "lattice fields", 30.0)
def test_criterion_9_lattice():
    from chiralis.lattice import LatticeTheory, SectionClass, du_power_balance

    rng = random.Random(109)
    for N in (1, 2, 4):
        th = LatticeTheory(N)
        base = th.vacuum(SectionClass())
        for l1 in range(-2, 3):
            for l2 in range(-2, 3):
                if not l1 or not l2:
                    continue
                z1, z2 = rand_distinct_scalars(rng, 2, span=4)
                assert th.sign_rule_check(l1, l2, z1, z2, base)
        # the current commutes with the vertex fields
        for _ in range(3):
            sec = SectionClass([(rand_scalar(rng, span=2), rng.choice((-1, 1)))])
            zV, zj = rand_distinct_scalars(rng, 2, span=6)
            if sec.multiplicity(zV) or sec.multiplicity(zj):
                continue
            s = th.vacuum(sec)
            lam = rng.choice((-1, 1, 2))
            assert th.j(zj, th.vertex(lam, zV, s)) == th.vertex(lam, zV, th.j(zj, s))
    # zero modes on 10 random factored sections (N = 1)
    th1 = LatticeTheory(1)
    for _ in range(10):
        roots = []
        for _ in range(rng.randint(0, 3)):
            c = rand_scalar(rng, span=3)
            if all(c != r for r, _ in roots):
                roots.append((c, rng.choice((-2, -1, 1, 2))))
        sec = SectionClass(roots)
        assert th1.zero_mode_check(sec) == qi(sec.grade)
    # du ledger after scripted applications
    for N in (1, 2, 4):
        th = LatticeTheory(N)
        sec = SectionClass([(qi(1), 1)])
        state = th.vacuum(sec)
        for lam, z in ((1, qi(3)), (-1, qi(-2)), (2, qi(5))):
            before = {key[1].grade: key[2] for key in state.terms}
            state = th.vertex(lam, z, state)
            for (_, section, tdu, _) in state.terms:
                old = section.grade - lam
                assert tdu == before[old] + N * lam + 2 * du_power_balance(N, old, lam)


@_criterion(10, "fermion and sector fields", 60.0)
def test_criterion_10_fermion_bc():
    from chiralis.boson import b_apply, e_apply, i_apply, npoint_wick
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
    )
    from chiralis.geometry import atom_sort_key, bergman_genus0

    rng = random.Random(110)

    def rand_fstate(pool):
        atoms = set()
        for c in pool:
            if rng.random() < 0.7:
                atoms.add(("pole", c, rng.randint(1, 3)))
        mon = tuple(sorted(atoms, key=atom_sort_key))
        return ExtState({mon: rand_scalar(rng)}) if mon else fermion_vacuum()

    def rand_bcstate(pool):
        b, c = set(), set()
        for p in pool:
            if rng.random() < 0.6:
                b.add(("pole", p, rng.randint(1, 2)))
            if rng.random() < 0.6:
                c.add(("pole", p, rng.randint(1, 2)))
        key = (tuple(sorted(b, key=atom_sort_key)), tuple(sorted(c, key=atom_sort_key)))
        return BCState({key: rand_scalar(rng)}) if (key[0] or key[1]) else bc_vacuum()

    # anticommutators and antisymmetric modes
    checked = 0
    while checked < 10:
        pool = rand_distinct_scalars(rng, 2, span=4)
        s = rand_fstate(pool)
        z1, z2 = rand_distinct_scalars(rng, 2, span=8)
        if any(not (z - c) for z in (z1, z2) for c in pool):
            continue
        anti = psi_apply(z1, psi_apply(z2, s)) + psi_apply(z2, psi_apply(z1, s))
        assert anti.is_zero()
        checked += 1
    v = fermion_vacuum()
    half = Fraction(1, 2)
    assert mode_psi(half, mode_psi(-half, v)) + mode_psi(-half, mode_psi(half, v)) == v
    assert mode_psi(half, v).is_zero()
    a = mode_psi(-half, mode_psi(Fraction(-3, 2), v))
    assert a == mode_psi(Fraction(-3, 2), mode_psi(-half, v)).scale(-1)
    # signed pair sum equals operator composition, n <= 6
    for n in (2, 4, 6):
        pts = rand_distinct_scalars(rng, n, span=9)
        assert fermion_npoint(pts) == fermion_npoint_operator(pts)
    # the four sector anticommutation rules on random states
    checked = 0
    while checked < 6:
        pool = rand_distinct_scalars(rng, 2, span=4)
        s = rand_bcstate(pool)
        z1, z2 = rand_distinct_scalars(rng, 2, span=8)
        if any(not (z - c) for z in (z1, z2) for c in pool):
            continue
        for f in ("b_e", "b_i", "c_e", "c_i"):
            anti = bc_apply(f, z1, bc_apply(f, z2, s)) + bc_apply(f, z2, bc_apply(f, z1, s))
            assert anti.is_zero(), f
        lhs = bc_apply("b_i", z1, bc_apply("c_e", z2, s)) + bc_apply(
            "c_e", z2, bc_apply("b_i", z1, s)
        )
        assert lhs == s.scale(1 / (z2 - z1))
        lhs = bc_apply("c_i", z1, bc_apply("b_e", z2, s)) + bc_apply(
            "b_e", z2, bc_apply("c_i", z1, s)
        )
        assert lhs == s.scale(-1 / (z1 - z2))
        ab = composite_b_apply(z1, composite_b_apply(z2, s))
        ba = composite_b_apply(z2, composite_b_apply(z1, s))
        assert ab == ba
        checked += 1
    # composite two-point equals the boson kernel on 10 random pairs
    for _ in range(10):
        z1, z2 = rand_distinct_scalars(rng, 2, span=9)
        assert composite_two_point(z1, z2) == npoint_wick([z1, z2])
    # kernel-driven boson reproduces the boson fields operator for operator
    kb = KernelBoson(bergman_genus0())
    for _ in range(5):
        pts = rand_distinct_scalars(rng, 3, span=5)
        st = monomial_state([("pole", pts[0], 2), ("pole", pts[1], 3)], rand_scalar(rng))
        z = pts[2]
        assert kb.e_apply(z, st) == e_apply(z, st)
        assert kb.i_apply(z, st) == i_apply(z, st)
        assert kb.b_apply(z, st) == b_apply(z, st)


@_criterion(11, "cross-avatar coherence", 10.0)
def test_criterion_11_cross_avatar():
    from chiralis.boson import davatar_check, eps_tilde_offset

    rng = random.Random(111)
    checked = 0
    while checked < 20:
        atoms = [
            ("pole", c, rng.randint(1, 3))
            for c in rand_distinct_scalars(rng, rng.randint(0, 3), span=4)
        ]
        s = monomial_state(atoms, rand_scalar(rng)) if atoms else vacuum()
        z = rand_scalar(rng, span=8)
        if not z or any(not (z - a[1]) for a in atoms):
            continue
        assert davatar_check(z, s)
        checked += 1
    for z in (qi(2), qi(-3), qi(0, 1), qi(Fraction(5, 7))):
        assert eps_tilde_offset(z) == RatFunc.const(1 / z)
