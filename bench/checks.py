"""The check kinds: how each generated input drives chiralis, and how each
output is verified.

``prepare`` turns generated data into program objects (part of set-up).
``run`` is the timed work of one check and returns the program's outputs.
``verify`` runs after both passes, untimed, and returns True when every
output agrees with its independent reference or property.  The outputs of
the kinds whose reference comes from sympy (``gen.SYMPY_KINDS``) are sent
to the parent process, which compares them with ``sympy_refs.py``.

The run functions import program functions when called, so that a traced
process calls the tracer's wrappers (``tracer.py``).
"""

from __future__ import annotations

from fractions import Fraction

import refs
from chiralis.exactnum import INFINITY, QI_ONE, RatFunc, GaussRational
from chiralis.states import SymState, monomial_state


def g(q) -> GaussRational:
    return GaussRational(q[0], q[1])


def q(x: GaussRational):
    """Program scalar -> reference pair of Fractions."""
    return (Fraction(x.re), Fraction(x.im))


def symstate(terms) -> SymState:
    out = SymState()
    for atoms, coeff in terms:
        out = out + monomial_state([(kind, g(c), k) for kind, c, k in atoms], g(coeff))
    return out


def testfn(terms) -> RatFunc:
    u = RatFunc.variable(QI_ONE)
    out = RatFunc.const(GaussRational(0))
    for term in terms:
        if term[0] == "mono":
            out = out + u ** term[1] * g(term[2])
        else:
            out = out + (u - g(term[1])) ** -term[2] * g(term[3])
    return out


class Context:
    """Objects shared by the checks of one process: built once in set-up."""

    def __init__(self, workload):
        self.algebra = None
        if workload == "current-sl2":
            from chiralis.current import InsertionContext, sl2_algebra, sl2_fundamental

            self.algebra = sl2_algebra()
            self.ins_ctx = InsertionContext(self.algebra, [(GaussRational(0), sl2_fundamental())])
            self.two_sites = InsertionContext(
                self.algebra, [(GaussRational(0), sl2_fundamental()), (GaussRational(1), sl2_fundamental())])


# ---------------------------------------------------------------------------
# boson-modes
# ---------------------------------------------------------------------------


def prep_heis(p, ctx):
    return testfn(p["phi"]), testfn(p["psi"]), INFINITY if p["site"] == "inf" else GaussRational(0)


def run_heis(x, ctx):
    from chiralis.symmetry import heis_commutator_check

    phi, psi, site = x
    return heis_commutator_check(phi, psi, site)


def run_vir(x, ctx):
    from chiralis.symmetry import virasoro_bracket_check

    return virasoro_bracket_check(x["l"], x["m"], max_degree=4)


def verify_vir(p, x, out, ctx):
    return q(out) == refs.virasoro_central(p["l"], p["m"])


def prep_Lb(p, ctx):
    return p["m"], p["n"], [symstate(s) for s in p["states"]]


def run_Lb(x, ctx):
    from chiralis.symmetry import bracket_L_b, mode_b

    m, n, states = x
    return [(bracket_L_b(m, n, v), mode_b(n + m, v)) for v in states]


def verify_Lb(p, x, out, ctx):
    n = p["n"]
    return all(lhs == rhs.scale(-n) for lhs, rhs in out)


def prep_gram(p, ctx):
    return [g(c) for c in p["points"]], p["degree"]


def run_gram(x, ctx):
    from chiralis.pairing import gram_matrix, leading_minors

    labels, matrix = gram_matrix(*x)
    return labels, matrix, leading_minors(matrix)


def verify_gram(p, x, out, ctx):
    labels, matrix, minors = out
    if labels != refs.gram_labels(len(p["points"]), p["degree"]):
        return False
    got = [[q(v) for v in row] for row in matrix]
    want = refs.gram_matrix(p["points"], p["degree"])
    n = len(want)
    hermitian = all(got[i][j] == refs.conj(got[j][i]) for i in range(n) for j in range(n))
    want_minors = refs.leading_minors(want)
    positive = all(m[1] == 0 and m[0] > 0 for m in want_minors)
    return hermitian and got == want and [q(m) for m in minors] == want_minors and positive


# ---------------------------------------------------------------------------
# current-sl2
# ---------------------------------------------------------------------------


def current_state(ctx, word, coeff, ins=(), ins_ctx=None):
    from chiralis.current import current_vacuum, pbw_normalize

    word = tuple((a, g(c), l) for a, c, l in word)
    s = pbw_normalize(ctx.algebra, word, tuple(ins), g(coeff), ins_ctx)
    return s if s else current_vacuum(ins_ctx, tuple(ins) if ins_ctx else None)


def prep_loc(p, ctx):
    return dict(p, z1=g(p["z1"]), z2=g(p["z2"]))


def run_loc(x, ctx):
    from chiralis.current import j_apply

    alg = ctx.algebra
    if x["ins"] is None:
        s = current_state(ctx, x["word"], x["coeff"])
    else:
        s = current_state(ctx, x["word"], x["coeff"], (x["ins"],), ctx.ins_ctx)
    z1, z2, va, vb = x["z1"], x["z2"], x["va"], x["vb"]
    lhs = j_apply(alg, va, z1, j_apply(alg, vb, z2, s))
    rhs = j_apply(alg, vb, z2, j_apply(alg, va, z1, s))
    return lhs, rhs


def verify_loc(p, x, out, ctx):
    return out[0] == out[1]


def prep_npt(p, ctx):
    return p["labels"], [g(c) for c in p["points"]]


def run_npt(x, ctx):
    from chiralis.current import npoint_current, npoint_current_operator

    labels, pts = x
    return npoint_current(ctx.algebra, labels, pts), npoint_current_operator(ctx.algebra, labels, pts)


def verify_npt(p, x, out, ctx):
    want = refs.sl2_npoint(p["labels"], p["points"])
    return q(out[0]) == want and q(out[1]) == want


def run_aff(x, ctx):
    from chiralis.current import affine_bracket_check

    return affine_bracket_check(ctx.algebra, x["a"], x["l"], x["b"], x["m"])


def verify_aff(p, x, out, ctx):
    return q(out) == refs.affine_central(p["a"], p["l"], p["b"], p["m"])


def prep_pair(p, ctx):
    (a, ctil, l), (b, c, m) = p["dual"], p["gen"]
    return (a, g(ctil), l), (b, g(c), m)


def run_pair(x, ctx):
    from chiralis.current import current_pair, pbw_normalize

    dual, gen = x
    alg = ctx.algebra
    return current_pair(alg, pbw_normalize(alg, (dual,)), pbw_normalize(alg, (gen,)))


def prep_site(p, ctx):
    u = RatFunc.variable(QI_ONE)
    zero, one = GaussRational(0), GaussRational(1)
    nu1 = {"e": 1 / (u - zero) ** p["k1"], "h": RatFunc.const(g(p["h"]))}
    nu2 = {"f": 1 / (u - one) ** p["k2"]}
    nu = {"e": 1 / (u - zero) + u * g(p["slope"]), "f": 1 / (u - one) ** 2}
    return dict(p, nu1=nu1, nu2=nu2, nu=nu)


def run_site(x, ctx):
    from chiralis.current import J_P_apply, J_site_apply

    alg = ctx.algebra
    s = current_state(ctx, (), x["coeff"], x["ins"], ctx.two_sites)
    nu1, nu2, nu = x["nu1"], x["nu2"], x["nu"]
    lhs = J_site_apply(alg, nu1, 0, J_site_apply(alg, nu2, 1, s))
    rhs = J_site_apply(alg, nu2, 1, J_site_apply(alg, nu1, 0, s))
    total = J_site_apply(alg, nu, 0, s) + J_site_apply(alg, nu, 1, s)
    return lhs, rhs, total, J_P_apply(alg, nu, s)


def verify_site(p, x, out, ctx):
    """Operators at different sites commute; the site operators sum to the
    operator at infinity."""
    lhs, rhs, total, at_infinity = out
    return lhs == rhs and total == at_infinity


def prep_ope(p, ctx):
    return dict(p, z=g(p["z"]))


def run_ope(x, ctx):
    from chiralis.current import current_expand_at_generic_point, j_apply

    s = current_state(ctx, (), x["coeff"])
    inner = j_apply(ctx.algebra, x["b"], x["z"], s)
    return s, current_expand_at_generic_point(ctx.algebra, x["a"], x["z"], inner, 0)


def verify_ope(p, x, out, ctx):
    """j_a(w) j_b(z) s around w = z: (a, b) s at order -2 and j_[a,b](z) s at
    order -1, and no deeper pole."""
    from chiralis.current import CurrentState, j_apply

    s, buckets = out
    a, b = {p["a"]: refs.ONE}, {p["b"]: refs.ONE}
    want2 = s.scale(g(refs.sl2_form(a, b)))
    br = {ctx.algebra.labels.index(k): g(c) for k, c in refs.sl2_bracket(a, b).items()}
    want1 = j_apply(ctx.algebra, br, x["z"], s) if br else CurrentState({})
    empty = CurrentState({})
    return buckets.get(-2, empty) == want2 and buckets.get(-1, empty) == want1 and min(buckets) >= -2


# ---------------------------------------------------------------------------
# fields-axioms
# ---------------------------------------------------------------------------


def prep_points(p, ctx):
    return [g(c) for c in p["points"]]


def run_bnpt(x, ctx):
    from chiralis.boson import npoint_operator, npoint_wick

    return npoint_wick(x), npoint_operator(x)


def verify_bnpt(p, x, out, ctx):
    want = refs.boson_npoint(p["points"])
    return q(out[0]) == want and q(out[1]) == want


def run_fnpt(x, ctx):
    from chiralis.fermion import fermion_npoint, fermion_npoint_operator

    return fermion_npoint(x), fermion_npoint_operator(x)


def verify_fnpt(p, x, out, ctx):
    want = refs.fermion_npoint(p["points"])
    return q(out[0]) == want and q(out[1]) == want


def prep_bloc(p, ctx):
    return symstate(p["state"]), g(p["z1"]), g(p["z2"])


def run_bloc(x, ctx):
    from chiralis.boson import b_apply

    v, z1, z2 = x
    return b_apply(z1, b_apply(z2, v)), b_apply(z2, b_apply(z1, v))


def verify_bloc(p, x, out, ctx):
    return out[0] == out[1]


def prep_tt(p, ctx):
    return g(p["z"]), symstate(p["state"])


def run_tt(x, ctx):
    from chiralis.boson import ope_extract

    z, v = x
    return ope_extract("T", "T", z, v, 0)


def verify_tt(p, x, out, ctx):
    """T(w) T(z) v around w = z: v/2 at order -4, nothing at -3, 2 T(z) v at
    order -2, and no deeper pole."""
    from chiralis.boson import T_apply

    z, v = x
    return (out.coefficient(-4) == v.scale(Fraction(1, 2))
            and out.coefficient(-3).is_zero()
            and out.coefficient(-2) == T_apply(z, v).scale(2)
            and min(out.buckets) >= -4)


def prep_vax(p, ctx):
    return dict(p, v1=symstate(p["v1"]), v2=symstate(p["v2"]), psi=symstate(p["psi"]),
                a1=g(p["a1"]), a2=g(p["a2"]), b2=g(p["b2"]), lam=g(p["lam"]))


def run_vax(x, ctx):
    """Both sides of six vertex-structure identities on fixed-shape states."""
    from chiralis.vertexalg import (rotate, structure, structure_derivative, translate,
                                    translation_generator)

    Y = structure(x["structure"])
    v1, v2, psi, a1, a2, b2, lam = (x[k] for k in ("v1", "v2", "psi", "a1", "a2", "b2", "lam"))
    inner = Y(v2, b2, psi)
    return [
        (Y(v1, a1, v2), translate(a1, Y(v2, -a1, v1))),  # skew-symmetry
        (Y(translate(a2, v1), a1, psi), translate(a2, Y(v1, a1, translate(-a2, psi)))),
        (Y(rotate(lam, v1), lam * a1, psi), rotate(lam, Y(v1, a1, rotate(1 / lam, psi)))),
        (Y(v1, a1, inner), Y(v2, b2, Y(v1, a1, psi))),  # commutativity
        (Y(Y(v1, a1 - b2, v2), b2, psi), Y(v1, a1, inner)),  # associativity
        (Y(translation_generator(v1), a1, psi), structure_derivative(Y, v1, a1, psi)),
    ]


def verify_vax(p, x, out, ctx):
    """Skew-symmetry, translation and rotation covariance, commutativity,
    associativity and the lowering-mode derivative all hold."""
    return all(lhs == rhs for lhs, rhs in out)


def run_axiom(x, ctx):
    from chiralis.vertexalg import axiom_suite

    return axiom_suite(x["structure"], seed=x["seed"], degree=x["degree"], samples=x["samples"])


def verify_axiom(p, x, out, ctx):
    return len(out) >= 8 and all(entry["passed"] and entry["checked"] for entry in out.values())


def prep_bc(p, ctx):
    from chiralis.fermion import BCState, bc_vacuum
    from chiralis.geometry import atom_sort_key

    st = p["state"]
    key = tuple(tuple(sorted((("pole", g(c), k) for c, k in st[side]), key=atom_sort_key))
                for side in ("b", "c"))
    s = BCState({key: g(st["coeff"])}) if (key[0] or key[1]) else bc_vacuum()
    return s, g(p["z1"]), g(p["z2"])


def run_bc(x, ctx):
    from chiralis.fermion import bc_apply, composite_b_apply

    s, z1, z2 = x
    out = [bc_apply(f, z1, bc_apply(f, z2, s)) + bc_apply(f, z2, bc_apply(f, z1, s))
           for f in ("b_e", "b_i", "c_e", "c_i")]
    out.append(bc_apply("b_i", z1, bc_apply("c_e", z2, s)) + bc_apply("c_e", z2, bc_apply("b_i", z1, s)))
    out.append(bc_apply("c_i", z1, bc_apply("b_e", z2, s)) + bc_apply("b_e", z2, bc_apply("c_i", z1, s)))
    out.append(composite_b_apply(z1, composite_b_apply(z2, s)))
    out.append(composite_b_apply(z2, composite_b_apply(z1, s)))
    return out


def verify_bc(p, x, out, ctx):
    """Like fields anticommute; {b_i(z1), c_e(z2)} = 1/(z2 - z1) and
    {c_i(z1), b_e(z2)} = -1/(z1 - z2); the composite fields commute."""
    s = x[0]
    d = refs.inv(refs.sub(p["z2"], p["z1"]))
    e = refs.mul(refs.rat(-1), refs.inv(refs.sub(p["z1"], p["z2"])))
    return (all(a.is_zero() for a in out[:4])
            and out[4] == s.scale(g(d)) and out[5] == s.scale(g(e)) and out[6] == out[7])


def prep_lat(p, ctx):
    from chiralis.lattice import LatticeTheory, SectionClass

    th = LatticeTheory(p["N"])
    return th, th.vacuum(SectionClass()), p["l1"], p["l2"], g(p["z1"]), g(p["z2"])


def run_lat(x, ctx):
    th, vac, l1, l2, z1, z2 = x
    a = th.vertex(l2, z2, th.vertex(l1, z1, vac))
    b = th.vertex(l1, z1, th.vertex(l2, z2, vac))
    return a, b


def verify_lat(p, x, out, ctx):
    """Exchanging V_l1(z1) and V_l2(z2) gives the sign (-1)^(N l1 l2)."""
    a, b = out
    sign = -1 if (p["N"] * p["l1"] * p["l2"]) % 2 else 1
    return bool(a) and a == b.scale(sign)


def _same(p, ctx):
    return p


def _by_parent(p, x, out, ctx):
    return True


# kind -> (prepare, run, verify); the parent verifies the sympy kinds
KINDS = {
    "heis": (prep_heis, run_heis, _by_parent),
    "vir": (_same, run_vir, verify_vir),
    "Lb": (prep_Lb, run_Lb, verify_Lb),
    "gram": (prep_gram, run_gram, verify_gram),
    "loc": (prep_loc, run_loc, verify_loc),
    "npt": (prep_npt, run_npt, verify_npt),
    "aff": (_same, run_aff, verify_aff),
    "pair": (prep_pair, run_pair, _by_parent),
    "site": (prep_site, run_site, verify_site),
    "ope": (prep_ope, run_ope, verify_ope),
    "bnpt": (prep_points, run_bnpt, verify_bnpt),
    "fnpt": (prep_points, run_fnpt, verify_fnpt),
    "bloc": (prep_bloc, run_bloc, verify_bloc),
    "tt": (prep_tt, run_tt, verify_tt),
    "vax": (prep_vax, run_vax, verify_vax),
    "axiom": (_same, run_axiom, verify_axiom),
    "bc": (prep_bc, run_bc, verify_bc),
    "lat": (prep_lat, run_lat, verify_lat),
}
