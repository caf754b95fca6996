"""Mode algebras acting on boson states.

Heisenberg operators attach a rational test function to a site (a finite
point or the point at infinity) and act by residue contraction plus a
creation term; energy operators attach a meromorphic vector field and act
through the three-part (contraction / Lie / creation) formula.  Central
terms are measured, never assumed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactnum import (
    INFINITY,
    GaussRational,
    PartialFractions,
    Point,
    Poly,
    QI_ONE,
    QI_ZERO,
    RatFunc,
    as_point,
    partial_fractions,
    residue_pairing,
)
from .geometry import (
    VectorField,
    _atom_residue,
    _binom,
    atom_derivative,
    atom_product,
    dec_atoms,
    lie_atom,
)
from .states import DomainError, SymState, add_term, central_scalar, monomial_state, vacuum

__all__ = [
    "HeisenbergOp",
    "heis_apply",
    "heis_commutator_check",
    "mode_b",
    "VirasoroOp",
    "vir_apply",
    "L_mode",
    "virasoro_bracket_check",
    "bracket_L_b",
    "primary_check",
    "heis_insertion_apply",
    "heis_P_with_insertions",
    "insertion_suite",
    "spanning_states",
]


# ---------------------------------------------------------------------------
# Heisenberg operators
# ---------------------------------------------------------------------------


class HeisenbergOp:
    """A test function attached to a site (finite point or infinity)."""

    __slots__ = ("testfn", "site", "insertions")

    def __init__(self, testfn: RatFunc, site=INFINITY, insertions=None):
        object.__setattr__(self, "testfn", testfn)
        object.__setattr__(self, "site", as_point(site))
        object.__setattr__(self, "insertions", tuple(insertions) if insertions else None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("HeisenbergOp is immutable")


_PF_CACHE: dict = {}
_HEIS_VALUE_CACHE: dict = {}


def _phi_pole_parts(phi: RatFunc):
    dec = _PF_CACHE.get(phi)
    if dec is None:
        dec = partial_fractions(phi)
        _PF_CACHE[phi] = dec
    return dec


def _singular_parts(dec, o):
    """The pole parts (c, j, g) that create at o: those at o, every one at infinity (None)."""
    return [(c, j, g) for c, j, g in dec.terms if o is None or c == o]


def _atom_derivative_residue(atoms, atom, o):
    """Res_o phi(u) atom'(u) du, with atom' from ``geometry.atom_derivative``."""
    d, w = atom_derivative(atom)
    return w * _atom_residue(atoms, d, o) if w else QI_ZERO


def heis_apply(op: HeisenbergOp, state: SymState) -> SymState:
    """Residue-contraction plus creation action on form states.

    Each basis atom pairs against phi by -Res_o(phi atom) at a finite site
    o and by +Res_inf(phi atom) at infinity.  The residues are binomial
    sums on the known poles of phi = sum p_n u^n + sum g (u-a)^(-j) (its
    cached partial fractions), with no rational-function arithmetic:

    * ("pole", o, k): sum p_n C(n, k-1) o^(n-k+1)
      + sum_{a != o} g C(-j, k-1) (o-a)^(1-j-k);
    * ("pole", c, k) with c != o: sum_{a = o} g C(-k, j-1) (o-c)^(1-j-k);
    * ("poly", m): sum_{a = o} g C(m, j-1) o^(m-j+1).

    Res_inf is minus the sum of these finite residues over the poles of
    phi and of the atom.
    """
    if op.insertions is not None:
        return heis_insertion_apply(op, state)
    phi = op.testfn
    site = op.site
    dec = _phi_pole_parts(phi)
    atoms = dec_atoms(dec)
    sign = 1 if site.is_infinity else -1

    def value(atom):
        key = (phi, site.value, atom)
        cached = _HEIS_VALUE_CACHE.get(key)
        if cached is None:
            cached = _atom_residue(atoms, atom, site.value) * sign
            _HEIS_VALUE_CACHE[key] = cached
        return cached

    # creation: the derivative, a form, of each pole part of phi singular at the site
    creation = [(("pole", c, j + 1), -j * g) for c, j, g in _singular_parts(dec, site.value)]
    return state.contract(value, creation)


def heis_commutator_check(phi: RatFunc, psi: RatFunc, site=INFINITY):
    """Measured central scalar of the commutator on a spanning family.

    Returns the scalar; raises if the commutator is not central.  The
    expected value is -Res_site(phi dpsi) at a finite site and
    +Res_site(phi dpsi) at infinity.
    """
    site = as_point(site)
    op1 = HeisenbergOp(phi, site)
    op2 = HeisenbergOp(psi, site)
    pairs = ((v.terms, (heis_apply(op1, heis_apply(op2, v)) - heis_apply(op2, heis_apply(op1, v))).terms)
             for v in spanning_states())
    measured = central_scalar(pairs, "test-function commutator") or QI_ZERO
    expected = residue_pairing(phi, psi, site)
    if not site.is_infinity:
        expected = -expected
    if measured != expected:
        raise AssertionError(
            f"central term {measured} does not match the residue {expected}"
        )
    return measured


def spanning_states():
    """A small spanning family used by the measured-bracket checks: the
    origin family, with its extra pole at 3."""
    o, c = QI_ZERO, GaussRational(3)
    out = [vacuum()]
    out.append(monomial_state([("pole", o, 2)]))
    out.append(monomial_state([("pole", o, 3)]))
    out.append(monomial_state([("pole", c, 2)]))
    out.append(monomial_state([("pole", o, 2), ("pole", o, 2)]))
    out.append(monomial_state([("pole", o, 2), ("pole", c, 3)]))
    out.append(monomial_state([("poly", 1)]))
    return out


def mode_b(l: int, state: SymState, site_point=QI_ZERO) -> SymState:
    """The l-th oscillator mode at the site o (l nonzero): ``heis_apply`` of
    phi = (u-o)^l at o, with phi's partial fractions written down, not
    found by a root search: one pole part for l < 0, which creates
    l ("pole", o, 1-l), the binomial expansion sum C(l, n) (-o)^(l-n) u^n
    for l > 0, which creates nothing."""
    if l == 0:
        raise ValueError("the oscillator family has no zero mode here")
    o = GaussRational.coerce(site_point)
    if l < 0:
        dec = PartialFractions(Poly([]), [(o, -l, QI_ONE)])
        creation = [(("pole", o, 1 - l), GaussRational(l))]
    else:
        dec = PartialFractions(Poly([_binom(l, n) * (-o) ** (l - n) for n in range(l + 1)]), [])
        creation = ()
    atoms = dec_atoms(dec)
    return state.contract(lambda atom: -_atom_residue(atoms, atom, o), creation)


# ---------------------------------------------------------------------------
# Virasoro operators
# ---------------------------------------------------------------------------


class VirasoroOp:
    __slots__ = ("X", "site")

    def __init__(self, X: VectorField, site=INFINITY):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "site", as_point(site))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("VirasoroOp is immutable")


def _sugawara_pairs(j: int):
    """[(p, q, w)]: the creation state of (u-c)^(-j) d/du is
    1/2 sum w ("pole", c, p) ("pole", c, q) over p <= q, p + q = j + 3, p >= 2,
    where the doubled weight w, an int, is -(p-1)(q-1) summed over the ordered
    pairs (p, q) and (q, p): -2(p-1)(q-1) for p < q and -(p-1)^2 for p = q."""
    return [(p, j + 3 - p, -2 * (p - 1) * (j + 2 - p) if 2 * p < j + 3 else -(p - 1) ** 2)
            for p in range(2, (j + 3) // 2 + 1)]


# unused: bench/tracer.py reads these names until the benchmark next changes
_OMEGA_CACHE: dict = {}
_VIR_PAIR_CACHE: dict = {}
_VIR_LIE_CACHE: dict = {}


def vir_apply(op: VirasoroOp, state: SymState) -> SymState:
    """Three-part action: pair contraction, projected Lie term, creation.

    With xi = sum p_n u^n + sum g (u-c)^(-j) (its cached partial fractions)
    every part is a closed form on basis atoms:

    * pairs: each unordered pair of occurrences a_i, a_j is removed with
      coefficient -Res_o(xi a_i a_j), a binomial sum over the atoms of the
      product a_i a_j (``_atom_residue``);
    * Lie term: each occurrence a becomes L_xi(a du) = d(xi a)
      (``geometry.lie_atom``), keeping only the pole atoms at o;
    * creation: multiplication by
      g (-1/2) sum_{p+q=j+3, p,q>=2} (p-1)(q-1) ("pole",c,p) ("pole",c,q)
      for each pole part g (u-c)^(-j) with c = o, the Sugawara state of
      that part translated to c.

    At infinity the pair coefficient is +Res_inf, every pole atom of the
    Lie term is kept, and every finite pole part of xi creates.
    """
    o = op.site.value
    _check_vir_domain(state, op.site)
    dec = _phi_pole_parts(op.X.xi)
    atoms = dec_atoms(dec)
    sign = 1 if op.site.is_infinity else -1
    pairs = {}
    for mon, c in state.terms.items():
        for i, j in itertools.combinations(range(len(mon)), 2):
            val = sum((w * _atom_residue(atoms, p, o) for p, w in atom_product(mon[i], mon[j])), QI_ZERO)
            if val:
                add_term(pairs, mon[:i] + mon[i + 1: j] + mon[j + 1:], c * sign * val)

    def lie(atom):
        return {a: w for a, w in lie_atom(dec, atom).items()
                if a[0] == "pole" and (o is None or a[1] == o)}

    creation = {}
    for c, j, g in _singular_parts(dec, o):
        half = g / 2
        for p, q, w in _sugawara_pairs(j):
            add_term(creation, (("pole", c, p), ("pole", c, q)), half * w)
    out = SymState(pairs) + state.derive_atoms(lie)
    return out + state.multiply(SymState(creation)) if creation else out


def _check_vir_domain(state: SymState, site: Point):
    for atom in state.atoms():
        if site.is_infinity:
            if atom[0] == "poly":
                raise DomainError("state not regular at infinity")
        else:
            if atom[0] == "poly":
                raise DomainError("state has a pole at infinity, outside this site's domain")
            if atom[0] == "pole" and atom[1] != site.value:
                raise DomainError("state has poles away from the site")


def _L_exponents(n: int, terms: dict, sign=1, out=None) -> dict:
    """Accumulate sign * (2 L_n)(terms) into out (a new dict when None); return out.
    terms maps sorted tuples of orders k of the atoms ("pole", o, k) to
    coefficients.  Each word's image is the memoized int dict of ``_L_word``,
    the image of 2 L_n, so int coefficients stay ints; a memoized dict is
    shared and never mutated, only read and scaled into out."""
    out = {} if out is None else out
    for ks, c in terms.items():
        if sign != 1:
            c = c * sign
        for w, wc in _L_word(n, ks).items():
            add_term(out, w, c * wc)
    return out


_L_WORD_CACHE: dict = {}


def _L_word(n: int, ks: tuple) -> dict:
    """2 L_n on one word ks by the closed forms stated in ``L_mode``, doubled
    so that every weight is an int (``_sugawara_pairs``); memoized."""
    cached = _L_WORD_CACHE.get((n, ks))
    if cached is not None:
        return cached
    out: dict = {}
    for i, j in itertools.combinations(range(len(ks)), 2):
        if ks[i] + ks[j] == n + 2:
            add_term(out, ks[:i] + ks[i + 1: j] + ks[j + 1:], 2)
    for i, k in enumerate(ks):
        if k - n >= 2:
            add_term(out, tuple(sorted(ks[:i] + (k - n,) + ks[i + 1:])), 2 * (k - n - 1))
    for p, q, w in _sugawara_pairs(-n - 1):  # xi = -(u-o)^(n+1): one pole part, g = -1
        add_term(out, tuple(sorted(ks + (p, q))), -w)
    _L_WORD_CACHE[n, ks] = out
    return out


def L_mode(n: int, state: SymState, site_point=QI_ZERO) -> SymState:
    """The n-th energy mode: the vector field -(u-o)^(n+1) d/du at the site o.

    This is ``vir_apply`` for xi = -(u-o)^(n+1), computed on atom
    exponents alone (``_L_exponents`` on the halved coefficients, since its
    word images are those of 2 L_n).  On the site's domain every atom is
    ("pole", o, k), and the three parts of the action have closed forms:

    * pairs: each unordered pair of occurrences with k_i + k_j = n + 2 is
      removed, with coefficient +1 (the residue -Res_o xi (u-o)^(-k_i-k_j));
    * Lie term: an occurrence of order k with k - n >= 2 becomes
      ("pole", o, k - n) with coefficient k - n - 1, since
      L_xi (u-o)^(-k) = (k-n-1) (u-o)^(n-k); lower orders are regular at
      o and project away;
    * creation (n = -m <= -2): multiplication by
      1/2 sum_{a+b=m+2, a,b>=2} (a-1)(b-1) ("pole",o,a) ("pole",o,b)
      (``_sugawara_pairs(m - 1)`` with g = -1, which sums the ordered
      pairs), the Sugawara sum 1/2 sum_{i+j=m} b_{-i} b_{-j}|0>, because
      mode_b(-k, vacuum()) = -k ("pole",o,k+1).

    Raises DomainError, as ``vir_apply`` does, when the state has a pole
    away from the site or a pole at infinity.
    """
    o = GaussRational.coerce(site_point)
    _check_vir_domain(state, Point(o))
    terms = _L_exponents(n, {tuple(atom[2] for atom in mon): c / 2 for mon, c in state.terms.items()})
    return SymState({tuple(("pole", o, k) for k in ks): c for ks, c in terms.items()})


def virasoro_bracket_check(l: int, m: int, max_degree: int = 4):
    """Measure [L_l, L_m] - (l-m) L_{l+m} on spanning origin states.

    Returns the measured central scalar (and checks it is central).  The
    states are tuples of pole orders at the origin, and ``_L_exponents``
    accumulates 4 times each bracket, (2L_l)(2L_m) - (2L_m)(2L_l) -
    2(l-m)(2L_{l+m}), in one dict of ints; the scalar is divided by 4 once.
    """

    def bracket(ks):
        v = {ks: 1}
        out = _L_exponents(l, _L_exponents(m, v))
        _L_exponents(m, _L_exponents(l, v), -1, out)
        return _L_exponents(l + m, v, 2 * (m - l), out)

    states = [(), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4),
              (2,) * min(3, max_degree)]
    pairs = (({ks: 1}, bracket(ks)) for ks in states if len(ks) <= max(max_degree, 0))
    return GaussRational(Fraction(central_scalar(pairs, f"[L_{l}, L_{m}] - ({l - m}) L_{l + m}"), 4))


def bracket_L_b(m: int, n: int, state: SymState) -> SymState:
    """[L_m, b_n] applied to a state (for comparison with -n b_{n+m})."""
    return mode_b(n, L_mode(m, state)).scale(-1) + L_mode(m, mode_b(n, state))


def primary_check(state: SymState, weight) -> bool:
    """True iff the state transforms with the given weight under the
    stabilizer fields of the origin (u d/du, u^2 d/du, u^2(u-1) d/du).

    The sign convention follows the scaling grading: the weight is the
    eigenvalue of the rotation generator L_0.
    """
    weight = GaussRational.coerce(weight)
    u = RatFunc.variable(QI_ONE)
    for xi in (u, u * u, u * u * (u - 1)):
        xi_prime_0 = xi.derivative().num.evaluate(QI_ZERO) / xi.derivative().den.evaluate(QI_ZERO)
        lhs = vir_apply(VirasoroOp(VectorField(xi), Point(QI_ZERO)), state)
        if lhs != state.scale(-weight * xi_prime_0):
            return False
    return True


# ---------------------------------------------------------------------------
# Insertion-modified operators on function states
# ---------------------------------------------------------------------------


def heis_insertion_apply(op: HeisenbergOp, state: SymState) -> SymState:
    """Site-at-an-insertion action on function states.

    ``op.site`` must be one of the insertion points; ``op.insertions`` is
    the full list of (point, weight) pairs.
    """
    phi = op.testfn
    insertions = op.insertions
    site = op.site
    if site.is_infinity:
        return heis_P_with_insertions(phi, insertions, state)
    zl = site.value
    weights = {as_point(p).value: lam for p, lam in insertions}
    if zl not in weights:
        raise DomainError("site is not an insertion point")

    dec = _phi_pole_parts(phi)
    atoms = dec_atoms(dec)
    # phi = phi_reg + phi_s, phi_s its pole part at the site: phi_reg acts by
    # lambda_site phi_reg(z_site); phi_s, which vanishes at infinity, by
    # multiplication and by -sum_{j != site} lambda_j phi_s(z_j)
    creation = []
    scalar_part = weights[zl] * dec.polynomial.evaluate(zl)
    for c, order, coeff in dec.terms:
        if c != zl:
            scalar_part = scalar_part + weights[zl] * coeff / (zl - c) ** order
            continue
        creation.append((("pole", c, order), coeff))
        for zj, lam in weights.items():
            if zj != zl:
                scalar_part = scalar_part - lam * coeff / (zj - c) ** order
    return state.contract(lambda atom: -_atom_derivative_residue(atoms, atom, zl), creation, scalar_part)


def heis_P_with_insertions(phi: RatFunc, insertions, state: SymState) -> SymState:
    """The site-at-infinity operator on function states with insertions."""
    dec = _phi_pole_parts(phi)
    atoms = dec_atoms(dec)
    # the pole parts of phi (regular at infinity) act by multiplication; the
    # polynomial part p by p(inf) = p_0 times the total weight plus
    # sum_j lambda_j (p(z_j) - p_0), that is by sum_j lambda_j p(z_j)
    scalar_part = QI_ZERO
    for p, lam in insertions:
        scalar_part = scalar_part + GaussRational.coerce(lam) * dec.polynomial.evaluate(as_point(p).value)
    creation = [(("pole", c, order), coeff) for c, order, coeff in dec.terms]
    return state.contract(lambda atom: _atom_derivative_residue(atoms, atom, None), creation, scalar_part)


def insertion_suite(points, lambdas, rng) -> dict:
    """Verify the four insertion-operator identities on random data."""
    from .sampling import rand_ratfunc, rand_scalar

    pts = [GaussRational.coerce(p) for p in points]
    lams = [GaussRational.coerce(l) for l in lambdas]
    ins = list(zip(pts, lams))
    report = {}

    def rand_state():
        out = vacuum()
        for _ in range(rng.randint(0, 2)):
            zi = rng.choice(pts)
            out = out.multiply_atom(("pole", zi, rng.randint(1, 2)), rand_scalar(rng))
        return out if out else vacuum()

    # (1) the constant test function acts by the site weight
    one = RatFunc.const(QI_ONE)
    ok1 = True
    for l, z in enumerate(pts):
        op = HeisenbergOp(one, Point(z), ins)
        v = rand_state()
        ok1 = ok1 and heis_apply(op, v) == v.scale(lams[l])
    report["constant-acts-by-weight"] = ok1

    # (2) same-site commutator equals minus the residue pairing
    ok2 = True
    for _ in range(4):
        phi = rand_ratfunc(rng, max_poles=1)
        psi = rand_ratfunc(rng, max_poles=1)
        z = pts[0]
        op1 = HeisenbergOp(phi, Point(z), ins)
        op2 = HeisenbergOp(psi, Point(z), ins)
        v = rand_state()
        lhs = heis_apply(op1, heis_apply(op2, v)) - heis_apply(op2, heis_apply(op1, v))
        expected = -residue_pairing(phi, psi, z)
        ok2 = ok2 and lhs == v.scale(expected)
    report["same-site-commutator"] = ok2

    # (3) distinct sites commute
    ok3 = True
    if len(pts) >= 2:
        for _ in range(4):
            phi = rand_ratfunc(rng, max_poles=1)
            psi = rand_ratfunc(rng, max_poles=1)
            op1 = HeisenbergOp(phi, Point(pts[0]), ins)
            op2 = HeisenbergOp(psi, Point(pts[1]), ins)
            v = rand_state()
            lhs = heis_apply(op1, heis_apply(op2, v))
            rhs = heis_apply(op2, heis_apply(op1, v))
            ok3 = ok3 and lhs == rhs
    report["distinct-sites-commute"] = ok3

    # (4) the site operators sum to the operator at infinity; this needs the
    # test function's finite poles to lie among the insertion points (else
    # the infinity-based operator does not preserve the supported subspace)
    ok4 = True
    u = RatFunc.variable(QI_ONE)
    for _ in range(4):
        phi = RatFunc.const(rand_scalar(rng)) + rand_scalar(rng) * u + rand_scalar(rng) * u * u
        for z in pts:
            phi = phi + rand_scalar(rng) / (u - z) ** rng.randint(1, 2)
        v = rand_state()
        total = SymState()
        for z in pts:
            total = total + heis_apply(HeisenbergOp(phi, Point(z), ins), v)
        rhs = heis_P_with_insertions(phi, ins, v)
        ok4 = ok4 and total == rhs
    report["sites-sum-to-infinity"] = ok4
    return report
