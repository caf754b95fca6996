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
    coerce_scalar,
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
from .states import DomainError, SymState, add_term, monomial_state, vacuum

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
        site = site if isinstance(site, Point) else Point(coerce_scalar(site))
        object.__setattr__(self, "site", site)
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

    return _contract_and_create(dec, site.value, state, value)


def _contract_and_create(dec, o, state: SymState, value) -> SymState:
    """The contraction by value(atom) plus the creation term: the derivative,
    a form, of each pole part of phi (partial fractions dec) singular at o."""
    out = state.contract(value)
    creation = {}
    for c, j, g in _singular_parts(dec, o):
        add_term(creation, ("pole", c, j + 1), -j * g)
    if creation:
        out = out + state.multiply_expansion(creation)
    return out


def heis_commutator_check(phi: RatFunc, psi: RatFunc, site=INFINITY):
    """Measured central scalar of the commutator on a spanning family.

    Returns the scalar; raises if the commutator is not central.  The
    expected value is -Res_site(phi dpsi) at a finite site and
    +Res_site(phi dpsi) at infinity.
    """
    site = site if isinstance(site, Point) else Point(coerce_scalar(site))
    op1 = HeisenbergOp(phi, site)
    op2 = HeisenbergOp(psi, site)
    measured = None
    for v in spanning_states():
        lhs = heis_apply(op1, heis_apply(op2, v)) - heis_apply(op2, heis_apply(op1, v))
        if v == vacuum():
            measured = lhs.vacuum_coefficient()
        if lhs != v.scale(measured if measured is not None else QI_ZERO):
            raise AssertionError("test-function commutator is not central")
    expected = residue_pairing(phi, psi, site)
    if not site.is_infinity:
        expected = -expected
    if measured != expected:
        raise AssertionError(
            f"central term {measured} does not match the residue {expected}"
        )
    return measured


def spanning_states(site_point=QI_ZERO, extra_pole=None):
    """A small spanning family used by the measured-bracket checks."""
    o = coerce_scalar(site_point)
    c = coerce_scalar(extra_pole) if extra_pole is not None else o + 3
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
    found by a root search: one pole part for l < 0, the binomial
    expansion sum C(l, n) (-o)^(l-n) u^n for l > 0."""
    if l == 0:
        raise ValueError("the oscillator family has no zero mode here")
    o = coerce_scalar(site_point)
    if l < 0:
        dec = PartialFractions(Poly([]), [(o, -l, QI_ONE)])
    else:
        dec = PartialFractions(Poly([_binom(l, n) * (-o) ** (l - n) for n in range(l + 1)]), [])
    atoms = dec_atoms(dec)
    return _contract_and_create(dec, o, state, lambda atom: -_atom_residue(atoms, atom, o))


# ---------------------------------------------------------------------------
# Virasoro operators
# ---------------------------------------------------------------------------


class VirasoroOp:
    __slots__ = ("X", "site")

    def __init__(self, X: VectorField, site=INFINITY):
        object.__setattr__(self, "X", X if isinstance(X, VectorField) else VectorField(X))
        site = site if isinstance(site, Point) else Point(coerce_scalar(site))
        object.__setattr__(self, "site", site)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("VirasoroOp is immutable")


def _sugawara_pairs(j: int):
    """[(p, q, w)]: the creation state of (u-c)^(-j) d/du is
    sum w ("pole", c, p) ("pole", c, q) over p <= q, p + q = j + 3, p >= 2,
    where w = -(p-1)(q-1)/2 summed over the ordered pairs (p, q) and (q, p)."""
    return [(p, j + 3 - p, -(p - 1) * (j + 2 - p) if 2 * p < j + 3 else Fraction(-(p - 1) ** 2, 2))
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
        for p, q, w in _sugawara_pairs(j):
            add_term(creation, (("pole", c, p), ("pole", c, q)), g * w)
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
    """Accumulate sign * L_n(terms) into out (a new dict when None); return out.
    terms maps sorted tuples of orders k of the atoms ("pole", o, k) to
    coefficients.  Each word's image is the memoized dict of ``_L_word``;
    a memoized dict is shared and never mutated, only read and scaled into
    out (a weight 1, as for a removed pair, is added without a product)."""
    out = {} if out is None else out
    for ks, c in terms.items():
        if sign != 1:
            c = c * sign
        for w, wc in _L_word(n, ks).items():
            add_term(out, w, c if wc == 1 else c * wc)
    return out


_L_WORD_CACHE: dict = {}


def _L_word(n: int, ks: tuple) -> dict:
    """L_n on one word ks by the closed forms stated in ``L_mode``; memoized."""
    cached = _L_WORD_CACHE.get((n, ks))
    if cached is not None:
        return cached
    out: dict = {}
    for i, j in itertools.combinations(range(len(ks)), 2):
        if ks[i] + ks[j] == n + 2:
            add_term(out, ks[:i] + ks[i + 1: j] + ks[j + 1:], 1)
    for i, k in enumerate(ks):
        if k - n >= 2:
            add_term(out, tuple(sorted(ks[:i] + (k - n,) + ks[i + 1:])), k - n - 1)
    for p, q, w in _sugawara_pairs(-n - 1):  # xi = -(u-o)^(n+1): one pole part, g = -1
        add_term(out, tuple(sorted(ks + (p, q))), -w)
    _L_WORD_CACHE[n, ks] = out
    return out


def L_mode(n: int, state: SymState, site_point=QI_ZERO) -> SymState:
    """The n-th energy mode: the vector field -(u-o)^(n+1) d/du at the site o.

    This is ``vir_apply`` for xi = -(u-o)^(n+1), computed on atom
    exponents alone (``_L_exponents``).  On the site's domain every atom is
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
    o = coerce_scalar(site_point)
    _check_vir_domain(state, Point(o))
    terms = _L_exponents(n, {tuple(atom[2] for atom in mon): c for mon, c in state.terms.items()})
    return SymState({tuple(("pole", o, k) for k in ks): c for ks, c in terms.items()})


def virasoro_bracket_check(l: int, m: int, max_degree: int = 4):
    """Measure [L_l, L_m] - (l-m) L_{l+m} on spanning origin states.

    Returns the measured central scalar (and checks it is central).  The
    states are tuples of pole orders at the origin, and ``_L_exponents``
    accumulates each bracket in one dict of int and Fraction coefficients.
    """

    def bracket(ks):
        v = {ks: 1}
        out = _L_exponents(l, _L_exponents(m, v))
        _L_exponents(m, _L_exponents(l, v), -1, out)
        return _L_exponents(l + m, v, m - l, out)

    measured = bracket(()).get((), 0)
    states = [(), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4),
              (2,) * min(3, max_degree)]
    for ks in states:
        if len(ks) <= max_degree and bracket(ks) != ({ks: measured} if measured else {}):
            raise AssertionError(
                f"[L_{l}, L_{m}] - ({l - m}) L_{l + m} is not central"
            )
    return GaussRational(measured)


def bracket_L_b(m: int, n: int, state: SymState) -> SymState:
    """[L_m, b_n] applied to a state (for comparison with -n b_{n+m})."""
    return mode_b(n, L_mode(m, state)).scale(-1) + L_mode(m, mode_b(n, state))


def primary_check(state: SymState, weight) -> bool:
    """True iff the state transforms with the given weight under the
    stabilizer fields of the origin (u d/du, u^2 d/du, u^2(u-1) d/du).

    The sign convention follows the scaling grading: the weight is the
    eigenvalue of the rotation generator L_0.
    """
    weight = coerce_scalar(weight)
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
    weights = {Point(p).value if not isinstance(p, Point) else p.value: lam for p, lam in insertions}
    if zl not in weights:
        raise DomainError("site is not an insertion point")

    dec = _phi_pole_parts(phi)
    atoms = dec_atoms(dec)

    def value(atom):
        return -_atom_derivative_residue(atoms, atom, zl)

    out = state.contract(value)
    # phi = phi_reg + phi_s, phi_s its pole part at the site: phi_reg acts by
    # lambda_site phi_reg(z_site); phi_s, which vanishes at infinity, by
    # multiplication and by -sum_{j != site} lambda_j phi_s(z_j)
    scalar_part = weights[zl] * dec.polynomial.evaluate(zl)
    for c, order, coeff in dec.terms:
        if c != zl:
            scalar_part = scalar_part + weights[zl] * coeff / (zl - c) ** order
            continue
        out = out + state.multiply_atom(("pole", c, order), coeff)
        for zj, lam in weights.items():
            if zj != zl:
                scalar_part = scalar_part - lam * coeff / (zj - c) ** order
    if scalar_part:
        out = out + state.scale(scalar_part)
    return out


def heis_P_with_insertions(phi: RatFunc, insertions, state: SymState) -> SymState:
    """The site-at-infinity operator on function states with insertions."""
    weights = [(coerce_scalar(p.value if isinstance(p, Point) else p), lam)
               for p, lam in insertions]
    dec = _phi_pole_parts(phi)
    atoms = dec_atoms(dec)

    def value(atom):
        return _atom_derivative_residue(atoms, atom, None)

    out = state.contract(value)
    # the pole parts of phi (regular at infinity) act by multiplication; the
    # polynomial part p by p(inf) = p_0 times the total weight plus
    # sum_j lambda_j (p(z_j) - p_0), that is by sum_j lambda_j p(z_j)
    for c, order, coeff in dec.terms:
        out = out + state.multiply_atom(("pole", c, order), coeff)
    scalar_part = QI_ZERO
    for zj, lam in weights:
        scalar_part = scalar_part + coerce_scalar(lam) * dec.polynomial.evaluate(zj)
    if scalar_part:
        out = out + state.scale(scalar_part)
    return out


def insertion_suite(points, lambdas, rng) -> dict:
    """Verify the four insertion-operator identities on random data."""
    from .sampling import rand_ratfunc, rand_scalar

    pts = [coerce_scalar(p) for p in points]
    lams = [coerce_scalar(l) for l in lambdas]
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
