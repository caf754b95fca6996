"""Seeded inputs for the benchmark workloads.

Everything here is plain Python: a Gaussian rational is a pair
``(Fraction re, Fraction im)``, a state is a list of ``(atoms, coeff)`` with
atoms ``("pole", point, order)``.  Nothing imports chiralis, so a change to
the program (``chiralis.sampling`` included) cannot change a workload, and
the reference processes can rebuild the same inputs from the seed alone.

A workload is a list of checks ``(kind, params)``.  The kinds, their
counts and the shape of every input (number of terms, degrees, pole
orders, number of points, the sl2 labels that decide how much straightening
a check does) are fixed by the check's position; the seed draws the points,
coefficients and the remaining labels.  So two seeds do the same
amount of work up to the size of the numbers, and the spread between runs
is the machine's rather than the inputs'.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

ZERO = (F(0), F(0))
ONE = (F(1), F(0))
# kinds whose reference is a residue computed by sympy_refs.py
SYMPY_KINDS = ("heis", "pair")


def scalar(rng, span=4, complex_odds=0.4):
    re = F(rng.randint(-span, span), rng.randint(1, 3))
    im = F(rng.randint(-span, span), rng.randint(1, 3)) if rng.random() < complex_odds else F(0)
    return (re, im)


def nonzero_scalar(rng, span=4):
    while True:
        s = scalar(rng, span)
        if s != ZERO:
            return s


def distinct(rng, count, span=6, avoid=()):
    out = []
    while len(out) < count:
        s = scalar(rng, span)
        if s not in out and s not in avoid:
            out.append(s)
    return out


def disc_point(rng, off_axis=False):
    """A point with |p|^2 < 1; with ``off_axis`` its imaginary part is not 0.
    A current pairing costs a third or less at a real point than off the
    axis, so the pairing's points are drawn off it."""
    while True:
        re = F(rng.randint(-3, 3), rng.randint(4, 7))
        if off_axis:
            im = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(4, 7))
        else:
            im = F(rng.randint(-3, 3), rng.randint(4, 7)) if rng.random() < 0.5 else F(0)
        if re * re + im * im < 1:
            return (re, im)


def distinct_disc_points(rng, count):
    out = []
    while len(out) < count:
        p = disc_point(rng)
        if p not in out:
            out.append(p)
    return out


def form_state(rng, pool, degrees, orders=(2, 3)):
    """A boson-type state: one monomial of each given degree, in pole atoms
    on the pool, with random orders and coefficients."""
    return [([("pole", rng.choice(pool), rng.randint(*orders)) for _ in range(d)], nonzero_scalar(rng))
            for d in degrees]


# ---------------------------------------------------------------------------
# boson-modes
# ---------------------------------------------------------------------------


def test_function(rng, site, variant):
    """A test function as a list of terms: ("mono", k, coeff) is coeff u^k and
    ("pole", c, k, coeff) is coeff (u - c)^-k.  At the site 0 it is a Laurent
    polynomial in u (three of u^-2, u^-1, u, u^2), in one variant of two with a
    simple pole elsewhere; at infinity it is a polynomial plus a pole of order
    one or two, so that the central term is seldom zero."""
    if site == "0":
        terms = [("mono", k, nonzero_scalar(rng)) for k in rng.sample((-2, -1, 1, 2), 3)]
        if variant:
            terms.append(("pole", nonzero_scalar(rng, 3), 1, nonzero_scalar(rng)))
        return terms
    return [("mono", 1, nonzero_scalar(rng)), ("mono", 2, nonzero_scalar(rng)),
            ("pole", scalar(rng, 3), 1 + variant, nonzero_scalar(rng))]


def origin_state(rng):
    """u^-3 du plus u^-2 du u^-4 du at the origin, random coefficients."""
    return [([("pole", ZERO, 3)], nonzero_scalar(rng)),
            ([("pole", ZERO, 2), ("pole", ZERO, 4)], nonzero_scalar(rng))]


# (m, n) of the [L_m, b_n] checks, cycled; n and n + m are never 0
LB_MODES = ((-3, 1), (-2, 3), (-1, -2), (1, 2), (2, -1), (3, 1), (-2, -1), (1, -3))


def boson_modes(rng, counts):
    checks = []
    for i in range(counts["heis"]):
        site, variant = ("0", "inf")[i % 2], (i // 2) % 2
        phi, psi = test_function(rng, site, variant), test_function(rng, site, variant)
        checks.append(("heis", {"phi": phi, "psi": psi, "site": site}))
    for l in range(-5, 6):
        for m in range(-5, 6):
            if l or m:
                checks.append(("vir", {"l": l, "m": m}))
    for i in range(counts["Lb"]):
        m, n = LB_MODES[i % len(LB_MODES)]
        checks.append(("Lb", {"m": m, "n": n, "states": [origin_state(rng) for _ in range(2)]}))
    for i in range(counts["gram"]):
        checks.append(("gram", {"points": distinct_disc_points(rng, 1 + i % 3), "degree": 2}))
    return checks


# ---------------------------------------------------------------------------
# current-sl2
# ---------------------------------------------------------------------------

SL2_LABELS = ("e", "h", "f")
SL2_PAIRED = ((0, 2), (2, 0), (1, 1))  # basis pairs with a nonzero trace form


def current_word(rng, pool, length):
    return [(rng.randrange(3), rng.choice(pool), rng.randint(1, 2)) for _ in range(length)]


def current_sl2(rng, counts):
    checks = []
    for i in range(counts["loc"]):
        with_ins = i % 2 == 0
        pool = [ONE, (F(-2), F(0))] if with_ins else [ZERO, ONE, (F(-2), F(0))]
        z1, z2 = distinct(rng, 2, span=6, avoid=pool + [ZERO])
        checks.append(("loc", {
            "word": current_word(rng, pool, 1 + (i // 2) % 2), "coeff": nonzero_scalar(rng),
            "ins": rng.randint(0, 1) if with_ins else None, "z1": z1, "z2": z2,
            "va": SL2_LABELS[i % 3], "vb": SL2_LABELS[(i // 3) % 3]}))
    for i in range(counts["npt"]):
        n = 2 + i % 3
        checks.append(("npt", {"labels": [rng.choice(SL2_LABELS) for _ in range(n)],
                               "points": distinct(rng, n, span=6)}))
    modes = ((1, -1), (-1, 1), (2, -2), (-2, 2), (1, 0))
    for a in SL2_LABELS:
        for b in SL2_LABELS:
            for l, m in modes:
                checks.append(("aff", {"a": a, "l": l, "b": b, "m": m}))
    for i in range(counts["pair"]):
        a, b = SL2_PAIRED[i % len(SL2_PAIRED)]
        ctil, c = disc_point(rng, off_axis=True), disc_point(rng, off_axis=True)
        checks.append(("pair", {"dual": (a, ctil, 2), "gen": (b, c, 2)}))
    for i in range(counts["site"]):
        checks.append(("site", {
            "coeff": nonzero_scalar(rng), "ins": [rng.randint(0, 1), rng.randint(0, 1)],
            "k1": 1 + i % 2, "k2": 1 + (i // 2) % 2, "h": nonzero_scalar(rng),
            "slope": nonzero_scalar(rng)}))
    for i in range(counts["ope"]):
        checks.append(("ope", {"a": SL2_LABELS[i % 3], "b": SL2_LABELS[(i // 3) % 3],
                               "z": nonzero_scalar(rng, 3), "coeff": nonzero_scalar(rng)}))
    return checks


# ---------------------------------------------------------------------------
# fields-axioms
# ---------------------------------------------------------------------------


def bc_state(rng, pool, i):
    """Both points in the weight sector, one in the twist sector."""
    b = sorted((p, rng.randint(1, 2)) for p in pool)
    c = [(pool[i % 2], rng.randint(1, 2))]
    return {"b": b, "c": c, "coeff": nonzero_scalar(rng)}


# vertex-structure inputs: poles in the unit box, translations of length 7,
# so that no translated support can meet another support or its rotation
VERTEX_POOL = [(F(a, 2), F(b, 2)) for a in (-2, -1, 0, 1, 2) for b in (-2, 0, 2)]
VERTEX_SHIFTS = [(F(7), F(0)), (F(-7), F(0)), (F(0), F(7)), (F(0), F(-7)), (F(14), F(0))]
VERTEX_SCALES = [(F(2), F(0)), (F(-1), F(0)), (F(1, 2), F(0))]


def vertex_axiom_inputs(rng, structure):
    """v1 of degree two, v2 of degree one, psi of degree one plus a constant,
    on four distinct pool points."""
    points = rng.sample(VERTEX_POOL, 4)
    a1, b2 = rng.sample(VERTEX_SHIFTS, 2)
    a2 = rng.choice([a for a in VERTEX_SHIFTS if a not in (a1, (-a1[0], -a1[1]))])
    return {"structure": structure,
            "v1": [([("pole", points[0], 2), ("pole", points[1], 3)], nonzero_scalar(rng))],
            "v2": [([("pole", points[2], 2)], nonzero_scalar(rng))],
            "psi": [([("pole", points[3], 3)], nonzero_scalar(rng)), ([], nonzero_scalar(rng))],
            "a1": a1, "a2": a2, "b2": b2, "lam": rng.choice(VERTEX_SCALES)}


def fields_axioms(rng, counts):
    checks = []
    for i in range(counts["bnpt"]):
        checks.append(("bnpt", {"points": distinct(rng, 2 + 2 * (i % 4), span=9)}))
    for i in range(counts["fnpt"]):
        checks.append(("fnpt", {"points": distinct(rng, 2 + 2 * (i % 4), span=9)}))
    for i in range(counts["bloc"]):
        pool = distinct(rng, 3, span=4)
        z1, z2 = distinct(rng, 2, span=9, avoid=pool)
        checks.append(("bloc", {"state": form_state(rng, pool, (1 + i % 3, 2)), "z1": z1, "z2": z2}))
    for _ in range(counts["tt"]):
        z = nonzero_scalar(rng, 3)
        pool = distinct(rng, 2, span=4, avoid=[z])
        checks.append(("tt", {"z": z, "state": form_state(rng, pool, (1, 2))}))
    for i in range(counts["vax"]):
        checks.append(("vax", vertex_axiom_inputs(rng, ("comm", "prime")[i % 2])))
    for i in range(counts["axiom"]):
        checks.append(("axiom", {"structure": ("comm", "prime")[i % 2],
                                 "seed": rng.randrange(2 ** 31), "degree": 1, "samples": 1}))
    for i in range(counts["bc"]):
        pool = distinct(rng, 2, span=4)
        z1, z2 = distinct(rng, 2, span=8, avoid=pool)
        checks.append(("bc", {"state": bc_state(rng, pool, i), "z1": z1, "z2": z2}))
    for N in (1, 2, 4):
        for l1 in (-2, -1, 1, 2):
            for l2 in (-2, -1, 1, 2):
                z1, z2 = distinct(rng, 2, span=4)
                checks.append(("lat", {"N": N, "l1": l1, "l2": l2, "z1": z1, "z2": z2}))
    return checks


COUNTS = {
    "boson-modes": {"heis": 8, "Lb": 8, "gram": 6},
    "current-sl2": {"loc": 20, "npt": 15, "pair": 16, "site": 2, "ope": 6},
    "fields-axioms": {"bnpt": 12, "fnpt": 12, "bloc": 30, "tt": 8, "vax": 10, "axiom": 4, "bc": 12},
}
GENERATORS = {"boson-modes": boson_modes, "current-sl2": current_sl2, "fields-axioms": fields_axioms}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list:
    """The checks of one workload, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, COUNTS[workload])
