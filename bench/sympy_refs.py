"""Reference values computed with sympy, in a process of their own.

Usage: python3 bench/sympy_refs.py --workload NAME --seed N

Rebuilds the workload's inputs from the seed (``gen.generate``) and prints
one JSON object {check index: [re, im]} for every check whose reference is
a residue:

* ``heis``: the Heisenberg central term, -Res_0(phi dpsi) at the finite
  site 0 and +Res_oo(phi dpsi) at infinity, where Res_oo(f du) is
  -Res_{t=0} f(1/t) t^-2 dt;
* ``pair``: the degree-one current pairing, -(a, b) times the sum of the
  residues of f(u) d/du (u - c)^-m over the poles inside the unit disc,
  where f(u) = (u / (1 - ctil u))^l is the dual generator in the u chart.

Residues are Laurent coefficients computed with sympy polynomials over
QQ_I.  The candidate poles of the pairing (c and 1/ctil) are checked to
exhaust the denominator, so no pole inside the disc can be missed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sympy  # noqa: E402
from sympy import QQ_I, Poly  # noqa: E402

import gen  # noqa: E402
import refs  # noqa: E402

U = sympy.Symbol("u")
T = sympy.Symbol("t")


def num(c):
    return sympy.Rational(c[0].numerator, c[0].denominator) + sympy.I * sympy.Rational(
        c[1].numerator, c[1].denominator)


def fraction(expr, var=U):
    top, bottom = sympy.fraction(sympy.together(expr))
    return Poly(top, var, domain=QQ_I), Poly(bottom, var, domain=QQ_I)


def multiplicity(den, r, var=U):
    """(k, den / (var - r)^k) with k the order of r as a root of den."""
    lin = Poly(var - r, var, domain=QQ_I)
    k = 0
    while True:
        quo, rem = den.div(lin)
        if not rem.is_zero:
            return k, den
        den, k = quo, k + 1


def residue(top, den, r, var=U):
    """Res_{var=r} top/den: the coefficient of s^(k-1) in top(r+s)/rest(r+s)."""
    k, rest = multiplicity(den, r, var)
    if k == 0:
        return QQ_I.zero
    N = [QQ_I.convert(c) for c in top.shift(r).all_coeffs()[::-1]] + [QQ_I.zero] * k
    D = [QQ_I.convert(c) for c in rest.shift(r).all_coeffs()[::-1]] + [QQ_I.zero] * k
    inv = [QQ_I.one / D[0]]
    for j in range(1, k):
        inv.append(-sum((D[i] * inv[j - i] for i in range(1, j + 1)), QQ_I.zero) / D[0])
    return sum((N[i] * inv[k - 1 - i] for i in range(k)), QQ_I.zero)


def testfn(terms):
    out = sympy.Integer(0)
    for term in terms:
        if term[0] == "mono":
            out += num(term[2]) * U ** term[1]
        else:
            out += num(term[3]) * (U - num(term[1])) ** -term[2]
    return out


def heis(p):
    form = testfn(p["phi"]) * sympy.diff(testfn(p["psi"]), U)
    if p["site"] == "inf":
        return -residue(*fraction(form.subs(U, 1 / T) / T ** 2, T), sympy.Integer(0), T)
    return -residue(*fraction(form), sympy.Integer(0))


def pair(p):
    (a, ctil, l), (b, c, m) = p["dual"], p["gen"]
    g = refs.SL2_FORM.get((gen.SL2_LABELS[a], gen.SL2_LABELS[b]), 0)
    top, den = fraction((U / (1 - num(ctil) * U)) ** l * sympy.diff((U - num(c)) ** -m, U))
    candidates = [num(c)] + ([1 / num(ctil)] if ctil != gen.ZERO else [])
    orders = [multiplicity(den, r)[0] for r in candidates]
    if sum(orders) != den.degree():
        raise ArithmeticError("candidate poles do not exhaust the denominator")
    inside = [r for r in candidates if sympy.re(r) ** 2 + sympy.im(r) ** 2 < 1]
    return QQ_I.convert(-g) * sum((residue(top, den, r) for r in inside), QQ_I.zero)


def main(argv=None):
    ap = argparse.ArgumentParser(description="sympy residue references for one workload")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    out = {}
    for i, (kind, p) in enumerate(gen.generate(args.workload, args.seed)):
        if kind in gen.SYMPY_KINDS:
            value = (heis if kind == "heis" else pair)(p)
            out[i] = [str(value.x), str(value.y)]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
