"""Independent reference values over ``fractions.Fraction``.

A Gaussian rational is a pair ``(re, im)`` of Fractions.  None of this
imports chiralis: the n-point sums, the Pfaffian, the sl2 recursion, the
Gram entries and the determinants are written out here from their
definitions, so a fault in the program cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

ZERO = (F(0), F(0))
ONE = (F(1), F(0))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if not n:
        raise ZeroDivisionError("inverse of zero")
    return (a[0] / n, -a[1] / n)


def div(a, b):
    return mul(a, inv(b))


def rat(x):
    return (F(x), F(0))


def power(a, k):
    out = ONE
    base = a if k >= 0 else inv(a)
    for _ in range(abs(k)):
        out = mul(out, base)
    return out


def total(values):
    out = ZERO
    for v in values:
        out = add(out, v)
    return out


# -- correlation functions --------------------------------------------------


def pair_partitions(indices):
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for k, second in enumerate(rest):
        for tail in pair_partitions(rest[:k] + rest[k + 1:]):
            yield [(first, second)] + tail


def boson_npoint(points):
    """Sum over pairings of prod 1/(z_a - z_b)^2."""
    if len(points) % 2:
        return ZERO
    terms = []
    for pairing in pair_partitions(list(range(len(points)))):
        term = ONE
        for a, b in pairing:
            term = mul(term, power(sub(points[a], points[b]), -2))
        terms.append(term)
    return total(terms)


def pairing_sign(pairing):
    """Sign of the permutation (a1 b1 a2 b2 ...) of a perfect matching."""
    perm = [x for pair in pairing for x in pair]
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def fermion_npoint(points):
    """Pfaffian of the matrix 1/(z_a - z_b): signed sum over pairings."""
    if len(points) % 2:
        return ZERO
    terms = []
    for pairing in pair_partitions(list(range(len(points)))):
        term = rat(pairing_sign(pairing))
        for a, b in pairing:
            term = mul(term, inv(sub(points[a], points[b])))
        terms.append(term)
    return total(terms)


# -- sl2 --------------------------------------------------------------------

SL2 = ("e", "h", "f")
# [x, y] on the basis e, h, f, and the trace form of the defining representation
SL2_BRACKET = {("e", "f"): {"h": 1}, ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}}
SL2_FORM = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}


def sl2_bracket(x: dict, y: dict) -> dict:
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            if (a, b) in SL2_BRACKET:
                comps, sign = SL2_BRACKET[(a, b)], 1
            elif (b, a) in SL2_BRACKET:
                comps, sign = SL2_BRACKET[(b, a)], -1
            else:
                continue
            for k, c in comps.items():
                out[k] = add(out.get(k, ZERO), mul(mul(ca, cb), rat(sign * c)))
    return {k: v for k, v in out.items() if v != ZERO}


def sl2_form(x: dict, y: dict):
    return total(mul(mul(ca, cb), rat(SL2_FORM.get((a, b), 0)))
                 for a, ca in x.items() for b, cb in y.items())


def sl2_npoint(labels, points):
    """<j_1(z_1) ... j_n(z_n)>: contract j_1 with each later current, either
    through the form over (z_1 - z_k)^2 or through the bracket over (z_1 - z_k)."""
    return _sl2_rec([{a: ONE} for a in labels], list(points))


def _sl2_rec(vs, pts):
    n = len(vs)
    if n == 0:
        return ONE
    if n == 1:
        return ZERO
    out = ZERO
    for k in range(1, n):
        d = sub(pts[0], pts[k])
        g = sl2_form(vs[0], vs[k])
        if g != ZERO:
            rest = _sl2_rec(vs[1:k] + vs[k + 1:], pts[1:k] + pts[k + 1:])
            out = add(out, mul(mul(g, power(d, -2)), rest))
        br = sl2_bracket(vs[0], vs[k])
        if br:
            rest = _sl2_rec(vs[1:k] + [br] + vs[k + 1:], pts[1:])
            out = add(out, div(rest, d))
    return out


def affine_central(a, l, b, m):
    """l (a, b) when l + m = 0, else 0."""
    return rat(l * SL2_FORM.get((a, b), 0)) if l + m == 0 else ZERO


def virasoro_central(l, m):
    return rat(F(l ** 3 - l, 12)) if l + m == 0 else ZERO


# -- reflection Gram matrices -----------------------------------------------


def gram_labels(npoints, degree):
    labels = []
    for d in range(degree + 1):
        labels.extend(itertools.combinations_with_replacement(range(npoints), d))
    return labels


def gram_matrix(points, degree):
    """<e(ys), e(zs)> = sum over bijections of prod 1/(1 - conj(y) z)^2."""
    labels = gram_labels(len(points), degree)
    kernel = [[power(sub(ONE, mul(conj(y), z)), -2) for z in points] for y in points]
    rows = []
    for li in labels:
        row = []
        for lj in labels:
            if len(li) != len(lj):
                row.append(ZERO)
                continue
            row.append(total(
                _prod(kernel[li[k]][lj[s[k]]] for k in range(len(li)))
                for s in itertools.permutations(range(len(lj)))
            ))
        rows.append(row)
    return rows


def _prod(values):
    out = ONE
    for v in values:
        out = mul(out, v)
    return out


def determinant(matrix):
    """Exact determinant by elimination with row swaps."""
    work = [row[:] for row in matrix]
    n = len(work)
    det = ONE
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k] != ZERO), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = mul(det, rat(-1))
        pivot = work[k][k]
        det = mul(det, pivot)
        for i in range(k + 1, n):
            factor = div(work[i][k], pivot)
            if factor != ZERO:
                for j in range(k, n):
                    work[i][j] = sub(work[i][j], mul(factor, work[k][j]))
    return det


def leading_minors(matrix):
    return [determinant([row[:k] for row in matrix[:k]]) for k in range(1, len(matrix) + 1)]
