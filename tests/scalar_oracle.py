"""Coerce-first scalar arithmetic: the test oracle.

These are the operators of ``GaussRational`` and the scalar product of a
``Jet`` as they were written before a plain operand had a lane of its own:
every operand is coerced first (``GaussRational.coerce``, which applies
``exactnum._as_gauss``), so an int or a ``Fraction`` becomes a temporary
GaussRational, every result is reduced by one three-way gcd, and a scalar
factor of a jet becomes the exact jet Jet(0, [s], EXACT) before the jet
product.  The tests compare the program's
lanes with them on seeded operands, triple by triple.
"""

from __future__ import annotations

import math

from chiralis.exactnum import GaussRational
from chiralis.jets import EXACT, Jet


def _reduced(a: int, b: int, d: int) -> GaussRational:
    g = math.gcd(a, b, d)
    return GaussRational(a // g, b // g, _den=d // g)


def _operands(x, y):
    return GaussRational.coerce(x), GaussRational.coerce(y)


def add(x, y) -> GaussRational:
    x, y = _operands(x, y)
    d, d2 = x.d, y.d
    return _reduced(x.a * d2 + y.a * d, x.b * d2 + y.b * d, d * d2)


def sub(x, y) -> GaussRational:
    x, y = _operands(x, y)
    d, d2 = x.d, y.d
    return _reduced(x.a * d2 - y.a * d, x.b * d2 - y.b * d, d * d2)


def mul(x, y) -> GaussRational:
    x, y = _operands(x, y)
    return _reduced(x.a * y.a - x.b * y.b, x.a * y.b + x.b * y.a, x.d * y.d)


def truediv(x, y) -> GaussRational:
    x, y = _operands(x, y)
    n = y.a * y.a + y.b * y.b
    if not n:
        raise ZeroDivisionError("division by zero GaussRational")
    return _reduced((x.a * y.a + x.b * y.b) * y.d, (x.b * y.a - x.a * y.b) * y.d, x.d * n)


def eq(x, y) -> bool:
    x, y = _operands(x, y)
    return (x.a, x.b, x.d) == (y.a, y.b, y.d)


#: the binary operators by their symbol
OPS = {"+": add, "-": sub, "*": mul, "/": truediv, "==": eq}


def jet_scale(jet: Jet, scalar) -> Jet:
    """jet * scalar through the exact jet of the scalar."""
    return jet * Jet(0, [GaussRational.coerce(scalar)], EXACT)
