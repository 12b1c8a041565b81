"""Reference Hilbert polynomials, central charges, Beilinson coefficients
and open-semistable witness searches.

This is the ``Fraction`` polynomial algebra that ``soclekit.charge`` used
before it switched to integer coefficient lists: each twist's binomial
C(n + t - j, n) is expanded by multiplying ``Fraction`` polynomials, the
class polynomial is evaluated by ``Fraction`` Horner, and the Beilinson
system is solved with generalized binomials.  The two seeded searches
are how ``soclekit.strata.witness_socles`` drew its open-semistable plane
cubic and quartic before it stored them as literals.  Both are kept here
only as differential-test oracles and are not part of the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import Sequence

from soclekit.apolarity import Socle, hilbert_function, random_socle
from soclekit.charge import ChargePoint, TwistComplex
from soclekit.resolution import koszul_betti


def gen_binomial(a, b: int) -> Fraction:
    """Generalized binomial coefficient a(a-1)...(a-b+1) / b!, for any
    rational a and integer b >= 0."""
    if b < 0:
        raise ValueError("lower index must be non-negative")
    num = Fraction(1)
    for k in range(b):
        num *= Fraction(a) - k
    return num / factorial(b)


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def poly_eval(p: Sequence[Fraction], t) -> Fraction:
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def poly_derivative(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * k for k, c in enumerate(p))[1:] or (Fraction(0),)


def _twist_poly(n: int, j: int) -> tuple[Fraction, ...]:
    """Coefficients of C(n + t - j, n) as a degree-n polynomial in t."""
    out: list[Fraction] = [Fraction(1)]
    for k in range(1, n + 1):
        out = _poly_mul(out, [Fraction(k - j), Fraction(1)])
    f = factorial(n)
    return tuple(c / f for c in out)


def hilb_poly(c: TwistComplex) -> tuple[Fraction, ...]:
    acc = [Fraction(0)] * (c.n + 1)
    for i, j, b in c.terms:
        sign = -1 if i % 2 else 1
        for k, v in enumerate(_twist_poly(c.n, j)):
            acc[k] += sign * b * v
    return tuple(acc)


def charge(c: TwistComplex, s) -> ChargePoint:
    p = hilb_poly(c)
    return ChargePoint(poly_eval(poly_derivative(p), s), poly_eval(p, s))


def beilinson_dims(c: TwistComplex) -> tuple[Fraction, ...]:
    n = c.n
    p = hilb_poly(c)
    values = [poly_eval(p, -m) for m in range(n + 1)]
    dims: list[Fraction] = [Fraction(0)] * (n + 1)
    dims[0] = values[0]
    if n == 0:
        return tuple(dims)
    dims[n] = values[1]
    for m in range(2, n + 1):
        acc = values[m]
        for i in range(n - m + 2, n + 1):
            sign = -1 if (i + n) % 2 else 1
            acc -= sign * dims[i] * gen_binomial(m + i - 1, n)
        sign_target = -1 if (m + 1) % 2 else 1
        dims[n - m + 1] = sign_target * acc
    return tuple(dims)


def open_semistable_witness(d: int) -> Socle:
    """The first seeded random plane socle of degree 3 or 4 in the open stratum.

    Degree 3 also needs b(1, 3) = 0, which separates the open stratum from
    three points sharing its Hilbert function.
    """
    rng = random.Random({3: 1203, 4: 1204}[d])
    target = {3: (1, 3, 3, 1), 4: (1, 3, 6, 3, 1)}[d]
    while True:
        g = random_socle(rng, 2, d)
        if hilbert_function(g) == target and (d == 4 or koszul_betti(g).b(1, 3) == 0):
            return g
