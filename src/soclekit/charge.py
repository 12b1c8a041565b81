"""K-theoretic bookkeeping: Hilbert polynomials and central charges.

A formal K-class is a signed multiset of line-bundle twists: the term
(i, j, b) contributes (-1)^i * b * [O(-j)].  Its Hilbert polynomial is

    P(t) = sum over terms of (-1)^i * b * C(n + t - j, n)

and the central charge at an evaluation point s is the exact rational
pair (P'(s), P(s)).  Even-degree socles are evaluated at s = 0, odd ones
at s = -1/2; the evaluation point is a parameter, never a second code
path.

Angular comparisons are exact: a sector classification plus the sign of
a cross product, with no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Sequence

from .linalg import gen_binomial


class ChargePoint(NamedTuple):
    x: Fraction  # derivative component
    y: Fraction  # value component

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class TwistComplex:
    """Formal K-class on P^n; terms are (homological index, twist j, count)."""

    n: int
    terms: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for i, j, b in self.terms:
            if b < 1:
                raise ValueError("multiplicities must be positive")

    @classmethod
    def line_bundle(cls, n: int, e: int) -> "TwistComplex":
        """O(e) placed in homological degree 0."""
        return cls(n, ((0, -e, 1),))

    @classmethod
    def canonical_twist(cls, n: int, e: int) -> "TwistComplex":
        """omega(-e)[n], i.e. O(-e - n - 1) shifted by n."""
        return cls(n, ((n, e + n + 1, 1),))

    @classmethod
    def point(cls, n: int) -> "TwistComplex":
        """A point's structure sheaf via its length-n Koszul resolution."""
        from math import comb

        return cls(n, tuple((i, i, comb(n, i)) for i in range(n + 1)))

    @classmethod
    def ideal_of_points(cls, n: int, count: int, twist: int) -> "TwistComplex":
        """[O(twist)] - count * [point class]."""
        out = list(cls.line_bundle(n, twist).terms)
        for i, j, b in cls.point(n).terms:
            out.append((i + 1, j, b * count))
        return cls(n, tuple(out))

    def shift(self, m: int) -> "TwistComplex":
        return TwistComplex(self.n, tuple((i + m, j, b) for i, j, b in self.terms))

    def twist(self, e: int) -> "TwistComplex":
        return TwistComplex(self.n, tuple((i, j - e, b) for i, j, b in self.terms))

    def __add__(self, other: "TwistComplex") -> "TwistComplex":
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        return TwistComplex(self.n, self.terms + other.terms)

    def scale(self, k: int) -> "TwistComplex":
        if k < 1:
            raise ValueError("scale factor must be positive")
        return TwistComplex(self.n, tuple((i, j, b * k) for i, j, b in self.terms))


HilbPoly = tuple[Fraction, ...]  # coefficients, constant term first


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


def poly_derivative(p: Sequence[Fraction]) -> HilbPoly:
    return tuple(c * k for k, c in enumerate(p))[1:] or (Fraction(0),)


def _twist_poly(n: int, j: int) -> HilbPoly:
    """Coefficients of C(n + t - j, n) as a degree-n polynomial in t."""
    out: list[Fraction] = [Fraction(1)]
    for k in range(1, n + 1):
        out = _poly_mul(out, [Fraction(k - j), Fraction(1)])
    f = factorial(n)
    return tuple(c / f for c in out)


def hilb_poly(c: TwistComplex) -> HilbPoly:
    """Hilbert polynomial of the K-class, degree <= n."""
    acc = [Fraction(0)] * (c.n + 1)
    for i, j, b in c.terms:
        sign = -1 if i % 2 else 1
        for k, v in enumerate(_twist_poly(c.n, j)):
            acc[k] += sign * b * v
    return tuple(acc)


def charge(c: TwistComplex, s) -> ChargePoint:
    """(P'(s), P(s)) for the class's Hilbert polynomial P."""
    p = hilb_poly(c)
    return ChargePoint(poly_eval(poly_derivative(p), s), poly_eval(p, s))


def _sector(p: ChargePoint) -> int:
    """-1: lower half plane, 0: positive real ray, 1: upper, 2: negative ray."""
    if p.y > 0:
        return 1
    if p.y < 0:
        return -1
    if p.x > 0:
        return 0
    return 2


def compare_arg(p: ChargePoint, q: ChargePoint) -> int:
    """Exact comparison of normalized arguments; -1, 0 or +1.

    Arguments live in (-1, 1] in units of pi: the positive real ray is 0,
    the upper half plane fills (0, 1), the negative real ray is 1 and the
    lower half plane fills (-1, 0).  Within an open half plane the order
    is decided by the sign of the cross product.
    """
    if (p.x, p.y) == (0, 0) or (q.x, q.y) == (0, 0):
        raise ValueError("zero charge point has no argument")
    sp, sq = _sector(p), _sector(q)
    if sp != sq:
        return -1 if sp < sq else 1
    if sp in (0, 2):
        return 0
    cross = p.x * q.y - p.y * q.x
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def dual_class(c: TwistComplex) -> TwistComplex:
    """The twisted-and-shifted dual: (i, j, b) -> (n - i, n + 1 - j, b).

    The defining contract is the charge identity: the dual's Hilbert
    polynomial is P(-t), so the charge at 0 is (-x, y).  Applying the map
    twice returns the original class.
    """
    return TwistComplex(
        c.n, tuple((c.n - i, c.n + 1 - j, b) for i, j, b in c.terms)
    )


def beilinson_dims(c: TwistComplex) -> tuple[Fraction, ...]:
    """Coefficients (V_0, ..., V_n) with [c] = sum (-1)^i V_i [O(-i)].

    Solved from the values P(0), P(-1), ..., P(-n) of the Hilbert
    polynomial; the system is triangular because C(n - m - i, n) vanishes
    for 0 <= n - m - i < n.  Values are integers for genuine complexes.
    """
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


def cone_charge(table, e: int, s) -> ChargePoint:
    """Charge of the interior resolution columns i = 1..n, twisted by e.

    Signs are fixed so the class equals [O(e)] - [omega(-e)[n]] in K-theory
    whenever the table resolves an even-degree socle d = 2e; the charge is
    then (2 chi'(O(e)), 0) at s = 0.
    """
    if table.b(0, 0) != 1:
        raise ValueError("malformed table: b[0, 0] must be 1")
    n = table.n
    terms = []
    for i, j, b in table.entries:
        if 1 <= i <= n:
            terms.append((i - 1, j - e, b))
    if not terms:
        raise ValueError("table has no interior columns")
    return charge(TwistComplex(n, tuple(terms)), s)


class ChernP2(NamedTuple):
    """Chern data on the plane: rank, degree and half-integer ch2."""

    ch0: int
    ch1: int
    ch2: Fraction


def chern_p2(c: TwistComplex) -> ChernP2:
    """Chern character extracted from the Hilbert polynomial (n = 2 only)."""
    if c.n != 2:
        raise ValueError("Chern extraction is a plane computation")
    c0, c1, c2 = hilb_poly(c)
    ch0 = 2 * c2
    ch1 = c1 - 3 * c2
    ch2 = c0 - Fraction(3, 2) * c1 + Fraction(5, 2) * c2
    if ch0.denominator != 1 or ch1.denominator != 1:
        raise ValueError("class has non-integral rank or degree")
    return ChernP2(int(ch0), int(ch1), ch2)


def discriminant(ch: ChernP2) -> Fraction:
    """ch1^2 - 2 ch0 ch2; non-negative for semistable plane sheaves."""
    return Fraction(ch.ch1) ** 2 - 2 * ch.ch0 * ch.ch2


def anti_slope(n: int, t) -> Fraction:
    """sum of 1/(t + i) for i = 1..n; poles at the negative integers -1..-n."""
    t = Fraction(t)
    total = Fraction(0)
    for i in range(1, n + 1):
        if t + i == 0:
            raise ValueError(f"anti-slope pole at t = {t}")
        total += Fraction(1, 1) / (t + i)
    return total
