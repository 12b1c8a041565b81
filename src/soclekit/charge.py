"""K-theoretic bookkeeping: Hilbert polynomials and central charges.

A formal K-class is a signed multiset of line-bundle twists: the term
(i, j, b) contributes (-1)^i * b * [O(-j)].  Its Hilbert polynomial is

    P(t) = sum over terms of (-1)^i * b * C(n + t - j, n)

and the central charge at an evaluation point s is the exact rational
pair (P'(s), P(s)).  Even-degree socles are evaluated at s = 0, odd ones
at s = -1/2; the evaluation point is a parameter, never a second code
path.

Everything runs on integers: n! * P(t) has the integer coefficients of
sum (-1)^i * b * prod_{k=1..n} (t + k - j), a charge at s = a/q is that
list and its derivative evaluated homogeneously in (a, q), and the
Beilinson coefficients come from the integer values P(-m), read off the
same list, by a triangular solve in binomials.  ``Fraction`` appears
only in the returned values.

Angular comparisons are exact: a sector classification plus the sign of
a cross product, with no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Sequence


class ChargePoint(NamedTuple):
    x: Fraction  # derivative component
    y: Fraction  # value component

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


class _TwistTerms(NamedTuple):
    n: int
    terms: tuple[tuple[int, int, int], ...]


class TwistComplex(_TwistTerms):
    """Formal K-class on P^n; terms are (homological index, twist j, count)."""

    __slots__ = ()

    def __new__(cls, n: int, terms: tuple[tuple[int, int, int], ...]) -> "TwistComplex":
        if n < 0:
            raise ValueError("n must be non-negative")
        for i, j, b in terms:
            if b < 1:
                raise ValueError("multiplicities must be positive")
        return super().__new__(cls, n, terms)

    @classmethod
    def _make(cls, iterable) -> "TwistComplex":
        # The inherited _make, which _replace calls, skips __new__.
        return cls(*iterable)

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


def _scaled_poly(c: TwistComplex) -> list[int]:
    """Integer coefficients of n! * P(t), constant term first: each term
    adds (-1)^i * b * prod_{k=1..n} (t + k - j)."""
    acc = [0] * (c.n + 1)
    for i, j, b in c.terms:
        prod = [-b if i % 2 else b]
        for k in range(1, c.n + 1):  # times (t + k - j)
            prod = [x + (k - j) * y for x, y in zip([0] + prod, prod + [0])]
        acc = [x + y for x, y in zip(acc, prod)]
    return acc


def _at(coeffs: Sequence[int], a: int, q: int) -> int:
    """q^m * f(a/q) for f with coefficient list coeffs of length m + 1."""
    m = len(coeffs) - 1
    return sum(v * a**k * q ** (m - k) for k, v in enumerate(coeffs))


def hilb_poly(c: TwistComplex) -> HilbPoly:
    """Hilbert polynomial of the K-class, degree <= n."""
    f = factorial(c.n)
    return tuple(Fraction(v, f) for v in _scaled_poly(c))


def charge(c: TwistComplex, s) -> ChargePoint:
    """(P'(s), P(s)) for the class's Hilbert polynomial P."""
    s = Fraction(s)
    a, q = s.numerator, s.denominator
    scaled = _scaled_poly(c)
    slope = [k * v for k, v in enumerate(scaled) if k] + [0]  # n! * P', length n + 1
    den = q**c.n * factorial(c.n)
    return ChargePoint(Fraction(_at(slope, a, q), den), Fraction(_at(scaled, a, q), den))


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

    Solved from the integer values P(0), P(-1), ..., P(-n) of the Hilbert
    polynomial, each the integer list n! * P that ``charge`` evaluates,
    taken at -m and divided exactly by n!; the system is triangular
    because C(n - m - i, n) vanishes for 0 <= n - m - i < n.
    """
    n = c.n
    scaled, f = _scaled_poly(c), factorial(n)
    values = [_at(scaled, -m, 1) // f for m in range(n + 1)]
    dims = [0] * (n + 1)
    dims[0] = values[0]
    for m in range(1, n + 1):
        acc = values[m] - sum(
            (-1) ** (i + n) * dims[i] * comb(m + i - 1, n) for i in range(n - m + 2, n + 1)
        )
        dims[n - m + 1] = (-1) ** (m + 1) * acc
    return tuple(Fraction(v) for v in dims)


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
    c0, c1, c2 = _scaled_poly(c)  # 2 * P(t)
    if (c1 - 3 * c2) % 2:
        raise ValueError("class has non-integral rank or degree")
    return ChernP2(c2, (c1 - 3 * c2) // 2, Fraction(2 * c0 - 3 * c1 + 5 * c2, 4))


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
