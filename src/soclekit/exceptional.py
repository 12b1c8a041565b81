"""Existence bounds for semistable plane sheaves.

The naive bound maximizes chi over the integrality lattice subject only
to a non-negative discriminant.  That is not sharp: the region of
invariants realized by semistable torsion-free sheaves on the plane is
cut out by a family of curves attached to the exceptional bundles, whose
slopes are generated from the integers by the mutation

    left * right = midpoint + (Delta_right - Delta_left) / (3 + left - right)

with Delta = (1 - 1/rank^2) / 2 and rank the slope's denominator.  A
class exists iff its normalized discriminant clears the Drezet-Le Potier
threshold, the supremum over exceptional slopes alpha of
P(-|mu - alpha|) - Delta_alpha, or the class is itself a multiple of an
exceptional one.

Each term exceeds 1/2 exactly on an open interval around its slope, and
the intervals are disjoint, so the supremum at mu is the term of the one
slope whose interval holds mu.  One descent by mutation from the pair
floor(mu), floor(mu) + 1 finds it; mu's denominator bounds its rank.

On the lattice class (r, ch1, ch1^2/2 - k) the normalized discriminant
rises by exactly 1/r per step in k, so the largest chi of an existing
class is solved for in closed form rather than searched for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ArgumentError, ConsistencyError


class ExceptionalSlope(NamedTuple):
    slope: Fraction
    rank: int
    delta: Fraction


def _make(slope: Fraction) -> ExceptionalSlope:
    r = slope.denominator
    return ExceptionalSlope(slope, r, Fraction(r * r - 1, 2 * r * r))


def _mutate(left: ExceptionalSlope, right: ExceptionalSlope) -> Fraction:
    return (left.slope + right.slope) / 2 + (right.delta - left.delta) / (
        3 + left.slope - right.slope
    )


def _holds(mu: Fraction, exc: ExceptionalSlope) -> bool:
    """Whether exc's term at mu exceeds 1/2: as 1 - 2 Delta = 1/r^2, iff
    x (3 - x) < 1/r^2 for x = |mu - slope|, which for x <= 1 is x < x_exc.
    With mu = a/q and x = p / (q r) that is p (3 q r - p) < q^2."""
    q = mu.denominator
    p = abs(mu.numerator * exc.rank - exc.slope.numerator * q)
    return p * (3 * q * exc.rank - p) < q * q


def _governing(mu: Fraction) -> ExceptionalSlope:
    """The exceptional slope alpha whose interval I_alpha holds mu.

    I_alpha, where alpha's term exceeds 1/2, is |mu - alpha| < x_alpha =
    (3 - sqrt(9 - 4/r^2)) / 2 = 2 / (r^2 (3 + sqrt(9 - 4/r^2))) < 2 / (5 r^2)
    for alpha of rank r.  The test is exact over Q, and no rational mu is an
    end of I_alpha, as 9 r^2 - 4 is never a square.

    The slopes strictly between a mutation pair are its child and those
    between the child and either parent, and ranks grow down this tree.
    The intervals are disjoint and each holds its own slope, so one that
    holds mu, with mu between the pair and outside both parents'
    intervals, has its slope between the pair too: keeping the side that
    holds mu finds it.  Every candidate lies within 1 of mu, inside the
    |mu - alpha| < 3/2 where the threshold takes terms.

    The descent stops by rank.  With q = mu.denominator, a slope
    alpha != mu lies at least 1/(q r) from mu, so mu in I_alpha needs
    1/(q r) < 2/(5 r^2), that is r < 2q/5; and alpha = mu has rank q.
    Once a child's rank exceeds q, no slope between the pair can hold mu.
    """
    left, right = _make(Fraction(math.floor(mu))), _make(Fraction(math.floor(mu) + 1))
    for exc in (left, right):
        if _holds(mu, exc):
            return exc
    while True:
        child = _make(_mutate(left, right))
        if child.rank > mu.denominator:
            raise ConsistencyError(f"no exceptional interval holds the slope {mu}")
        if _holds(mu, child):
            return child
        left, right = (left, child) if mu < child.slope else (child, right)


def boundary_discriminant(mu: Fraction) -> Fraction:
    """The existence threshold for normalized discriminants at slope mu:
    P(-x) - Delta of the governing slope at x = |mu - slope| from it, with
    P(-x) = x^2/2 - 3x/2 + 1 the twist polynomial at -x."""
    mu = Fraction(mu)
    exc = _governing(mu)
    x = abs(mu - exc.slope)
    return x * x / 2 - 3 * x / 2 + 1 - exc.delta


def semistable_exists(r: int, ch1: int, ch2: Fraction) -> bool:
    """Existence of a semistable torsion-free sheaf with these invariants:
    a multiple of an exceptional class, or a class clearing the boundary."""
    if r < 1:
        raise ArgumentError("rank must be positive")
    mu = Fraction(ch1, r)
    disc = (Fraction(ch1) ** 2 - 2 * r * ch2) / (2 * r * r)
    if disc < 0:
        return False
    if disc == _make(mu).delta and _governing(mu).slope == mu:
        return True
    return disc >= boundary_discriminant(mu)


def _ch1_from_chi_prime(r: int, chi_prime, s: Fraction) -> int:
    """ch1 from chi' = ch1 + r * (s + 3/2), the derivative of chi at s."""
    if r < 1:
        raise ArgumentError("rank must be positive")
    chi_prime = Fraction(chi_prime)
    ch1 = chi_prime - r * (s + Fraction(3, 2))
    if ch1.denominator != 1:
        raise ArgumentError(f"chi' = {chi_prime} admits no integral degree at rank {r}")
    return int(ch1)


def _chi(r: int, ch1: int, k: int, s: Fraction) -> Fraction:
    """chi at s of the lattice class (r, ch1, ch1^2/2 - k), by Riemann-Roch."""
    ch2 = Fraction(ch1 * ch1, 2) - k
    return r * (s + 1) * (s + 2) / 2 + ch1 * (s + Fraction(3, 2)) + ch2


def m_r_naive(r: int, chi_prime) -> Fraction:
    """Largest chi over the lattice with non-negative discriminant only.

    ch2 runs over ch1^2/2 - k for integers k; the discriminant constraint
    ch1^2 - 2 r ch2 >= 0 caps it from above.
    """
    s = Fraction(0)
    ch1 = _ch1_from_chi_prime(r, chi_prime, s)
    return _chi(r, ch1, math.ceil(Fraction(ch1 * ch1 * (r - 1), 2 * r)), s)


def max_chi_at(r: int, chi_prime, s) -> Fraction:
    """Largest chi at evaluation point s among existing semistable classes.

    The class (r, ch1, ch1^2/2 - k) has normalized discriminant
    (k - k0) / r with k0 = ch1^2 (r - 1) / (2 r), and chi falls by 1 per
    step in k, so the answer is at the smallest admitted k: the first one
    clearing the boundary curve (which is at least 3/8, so that k has a
    positive discriminant), or the exceptional class's own k when that is
    an integer and smaller.
    """
    s = Fraction(s)
    ch1 = _ch1_from_chi_prime(r, chi_prime, s)
    mu = Fraction(ch1, r)
    k0 = Fraction(ch1 * ch1 * (r - 1), 2 * r)
    own_k = r * _make(mu).delta + k0  # the class's k if mu is exceptional
    if own_k == math.ceil(k0):  # r Delta < 1: q = 1 or q = r = 2, exceptional
        return _chi(r, ch1, int(own_k), s)
    k = math.ceil(r * boundary_discriminant(mu) + k0)
    if own_k.denominator == 1 and _governing(mu).slope == mu:
        k = min(k, int(own_k))
    return _chi(r, ch1, k, s)


def m_r_dlp(r: int, chi_prime) -> Fraction:
    """Largest chi of a semistable torsion-free plane sheaf with given chi'."""
    return max_chi_at(r, chi_prime, 0)


def realizable_by_sheaf(x, y, s) -> bool:
    """Can a positive-rank semistable regular sheaf have charge (x, y) at s?

    Used to reject diagram nodes whose value could only come from torsion.
    Rank r needs the integral degree ch1 = x - r*t, t = s + 3/2 = p/q in
    lowest terms, which some r in 1..q gives exactly when q*x is an
    integer, and then every q-th rank after it.  Bogomolov caps chi at rank
    r by -r/8 + x^2/(2r), which falls with r, so the scan over those ranks
    stops once the cap is below y.
    """
    x, y, s = Fraction(x), Fraction(y), Fraction(s)
    t = s + Fraction(3, 2)
    p, q = t.numerator, t.denominator
    if q % x.denominator:
        return False
    r = int(x * q) * pow(p, -1, q) % q or q  # the first rank with integral ch1
    while -Fraction(r, 8) + x * x / (2 * r) >= y:
        if max_chi_at(r, x, s) >= y:
            return True
        r += q
    return False


MR_ROWS = (1, 2, 3)
MR_COLUMNS = tuple(Fraction(k, 2) for k in range(1, 10))


def mr_grid(refined: bool = True) -> dict[int, dict[Fraction, Fraction | None]]:
    """The bound on the MR_ROWS x MR_COLUMNS grid; None marks non-integral
    (blank) cells."""
    table: dict[int, dict[Fraction, Fraction | None]] = {}
    for r in MR_ROWS:
        table[r] = {}
        for cp in MR_COLUMNS:
            try:
                table[r][cp] = m_r_dlp(r, cp) if refined else m_r_naive(r, cp)
            except ValueError:
                table[r][cp] = None
    return table


def mr_grid_text(grid: dict[int, dict[Fraction, Fraction | None]]) -> str:
    columns = sorted(next(iter(grid.values())).keys())
    header = ["r\\chi'"] + [str(c) for c in columns]
    lines = [header] + [
        [str(r)] + ["" if grid[r][c] is None else str(grid[r][c]) for c in columns]
        for r in sorted(grid)
    ]
    widths = [max(len(row[k]) for row in lines) for k in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in lines
    )
