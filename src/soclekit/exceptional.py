"""Existence bounds for semistable plane sheaves.

The naive bound maximizes chi over the integrality lattice subject only
to a non-negative discriminant.  That is not sharp: the region of
invariants realized by semistable torsion-free sheaves on the plane is
cut out by a family of curves attached to the exceptional bundles, whose
slopes are generated from the integers by the mutation

    left * right = midpoint + (Delta_right - Delta_left) / (3 + left - right)

with Delta = (1 - 1/rank^2) / 2 and rank the slope's denominator.  A
class exists iff its normalized discriminant clears the curve value of
every nearby exceptional slope, or the class is itself a multiple of an
exceptional one.

Twisting by O(1) adds 1 to a slope and keeps its rank and Delta, so the
slopes of rank <= RANK_BOUND (13, plenty for every value this package
asserts) are the integer translates of the six in [0, 1), generated once.
On the lattice class (r, ch1, ch1^2/2 - k) the normalized discriminant
rises by exactly 1/r per step in k, so the largest chi of an existing
class is solved for in closed form rather than searched for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

RANK_BOUND = 13


class ExceptionalSlope(NamedTuple):
    slope: Fraction
    rank: int
    delta: Fraction


def _make(slope: Fraction) -> ExceptionalSlope:
    r = slope.denominator
    return ExceptionalSlope(slope, r, Fraction(1, 2) * (1 - Fraction(1, r * r)))


def _mutate(left: ExceptionalSlope, right: ExceptionalSlope) -> Fraction:
    return (left.slope + right.slope) / 2 + (right.delta - left.delta) / (
        3 + left.slope - right.slope
    )


def _unit_slopes() -> tuple[ExceptionalSlope, ...]:
    """The exceptional slopes of rank <= RANK_BOUND in [0, 1)."""
    out = [_make(Fraction(0))]

    def descend(left: ExceptionalSlope, right: ExceptionalSlope) -> None:
        child = _make(_mutate(left, right))
        if child.rank > RANK_BOUND:
            return
        out.append(child)
        descend(left, child)
        descend(child, right)

    descend(out[0], _make(Fraction(1)))
    return tuple(sorted(out))


UNIT_SLOPES = _unit_slopes()
_UNIT_BY_SLOPE = {exc.slope: exc for exc in UNIT_SLOPES}


def exceptional_slopes(lo, hi) -> tuple[ExceptionalSlope, ...]:
    """All exceptional slopes of rank <= RANK_BOUND in [lo, hi], ascending."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    return tuple(
        exc._replace(slope=exc.slope + t)
        for t in range(math.floor(lo), math.floor(hi) + 1)
        for exc in UNIT_SLOPES
        if lo <= exc.slope + t <= hi
    )


def _own_exceptional(mu: Fraction) -> ExceptionalSlope | None:
    """The exceptional slope mu itself, or None if mu is not one."""
    return _UNIT_BY_SLOPE.get(mu - math.floor(mu))


def _curve(x: Fraction) -> Fraction:
    """P(-x) = x^2/2 - 3x/2 + 1, the value of the twist polynomial at -x."""
    return x * x / 2 - 3 * x / 2 + 1


def boundary_discriminant(mu: Fraction) -> Fraction:
    """The existence threshold for normalized discriminants at slope mu."""
    mu = Fraction(mu)
    return max(
        _curve(abs(mu - exc.slope)) - exc.delta
        for exc in exceptional_slopes(mu - 1, mu + 1)
    )


def semistable_exists(r: int, ch1: int, ch2: Fraction) -> bool:
    """Existence of a semistable torsion-free sheaf with these invariants.

    Multiples of exceptional classes are admitted directly; everything
    else must clear the boundary curve.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    mu = Fraction(ch1, r)
    disc = (Fraction(ch1) ** 2 - 2 * r * ch2) / (2 * r * r)
    if disc < 0:
        return False
    own = _own_exceptional(mu)
    if own is not None and disc == own.delta:
        return True
    return disc >= boundary_discriminant(mu)


def _ch1_from_chi_prime(r: int, chi_prime, s: Fraction) -> int:
    """ch1 from chi' = ch1 + r * (s + 3/2), the derivative of chi at s."""
    if r < 1:
        raise ValueError("rank must be positive")
    chi_prime = Fraction(chi_prime)
    ch1 = chi_prime - r * (s + Fraction(3, 2))
    if ch1.denominator != 1:
        raise ValueError(
            f"chi' = {chi_prime} admits no integral degree at rank {r}"
        )
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
    own = _own_exceptional(mu)
    own_k = None if own is None else r * own.delta + k0
    if own_k == math.ceil(k0):  # as for line bundles and their multiples
        return _chi(r, ch1, int(own_k), s)
    k = math.ceil(r * boundary_discriminant(mu) + k0)
    if own_k is not None and own_k.denominator == 1:
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
    lines = [header]
    for r in sorted(grid):
        lines.append(
            [str(r)] + ["" if grid[r][c] is None else str(grid[r][c]) for c in columns]
        )
    widths = [max(len(row[k]) for row in lines) for k in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in lines
    )
