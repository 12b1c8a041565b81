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
exceptional one.  Ranks are generated up to a configurable bound
(default 13, plenty for every value this package asserts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import BoundaryResolutionError

DEFAULT_RANK_BOUND = 13


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


# Windows come from caller input, so the cache is bounded (verify-paper uses 8).
KEPT_WINDOWS = 256


@lru_cache(maxsize=KEPT_WINDOWS)
def exceptional_slopes(
    lo_num: int, lo_den: int, hi_num: int, hi_den: int, rank_bound: int
) -> tuple[ExceptionalSlope, ...]:
    """All exceptional slopes of rank <= rank_bound in [lo, hi]."""
    lo = Fraction(lo_num, lo_den)
    hi = Fraction(hi_num, hi_den)
    out: list[ExceptionalSlope] = []

    def descend(left: ExceptionalSlope, right: ExceptionalSlope) -> None:
        child_slope = _mutate(left, right)
        child = _make(child_slope)
        if child.rank > rank_bound:
            return
        if lo <= child.slope <= hi:
            out.append(child)
        descend(left, child)
        descend(child, right)

    for k in range(math.floor(lo) - 1, math.ceil(hi) + 1):
        base = _make(Fraction(k))
        if lo <= base.slope <= hi:
            out.append(base)
        descend(base, _make(Fraction(k + 1)))
    out.sort()
    return tuple(out)


def _curve(x: Fraction) -> Fraction:
    """P(-x) = x^2/2 - 3x/2 + 1, the value of the twist polynomial at -x."""
    return x * x / 2 - 3 * x / 2 + 1


def _window(mu: Fraction, rank_bound: int) -> tuple[ExceptionalSlope, ...]:
    """The exceptional slopes in [mu - 1, mu + 1]; it always holds integers."""
    lo, hi = mu - 1, mu + 1
    return exceptional_slopes(
        lo.numerator, lo.denominator, hi.numerator, hi.denominator, rank_bound
    )


def boundary_discriminant(mu: Fraction, rank_bound: int = DEFAULT_RANK_BOUND) -> Fraction:
    """The existence threshold for normalized discriminants at slope mu."""
    mu = Fraction(mu)
    return max(_curve(abs(mu - exc.slope)) - exc.delta for exc in _window(mu, rank_bound))


def semistable_exists(
    r: int, ch1: int, ch2: Fraction, rank_bound: int = DEFAULT_RANK_BOUND
) -> bool:
    """Existence of a semistable torsion-free sheaf with these invariants.

    Multiples of exceptional classes are admitted directly; everything
    else must clear the boundary curve.  The exceptional slope mu has rank
    mu.denominator, so its window is searched only when disc is its delta.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    mu = Fraction(ch1, r)
    disc = (Fraction(ch1) ** 2 - 2 * r * ch2) / (2 * r * r)
    if disc < 0:
        return False
    own = _make(mu)
    if disc == own.delta and own in _window(mu, rank_bound):
        return True
    return disc >= boundary_discriminant(mu, rank_bound)


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


@dataclass(frozen=True)
class _EvalPoint:
    """Riemann-Roch coefficients of chi and chi' at the evaluation point s."""

    s: Fraction

    @property
    def rank_coeff(self) -> Fraction:  # coefficient of ch0 in chi
        return (self.s + 1) * (self.s + 2) / 2

    @property
    def deg_coeff(self) -> Fraction:  # coefficient of ch1 in chi
        return self.s + Fraction(3, 2)


def _ch1_from_chi_prime(r: int, chi_prime: Fraction, point: _EvalPoint) -> int:
    ch1 = Fraction(chi_prime) - r * point.deg_coeff  # chi' = ch1 + r * deg_coeff
    if ch1.denominator != 1:
        raise ValueError(
            f"chi' = {chi_prime} admits no integral degree at rank {r}"
        )
    return int(ch1)


def _chi(r: int, ch1: int, ch2: Fraction, point: _EvalPoint) -> Fraction:
    return r * point.rank_coeff + ch1 * point.deg_coeff + ch2


def m_r_naive(r: int, chi_prime) -> Fraction:
    """Largest chi over the lattice with non-negative discriminant only.

    ch2 runs over ch1^2/2 - k for integers k; the discriminant constraint
    ch1^2 - 2 r ch2 >= 0 caps it from above.
    """
    point = _EvalPoint(Fraction(0))
    ch1 = _ch1_from_chi_prime(r, Fraction(chi_prime), point)
    k_min = _ceil(Fraction(ch1 * ch1 * (r - 1), 2 * r))
    ch2 = Fraction(ch1 * ch1, 2) - k_min
    return _chi(r, ch1, ch2, point)


def max_chi_at(
    r: int,
    chi_prime,
    s,
    rank_bound: int = DEFAULT_RANK_BOUND,
    search_width: int = 96,
) -> Fraction:
    """Largest chi at evaluation point s among existing semistable classes."""
    point = _EvalPoint(Fraction(s))
    ch1 = _ch1_from_chi_prime(r, Fraction(chi_prime), point)
    k_min = _ceil(Fraction(ch1 * ch1 * (r - 1), 2 * r))
    for k in range(k_min, k_min + search_width):
        ch2 = Fraction(ch1 * ch1, 2) - k
        if semistable_exists(r, ch1, ch2, rank_bound):
            return _chi(r, ch1, ch2, point)
    raise BoundaryResolutionError(
        f"no admissible ch2 within {search_width} lattice steps of the "
        f"discriminant bound for rank {r}, chi' = {chi_prime}"
    )


def m_r_dlp(r: int, chi_prime, rank_bound: int = DEFAULT_RANK_BOUND) -> Fraction:
    """Largest chi of a semistable torsion-free plane sheaf with given chi'."""
    return max_chi_at(r, chi_prime, 0, rank_bound)


def realizable_by_sheaf(x, y, s, rank_bound: int = DEFAULT_RANK_BOUND) -> bool:
    """Can a positive-rank semistable regular sheaf have charge (x, y) at s?

    Used to reject diagram nodes whose value could only come from torsion:
    it scans ranks until the unconstrained maximum -r/8 + x^2/(2r) falls
    below y for good.
    """
    x = Fraction(x)
    y = Fraction(y)
    r = 0
    while True:
        r += 1
        upper = -Fraction(r, 8) + Fraction(x * x, 2 * r)
        if upper < y and r > 2 * abs(x):
            return False
        try:
            if max_chi_at(r, x, s, rank_bound) >= y:
                return True
        except ValueError:
            continue


def mr_grid(
    rows: tuple[int, ...] = (1, 2, 3),
    columns: tuple[Fraction, ...] = tuple(Fraction(k, 2) for k in range(1, 10)),
    refined: bool = True,
) -> dict[int, dict[Fraction, Fraction | None]]:
    """The bound on a grid; None marks non-integral (blank) cells."""
    table: dict[int, dict[Fraction, Fraction | None]] = {}
    for r in rows:
        table[r] = {}
        for cp in columns:
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
