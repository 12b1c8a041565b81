"""The former per-window exceptional-slope recursion and lattice search,
kept as a differential-test oracle for ``soclekit.exceptional``.

``exceptional_slopes`` regenerates the slopes of a window by mutation
between consecutive integers, cached per window as it was; ``max_chi_at``
steps k upwards from the non-negative-discriminant bound until
``semistable_exists`` admits the class, for at most ``width`` steps.
Every bound takes the table's ``rank_bound``: at the former 13 it misses
the intervals of the rank-29 and larger slopes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
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


def _curve(x: Fraction) -> Fraction:
    return x * x / 2 - 3 * x / 2 + 1


@lru_cache(maxsize=None)
def exceptional_slopes(lo, hi, rank_bound: int = RANK_BOUND):
    lo = Fraction(lo)
    hi = Fraction(hi)
    out: list[ExceptionalSlope] = []

    def descend(left: ExceptionalSlope, right: ExceptionalSlope) -> None:
        child = _make(_mutate(left, right))
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


def boundary_discriminant(mu, rank_bound: int = RANK_BOUND) -> Fraction:
    mu = Fraction(mu)
    return max(
        _curve(abs(mu - exc.slope)) - exc.delta
        for exc in exceptional_slopes(mu - 1, mu + 1, rank_bound)
    )


def semistable_exists(r: int, ch1: int, ch2, rank_bound: int = RANK_BOUND) -> bool:
    if r < 1:
        raise ValueError("rank must be positive")
    mu = Fraction(ch1, r)
    disc = (Fraction(ch1) ** 2 - 2 * r * Fraction(ch2)) / (2 * r * r)
    if disc < 0:
        return False
    own = _make(mu)
    if disc == own.delta and own in exceptional_slopes(mu - 1, mu + 1, rank_bound):
        return True
    return disc >= boundary_discriminant(mu, rank_bound)


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def max_chi_at(r: int, chi_prime, s, width: int = 96,
               rank_bound: int = RANK_BOUND) -> Fraction:
    """Largest chi at s, or LookupError when no class lies within width steps."""
    s = Fraction(s)
    rank_coeff = (s + 1) * (s + 2) / 2
    deg_coeff = s + Fraction(3, 2)
    ch1 = Fraction(chi_prime) - r * deg_coeff
    if ch1.denominator != 1:
        raise ValueError(f"chi' = {chi_prime} admits no integral degree at rank {r}")
    ch1 = int(ch1)
    k_min = _ceil(Fraction(ch1 * ch1 * (r - 1), 2 * r))
    for k in range(k_min, k_min + width):
        ch2 = Fraction(ch1 * ch1, 2) - k
        if semistable_exists(r, ch1, ch2, rank_bound):
            return r * rank_coeff + ch1 * deg_coeff + ch2
    raise LookupError(f"no admissible ch2 within {width} lattice steps")


def realizable_by_sheaf(x, y, s, rank_bound: int = RANK_BOUND) -> bool:
    x = Fraction(x)
    y = Fraction(y)
    r = 0
    while True:
        r += 1
        upper = -Fraction(r, 8) + Fraction(x * x, 2 * r)
        if upper < y and r > 2 * abs(x):
            return False
        try:
            if max_chi_at(r, x, s, rank_bound=rank_bound) >= y:
                return True
        except ValueError:
            continue
