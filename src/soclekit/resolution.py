"""Graded betti tables of apolar quotients via Koszul homology.

The table entry b[i, j] is the dimension of the middle homology of

    Wedge^(i+1) V (x) R_(j-i-1)  ->  Wedge^i V (x) R_(j-i)  ->  Wedge^(i-1) V (x) R_(j-i+1)

with the signed contraction differential, where R = S / Ann(g).  Only
the ranks of the differentials are needed, and each is the rank of an
integer Koszul flattening of g (Landsberg-Ottaviani), read through the
inverse system of R (Iarrobino-Kanev):

* R_e has a basis of standard monomials, the columns of the catalecticant
  Cat_e that are independent of every later column in term order;
* f -> f . g embeds R_(e+1) into the dual forms of degree d-e-1, and the
  standard monomials r of degree d-e-1 are coordinates that keep it an
  embedding, because Cat_(d-e-1) is the transpose of Cat_(e+1).

So the differential on Wedge^i V (x) R_e has the rank of the matrix with
rows (wedge, m), m standard of degree e, columns (wedge minus x_s, r) and
entries +-c(m + e_s + r), where c are the primitive integer coefficients
of g.  Everything runs on integers: the standard monomials are the pivots
of an integer echelon form of each integer catalecticant, and every rank
is taken exactly on an integer matrix.  ``analyze_socle`` reads h_e off
the same pivots, so no catalecticant is reduced twice.

The flattenings are gathers from c through shape tables kept in
``linalg`` (``koszul_tables``): the block +-[c(m + e_s + r) for r] is the
row of the position table of Cat_(d-e-1) at the lift m + e_s, read at
the standard columns.  Each block is gathered once per (m, s) and degree
e, negated once, and copied by slice assignment into the row of every
wedge that contains s.  This module keeps no table of its own.

Supported envelope: n <= 3 and d <= 6.  The largest homology matrix then
stays a few thousand entries; larger requests fail loudly.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from typing import NamedTuple

from .apolarity import Socle, catalecticants, integer_coeffs
from .errors import ConsistencyError, EnvelopeError
from .linalg import (
    Monomial,
    koszul_tables,
    monomial_basis,
    rank_of_int_rows,
    rref,
)

MAX_N = 3
MAX_D = 6


def quotient_bases(g: Socle) -> tuple[tuple[Monomial, ...], ...]:
    """The standard monomials of R = S / Ann(g), one tuple per degree 0..d.

    In degree e they are the columns of Cat_e independent of every later
    column in term order, listed in term order; there are h_e of them.
    """
    out = []
    for e, cat in enumerate(catalecticants(g)):
        cols = monomial_basis(g.n, e)[::-1]
        _, pivots = rref([row[::-1] for row in cat], len(cols))
        out.append(tuple(cols[p] for p in reversed(pivots)))
    return tuple(out)


class BettiTable(NamedTuple):
    """Betti numbers b[i, j] of a minimal free resolution, entries >= 1 only."""

    n: int
    d: int
    entries: tuple[tuple[int, int, int], ...]

    def b(self, i: int, j: int) -> int:
        for ii, jj, v in self.entries:
            if ii == i and jj == j:
                return v
        return 0

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, j, v in self.entries}

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "d": self.d, "entries": [list(t) for t in self.entries]}
        )

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        data = json.loads(text)
        return cls(
            int(data["n"]),
            int(data["d"]),
            tuple(tuple(int(x) for x in t) for t in data["entries"]),
        )

    def grid(self) -> list[list[int]]:
        """Rows indexed by j - i (0..d), columns by i (0..n+1)."""
        return [
            [self.b(i, i + r) for i in range(self.n + 2)] for r in range(self.d + 1)
        ]

    def to_text(self) -> str:
        grid = self.grid()
        width = max(len(str(v)) for row in grid for v in row)
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in grid)


def _flattenings(c: list[int], std: tuple[tuple[Monomial, ...], ...], n: int, d: int):
    """Yield (i, e, rows, width) for each differential
    Wedge^i V (x) R_e -> Wedge^(i-1) V (x) R_(e+1), 1 <= i <= n+1, e < d.

    The block of row (wedge, m) at column block (wedge minus x_s) is
    +-[c(m + e_s + r) for r standard of degree d-e-1], the row of Cat_(d-e-1)
    at the lift m + e_s restricted to those columns.  It is gathered once
    per (m, s), with its negation, and every i reuses it.
    """
    tables = koszul_tables(n, d)
    pos = [tuple(map(index.__getitem__, std[e])) for e, (index, _) in enumerate(tables)]
    for e, (_, lifted) in enumerate(tables):
        cod = pos[d - e - 1]
        blocks = []
        for m in pos[e]:
            plus = [[c[row[k]] for k in cod] for row in lifted[m]]
            blocks.append((plus, [[-v for v in b] for b in plus]))
        for i in range(1, n + 2):
            yield (i, e, *_flattening_rows(blocks, n, i, len(cod)))


def _flattening_rows(blocks, n: int, i: int, h: int) -> tuple[list[list[int]], int]:
    """The rows of one Koszul flattening and its width, from the signed
    blocks of each standard m: ``blocks[m][odd][s]``."""
    cod_index = {w: k * h for k, w in enumerate(combinations(range(n + 1), i - 1))}
    width = len(cod_index) * h
    rows = []
    for wedge in combinations(range(n + 1), i):
        slots = [(cod_index[wedge[:p] + wedge[p + 1 :]], s, p % 2) for p, s in enumerate(wedge)]
        for signed in blocks:
            row = [0] * width
            for at, s, odd in slots:
                row[at : at + h] = signed[odd][s]
            rows.append(row)
    return rows, width


def koszul_betti(g: Socle) -> BettiTable:
    """The full betti table of the apolar quotient of g.

    Raises EnvelopeError outside n <= 3, d <= 6.
    """
    return _koszul(g)[1]


def _koszul(g: Socle) -> tuple[tuple[tuple[Monomial, ...], ...], BettiTable]:
    """The standard monomials of g and its betti table."""
    if g.n > MAX_N or g.d > MAX_D:
        raise EnvelopeError(
            f"betti tables support n <= {MAX_N} and d <= {MAX_D}, got (n={g.n}, d={g.d})"
        )
    std = quotient_bases(g)
    n, d = g.n, g.d
    ranks = {
        (i, e): rank_of_int_rows(rows, width)
        for i, e, rows, width in _flattenings(integer_coeffs(g), std, n, d)
    }
    entries = []
    for i in range(n + 2):
        for e in range(d + 1):
            dim = comb(n + 1, i) * len(std[e])
            b = dim - ranks.get((i, e), 0) - ranks.get((i + 1, e - 1), 0)
            if b < 0:
                raise ConsistencyError(f"negative homology at ({i}, {i + e})")
            if b:
                entries.append((i, i + e, b))
    return std, BettiTable(n, d, tuple(sorted(entries)))


class SocleAnalysis(NamedTuple):
    """One socle's Hilbert function and betti table, with their cross-checks."""

    hilbert_function: tuple[int, ...]
    betti: BettiTable
    duality_ok: bool
    euler_ok: bool
    hf_matches_betti: bool


def analyze_socle(g: Socle) -> SocleAnalysis:
    """g's Hilbert function, betti table and cross-checks from one set of eliminations."""
    std, table = _koszul(g)
    h = tuple(map(len, std))
    return SocleAnalysis(
        h, table, check_duality(table), check_euler(table), hf_from_betti(table) == h
    )


def check_duality(t: BettiTable) -> bool:
    """b[i, j] == b[n+1-i, n+1+d-j] over the whole support."""
    d = t.as_dict()
    keys = set(d) | {(t.n + 1 - i, t.n + 1 + t.d - j) for i, j in d}
    return all(
        d.get((i, j), 0) == d.get((t.n + 1 - i, t.n + 1 + t.d - j), 0)
        for i, j in keys
    )


def check_euler(t: BettiTable) -> bool:
    """The n+1 power-sum identities sum (-1)^i b[i,j] j^e = 0, e = 0..n."""
    for e in range(t.n + 1):
        total = 0
        for i, j, v in t.entries:
            total += (-1) ** i * v * j**e
        if total != 0:
            return False
    return True


def hf_from_betti(t: BettiTable) -> tuple[int, ...]:
    """Hilbert function by alternating binomial sums over the table."""
    out = []
    for e in range(t.d + 1):
        total = 0
        for i, j, v in t.entries:
            if e >= j:
                total += (-1) ** i * v * comb(t.n + e - j, t.n)
        out.append(total)
    return tuple(out)


def interior_square(t: BettiTable) -> tuple[tuple[int, int], ...]:
    """Columns i = 1, 2 of the rows j - i = 0..d (plane case only)."""
    if t.n != 2:
        raise ValueError("interior squares are defined for n = 2 tables")
    return tuple((t.b(1, 1 + r), t.b(2, 2 + r)) for r in range(t.d + 1))

