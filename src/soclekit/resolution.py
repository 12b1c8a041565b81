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
of an integer echelon form of each Cat_e, 0 < e < d (R_0 = k and R_d = k.g
are read off g), and every rank is taken exactly on an integer matrix.
``analyze_socle`` reads h_e off the same pivots, so no catalecticant is
reduced twice.

The flattenings are gathers from c through ``linalg.koszul_tables``: the
block +-[c(m + e_s + r) for r] is the row of Cat_(d-e-1) at the lift
m + e_s, which Cat_1's position table names, read at the standard
columns.  Only the rows at lifts of standard m are gathered there, each
once per degree e, and negated once; each block is copied by slice
assignment into the row of every wedge that contains s.  This module
keeps no table of its own.

The resolution of a Gorenstein quotient is self-dual (Buchsbaum-Eisenbud):
under Wedge^i V ~ Wedge^(n+1-i) V, the flattening at (i, e) is a signed
transpose of the one at (n+2-i, d-e-1), since both have entries
+-c(m + e_s + r) with the roles of m and r exchanged.  So each dual pair
has one rank.  The pairs with i = 1 need no elimination: V (x) R_e ->
R_(e+1) is multiplication, onto because R is generated in degree 1, so
its rank and that of its partner (n+1, d-e-1) is h_(e+1).  One member of
each remaining pair, 2 <= i <= n, is eliminated, the one with no more
rows than columns, since the partner's shape is the transpose and
Bareiss pays per row: none for n = 1, and the wider of (2, e) and
(2, d-e-1) for n = 2, or of (2, e) and (3, d-e-1) for n = 3.

Supported envelope: n <= 3 and d <= 6.  The largest homology matrix then
stays a few thousand entries; larger requests fail loudly.
"""

from __future__ import annotations

import json
from itertools import combinations, groupby
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .apolarity import Socle, catalecticants, integer_coeffs
from .errors import ConsistencyError, EnvelopeError, ParseError
from .linalg import (
    Monomial,
    koszul_tables,
    monomial_basis,
    monomial_index,
    rank_of_int_rows,
    rref,
)

MAX_N = 3
MAX_D = 6


def quotient_bases(g: Socle) -> tuple[tuple[Monomial, ...], ...]:
    """The standard monomials of R = S / Ann(g), one tuple per degree 0..d.

    In degree e they are the columns of Cat_e independent of every later
    column in term order, listed in term order; there are h_e of them.
    R_0 = k and R_d = k.g need no elimination: std_0 is 1, as g != 0, and
    std_d is g's last support monomial in term order, the pivot of Cat_d.
    """
    out = [((0,) * (g.n + 1),)]
    for e, cat in enumerate(catalecticants(g, range(1, g.d)), 1):
        cols = monomial_basis(g.n, e)[::-1]
        _, pivots = rref([row[::-1] for row in cat], len(cols))
        out.append(tuple(cols[p] for p in reversed(pivots)))
    if g.d:
        out.append((max(g.coeffs, key=monomial_index(g.n, g.d).__getitem__),))
    return tuple(out)


class BettiTable(NamedTuple):
    """Betti numbers b[i, j] of a minimal free resolution, entries >= 1 only."""

    n: int
    d: int
    entries: tuple[tuple[int, int, int], ...]

    def b(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, j, v in self.entries}

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "d": self.d, "entries": [list(t) for t in self.entries]}
        )

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        """A table in ``to_json``'s format.  Other text, n or d below 0, and an entry
        not of three integers, off ``grid``, repeated or below 1 in count are ParseErrors."""
        bad = ParseError(
            'bad betti table: expected {"n": int, "d": int, "entries": [[i, j, b], ...]}'
        )
        try:
            data = json.loads(text)
            n, d, entries = data["n"], data["d"], tuple(tuple(t) for t in data["entries"])
        except (ValueError, TypeError, KeyError, RecursionError):
            raise bad from None
        values = (n, d, *(v for t in entries for v in t))
        if any(len(t) != 3 for t in entries) or any(type(v) is not int for v in values):
            raise bad
        if n < 0 or d < 0 or len({t[:2] for t in entries}) < len(entries):
            raise bad
        if any(v < 1 or not (0 <= i <= n + 1 and 0 <= j - i <= d) for i, j, v in entries):
            raise bad
        return cls(n, d, entries)

    def grid(self) -> list[list[int]]:
        """Rows indexed by j - i (0..d), columns by i (0..n+1)."""
        b = self.as_dict()
        return [[b.get((i, i + r), 0) for i in range(self.n + 2)] for r in range(self.d + 1)]

    def to_text(self) -> str:
        grid = self.grid()
        width = max(len(str(v)) for row in grid for v in row)
        return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in grid)


def _eliminated(std: tuple[tuple[Monomial, ...], ...], n: int, d: int) -> list[tuple[int, int]]:
    """The flattenings (i, e) that ``koszul_betti`` eliminates, by e: one
    of each dual pair (i, e) <-> (n+2-i, d-e-1) with 2 <= i <= n, the one
    with no more rows, C(n+1, i) h_e, than columns, C(n+1, i-1) h_(e+1).
    The partner's shape is the transpose, as h is palindromic; on a tie the
    member with i < n+2-i, or with e <= d-e-1 when i = n+2-i, is kept."""
    h = list(map(len, std))
    return [
        (i, e)
        for e in range(d)
        for i in range(2, n + 1)
        if (comb(n + 1, i) * h[e], i, e) <= (comb(n + 1, i - 1) * h[e + 1], n + 2 - i, d - e - 1)
    ]


def _forced_ranks(
    std: tuple[tuple[Monomial, ...], ...], n: int, d: int
) -> dict[tuple[int, int], int]:
    """The ranks that h gives without elimination: V (x) R_e -> R_(e+1) is
    onto, so it and its dual partner (n+1, d-e-1) have rank h_(e+1)."""
    ranks = {}
    for e in range(d):
        ranks[1, e] = ranks[n + 1, d - e - 1] = len(std[e + 1])
    return ranks


def _flattenings(
    c: list[int],
    std: tuple[tuple[Monomial, ...], ...],
    n: int,
    d: int,
    pairs: list[tuple[int, int]],
):
    """Yield (i, e, rows, width) for the differential
    Wedge^i V (x) R_e -> Wedge^(i-1) V (x) R_(e+1) at each (i, e) of
    ``pairs``, which lists them grouped by e; no other flattening is built.

    The block of row (wedge, m) at column block (wedge minus x_s) is
    +-[c(m + e_s + r) for r standard of degree d-e-1]: the lift table
    names the row of Cat_(d-e-1) at m + e_s, s = 0..n, and each row that
    some standard m lifts to is gathered at those columns and negated once
    per e; every i of that e reuses them.
    """
    tables = koszul_tables(n, d)
    for e, group in groupby(pairs, key=itemgetter(1)):
        index, cat, lift = tables[e]
        cod_index = tables[d - e - 1][0]
        cod = [cod_index[r] for r in std[d - e - 1]]
        lifts = [lift[index[m]] for m in std[e]]
        plus = {}
        for r in set().union(*lifts):
            row = cat[r]
            plus[r] = [c[row[k]] for k in cod]
        minus = {r: [-v for v in row] for r, row in plus.items()}
        blocks = [([plus[r] for r in rs], [minus[r] for r in rs]) for rs in lifts]
        for i, _ in group:
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
    ranks = _forced_ranks(std, n, d)
    if pairs := _eliminated(std, n, d):
        for i, e, rows, width in _flattenings(integer_coeffs(g), std, n, d, pairs):
            ranks[i, e] = ranks[n + 2 - i, d - e - 1] = rank_of_int_rows(rows, width)
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


def _forced_ranks_hold(g: Socle) -> bool:
    """Whether eliminating each i = 1 flattening V (x) R_e -> R_(e+1) of g
    gives the rank h_(e+1) that ``koszul_betti`` assigns it unranked."""
    std = quotient_bases(g)
    forced = _forced_ranks(std, g.n, g.d)
    pairs = [(1, e) for e in range(g.d)]
    return all(
        rank_of_int_rows(rows, width) == forced[i, e]
        for i, e, rows, width in _flattenings(integer_coeffs(g), std, g.n, g.d, pairs)
    )


class SocleAnalysis(NamedTuple):
    """One socle's Hilbert function and betti table, with their cross-checks.

    All three checks hold by construction on a table from ``koszul_betti``,
    whatever the ranks: each dual pair of flattenings is given one rank and
    h is palindromic (Cat_(d-e) is the transpose of Cat_e), so ``duality_ok``
    holds; the ranks cancel from the alternating sums of each strand, which
    are then functions of h alone, so ``euler_ok`` and ``hf_matches_betti``
    hold.  They check the table's assembly, not the eliminations.  The
    corner check b[n+1, j] = [j = n+1+d] in ``verify`` holds by construction
    too: the i = n+1 ranks it reads are forced from h, not eliminated.
    """

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
    """b[i, j] == b[n+1-i, n+1+d-j] over the whole support.

    A table from ``koszul_betti`` passes whenever h is palindromic, since
    dual flattenings share one rank there; this checks tables from
    elsewhere (JSON, hand-built) and the symmetry of h.
    """
    b = t.as_dict()
    return all(v == b.get((t.n + 1 - i, t.n + 1 + t.d - j), 0) for (i, j), v in b.items())


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

