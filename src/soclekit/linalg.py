"""Monomial combinatorics and exact linear algebra on integer rows.

Monomials are exponent tuples of length n+1.  All bases of graded pieces
are listed in a fixed term order (graded reverse lexicographic with
x0 > x1 > ... > xn, largest first), which makes every downstream pivot
and standard-monomial choice reproducible bit for bit.

The shape combinatorics live here, as tables that depend only on (n, e)
or (n, d, e): the monomial bases, a monomial -> position map per degree,
the positions into monomial_basis(n, d) of every entry of the
catalecticant Cat_e, and the rows of Cat_(d-e-1) at the lifts m + e_s of
every degree-e monomial m, which the Koszul flattenings read.  A basis
is built in time linear in the exponents it holds.  Catalecticants and
Koszul flattenings are gathers from a socle's coefficient vector through
them.  Small tables are kept in bounded caches (see ``KEPT_ENTRIES``);
none is built at import time.

Rank, echelon form and kernel take a list of integer rows and its column
count, and raise ``TypeError`` on any other entry.  Each row is divided by
its content, reduced by fraction-free (Bareiss) elimination, and
back-substituted in integers, dividing each row by its content.  ``rref``
returns these primitive integer rows, whose pivot entries are positive but
not in general 1.  No floating point ever appears.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._kernels import fraction_free_rank, fraction_free_ref

Monomial = tuple[int, ...]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def term_order_key(m: Monomial):
    """Sort key placing monomials of equal degree in decreasing grevlex order."""
    return tuple(reversed(m))


def monomial_str(m: Monomial, var: str = "x") -> str:
    parts = [
        f"{var}{i}" if e == 1 else f"{var}{i}^{e}" for i, e in enumerate(m) if e
    ]
    return "*".join(parts) if parts else "1"


def monomial_basis(n: int, e: int) -> list[Monomial]:
    """All exponent tuples of degree e in n+1 variables, in term order.

    The list has exactly C(n+e, n) entries and is strictly decreasing in
    the fixed order, e.g. monomial_basis(1, 3) starts at x0^3 and ends at
    x1^3.  Every call returns a fresh list.
    """
    if n < 0 or e < 0:
        raise ValueError(f"invalid basis request (n={n}, e={e})")
    return list(_basis(n, e))


# ---------------------------------------------------------------------------
# shape tables
#
# Catalecticants and Koszul flattenings are gathers from g's coefficient
# vector through position tables that depend only on the shape.  Each
# table is kept in a bounded LRU cache when it has at most KEPT_ENTRIES
# entries, which covers every shape inside the betti envelope (the
# largest there is koszul_tables(3, 6), 504 entries); a larger table is
# rebuilt on every call, so a one-off large request leaves nothing behind.
# The tables are tuples (and a read-only mapping), so no caller can alter
# what the next one reads.

KEPT_ENTRIES = 512


def _kept(entries):
    """Cache a shape table built by ``build(*shape)`` when ``entries(*shape)``
    is at most KEPT_ENTRIES; ``cache_info`` and ``cache_parameters`` describe
    the cache."""

    def decorate(build):
        cached = lru_cache(maxsize=256)(build)

        @wraps(build)
        def table(*shape):
            return (cached if entries(*shape) <= KEPT_ENTRIES else build)(*shape)

        table.cache_info = cached.cache_info
        table.cache_parameters = cached.cache_parameters
        table.cache_clear = cached.cache_clear
        return table

    return decorate


def _basis_size(n: int, e: int) -> int:
    return comb(n + e, n)


def _coder(n: int, d: int):
    """Codes monomials of degree at most d as integers, sum m_i (d+1)^i.

    No exponent exceeds d, so the code of a product is the sum of the
    codes and ``catalecticant_table`` adds integers instead of tuples.
    """
    weights = [(d + 1) ** i for i in range(n + 1)]
    return lambda m: sum(map(mul, m, weights))


@_kept(_basis_size)
def _basis(n: int, e: int) -> tuple[Monomial, ...]:
    # Stars and bars: 0 <= q_1 <= ... <= q_n <= e cuts e into m_n = q_1,
    # m_(n-1) = q_2 - q_1, ..., m_0 = e - q_n, the q in lexicographic and
    # so term order; each monomial is n + 1 subtractions whatever e is, and
    # with no bars there is no pool of e + 1 cut points to build.
    if n == 0:
        return ((e,),)
    out = []
    for q in combinations_with_replacement(range(e + 1), n):
        q = q[::-1]
        out.append(tuple(map(sub, (e,) + q, q + (0,))))
    return tuple(out)


@_kept(_basis_size)
def monomial_index(n: int, e: int) -> Mapping[Monomial, int]:
    """Read-only map from each monomial of degree e to its position in
    ``monomial_basis(n, e)``."""
    return MappingProxyType({m: k for k, m in enumerate(_basis(n, e))})


@_kept(lambda n, d, e: _basis_size(n, e) * _basis_size(n, d - e))
def catalecticant_table(n: int, d: int, e: int) -> tuple[tuple[int, ...], ...]:
    """Positions in ``monomial_basis(n, d)`` of the entries of Cat_e.

    Row r (a monomial of degree d-e) and column c (degree e) hold the
    position of r + c, so Cat_e of a coefficient vector v over
    ``monomial_basis(n, d)`` is ``[[v[k] for k in row] for row in table]``.
    """
    code = _coder(n, d)
    # each distinct degree among d, e and d - e is built and coded once
    coded = {k: list(map(code, _basis(n, k))) for k in {d, e, d - e}}
    at = {k: p for p, k in enumerate(coded[d])}
    cols = coded[e]
    return tuple(tuple([at[r + c] for c in cols]) for r in coded[d - e])


@_kept(lambda n, d: comb(n + d, n + 1) * (n + 1))
def koszul_tables(n: int, d: int) -> tuple:
    """For each degree e < d, the pair (``monomial_index(n, e)``, lifted)
    that the Koszul flattenings of a degree-d socle read.

    ``lifted[k][s]`` is the row of ``catalecticant_table(n, d, d-e-1)`` at
    the lift m + e_s of the k-th monomial m of degree e: its j-th entry is
    the position in monomial_basis(n, d) of m + e_s + r, r the j-th
    monomial of degree d-e-1.
    """
    units = [tuple(int(i == s) for i in range(n + 1)) for s in range(n + 1)]
    out = []
    for e in range(d):
        rows = catalecticant_table(n, d, d - e - 1)
        up = monomial_index(n, e + 1)
        lifted = tuple(
            tuple([rows[up[monomial_mul(m, u)]] for u in units]) for m in _basis(n, e)
        )
        out.append((monomial_index(n, e), lifted))
    return tuple(out)


def primitive(row: Sequence[int]) -> list[int]:
    """The integer row divided by its content, first nonzero entry positive,
    as a fresh list; a non-integer entry raises ``TypeError`` (from ``gcd``)."""
    g = gcd(*row)
    if next((v for v in row if v), 0) < 0:
        g = -g
    return [v // g for v in row] if g not in (0, 1) else list(row)


def rref(rows_like: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form of integer rows.

    Returns the nonzero rows together with their pivot columns.  Each row
    is zero at every other row's pivot and is primitive: integer, content
    1, its pivot entry (the first nonzero entry) positive.  Dividing each
    row by its pivot entry gives the rational reduced echelon form, the
    canonical basis of the row space, so the result is independent of the
    input presentation.
    """
    rows = [primitive(row) for row in rows_like]
    pivots = fraction_free_ref(rows, ncols)
    del rows[len(pivots) :]
    for i in range(len(rows) - 1, -1, -1):
        row_i = rows[i]
        g = gcd(*row_i)
        if row_i[pivots[i]] < 0:
            g = -g
        if g != 1:
            rows[i] = row_i = [v // g for v in row_i]
        a = row_i[pivots[i]]
        for k in range(i):
            b = rows[k][pivots[i]]
            if b:
                new = [a * x - b * y for x, y in zip(rows[k], row_i)]
                g = gcd(*new)
                rows[k] = [v // g for v in new] if g > 1 else new
    return rows, pivots


def rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Exact rank over the rationals of integer rows."""
    return fraction_free_rank([primitive(row) for row in rows], ncols)


def kernel_basis(rows_like: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the right kernel of integer rows, one vector per free column.

    Each vector is scaled to integer entries with content 1 and first
    nonzero entry positive; vectors are ordered by their free column.
    """
    rows, pivots = rref(rows_like, ncols)
    basis: list[list[int]] = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        # v_f = lcm of the pivots meeting column f, v_p = -row[f] * v_f / row[p]
        used = [(row[f], row[p], p) for row, p in zip(rows, pivots) if row[f]]
        vec = [0] * ncols
        vec[f] = scale = lcm(*(a for _, a, _ in used))
        for b, a, p in used:
            vec[p] = -b * (scale // a)
        basis.append(primitive(vec))
    return basis


def rank_of_int_rows(rows: list[list[int]], ncols: int) -> int:
    """Rank of a list of integer rows (the hot path of every catalecticant
    and Koszul rank).  Unlike ``rank`` it does not check that its entries
    are integers, and it does not divide rows by their content."""
    return fraction_free_rank(rows, ncols)
