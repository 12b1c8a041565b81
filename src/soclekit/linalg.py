"""Monomial combinatorics and exact linear algebra on integer rows.

Monomials are exponent tuples of length n+1.  All bases of graded pieces
are listed in a fixed term order (graded reverse lexicographic with
x0 > x1 > ... > xn, largest first), which makes every downstream pivot
and standard-monomial choice reproducible bit for bit.

The shape combinatorics live here, as tables that depend only on (n, e)
or (n, d, e): the monomial bases, a monomial -> position map per degree,
and the positions into monomial_basis(n, d) of every entry of the
catalecticant Cat_e.  The Koszul flattenings need no table of their own:
the lift m -> m + e_s of a degree-e monomial is the position table of
Cat_1 in degree e + 1, whose rows pick rows of Cat_(d-e-1).  A basis
is built in time linear in the exponents it holds.  Catalecticants and
Koszul flattenings are gathers from a socle's coefficient vector through
them.  Small tables are kept in bounded caches (see ``KEPT_ENTRIES``);
none is built at import time.  One capped product, ``capped_size``, prices
bases (``basis_work``), catalecticant requests and power sums before work.

Rank, echelon form and kernel take a list of integer rows and its column
count, and raise ``TypeError`` on any other entry and ``ArgumentError`` (a
``ValueError``) on a row of another length or a negative count.  Each row
is copied divided by its content, sign unchanged, and reduced by
fraction-free (Bareiss) elimination.  If every column is a pivot, ``rref``
returns the identity; else it back-substitutes in integers, dividing each
row by its content and making its pivot positive.  Its rows are primitive,
with pivot entries positive but not in general 1.  ``kernel_basis`` gives
one primitive vector per free column, its first nonzero entry positive,
read off the same reduced rows.

Two hot-path twins skip the checks and the copy: ``rank_of_int_rows`` of
``rank`` and ``kernel_of_int_rows`` of ``kernel_basis``.  Each reduces the
list of integer rows it is handed in place (the kernel first divides each
row by its content), so a caller passes rows built for the call, such as a
fresh catalecticant, and reads nothing from them afterwards.  A full-rank
kernel is ``()``, with no back-substitution.  No floating point appears.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._kernels import fraction_free_ref
from .errors import ArgumentError, EnvelopeError

Monomial = tuple[int, ...]

# Cat_e of a socle of shape (n, d) is r x c, r = C(n+d-e, n), c = C(n+e, n);
# gathering and eliminating it takes about r * c * min(r, c) + 500 steps, and
# each monomial of a basis in n + 1 variables about n + 121.  This budget is
# checked before any gather or tuple.  It counts steps, not bit sizes (Python
# 3.11, 2-CPU machine, small coefficients): about a second for y0^2 + y200^2,
# a dense (5, 8) socle and y0^39918, but about 10 s for the Cat_270 of a dense
# binary form of degree 540, the last binary Hilbert function admitted.
MAX_CATALECTICANT_WORK = 2 * 10**7


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
    x1^3.  Every call returns a fresh list.  EnvelopeError, before any
    tuple, when ``basis_work(n, e)`` passes MAX_CATALECTICANT_WORK.
    """
    if n < 0 or e < 0:
        raise ArgumentError(f"invalid basis request (n={n}, e={e})")
    return list(_basis(n, e))


# ---------------------------------------------------------------------------
# shape tables
#
# Catalecticants and Koszul flattenings are gathers from g's coefficient
# vector through position tables that depend only on the shape.  Each
# table is kept in a bounded LRU cache when it has at most KEPT_ENTRIES
# entries, which covers every shape inside the betti envelope (the
# largest there is catalecticant_table(3, 6, 3), 400 entries); a larger
# table is rebuilt on every call, so a one-off large request leaves
# nothing behind.  The tables are tuples (and a read-only mapping), so no
# caller can alter what the next one reads.

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


@lru_cache(maxsize=256)
def capped_size(m: int, n: int, e: int, cap: int) -> int:
    """m * C(n+e, n), or a partial product past cap: m * C(n+e, k) grows
    with k <= min(n, e), so a huge request stops after a few steps."""
    for k in range(1, min(n, e) + 1):
        m = m * (n + e + 1 - k) // k
        if m > cap:
            break
    return m


def basis_work(n: int, e: int) -> int:
    """The steps of ``monomial_basis(n, e)``, n + 121 per monomial, capped."""
    return capped_size(n + 121, n, e, MAX_CATALECTICANT_WORK)


@lru_cache(maxsize=256)
def _basis_size(n: int, e: int) -> int:
    """C(n+e, n), refused when ``basis_work`` passes MAX_CATALECTICANT_WORK."""
    if basis_work(n, e) > MAX_CATALECTICANT_WORK:
        raise EnvelopeError(f"a basis at (n={n}, e={e}) needs work beyond {MAX_CATALECTICANT_WORK}")
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
    """For each degree e < d, the tables that the Koszul flattenings of a
    degree-d socle read: (``monomial_index(n, e)``,
    ``catalecticant_table(n, d, d-e-1)``, ``catalecticant_table(n, e+1, 1)``).

    Row k of the last holds the positions in monomial_basis(n, e+1) of the
    lifts m + e_s, s = 0..n, of the k-th monomial m of degree e, so it
    picks the rows of Cat_(d-e-1) at those lifts.
    """
    cat = catalecticant_table
    return tuple((monomial_index(n, e), cat(n, d, d - e - 1), cat(n, e + 1, 1)) for e in range(d))


def primitive(row: Sequence[int]) -> list[int]:
    """The integer row divided by its content, first nonzero entry positive,
    as a fresh list; a non-integer entry raises ``TypeError`` (from ``gcd``)."""
    g = gcd(*row)
    if next((v for v in row if v), 0) < 0:
        g = -g
    return [v // g for v in row] if g not in (0, 1) else list(row)


def _content_divided(rows_like: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Fresh copies of integer rows, each divided by its content, sign
    unchanged; a non-integer entry raises ``TypeError`` (from ``gcd``), a
    row of other than ``ncols`` entries or a negative ``ncols``
    ``ArgumentError``."""
    if ncols < 0:
        raise ArgumentError(f"column count must be non-negative, not {ncols}")
    rows = []
    for row in rows_like:
        if len(row) != ncols:
            raise ArgumentError(f"row length {len(row)} is not the column count {ncols}")
        rows.append([v // g for v in row] if (g := gcd(*row)) > 1 else list(row))
    return rows


def _back_substitute(rows: list[list[int]], pivots: list[int]) -> None:
    """Turn the rows that ``fraction_free_ref`` left in echelon form into
    the integer reduced form in place, dropping the zero rows below the
    last pivot: last row first, each row is divided by its content with its
    pivot entry made positive, then cleared from the pivot column of every
    row above it.  Each update is divided by its own content at once, since
    entries deferred to the end grow with the rank."""
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


def rref(rows_like: Iterable[Sequence[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form of integer rows.

    Returns the nonzero rows together with their pivot columns.  Each row
    is zero at every other row's pivot and is primitive: integer, content
    1, its pivot entry (the first nonzero entry) positive.  Dividing each
    row by its pivot entry gives the rational reduced echelon form, the
    canonical basis of the row space, so the result is independent of the
    input presentation.  When every column is a pivot it is the identity,
    returned with no back-substitution.  The input rows are not changed.
    """
    rows = _content_divided(rows_like, ncols)
    pivots = fraction_free_ref(rows, ncols)
    if len(pivots) == ncols:
        return [[int(j == i) for j in range(ncols)] for i in range(ncols)], pivots
    _back_substitute(rows, pivots)
    return rows, pivots


def rank(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Exact rank over the rationals of integer rows."""
    return rank_of_int_rows(_content_divided(rows, ncols), ncols)


def kernel_basis(rows_like: Iterable[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of the right kernel of integer rows, one vector per free column.

    Each vector is scaled to integer entries with content 1 and first
    nonzero entry positive; vectors are ordered by their free column.  The
    input rows are not changed: they are checked and copied, and the copies
    go to ``kernel_of_int_rows``.
    """
    return [list(vec) for vec in kernel_of_int_rows(_content_divided(rows_like, ncols), ncols)]


def kernel_of_int_rows(rows: list[list[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """``kernel_basis`` of integer rows, as a tuple of tuples, reducing
    ``rows`` in place: callers pass rows built for the call, and unlike
    ``kernel_basis`` it does not check them.

    Each row is divided by its content and the rows are eliminated once.
    With a pivot in every column the kernel is ``()``, found with no
    back-substitution.  Otherwise each reduced row is scaled so that every
    pivot entry is the lcm of them all, t; the kernel vector of a free
    column f is then -t at f and each row's entry at f at its pivot, read
    off the columns by ``zip`` as one tuple and divided by its content, with
    its first nonzero entry made positive.  That primitive vector is the
    one the support alone gives.
    """
    for i, row in enumerate(rows):
        g = gcd(*row)
        if g > 1:
            rows[i] = [v // g for v in row]
    pivots = fraction_free_ref(rows, ncols)
    if len(pivots) == ncols:
        return ()
    _back_substitute(rows, pivots)
    heads = [row[p] for row, p in zip(rows, pivots)]
    top = lcm(*heads)
    pivot_set = set(pivots)
    free = [f for f in range(ncols) if f not in pivot_set]
    columns: list[list[int]] = [[]] * ncols
    for row, p, a in zip(rows, pivots, heads):
        m = top // a
        columns[p] = [m * row[f] for f in free]
    for k, f in enumerate(free):
        columns[f] = column = [0] * len(free)
        column[k] = -top
    basis = []
    for vec in zip(*columns):
        g = gcd(*vec)
        if next(filter(None, vec)) < 0:
            g = -g
        basis.append(vec if g == 1 else tuple([v // g for v in vec]))
    return tuple(basis)


def rank_of_int_rows(rows: list[list[int]], ncols: int) -> int:
    """Rank of integer rows, the hot path of every catalecticant and Koszul
    rank.  It reduces ``rows`` in place, so callers pass rows built for the
    call, and unlike ``rank`` it neither checks nor content-divides them."""
    return len(fraction_free_ref(rows, ncols))
