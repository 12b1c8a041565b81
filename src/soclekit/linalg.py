"""Monomial combinatorics and exact dense rational linear algebra.

Monomials are exponent tuples of length n+1.  All bases of graded pieces
are listed in a fixed term order (graded reverse lexicographic with
x0 > x1 > ... > xn, largest first), which makes every downstream pivot
and standard-monomial choice reproducible bit for bit.

Rank, echelon form and kernel are computed on integer rows: each rational
row is scaled once to a primitive integer row, reduced by fraction-free
(Bareiss) elimination, and back-substituted in integers, dividing each
row by its content.  ``Fraction`` appears only in ``Matrix`` and in the
output rows of ``rref``; no floating point ever appears.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

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
    x1^3.
    """
    if n < 0 or e < 0:
        raise ValueError(f"invalid basis request (n={n}, e={e})")

    out: list[Monomial] = []

    def emit(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for v in range(remaining, -1, -1):
            emit(prefix + [v], remaining - v, slots - 1)

    emit([], e, n + 1)
    out.sort(key=term_order_key)
    return out


def gen_binomial(a, b: int) -> Fraction:
    """Generalized binomial coefficient a(a-1)...(a-b+1) / b!.

    Accepts any rational a (including negative and fractional values) and
    a non-negative integer b.
    """
    if b < 0:
        raise ValueError("lower index must be non-negative")
    num = Fraction(1)
    a = Fraction(a)
    for k in range(b):
        num *= a - k
    for k in range(2, b + 1):
        num /= k
    return num


class Matrix:
    """Dense matrix over the rationals.

    Treated as immutable after construction; all operations return fresh
    data.  Rows of length zero are allowed (pass ``ncols`` explicitly when
    there are no rows).
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Sequence], ncols: int | None = None):
        data = [[Fraction(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row length")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = data
        self.nrows = len(data)
        self.ncols = ncols

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def matvec(self, v: Sequence) -> list[Fraction]:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        return [
            sum((row[j] * Fraction(v[j]) for j in range(self.ncols)), Fraction(0))
            for row in self.rows
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


def primitive(row: Sequence) -> list[int]:
    """The integer multiple of a rational row with content 1 and first
    nonzero entry positive.  Reads only numerator and denominator."""
    mult = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (mult // x.denominator) for x in row]
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints] if g != 1 else ints


def _reduced(rows_like: Iterable[Sequence], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Integer reduced echelon form: the nonzero rows, each a multiple with
    content 1 of a row of the rref, and their pivot columns."""
    rows = [primitive(row) for row in rows_like]
    pivots = fraction_free_ref(rows, ncols)
    del rows[len(pivots) :]
    for i in range(len(rows) - 1, -1, -1):
        row_i = rows[i]
        g = gcd(*row_i)
        if g > 1:
            rows[i] = row_i = [v // g for v in row_i]
        a = row_i[pivots[i]]
        for k in range(i):
            b = rows[k][pivots[i]]
            if b:
                new = [a * x - b * y for x, y in zip(rows[k], row_i)]
                g = gcd(*new)
                rows[k] = [v // g for v in new] if g > 1 else new
    return rows, pivots


def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    return fraction_free_rank([primitive(row) for row in m.rows], m.ncols)


def rref(rows_like: Iterable[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (pivot entries 1, zeros above and below).

    Returns only the nonzero rows together with their pivot columns.  The
    result is the canonical basis of the row space, hence independent of
    the input presentation.
    """
    rows, pivots = _reduced(rows_like, ncols)
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(rows, pivots)], pivots


def kernel_basis(m: Matrix) -> list[list[int]]:
    """Basis of the right kernel, one vector per free column.

    Each vector is scaled to integer entries with content 1 and first
    nonzero entry positive; vectors are ordered by their free column.
    """
    return kernel_of_rows(m.rows, m.ncols)


def kernel_of_rows(rows_like: Iterable[Sequence], ncols: int) -> list[list[int]]:
    """``kernel_basis`` of a list of int or Fraction rows."""
    rows, pivots = _reduced(rows_like, ncols)
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
    """Rank of a raw integer row list (hot path used by homology)."""
    return fraction_free_rank(rows, ncols)


def binomial_nonneg(a: int, b: int) -> int:
    """C(a, b) for integer a, zero when a < b (used by dimension counts)."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)
