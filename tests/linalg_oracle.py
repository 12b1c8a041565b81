"""Reference rational echelon forms and kernels.

This is the ``Fraction`` back-substitution that ``soclekit.linalg`` used
before it switched to an integer reduced echelon form.  It is kept here
only as a differential-test oracle: it scales each row to integers by
building ``Fraction`` entries, runs the same fraction-free kernel, and
then divides and back-substitutes in ``Fraction`` arithmetic.  Its
catalecticants hold g's own rational coefficients, looked up one entry at
a time, so they share no code with ``soclekit.apolarity``'s integer
gathers.  Its ``primitive`` clears the denominators of the rational rows
the other oracles build, so no oracle borrows the code it checks.  It is
not part of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import gather_oracle
from soclekit._kernels import fraction_free_rank, fraction_free_ref
from soclekit.apolarity import Socle


def integer_rows(rows: Iterable[Sequence]) -> list[list[int]]:
    """Scale each row to integers with content 1 (rank/kernel preserving)."""
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * mult) for f in fracs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def primitive(row: Sequence) -> list[int]:
    """row divided by its content gcd(numerators) / lcm(denominators), in
    Fraction arithmetic, signed so the first nonzero entry is positive: the
    integer row with content 1 that spans the same line."""
    fracs = [Fraction(x) for x in row]
    content = Fraction(
        gcd(*(f.numerator for f in fracs)), lcm(*(f.denominator for f in fracs))
    ) or 1
    if next((f for f in fracs if f), 0) < 0:
        content = -content
    out = [f / content for f in fracs]
    assert all(f.denominator == 1 for f in out)
    return [int(f) for f in out]


def rref(rows_like: Iterable[Sequence], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form: nonzero rows and their pivot columns."""
    rows = integer_rows(rows_like)
    pivots = fraction_free_ref(rows, ncols)
    reduced = [[Fraction(x) for x in rows[i]] for i in range(len(pivots))]
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        piv = reduced[i][p]
        reduced[i] = [x / piv for x in reduced[i]]
        for k in range(i):
            factor = reduced[k][p]
            if factor:
                reduced[k] = [a - factor * b for a, b in zip(reduced[k], reduced[i])]
    return reduced, pivots


def kernel_basis(rows_like: Iterable[Sequence], ncols: int) -> list[list[int]]:
    """Right kernel, one primitive integer vector per free column, first
    nonzero entry positive, ordered by free column."""
    reduced, pivots = rref(rows_like, ncols)
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        mult = lcm(*(x.denominator for x in vec))
        ints = [int(x * mult) for x in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        first = next(v for v in ints if v)
        if first < 0:
            ints = [-v for v in ints]
        basis.append(ints)
    return basis


def catalecticant(g: Socle, e: int) -> list[list[Fraction]]:
    """The rational Cat_e of g: row r (degree d-e), column c (degree e),
    entry g's own coefficient of r + c, looked up monomial by monomial."""
    cols = gather_oracle.sorted_basis(g.n, e)
    return [
        [g.coeff(tuple(a + b for a, b in zip(r, c))) for c in cols]
        for r in gather_oracle.sorted_basis(g.n, g.d - e)
    ]


def hilbert_function(g: Socle) -> tuple[int, ...]:
    """Ranks of all d + 1 rational catalecticants; for a binary form this
    is what ``soclekit.apolarity`` computes from the middle one alone."""
    cats = [catalecticant(g, e) for e in range(g.d + 1)]
    return tuple(fraction_free_rank(integer_rows(rows), len(rows[0])) for rows in cats)


def apolar_piece(g: Socle, e: int) -> list[list[int]]:
    """Kernel of the rational degree-e catalecticant."""
    rows = catalecticant(g, e)
    return kernel_basis(rows, len(rows[0]))
