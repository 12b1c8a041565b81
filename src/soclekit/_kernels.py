"""Fraction-free row echelon kernel.

Everything downstream (ranks, kernels, Hilbert functions, Koszul homology)
funnels through this routine, so it is written for speed within plain
CPython: integer entries only, in-place row updates, and lazy row scaling:
a row with a zero in the pivot column, common in the block-sparse Koszul
flattenings, is left alone until its next update.
"""

from __future__ import annotations


def fraction_free_ref(rows: list[list[int]], ncols: int) -> list[int]:
    """Reduce integer ``rows`` in place to a row echelon form.

    Bareiss single-step elimination (Bareiss 1968) with column pivoting,
    giving the eager algorithm's pivots and reduced rows, whose entries
    are minors of the input.  Row i keeps ``den[i]``, the pivot of the step
    that last updated it (1 at first); the eager rescalings by
    p_k / p_(k-1) it skips telescope, so its eager value is row_i * prev /
    den[i].  Hence an update at pivot p, ``(p*row_i - x*row_r) // den[i]``,
    and the catch-up of a stale pivot row, ``row_r * prev // den[r]``, are
    eager values, and every division is exact.  Returns the pivot column
    indices; ``len`` of it is the rank.  Row signs are not normalised.
    """
    nrows = len(rows)
    den = [1] * nrows
    r = 0
    prev = 1
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        piv_row = -1
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv_row = i
                break
        if piv_row < 0:
            continue
        if piv_row != r:
            rows[r], rows[piv_row] = rows[piv_row], rows[r]
            den[r], den[piv_row] = den[piv_row], den[r]
        row_r = rows[r]
        q = den[r]
        if q != prev:
            for j in range(c, ncols):
                v = row_r[j]
                if v:
                    row_r[j] = v * prev // q
        piv = row_r[c]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            x = row_i[c]
            if x:
                q = den[i]
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - x * row_r[j]) // q
                row_i[c] = 0
                den[i] = piv
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def fraction_free_rank(rows: list[list[int]], ncols: int) -> int:
    """Rank only; never mutates the input rows."""
    work = [list(row) for row in rows]
    return len(fraction_free_ref(work, ncols))
