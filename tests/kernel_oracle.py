"""The eager Bareiss kernel, kept as the oracle for the lazy one in
``soclekit._kernels``.

At every step it rescales each row below the pivot, including rows whose
multiplier is zero, so every stored entry is a minor of the input right
after the step that touched it.  ``fraction_free_ref`` must leave the
same pivots and the same reduced matrix, entry for entry.
"""

from __future__ import annotations


def fraction_free_ref(rows: list[list[int]], ncols: int) -> list[int]:
    """Reduce integer ``rows`` in place to a row echelon form.

    Bareiss single-step elimination with column pivoting: after each step
    the trailing entries are minors of the input, and every division below
    is exact.  Returns the list of pivot column indices; ``len`` of it is
    the rank.  The sign of rows is not normalised.
    """
    nrows = len(rows)
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
        row_r = rows[r]
        piv = row_r[c]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            x = row_i[c]
            if x == 0:
                # The scaling step is still required to keep later
                # divisions exact (entries must stay k-minors).
                if piv != prev:
                    for j in range(c + 1, ncols):
                        v = row_i[j]
                        if v:
                            row_i[j] = piv * v // prev
            else:
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - x * row_r[j]) // prev
                row_i[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots
