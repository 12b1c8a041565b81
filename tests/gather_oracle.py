"""Reference builders for catalecticants and Koszul flattenings.

These are the dict-lookup builders that ``soclekit`` used before it
gathered both kinds of matrix from per-shape position tables: each entry
adds two exponent tuples and looks the sum up in g's coefficient map, and
every monomial basis is enumerated and sorted afresh.  They are kept here
only as differential-test oracles; the package must produce the same
entries, row for row.
"""

from __future__ import annotations

from itertools import combinations
from operator import add

import linalg_oracle
from soclekit.apolarity import Socle
from soclekit.linalg import Monomial, term_order_key


def sorted_basis(n: int, e: int) -> list[Monomial]:
    """All exponent tuples of degree e in n+1 variables, enumerated
    recursively and then sorted into term order."""
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


def integer_coeff_map(g: Socle) -> dict[Monomial, int]:
    """The coefficients of g scaled to coprime integers, keyed by monomial."""
    return dict(zip(g.coeffs, linalg_oracle.primitive(list(g.coeffs.values()))))


def int_catalecticant(c: dict[Monomial, int], n: int, d: int, e: int) -> list[list[int]]:
    """Rows indexed by the degree d-e basis, columns by the degree e basis;
    entry c(row + col)."""
    cols = sorted_basis(n, e)
    return [[c.get(tuple(map(add, r, col)), 0) for col in cols] for r in sorted_basis(n, d - e)]


def koszul_rows(
    c: dict[Monomial, int], std: tuple[tuple[Monomial, ...], ...], n: int, i: int, e: int
) -> list[list[int]]:
    """The integer Koszul flattening of Wedge^i V (x) R_e -> Wedge^(i-1) V (x) R_(e+1):
    rows (wedge, m), m standard of degree e, columns (wedge minus x_s, r),
    r standard of degree d-e-1, entries +-c(m + e_s + r)."""
    cod = std[len(std) - e - 2]
    cod_wedges = combinations(range(n + 1), i - 1)
    cod_index = {w: k * len(cod) for k, w in enumerate(cod_wedges)}
    ncols = len(cod_index) * len(cod)
    rows = []
    for wedge in combinations(range(n + 1), i):
        for m in std[e]:
            row = [0] * ncols
            for pos, s in enumerate(wedge):
                sign = -1 if pos % 2 else 1
                block = cod_index[wedge[:pos] + wedge[pos + 1 :]]
                lifted = m[:s] + (m[s] + 1,) + m[s + 1 :]
                for k, r in enumerate(cod):
                    row[block + k] = sign * c.get(tuple(map(add, lifted, r)), 0)
            rows.append(row)
    return rows
