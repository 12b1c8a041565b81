"""Reference Koszul homology over the quotient R = S / Ann(g).

This is the rational normal-form algorithm that ``soclekit.resolution``
used before it switched to integer catalecticant flattenings.  It is kept
here only as a differential-test oracle: it multiplies standard monomials
inside R, fills ``Fraction`` columns and clears denominators before every
rank.  It is slow (tens of milliseconds per socle) and is not part of the
package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from linalg_oracle import rref
from soclekit.apolarity import Socle, apolar_piece
from soclekit.linalg import Monomial, monomial_basis, rank_of_int_rows


class QuotientBasis:
    """Standard-monomial coordinates for every graded piece of R.

    Standard monomials in degree e are the non-pivot columns of the
    reduced echelon form of the annihilator piece; their count is h_e.
    ``project`` computes the normal form of an S_e coefficient vector in
    these coordinates, killing exactly the annihilator.
    """

    def __init__(self, g: Socle):
        self.socle = g
        self.n = g.n
        self.d = g.d
        self.bases: list[list[Monomial]] = []
        self.standard: list[list[Monomial]] = []
        self._std_pos: list[dict[Monomial, int]] = []
        self._pivot_rows: list[dict[Monomial, list[Fraction]]] = []
        for e in range(g.d + 1):
            basis = monomial_basis(g.n, e)
            reduced, pivots = rref(apolar_piece(g, e), len(basis))
            pivot_set = set(pivots)
            std = [m for c, m in enumerate(basis) if c not in pivot_set]
            rows = {basis[p]: reduced[k] for k, p in enumerate(pivots)}
            self.bases.append(basis)
            self.standard.append(std)
            self._std_pos.append({m: k for k, m in enumerate(std)})
            self._pivot_rows.append(rows)
        self._nf_cache: dict[Monomial, tuple[Fraction, ...]] = {}

    def dims(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.standard)

    def normal_form_monomial(self, mono: Monomial) -> tuple[Fraction, ...]:
        """Coordinates of a monomial's class in the standard basis."""
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        e = sum(mono)
        std = self.standard[e]
        pos = self._std_pos[e]
        if mono in pos:
            vec = [Fraction(0)] * len(std)
            vec[pos[mono]] = Fraction(1)
        else:
            # mono is a pivot of the annihilator's echelon form: its class
            # is minus the standard part of that row.
            row = self._pivot_rows[e][mono]
            basis = self.bases[e]
            vec = [Fraction(0)] * len(std)
            for c, m in enumerate(basis):
                if m in pos and row[c]:
                    vec[pos[m]] = -row[c]
        out = tuple(vec)
        self._nf_cache[mono] = out
        return out

    def project(self, e: int, coeffs) -> tuple[Fraction, ...]:
        """Normal form of an S_e vector (mapping monomial -> coefficient)."""
        acc = [Fraction(0)] * len(self.standard[e])
        for mono, c in coeffs.items():
            c = Fraction(c)
            if not c:
                continue
            for k, v in enumerate(self.normal_form_monomial(tuple(mono))):
                if v:
                    acc[k] += c * v
        return tuple(acc)

    def multiply_standard(self, e: int, var: int, idx: int) -> tuple[Fraction, ...]:
        """Class of x_var * (idx-th standard monomial of degree e) in R_(e+1)."""
        mono = self.standard[e][idx]
        lifted = list(mono)
        lifted[var] += 1
        return self.normal_form_monomial(tuple(lifted))


def differential_rank(qb: QuotientBasis, i: int, j: int) -> int:
    """Rank of Wedge^i V (x) R_(j-i) -> Wedge^(i-1) V (x) R_(j-i+1)."""
    n, d = qb.n, qb.d
    e = j - i
    if i < 1 or i > n + 1 or e < 0 or e > d or e + 1 > d:
        return 0
    h_dom = len(qb.standard[e])
    h_cod = len(qb.standard[e + 1])
    if h_dom == 0 or h_cod == 0:
        return 0
    dom_wedges = list(combinations(range(n + 1), i))
    cod_wedges = list(combinations(range(n + 1), i - 1))
    cod_index = {w: k for k, w in enumerate(cod_wedges)}
    nrows = len(cod_wedges) * h_cod
    cols: list[list[Fraction]] = []
    for wedge in dom_wedges:
        mults = [qb.multiply_standard(e, s, u) for s in wedge for u in range(h_dom)]
        for u in range(h_dom):
            col = [Fraction(0)] * nrows
            for pos, s in enumerate(wedge):
                target = wedge[:pos] + wedge[pos + 1 :]
                block = cod_index[target] * h_cod
                sign = -1 if pos % 2 else 1
                vec = mults[pos * h_dom + u]
                for k, v in enumerate(vec):
                    if v:
                        col[block + k] += sign * v
            cols.append(col)
    # rank is computed on the transpose (same value, rows are natural here)
    int_rows = []
    for col in cols:
        mult = lcm(*(x.denominator for x in col)) if col else 1
        ints = [int(x * mult) for x in col]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        int_rows.append(ints)
    return rank_of_int_rows(int_rows, nrows)


def oracle_betti_entries(g: Socle) -> tuple[tuple[int, int, int], ...]:
    """The sorted (i, j, b[i, j]) entries of the betti table, b >= 1 only."""
    qb = QuotientBasis(g)
    h = qb.dims()
    entries = []
    for i in range(g.n + 2):
        for e in range(g.d + 1):
            j = i + e
            b = (
                comb(g.n + 1, i) * h[e]
                - differential_rank(qb, i, j)
                - differential_rank(qb, i + 1, j)
            )
            if b:
                entries.append((i, j, b))
    return tuple(sorted(entries))
