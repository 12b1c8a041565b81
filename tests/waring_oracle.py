"""Reference binary apolar pairs and Waring decompositions.

This is the ``Fraction`` algorithm that ``soclekit.strata`` used before
it switched to integer coefficient lists: it searches the apolar pieces
of degree 0, 1, ... for the first nonzero one (the package reads its
degree a off h_(d//2) instead), turns the pieces into forms, divides by linear factors in ``Fraction`` arithmetic, decides
squarefreeness by a ``Fraction`` Euclid on the dehomogenization at
x0 = 1, and solves the weights from a ``Fraction`` echelon form.  It is
kept here only as a differential-test oracle and is not part of the
package.

Its squarefree test cannot see a repeated factor x0 (a double root at
(0 : 1)): dehomogenizing at x0 = 1 hides it.  On such inputs it either
raises ``AssertionError`` from an inconsistent weight system or reports
``irrational``; callers compare against it only where x0^2 does not
divide the apolar generator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from linalg_oracle import primitive, rref
from soclekit.apolarity import Form, Socle, apolar_piece, form_degree
from soclekit.linalg import Monomial, monomial_basis
from soclekit.strata import WaringReport


def point_power(point: list[Fraction], d: int) -> Form:
    """The d-th power of a point under the shift pairing: its y^b
    coefficient is v^b."""
    out: Form = {}
    for mono in monomial_basis(len(point) - 1, d):
        c = Fraction(1)
        for v, e in zip(point, mono):
            c *= v**e
        if c:
            out[mono] = c
    return out


def _vector_to_form(vec, basis: list[Monomial]) -> Form:
    return {m: Fraction(c) for m, c in zip(basis, vec) if c}


def binary_apolar_pair(g: Socle) -> tuple[Form, Form]:
    """The two generators (F_a, F_b) of a binary apolar ideal, a + b = d + 2."""
    d = g.d
    if d == 0:
        return {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}
    a = None
    first: list[list[int]] = []
    for e in range(d + 1):
        piece = apolar_piece(g, e)
        if piece:
            a, first = e, piece
            break
    assert a is not None
    b = d + 2 - a
    basis_a = monomial_basis(1, a)
    f_a = _vector_to_form(first[0], basis_a)
    if a == b:
        return f_a, _vector_to_form(first[1], basis_a)

    basis_b = monomial_basis(1, b)
    if b <= d:
        piece_b = [list(v) for v in apolar_piece(g, b)]
    else:
        piece_b = [
            [1 if k == i else 0 for k in range(len(basis_b))]
            for i in range(len(basis_b))
        ]
    mult_rows = []
    for m in monomial_basis(1, b - a):
        row = [Fraction(0)] * len(basis_b)
        for mono, c in f_a.items():
            target = tuple(x + y for x, y in zip(m, mono))
            row[basis_b.index(target)] += c
        mult_rows.append(row)
    reduced, pivots = rref(mult_rows, len(basis_b))
    pivot_of = dict(zip(pivots, reduced))
    for vec in piece_b:
        work = [Fraction(v) for v in vec]
        for p, row in pivot_of.items():
            if work[p]:
                factor = work[p]
                work = [w - factor * x for w, x in zip(work, row)]
        if any(work):
            return f_a, _vector_to_form(primitive(work), basis_b)
    raise AssertionError("no independent cogenerator found")


def linear_divisors(v: int) -> list[int]:
    """The positive divisors of v by trial division of every k <= |v|, the
    enumeration ``soclekit.strata._divisors`` made before it stopped at
    the square root."""
    return [k for k in range(1, abs(v) + 1) if v % k == 0]


def binary_roots(f: Form) -> tuple[list[tuple[int, int]], Form]:
    """Rational roots (p : q) with multiplicity and the rootless rest."""
    deg = form_degree(f)
    coeffs = [Fraction(0)] * (deg + 1)
    for mono, c in f.items():
        coeffs[mono[1]] = Fraction(c)
    roots: list[tuple[int, int]] = []

    def divide_linear(cs: list[Fraction], q: int, p: int) -> list[Fraction] | None:
        # divide sum cs[k] x0^(m-k) x1^k by (q x0 - p x1) exactly
        m = len(cs) - 1
        if m < 1:
            return None
        out = [Fraction(0)] * m
        rem = list(cs)
        if q == 0:
            if rem[0] != 0:
                return None
            return [c / (-p) for c in rem[1:]]
        for k in range(m):
            out[k] = rem[k] / q
            rem[k + 1] += out[k] * p
        if rem[m] != 0:
            return None
        return out

    work = coeffs
    candidates: list[tuple[int, int]] = [(1, 0), (0, 1)]

    def divisors(v: int) -> list[int]:
        return linear_divisors(v) or [1]

    mult = 1
    for c in work:
        mult = mult * c.denominator // gcd(mult, c.denominator)
    ints = [int(c * mult) for c in work]
    trailing = next((v for v in ints if v), 0)
    leading = next((v for v in reversed(ints) if v), 0)
    for p in divisors(leading):
        for q in divisors(trailing):
            if gcd(p, q) == 1:
                candidates.extend([(p, q), (-p, q)])

    for p, q in candidates:
        while True:
            divided = divide_linear(work, q, p)
            if divided is None:
                break
            work = divided
            roots.append((p, q))
            if len(work) == 1:
                break
        if len(work) == 1:
            break
    rest: Form = {}
    m = len(work) - 1
    for k, c in enumerate(work):
        if c:
            rest[(m - k, k)] = c
    if not rest:
        rest = {(0, 0): work[0]} if work and work[0] else {}
    return roots, rest


def form_gcd_is_one(f: Form) -> bool:
    """Squarefree certificate: gcd of the dehomogenization and its derivative,
    with a repeated factor x1 checked separately."""
    deg = form_degree(f)
    p = [Fraction(0)] * (deg + 1)
    for mono, c in f.items():
        p[mono[1]] = Fraction(c)
    if deg >= 2 and p[0] == 0 and p[1] == 0:
        return False

    def poly_gcd(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
        u, v = list(u), list(v)
        while True:
            while v and v[-1] == 0:
                v.pop()
            if not v:
                break
            while len(u) >= len(v):
                if u[-1] == 0:
                    u.pop()
                    continue
                factor = u[-1] / v[-1]
                shift = len(u) - len(v)
                for k in range(len(v)):
                    u[shift + k] -= factor * v[k]
                u.pop()
            u, v = v, u
        while u and u[-1] == 0:
            u.pop()
        return u

    dp = [k * p[k] for k in range(1, deg + 1)]
    return len(poly_gcd(p, dp)) <= 1


def binary_waring(g: Socle) -> WaringReport:
    """Waring data of a binary form, exact over the rationals."""
    f_a, _ = binary_apolar_pair(g)
    a = form_degree(f_a)
    if 2 * a > g.d + 1:
        return WaringReport(
            kind="nonunique",
            apolar_degree=a,
            apolar_form=f_a,
            note=f"2(a-1) = {2 * (a - 1)} reaches d = {g.d}: decomposition not unique",
        )
    if not form_gcd_is_one(f_a):
        roots, _ = binary_roots(f_a)
        counts: dict[tuple[int, int], int] = {}
        for r in roots:
            counts[r] = counts.get(r, 0) + 1
        partition = tuple(sorted(counts.values(), reverse=True)) if roots else ()
        pts = tuple(sorted(counts, key=lambda r: counts[r], reverse=True))
        return WaringReport(
            kind="tangential",
            apolar_degree=a,
            apolar_form=f_a,
            points=pts,
            partition=partition or (a,),
            note="apolar generator is not squarefree: span of a non-reduced scheme",
        )
    roots, _ = binary_roots(f_a)
    if len(roots) < a:
        return WaringReport(
            kind="irrational",
            apolar_degree=a,
            apolar_form=f_a,
            points=tuple(roots),
            note="squarefree apolar generator with irrational roots",
        )
    basis = monomial_basis(1, g.d)
    powers = [point_power([Fraction(p), Fraction(q)], g.d) for p, q in roots]
    aug = [
        [pw.get(mono, Fraction(0)) for pw in powers] + [g.coeff(mono)] for mono in basis
    ]
    reduced, pivots = rref(aug, len(roots) + 1)
    if len(roots) in pivots:
        raise AssertionError("inconsistent Waring system")
    weights = [Fraction(0)] * len(roots)
    for k, p in enumerate(pivots):
        weights[p] = reduced[k][-1]
    return WaringReport(
        kind="points",
        apolar_degree=a,
        apolar_form=f_a,
        points=tuple(roots),
        weights=tuple(weights),
    )
