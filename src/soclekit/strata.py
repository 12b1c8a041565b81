"""Stratum catalogs, socle classification and charge diagrams.

One registry maps each supported shape (n, d) to its catalog builder;
catalogs, witnesses and diagrams all take their envelope from it.  Each
catalog is built once, and its entries are frozen.  One table gives the
K-class of every plane kernel object and diagram candidate: each plane
entry's charge node and each plane candidate's node are read from it.
Witnesses are built by walking the catalog in order, over one table from
label to points, and each plane entry's witness ideal is read from one
table from label to ideal.  One cone rule,
[O(ceil(d/2))] - [omega(-floor(d/2))[n]], gives every source's cone: the
semistable entries' node for both n and the binary diagram's E(sigma).

Classification is a pure function of computed invariants: Hilbert
function first, then (where a Hilbert function is shared by two strata)
the interior square of the betti table.  Nothing is ever force-fitted:
a socle matching no catalog entry comes back unclassified.

The diagram data reproduces the node sets of the worked low-degree
pictures: candidate nodes are charge values of possible kernel objects,
reference nodes are the fixed landmarks, built by one rule for both n:
O(-k)[k] for k = 1..n, a point's class C_p and the socle source
O(ceil(d/2)), with the source's cone E(sigma) on P^1.  No status is typed:
a candidate is red exactly when one of three reasons holds, and black,
with no reason, otherwise:

  1. the argument drops below the structure sheaf's ray, so no object of
     the window category has that charge (tested by compare_arg);
  2. the value exceeds every rank's semistable maximum, so only torsion
     sheaves could carry it and none maps to the source (tested against
     the discriminant bound);
  3. an annotated forced factorization, recorded in _FACTORIZATION_NOTES.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt
from typing import Callable, NamedTuple, Sequence

from .apolarity import (
    Form,
    Socle,
    admit_catalecticants,
    binary_hilbert_function,
    catalecticant,
    factors_through_ideal,
    hilbert_function,
    int_catalecticant,
    integer_coeffs,
    parse_operator,
    synth_power_sum,
)
from .charge import ChargePoint, TwistComplex, charge, compare_arg
from .errors import ConsistencyError, EnvelopeError
from .linalg import kernel_basis, rank_of_int_rows, rref
from .resolution import BettiTable, interior_square, koszul_betti

Fingerprint = tuple[tuple[int, int], ...]


def parity_point(d: int) -> Fraction:
    """Evaluation point of the central charge: 0 for even d, -1/2 for odd."""
    return Fraction(0) if d % 2 == 0 else Fraction(-1, 2)


class CatalogEntry(NamedTuple):
    label: str
    n: int
    d: int
    hilbert_function: tuple[int, ...]
    kernel_object: str
    chain: str
    dimension: int
    charge_node: ChargePoint
    betti_fingerprint: Fingerprint | None = None
    witness_ideal: tuple[str, ...] | None = None  # operator polynomials in x


class DiagramNode(NamedTuple):
    name: str
    point: ChargePoint
    status: str  # "black" | "red"
    reason: str | None
    kind: str  # "candidate" | "reference"


# ---------------------------------------------------------------------------
# catalog data


def _Z(d: int, cls: TwistComplex) -> ChargePoint:
    return charge(cls, parity_point(d))


def _O(n: int, e: int) -> TwistComplex:
    return TwistComplex.line_bundle(n, e)


def _I(n: int, count: int, twist: int) -> TwistComplex:
    return TwistComplex.ideal_of_points(n, count, twist)


def _source_cone(n: int, d: int) -> TwistComplex:
    """The source's cone [O(ceil(d/2))] - [omega(-floor(d/2))[n]], e = ceil(d/2).

    Even d: both twists are e = d/2, the semistable entries' cone on P^1 and
    P^2.  Odd d: floor(d/2) = e - 1, [O(e)] - [omega(1 - e)[1]], the binary
    diagram's E(sigma).  So one rule serves both parities.
    """
    return _O(n, (d + 1) // 2) + TwistComplex.canonical_twist(n, d // 2).shift(1)


def _binary_entries(d: int) -> list[CatalogEntry]:
    """Sylvester's strata: rank a has kernel object O(e - a), e = ceil(d/2)."""
    e = (d + 1) // 2
    omega = f"omega({-(d // 2)})[1]"
    entries = []
    for a in range(1, d // 2 + 2):
        if a > e:  # the one rank past e, semistable: even d only
            kernel_object, cls = "none (semistable)", _source_cone(1, d)
            chain = f"O({e}) -> {omega} injective"
        else:
            kernel_object, cls = f"O({e - a})", _O(1, e - a)
            chain = f"O({e}) -> O_Z({e}) -> {omega}, len Z = {a}"
        hf, dimension = binary_hilbert_function(d, a), min(2 * a - 1, d)
        entries.append(
            CatalogEntry(f"binary-span-a{a}", 1, d, hf, kernel_object, chain, dimension, _Z(d, cls))
        )
    return entries


# The K-class of every plane kernel object and diagram candidate.  The
# semistable cone's class depends on d (``_plane_charge``), and I_{l+p}(2)
# has [O(2)] - [O_l(2)] - [C_p] = [O(1)] - [C_p], the class of I_p(1).
_PLANE_CLASSES = {
    "O": _O(2, 0),
    "O(1)": _O(2, 1),
    "O^2": _O(2, 0).scale(2),
    "O^3": _O(2, 0).scale(3),
    "I_p(1)": _I(2, 1, 1),
    "I_pq(1)": _I(2, 2, 1),
    "I_p(2)": _I(2, 1, 2),
    "I_pq(2)": _I(2, 2, 2),
    "I_pqr(2)": _I(2, 3, 2),
    "I_{l+p}(2)": _I(2, 1, 1),
    "T(-1)": TwistComplex(2, ((0, 0, 3), (1, 1, 1))),
}


def _plane_charge(d: int, name: str) -> ChargePoint:
    if name == "none (semistable)":
        return _Z(d, _source_cone(2, d))
    return _Z(d, _PLANE_CLASSES[name])


def _plane_entry(
    d: int, label: str, hf: tuple[int, ...], kernel_object: str, chain: str, dimension: int, **rest
) -> CatalogEntry:
    """A plane entry of degree d, written as (label, Hilbert function, kernel
    object, chain, dimension) and any betti fingerprint; its charge node is
    the kernel object's class, its witness ideal its label's in _WITNESS_IDEALS."""
    node = _plane_charge(d, kernel_object)
    rest["witness_ideal"] = _WITNESS_IDEALS.get(label)
    return CatalogEntry(label, 2, d, hf, kernel_object, chain, dimension, node, **rest)


def _plane_d1() -> list[CatalogEntry]:
    return [_plane_entry(1, "linear-form", (1, 1), "I_p(1)", "O(1) -> O_p(1) -> omega(0)[2]", 2)]


def _plane_d2() -> list[CatalogEntry]:
    entry = partial(_plane_entry, 2)
    return [
        entry("rank-1", (1, 1, 1), "I_p(1)", "O(1) -> O_p(1) -> omega(-1)[2]", 2),
        entry("rank-2", (1, 2, 1), "O", "O(1) -> O_l(1) -> omega(-1)[2]", 4),
        entry("rank-3", (1, 3, 1), "none (semistable)", "O(1) -> omega(-1)[2] injective", 5),
    ]


def _plane_d3() -> list[CatalogEntry]:
    entry = partial(_plane_entry, 3)
    return [
        entry("veronese", (1, 1, 1, 1), "I_p(2)", "O(2) -> O_p(2) -> omega(-1)[2]", 2),
        entry("secant-lines", (1, 2, 2, 1), "I_pq(2)", "O(2) -> O_pq(2) -> omega(-1)[2]", 5),
        entry(
            "three-points", (1, 3, 3, 1), "I_pqr(2)", "O(2) -> O_pqr(2) -> omega(-1)[2]", 8,
            betti_fingerprint=((0, 0), (3, 2), (2, 3), (0, 0)),
        ),
        entry(
            "open-semistable", (1, 3, 3, 1), "O^3", "O^3 -> O(2), no intermediary", 9,
            betti_fingerprint=((0, 0), (3, 0), (0, 3), (0, 0)),
        ),
    ]


def _plane_d4() -> list[CatalogEntry]:
    entry = partial(_plane_entry, 4)
    return [
        entry("veronese", (1, 1, 1, 1, 1), "I_p(2)", "O(2) -> O_p -> omega(-2)[2]", 2),
        entry(
            "secant-lines", (1, 2, 2, 2, 1), "I_pq(2)", "O(2) -> O_l(2) -> O_pq -> omega(-2)[2]", 5
        ),
        entry("line-quartics", (1, 2, 3, 2, 1), "O(1)", "O(2) -> O_l(2) -> omega(-2)[2]", 6),
        entry("three-points", (1, 3, 3, 3, 1), "I_pqr(2)", "O(2) -> O_pqr -> omega(-2)[2]", 8),
        entry(
            "quartic-line-plus-point", (1, 3, 4, 3, 1), "I_{l+p}(2)",
            "O(2) -> O_{l+p}(2) -> omega(-2)[2]", 9,
            betti_fingerprint=((0, 0), (2, 1), (2, 2), (1, 2), (0, 0)),
        ),
        entry(
            "conic-pencil-base", (1, 3, 4, 3, 1), "O^2", "O(2) -> O(2)/O^2 -> omega(-2)[2]", 11,
            betti_fingerprint=((0, 0), (2, 0), (1, 1), (0, 2), (0, 0)),
        ),
        entry("single-conic", (1, 3, 5, 3, 1), "O", "O(2) -> O_C(2) -> omega(-2)[2]", 13),
        entry(
            "open-semistable", (1, 3, 6, 3, 1), "none (semistable)",
            "[O(-2)^7 -> O(-1)^7], corank one", 14,
        ),
    ]


# Binary forms up to d = 12 (classification there needs only Hilbert
# functions, not betti tables) and plane socles of degree 1..4.
_CATALOGS: dict[tuple[int, int], Callable[[], list[CatalogEntry]]] = {
    **{(1, d): partial(_binary_entries, d) for d in range(1, 13)},
    (2, 1): _plane_d1,
    (2, 2): _plane_d2,
    (2, 3): _plane_d3,
    (2, 4): _plane_d4,
}


@lru_cache(maxsize=len(_CATALOGS))
def _built(n: int, d: int) -> tuple[CatalogEntry, ...]:
    return tuple(_CATALOGS[n, d]())


def catalog(n: int, d: int) -> list[CatalogEntry]:
    """The stratum catalog of a supported (n, d), as a fresh list."""
    if not catalog_supported(n, d):
        raise EnvelopeError(f"no stratum catalog for (n={n}, d={d})")
    return list(_built(n, d))


def catalog_supported(n: int, d: int) -> bool:
    return (n, d) in _CATALOGS


# ---------------------------------------------------------------------------
# classification


def classify(g: Socle) -> CatalogEntry | None:
    """Match a socle to its stratum; None means unclassified, never a guess."""
    catalog(g.n, g.d)  # refuses a shape without a catalog before any rank
    return classify_by(g, hilbert_function(g), lambda: koszul_betti(g))


def classify_by(
    g: Socle, hf: tuple[int, ...], table: Callable[[], BettiTable]
) -> CatalogEntry | None:
    """``classify`` from g's Hilbert function; ``table()`` is its betti table."""
    matches = [e for e in catalog(g.n, g.d) if e.hilbert_function == hf]
    if not matches:
        return None
    if len(matches) == 1:
        return matches[0]
    square = interior_square(table())
    narrowed = [e for e in matches if e.betti_fingerprint == square]
    if len(narrowed) == 1:
        return narrowed[0]
    return None


def quadric_rank(g: Socle) -> tuple[int, CatalogEntry | None]:
    """Rank of the degree-1 catalecticant and the matching rank stratum."""
    if g.d != 2:
        raise ValueError("quadric rank needs a degree-2 socle")
    r = rank_of_int_rows(catalecticant(g, 1), g.n + 1)
    if not catalog_supported(g.n, 2):
        return r, None
    return r, classify_by(g, (1, r, 1), lambda: koszul_betti(g))


# ---------------------------------------------------------------------------
# binary forms: apolar pairs and Waring decomposition
#
# A binary x-form of degree a is its integer coefficient list c over
# monomial_basis(1, a), c[k] multiplying x0^(a-k) x1^k, as a catalecticant
# kernel returns it.  g is converted once, and every catalecticant below is
# gathered from its integer vector.  F_b and the weights (scaled to g once)
# come from integer echelon forms, rational roots from exact integer
# synthetic division, and squarefreeness from the rank of the
# discriminant's Sylvester matrix.  Fraction appears only in the
# returned Forms and weights.  The point (p : q) in y is the root of the
# operator q*x0 - p*x1.


def _as_form(c: Sequence[int]) -> Form:
    a = len(c) - 1
    return {(a - k, k): Fraction(v) for k, v in enumerate(c) if v}


def _first_piece(g: Socle) -> tuple[int, list[list[int]], list[int], list[int]]:
    """The degree a of the first nonzero annihilator piece, its basis, whose
    first vector is F_a, the degrees of the catalecticants eliminated and
    g's integer coefficient vector, which every catalecticant is read from.

    By Sylvester's theorem h_e = min(e + 1, a) for e <= d/2, so a is the
    first rank <= e of Cat_e, e = 1, 2, 4, ..., or the rank of Cat_(d//2).
    Each catalecticant is priced together with those before it, so a small
    a costs small catalecticants whatever the degree, and the search stops
    before the first one that would take the call past the budget.
    """
    d, top = g.d, g.d // 2
    e = min(1, top)
    priced = [e]
    admit_catalecticants(g, *priced)  # before the coefficients of a long form
    c = integer_coeffs(g)
    while (a := rank_of_int_rows(int_catalecticant(c, 1, d, e), e + 1)) > e and e < top:
        priced.append(e := min(2 * e, top))
        admit_catalecticants(g, *priced)
    if a > d:  # d = 0: the piece is all of S_1
        return a, [[1, 0], [0, 1]], priced, c
    priced.append(a)
    admit_catalecticants(g, *priced)
    return a, kernel_basis(int_catalecticant(c, 1, d, a), a + 1), priced, c


def _multiples(f: Sequence[int], m: int) -> list[list[int]]:
    """The coefficient lists of x0^(m-j) * x1^j * f, j = 0..m."""
    return [[0] * j + list(f) + [0] * (m - j) for j in range(m + 1)]


def binary_apolar_pair(g: Socle) -> tuple[Form, Form]:
    """The two generators (F_a, F_b) of a binary apolar ideal, a + b = d + 2.

    F_a spans the first nonzero piece of the annihilator; F_b is the
    degree-b element of it that vanishes on the pivot columns of
    S_(b-a) * F_a, primitive with its first nonzero coefficient positive.
    When a = b the pair is the echelon basis of the degree-a piece.
    """
    if g.n != 1:
        raise ValueError("apolar pairs are a binary-form computation")
    a, first, priced, c = _first_piece(g)
    b = g.d + 2 - a
    if a == b:
        return _as_form(first[0]), _as_form(first[1])
    # The multiples x0^(b-a-j) x1^j F_a are in echelon form, pivots on the
    # b - a + 1 columns from F_a's first nonzero coefficient p on, and Ann_b
    # is their span plus one line: the kernel of Cat_b on the a other columns.
    p = next(k for k, v in enumerate(first[0]) if v)
    free = [*range(p), *range(p + b - a + 1, b + 1)]
    rows = []
    if b <= g.d:  # else Ann_b is all of S_b
        admit_catalecticants(g, *priced, b)
        rows = [[row[k] for k in free] for row in int_catalecticant(c, 1, g.d, b)]
    line = kernel_basis(rows, a)
    if len(line) != 1:
        raise ConsistencyError("no degree-b generator outside S_(b-a) * F_a")
    f_b = [0] * (b + 1)
    for k, v in zip(free, line[0]):
        f_b[k] = v
    return _as_form(first[0]), _as_form(f_b)


def _squarefree(f: Sequence[int]) -> bool:
    """Whether F has no repeated factor over the algebraic closure.

    A repeated factor is a common zero of dF/dx0 and dF/dx1 on P^1 (Euler:
    a*F = x0*dF/dx0 + x1*dF/dx1), so F is squarefree exactly when their
    Sylvester matrix, whose determinant is the discriminant of F, has full
    rank 2a - 2.  Being homogeneous, the test also sees the point (0 : 1).
    """
    a = len(f) - 1
    dx0 = [(a - k) * c for k, c in enumerate(f[:-1])]
    dx1 = [k * c for k, c in enumerate(f) if k]
    sylvester = _multiples(dx0, a - 2) + _multiples(dx1, a - 2)
    return rank_of_int_rows(sylvester, 2 * a - 2) == 2 * a - 2


def _divisors(v: int) -> list[int]:
    """The positive divisors of v, ascending, from the pairs (k, |v| / k)
    with k <= isqrt(|v|)."""
    v = abs(v)
    small = [k for k in range(1, isqrt(v) + 1) if v % k == 0]
    return small + [v // k for k in reversed(small) if k * k != v]


def _divide(c: list[int], p: int, q: int) -> list[int] | None:
    """c / (q*x0 - p*x1) by synthetic division, or None if it does not divide.

    gcd(p, q) = 1, so by Gauss's lemma an exact quotient of an integer form
    is integral: a step that is not integral means "not a factor".
    """
    if q == 0:  # the divisor is -p*x1, p = +-1
        return [-p * v for v in c[1:]] if c[0] == 0 else None
    out, carry = [], 0
    for v in c[:-1]:
        k, r = divmod(v + carry, q)
        if r:
            return None
        out.append(k)
        carry = p * k
    return out if c[-1] + carry == 0 else None


def _binary_roots(f: Sequence[int]) -> list[tuple[int, int]]:
    """Rational roots (p : q) of F with multiplicity, in candidate order.

    Candidates are (1 : 0), (0 : 1), then (+-p : q) for p dividing the last
    nonzero coefficient and q the first, coprime: the rational root test.
    """
    trailing = next(v for v in f if v)
    leading = next(v for v in reversed(f) if v)
    candidates = [(1, 0), (0, 1)]
    for p in _divisors(leading):
        for q in _divisors(trailing):
            if gcd(p, q) == 1:
                candidates += [(p, q), (-p, q)]
    roots: list[tuple[int, int]] = []
    work = list(f)
    for p, q in candidates:
        while len(work) > 1 and (quotient := _divide(work, p, q)) is not None:
            work = quotient
            roots.append((p, q))
        if len(work) == 1:
            break
    return roots


class WaringReport(NamedTuple):
    kind: str  # "points" | "irrational" | "tangential" | "nonunique"
    apolar_degree: int
    apolar_form: Form
    points: tuple[tuple[int, int], ...] = ()
    weights: tuple[Fraction, ...] = ()
    partition: tuple[int, ...] = ()
    note: str = ""


def binary_waring(g: Socle) -> WaringReport:
    """Waring data of a binary form, exact over the rationals.

    In the uniqueness regime 2a <= d + 1 the degree-a apolar generator is
    unique; its rational roots are the points of the decomposition and an
    exact linear solve recovers the weights.  Squarefree generators (a
    nonzero discriminant) with irrational roots return the generator
    itself; non-squarefree generators return their multiplicity partition
    (tangential spans).  Outside the regime a nonunique marker is returned.

    The apolar degree a is h_(d//2) of ``hilbert_function``, but it is
    found by a priced doubling search (``_first_piece``) that stops at the
    first Cat_e of rank at most e.  So a sparse form of small a is admitted
    far past the degree where ``hilbert_function``, which prices the whole
    Cat_(d//2), refuses it: ``y0^600 + 2*y1^600`` has a = 2 here.
    """
    if g.n != 1:
        raise ValueError("Waring reports are a binary-form computation")
    a, first, _, c = _first_piece(g)
    f = first[0]
    report = partial(WaringReport, apolar_degree=a, apolar_form=_as_form(f))
    if 2 * a > g.d + 1:
        note = f"2(a-1) = {2 * (a - 1)} reaches d = {g.d}: decomposition not unique"
        return report(kind="nonunique", note=note)
    roots = _binary_roots(f)
    if not _squarefree(f):
        counts = Counter(roots)
        return report(
            kind="tangential",
            points=tuple(sorted(counts, key=counts.__getitem__, reverse=True)),
            partition=tuple(sorted(counts.values(), reverse=True)) or (a,),
            note="apolar generator is not squarefree: span of a non-reduced scheme",
        )
    if len(roots) < a:
        note = "squarefree apolar generator with irrational roots"
        return report(kind="irrational", points=tuple(roots), note=note)
    # exact weights: sum_i w_i (p_i, q_i)^d = c, one row per y0^(d-k) y1^k,
    # times g's scale over its integer coefficients c
    d = g.d
    rows = [[p ** (d - k) * q**k for p, q in roots] + [c[k]] for k in range(d + 1)]
    reduced, pivots = rref(rows, a + 1)
    if pivots != list(range(a)):
        raise ConsistencyError("inconsistent Waring system")
    scale = next(g.coeff((d - k, k)) / v for k, v in enumerate(c) if v)
    weights = tuple(Fraction(row[-1], row[p]) * scale for row, p in zip(reduced, pivots))
    return report(kind="points", points=tuple(roots), weights=weights)


# ---------------------------------------------------------------------------
# witnesses


_E0, _E1, _E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
_BINARY_POINTS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (1, 3)]

# The points of each stratum's witness, a power sum with unit weights: the
# binary entry of rank a takes the first a points.
_WITNESS_POINTS = {
    **{f"binary-span-a{a}": _BINARY_POINTS[:a] for a in range(1, len(_BINARY_POINTS) + 1)},
    "linear-form": [_E0],
    "rank-1": [_E0],
    "rank-2": [_E0, _E1],
    "rank-3": [_E0, _E1, _E2],
    "veronese": [_E0],
    "secant-lines": [_E0, _E1],
    "three-points": [_E0, _E1, _E2],
    "line-quartics": [_E0, _E1, (1, 1, 0)],
    "quartic-line-plus-point": [_E0, _E1, (1, 1, 0), _E2],
    "conic-pencil-base": [_E0, _E1, _E2, (1, 1, 1)],
    "single-conic": [_E0, _E1, (1, 1, 1), (1, 4, 2), (1, 4, -2)],
}

# The ideal, as operator polynomials in x, that each plane stratum's chain
# factors through and its witness's apolar ideal contains; a label missing
# here has a chain that is not ideal-theoretic.
_WITNESS_IDEALS = {
    "linear-form": ("x1", "x2"),
    "rank-1": ("x1", "x2"),
    "rank-2": ("x2",),
    "veronese": ("x1", "x2"),
    "secant-lines": ("x2", "x0*x1"),
    "three-points": ("x0*x1", "x0*x2", "x1*x2"),
    "line-quartics": ("x2",),
    "quartic-line-plus-point": ("x0*x2", "x1*x2"),
    "single-conic": ("x0*x1 - x2^2",),
}

# The open-semistable plane cubic and quartic: fixed socles that a seeded
# random search found.
_OPEN_SEMISTABLE = {
    3: "-3*y0^3 + 2*y0^2*y1 - 4*y0*y1^2 - y1^3 + 2*y0^2*y2 + 6*y0*y1*y2"
    " + 8*y1^2*y2 + 4*y0*y2^2 + 9*y1*y2^2",
    4: "3*y0^4 + 3*y0^3*y1 + 8*y0^2*y1^2 - 2*y1^4 + 4*y0^3*y2 - 6*y0^2*y1*y2"
    " + 3*y0*y1^2*y2 - y1^3*y2 - 6*y0^2*y2^2 + 3*y0*y1*y2^2 - 4*y0*y2^3"
    " + 8*y1*y2^3 - 4*y2^4",
}


def witness_socles(n: int, d: int) -> dict[str, Socle]:
    """One constructive witness socle per catalog entry, in catalog order."""
    if not catalog_supported(n, d):
        raise EnvelopeError(f"no witnesses for (n={n}, d={d})")

    def witness(label: str) -> Socle:
        if label == "open-semistable":
            return Socle.parse(_OPEN_SEMISTABLE[d])
        points = _WITNESS_POINTS[label]
        return synth_power_sum(points, [1] * len(points), d)

    return {e.label: witness(e.label) for e in _built(n, d)}


def verify_factorization_witness(g: Socle, entry: CatalogEntry) -> bool:
    """Apolarity containment of the entry's stored witness ideal.

    Entries whose destabilizing chain is not ideal-theoretic carry no
    witness ideal and are rejected.
    """
    if entry.witness_ideal is None:
        raise ValueError(f"entry {entry.label!r} has no ideal-theoretic witness")
    gens = [parse_operator(text) for text in entry.witness_ideal]
    gens = [
        {m + (0,) * (g.n + 1 - len(m)): c for m, c in f.items()} for f in gens
    ]
    return factors_through_ideal(g, gens)


# ---------------------------------------------------------------------------
# charge diagrams


# zdiagram and C13's diagram_rule_status rule on the same candidates, 29
# over the 16 diagrams: each is ruled on once.
@lru_cache(maxsize=128)
def _rule_red(point: ChargePoint, n: int, s: Fraction) -> tuple[bool, str | None]:
    """Apply the two computational rejection rules to a candidate node."""
    origin = charge(TwistComplex.line_bundle(n, 0), s)
    if compare_arg(point, origin) < 0:
        return True, (
            "argument below the structure sheaf ray: outside the window category"
        )
    if n == 2:
        from .exceptional import realizable_by_sheaf  # only diagrams need the sheaf bound

        if not realizable_by_sheaf(point.x, point.y, s):
            return True, (
                "value above every rank's semistable maximum: torsion sheaves only"
            )
    return False, None


def diagram_rule_status(node: DiagramNode, n: int, d: int) -> str:
    """Status predicted by rules 1 and 2 alone (candidates only)."""
    red, _ = _rule_red(node.point, n, parity_point(d))
    return "red" if red else "black"


def _node(d: int, name: str, cls: TwistComplex) -> DiagramNode:
    return DiagramNode(name, _Z(d, cls), "black", None, "reference")


# The candidates of each plane diagram; their classes are read from
# _PLANE_CLASSES.
_PLANE_CANDIDATES = {
    1: ("O", "O^2", "I_p(1)"),
    2: ("O", "I_p(1)", "I_pq(1)"),
    3: ("O(1)", "I_p(2)", "I_pq(2)", "I_pqr(2)", "O^3", "T(-1)"),
    4: ("O", "O(1)", "O^2", "I_p(2)", "I_pq(2)", "I_pqr(2)"),
}

_FACTORIZATION_NOTES = {
    (2, 1, "O^2"): "every map O^2 -> O(1) factors through I_p(1)",
    (2, 1, "O"): "every kernel contains O^2, so O alone is never maximal",
    (2, 3, "T(-1)"): "every map T(-1) -> O(2) factors through I_pqr(2): c2(T) = 3",
}


def zdiagram(n: int, d: int) -> list[DiagramNode]:
    """Named nodes of the charge diagram with exact coordinates.

    Every candidate's status is computed: it is red exactly when rule 1 or
    rule 2 rejects it or _FACTORIZATION_NOTES annotates it, and its reason
    is the rule's, else the note.  The binary candidates are O(k), k < e;
    the plane ones are listed in _PLANE_CANDIDATES.
    """
    if not catalog_supported(n, d):
        raise EnvelopeError(f"no charge diagram for (n={n}, d={d})")
    e = (d + 1) // 2
    nodes = [_node(d, f"O({-k})[{k}]", _O(n, -k).shift(k)) for k in range(1, n + 1)]
    nodes.append(_node(d, "C_p", TwistComplex.point(n)))
    source = _node(d, f"O({e})", _O(n, e))
    if n == 1:
        nodes.append(_node(d, "E(sigma)", _source_cone(1, d)))
        candidates = [(f"O({k})" if k else "O", _Z(d, _O(1, k))) for k in range(e)]
    else:
        nodes.append(source)
        candidates = [(name, _plane_charge(d, name)) for name in _PLANE_CANDIDATES[d]]
    s = parity_point(d)
    for name, point in candidates:
        reason = _rule_red(point, n, s)[1] or _FACTORIZATION_NOTES.get((n, d, name))
        nodes.append(DiagramNode(name, point, "red" if reason else "black", reason, "candidate"))
    if n == 1:
        nodes.append(source)
    return nodes


def zdiagram_json(nodes: Sequence[DiagramNode]) -> list[dict]:
    return [
        {
            "name": node.name,
            "x": str(node.point.x),
            "y": str(node.point.y),
            "status": node.status,
            "reason": node.reason,
            "kind": node.kind,
        }
        for node in nodes
    ]


def zdiagram_svg(nodes: Sequence[DiagramNode]) -> str:
    """A labeled rendering of the diagram: arrows, black and red bullets.

    The package's only floats: exact node coordinates are scaled to pixel
    positions here and printed to one decimal.
    """
    size = 480  # the side of the square canvas, in pixels
    xs = [float(n.point.x) for n in nodes] + [0.0]
    ys = [float(n.point.y) for n in nodes] + [0.0]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    pad = 0.15 * max(span_x, span_y)
    lo_x, hi_x = min(xs) - pad, max(xs) + pad
    lo_y, hi_y = min(ys) - pad, max(ys) + pad
    scale = size / max(hi_x - lo_x, hi_y - lo_y)

    def sx(v: float) -> float:
        return (v - lo_x) * scale

    def sy(v: float) -> float:
        return size - (v - lo_y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<line x1="{sx(lo_x):.1f}" y1="{sy(0):.1f}" x2="{sx(hi_x):.1f}" '
        f'y2="{sy(0):.1f}" stroke="#999" stroke-width="1"/>',
        f'<line x1="{sx(0):.1f}" y1="{sy(lo_y):.1f}" x2="{sx(0):.1f}" '
        f'y2="{sy(hi_y):.1f}" stroke="#999" stroke-width="1"/>',
    ]
    for node in nodes:
        x, y = sx(float(node.point.x)), sy(float(node.point.y))
        color = "#c00" if node.status == "red" else "#000"
        parts.append(
            f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{x:.1f}" y2="{y:.1f}" '
            f'stroke="#bbb" stroke-width="1"/>'
        )
        if node.kind == "candidate":
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 6:.1f}" y="{y - 4:.1f}" font-size="11" '
            f'fill="{color}">{node.name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
