"""Socles, catalecticants and apolar ideals.

A socle is a nonzero degree-d form in the dual variables y0..yn with
rational coefficients, stored as a coefficient map on exponent tuples.
The pairing between operators (polynomials in x) and dual forms is the
coefficient shift, defined once, by ``contract``, for every monomial x^a

    x^a . g  =  sum_c  coeff_{c+a}(g) * y^c,

a contraction with no factorial weights, so integer inputs stay integer;
it is 0 when a divides no monomial of g, as when |a| > d.  It is
diagonally equivalent to the differentiation pairing, hence yields the
same ranks, kernels, Hilbert functions and betti tables.

Scaling g changes none of these either, so a catalecticant is a list of
integer rows: g's primitive integer coefficients are laid out once per
call as a dense vector over monomial_basis(n, d) (``integer_coeffs``),
and Cat_e reads it through ``linalg.catalecticant_table(n, d, e)``, a
table of positions cached per shape; no cache holds a socle.
``catalecticant`` gathers one Cat_e and ``catalecticants`` those of given
degrees (all by default), each after pricing its work by ``capped_size``
(see ``linalg.MAX_CATALECTICANT_WORK``).  Every rank and kernel of a
catalecticant reads their rows but two in ``strata``: ``_first_piece``'s
doubling search and ``binary_apolar_pair``'s Cat_b read ``int_catalecticant``
rows under their own ``admit_catalecticants`` calls.  ``hilbert_function``
(n >= 2) and ``resolution.quotient_bases`` read ``catalecticants(g, range(1, d))``;
``gorenstein_check`` and ``ApolarIdeal.of`` read ``catalecticants(g)``.

Under the shift pairing the d-th power of the point v = (v0 : ... : vn)
is the form whose y^b coefficient is v^b; it is the unique family with
f . v^d = f(v) * v^(d-e), which gives power sums their classical span
and annihilation behaviour (rank-one catalecticants, trapezoid Hilbert
functions, point-ideal containment).  ``synth_power_sum`` builds powers
in these coordinates, priced by ``capped_size`` too.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ArgumentError, DegenerateInputError, EnvelopeError, ParseError
from .linalg import (
    MAX_CATALECTICANT_WORK,
    Monomial,
    basis_work,
    capped_size,
    catalecticant_table,
    kernel_of_int_rows,
    monomial_basis,
    monomial_index,
    monomial_str,
    primitive,
    rank_of_int_rows,
    term_order_key,
)

Form = dict[Monomial, Fraction]


def form_degree(f: Mapping[Monomial, Fraction]) -> int:
    degs = {sum(m) for m, c in f.items() if c}
    if not degs:
        raise ArgumentError("zero form has no degree")
    if len(degs) > 1:
        raise ArgumentError("form is not homogeneous")
    return degs.pop()


class Socle:
    """A nonzero homogeneous form of degree d in n+1 dual variables."""

    __slots__ = ("n", "d", "coeffs")

    def __init__(self, n: int, d: int, coeffs: Mapping[Monomial, Fraction | int]):
        if n < 0 or d < 0:
            raise ArgumentError("n and d must be non-negative")
        clean: Form = {}
        for mono, c in coeffs.items():
            c = Fraction(c)
            if not c:
                continue
            if len(mono) != n + 1 or any(e < 0 for e in mono) or sum(mono) != d:
                raise ArgumentError(f"monomial {mono} is not degree {d} in {n + 1} variables")
            clean[tuple(mono)] = c
        if not clean:
            raise DegenerateInputError("zero socle: the projective space has no zero point")
        self.n = n
        self.d = d
        self.coeffs = clean

    def coeff(self, mono: Monomial) -> Fraction:
        return self.coeffs.get(mono, Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Socle)
            and (self.n, self.d) == (other.n, other.d)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.d, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"Socle({self.text()!r}, n={self.n})"

    def scaled(self, factor) -> "Socle":
        factor = Fraction(factor)
        if not factor:
            raise DegenerateInputError("cannot scale a socle by zero")
        return Socle(self.n, self.d, {m: c * factor for m, c in self.coeffs.items()})

    def text(self) -> str:
        return format_form(self.coeffs, var="y")

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Socle":
        coeffs, seen_n = parse_form(text, var="y")
        if not coeffs:
            raise DegenerateInputError("zero socle: the projective space has no zero point")
        try:
            d = form_degree(coeffs)
        except ValueError as exc:  # not homogeneous; zero is rejected above
            raise DegenerateInputError(f"socle {exc}") from exc
        if n is None:
            n = seen_n
        elif n < seen_n:
            raise ParseError(f"socle uses y{seen_n} but n={n} was requested")
        elif n > MAX_VARIABLE_INDEX:
            raise EnvelopeError(f"n={n} is above the maximum variable index {MAX_VARIABLE_INDEX}")
        coeffs = {m + (0,) * (n - seen_n): c for m, c in coeffs.items()}
        return cls(n, d, coeffs)


# ---------------------------------------------------------------------------
# contraction and catalecticants


def contract(mono: Monomial, g: Socle) -> Form:
    """The shift x^a . g of the operator monomial a: a dual form of degree
    d - |a|, or {} when a divides no monomial of g, as when |a| > d.

    A monomial without n + 1 exponents, or with a negative one, raises.
    """
    if len(mono) != g.n + 1:
        raise ArgumentError(f"operator monomial {mono} does not have {g.n + 1} exponents")
    if min(mono) < 0:
        raise ArgumentError(f"operator monomial {mono} has a negative exponent")
    out: Form = {}
    for target, c in g.coeffs.items():
        shifted = tuple(t - m for t, m in zip(target, mono))
        if min(shifted) >= 0:
            out[shifted] = c
    return out


def admit_catalecticants(g: Socle, *degrees: int, count: int = 1) -> None:
    """Raise EnvelopeError when gathering and eliminating count copies of
    Cat_e of g for every e in degrees, and building its degree-d basis once,
    pass MAX_CATALECTICANT_WORK.  Each size is a ``capped_size``, so a huge
    request costs a few steps, and d floors the work, even at n = 0."""
    n, d, cap = g.n, g.d, MAX_CATALECTICANT_WORK
    work = basis_work(n, d)
    for e in degrees:
        r, c = capped_size(1, n, d - e, cap), capped_size(1, n, e, cap)
        work += count * (r * c * min(r, c) + 500)
    if max(d, work) > cap:
        raise EnvelopeError(f"a socle at (n={n}, d={d}) needs catalecticant work beyond {cap}")


def integer_coeffs(g: Socle) -> list[int]:
    """The coefficients of g scaled to coprime integers, as a dense vector
    over monomial_basis(n, d)."""
    values = g.coeffs.values()
    mult = lcm(*(v.denominator for v in values))
    index = monomial_index(g.n, g.d)
    vec = [0] * len(index)
    for m, v in zip(g.coeffs, primitive([v.numerator * (mult // v.denominator) for v in values])):
        vec[index[m]] = v
    return vec


def int_catalecticant(c: Sequence[int], n: int, d: int, e: int) -> list[list[int]]:
    """The rows of Cat_e for the coefficient vector c of a degree-d socle,
    gathered through ``catalecticant_table``."""
    return [[c[k] for k in row] for row in catalecticant_table(n, d, e)]


def catalecticant(g: Socle, e: int) -> list[list[int]]:
    """Cat_e of g, the pairing S_e x S_(d-e) -> k, as integer rows.

    Rows are indexed by monomial_basis(n, d-e), columns by
    monomial_basis(n, e); the (row, col) entry is the coefficient of
    row+col in ``integer_coeffs(g)``.  Transposing swaps e and d-e.
    """
    if not 0 <= e <= g.d:
        raise ArgumentError(f"catalecticant degree {e} outside 0..{g.d}")
    admit_catalecticants(g, e)
    return int_catalecticant(integer_coeffs(g), g.n, g.d, e)


def catalecticants(g: Socle, degrees: Iterable[int] | None = None) -> Iterator[list[list[int]]]:
    """``catalecticant(g, e)`` for each e in degrees, 0..d by default,
    gathered one at a time from one coefficient vector after admitting
    d + 1 copies of Cat_(d//2), which costs the most: r * c is symmetric and
    log-concave in e, and min(r, c) peaks at d // 2 too."""
    admit_catalecticants(g, g.d // 2, count=g.d + 1)
    c = integer_coeffs(g)
    degrees = range(g.d + 1) if degrees is None else degrees
    return (int_catalecticant(c, g.n, g.d, e) for e in degrees)


def binary_hilbert_function(d: int, a: int) -> tuple[int, ...]:
    """h_e = min(e + 1, d - e + 1, a), the Hilbert function of a binary form
    of degree d whose middle catalecticant Cat_(d//2) has rank a: by
    Sylvester's theorem Ann(g) is a complete intersection of degrees a and
    d + 2 - a."""
    return tuple(min(e + 1, d - e + 1, a) for e in range(d + 1))


def hilbert_function(g: Socle) -> tuple[int, ...]:
    """The vector (h_0, ..., h_d) of catalecticant ranks.

    Always palindromic with h_0 = h_d = 1: the rank of a matrix equals the
    rank of its transpose, and g is nonzero.  So h_0 and h_d are read off g,
    and ``catalecticants`` gathers Cat_1..Cat_(d-1) but prices all d + 1.
    A binary form ranks Cat_(d//2) only (``binary_hilbert_function``), and
    is priced and refused by its size whatever its rank: ``y0^600 +
    2*y1^600`` raises ``EnvelopeError``, while ``strata.binary_waring``,
    whose doubling search stops at the first small rank, finds its a = 2.
    """
    if g.n == 1:
        rows = catalecticant(g, g.d // 2)
        return binary_hilbert_function(g.d, rank_of_int_rows(rows, len(rows[0])))
    ranks = [rank_of_int_rows(rows, len(rows[0])) for rows in catalecticants(g, range(1, g.d))]
    return (1, *ranks, 1) if g.d else (1,)


def apolar_piece(g: Socle, e: int) -> list[list[int]]:
    """Basis of the degree-e piece of the annihilator ideal.

    Vectors are integer coordinate rows over monomial_basis(n, e); the
    count is dim S_e - h_e.
    """
    rows = catalecticant(g, e)
    return [list(vec) for vec in kernel_of_int_rows(rows, len(rows[0]))]


class ApolarIdeal(NamedTuple):
    """All graded pieces of the annihilator up to degree d."""

    socle: Socle
    pieces: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def of(cls, g: Socle) -> "ApolarIdeal":
        """Every ``apolar_piece(g, e)``, as tuples, read from one coefficient
        vector.  Each Cat_e is gathered for this call alone and handed to
        ``kernel_of_int_rows``, which reduces it in place and writes each
        kernel vector once, as a tuple."""
        pieces = (kernel_of_int_rows(rows, len(rows[0])) for rows in catalecticants(g))
        return cls(g, tuple(pieces))


def annihilates(f: Mapping[Monomial, Fraction], g: Socle) -> bool:
    """True when f kills g: the sum of c * ``contract(m, g)`` over f's
    nonzero terms c * x^m is 0.  Terms of different degrees land in
    different degrees, so an inhomogeneous f kills g exactly when each
    homogeneous part does.  A monomial ``contract`` refuses raises."""
    nonzero = {m: Fraction(c) for m, c in f.items() if c}
    acc: Form = {}
    for mono, c in nonzero.items():
        for target, val in contract(mono, g).items():
            acc[target] = acc.get(target, Fraction(0)) + c * val
    return all(v == 0 for v in acc.values())


def factors_through_ideal(g: Socle, gens: Sequence[Mapping[Monomial, Fraction]]) -> bool:
    """Containment of the ideal generated by gens in Ann(g).

    Ann(g) is an ideal, since x^a . (f . g) = (x^a f) . g under the shift
    pairing, so it holds every multiple of a generator it holds: each
    generator is checked once, by ``annihilates``.  Callers must pass
    generators of a saturated ideal up to degree d; no saturation is
    performed here.
    """
    return all(annihilates(f, g) for f in gens)


# ---------------------------------------------------------------------------
# power sums


def _exact(x) -> Fraction | int:
    """x itself when it is an int, else ``Fraction(x)``."""
    return x if type(x) is int else Fraction(x)


def _power(vals: Sequence[Fraction | int], d: int) -> dict[Monomial, Fraction | int]:
    """The nonzero coefficients v^b of the d-th power of the point v, in
    the arithmetic of its coordinates: integer coordinates give ints."""
    out = {}
    for mono in monomial_basis(len(vals) - 1, d):
        c = 1
        for v, e in zip(vals, mono):
            c *= v**e
        if c:
            out[mono] = c
    return out


# A power sum of m points fills m * C(n+d, n) coefficients; larger
# requests are refused before any power is taken.  The largest in the
# tests, catalogs and benchmark workloads fill 4 * C(8, 2) = 112.
MAX_POWER_SUM_ENTRIES = 10**4


def synth_power_sum(
    forms: Sequence[Sequence[Fraction | int]],
    weights: Sequence[Fraction | int],
    d: int,
) -> Socle:
    """Weighted sum of d-th powers of linear forms (dual points).

    Each entry of ``forms`` is a point, a coordinate vector (v0, ..., vn)
    that is not all zero.  Weights must be nonzero and the total must be a
    nonzero form.  A request filling more than MAX_POWER_SUM_ENTRIES
    coefficients, or whose powers could be longer than the longest number
    ``format_form`` prints, raises EnvelopeError, as does one whose degree-d
    basis ``monomial_basis`` refuses (one point in P^4412 at d = 1, by
    MAX_CATALECTICANT_WORK).  Integer coordinates and weights stay ints up
    to the returned ``Socle``.
    """
    if d < 0:
        raise DegenerateInputError(f"power-sum degree must be non-negative, got {d}")
    if not forms or len(forms) != len(weights):
        raise DegenerateInputError("need equally many forms and weights, at least one")
    points = [[_exact(x) for x in f] for f in forms]
    if not all(map(any, points)):
        raise DegenerateInputError("zero linear form")
    n = len(points[0]) - 1
    if any(len(vec) != n + 1 for vec in points):
        raise DegenerateInputError("forms live in different variable counts")
    if capped_size(len(points), n, d, MAX_POWER_SUM_ENTRIES) > MAX_POWER_SUM_ENTRIES:
        raise EnvelopeError(
            f"power sum at (n={n}, d={d}) over {len(points)} point(s) needs more "
            f"than {MAX_POWER_SUM_ENTRIES} coefficients"
        )
    # v^d has at most d times the bits of v: refuse before any power when
    # that passes the bits of 10**digits - 1, the longest number format_form
    # prints (more than 3 * digits bits, so most requests skip computing it).
    bits = d * max(max(abs(x.numerator), x.denominator).bit_length() for v in points for x in v)
    digits = sys.get_int_max_str_digits()
    if digits and bits > 3 * digits and bits > (10**digits - 1).bit_length():
        raise EnvelopeError(f"power sum at (n={n}, d={d}) has coefficients too long to print")
    total: dict[Monomial, Fraction | int] = {}
    for vec, w in zip(points, weights):
        w = _exact(w)
        if not w:
            raise DegenerateInputError("zero weight")
        for mono, c in _power(vec, d).items():
            total[mono] = total.get(mono, 0) + w * c
    if not any(total.values()):
        raise DegenerateInputError("power sum collapsed to zero")
    return Socle(n, d, total)


# ---------------------------------------------------------------------------
# diagnostics


class GorensteinDiagnostics(NamedTuple):
    socle_dimension_ok: bool
    palindromic: bool
    catalecticant_transpose_ok: bool
    hilbert_function: tuple[int, ...]

    @property
    def all_ok(self) -> bool:
        return self.socle_dimension_ok and self.palindromic and self.catalecticant_transpose_ok


def gorenstein_check(g: Socle) -> GorensteinDiagnostics:
    """Confirm the perfect-pairing fingerprints of the apolar quotient.

    Every nonzero socle passes all three checks; they are exposed as a
    diagnostic record so callers can surface them in reports.  One priced
    ``catalecticants(g)`` gather gives Cat_0..Cat_d; each Cat_e is compared
    with the transpose of Cat_(d-e) before any is ranked (a rank reduces its
    rows in place), and h_e is the rank of Cat_e, for binary forms too.
    """
    cats = list(catalecticants(g))
    transpose_ok = all(cats[e] == list(map(list, zip(*cats[g.d - e]))) for e in range(g.d // 2 + 1))
    h = tuple(rank_of_int_rows(rows, len(rows[0])) for rows in cats)
    return GorensteinDiagnostics(h[g.d] == 1, h == h[::-1], transpose_ok, h)


# ---------------------------------------------------------------------------
# polynomial text grammar (shared with the CLI)
#
#   form   := term (('+' | '-') term)*
#   term   := [coeff '*'] factor ('*' factor)*   |   coeff
#   factor := VAR INDEX ['^' EXponent]
#   coeff  := INT ['/' INT]
#
# Whitespace is insignificant.  Example inputs: "y0^3 + y1^3",
# "1/2*y0^2*y1 - y2^3".

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>[A-Za-z])(?P<idx>\d+)|(?P<op>[-+*/^]))"
)


# A parsed monomial holds max index + 1 exponents, so the index is bounded
# first; the bound is far above every envelope (n <= 3 for betti tables).
MAX_VARIABLE_INDEX = 1000


def parse_form(text: str, var: str = "y") -> tuple[Form, int]:
    """Parse the polynomial grammar; returns (nonzero coefficients, max index).

    Raises ParseError with 1-based line and column information, and
    EnvelopeError for a variable index above MAX_VARIABLE_INDEX."""

    def err(msg: str, pos: int) -> ParseError:
        return ParseError(msg, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))

    # (kind, text, offset); a variable's index is a "num" token at its letter
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        if m.group("var"):
            if m.group("var") != var:
                raise err(f"unknown variable {m.group('var')!r}", m.start("var"))
            tokens += [("var", var, m.start("var")), ("num", m.group("idx"), m.start("var"))]
        else:
            kind = "num" if m.group("num") else "op"
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    if rest := text[pos:].lstrip():
        raise err(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    if not tokens:
        raise err("empty polynomial", 0)
    tokens.append(("end", "", tokens[-1][2]))  # an error at the end points at the last token
    i = 0

    def take(kind: str, value: str | None = None) -> str | None:
        """Consume and return the token at the cursor if it has this kind and value."""
        nonlocal i
        k, v, _ = tokens[i]
        if k == kind and value in (None, v):
            i += 1
            return v

    def integer(name: str) -> int:
        """Consume the number at the cursor; ``name`` says what is missing."""
        digits = take("num")
        at = tokens[i - 1][2]  # the number, or the token it must follow
        if digits is None:
            raise err(f"expected {name}", at)
        try:
            return int(digits)
        except ValueError:  # longer than the interpreter's int_max_str_digits
            raise err(f"integer literal of {len(digits)} digits is too long", at) from None

    coeffs: dict[tuple, Fraction] = {}
    while tokens[i][0] != "end":
        start, sign = i, 1
        while op := take("op", "+") or take("op", "-"):
            sign = -sign if op == "-" else sign
        kind, value, at = tokens[i]
        if kind in ("end", "op"):
            raise err("dangling sign" if kind == "end" else f"unexpected {value!r}", at)
        if coeffs and i == start:
            raise err("expected '+' or '-' between terms", at)
        coeff = Fraction(sign)
        exponents: dict[int, int] = {}
        while True:  # factors joined by '*'
            if take("var"):
                idx = integer("index")
                if idx > MAX_VARIABLE_INDEX:
                    raise EnvelopeError(
                        f"variable index {idx} is above the maximum {MAX_VARIABLE_INDEX}"
                    )
                power = integer("exponent") if take("op", "^") else 1
                exponents[idx] = exponents.get(idx, 0) + power
            elif tokens[i][0] == "num":
                coeff *= integer("coefficient")
                if take("op", "/"):
                    den = integer("denominator")
                    if not den:
                        raise err("zero denominator", tokens[i - 1][2])
                    coeff /= den
            else:  # an operator, or the end of the text after a '*'
                raise err("expected a coefficient or variable", tokens[i][2])
            if not take("op", "*"):
                break
        packed = tuple(sorted(exponents.items()))
        coeffs[packed] = coeffs.get(packed, 0) + coeff
    max_index = max((idx for packed in coeffs for idx, _ in packed), default=0)
    out: Form = {}
    for packed, c in coeffs.items():
        if c:
            mono = [0] * (max_index + 1)
            for idx, e in packed:
                mono[idx] = e
            out[tuple(mono)] = c
    return out, max_index


def format_form(coeffs: Mapping[Monomial, Fraction], var: str = "y") -> str:
    """Canonical text: terms in decreasing term order, rational p/q coeffs.

    A number longer than the interpreter's int_max_str_digits (4,300 by
    default) raises EnvelopeError.
    """
    items = [(m, Fraction(c)) for m, c in coeffs.items() if c]
    if not items:
        return "0"
    items.sort(key=lambda mc: term_order_key(mc[0]))
    parts: list[str] = []
    for k, (mono, c) in enumerate(items):
        mag = abs(c)
        try:
            body = monomial_str(mono, var=var)
            if body == "1":
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
        except ValueError:
            raise EnvelopeError("a coefficient or exponent has too many digits to print") from None
        if k == 0:
            parts.append(text if c > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if c > 0 else f"- {text}")
    return " ".join(parts)


def parse_operator(text: str) -> Form:
    """Parse an operator polynomial in the x variables (same grammar)."""
    coeffs, _ = parse_form(text, var="x")
    return coeffs


def random_socle(rng, n: int, d: int, lo: int = -9, hi: int = 9) -> Socle:
    """Socle with integer coefficients drawn uniformly from [lo, hi], not all
    zero; a range with no nonzero integer raises DegenerateInputError."""
    if lo > hi or lo == hi == 0:
        raise DegenerateInputError(f"no nonzero integer in [{lo}, {hi}]")
    basis = monomial_basis(n, d)
    while True:
        coeffs = {m: rng.randint(lo, hi) for m in basis}
        if any(coeffs.values()):
            return Socle(n, d, coeffs)
