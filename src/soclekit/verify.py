"""Built-in verification suite: every published reference value the
package asserts, checked end to end.

Each criterion is a function returning a CheckResult; ``run_all`` executes
the registry in order.  The CLI surfaces this as ``verify-paper`` and the
acceptance tests assert each row, so the table below is the single source
of truth for what the package claims to reproduce.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd
from typing import Callable, NamedTuple

from .apolarity import Socle, hilbert_function, random_socle, synth_power_sum
from .charge import TwistComplex, beilinson_dims, charge, cone_charge
from .exceptional import m_r_dlp, m_r_naive
from .resolution import (
    _forced_ranks_hold,
    analyze_socle,
    interior_square,
    koszul_betti,
)
from .strata import binary_waring, catalog, classify_by, witness_socles, zdiagram

DEFAULT_SEED = 7241


class CheckResult(NamedTuple):
    ident: str
    name: str
    expected: str
    actual: str
    passed: bool


def _result(ident: str, name: str, expected, actual) -> CheckResult:
    return CheckResult(ident, name, str(expected), str(actual), expected == actual)


# ---------------------------------------------------------------------------


def check_quadric_tables(seed: int) -> CheckResult:
    got = []
    for n in (1, 2, 3):
        q = synth_power_sum(
            [[1 if i == j else 0 for i in range(n + 1)] for j in range(n + 1)],
            [1] * (n + 1),
            2,
        )
        t = koszul_betti(q)
        got.append(t.grid()[1][1:-1])
    return _result("C1", "nondegenerate quadric middle rows", [[2], [5, 5], [9, 16, 9]], got)


def check_binary_cubics(seed: int) -> CheckResult:
    rng = random.Random(seed)
    expected_grid = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
    samples = [Socle.parse("y0^3+y1^3"), Socle.parse("y0^2*y1")]
    samples += [random_socle(rng, 1, 3) for _ in range(30)]
    bad = []
    checked = 0
    for g in samples:
        a = analyze_socle(g)
        if a.hilbert_function != (1, 2, 2, 1):
            continue
        checked += 1
        if a.betti.grid() != expected_grid:
            bad.append(g.text())
    return _result(
        "C2",
        "binary cubic generator degrees {2,3}, relation 5",
        ([], True),
        (bad, checked >= 25),
    )


def check_ternary_cubics(seed: int) -> CheckResult:
    rng = random.Random(seed + 1)
    checked = 0
    parity_ok = True
    generic_zero = 0
    while checked < 100:
        a = analyze_socle(random_socle(rng, 2, 3))
        if a.hilbert_function != (1, 3, 3, 1):
            continue
        t = a.betti
        b = t.b(1, 3)
        if b % 2 != 0 or b != t.b(2, 3):
            parity_ok = False
        if b == 0:
            generic_zero += 1
        checked += 1
    fermat = koszul_betti(Socle.parse("y0^3+y1^3+y2^3")).b(1, 3)
    got = (parity_ok, generic_zero >= 95, fermat)
    return _result("C3", "ternary cubics: b even, generic 0, triple gives 2", (True, True, 2), got)


def check_four_points_space(seed: int) -> CheckResult:
    g = Socle.parse("y0^3+y1^3+y2^3+y3^3")
    t = koszul_betti(g)
    four = (t.b(1, 2), t.b(1, 3), t.b(2, 3), t.b(2, 4), t.b(3, 4))
    rng = random.Random(seed + 2)
    a = analyze_socle(random_socle(rng, 3, 3))
    while a.hilbert_function != (1, 4, 4, 1):
        a = analyze_socle(random_socle(rng, 3, 3))
    tg = a.betti
    b = tg.b(1, 3)
    shape_ok = tg.b(2, 3) == b + 5 and tg.b(2, 4) == b + 5 and tg.b(3, 4) == b
    # the generic value of b is recorded, not asserted against a target
    got = (four, shape_ok)
    return _result(
        "C4",
        f"four points in P3 give b=3 (generic quaternary cubic: b={b}, recorded)",
        ((6, 3, 8, 8, 3), True),
        got,
    )


def check_quartic_catalog(seed: int) -> CheckResult:
    entries = {e.label: e for e in catalog(2, 4)}
    witnesses = witness_socles(2, 4)
    got = []
    expected = []
    for label, g in witnesses.items():
        h = hilbert_function(g)
        entry = classify_by(g, h, lambda: koszul_betti(g))
        expected.append((label, entries[label].hilbert_function))
        got.append((entry.label if entry else None, h))
    left = interior_square(koszul_betti(witnesses["quartic-line-plus-point"]))
    right = interior_square(koszul_betti(witnesses["conic-pencil-base"]))
    expected_squares = (
        ((0, 0), (2, 1), (2, 2), (1, 2), (0, 0)),
        ((0, 0), (2, 0), (1, 1), (0, 2), (0, 0)),
    )
    return _result(
        "C5",
        "d=4 catalog: eight witnesses classify, two interior squares",
        (expected, expected_squares),
        (got, (left, right)),
    )


def check_cubic_tables(seed: int) -> CheckResult:
    witnesses = witness_socles(2, 3)
    open_sq = interior_square(koszul_betti(witnesses["open-semistable"]))
    triple_sq = interior_square(koszul_betti(witnesses["three-points"]))
    return _result(
        "C6",
        "d=3: generic table b=0, non-collinear triple b=2",
        (((0, 0), (3, 0), (0, 3), (0, 0)), ((0, 0), (3, 2), (2, 3), (0, 0))),
        (open_sq, triple_sq),
    )


def check_charge_values(seed: int) -> CheckResult:
    got = []
    expected = []
    for n in (1, 2, 3):
        expected.append((sum(Fraction(1, i) for i in range(1, n + 1)), Fraction(1)))
        got.append(tuple(charge(TwistComplex.line_bundle(n, 0), 0)))
    half = Fraction(-1, 2)
    listed = [
        ((1, 0, 0), (Fraction(1), Fraction(1, 2))),
        ((1, -1, 1), (Fraction(-1), Fraction(1, 2))),
        ((2, 0, 0), (Fraction(1), Fraction(3, 8))),
        ((2, -1, 1), (Fraction(0), Fraction(1, 8))),
        ((2, -2, 2), (Fraction(-1), Fraction(3, 8))),
        ((3, 0, 0), (Fraction(23, 24), Fraction(5, 16))),
        ((3, -1, 1), (Fraction(1, 24), Fraction(1, 16))),
    ]
    for (n, e, shift), value in listed:
        expected.append(value)
        got.append(tuple(charge(TwistComplex.line_bundle(n, e).shift(shift), half)))
    expected.append((Fraction(0), Fraction(1)))
    got.append(tuple(charge(TwistComplex.point(2), half)))
    return _result("C7", "central charge reference values", expected, got)


def check_cone_charges(seed: int) -> CheckResult:
    rng = random.Random(seed + 3)
    bad = []
    for n, d in [(1, 2), (1, 4), (2, 2), (2, 4)]:
        e = d // 2
        target = 2 * charge(TwistComplex.line_bundle(n, e), 0).x
        for _ in range(8):
            g = random_socle(rng, n, d)
            z = cone_charge(koszul_betti(g), e, 0)
            if z.y != 0 or z.x != target:
                bad.append((n, d, str(z)))
    five = cone_charge(
        koszul_betti(synth_power_sum([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 1, 1], 2)),
        1,
        0,
    )
    got = (bad, tuple(five))
    return _result(
        "C8", "cone charge (2 chi'(O(e)), 0); equals (5,0) at (n,e)=(2,1)", ([], (Fraction(5), Fraction(0))), got
    )


def check_mr_table(seed: int) -> CheckResult:
    table_expected = {
        (1, Fraction(1, 2)): Fraction(0),
        (1, Fraction(3, 2)): Fraction(1),
        (1, Fraction(5, 2)): Fraction(3),
        (1, Fraction(7, 2)): Fraction(6),
        (1, Fraction(9, 2)): Fraction(10),
        (2, Fraction(2)): Fraction(0),
        (2, Fraction(3)): Fraction(2),
        (2, Fraction(4)): Fraction(3),
        (3, Fraction(7, 2)): Fraction(0),
        (3, Fraction(9, 2)): Fraction(3),
    }
    got = {key: m_r_dlp(*key) for key in table_expected}
    naive_diff = (m_r_naive(3, Fraction(7, 2)), m_r_dlp(3, Fraction(7, 2)))
    agree = all(
        m_r_naive(r, cp) == m_r_dlp(r, cp)
        for (r, cp) in table_expected
        if (r, cp) != (3, Fraction(7, 2))
    )
    return _result(
        "C9",
        "discriminant-bound table; naive disagrees only at (3, 7/2)",
        (table_expected, (Fraction(1), Fraction(0)), True),
        (got, naive_diff, agree),
    )


PROPERTY_COUNTS = {
    (1, 1): 100, (1, 2): 100, (1, 3): 100, (1, 4): 100,
    (2, 1): 125, (2, 2): 125, (2, 3): 100, (2, 4): 100,
    (3, 1): 40, (3, 2): 40, (3, 3): 40, (3, 4): 30,
}


# How many of C10's socles also have their i = 1 Koszul flattenings
# eliminated, to audit the ranks that koszul_betti forces from h: the
# corner check reads those ranks, so it cannot see them go wrong.
FORCED_RANK_AUDITS = 50


def check_property_suite(seed: int) -> CheckResult:
    rng = random.Random(seed + 4)
    shapes = [shape for shape, count in PROPERTY_COUNTS.items() for _ in range(count)]
    audit_rng = random.Random(f"forced-rank:{seed}")
    audited = set(audit_rng.sample(range(len(shapes)), FORCED_RANK_AUDITS))
    total = 0
    bad: list[str] = []
    for k, (n, d) in enumerate(shapes):
        g = random_socle(rng, n, d)
        a = analyze_socle(g)
        h, t = a.hilbert_function, a.betti
        if h[0] != 1 or h[d] != 1 or any(h[e] != h[d - e] for e in range(d + 1)):
            bad.append(f"hf {g.text()}")
            continue
        if not a.duality_ok:
            bad.append(f"duality {g.text()}")
        if not a.euler_ok:
            bad.append(f"euler {g.text()}")
        if not a.hf_matches_betti:
            bad.append(f"hf-vs-betti {g.text()}")
        if t.b(n + 1, n + 1 + d) != 1 or any(t.b(n + 1, n + 1 + e) != 0 for e in range(d)):
            bad.append(f"corner {g.text()}")
        if k in audited and not _forced_ranks_hold(g):
            bad.append(f"forced-rank {g.text()}")
        total += 1
    return _result(
        "C10",
        f"property suite over {total} seeded socles (hf, duality, power sums, corner)",
        (1000, []),
        (total, bad[:5]),
    )


def check_waring_roundtrip(seed: int) -> CheckResult:
    rng = random.Random(seed + 5)
    bad = []
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (1, 3), (3, 2)]
    for d in range(3, 10):
        for _ in range(6):
            m1 = rng.randint(1, (d + 1) // 2)
            pts = rng.sample(pool, m1)
            weights = [Fraction(rng.randint(1, 9) * rng.choice((1, -1))) for _ in pts]
            g = synth_power_sum([list(p) for p in pts], weights, d)
            rep = binary_waring(g)
            if rep.kind != "points":
                bad.append((d, pts, rep.kind))
                continue
            want = _canonical_points(pts, weights, d)
            have = _canonical_points(rep.points, rep.weights, d)
            if want != have:
                bad.append((d, pts, "mismatch"))
    tangent = binary_waring(Socle.parse("y0^2*y1"))
    got = (bad, tangent.kind, tangent.partition, tangent.points)
    return _result(
        "C11",
        "binary Waring round trip; tangential certificate for y0^2*y1",
        ([], "tangential", (2,), ((1, 0),)),
        got,
    )


def _canonical_points(points, weights, d: int):
    out = set()
    for (p, q), w in zip(points, weights):
        g = gcd(p, q)
        p, q = p // g, q // g
        sign = 1
        lead = p if p else q
        if lead < 0:
            p, q, sign = -p, -q, -1
        out.add(((p, q), Fraction(w) * sign**d))
    return out


def check_beilinson(seed: int) -> CheckResult:
    bad = []
    for n in (1, 2, 3):
        for e in range(5):
            dims = beilinson_dims(TwistComplex.line_bundle(n, e))
            if dims[0] != comb(n + e, n) or dims[n] != comb(n + e - 1, n):
                bad.append(("O", n, e))
            dual = beilinson_dims(TwistComplex.canonical_twist(n, e))
            if dual[0] != comb(n + e, n) or dual[n] != comb(n + e + 1, n):
                bad.append(("omega", n, e))
    rng = random.Random(seed + 6)
    for n, d in [(1, 3), (2, 2), (2, 4), (3, 3)]:
        g = random_socle(rng, n, d)
        t = koszul_betti(g)
        terms = tuple((i, j, b) for i, j, b in t.entries if 1 <= i <= n)
        cls = TwistComplex(n, terms).twist((d + 1) // 2)
        for v in beilinson_dims(cls):
            if v.denominator != 1:
                bad.append(("integrality", n, d))
    return _result("C12", "Beilinson endpoint dimensions and integrality", [], bad)


def check_zdiagrams(seed: int) -> CheckResult:
    # every node's (status, reason), typed here: C13 reads no rule of strata
    black = ("black", None)
    expected_nodes = {
        (2, 1): {
            "O(-1)[1]": black, "O(-2)[2]": black, "C_p": black, "O(1)": black,
            "O": ("red", "every kernel contains O^2, so O alone is never maximal"),
            "O^2": ("red", "every map O^2 -> O(1) factors through I_p(1)"), "I_p(1)": black,
        },
        (2, 2): {
            "O(-1)[1]": black, "O(-2)[2]": black, "C_p": black, "O(1)": black,
            "O": black, "I_p(1)": black,
            "I_pq(1)": (
                "red", "argument below the structure sheaf ray: outside the window category"
            ),
        },
        (2, 3): {
            "O(-1)[1]": black, "O(-2)[2]": black, "C_p": black, "O(2)": black,
            "O(1)": black, "I_p(2)": black, "I_pq(2)": black, "I_pqr(2)": black, "O^3": black,
            "T(-1)": ("red", "every map T(-1) -> O(2) factors through I_pqr(2): c2(T) = 3"),
        },
    }
    got = {
        shape: {node.name: (node.status, node.reason) for node in zdiagram(*shape)}
        for shape in expected_nodes
    }
    return _result("C13", "diagram node sets, statuses, computed reasons", expected_nodes, got)


CHECKS: list[tuple[str, Callable[[int], CheckResult]]] = [
    ("C1", check_quadric_tables),
    ("C2", check_binary_cubics),
    ("C3", check_ternary_cubics),
    ("C4", check_four_points_space),
    ("C5", check_quartic_catalog),
    ("C6", check_cubic_tables),
    ("C7", check_charge_values),
    ("C8", check_cone_charges),
    ("C9", check_mr_table),
    ("C10", check_property_suite),
    ("C11", check_waring_roundtrip),
    ("C12", check_beilinson),
    ("C13", check_zdiagrams),
]


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [fn(seed) for _, fn in CHECKS]


def run_one(ident: str, seed: int = DEFAULT_SEED) -> CheckResult:
    for key, fn in CHECKS:
        if key == ident:
            return fn(seed)
    raise KeyError(f"no criterion {ident!r}")
