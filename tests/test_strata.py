import hashlib
import random
import time
from fractions import Fraction

import pytest

import linalg_oracle
import strata_oracle
import waring_oracle
from soclekit.apolarity import (
    MAX_CATALECTICANT_WORK,
    Socle,
    format_form,
    hilbert_function,
    random_socle,
    synth_power_sum,
)
from soclekit import strata
from soclekit.errors import EnvelopeError
from soclekit.strata import (
    _divisors,
    binary_apolar_pair,
    binary_waring,
    catalog,
    catalog_supported,
    classify,
    diagram_rule_status,
    quadric_rank,
    verify_factorization_witness,
    witness_socles,
    zdiagram,
    zdiagram_json,
    zdiagram_svg,
)

F = Fraction
E0, E1, E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


# ---------------------------------------------------------------------------
# catalogs


def test_quartic_catalog_contents():
    entries = catalog(2, 4)
    assert [e.hilbert_function for e in entries] == [
        (1, 1, 1, 1, 1),
        (1, 2, 2, 2, 1),
        (1, 2, 3, 2, 1),
        (1, 3, 3, 3, 1),
        (1, 3, 4, 3, 1),
        (1, 3, 4, 3, 1),
        (1, 3, 5, 3, 1),
        (1, 3, 6, 3, 1),
    ]
    assert [e.dimension for e in entries] == [2, 5, 6, 8, 9, 11, 13, 14]
    squares = [e.betti_fingerprint for e in entries if e.betti_fingerprint]
    assert squares == [
        ((0, 0), (2, 1), (2, 2), (1, 2), (0, 0)),
        ((0, 0), (2, 0), (1, 1), (0, 2), (0, 0)),
    ]


def test_quadric_catalog_kernels():
    kernels = [e.kernel_object for e in catalog(2, 2)]
    assert kernels == ["I_p(1)", "O", "none (semistable)"]


def test_catalog_invariants():
    for n, d in [(1, 2), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4)]:
        from math import comb

        ambient = comb(n + d, n) - 1
        for e in catalog(n, d):
            h = e.hilbert_function
            assert h[0] == h[-1] == 1
            assert all(h[k] == h[d - k] for k in range(d + 1))
            assert e.dimension <= ambient
    with pytest.raises(EnvelopeError):
        catalog(3, 3)
    with pytest.raises(EnvelopeError):
        catalog(2, 5)


def test_every_entry_has_a_realizing_witness():
    for n, d in strata._CATALOGS:
        witnesses = witness_socles(n, d)
        assert list(witnesses) == [e.label for e in catalog(n, d)]
        for label, g in witnesses.items():
            entry = classify(g)
            assert entry is not None and entry.label == label


@pytest.mark.parametrize("n, d", [(1, 0), (1, 13), (1, 14), (2, 0), (2, 5), (3, 2)])
def test_every_entry_point_shares_the_envelope(n, d, monkeypatch):
    assert not catalog_supported(n, d)
    with pytest.raises(EnvelopeError, match=rf"^no stratum catalog for \(n={n}, d={d}\)$"):
        catalog(n, d)
    with pytest.raises(EnvelopeError, match=rf"^no witnesses for \(n={n}, d={d}\)$"):
        witness_socles(n, d)
    with pytest.raises(EnvelopeError, match=rf"^no charge diagram for \(n={n}, d={d}\)$"):
        zdiagram(n, d)
    # classify refuses the shape before it ranks any catalecticant
    monkeypatch.setattr(strata, "hilbert_function", _never_called)
    with pytest.raises(EnvelopeError, match=rf"^no stratum catalog for \(n={n}, d={d}\)$"):
        classify(Socle(n, d, {(d,) + (0,) * n: 1}))


def _never_called(g):
    raise AssertionError(f"hilbert_function ran on {g}")


def test_catalogs_witnesses_and_diagrams_match_the_hand_written_oracle():
    assert list(strata_oracle._CATALOGS) == list(strata._CATALOGS)
    for n, d in strata._CATALOGS:
        assert repr(catalog(n, d)) == repr(strata_oracle.catalog(n, d)), (n, d)
        got, want = witness_socles(n, d), strata_oracle.witness_socles(n, d)
        assert list(got) == list(want), (n, d)
        for label, g in got.items():
            assert g == want[label] and list(g.coeffs) == list(want[label].coeffs), (n, d, label)
        assert zdiagram_json(zdiagram(n, d)) == zdiagram_json(strata_oracle.zdiagram(n, d)), (n, d)


def test_catalogs_are_built_once_and_returned_fresh():
    first = catalog(2, 4)
    first.pop()
    second = catalog(2, 4)
    assert len(second) == 8 and second is not first
    assert all(a is b for a, b in zip(second, catalog(2, 4)))


def test_open_witnesses_are_what_the_seeded_search_finds():
    import charge_oracle

    for d in (3, 4):
        found = charge_oracle.open_semistable_witness(d)
        stored = witness_socles(2, d)["open-semistable"]
        assert stored == found
        assert list(stored.coeffs) == list(found.coeffs)


def test_binary_power_sums_classify_by_point_count():
    rng = random.Random(29)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (3, 1)]
    for d in (5, 8, 11, 12):
        for count in range(1, (d + 1) // 2 + 1):
            pts = rng.sample(pool, count)
            weights = [F(rng.randint(1, 9)) for _ in pts]
            g = synth_power_sum([list(p) for p in pts], weights, d)
            entry = classify(g)
            assert entry is not None and entry.label == f"binary-span-a{count}"


# ---------------------------------------------------------------------------
# classification


def test_classify_three_noncollinear_powers():
    g = synth_power_sum([E0, E1, E2], [1, 1, 1], 4)
    entry = classify(g)
    assert entry.label == "three-points"
    assert entry.hilbert_function == (1, 3, 3, 3, 1)
    assert entry.dimension == 8


def test_classify_generic_quartic():
    g = random_socle(random.Random(100), 2, 4)
    assert classify(g).label == "open-semistable"


def test_classify_binary_cubic():
    assert classify(Socle.parse("y0^3+y1^3")).label == "binary-span-a2"


def test_classify_never_guesses():
    from soclekit import strata

    g = witness_socles(2, 4)["conic-pencil-base"]
    bogus = ((9, 9),) * 5
    fake = [
        e._replace(betti_fingerprint=bogus)
        if e.hilbert_function == (1, 3, 4, 3, 1)
        else e
        for e in catalog(2, 4)
    ]
    # two entries share the Hilbert function but neither fingerprint matches
    original = strata._CATALOGS[2, 4]
    try:
        strata._CATALOGS[2, 4] = lambda: fake
        strata._built.cache_clear()
        assert classify(g) is None
    finally:
        strata._CATALOGS[2, 4] = original
        strata._built.cache_clear()
    assert classify(g).label == "conic-pencil-base"


def test_classification_is_projectively_stable():
    rng = random.Random(7)
    substitutions = []
    while len(substitutions) < 3:
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        if det != 0:
            substitutions.append(a)
    configs = [
        ([E0, E1, E2], [1, 1, 1]),
        ([E0, E1], [2, -1]),
        ([E0, E1, (1, 1, 0), E2], [1, 1, 1, 1]),
    ]
    for points, weights in configs:
        base = classify(synth_power_sum(points, weights, 4)).label
        for a in substitutions:
            moved = [
                [sum(a[i][j] * p[j] for j in range(3)) for i in range(3)]
                for p in points
            ]
            scaled = [F(w) * F(rng.choice((1, 2, 3))) for w in weights]
            assert classify(synth_power_sum(moved, scaled, 4)).label == base


def test_quadric_rank_examples():
    assert quadric_rank(Socle.parse("y0^2+y1^2+y2^2"))[0] == 3
    assert quadric_rank(Socle.parse("y0*y1", n=2))[0] == 2
    r, entry = quadric_rank(synth_power_sum([[1, 2, 3]], [1], 2))
    assert r == 1 and entry.label == "rank-1"
    r, entry = quadric_rank(Socle.parse("y0*y1"))
    assert r == 2 and entry.label == "binary-span-a2"
    r, entry = quadric_rank(Socle.parse("y0^2", n=1))
    assert r == 1 and entry.label == "binary-span-a1"
    with pytest.raises(ValueError):
        quadric_rank(Socle.parse("y0^3"))


def test_oversized_quadric_rank_is_refused_before_any_work():
    # Cat_1 at n = 250 is 251 x 251, just past the work budget, and at
    # n = 400 its shape tables alone hold n + 1 exponents for each of
    # C(402, 2) monomials
    for n in (250, 400):
        g = Socle.parse(f"y0^2 + y{n}^2")
        start = time.perf_counter()
        with pytest.raises(EnvelopeError, match=rf"^a socle at \(n={n}, d=2\) needs catalecticant work"):
            quadric_rank(g)
        assert time.perf_counter() - start < 0.05


def test_quadric_rank_with_many_variables_is_admitted():
    # Cat_1 is 201 x 201, inside the work budget; its bases hold 201
    # exponents for each of C(202, 2) monomials, built in time linear in them
    start = time.perf_counter()
    assert quadric_rank(Socle.parse("y0^2 + y200^2")) == (2, None)
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# binary forms


def test_binary_apolar_pair_degrees():
    fa, fb = binary_apolar_pair(Socle.parse("y0^3+y1^3"))
    assert format_form(fa, "x") == "x0*x1"
    assert sum(next(iter(fb))) == 3
    fa, _ = binary_apolar_pair(Socle.parse("y0^2*y1"))
    assert format_form(fa, "x") == "x1^2"
    fa, fb = binary_apolar_pair(random_socle(random.Random(3), 1, 4))
    assert sum(next(iter(fa))) == 3 and sum(next(iter(fb))) == 3


def test_binary_apolar_pair_generates_the_ideal():
    from soclekit.apolarity import factors_through_ideal

    rng = random.Random(19)
    for d in (3, 4, 5, 6):
        g = random_socle(rng, 1, d)
        fa, fb = binary_apolar_pair(g)
        assert factors_through_ideal(g, [fa])
        a, b = sum(next(iter(fa))), sum(next(iter(fb)))
        assert a + b == d + 2
        if b <= d:
            assert factors_through_ideal(g, [fb])


def test_waring_two_cubes():
    rep = binary_waring(Socle.parse("y0^3+y1^3"))
    assert rep.kind == "points"
    assert set(rep.points) == {(1, 0), (0, 1)}
    assert rep.weights == (1, 1)


def test_waring_tangent_line():
    rep = binary_waring(Socle.parse("y0^2*y1"))
    assert rep.kind == "tangential"
    assert rep.partition == (2,)
    assert rep.points == ((1, 0),)


def test_waring_irrational_certificate():
    g = Socle(1, 4, {(4, 0): 8, (2, 2): 4, (0, 4): 2})
    rep = binary_waring(g)
    assert rep.kind == "irrational"
    assert form_degree_of(rep.apolar_form) == 2


def form_degree_of(f):
    return sum(next(iter(f)))


def test_waring_nonunique_marker():
    rep = binary_waring(Socle.parse("y0^2 + 3*y0*y1 + y1^2"))
    assert rep.kind == "nonunique"
    # while a rank-one quadric decomposes uniquely even at d = 2
    assert binary_waring(Socle.parse("y0^2 + y0*y1 + y1^2")).points == ((1, 1),)


def _canonical_decomposition(points, weights, d):
    """Scale each vector so its first nonzero entry is positive."""
    from math import gcd

    out = set()
    for (p, q), w in zip(points, weights):
        g = gcd(p, q)
        p, q = p // g, q // g
        sign = 1
        if (p if p else q) < 0:
            p, q, sign = -p, -q, -1
        out.add(((p, q), F(w) * sign**d))
    return out


def test_waring_round_trip():
    rng = random.Random(23)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3)]
    for d in (5, 7, 9):
        for count in (1, 2, 3):
            pts = rng.sample(pool, count)
            weights = [F(rng.randint(1, 5)) for _ in pts]
            g = synth_power_sum([list(p) for p in pts], weights, d)
            rep = binary_waring(g)
            assert rep.kind == "points"
            assert _canonical_decomposition(
                rep.points, rep.weights, d
            ) == _canonical_decomposition(pts, weights, d)


def test_waring_double_root_at_zero_one():
    # the mirror image of C11's y0^2*y1: F_a = x0^2, a double root at (0 : 1)
    rep = binary_waring(Socle.parse("y0*y1^2"))
    assert rep.kind == "tangential"
    assert rep.points == ((0, 1),)
    assert rep.partition == (2,)


def _swapped(g):
    return Socle(1, g.d, {(j, i): c for (i, j), c in g.coeffs.items()})


def _point_set(rep, d, swap=False):
    """(point, weight) pairs scaled so each point's first nonzero entry is
    positive; weight None for reports without weights."""
    out = set()
    for k, (p, q) in enumerate(rep.points):
        if swap:
            p, q = q, p
        sign = -1 if (p if p else q) < 0 else 1
        w = rep.weights[k] * sign**d if rep.weights else None
        out.add(((sign * p, sign * q), w))
    return out


def _mirror_battery():
    rng = random.Random(61)
    others = [(1, 1), (1, -1), (1, 2), (2, 1), (1, -3), (3, 2)]
    for d in range(1, 13):
        for k in range(d + 1):
            yield Socle(1, d, {(k, d - k): 1})
        for m in range(2, (d + 1) // 2 + 1):
            pts = [(1, 0), (0, 1)] + rng.sample(others, m - 2)
            weights = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in pts]
            yield synth_power_sum([list(p) for p in pts], weights, d)


def test_waring_mirrors_under_swapping_the_variables():
    kinds = set()
    for g in _mirror_battery():
        rep, mirrored = binary_waring(g), binary_waring(_swapped(g))
        kinds.add(rep.kind)
        assert (rep.kind, rep.apolar_degree, rep.partition) == (
            mirrored.kind, mirrored.apolar_degree, mirrored.partition
        ), g
        assert _point_set(rep, g.d, swap=True) == _point_set(mirrored, g.d), g
    assert kinds == {"points", "tangential", "nonunique"}


def _sheared(g, k):
    """g's image under the shear (p : q) -> (p : q + k*p) of the points of
    P^1: g as a combination of the d-th powers of (1 : j), j = 0..d, by an
    exact Vandermonde solve, synthesised again at the sheared points."""
    d = g.d
    powers = [synth_power_sum([[1, j]], [1], d) for j in range(d + 1)]
    system = [[p.coeff((d - e, e)) for p in powers] + [g.coeff((d - e, e))] for e in range(d + 1)]
    reduced, pivots = linalg_oracle.rref(system, d + 2)
    assert pivots == list(range(d + 1))
    terms = [(j, row[-1]) for j, row in enumerate(reduced) if row[-1]]
    return synth_power_sum([[1, j + k] for j, _ in terms], [w for _, w in terms], d)


def _shear_battery():
    """Seeded binary forms of degree 3..10 of every Waring kind: power sums
    of at most (d + 1) / 2 points, tangent forms with and without a point
    power, and dense forms (irrational roots at odd d, not unique at even)."""
    rng = random.Random(2628)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (3, 2), (2, -3)]
    for d in range(3, 11):
        for _ in range(2):
            pts = rng.sample(pool, rng.randint(1, (d + 1) // 2))
            weights = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in pts]
            yield synth_power_sum([list(p) for p in pts], weights, d)
            point, other = rng.sample(pool, 2)
            tangent = _tangent(point, rng.choice([(1, 0), (0, 1), (1, 3)]), d)
            yield Socle(1, d, tangent)
            power = synth_power_sum([list(other)], [rng.randint(1, 5)], d)
            yield Socle(1, d, {m: tangent[m] + power.coeff(m) for m in tangent})
            yield random_socle(rng, 1, d, -3, 3)


def test_waring_is_equivariant_under_shears():
    kinds = set()
    for g in _shear_battery():
        rep = binary_waring(g)
        kinds.add(rep.kind)
        for k in (1, -1, 2):
            moved = binary_waring(_sheared(g, k))
            assert (moved.kind, moved.apolar_degree, moved.partition) == (
                rep.kind, rep.apolar_degree, rep.partition
            ), (g, k)
            if rep.kind == "points":
                want = [(p, q + k * p) for p, q in rep.points]
                assert _canonical_decomposition(moved.points, moved.weights, g.d) == (
                    _canonical_decomposition(want, rep.weights, g.d)
                ), (g, k)
    assert kinds == {"points", "nonunique", "tangential", "irrational"}


def _tangent(point, direction, d):
    """d/dt (point + t * direction)^d at t = 0: its apolar generator is the
    square of the point's linear form, a double root off the coordinate
    points when the point is."""
    (p, q), (u, v) = point, direction
    return {
        (d - k, k): (d - k) * p ** max(d - k - 1, 0) * q**k * u
        + k * p ** (d - k) * q ** max(k - 1, 0) * v
        for k in range(d + 1)
    }


def _oracle_battery():
    """Dense random forms, 0/1-sparse forms, power sums over a pool with
    (1 : 0) and (0 : 1), tangent forms plus a point power, and every
    monomial y0^k y1^(d-k), d <= 12."""
    rng = random.Random(67)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (3, 2)]
    for d in range(1, 13):
        for _ in range(2):
            point, other = rng.sample(pool, 2)
            tangent = _tangent(point, rng.choice([(1, 0), (0, 1), (1, 3)]), d)
            yield Socle(1, d, tangent)
            power = synth_power_sum([list(other)], [rng.randint(1, 5)], d)
            yield Socle(1, d, {m: tangent[m] + power.coeff(m) for m in tangent})
        basis = [(d - k, k) for k in range(d + 1)]
        for _ in range(6):
            yield random_socle(rng, 1, d, -3, 3)
            sparse = {m: rng.randint(0, 1) for m in basis}
            if any(sparse.values()):
                yield Socle(1, d, sparse)
        for m in range(1, (d + 1) // 2 + 1):
            pts = rng.sample(pool, m)
            weights = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in pts]
            yield synth_power_sum([list(p) for p in pts], weights, d)
        for k in range(d + 1):
            yield Socle(1, d, {(k, d - k): 1})


def _waring_kinds(g) -> list[str]:
    """Check g's Waring report against the Fraction oracle; returns its kind,
    "x0^2" where the oracle cannot see the double root, and a marker for
    tangents off the coordinate points."""
    rep = binary_waring(g)
    x0_squared = all(m[0] >= 2 for m in rep.apolar_form)
    if x0_squared and 2 * rep.apolar_degree <= g.d + 1:
        # the oracle's dehomogenization at x0 = 1 hides this double root
        assert rep.kind == "tangential" and (0, 1) in rep.points, g
        return ["x0^2"]
    assert rep == waring_oracle.binary_waring(g), g
    if rep.kind == "tangential" and set(rep.points) - {(1, 0), (0, 1)}:
        return [rep.kind, "tangential off the coordinate points"]
    return [rep.kind]


def test_binary_forms_match_the_fraction_oracle():
    kinds = []
    for g in _oracle_battery():
        assert binary_apolar_pair(g) == waring_oracle.binary_apolar_pair(g), g
        kinds += _waring_kinds(g)
    assert set(kinds) == {
        "points", "irrational", "tangential", "nonunique", "x0^2",
        "tangential off the coordinate points",
    }


def _sylvester_battery():
    """Binary forms of degree 0..12, 17, 31 and 60: dense, +-1 and
    0/1-sparse forms, power sums with repeated points, monomials
    y0^k y1^(d-k) (every k up to degree 12) and every catalog witness."""
    rng = random.Random(71)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (3, 2)]
    for d in [*range(13), 17, 31, 60]:
        yield random_socle(rng, 1, d)
        yield random_socle(rng, 1, d, -1, 1)
        sparse = {(d - k, k): rng.randint(0, 1) for k in range(d + 1)}
        if any(sparse.values()):
            yield Socle(1, d, sparse)
        pts = [rng.choice(pool) for _ in range(rng.randint(2, 6))]
        yield synth_power_sum([list(p) for p in pts], [rng.randint(1, 5) for _ in pts], d)
        for k in range(d + 1) if d <= 12 else (0, 1, d // 3, d // 2):
            yield Socle(1, d, {(k, d - k): 1})
        if catalog_supported(1, d):
            yield from witness_socles(1, d).values()


def test_binary_hilbert_function_matches_the_rank_oracle():
    # one rank of Cat_(d//2) against the ranks of all d + 1 catalecticants
    for g in _sylvester_battery():
        assert hilbert_function(g) == linalg_oracle.hilbert_function(g), g


def test_binary_waring_finds_the_middle_of_the_hilbert_function():
    # a = h_(d//2), from a doubling search in binary_waring and from one rank
    # of Cat_(d//2) in hilbert_function.  Dense forms of odd degree past 15
    # are left out: their a = (d+1)/2 sends binary_waring into the root
    # search, exponential in F_a's coefficient size (d = 25 took 43 s on a
    # 2-CPU machine).
    rng = random.Random(18)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (3, 2)]
    forms = [Socle.parse("5", n=1)]
    for d in range(1, 61):
        if d % 2 == 0 or d <= 15:
            forms.append(random_socle(rng, 1, d))
        terms = rng.sample(range(d + 1), min(d + 1, rng.randint(1, 3)))
        forms.append(Socle(1, d, {(d - k, k): rng.choice((-9, -2, 1, 3, 7)) for k in terms}))
        pts = rng.sample(pool, rng.randint(1, 5))
        forms.append(synth_power_sum([list(p) for p in pts], [rng.randint(1, 5) for _ in pts], d))
    for g in forms:
        assert hilbert_function(g)[g.d // 2] == binary_waring(g).apolar_degree, g
    # the two prices differ: Cat_300 alone is past the budget, the search
    # stops at Cat_2
    g = Socle.parse("y0^600 + 2*y1^600")
    with pytest.raises(EnvelopeError):
        hilbert_function(g)
    assert binary_waring(g).apolar_degree == 2


def test_binary_apolar_data_match_the_search_oracle():
    # one kernel at a = h_(d//2) against the search over a = 1, 2, ...  The
    # root searches try divisors of F_a's extreme coefficients, the oracle's
    # every k <= |v|, so Waring reports are compared where those are at most
    # 10**6: all but the dense forms of degree 17 and 31, whose 10- and
    # 20-digit extremes take the package's search up to 10**10 steps
    kinds, skipped = set(), []
    for g in _sylvester_battery():
        f_a, f_b = binary_apolar_pair(g)
        assert (f_a, f_b) == waring_oracle.binary_apolar_pair(g), g
        a = sum(next(iter(f_a)))
        if 2 * a > g.d + 1 or max(abs(f_a[min(f_a)]), abs(f_a[max(f_a)])) <= 10**6:
            kinds.update(_waring_kinds(g))
        else:
            skipped.append(g.d)
    assert {"points", "irrational", "tangential", "nonunique", "x0^2"} <= kinds
    assert skipped == [17, 31]


def test_binary_generators_take_one_kernel_each(monkeypatch):
    calls = []
    kernel = strata.kernel_basis
    monkeypatch.setattr(
        strata, "kernel_basis", lambda rows, ncols: calls.append(ncols) or kernel(rows, ncols)
    )
    rng = random.Random(5)
    for g in (
        random_socle(rng, 1, 40),
        Socle.parse("y0^3*y1^9"),
        synth_power_sum([[1, 0], [1, 1], [1, 2]], [1, -2, 3], 9),
    ):
        calls.clear()
        binary_waring(g)
        assert len(calls) <= 1, g
        calls.clear()
        binary_apolar_pair(g)
        assert len(calls) <= 2, g


def test_binary_requests_convert_the_socle_once(monkeypatch):
    from soclekit import apolarity

    calls = []
    convert = apolarity.integer_coeffs
    counted = lambda g: calls.append(g) or convert(g)  # noqa: E731
    monkeypatch.setattr(apolarity, "integer_coeffs", counted)
    monkeypatch.setattr(strata, "integer_coeffs", counted)
    rational = synth_power_sum([[1, 2], [3, -1], [2, 5]], [F(1, 2), F(-5, 3), 7], 9)
    for g in (
        random_socle(random.Random(5), 1, 40),
        Socle.parse("y0^3*y1^9"),
        Socle.parse("y0^4 + y1^4"),
        synth_power_sum([[1, 0], [1, 1], [1, 2]], [1, -2, 3], 9),
        rational,
    ):
        for entry in (binary_waring, binary_apolar_pair):
            calls.clear()
            entry(g)
            assert len(calls) == 1, (entry.__name__, g)
    # the weights are solved on g's integer multiple and scaled back once
    report = binary_waring(rational)
    assert report.kind == "points"
    assert report.points == ((1, 2), (2, 5), (-3, 1))
    assert report.weights == (F(1, 2), F(7), F(5, 3))


def test_divisors_match_the_linear_enumeration():
    from waring_oracle import linear_divisors

    for v in range(1, 5001):
        want = linear_divisors(v)
        assert _divisors(v) == want and _divisors(-v) == want, v
    assert _divisors(0) == []


@pytest.mark.parametrize(
    "v, count", [(10**12, 13 * 13), (2**40, 41), (36, 9), (10**9 + 7, 2)]
)
def test_divisors_of_large_values(v, count):
    # count is the product of (exponent + 1) over v's factorization
    got = _divisors(v)
    assert len(got) == count and all(v % k == 0 for k in got)
    assert all(a < b for a, b in zip(got, got[1:])) and got[-1] == v


def test_waring_with_a_huge_extreme_coefficient():
    # the rational root test enumerates the divisors of k; at k = 10^9 the
    # linear enumeration took over a minute, so this also bounds the time
    reports = {}
    for k in (10**6, 10**9):
        g = Socle.parse(f"y0^5 + {k}*y1^5 + y0^3*y1^2")
        reports[k] = rep = binary_waring(g)
        assert rep.kind == "irrational" and rep.points == ()
        assert rep.apolar_form == {(3, 0): k, (1, 2): -k, (0, 3): -1}
    assert reports[10**6] == waring_oracle.binary_waring(
        Socle.parse("y0^5 + 1000000*y1^5 + y0^3*y1^2")
    )


@pytest.mark.parametrize(
    "text, weights", [("y0^600 + 2*y1^600", (1, 2)), ("y0^5000 + y1^5000", (1, 1))]
)
def test_sparse_binary_forms_past_the_dense_edge_are_decomposed(text, weights):
    # a = 2, so the search ranks Cat_1 and Cat_2 only: Cat_(d//2) alone is
    # past the work budget
    rep = binary_waring(Socle.parse(text))
    assert rep.kind == "points" and rep.apolar_form == {(1, 1): 1}
    assert rep.points == ((1, 0), (0, 1)) and rep.weights == weights


def test_apolar_pair_of_a_long_sparse_form_is_fast():
    # F_b comes from Cat_b on the a columns off the pivots of S_(b-a) * F_a,
    # not from reducing the b + 2 - a kernel vectors of Cat_b against that
    # span: reducing them took 8.8 s here
    start = time.perf_counter()
    f_a, f_b = binary_apolar_pair(Socle.parse("y0^5000 + y1^5000"))
    assert time.perf_counter() - start < 1.0
    assert f_a == {(1, 1): 1} and f_b == {(5000, 0): 1, (0, 5000): -1}


@pytest.mark.parametrize("d", [541, 600, 1000, 5000])
def test_binary_searches_stay_within_one_budget(monkeypatch, d):
    # every rank reads full, as for a dense form; the catalecticants ranked
    # before the refusal cost one budget together, not one budget each
    shapes = []
    monkeypatch.setattr(
        strata,
        "rank_of_int_rows",
        lambda rows, ncols: shapes.append((len(rows), ncols)) or min(len(rows), ncols),
    )
    g = random_socle(random.Random(d), 1, d)
    for entry in (binary_waring, binary_apolar_pair):
        shapes.clear()
        with pytest.raises(EnvelopeError):
            entry(g)
        work = sum(r * c * min(r, c) + 500 for r, c in shapes) + (d + 1) * 122
        assert work <= MAX_CATALECTICANT_WORK, shapes


def test_dense_binary_waring_past_the_budget_is_refused_in_seconds():
    # the search ranks Cat_1, Cat_2, ..., Cat_128 before Cat_256 would take
    # it past the budget: about 4 s here, 15 s when each rank was priced alone
    start = time.perf_counter()
    with pytest.raises(EnvelopeError):
        binary_waring(random_socle(random.Random(541), 1, 541))
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# diagrams


EXPECTED_NODES = {
    (2, 1): {
        "O(-1)[1]": "black", "O(-2)[2]": "black", "C_p": "black", "O(1)": "black",
        "O": "red", "O^2": "red", "I_p(1)": "black",
    },
    (2, 2): {
        "O(-1)[1]": "black", "O(-2)[2]": "black", "C_p": "black", "O(1)": "black",
        "O": "black", "I_p(1)": "black", "I_pq(1)": "red",
    },
    (2, 3): {
        "O(-1)[1]": "black", "O(-2)[2]": "black", "C_p": "black", "O(2)": "black",
        "O(1)": "black", "I_p(2)": "black", "I_pq(2)": "black",
        "I_pqr(2)": "black", "O^3": "black", "T(-1)": "red",
    },
}

ANNOTATED = {(2, 1, "O"), (2, 1, "O^2"), (2, 3, "T(-1)")}


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (2, 3)])
def test_diagram_node_sets_and_statuses(n, d):
    nodes = zdiagram(n, d)
    assert {node.name: node.status for node in nodes} == EXPECTED_NODES[(n, d)]


def test_diagram_exact_coordinates():
    by_name = {node.name: node.point for node in zdiagram(2, 2)}
    assert by_name["O"] == (F(3, 2), 1)
    assert by_name["I_p(1)"] == (F(5, 2), 2)
    assert by_name["I_pq(1)"] == (F(5, 2), 1)
    by_name = {node.name: node.point for node in zdiagram(2, 3)}
    assert by_name["O(1)"] == (2, F(15, 8))
    assert by_name["I_pqr(2)"] == (3, F(11, 8))
    assert by_name["O^3"] == (3, F(9, 8))
    assert by_name["T(-1)"] == (3, F(5, 4))
    by_name = {node.name: node.point for node in zdiagram(2, 1)}
    assert by_name["O(-1)[1]"] == (0, F(1, 8))
    assert by_name["I_p(1)"] == (2, F(7, 8))


def test_diagram_rules_reproduce_statuses_except_annotated():
    for n, d in [(2, 1), (2, 2), (2, 3), (2, 4), (1, 3), (1, 4), (1, 8)]:
        for node in zdiagram(n, d):
            if node.kind != "candidate" or (n, d, node.name) in ANNOTATED:
                continue
            assert diagram_rule_status(node, n, d) == node.status, (n, d, node.name)


def test_diagram_reasons():
    nodes = {node.name: node for node in zdiagram(2, 2)}
    assert "argument below" in nodes["I_pq(1)"].reason
    nodes = {node.name: node for node in zdiagram(2, 3)}
    assert "factors through I_pqr(2)" in nodes["T(-1)"].reason
    nodes = {node.name: node for node in zdiagram(2, 1)}
    assert "factors through I_p(1)" in nodes["O^2"].reason
    assert "kernel contains O^2" in nodes["O"].reason
    for node in nodes.values():
        if node.status == "black":
            assert node.reason is None


def test_diagram_even_quartic_is_all_black():
    nodes = zdiagram(2, 4)
    assert all(node.status == "black" for node in nodes)
    names = {node.name for node in nodes if node.kind == "candidate"}
    assert names == {"O", "O(1)", "O^2", "I_p(2)", "I_pq(2)", "I_pqr(2)"}


def test_diagram_binary_cases():
    for d in (3, 4, 12):
        nodes = zdiagram(1, d)
        assert all(node.status == "black" for node in nodes)
        candidates = [node.name for node in nodes if node.kind == "candidate"]
        assert candidates == (
            ["O"] + [f"O({k})" for k in range(1, (d + 1) // 2)]
        )
        by_name = {node.name: node.point for node in nodes}
        assert by_name["E(sigma)"].y == 0
    with pytest.raises(EnvelopeError):
        zdiagram(1, 13)
    with pytest.raises(EnvelopeError):
        zdiagram(3, 2)


def test_diagram_serializations():
    nodes = zdiagram(2, 2)
    payload = zdiagram_json(nodes)
    assert payload[0].keys() == {"name", "x", "y", "status", "reason", "kind"}
    red = [p for p in payload if p["status"] == "red"]
    assert red and red[0]["name"] == "I_pq(1)"
    svg = zdiagram_svg(nodes)
    assert svg.startswith("<svg") and "I_pq(1)" in svg and "#c00" in svg


def test_diagram_svg_bytes_are_pinned():
    # the rendering of every shape's diagram on its fixed 480-pixel canvas
    svgs = [zdiagram_svg(zdiagram(n, d)) for n, d in strata._CATALOGS]
    prefix = '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
    assert all(svg.startswith(prefix) for svg in svgs)
    assert hashlib.sha256("".join(svgs).encode()).hexdigest() == (
        "a9a8516354572389e8a0a5ff68f52eb5eda813320c52efaad0e367aca637bc0f"
    )


# ---------------------------------------------------------------------------
# factorization witnesses


def test_factorization_witnesses():
    entries = {e.label: e for e in catalog(2, 4)}
    witnesses = witness_socles(2, 4)
    assert verify_factorization_witness(
        witnesses["single-conic"], entries["single-conic"]
    )
    assert verify_factorization_witness(
        witnesses["secant-lines"], entries["secant-lines"]
    )
    assert not verify_factorization_witness(
        witnesses["open-semistable"], entries["single-conic"]
    )
    with pytest.raises(ValueError):
        verify_factorization_witness(
            witnesses["conic-pencil-base"], entries["conic-pencil-base"]
        )


# ---------------------------------------------------------------------------
# golden charge nodes: every catalog entry and diagram node of all 16 shapes,
# as printed before the charges moved to integers


SHAPES = [(1, d) for d in range(1, 13)] + [(2, d) for d in range(1, 5)]


def test_catalog_charge_nodes_golden():
    assert [(n, d) for n in range(4) for d in range(15) if catalog_supported(n, d)] == SHAPES
    assert list(CATALOG_NODES) == list(DIAGRAM_NODES) == SHAPES
    for (n, d), expected in CATALOG_NODES.items():
        assert tuple(f"{e.label} {e.charge_node}" for e in catalog(n, d)) == expected


def test_zdiagram_nodes_golden():
    for (n, d), expected in DIAGRAM_NODES.items():
        assert tuple(f"{x.name} {x.point}" for x in zdiagram(n, d)) == expected


CATALOG_NODES = {
    (1, 1): (
        "binary-span-a1 (1, 1/2)",
    ),
    (1, 2): (
        "binary-span-a1 (1, 1)", "binary-span-a2 (2, 0)",
    ),
    (1, 3): (
        "binary-span-a1 (1, 3/2)", "binary-span-a2 (1, 1/2)",
    ),
    (1, 4): (
        "binary-span-a1 (1, 2)", "binary-span-a2 (1, 1)", "binary-span-a3 (2, 0)",
    ),
    (1, 5): (
        "binary-span-a1 (1, 5/2)", "binary-span-a2 (1, 3/2)", "binary-span-a3 (1, 1/2)",
    ),
    (1, 6): (
        "binary-span-a1 (1, 3)", "binary-span-a2 (1, 2)", "binary-span-a3 (1, 1)",
        "binary-span-a4 (2, 0)",
    ),
    (1, 7): (
        "binary-span-a1 (1, 7/2)", "binary-span-a2 (1, 5/2)", "binary-span-a3 (1, 3/2)",
        "binary-span-a4 (1, 1/2)",
    ),
    (1, 8): (
        "binary-span-a1 (1, 4)", "binary-span-a2 (1, 3)", "binary-span-a3 (1, 2)",
        "binary-span-a4 (1, 1)", "binary-span-a5 (2, 0)",
    ),
    (1, 9): (
        "binary-span-a1 (1, 9/2)", "binary-span-a2 (1, 7/2)", "binary-span-a3 (1, 5/2)",
        "binary-span-a4 (1, 3/2)", "binary-span-a5 (1, 1/2)",
    ),
    (1, 10): (
        "binary-span-a1 (1, 5)", "binary-span-a2 (1, 4)", "binary-span-a3 (1, 3)",
        "binary-span-a4 (1, 2)", "binary-span-a5 (1, 1)", "binary-span-a6 (2, 0)",
    ),
    (1, 11): (
        "binary-span-a1 (1, 11/2)", "binary-span-a2 (1, 9/2)",
        "binary-span-a3 (1, 7/2)", "binary-span-a4 (1, 5/2)", "binary-span-a5 (1, 3/2)",
        "binary-span-a6 (1, 1/2)",
    ),
    (1, 12): (
        "binary-span-a1 (1, 6)", "binary-span-a2 (1, 5)", "binary-span-a3 (1, 4)",
        "binary-span-a4 (1, 3)", "binary-span-a5 (1, 2)", "binary-span-a6 (1, 1)",
        "binary-span-a7 (2, 0)",
    ),
    (2, 1): (
        "linear-form (2, 7/8)",
    ),
    (2, 2): (
        "rank-1 (5/2, 2)", "rank-2 (3/2, 1)", "rank-3 (5, 0)",
    ),
    (2, 3): (
        "veronese (3, 27/8)", "secant-lines (3, 19/8)", "three-points (3, 11/8)",
        "open-semistable (3, 9/8)",
    ),
    (2, 4): (
        "veronese (7/2, 5)", "secant-lines (7/2, 4)", "line-quartics (5/2, 3)",
        "three-points (7/2, 3)", "quartic-line-plus-point (5/2, 2)",
        "conic-pencil-base (3, 2)", "single-conic (3/2, 1)", "open-semistable (7, 0)",
    ),
}
DIAGRAM_NODES = {
    (1, 1): (
        "O(-1)[1] (-1, 1/2)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1/2)",
        "O(1) (1, 3/2)",
    ),
    (1, 2): (
        "O(-1)[1] (-1, 0)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1)", "O(1) (1, 2)",
    ),
    (1, 3): (
        "O(-1)[1] (-1, 1/2)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1/2)",
        "O(1) (1, 3/2)", "O(2) (1, 5/2)",
    ),
    (1, 4): (
        "O(-1)[1] (-1, 0)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1)", "O(1) (1, 2)",
        "O(2) (1, 3)",
    ),
    (1, 5): (
        "O(-1)[1] (-1, 1/2)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1/2)",
        "O(1) (1, 3/2)", "O(2) (1, 5/2)", "O(3) (1, 7/2)",
    ),
    (1, 6): (
        "O(-1)[1] (-1, 0)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1)", "O(1) (1, 2)",
        "O(2) (1, 3)", "O(3) (1, 4)",
    ),
    (1, 7): (
        "O(-1)[1] (-1, 1/2)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1/2)",
        "O(1) (1, 3/2)", "O(2) (1, 5/2)", "O(3) (1, 7/2)", "O(4) (1, 9/2)",
    ),
    (1, 8): (
        "O(-1)[1] (-1, 0)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1)", "O(1) (1, 2)",
        "O(2) (1, 3)", "O(3) (1, 4)", "O(4) (1, 5)",
    ),
    (1, 9): (
        "O(-1)[1] (-1, 1/2)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1/2)",
        "O(1) (1, 3/2)", "O(2) (1, 5/2)", "O(3) (1, 7/2)", "O(4) (1, 9/2)",
        "O(5) (1, 11/2)",
    ),
    (1, 10): (
        "O(-1)[1] (-1, 0)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1)", "O(1) (1, 2)",
        "O(2) (1, 3)", "O(3) (1, 4)", "O(4) (1, 5)", "O(5) (1, 6)",
    ),
    (1, 11): (
        "O(-1)[1] (-1, 1/2)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1/2)",
        "O(1) (1, 3/2)", "O(2) (1, 5/2)", "O(3) (1, 7/2)", "O(4) (1, 9/2)",
        "O(5) (1, 11/2)", "O(6) (1, 13/2)",
    ),
    (1, 12): (
        "O(-1)[1] (-1, 0)", "C_p (0, 1)", "E(sigma) (2, 0)", "O (1, 1)", "O(1) (1, 2)",
        "O(2) (1, 3)", "O(3) (1, 4)", "O(4) (1, 5)", "O(5) (1, 6)", "O(6) (1, 7)",
    ),
    (2, 1): (
        "O(-1)[1] (0, 1/8)", "O(-2)[2] (-1, 3/8)", "C_p (0, 1)", "O(1) (2, 15/8)",
        "O (1, 3/8)", "O^2 (2, 3/4)", "I_p(1) (2, 7/8)",
    ),
    (2, 2): (
        "O(-1)[1] (-1/2, 0)", "O(-2)[2] (-1/2, 0)", "C_p (0, 1)", "O(1) (5/2, 3)",
        "O (3/2, 1)", "I_p(1) (5/2, 2)", "I_pq(1) (5/2, 1)",
    ),
    (2, 3): (
        "O(-1)[1] (0, 1/8)", "O(-2)[2] (-1, 3/8)", "C_p (0, 1)", "O(2) (3, 35/8)",
        "O(1) (2, 15/8)", "I_p(2) (3, 27/8)", "I_pq(2) (3, 19/8)", "I_pqr(2) (3, 11/8)",
        "O^3 (3, 9/8)", "T(-1) (3, 5/4)",
    ),
    (2, 4): (
        "O(-1)[1] (-1/2, 0)", "O(-2)[2] (-1/2, 0)", "C_p (0, 1)", "O(2) (7/2, 6)",
        "O (3/2, 1)", "O(1) (5/2, 3)", "O^2 (3, 2)", "I_p(2) (7/2, 5)",
        "I_pq(2) (7/2, 4)", "I_pqr(2) (7/2, 3)",
    ),
}
