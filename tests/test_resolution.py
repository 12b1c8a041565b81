import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from soclekit.apolarity import (
    ApolarIdeal,
    Socle,
    annihilates,
    apolar_piece,
    hilbert_function,
    integer_coeffs,
    random_socle,
    synth_power_sum,
)
from soclekit.errors import EnvelopeError
from soclekit.linalg import monomial_basis
from soclekit.resolution import (
    BettiTable,
    _flattenings,
    analyze_socle,
    check_duality,
    check_euler,
    hf_from_betti,
    interior_square,
    koszul_betti,
    quotient_bases,
)
from soclekit.strata import catalog_supported, classify, witness_socles

import gather_oracle
from koszul_oracle import QuotientBasis, oracle_betti_entries


def nondegenerate_quadric(n):
    return synth_power_sum(
        [[1 if i == j else 0 for i in range(n + 1)] for j in range(n + 1)],
        [1] * (n + 1),
        2,
    )


# ---------------------------------------------------------------------------
# quotient bases


def test_quotient_dimensions_match_hilbert_function():
    g = Socle.parse("y0^3+y1^3")
    std = quotient_bases(g)
    assert tuple(map(len, std)) == hilbert_function(g) == (1, 2, 2, 1)
    assert std[2] == ((2, 0), (0, 2))
    assert len(std[3]) == 1


def test_projector_kills_exactly_the_annihilator():
    # exercises the reference quotient used as the differential oracle
    rng = random.Random(9)
    g = random_socle(rng, 2, 3)
    qb = QuotientBasis(g)
    for e in range(4):
        basis = monomial_basis(2, e)
        for _ in range(10):
            coeffs = {m: rng.randint(-4, 4) for m in basis}
            if not any(coeffs.values()):
                continue
            image = qb.project(e, coeffs)
            assert (all(v == 0 for v in image)) == annihilates(coeffs, g)
        # projector restricted to standard monomials is the identity
        for k, mono in enumerate(qb.standard[e]):
            image = qb.project(e, {mono: 1})
            assert [v for v in image] == [
                1 if i == k else 0 for i in range(len(qb.standard[e]))
            ]


def test_single_power_has_one_dimensional_pieces():
    std = quotient_bases(synth_power_sum([[1, 2]], [1], 4))
    assert tuple(map(len, std)) == (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# betti tables


def test_quadric_tables_n123():
    expected = {
        1: [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
        2: [[1, 0, 0, 0], [0, 5, 5, 0], [0, 0, 0, 1]],
        3: [[1, 0, 0, 0, 0], [0, 9, 16, 9, 0], [0, 0, 0, 0, 1]],
    }
    for n, grid in expected.items():
        assert koszul_betti(nondegenerate_quadric(n)).grid() == grid


def test_binary_cubic_complete_intersection():
    expected = [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]
    for g in [Socle.parse("y0^3+y1^3"), Socle.parse("y0^2*y1")]:
        assert koszul_betti(g).grid() == expected


def test_degree_zero_is_the_full_koszul_row():
    for n in range(4):
        g = Socle(n, 0, {(0,) * (n + 1): Fraction(1)})
        t = koszul_betti(g)
        assert t.grid() == [[comb(n + 1, i) for i in range(n + 2)]]


def test_rank_one_socle_is_two_koszul_rows():
    for n, d in [(1, 3), (2, 3), (2, 5), (3, 4)]:
        g = synth_power_sum([[1, 2, -1, 3][: n + 1]], [1], d)
        t = koszul_betti(g)
        grid = t.grid()
        assert grid[0] == [comb(n, i) for i in range(n + 1)] + [0]
        assert grid[d] == [0] + [comb(n, i - 1) for i in range(1, n + 2)]
        for r in range(1, d):
            assert grid[r] == [0] * (n + 2)


def test_ternary_cubic_tables():
    fermat = koszul_betti(Socle.parse("y0^3+y1^3+y2^3"))
    assert fermat.grid() == [[1, 0, 0, 0], [0, 3, 2, 0], [0, 2, 3, 0], [0, 0, 0, 1]]
    rng = random.Random(12)
    g = random_socle(rng, 2, 3)
    assert hilbert_function(g) == (1, 3, 3, 1)
    assert koszul_betti(g).grid() == [
        [1, 0, 0, 0],
        [0, 3, 0, 0],
        [0, 0, 3, 0],
        [0, 0, 0, 1],
    ]


def test_ternary_cubic_parity_battery():
    rng = random.Random(1234)
    seen = 0
    while seen < 100:
        g = random_socle(rng, 2, 3)
        if hilbert_function(g) != (1, 3, 3, 1):
            continue
        t = koszul_betti(g)
        b = t.b(1, 3)
        assert b % 2 == 0
        assert b == t.b(2, 3)
        seen += 1


def test_four_coordinate_points_in_space():
    t = koszul_betti(Socle.parse("y0^3+y1^3+y2^3+y3^3"))
    assert t.grid() == [
        [1, 0, 0, 0, 0],
        [0, 6, 8, 3, 0],
        [0, 3, 8, 6, 0],
        [0, 0, 0, 0, 1],
    ]


def test_envelope_errors():
    with pytest.raises(EnvelopeError):
        koszul_betti(random_socle(random.Random(0), 2, 7))


# ---------------------------------------------------------------------------
# differential and metamorphic checks


def oracle_battery(ns=range(1, 4), max_d=5):
    """Dense, sparse and power-sum socles at every n in ns and 1 <= d <= max_d,
    plus every witness catalog inside the betti envelope (91 socles by default)."""
    rng = random.Random(2505)
    socles = []
    for n in ns:
        for d in range(1, max_d + 1):
            basis = monomial_basis(n, d)
            socles += [random_socle(rng, n, d), random_socle(rng, n, d, -1, 1)]
            terms = rng.sample(basis, min(3, len(basis)))
            socles.append(Socle(n, d, {m: rng.choice([-3, -1, 1, 2]) for m in terms}))
            points = [
                [rng.randint(-2, 2) for _ in range(n)] + [1]
                for _ in range(rng.randint(2, n + 3))
            ]
            socles.append(synth_power_sum(points, [1] * len(points), d))
    for n, d in [(1, d) for d in range(1, 7)] + [(2, d) for d in range(1, 5)]:
        socles += witness_socles(n, d).values()
    return socles


def test_koszul_betti_matches_the_quotient_oracle():
    socles = oracle_battery()
    assert len(socles) == 91
    for g in socles:
        assert koszul_betti(g).entries == oracle_betti_entries(g), g
        assert quotient_bases(g) == tuple(map(tuple, QuotientBasis(g).standard)), g


def test_apolar_ideal_pieces_are_the_apolar_pieces():
    for g in oracle_battery():
        ideal = ApolarIdeal.of(g)
        assert ideal.socle is g and len(ideal.pieces) == g.d + 1
        for e, piece in enumerate(ideal.pieces):
            assert piece == tuple(map(tuple, apolar_piece(g, e))), (g, e)


def test_koszul_rows_match_the_dict_lookup_oracle():
    socles = oracle_battery(ns=range(4), max_d=6)
    assert len(socles) == 127
    for g in socles:
        std = quotient_bases(g)
        c = gather_oracle.integer_coeff_map(g)
        got = {}
        for i, e, rows, width in _flattenings(integer_coeffs(g), std, g.n, g.d):
            assert all(len(row) == width for row in rows)
            got[i, e] = rows
        want = {
            (i, e): gather_oracle.koszul_rows(c, std, g.n, i, e)
            for i in range(1, g.n + 2)
            for e in range(g.d)
        }
        assert got == want, g


def test_analysis_follows_a_mutated_socle():
    # no cache may hold a socle or its coefficients: Socle.coeffs is a
    # mutable dict, and the next analysis must read it afresh
    g = Socle.parse("y0^3 + y1^3 + y2^3")
    before = analyze_socle(g)
    del g.coeffs[(0, 0, 3)]
    after = analyze_socle(g)
    assert after == analyze_socle(Socle.parse("y0^3 + y1^3", n=2))
    assert after.hilbert_function == hilbert_function(g) == (1, 2, 2, 1)
    assert before.hilbert_function == (1, 3, 3, 1)
    g.coeffs[(1, 1, 1)] = Fraction(6)
    assert koszul_betti(g) == koszul_betti(Socle.parse("y0^3 + y1^3 + 6*y0*y1*y2"))
    assert classify(g) == classify(Socle.parse("y0^3 + y1^3 + 6*y0*y1*y2"))


@pytest.mark.parametrize(
    "text",
    [
        "1/2*y0^3 + 1/3*y1^3 - 2/5*y0*y1*y2",
        "y0^4+y1^4+y2^4+y0^2*y1*y2",
        "y0^5 - 3*y0^2*y1^3 + 7*y1^5",
        "2*y0^2*y3 + y1^3 - 1/7*y2*y3^2",
    ],
)
def test_scaling_leaves_tables_and_bases_unchanged(text):
    g = Socle.parse(text)
    table, std = koszul_betti(g), quotient_bases(g)
    for q in (Fraction(-1), Fraction(7, 3), Fraction(1, 1000)):
        assert koszul_betti(g.scaled(q)) == table
        assert quotient_bases(g.scaled(q)) == std


# ---------------------------------------------------------------------------
# changes of coordinates


def _divided(m):
    return prod(factorial(x) for x in m)


def _gl_image(g, perm, k):
    """g after y_i -> y_perm(i) for i > 0 and y0 -> y_perm(0) + k*y_perm(1).

    The substitution acts on g written in divided powers, sum c_b y^b / b!,
    because the shift pairing is the differentiation pairing in those
    coordinates.
    """
    unit = [tuple(int(j == i) for j in range(g.n + 1)) for i in range(g.n + 1)]
    images = [{unit[perm[i]]: 1} for i in range(g.n + 1)]
    images[0][unit[perm[1]]] = k
    out = {}
    for b, c in g.coeffs.items():
        term = {(0,) * (g.n + 1): c / _divided(b)}
        for i, e in enumerate(b):
            for _ in range(e):
                term_next = {}
                for m, v in term.items():
                    for u, w in images[i].items():
                        key = tuple(x + y for x, y in zip(m, u))
                        term_next[key] = term_next.get(key, 0) + v * w
                term = term_next
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return Socle(g.n, g.d, {m: v * _divided(m) for m, v in out.items()})


def test_unimodular_changes_of_coordinates_leave_invariants_unchanged():
    rng = random.Random(4104)
    socles = []
    for n, d in [(1, d) for d in range(3, 7)] + [(2, d) for d in range(1, 5)]:
        socles += witness_socles(n, d).values()
    for n in range(1, 4):
        for d in range(2, 5):
            socles.append(random_socle(rng, n, d, -3, 3))
        terms = rng.sample(monomial_basis(n, 3), 3)
        socles.append(Socle(n, 3, {m: rng.choice([-2, 1, 3]) for m in terms}))
    assert len(socles) == 40
    moved = 0
    for g in socles:
        perm = rng.sample(range(g.n + 1), g.n + 1)
        h = _gl_image(g, perm, rng.choice([-1, 1, 2]))
        moved += h != g
        assert hilbert_function(h) == hilbert_function(g), (g, h)
        assert koszul_betti(h).entries == koszul_betti(g).entries, (g, h)
        if catalog_supported(g.n, g.d):
            labels = [entry and entry.label for entry in (classify(g), classify(h))]
            assert labels[0] == labels[1], (g, h)
    assert moved == len(socles)


def test_analyze_socle_agrees_with_the_separate_invariants():
    rng = random.Random(31)
    for n, d in [(1, 5), (2, 3), (2, 4), (3, 3), (3, 4)]:
        g = random_socle(rng, n, d)
        a = analyze_socle(g)
        assert a.hilbert_function == hilbert_function(g)
        assert a.betti == koszul_betti(g)
        assert a.duality_ok and a.euler_ok and a.hf_matches_betti
    with pytest.raises(EnvelopeError):
        analyze_socle(Socle.parse("y0^7+y1^7"))


# ---------------------------------------------------------------------------
# structural checks


def test_check_euler_koszul_row_arithmetic():
    t = BettiTable(1, 0, ((0, 0, 1), (1, 1, 2), (2, 2, 1)))
    # 1 - 2 + 1 = 0 and 0*1 - 1*2 + 2*1 = 0
    assert check_euler(t)
    assert check_duality(t)


def test_checks_reject_corrupted_tables():
    t = koszul_betti(nondegenerate_quadric(2))
    broken = BettiTable(t.n, t.d, t.entries + ((1, 2, 1),))
    assert not check_duality(broken)
    assert not check_euler(broken)


def test_structural_battery():
    rng = random.Random(77)
    for n, d in [(1, 4), (2, 2), (2, 4), (3, 3)]:
        for _ in range(5):
            g = random_socle(rng, n, d)
            t = koszul_betti(g)
            assert check_duality(t)
            assert check_euler(t)
            assert hf_from_betti(t) == hilbert_function(g)
            assert t.b(n + 1, n + 1 + d) == 1
            assert all(t.b(n + 1, n + 1 + e) == 0 for e in range(d))


def test_hf_from_betti_reference_values():
    assert hf_from_betti(koszul_betti(nondegenerate_quadric(2))) == (1, 3, 1)
    assert hf_from_betti(koszul_betti(Socle.parse("y0^3+y1^3"))) == (1, 2, 2, 1)
    koszul_row = BettiTable(
        2, 0, ((0, 0, 1), (1, 1, 3), (2, 2, 3), (3, 3, 1))
    )
    assert hf_from_betti(koszul_row) == (1,)


def test_homology_is_transpose_invariant():
    # the same betti numbers arise from the matrices or their transposes:
    # dim ker A - rank B = (cols A - rank A) - rank B in either reading
    rng = random.Random(5)
    g = random_socle(rng, 2, 3)
    t1 = koszul_betti(g)
    t2 = koszul_betti(g.scaled(Fraction(3, 7)))
    assert t1.entries == t2.entries


# ---------------------------------------------------------------------------
# interior squares and serialization


def test_interior_squares():
    triple = synth_power_sum([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 1, 1], 3)
    assert interior_square(koszul_betti(triple)) == ((0, 0), (3, 2), (2, 3), (0, 0))
    rng = random.Random(12)
    generic = random_socle(rng, 2, 3)
    assert interior_square(koszul_betti(generic)) == ((0, 0), (3, 0), (0, 3), (0, 0))
    with pytest.raises(ValueError):
        interior_square(koszul_betti(Socle.parse("y0^3+y1^3")))


def test_json_round_trip_and_text_grid():
    t = koszul_betti(nondegenerate_quadric(2))
    assert BettiTable.from_json(t.to_json()) == t
    text = t.to_text()
    assert text.splitlines() == ["1 0 0 0", "0 5 5 0", "0 0 0 1"]
