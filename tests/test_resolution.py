import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soclekit import resolution
from soclekit._kernels import fraction_free_rank
from soclekit.apolarity import (
    ApolarIdeal,
    Socle,
    annihilates,
    apolar_piece,
    catalecticant,
    catalecticants,
    gorenstein_check,
    hilbert_function,
    integer_coeffs,
    random_socle,
    synth_power_sum,
)
from soclekit.errors import EnvelopeError, ParseError
from soclekit.linalg import monomial_basis, rank_of_int_rows
from soclekit.resolution import (
    BettiTable,
    _eliminated,
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
import kernel_oracle
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


def test_hilbert_function_reads_h0_and_hd_off_g():
    # h_0 = h_d = 1 for every socle; d = 0 is (1,) and d = 1 ranks nothing
    assert hilbert_function(Socle.parse("3", n=2)) == (1,)
    assert hilbert_function(Socle.parse("2*y0 - 3*y2")) == (1, 1)
    assert hilbert_function(Socle.parse("y1", n=3)) == (1, 1)
    for g in forced_rank_battery():
        assert hilbert_function(g) == tuple(map(len, quotient_bases(g))), g


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


def partner_ranked_socles():
    """Socles at which n = 3 ranks (3, d-e-1) in place of (2, e), where
    6 h_e > 4 h_(e+1): three dense (3, 6) socles and the near-compressed
    (3, 6) power sum (e >= 3), and y0^3 + ... + y3^3 (e = 1, 2)."""
    rng = random.Random(3636)
    socles = [random_socle(rng, 3, 6) for _ in range(3)]
    socles += [g for g in near_compressed_power_sums() if (g.n, g.d) == (3, 6)]
    return socles + [Socle.parse("y0^3+y1^3+y2^3+y3^3")]


def test_koszul_betti_matches_the_quotient_oracle():
    partners = partner_ranked_socles()
    for g in partners:
        assert any(i == 3 for i, _ in _eliminated(quotient_bases(g), g.n, g.d)), g
    socles = oracle_battery() + partners
    assert len(socles) == 96
    for g in socles:
        assert koszul_betti(g).entries == oracle_betti_entries(g), g
        assert quotient_bases(g) == tuple(map(tuple, QuotientBasis(g).standard)), g


def sparse_battery():
    """100 seeded socles with at most 3 terms, n <= 3 and d <= 6, d = 0
    included: g's last support monomial is seldom the last monomial of
    degree d, and its first seldom the first."""
    rng = random.Random(2626)
    socles = []
    for _ in range(100):
        n, d = rng.randint(1, 3), rng.randint(0, 6)
        basis = monomial_basis(n, d)
        terms = rng.sample(basis, min(rng.randint(1, 3), len(basis)))
        socles.append(Socle(n, d, {m: rng.choice([-5, -3, -1, 1, 2, 7]) for m in terms}))
    return socles


def test_quotient_bases_read_degrees_0_and_d_off_g():
    # R_0 and R_d take no elimination; y0*y1*y2 and y0^3 + y1^3 at n = 2
    # have coefficient 0 on y2^3, the last cubic, and y0^4 has one variable
    named = ["3", "y1^3", "y0*y1*y2", "y0^3 + y2^3", "y0^3 - y1^3", "y0^4"]
    socles = [Socle.parse(t) for t in named] + [Socle.parse("y0^3 + y1^3", n=2)]
    for g in socles + sparse_battery():
        std = quotient_bases(g)
        assert std == tuple(map(tuple, QuotientBasis(g).standard)), g
        assert std[0] == ((0,) * (g.n + 1),) and len(std) == g.d + 1
        assert std[-1] == (max(g.coeffs, key=lambda m: monomial_basis(g.n, g.d).index(m)),)
        for e, cat in enumerate(catalecticants(g)):
            want = fraction_free_rank(cat, len(cat[0]))  # on a copy
            assert rank_of_int_rows(cat, len(cat[0])) == want == len(std[e]), (g, e)
        if g.d:
            assert koszul_betti(g).entries == oracle_betti_entries(g), g


def test_apolar_ideal_pieces_are_the_apolar_pieces():
    for g in oracle_battery():
        ideal = ApolarIdeal.of(g)
        assert ideal.socle is g and len(ideal.pieces) == g.d + 1
        for e, piece in enumerate(ideal.pieces):
            assert piece == tuple(map(tuple, apolar_piece(g, e))), (g, e)


def dual_pair(n, d, i, e):
    """The dual pair {(i, e), (n+2-i, d-e-1)} of flattenings."""
    return frozenset({(i, e), (n + 2 - i, d - e - 1)})


def test_koszul_rows_match_the_dict_lookup_oracle():
    # every flattening the package builds: one member of each dual pair
    # with 2 <= i <= n, which koszul_betti ranks, and the i = 1 ones that
    # the C10 audit ranks
    socles = oracle_battery(ns=range(4), max_d=6)
    assert len(socles) == 127
    for g in socles:
        n, d = g.n, g.d
        std = quotient_bases(g)
        c = gather_oracle.integer_coeff_map(g)
        audited = [(1, e) for e in range(d)]
        ranked = _eliminated(std, n, d)
        dual_pairs = {dual_pair(n, d, i, e) for i in range(2, n + 1) for e in range(d)}
        assert len(ranked) == len(dual_pairs), g
        assert {dual_pair(n, d, i, e) for i, e in ranked} == dual_pairs, g
        for pairs in (ranked, audited):
            got = []
            for i, e, rows, width in _flattenings(integer_coeffs(g), std, n, d, pairs):
                assert all(len(row) == width for row in rows)
                assert rows == gather_oracle.koszul_rows(c, std, n, i, e), (g, i, e)
                got.append((i, e))
            assert got == list(pairs), g


def near_compressed_power_sums():
    """Power sums of C(n+k, n) - 1 integer points, k = floor(d/2), in general
    enough position that h_k is one below the compressed maximum C(n+k, n)."""
    rng = random.Random(1984)
    socles = []
    for n in range(1, 4):
        for d in range(2, 7):
            k = d // 2
            h = ()
            while len(h) <= k or h[k] != comb(n + k, n) - 1:
                points = [
                    [rng.randint(-9, 9) for _ in range(n)] + [1]
                    for _ in range(comb(n + k, n) - 1)
                ]
                g = synth_power_sum(points, [1] * len(points), d)
                h = hilbert_function(g)
            socles.append(g)
    return socles


def test_dual_flattenings_have_equal_ranks():
    # Gorenstein self-duality: the flattening at (i, e) is a signed
    # transpose of the one at (n+2-i, d-e-1), so koszul_betti ranks one of
    # each pair.  Both members are built and ranked here by the oracles.
    socles = oracle_battery(ns=range(4), max_d=6) + near_compressed_power_sums()
    mismatches = {"(n+1-i, d-e-1)": 0, "(i, d-e)": 0}
    for g in socles:
        n, d = g.n, g.d
        std = quotient_bases(g)
        c = gather_oracle.integer_coeff_map(g)
        rank = {}
        for i in range(1, n + 2):
            for e in range(d):
                rows = gather_oracle.koszul_rows(c, std, n, i, e)
                width = len(rows[0]) if rows else 0
                rank[i, e] = len(kernel_oracle.fraction_free_ref(rows, width))
        for i, e in rank:
            assert rank[i, e] == rank[n + 2 - i, d - e - 1], (g, i, e)
            # a wrong pairing must fail somewhere on the battery
            wrong = {"(n+1-i, d-e-1)": (n + 1 - i, d - e - 1), "(i, d-e)": (i, d - e)}
            for name, pair in wrong.items():
                mismatches[name] += pair in rank and rank[pair] != rank[i, e]
    assert all(mismatches.values()), mismatches


def test_koszul_betti_ranks_one_flattening_per_dual_pair(monkeypatch):
    # the i = 1 pairs are forced from h, so a binary form ranks nothing
    calls = []
    monkeypatch.setattr(
        "soclekit.resolution.rank_of_int_rows",
        lambda rows, width: calls.append(width) or rank_of_int_rows(rows, width),
    )
    rng = random.Random(2020)
    for n in range(1, 4):
        for d in range(1, 7):
            calls.clear()
            koszul_betti(random_socle(rng, n, d))
            assert len(calls) == {1: 0, 2: (d + 1) // 2, 3: d}[n], (n, d)


def test_koszul_betti_ranks_the_member_with_no_more_rows_than_columns(monkeypatch):
    # the partner of a flattening has its transpose shape, and Bareiss pays
    # for rows: every rank is taken on a matrix at most as tall as it is wide
    built, shapes = [], []
    flattenings = resolution._flattenings

    def recording_flattenings(*args):
        for i, e, rows, width in flattenings(*args):
            built.append((i, e))
            yield i, e, rows, width

    monkeypatch.setattr(resolution, "_flattenings", recording_flattenings)
    monkeypatch.setattr(
        resolution,
        "rank_of_int_rows",
        lambda rows, width: shapes.append((len(rows), width)) or rank_of_int_rows(rows, width),
    )
    partners = 0
    for g in oracle_battery(ns=range(4), max_d=6) + near_compressed_power_sums():
        built.clear()
        koszul_betti(g)
        partners += any((i, e) > (g.n + 2 - i, g.d - e - 1) for i, e in built)
    assert shapes and all(nrows <= width for nrows, width in shapes), shapes
    assert partners > 0


class CountingList(list):
    """A list that counts its reads by index."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def test_flattenings_read_each_lift_row_of_g_once():
    # per degree e, the rows of Cat_(d-e-1) that the flattenings read are
    # those at the lifts m + e_s of the standard m, each at the h_(d-e-1)
    # standard columns
    rng = random.Random(6969)
    points = [[rng.randint(-3, 3) for _ in range(3)] + [1] for _ in range(3)]
    socles = [synth_power_sum(points, [1] * 3, 6), random_socle(rng, 3, 6)]
    socles += [random_socle(rng, 2, 5), Socle.parse("y0^3+y1^3+y2^3+y3^3")]
    for g in socles:
        n, d = g.n, g.d
        std = quotient_bases(g)
        for pairs in (_eliminated(std, n, d), [(1, e) for e in range(d)]):
            c = CountingList(integer_coeffs(g))
            list(_flattenings(c, std, n, d, pairs))
            want = 0
            for e in {e for _, e in pairs}:
                lifts = {m[:s] + (m[s] + 1,) + m[s + 1 :] for m in std[e] for s in range(n + 1)}
                want += len(lifts) * len(std[d - e - 1])
            assert c.reads == want, (g, pairs)


def test_binary_forms_build_no_flattening(monkeypatch):
    def refuse(*args):
        raise AssertionError("a binary form built a flattening")

    g = Socle.parse("y0^6 - 2*y0^3*y1^3 + 5*y0*y1^5")
    for name in ("integer_coeffs", "koszul_tables", "rank_of_int_rows"):
        monkeypatch.setattr(resolution, name, refuse)
    assert koszul_betti(g).entries == oracle_betti_entries(g)


def forced_rank_battery():
    """oracle_battery, monomial and two-term socles, power sums of few
    points, and near-compressed power sums, n = 1..3, d <= 6."""
    rng = random.Random(2217)
    socles = oracle_battery(ns=range(1, 4), max_d=6) + near_compressed_power_sums()
    for n in range(1, 4):
        for d in range(1, 7):
            basis = monomial_basis(n, d)
            for size in (1, 2):
                terms = rng.sample(basis, min(size, len(basis)))
                socles.append(Socle(n, d, {m: rng.choice([-2, -1, 1, 3]) for m in terms}))
            points = [[rng.randint(-3, 3) for _ in range(n)] + [1] for _ in range(2)]
            socles.append(synth_power_sum(points, [1, 2], d))
    return socles


def forced_rank_mismatch(socles):
    """The first (g, i, e) at which a rank that koszul_betti forces from h
    differs from the eager elimination of the oracle flattening, or None.
    A forced (i, e) with no flattening is skipped."""
    for g in socles:
        n, d = g.n, g.d
        std = quotient_bases(g)
        c = gather_oracle.integer_coeff_map(g)
        for (i, e), forced in resolution._forced_ranks(std, n, d).items():
            if not (1 <= i <= n + 1 and 0 <= e < d):
                continue
            rows = gather_oracle.koszul_rows(c, std, n, i, e)
            width = len(rows[0]) if rows else 0
            if len(kernel_oracle.fraction_free_ref(rows, width)) != forced:
                return g, i, e
    return None


def test_forced_ranks_equal_the_eliminated_ranks():
    # V (x) R_e -> R_(e+1) is onto, since R is generated in degree 1: it and
    # its dual partner (n+1, d-e-1) have rank h_(e+1)
    socles = forced_rank_battery()
    assert len(socles) == 172
    for g in socles:
        n, d = g.n, g.d
        forced = resolution._forced_ranks(quotient_bases(g), n, d)
        assert set(forced) == {(i, e) for i in (1, n + 1) for e in range(d)}, g
    assert forced_rank_mismatch(socles) is None


def _h_e_in_place_of_h_e_plus_1(std, n, d):
    ranks = {}
    for e in range(d):
        ranks[1, e] = ranks[n + 1, d - e - 1] = len(std[e])
    return ranks


def _partner_at_n_plus_2_minus_i_d_minus_e(std, n, d):
    ranks = {}
    for e in range(d):
        ranks[1, e] = ranks[n + 1, d - e] = len(std[e + 1])
    return ranks


@pytest.mark.parametrize(
    "mutant", [_h_e_in_place_of_h_e_plus_1, _partner_at_n_plus_2_minus_i_d_minus_e]
)
def test_a_wrong_forcing_rule_is_caught(monkeypatch, mutant):
    monkeypatch.setattr(resolution, "_forced_ranks", mutant)
    assert forced_rank_mismatch(forced_rank_battery()) is not None


def _koszul_rank_of_s(n, i, e):
    """The rank of Wedge^i V (x) S_e -> Wedge^(i-1) V (x) S_(e+1) for the
    polynomial ring S in n + 1 variables: its Koszul complex is exact in
    positive internal degree, so the rank is the alternating sum of the
    dimensions to its left."""
    return sum((-1) ** (k - i) * comb(n + 1, k) * comb(n + e + i - k, n) for k in range(i, n + 2))


def _fills_degree_e_plus_1(h, n, e):
    """h_(e+1) = dim S_(e+1); then R_e = S_e too, as Ann(g) is an ideal."""
    return h[e + 1] == comb(n + e + 1, n)


def closed_form_battery():
    """forced_rank_battery and three seeded dense socles at each (2, d) and
    (3, d), d = 2..6."""
    rng = random.Random(2828)
    dense = [random_socle(rng, n, d) for n in (2, 3) for d in range(2, 7) for _ in range(3)]
    return forced_rank_battery() + dense


def closed_form_mismatches(socles, rank=_koszul_rank_of_s, fills=_fills_degree_e_plus_1):
    """(checks, mismatches): at every (i, e), 2 <= i <= n, with ``fills(h, n, e)``,
    the oracle ranks of the flattening and of its dual partner
    (n+2-i, d-e-1) against ``rank(n, i, e)``."""
    checks = mismatches = 0
    for g in socles:
        n, d = g.n, g.d
        std = quotient_bases(g)
        h = tuple(map(len, std))
        c = gather_oracle.integer_coeff_map(g)
        for i in range(2, n + 1):
            for e in range(d):
                if not fills(h, n, e):
                    continue
                for pi, pe in ((i, e), (n + 2 - i, d - e - 1)):
                    rows = gather_oracle.koszul_rows(c, std, n, pi, pe)
                    width = len(rows[0]) if rows else 0
                    checks += 1
                    mismatches += len(kernel_oracle.fraction_free_ref(rows, width)) != rank(n, i, e)
    return checks, mismatches


def test_flattenings_where_r_fills_s_have_the_koszul_ranks_of_s():
    # where R_(e+1) = S_(e+1), the flattening at (i, e) is the Koszul
    # differential of S itself, and its dual partner has the same rank
    socles = closed_form_battery()
    assert len(socles) == 202
    assert closed_form_mismatches(socles) == (390, 0)


def _sign_by_k(n, i, e):
    return sum((-1) ** k * comb(n + 1, k) * comb(n + e + i - k, n) for k in range(i, n + 2))


def _sum_from_i_plus_1(n, i, e):
    return sum((-1) ** (k - i) * comb(n + 1, k) * comb(n + e + i - k, n) for k in range(i + 1, n + 2))


def _fills_degree_e(h, n, e):
    return h[e] == comb(n + e, n)


@pytest.mark.parametrize(
    "rank, fills",
    [
        (_sign_by_k, _fills_degree_e_plus_1),
        (_sum_from_i_plus_1, _fills_degree_e_plus_1),
        (_koszul_rank_of_s, _fills_degree_e),
    ],
    ids=["sign-by-k", "sum-from-i-plus-1", "fills-degree-e"],
)
def test_a_wrong_closed_form_is_caught(rank, fills):
    _, mismatches = closed_form_mismatches(closed_form_battery(), rank, fills)
    assert mismatches > 0


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
    _assert_scaling_invariant(Socle.parse(text), (Fraction(-1), Fraction(7, 3), Fraction(1, 1000)))


@st.composite
def _socles(draw, min_n=0, max_n=3, max_d=5):
    """A socle with min_n <= n <= max_n and d <= max_d: rational
    coefficients, some zero, so dense and sparse supports both come up."""
    n, d = draw(st.integers(min_n, max_n)), draw(st.integers(0, max_d))
    basis = monomial_basis(n, d)
    coeff = st.fractions(-9, 9, max_denominator=6) | st.just(Fraction(0))
    coeffs = draw(st.lists(coeff, min_size=len(basis), max_size=len(basis)).filter(any))
    return Socle(n, d, dict(zip(basis, coeffs)))


@given(_socles(), st.fractions(max_denominator=10**4).filter(bool))
def test_scaling_leaves_every_catalecticant_reader_unchanged(g, q):
    _assert_scaling_invariant(g, (q,))


def _assert_scaling_invariant(g, factors):
    """Every catalecticant, the Hilbert function, the Gorenstein record, the
    standard monomials and the betti table of g equal those of g scaled by
    each factor.  The record ranks every Cat_e, so its h checks
    ``hilbert_function``'s, which reads h_0 = h_d = 1 off g and ranks a
    binary form's middle catalecticant alone."""
    cats = [catalecticant(g, e) for e in range(g.d + 1)]
    h, std, table = hilbert_function(g), quotient_bases(g), koszul_betti(g)
    diag = gorenstein_check(g)
    assert diag == (True, True, True, h)
    for q in factors:
        scaled = g.scaled(q)
        assert [catalecticant(scaled, e) for e in range(g.d + 1)] == cats
        assert hilbert_function(scaled) == h
        assert gorenstein_check(scaled) == diag
        assert quotient_bases(scaled) == std
        assert koszul_betti(scaled) == table


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


@given(_socles(min_n=1), st.data(), st.sampled_from([-2, -1, 1, 2]))
def test_drawn_unimodular_changes_of_coordinates_leave_invariants_unchanged(g, data, k):
    h = _gl_image(g, data.draw(st.permutations(range(g.n + 1))), k)
    assert hilbert_function(h) == hilbert_function(g)
    assert koszul_betti(h).entries == koszul_betti(g).entries
    assert gorenstein_check(h) == gorenstein_check(g)
    if catalog_supported(g.n, g.d):
        labels = [entry and entry.label for entry in (classify(g), classify(h))]
        assert labels[0] == labels[1]


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


def _check_duality_over_keys_and_duals(t):
    """check_duality as it was first written: every key and every key's
    dual, each read with a default of 0."""
    d = t.as_dict()
    keys = set(d) | {(t.n + 1 - i, t.n + 1 + t.d - j) for i, j in d}
    return all(
        d.get((i, j), 0) == d.get((t.n + 1 - i, t.n + 1 + t.d - j), 0)
        for i, j in keys
    )


def test_check_duality_and_the_readers_agree_on_any_table():
    # hand-built tables may repeat an (i, j) or hold a count below 1:
    # b, as_dict and grid read one map, and check_duality walks it alone
    rng = random.Random(25)
    verdicts = set()
    for _ in range(3000):
        n, d = rng.randint(1, 3), rng.randint(0, 4)
        support = [(i, i + r) for i in range(n + 2) for r in range(d + 1)]
        entries = tuple(
            (*rng.choice(support), rng.randint(-2, 3)) for _ in range(rng.randint(0, 6))
        )
        if rng.random() < 0.5:  # make part of it self-dual
            entries += tuple((n + 1 - i, n + 1 + d - j, v) for i, j, v in entries[:2])
        t = BettiTable(n, d, entries)
        verdicts.add(check_duality(t))
        assert check_duality(t) == _check_duality_over_keys_and_duals(t), t
        b = t.as_dict()
        assert all(t.b(i, j) == b.get((i, j), 0) for i, j in support), t
        assert t.grid() == [[b.get((i, i + r), 0) for i in range(n + 2)] for r in range(d + 1)]
    assert verdicts == {True, False}


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
    # malformed text and any entry that is not three integers are parse errors
    for bad in [
        "{}", "[]", "x", "", '{"n": 1, "d": 2}', '{"n": 1, "d": 2, "entries": 5}',
        '{"n":1,"d":2,"entries":[[0,0]]}', '{"n":1,"d":2,"entries":[[0,0,1,1]]}',
        '{"n":1,"d":2,"entries":[[0,0,"1"]]}', '{"n":1,"d":2,"entries":[[0,0,1.0]]}',
        '{"n":1,"d":2,"entries":[[0,0,true]]}', '{"n":"1","d":2,"entries":[]}',
        '{"n":1,"d":2,"entries":[7]}', "[" * 100000,
        # a repeated (i, j) and counts below 1, which the readers would disagree on
        '{"n":1,"d":2,"entries":[[0,0,1],[0,0,5],[1,1,-3]]}',
        '{"n":1,"d":2,"entries":[[0,0,1],[0,0,5]]}',
        '{"n":1,"d":2,"entries":[[0,0,1],[1,2,0]]}',
        # shapes and entries outside the grid, which the readers mishandled:
        # to_text raised on an empty grid, hf_from_betti gave floats at
        # i = -1 and grid dropped (7, 9)
        '{"n":1,"d":-1,"entries":[]}', '{"n":-1,"d":2,"entries":[]}',
        '{"n":1,"d":2,"entries":[[-1,0,1]]}', '{"n":1,"d":2,"entries":[[7,9,1]]}',
        '{"n":1,"d":2,"entries":[[3,3,1]]}', '{"n":1,"d":2,"entries":[[1,0,1]]}',
        '{"n":1,"d":2,"entries":[[1,4,1]]}',
    ]:
        with pytest.raises(ParseError, match=r"^bad betti table: expected "):
            BettiTable.from_json(bad)
    # the grid's corners are admitted, and an empty (0, 0) table renders
    corner = BettiTable.from_json('{"n":1,"d":2,"entries":[[0,0,1],[2,4,1]]}')
    assert corner.grid() == [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    assert BettiTable.from_json('{"n":0,"d":0,"entries":[]}').to_text() == "0 0"
    text = t.to_text()
    assert text.splitlines() == ["1 0 0 0", "0 5 5 0", "0 0 0 1"]
