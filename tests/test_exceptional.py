import io
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exceptional_oracle as oracle
from soclekit.cli import main
from soclekit.exceptional import (
    _governing,
    boundary_discriminant,
    m_r_dlp,
    m_r_naive,
    max_chi_at,
    mr_grid,
    mr_grid_text,
    realizable_by_sheaf,
    semistable_exists,
)

F = Fraction


def test_mutation_generates_the_markov_slopes():
    # each exceptional slope governs itself, and its threshold is its own
    # curve's peak 1 - Delta
    for slope, delta in [
        (F(0), 0), (F(5, 13), F(1, 2) * (1 - F(1, 169))), (F(2, 5), F(12, 25)),
        (F(1, 2), F(3, 8)), (F(3, 5), F(12, 25)), (F(8, 13), F(1, 2) * (1 - F(1, 169))),
        (F(12, 29), F(1, 2) * (1 - F(1, 841))), (F(13, 34), F(1, 2) * (1 - F(1, 1156))),
    ]:
        assert _governing(slope) == (slope, slope.denominator, delta)
        assert _governing(slope + 3) == (slope + 3, slope.denominator, delta)
        assert boundary_discriminant(slope) == 1 - delta
    # no denominator-3 slope is exceptional
    for mu in (F(1, 3), F(2, 3), F(-7, 3)):
        assert _governing(mu).slope != mu


def test_boundary_values():
    assert boundary_discriminant(F(0)) == 1
    assert boundary_discriminant(F(-1, 2)) == F(5, 8)  # 1 - 3/8, its own peak
    assert boundary_discriminant(F(-1, 3)) == F(5, 9)


def test_naive_bound_examples():
    assert m_r_naive(1, F(3, 2)) == 1
    assert m_r_naive(2, 3) == 2
    assert m_r_naive(3, F(7, 2)) == 1  # deliberately above the refined value
    with pytest.raises(ValueError):
        m_r_naive(2, F(3, 2))


def test_refined_bound_reproduces_the_nine_reference_entries():
    table = {
        (1, F(1, 2)): 0,
        (1, F(3, 2)): 1,
        (1, F(5, 2)): 3,
        (1, F(7, 2)): 6,
        (1, F(9, 2)): 10,
        (2, F(2)): 0,
        (2, F(3)): 2,
        (2, F(4)): 3,
        (3, F(7, 2)): 0,
        (3, F(9, 2)): 3,
    }
    for (r, cp), value in table.items():
        assert m_r_dlp(r, cp) == value, (r, cp)


def test_refined_never_exceeds_naive():
    for r in (1, 2, 3):
        for k in range(1, 12):
            cp = F(k, 2)
            try:
                naive = m_r_naive(r, cp)
            except ValueError:
                continue
            assert m_r_dlp(r, cp) <= naive
    # the divergence among the reference entries is exactly one cell
    assert m_r_naive(3, F(7, 2)) == 1
    assert m_r_dlp(3, F(7, 2)) == 0


def test_exceptional_classes_are_admitted():
    # the rank-2 slope -1/2 class with its own discriminant
    assert semistable_exists(2, -1, F(-1, 2))
    # same slope, smaller discriminant than the exceptional one: rejected
    assert not semistable_exists(2, -1, F(0))
    # line bundles and their multiples
    assert semistable_exists(1, 0, 0)
    assert semistable_exists(3, 0, 0)
    assert not semistable_exists(1, 0, F(1))  # negative discriminant


def test_max_chi_at_shifted_point():
    # chi at -1/2 of the structure sheaf is the rank-1 maximum there
    assert max_chi_at(1, 1, F(-1, 2)) == F(3, 8)
    assert max_chi_at(3, 3, F(-1, 2)) == F(9, 8)


def test_realizable_by_sheaf():
    assert realizable_by_sheaf(F(3, 2), 1, 0)  # the structure sheaf
    assert realizable_by_sheaf(3, F(9, 8), F(-1, 2))  # three structure sheaves
    # torsion-only values from the even quadric diagram
    assert not realizable_by_sheaf(1, 1, 0)
    assert not realizable_by_sheaf(2, 2, 0)


def test_grid_layout():
    grid = mr_grid()
    assert grid[1][F(1, 2)] == 0
    assert grid[2][F(1, 2)] is None
    text = mr_grid_text(grid)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].split()[0] == "r\\chi'"


def test_many_slopes_do_not_change_the_table():
    def mrtable_json():
        out = io.StringIO()
        with redirect_stdout(out):
            main(["mrtable", "--format", "json"])
        return out.getvalue()

    before = mrtable_json()
    for k in range(1000):
        semistable_exists(7, 2 * k + 1, F(-k, 3))
    assert mrtable_json() == before


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_closed_form_matches_the_lattice_search():
    rng = random.Random(8)
    for _ in range(500):
        r = rng.randint(1, 60)
        s = rng.choice([F(0), F(-1, 2), F(rng.randint(-9, 9), rng.randint(1, 7))])
        chi_prime = rng.randint(-70, 70) + r * (s + F(3, 2))
        if rng.random() < 0.1:
            chi_prime += F(1, 3)  # no integral degree: both raise
        want = _outcome(oracle.max_chi_at, r, chi_prime, s, width=2000)
        got = _outcome(max_chi_at, r, chi_prime, s)
        assert got == want and type(got) is type(want), (r, chi_prime, s)


def test_existence_and_threshold_match_the_oracle():
    rng = random.Random(9)
    for _ in range(500):
        r = rng.randint(1, 60)
        ch1 = rng.randint(-90, 90)
        ch2 = F(rng.randint(-500, 500), rng.choice([1, 2]))
        want = oracle.semistable_exists(r, ch1, ch2, rank_bound=2000)
        assert semistable_exists(r, ch1, ch2) == want, (r, ch1, ch2)
        mu = F(rng.randint(-300, 300), rng.randint(1, 30))
        assert boundary_discriminant(mu) == oracle.boundary_discriminant(mu, 2000), mu
    # every multiple of an exceptional class at its own discriminant
    for exc in oracle.exceptional_slopes(-3, 3, 200):
        for m in (1, 2, 3):
            r = m * exc.rank
            ch1 = int(exc.slope * r)
            ch2 = (F(ch1) ** 2 - 2 * r * r * exc.delta) / (2 * r)
            assert semistable_exists(r, ch1, ch2)
            assert oracle.semistable_exists(r, ch1, ch2, rank_bound=2000)


def test_bound_past_the_former_rank_13_table():
    # 47/123 lies in the interval of the rank-34 slope 13/34, which the
    # rank-13 table lacked; there it gave 141
    assert m_r_dlp(123, F(463, 2)) == 140
    assert oracle.max_chi_at(123, F(463, 2), 0, rank_bound=2000) == 140
    assert oracle.max_chi_at(123, F(463, 2), 0) == 141
    # 360/870 is the rank-29 slope 12/29 and Delta = Delta_E + 1/870 lies
    # below its threshold 1 - Delta_E; the rank-13 table admitted it
    assert semistable_exists(870, 360, F(-361)) is False
    assert oracle.semistable_exists(870, 360, F(-361), rank_bound=2000) is False
    assert oracle.semistable_exists(870, 360, F(-361)) is True


def test_descent_matches_the_rank_2000_table():
    # the table's slopes in [0, 1] (ranks up to 1,597), the reduced a/r
    # with r <= 300 next to each, and a seeded sample of the rest
    table = [e.slope for e in oracle.exceptional_slopes(0, 1, 2000)]
    slopes = set(table)
    for alpha in table:
        for r in (97, 250, 299, 300):
            slopes.update(F(a, r) for a in (math.floor(alpha * r), math.ceil(alpha * r)))
    rng = random.Random(10)
    slopes.update(F(rng.randint(0, r), r) for r in (rng.randint(1, 300) for _ in range(150)))
    for mu in sorted(slopes):
        assert boundary_discriminant(mu) == oracle.boundary_discriminant(mu, 2000), mu


# slopes with denominators up to 2,000, and the rank-2,000 table's exceptional
# slopes and their translates, so that classes at their own Delta are drawn
_EXCEPTIONAL = tuple(e.slope for e in oracle.exceptional_slopes(0, 1, 2000))
_slopes = st.one_of(
    st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 2000)),
    st.builds(lambda a, t: a + t, st.sampled_from(_EXCEPTIONAL), st.integers(-50, 50)),
)


@settings(max_examples=300)
@given(_slopes)
def test_threshold_is_invariant_under_twist_and_duality(mu):
    t = boundary_discriminant(mu)
    assert boundary_discriminant(mu + 1) == t
    assert boundary_discriminant(-mu) == t


@settings(max_examples=300)
@given(_slopes, st.integers(1, 3), st.integers(-3, 3), st.booleans())
def test_existence_is_invariant_under_twist_and_duality(mu, m, step, own):
    # a class k steps from the first one past the threshold, or the class
    # at the Delta of mu's denominator, which exists when mu is exceptional
    r = m * mu.denominator
    ch1 = int(mu * r)
    if own:
        ch2 = (F(ch1) ** 2 - r * r * (1 - F(1, mu.denominator ** 2))) / (2 * r) + step
    else:
        k0 = F(ch1 * ch1 * (r - 1), 2 * r)
        ch2 = F(ch1 * ch1, 2) - math.ceil(r * boundary_discriminant(mu) + k0) - step
    exists = semistable_exists(r, ch1, ch2)
    assert semistable_exists(r, ch1 + r, ch2 + ch1 + F(r, 2)) == exists  # O(1) twist
    assert semistable_exists(r, -ch1, ch2) == exists  # duality


def test_descent_cost_is_polynomial_in_bit_size():
    # 100-digit denominators: the descent takes O(log q) mutations; the slope
    # just past the edge of I_0 runs down the longest chain 1/2, 2/5, 5/13, ...
    rng = random.Random(11)
    digits = 10**100
    edge = F(3 * digits - math.isqrt(5 * digits * digits) + 1, 2 * digits)
    slopes = [edge] + [F(rng.randrange(-10 * digits, 10 * digits), rng.randrange(digits // 10, digits))
                       for _ in range(200)]
    for mu in slopes:
        start = time.perf_counter()
        boundary_discriminant(mu)
        assert time.perf_counter() - start < 0.05, mu
    r = 10**99 + 289
    start = time.perf_counter()
    m_r_dlp(r, F(3 * r, 2) + rng.randrange(-digits, digits))
    assert time.perf_counter() - start < 0.05


def test_realizable_by_sheaf_matches_the_oracle():
    for s in (F(0), F(-1, 2), F(1, 3)):
        for x in (F(k, 2) for k in range(-12, 13)):
            for y in (F(k, 8) for k in range(-16, 60, 3)):
                want = oracle.realizable_by_sheaf(x, y, s)
                assert realizable_by_sheaf(x, y, s) == want, (x, y, s)


@pytest.mark.parametrize("x, y", [(F(1, 7), -10**5), (F(1, 7), -10**9), (F(200001, 2), 10**11)])
def test_realizable_by_sheaf_ends_at_once(x, y):
    # no rank gives 1/7 an integral degree at s = 0, and the Bogomolov cap
    # at rank 1 is already below 10**11; scans linear in |y| or |x| took
    # 14.5 s and 28 s on the first and last input
    start = time.perf_counter()
    assert not realizable_by_sheaf(x, y, 0)
    assert time.perf_counter() - start < 0.05


def test_high_rank_beyond_the_former_search_window():
    # the 96-step search raised here; 3 is what the search finds within 10^4 steps
    assert m_r_dlp(150, 226) == 3
    assert oracle.max_chi_at(150, 226, 0, width=10**4) == 3
    with pytest.raises(LookupError):
        oracle.max_chi_at(150, 226, 0)
    for r in (200, 400):
        for chi_prime in (F(3 * r, 2) + 1, F(3 * r, 2) - 7):
            want = oracle.max_chi_at(r, chi_prime, 0, width=10**4)
            assert m_r_dlp(r, chi_prime) == want


@pytest.mark.parametrize("r", [0, -1])
def test_nonpositive_rank_is_refused(r):
    for call in (
        lambda: m_r_dlp(r, F(1, 2)),
        lambda: m_r_naive(r, F(1, 2)),
        lambda: m_r_dlp(r, 1),
        lambda: m_r_naive(r, 1),
        lambda: max_chi_at(r, 1, 0),
        lambda: max_chi_at(r, F(1, 2), F(-1, 2)),
    ):
        with pytest.raises(ValueError, match="rank must be positive"):
            call()
