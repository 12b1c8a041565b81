import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import exceptional_oracle as oracle
from soclekit.cli import main
from soclekit.exceptional import (
    UNIT_SLOPES,
    boundary_discriminant,
    exceptional_slopes,
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
    slopes = {(e.slope, e.rank): e.delta for e in exceptional_slopes(0, 1)}
    assert slopes[(F(0), 1)] == 0
    assert slopes[(F(1, 2), 2)] == F(3, 8)
    assert slopes[(F(2, 5), 5)] == F(12, 25)
    assert slopes[(F(3, 5), 5)] == F(12, 25)
    assert slopes[(F(5, 13), 13)] == F(1, 2) * (1 - F(1, 169))
    assert all(rank <= 13 for _, rank in slopes)
    # no denominator-3 slope is exceptional
    assert not any(s.denominator == 3 for s, _ in slopes)


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


def test_slopes_are_translates_of_one_unit_table():
    units = [0, F(5, 13), F(2, 5), F(1, 2), F(3, 5), F(8, 13)]
    assert [e.slope for e in UNIT_SLOPES] == units
    rng = random.Random(7)
    for _ in range(300):
        lo = F(rng.randint(-90, 90), rng.randint(1, 14))
        hi = lo + F(rng.randint(0, 30), rng.randint(1, 6))
        assert exceptional_slopes(lo, hi) == oracle.exceptional_slopes(lo, hi), (lo, hi)


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
        assert semistable_exists(r, ch1, ch2) == oracle.semistable_exists(r, ch1, ch2)
        mu = F(rng.randint(-300, 300), rng.randint(1, 30))
        assert boundary_discriminant(mu) == oracle.boundary_discriminant(mu), mu
    # every multiple of an exceptional class at its own discriminant
    for exc in oracle.exceptional_slopes(-3, 3):
        for m in (1, 2, 3):
            r = m * exc.rank
            ch1 = int(exc.slope * r)
            ch2 = (F(ch1) ** 2 - 2 * r * r * exc.delta) / (2 * r)
            assert semistable_exists(r, ch1, ch2)
            assert oracle.semistable_exists(r, ch1, ch2)


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
