import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from soclekit.cli import main
from soclekit.exceptional import (
    KEPT_WINDOWS,
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
    slopes = {(e.slope, e.rank): e.delta for e in exceptional_slopes(0, 1, 1, 1, 13)}
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


def test_slope_cache_is_bounded_and_does_not_change_the_table():
    def mrtable_json():
        out = io.StringIO()
        with redirect_stdout(out):
            main(["mrtable", "--format", "json"])
        return out.getvalue()

    exceptional_slopes.cache_clear()
    before = mrtable_json()
    for k in range(1000):
        semistable_exists(7, 2 * k + 1, F(-k, 3), rank_bound=5)
    assert exceptional_slopes.cache_info().currsize <= KEPT_WINDOWS
    assert mrtable_json() == before
