"""The fraction-free elimination kernel."""

import random

from soclekit._kernels import fraction_free_rank, fraction_free_ref
from soclekit.apolarity import int_catalecticant, integer_coeffs
from soclekit.linalg import monomial_basis
from soclekit.resolution import _flattenings, quotient_bases

import kernel_oracle
import linalg_oracle
from test_resolution import oracle_battery


def _random_rows(rng, span):
    nr, nc = rng.randint(0, 14), rng.randint(1, 14)
    return [[rng.randint(-span, span) for _ in range(nc)] for _ in range(nr)], nc


def test_pure_kernel_row_echelon_shape():
    rng = random.Random(55)
    for _ in range(80):
        rows, nc = _random_rows(rng, 9)
        work = [r[:] for r in rows]
        rank = fraction_free_rank(rows, nc)
        assert rows == work
        pivots = fraction_free_ref(work, nc)
        assert len(pivots) == rank
        assert pivots == sorted(set(pivots))
        for k, p in enumerate(pivots):
            assert work[k][p] != 0
            for below in work[k + 1 :]:
                assert below[p] == 0


# ---------------------------------------------------------------------------
# the lazy kernel against the eager one it replaced


def _dense(rng, nr, nc):
    return [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]


def _sparse(rng, nr, nc, span=9):
    # 70% to 90% zeros, so most rows sit out most steps
    zeros = rng.uniform(0.7, 0.9)
    return [
        [0 if rng.random() < zeros else rng.randint(-span, span) for _ in range(nc)]
        for _ in range(nr)
    ]


def _sparse_big(rng, nr, nc):
    return _sparse(rng, nr, nc, 10**40)


def _dependent(rng, nr, nc):
    # integer combinations of fewer rows than there are
    base = _sparse(rng, rng.randint(0, max(0, min(nr, nc) - 1)), nc)
    return [
        [sum(rng.randint(-3, 3) * b[j] for b in base) for j in range(nc)]
        for _ in range(nr)
    ]


def _equal_pivots(rng, nr, nc):
    # L * U with L unit lower triangular and U upper triangular with
    # diagonal (k, 1, 1, ...): every leading minor, so every pivot, is k
    k = rng.choice([1, 2, -3, 5])
    low = [[1 if i == j else rng.randint(-2, 2) * (j < i) for j in range(nr)] for i in range(nr)]
    up = [
        [(k if i == 0 else 1) if i == j else rng.randint(-2, 2) * (j > i) for j in range(nc)]
        for i in range(nr)
    ]
    return [[sum(low[i][t] * up[t][j] for t in range(nr)) for j in range(nc)] for i in range(nr)]


_KINDS = (_dense, _sparse, _sparse_big, _dependent, _equal_pivots)


def _assert_same_as_eager(rows, ncols):
    lazy, eager = [r[:] for r in rows], [r[:] for r in rows]
    assert fraction_free_ref(lazy, ncols) == kernel_oracle.fraction_free_ref(eager, ncols), rows
    assert lazy == eager, rows


def test_lazy_scaling_reduces_like_the_eager_kernel():
    rng = random.Random(1968)
    for t in range(6000):
        nr, nc = rng.randint(0, 14), rng.randint(0, 14)
        _assert_same_as_eager(_KINDS[t % len(_KINDS)](rng, nr, nc), nc)
    _assert_same_as_eager([], 5)
    _assert_same_as_eager([[], []], 0)


def test_lazy_scaling_reduces_catalecticants_and_flattenings_like_the_eager_kernel():
    socles = oracle_battery(ns=range(4), max_d=6)
    assert len(socles) == 127
    for g in socles:
        c = integer_coeffs(g)
        for e in range(g.d + 1):
            _assert_same_as_eager(int_catalecticant(c, g.n, g.d, e), len(monomial_basis(g.n, e)))
        for _, _, rows, width in _flattenings(c, quotient_bases(g), g.n, g.d):
            _assert_same_as_eager(rows, width)


def test_last_pivot_of_a_nonsingular_matrix_is_its_determinant():
    # every division is exact because each entry is a minor of the input;
    # the last pivot is the whole determinant, up to the row swaps' sign
    rng = random.Random(1982)
    seen = 0
    while seen < 400:
        k = rng.randint(1, 12)
        if seen % 2:
            # blocks on the diagonal, rows shuffled, a few entries off the
            # blocks: rows of later blocks sit out the earlier steps
            rows = [[0] * k for _ in range(k)]
            at = 0
            while at < k:
                size = rng.randint(1, 4)
                for i in range(at, min(k, at + size)):
                    for j in range(at, min(k, at + size)):
                        rows[i][j] = rng.randint(-9, 9)
                at += size
            for _ in range(rng.randint(0, k)):
                rows[rng.randrange(k)][rng.randrange(k)] = rng.randint(-9, 9)
            rng.shuffle(rows)
        else:
            rows = _KINDS[rng.randrange(3)](rng, k, k)
        det = linalg_oracle.determinant(rows)
        if det == 0:
            continue
        work = [r[:] for r in rows]
        assert fraction_free_ref(work, k) == list(range(k)), rows
        assert abs(work[-1][-1]) == abs(det), rows
        seen += 1
