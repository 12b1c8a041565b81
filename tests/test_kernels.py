"""The fraction-free elimination kernel."""

import random

from soclekit._kernels import fraction_free_rank, fraction_free_ref


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
