import random
import time
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from operator import add, mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gather_oracle
import linalg_oracle
from soclekit import linalg
from soclekit._kernels import fraction_free_rank, fraction_free_ref
from soclekit.apolarity import (
    ApolarIdeal,
    Socle,
    apolar_piece,
    catalecticant,
    hilbert_function,
    random_socle,
    synth_power_sum,
)
from soclekit.errors import ArgumentError, EnvelopeError, SocleKitError
from soclekit.linalg import (
    MAX_CATALECTICANT_WORK,
    catalecticant_table,
    kernel_basis,
    kernel_of_int_rows,
    koszul_tables,
    monomial_basis,
    monomial_index,
    primitive,
    rank,
    rank_of_int_rows,
    rref,
    term_order_key,
)
from soclekit.strata import catalog_supported, witness_socles
from test_resolution import oracle_battery


def brute_force_monomials(n, e):
    """Independent stars-and-bars enumeration."""
    return {m for m in product(range(e + 1), repeat=n + 1) if sum(m) == e}


def test_basis_binary_cubics_exact_order():
    assert monomial_basis(1, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_basis_counts():
    assert len(monomial_basis(2, 2)) == 6
    assert len(monomial_basis(3, 3)) == 20
    assert monomial_basis(3, 3) == sorted(
        brute_force_monomials(3, 3), key=term_order_key
    )


def test_basis_matches_stars_and_bars():
    for n in range(5):
        for e in range(9):
            basis = monomial_basis(n, e)
            assert set(basis) == brute_force_monomials(n, e)
            assert len(basis) == len(set(basis))
            assert len(basis) == comb(n + e, n)


def test_basis_deterministic_and_strictly_ordered():
    a = monomial_basis(2, 4)
    b = monomial_basis(2, 4)
    assert a == b
    keys = [term_order_key(m) for m in a]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_basis_matches_the_sorted_oracle():
    for n in range(6):
        for e in range(9):
            assert monomial_basis(n, e) == gather_oracle.sorted_basis(n, e)


def test_monomial_basis_returns_a_fresh_list():
    first = monomial_basis(2, 3)
    first[0] = (9, 9, 9)
    first.append((0, 0, 0))
    assert monomial_basis(2, 3) == gather_oracle.sorted_basis(2, 3)
    assert monomial_basis(2, 3) is not monomial_basis(2, 3)


def test_shape_tables_index_the_bases():
    for n in range(4):
        for d in range(7):
            basis = monomial_basis(n, d)
            assert dict(monomial_index(n, d)) == {m: k for k, m in enumerate(basis)}
            for e in range(d + 1):
                table = catalecticant_table(n, d, e)
                assert table == tuple(
                    tuple(basis.index(tuple(map(add, r, c))) for c in monomial_basis(n, e))
                    for r in monomial_basis(n, d - e)
                )
            # for each e < d: the index of degree e, Cat_(d-e-1)'s table, and
            # the lift table, whose k-th row holds the positions in degree
            # e + 1 of m + e_s, m the k-th monomial of degree e
            tables = koszul_tables(n, d)
            assert len(tables) == d
            for e, (index, cat, lift) in enumerate(tables):
                assert index is monomial_index(n, e)
                assert cat == catalecticant_table(n, d, d - e - 1)
                up = monomial_basis(n, e + 1)
                assert lift == tuple(
                    tuple(up.index(tuple(x + (s == j) for j, x in enumerate(m))) for s in range(n + 1))
                    for m in monomial_basis(n, e)
                )


SHAPE_CACHES = (linalg._basis, monomial_index, catalecticant_table, koszul_tables)


def test_shape_caches_are_bounded_and_read_only():
    for table in SHAPE_CACHES:
        assert table.cache_parameters()["maxsize"] is not None, table.__name__
    with pytest.raises(TypeError):
        monomial_index(2, 2)[(2, 0, 0)] = 5
    assert isinstance(catalecticant_table(2, 4, 2), tuple)
    assert all(isinstance(row, tuple) for row in catalecticant_table(2, 4, 2))


def test_large_tables_are_not_kept():
    for table in SHAPE_CACHES:
        table.cache_clear()
    big = catalecticant_table(5, 10, 5)
    assert len(big) == len(big[0]) == 252
    assert catalecticant_table.cache_info().currsize == 0
    assert catalecticant_table(5, 10, 5) == big
    small = catalecticant_table(3, 6, 3)
    assert catalecticant_table(3, 6, 3) is small


def test_rank_trivial_cases():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 3
    assert rank([[0, 0], [0, 0]], 2) == 0
    assert rank([[1, 2], [2, 4]], 2) == 1
    assert rank([[1, 2], [1, 2]], 2) == 1
    assert rank([], 3) == 0


def test_kernel_trivial_cases():
    assert kernel_basis([[1, 0], [0, 1]], 2) == []
    assert kernel_basis([[1, 1]], 2) == [[1, -1]]
    assert kernel_basis([[0, 0, 0], [0, 0, 0]], 3) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert kernel_basis([[2, -3]], 2) == [[3, 2]]


def _integer_rows(rows):
    """Each row times the lcm of its denominators: scaling a row changes
    neither rank, echelon pivots nor kernel."""
    out = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in fracs))
        out.append([int(f * mult) for f in fracs])
    return out


def _gauss_rank(rows, ncols):
    """Fraction-arithmetic elimination, independent of the Bareiss kernel."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_against_fraction_gauss_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert rank(_integer_rows(rows), nc) == _gauss_rank(rows, nc)


def _matvec(rows, vec):
    return [sum(map(mul, row, vec)) for row in rows]


def test_rank_kernel_dimension_identity_and_exactness():
    rng = random.Random(77)
    for _ in range(120):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        kb = kernel_basis(rows, nc)
        assert rank(rows, nc) + len(kb) == nc
        for vec in kb:
            assert all(v == 0 for v in _matvec(rows, vec))
            content = 0
            for v in vec:
                content = __import__("math").gcd(content, v)
            assert content == 1
            assert next(v for v in vec if v) > 0


def test_kernel_deterministic():
    rows = [[2, 4, 6], [1, 2, 3]]
    assert kernel_basis(rows, 3) == kernel_basis(rows, 3) == [[2, -1, 0], [3, 0, -1]]


small_ints = st.integers(min_value=-9, max_value=9)


@given(
    st.lists(
        st.lists(small_ints, min_size=4, max_size=4), min_size=1, max_size=6
    )
)
def test_rank_transpose_invariance(rows):
    r = rank(rows, 4)
    assert r == rank(list(zip(*rows)), len(rows))
    assert r <= min(len(rows), 4)


def _entry(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "frac":
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    if kind == "huge":
        return Fraction(rng.randint(-(10**30), 10**30), rng.choice((1, rng.randint(1, 10**30))))
    if kind == "sparse":
        return rng.choice((0, 0, 0, 1, -1, Fraction(1, 3)))
    return 0


def _random_rational_matrix(rng, kind=None):
    """Seeded matrices of every kind whose integer multiples (by row) the
    echelon routine meets: empty, zero, integer, small and huge rationals,
    sparse, low rank, and large square integer matrices whose Bareiss
    minors outgrow 64 bits (some of them singular, by repeated rows).  Four
    integer kinds aim at the kernel's content and sign: one row with a
    negative first entry and a common factor, like Cat_d; wide rank-1..4
    matrices with factors up to 10**6 whose columns carry common factors, so
    pivots share them with the columns they meet; all-zero rows among
    others; and one column."""
    if kind == "one-row":
        nc, factor = rng.randint(1, 12), rng.randint(2, 10**6)
        row = [factor * rng.choice((0, rng.randint(-9, 9))) for _ in range(nc)]
        row[0] = -factor * rng.randint(1, 9)
        return [row], nc
    if kind == "wide":
        r, nc = rng.randint(1, 4), rng.randint(8, 30)
        scales = [rng.choice((1, 2, 3, 4, 6, 12, 30)) for _ in range(nc)]
        right = [[s * rng.randint(-(10**6) // s, 10**6 // s) for s in scales] for _ in range(r)]
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rng.randint(r, 6))]
        return [[sum(map(mul, row, col)) for col in zip(*right)] for row in left], nc
    if kind == "zero-rows":
        nc = rng.randint(1, 8)
        rows = _ints(rng, rng.randint(0, 4), nc) + [[0] * nc for _ in range(rng.randint(1, 3))]
        rng.shuffle(rows)
        return rows, nc
    if kind == "one-column":
        return [[rng.choice((0, rng.randint(-(10**6), 10**6)))] for _ in range(rng.randint(0, 6))], 1
    if kind == "large":
        size = rng.randint(18, 30)
        rows = [[_entry(rng, "int") for _ in range(size)] for _ in range(size)]
        for _ in range(rng.choice((0, rng.randint(1, 4)))):
            rows[rng.randrange(size)] = list(rng.choice(rows))
        return rows, size
    nr, nc = rng.randint(0, 7), rng.randint(1, 8)
    kind = kind or rng.choice(("zero", "int", "frac", "huge", "sparse", "low-rank"))
    if kind != "low-rank":
        return [[_entry(rng, kind) for _ in range(nc)] for _ in range(nr)], nc
    r = rng.randint(1, 3)
    left = [[_entry(rng, "frac") for _ in range(r)] for _ in range(nr)]
    right = [[_entry(rng, "int") for _ in range(nc)] for _ in range(r)]
    return [[sum(map(mul, row, col)) for col in zip(*right)] for row in left], nc


def test_rref_and_kernel_match_the_fraction_oracle():
    rng = random.Random(3031)
    max_bits = 0
    edge_kinds = ["one-row", "wide", "zero-rows", "one-column"]
    for kind in [None] * 2000 + ["large"] * 40 + edge_kinds * 100:
        rationals, nc = _random_rational_matrix(rng, kind)
        want = linalg_oracle.rref(rationals, nc)
        rows = _integer_rows(rationals)
        reduced, pivots = rref(rows, nc)
        for row, p in zip(reduced, pivots):  # primitive, pivot first and positive
            assert all(type(x) is int for x in row) and gcd(*row) == 1
            assert row[p] > 0 and not any(row[:p])
        scaled = [[Fraction(x, row[p]) for x in row] for row, p in zip(reduced, pivots)]
        assert (scaled, pivots) == want
        kernel = kernel_basis(rows, nc)
        assert kernel == linalg_oracle.kernel_basis(rationals, nc)
        for vec in kernel:  # primitive, first nonzero positive
            assert all(type(x) is int for x in vec) and gcd(*vec) == 1
            assert next(x for x in vec if x) > 0
        assert rank(rows, nc) == len(want[1])
        if kind == "large":
            assert all(not any(_matvec(rows, vec)) for vec in kernel)
            work = [list(row) for row in rows]
            pivots = fraction_free_ref(work, nc)
            max_bits = max(max_bits, abs(work[len(pivots) - 1][pivots[-1]]).bit_length())
    assert max_bits > 64


def test_rref_leaves_its_input_unchanged():
    rows = [[4, 8, 1], [1, 2, 3]]
    copy = [list(r) for r in rows]
    reduced, pivots = rref(rows, 3)
    assert rows == copy
    assert pivots == [0, 2] and reduced == [[1, 2, 0], [0, 0, 1]]
    # already primitive int rows, which elimination would change in place
    for rows in ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], [[1, 1, 0], [1, 0, 1], [0, 1, -1]]):
        copy = [list(r) for r in rows]
        rref(rows, 3)
        assert rows == copy
        kernel_basis(rows, 3)
        assert rows == copy
        rank(rows, 3)
        assert rows == copy


def test_primitive_matches_the_fraction_content_reference():
    rng = random.Random(91)
    rows = [[], [0], [0, 0, 0], [5], [-5], [0, -4, 6], [4, 2], [-3]]
    for _ in range(600):
        kind = rng.choice(("int", "frac", "huge", "sparse", "zero", "mixed", "scaled"))
        size = rng.randint(0, 9)
        if kind == "mixed":
            row = [_entry(rng, rng.choice(("int", "frac"))) for _ in range(size)]
        elif kind == "scaled":  # large common content, either sign
            k = rng.choice((-1, 1)) * rng.randint(2, 10**20)
            row = [k * _entry(rng, "int") for _ in range(size)]
        else:
            row = [_entry(rng, kind) for _ in range(size)]
        rows += _integer_rows([row])
    for row in rows:
        copy = list(row)
        got = primitive(row)
        assert got == linalg_oracle.primitive(row), row
        assert all(type(v) is int for v in got), row
        assert got is not row
        got.append(1)  # the result shares nothing with the input
        assert row == copy


def _ints(rng, nr, nc, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]


def _full_rank_and_edge_battery():
    """Seeded integer matrices of the shapes where ``rref`` returns the
    identity or meets a degenerate row: square nonsingular and tall
    full-column-rank matrices, one-column matrices shaped like Cat_0, one-row
    matrices, rows scaled by a large negative common factor, zero rows and
    no columns."""
    rng = random.Random(2626)
    for _ in range(60):
        size = rng.randint(1, 9)
        rows = _ints(rng, size, size)
        while not linalg_oracle.determinant(rows):
            rows = _ints(rng, size, size)
        yield rows, size
        nc = rng.randint(1, 6)
        rows = _ints(rng, nc + rng.randint(1, 6), nc)
        yield rows, nc
        yield [[rng.choice((0, rng.randint(-99, 99)))] for _ in range(rng.randint(1, 12))], 1
        nc = rng.randint(1, 10)
        yield [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(nc)]], nc
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        factor = -rng.randint(10**20, 10**21)
        yield [[factor * v for v in row] for row in _ints(rng, nr, nc)], nc
        rows = _ints(rng, nr, nc) + [[0] * nc for _ in range(rng.randint(1, 3))]
        rng.shuffle(rows)
        yield rows, nc
        yield [[] for _ in range(rng.randint(0, 3))], 0


def test_rref_kernel_and_ranks_match_the_oracle_on_full_rank_and_edge_shapes():
    identities = 0
    for rows, nc in _full_rank_and_edge_battery():
        want = linalg_oracle.rref(rows, nc)
        reduced, pivots = rref(rows, nc)
        for row, p in zip(reduced, pivots):  # primitive, pivot first and positive
            assert all(type(x) is int for x in row) and gcd(*row) == 1
            assert row[p] > 0 and not any(row[:p])
        scaled = [[Fraction(x, row[p]) for x in row] for row, p in zip(reduced, pivots)]
        assert (scaled, pivots) == want, rows
        assert kernel_basis(rows, nc) == linalg_oracle.kernel_basis(rows, nc), rows
        identities += 0 < len(pivots) == nc
        want_rank = fraction_free_rank([list(row) for row in rows], nc)
        assert rank_of_int_rows([list(row) for row in rows], nc) == want_rank == len(pivots)
        assert rank(rows, nc) == want_rank
    assert identities >= 150


@pytest.mark.parametrize(
    "call",
    [
        lambda: monomial_basis(20, 8),
        lambda: monomial_basis(25, 12),
        lambda: random_socle(random.Random(0), 20, 8),
        lambda: monomial_basis(10**6, 10**6),
        lambda: monomial_index(10**6, 10**6),
    ],
    ids=["basis-20-8", "basis-25-12", "random-socle-20-8", "basis-huge", "index-huge"],
)
def test_oversized_bases_are_refused_before_any_tuple(call):
    # monomial_basis(20, 8) has 3.1 million monomials and took 3.2 s to
    # build; monomial_basis(25, 12) ran out of memory; the exact size of
    # monomial_basis(10**6, 10**6), C(2 * 10**6, 10**6), takes 34 s alone
    start = time.perf_counter()
    with pytest.raises(EnvelopeError, match=f"needs work beyond {MAX_CATALECTICANT_WORK}$"):
        call()
    assert time.perf_counter() - start < 0.05


def test_rank_of_int_rows_reduces_its_rows_in_place():
    rows = [[2, 4, 1], [1, 2, 3], [3, 6, 4]]
    assert rank_of_int_rows(rows, 3) == 2
    assert rows[2] == [0, 0, 0]  # eliminated where it stands, not in a copy


def test_non_integer_rows_raise_type_error():
    # [[1/2, 1], [1, 3]] has rank 2; no entry point may read it as rank 1
    for entry in (Fraction(1, 2), Fraction(4), 0.5, 2.0):
        rows = [[entry, 1], [1, 3]]
        for call in (rank, rref, kernel_basis):
            with pytest.raises(TypeError):
                call(rows, 2)
        with pytest.raises(TypeError):
            primitive(rows[0])


def test_witness_catalecticants_match_the_fraction_oracle():
    for n, d in [(1, d) for d in range(1, 13)] + [(2, d) for d in range(1, 5)]:
        assert catalog_supported(n, d)
        for g in witness_socles(n, d).values():
            assert hilbert_function(g) == linalg_oracle.hilbert_function(g)
            for e in range(d + 1):
                assert apolar_piece(g, e) == linalg_oracle.apolar_piece(g, e)


@pytest.mark.parametrize(
    "call",
    [lambda: monomial_basis(2, -1), lambda: rref([[1, 2]], 3), lambda: kernel_basis([[1]], -1)],
    ids=["basis-negative-e", "short-row", "negative-ncols"],
)
def test_linalg_refusals_are_package_errors(call):
    # one except clause for the package's errors catches them; ValueError,
    # which callers caught before, still does
    with pytest.raises(SocleKitError) as exc:
        call()
    assert type(exc.value) is ArgumentError and isinstance(exc.value, ValueError)


def _kernel_battery():
    """Seeded integer matrices for ``kernel_of_int_rows``: wide, tall and
    square, of every rank from 0 to full, built as products of random
    factors; rows scaled by a common factor, so their content exceeds 1;
    all-zero rows among others; no rows; no columns."""
    rng = random.Random(3434)
    for shape in ("wide", "tall", "square") * 50:
        short, long = rng.randint(1, 4), rng.randint(5, 12)
        nr, nc = {"wide": (short, long), "tall": (long, short)}.get(shape, (rng.randint(1, 8),) * 2)
        for r in range(min(nr, nc) + 1):
            left, right = _ints(rng, nr, r, 4), _ints(rng, r, nc, 30)
            rows = [[sum(a * b[j] for a, b in zip(row, right)) for j in range(nc)] for row in left]
            yield [[rng.choice((1, 1, -6, 35)) * v for v in row] for row in rows], nc
    for _ in range(40):
        nc = rng.randint(1, 8)
        rows = _ints(rng, rng.randint(0, 5), nc) + [[0] * nc for _ in range(rng.randint(1, 3))]
        rng.shuffle(rows)
        yield rows, nc
        yield [], nc
    yield [[], []], 0


def test_kernel_of_int_rows_matches_the_fraction_oracle():
    ranks = set()
    for rows, nc in _kernel_battery():
        want = linalg_oracle.kernel_basis(rows, nc)
        work = [list(row) for row in rows]
        got = kernel_of_int_rows(work, nc)
        assert type(got) is tuple and all(type(vec) is tuple for vec in got)
        assert got == tuple(map(tuple, want)), rows
        assert kernel_basis(rows, nc) == want, rows
        ranks.add((nc - len(want), min(len(rows), nc)))
    # every rank from 0 to full, in wide, tall and square shapes
    assert {(0, k) for k in range(1, 9)} | {(k, k) for k in range(1, 9)} <= ranks


def test_kernel_of_int_rows_reduces_its_rows_in_place():
    rows = [[2, 4, 6], [3, 6, 9], [1, 1, 1]]
    assert kernel_of_int_rows(rows, 3) == ((1, -2, 1),)
    assert len(rows) == 2  # the zero row, eliminated where it stood, is dropped


def _content_socles():
    """Seeded socles whose Cat_e rows have content > 1 though g is primitive:
    every coefficient on a monomial that y0 divides is a multiple of 6 or
    35, so each row indexed by such a monomial shares that factor."""
    rng = random.Random(4545)
    for n in (1, 2, 3):
        for d in range(1, 7):
            for factor in (6, 35):
                coeffs = {m: (factor if m[0] else 1) * rng.randint(-4, 4) for m in monomial_basis(n, d)}
                coeffs[(0,) * n + (d,)] = 1
                yield Socle(n, d, coeffs)


def _power_sums_and_rational_socles():
    """Seeded power sums of 1 to 4 points (n = 1..3, d <= 6), and socles
    with rational coefficients."""
    rng = random.Random(5656)
    for n in (1, 2, 3):
        for d in range(1, 7):
            for m in range(1, 5):
                # distinct points and positive weights: y_n^d keeps a coefficient
                points = [[*p, 1] for p in rng.sample(list(product(range(-3, 4), repeat=n)), m)]
                weights = [rng.randint(1, 5) for _ in points]
                yield synth_power_sum(points, weights, d)
            coeffs = {m: Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for m in monomial_basis(n, d)}
            coeffs[(d,) + (0,) * n] = Fraction(1, 7)
            yield Socle(n, d, coeffs)


def test_apolar_ideal_pieces_match_the_fraction_oracle():
    socles = [*oracle_battery(), *_power_sums_and_rational_socles(), *_content_socles()]
    contents = 0
    for g in socles:
        pieces = ApolarIdeal.of(g).pieces
        assert len(pieces) == g.d + 1, g
        for e, piece in enumerate(pieces):
            assert piece == tuple(map(tuple, linalg_oracle.apolar_piece(g, e))), (g, e)
            contents += any(gcd(*row) > 1 for row in catalecticant(g, e))
    assert len(socles) == 217 and contents > 100
