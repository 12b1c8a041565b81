import gc
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from operator import add
from types import SimpleNamespace

import pytest

import gather_oracle
import parse_oracle
import price_oracle
from soclekit import apolarity, linalg
from soclekit.apolarity import (
    MAX_CATALECTICANT_WORK,
    MAX_POWER_SUM_ENTRIES,
    MAX_VARIABLE_INDEX,
    ApolarIdeal,
    Socle,
    annihilates,
    apolar_piece,
    catalecticant,
    catalecticants,
    contract,
    factors_through_ideal,
    format_form,
    gorenstein_check,
    hilbert_function,
    int_catalecticant,
    integer_coeffs,
    parse_form,
    random_socle,
    synth_power_sum,
)
from soclekit.errors import DegenerateInputError, EnvelopeError, ParseError
from soclekit.linalg import capped_size, monomial_basis, rank
from soclekit.resolution import quotient_bases


def shift_oracle(mono, g):
    """Coefficient-shift contraction, written independently."""
    out = {}
    for target, c in g.coeffs.items():
        diff = tuple(t - m for t, m in zip(target, mono))
        if all(x >= 0 for x in diff):
            out[diff] = c
    return out


def test_contract_examples():
    g = Socle.parse("y0^3+y1^3")
    assert contract((1, 0), g) == {(2, 0): 1} == shift_oracle((1, 0), g)
    g2 = Socle.parse("y0^3+y1^3", n=2)
    assert contract((0, 0, 1), g2) == {}
    g3 = Socle.parse("y0^2*y1")
    assert contract((1, 1), g3) == {(1, 0): 1} == shift_oracle((1, 1), g3)
    with pytest.raises(ValueError):
        contract((4, 0), g)


def test_catalecticant_quadric_identity():
    q = Socle.parse("y0^2+y1^2+y2^2")
    m = catalecticant(q, 1)
    assert m == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(m, 3) == 3


def test_catalecticant_shape_and_rank():
    g = Socle.parse("y0^3+y1^3")
    m = catalecticant(g, 1)
    assert (len(m), len(m[0])) == (3, 2)
    # extraction oracle: entry = coefficient of row * col monomial
    rows = monomial_basis(1, 2)
    cols = monomial_basis(1, 1)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert m[i][j] == g.coeff(tuple(map(add, r, c)))
            assert type(m[i][j]) is int
    assert rank(m, 2) == 2
    with pytest.raises(ValueError):
        catalecticant(g, 5)
    # rows of the primitive integer multiple: g's scale does not show
    assert catalecticant(g.scaled(Fraction(-3, 4)), 1) == m


def test_int_catalecticant_matches_the_dict_lookup_oracle():
    # n <= 4, d <= 8 reaches past the betti envelope and past the tables
    # the shape caches keep, so both the kept and the rebuilt tables run
    rng = random.Random(808)
    for n in range(5):
        for d in range(9):
            basis = monomial_basis(n, d)
            terms = rng.sample(basis, min(3, len(basis)))
            for g in (
                random_socle(rng, n, d),
                random_socle(rng, n, d, -1, 1),
                Socle(n, d, {m: Fraction(rng.choice([-3, 1, 2]), rng.choice([1, 2, 5])) for m in terms}),
            ):
                c, want = integer_coeffs(g), gather_oracle.integer_coeff_map(g)
                assert c == [want.get(m, 0) for m in basis]
                for e in range(d + 1):
                    assert int_catalecticant(c, n, d, e) == gather_oracle.int_catalecticant(
                        want, n, d, e
                    ), (g, e)


def test_out_of_envelope_hilbert_function_keeps_little_memory():
    # Cat_4 here is 126 x 126; no shape table that size may outlive the
    # call (keeping every table this call builds holds about 1.3 MB)
    g = Socle.parse("y0^2*y1^2*y2*y3*y4*y5")
    for table in (
        linalg._basis,
        linalg.monomial_index,
        linalg.catalecticant_table,
        linalg.koszul_tables,
    ):
        table.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = hilbert_function(g)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h == (1, 6, 17, 30, 36, 30, 17, 6, 1)
    assert kept < 0.5 * 2**20


@pytest.mark.parametrize(
    "call",
    [
        hilbert_function,
        gorenstein_check,
        ApolarIdeal.of,
        lambda g: apolar_piece(g, 7),
        lambda g: catalecticant(g, 7),
        quotient_bases,
    ],
    ids=[
        "hilbert_function",
        "gorenstein_check",
        "ApolarIdeal.of",
        "apolar_piece",
        "catalecticant",
        "quotient_bases",
    ],
)
def test_oversized_catalecticants_are_refused_before_any_work(call):
    # Cat_7 of a (6, 14) socle is 1716 x 1716; ranking this sparse one took 7.9 s
    g = Socle.parse("y0^14 + y6^14 + y1^7*y2^7 + y3^5*y4^5*y5^4")
    start = time.perf_counter()
    with pytest.raises(EnvelopeError, match=f"catalecticant work beyond {MAX_CATALECTICANT_WORK}$"):
        call(g)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize(
    "n, d", [(5, 10), (1, 541), (0, 99999)], ids=["dense-5-10", "dense-binary-541", "power-99999"]
)
def test_dense_socles_past_the_work_budget_are_refused_at_once(n, d):
    # each Cat_(d//2) has under 10**5 entries, but gathering and ranking
    # all d + 1 of them is far past the work budget (seconds and more); a
    # binary form ranks its middle catalecticant alone, just past it at 541
    g = random_socle(random.Random(d), n, d)
    start = time.perf_counter()
    with pytest.raises(EnvelopeError, match=rf"^a socle at \(n={n}, d={d}\) needs catalecticant work"):
        hilbert_function(g)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("d", [111, 540])
def test_gorenstein_check_prices_every_gather_before_any_rank(monkeypatch, d):
    # hilbert_function ranks a binary form's Cat_(d//2) alone and admits it
    # up to degree 540, but gorenstein_check gathers all d + 1 catalecticants
    def no_rank(*args):
        raise AssertionError("ranked a catalecticant before pricing the gathers")

    monkeypatch.setattr(apolarity, "rank_of_int_rows", no_rank)
    with pytest.raises(EnvelopeError, match=rf"^a socle at \(n=1, d={d}\) needs catalecticant work"):
        gorenstein_check(random_socle(random.Random(d), 1, d))


def test_gorenstein_check_admits_a_dense_binary_form_of_degree_110():
    diag = gorenstein_check(random_socle(random.Random(110), 1, 110))
    assert diag == (True, True, True, tuple(min(e + 1, 111 - e, 56) for e in range(111)))


class _NoDraws(random.Random):
    def randint(self, lo, hi):
        raise AssertionError(f"drew from [{lo}, {hi}]")


@pytest.mark.parametrize("lo, hi", [(0, 0), (1, 0)], ids=["only-zero", "empty"])
def test_random_socle_refuses_a_range_with_no_nonzero_integer_before_any_draw(lo, hi):
    # [0, 0] redrew all-zero socles forever; [1, 0] raised a bare ValueError
    start = time.perf_counter()
    with pytest.raises(DegenerateInputError, match=rf"^no nonzero integer in \[{lo}, {hi}\]$"):
        random_socle(_NoDraws(0), 1, 2, lo, hi)
    assert time.perf_counter() - start < 0.05


def test_random_socle_draws_one_coefficient_per_basis_monomial():
    # seeded workloads and tests depend on this draw order
    for lo, hi in [(-9, 9), (-1, 1), (0, 1), (3, 3)]:
        rng, twin = random.Random(7), random.Random(7)
        g = random_socle(rng, 2, 3, lo, hi)
        want = {m: twin.randint(lo, hi) for m in monomial_basis(2, 3)}
        assert g == Socle(2, 3, want)
        assert rng.random() == twin.random()


@pytest.mark.parametrize(
    "g, h, seconds",
    [
        (Socle.parse("y0", n=1000), (1, 1), 1),
        (Socle.parse("y0^20000"), (1,) * 20001, 1),
        (
            random_socle(random.Random(200), 1, 200),
            tuple(min(e + 1, 201 - e, 101) for e in range(201)),
            0.5,
        ),
    ],
    ids=["n-1000", "power-20000", "dense-binary-200"],
)
def test_large_bases_inside_the_work_budget_are_built_fast(g, h, seconds):
    # the bases hold n + 1 exponents per monomial and must be built in time
    # linear in them, whether n or d is large; a binary form ranks only its
    # middle catalecticant, 101 x 101 at d = 200
    start = time.perf_counter()
    assert hilbert_function(g) == h
    assert time.perf_counter() - start < seconds


def test_every_basis_monomial_is_priced():
    # Cat_0 of a binary form of degree d is one column, but the degree-d
    # basis behind it has d + 1 monomials to build and index
    start = time.perf_counter()
    column = catalecticant(Socle.parse("y0^50000 + y1^50000"), 0)
    assert len(column) == 50001 and column[0] == column[-1] == [1]
    assert sum(row[0] for row in column) == 2
    assert time.perf_counter() - start < 1
    g = Socle.parse("y0^200000 + y1^200000")
    start = time.perf_counter()
    with pytest.raises(EnvelopeError, match=r"^a socle at \(n=1, d=200000\) needs catalecticant work"):
        catalecticant(g, 0)
    assert time.perf_counter() - start < 0.05


# ---------------------------------------------------------------------------
# one price: every size check reads linalg.capped_size


PRICE_NS = [*range(7), 200, 1000, 4412, 10**6]
PRICE_DS = [*range(13), 110, 111, 540, 541, 4412, *range(2 * 10**7 - 1, 2 * 10**7 + 2)]


def _outcome(call, *args, **kwargs):
    """What the call returns, or the type and message of its error."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _degree_sets(d):
    """(degrees, count) pairs as the package prices them: one Cat_e, both
    ends, d + 1 copies of the middle one, and a doubling search."""
    doubling = [e for e in (2**k for k in range(d.bit_length())) if e <= d // 2]
    sets = [(), (0,), (d // 2,), (d,), (0, d), tuple(doubling)]
    return [(degrees, 1) for degrees in sets] + [((d // 2,), d + 1)]


def test_catalecticant_prices_match_the_three_former_prices():
    for n in PRICE_NS:
        for d in PRICE_DS:
            g = SimpleNamespace(n=n, d=d)
            for degrees, count in _degree_sets(d):
                got = _outcome(apolarity.admit_catalecticants, g, *degrees, count=count)
                if n == 10**6 and 10**4 < d <= MAX_CATALECTICANT_WORK:
                    # the former price takes C(n+d, n) exactly here, a binomial
                    # of millions of bits (48 s), though its basis term alone,
                    # at least (n + 121) * (n + d), is past the budget
                    want = (EnvelopeError, f"a socle at (n={n}, d={d}) needs catalecticant "
                            f"work beyond {MAX_CATALECTICANT_WORK}")
                else:
                    want = _outcome(price_oracle.admit_catalecticants, g, *degrees, count=count)
                assert got == want, (n, d, degrees, count)
    for n in PRICE_NS:
        for e in PRICE_NS + PRICE_DS:
            assert _outcome(linalg._basis_size, n, e) == _outcome(price_oracle._basis_size, n, e)
    # the former basis price skipped its check at e = 0; the n + 121 steps
    # of the one monomial now count there too, as admit_catalecticants counts them
    edge = MAX_CATALECTICANT_WORK - 121
    assert linalg._basis_size(edge, 0) == price_oracle._basis_size(edge, 0) == 1
    with pytest.raises(EnvelopeError, match=rf"^a basis at \(n={edge + 1}, e=0\) needs work"):
        monomial_basis(edge + 1, 0)


def test_power_sum_sizes_match_the_former_entry_count():
    cap = MAX_POWER_SUM_ENTRIES
    for n in PRICE_NS:
        for d in PRICE_DS:
            for m in (1, 2, 3, 100, cap, cap + 1):
                assert capped_size(m, n, d, cap) == price_oracle._power_sum_entries(n, d, m)
    # m * C(n+d, n) at the bound and one past it, and 100 * C(100, 2) whose
    # first partial product, 100 * 100, is the bound exactly
    edges = [(0, 3, cap), (1, cap - 1, 1), (1, 99, 100), (2, 3, 1000)]
    edges += [(0, 3, cap + 1), (1, cap, 1), (1, 136, 73), (2, 98, 100)]
    for n, d, m in edges:
        got = _outcome(synth_power_sum, [[1] + [0] * n] * m, [1] * m, d)
        if price_oracle._power_sum_entries(n, d, m) > cap:
            message = f"power sum at (n={n}, d={d}) over {m} point(s) needs more than {cap} coefficients"
            assert got == (EnvelopeError, message), (n, d, m)
        else:
            assert got == Socle(n, d, {(d,) + (0,) * n: m}), (n, d, m)


# ---------------------------------------------------------------------------
# one gather: hilbert_function and quotient_bases read catalecticants


def _gathers(monkeypatch, call, g):
    """The degrees ``int_catalecticant`` gathers and the socles
    ``integer_coeffs`` converts while ``call(g)`` runs."""
    degrees, converted = [], []
    gather, convert = apolarity.int_catalecticant, apolarity.integer_coeffs
    with monkeypatch.context() as m:
        m.setattr(
            apolarity, "int_catalecticant", lambda c, n, d, e: degrees.append(e) or gather(c, n, d, e)
        )
        m.setattr(apolarity, "integer_coeffs", lambda h: converted.append(h) or convert(h))
        call(g)
    return degrees, converted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hilbert_function_and_quotient_bases_gather_only_the_inner_catalecticants(monkeypatch, n):
    # R_0 and R_d are read off g, so neither reader gathers Cat_0 or Cat_d;
    # each converts g once, and d = 0 and d = 1 gather nothing
    for d in range(7):
        g = random_socle(random.Random(d), n, d)
        inner, every = (list(range(1, d)), [g]), (list(range(d + 1)), [g])
        assert _gathers(monkeypatch, quotient_bases, g) == inner
        if n > 1:  # a binary form ranks its middle catalecticant alone
            assert _gathers(monkeypatch, hilbert_function, g) == inner
        assert _gathers(monkeypatch, lambda g: list(catalecticants(g)), g) == every


def test_power_of_linear_form_has_rank_one():
    for n, d in [(1, 4), (2, 3), (2, 5), (3, 3)]:
        point = [1, 2, -1, 3][: n + 1]
        g = synth_power_sum([point], [1], d)
        for e in range(1, d):
            m = catalecticant(g, e)
            assert rank(m, len(m[0])) == 1


def test_hilbert_functions():
    assert hilbert_function(Socle.parse("y0^3+y1^3")) == (1, 2, 2, 1)
    assert hilbert_function(Socle.parse("y0^4", n=2)) == (1, 1, 1, 1, 1)
    g = random_socle(random.Random(40), 2, 4)
    assert hilbert_function(g) == (1, 3, 6, 3, 1)


def test_apolar_pieces():
    g = Socle.parse("y0^3+y1^3")
    assert apolar_piece(g, 2) == [[0, 1, 0]]  # x0*x1
    q = Socle.parse("y0^2+y1^2+y2^2")
    assert apolar_piece(q, 1) == []
    t = Socle.parse("y0^2*y1")
    assert apolar_piece(t, 2) == [[0, 0, 1]]  # x1^2
    for e in range(4):
        piece = apolar_piece(g, e)
        assert len(piece) == len(monomial_basis(1, e)) - hilbert_function(g)[e]


def test_apolar_ideal_dimensions():
    from soclekit.apolarity import ApolarIdeal

    g = Socle.parse("y0^3+y1^3+y2^3")
    ideal = ApolarIdeal.of(g)
    h = hilbert_function(g)
    for e in range(g.d + 1):
        assert len(ideal.pieces[e]) == len(monomial_basis(g.n, e)) - h[e]
    assert len(ideal.pieces[g.d]) == len(monomial_basis(g.n, g.d)) - 1


def test_annihilates():
    g = Socle.parse("y0^3+y1^3")
    assert annihilates({(1, 1): 1}, g)
    assert not annihilates({(2, 0): 1}, g)
    assert not annihilates({(0, 0): 1}, g)  # constants never kill a socle
    with pytest.raises(ValueError):
        annihilates({(1, 0): 1, (2, 0): 1}, g)  # inhomogeneous


def test_factors_through_ideal():
    g = Socle.parse("y0^4+y1^4", n=2)
    two_points = [{(0, 0, 1): 1}, {(1, 1, 0): 1}]  # ideal of (1:0:0), (0:1:0)
    assert factors_through_ideal(g, two_points)
    generic = random_socle(random.Random(41), 2, 4)
    assert not factors_through_ideal(generic, two_points)
    assert not factors_through_ideal(g, [{(0, 0, 0): 1}])  # unit ideal


def _factors_through_every_multiple(g, gens):
    """The former check: every monomial multiple of each generator, up to degree d."""
    for f in gens:
        nonzero = {m: Fraction(c) for m, c in f.items() if c}
        if not nonzero:
            continue
        e0 = sum(next(iter(nonzero)))
        for e in range(e0, g.d + 1):
            for mono in monomial_basis(g.n, e - e0):
                shifted = {tuple(map(add, mono, m)): c for m, c in nonzero.items()}
                if not annihilates(shifted, g):
                    return False
    return True


def test_generator_check_matches_every_multiple():
    rng = random.Random(43)
    seen = set()
    for _ in range(400):
        n, d = rng.choice([(1, 3), (1, 5), (2, 2), (2, 3), (2, 4), (3, 3)])
        g = random_socle(rng, n, d, -2, 2)
        if rng.random() < 0.5:
            # a socle killed by a linear form, so some generators do factor
            points = [[rng.randint(-1, 1) for _ in range(n)] + [0] for _ in range(2)]
            points = [p for p in points if any(p)]
            if points:
                g = synth_power_sum(points, [1, 2][: len(points)], d)
        gens = []
        for _ in range(rng.randint(1, 3)):
            basis = monomial_basis(n, rng.randint(0, d + 1))
            terms = rng.sample(basis, min(len(basis), rng.randint(1, 2)))
            gens.append({m: rng.randint(-2, 2) for m in terms})
        gens.append({(0,) * n + (1,): 1})  # x_n
        got = factors_through_ideal(g, gens)
        assert got == _factors_through_every_multiple(g, gens), (g, gens)
        seen.add(got)
    assert seen == {True, False}


def test_operator_monomials_need_n_plus_1_exponents():
    g = Socle.parse("y0^2+y1^2")
    with pytest.raises(ValueError, match="2 exponents"):
        contract((1,), g)
    with pytest.raises(ValueError, match="2 exponents"):
        contract((1, 0, 0), g)
    with pytest.raises(ValueError, match="2 exponents"):
        annihilates({(1,): 1}, g)
    with pytest.raises(ValueError, match="2 exponents"):
        factors_through_ideal(g, [{(1, 0, 0): 1}])
    assert contract((1, 0), g) == {(1, 0): 1}


def test_synth_power_sum():
    assert synth_power_sum([[1, 0], [0, 1]], [1, 1], 3) == Socle.parse("y0^3+y1^3")
    with pytest.raises(DegenerateInputError):
        synth_power_sum([{(2, 0): Fraction(1)}], [1], 3)  # nonlinear input
    with pytest.raises(DegenerateInputError):
        synth_power_sum([[1, 0], [1, 0]], [1, -1], 3)  # zero sum
    half = Fraction(1, 2)
    assert synth_power_sum([[1, 1], [1, -1]], [half, half], 2) == synth_power_sum(
        [[1, 0], [0, 1]], [1, 1], 2
    )


def _fraction_power_sum(points, weights, d):
    """The weighted sum of d-th powers, every product taken on Fractions."""
    total = {}
    for point, w in zip(points, weights):
        for mono in monomial_basis(len(point) - 1, d):
            c = Fraction(w)
            for v, e in zip(point, mono):
                c *= Fraction(v) ** e
            total[mono] = total.get(mono, Fraction(0)) + c
    return Socle(len(points[0]) - 1, d, total)


def test_synth_power_sum_matches_fraction_arithmetic():
    rng = random.Random(33)
    seen = set()
    for _ in range(300):
        n, d, m = rng.randint(1, 3), rng.randint(0, 8), rng.randint(1, 4)
        kind = rng.choice(("int", "frac", "mixed"))

        def entry(lo, hi):
            x = rng.randint(lo, hi)
            if kind == "frac" or (kind == "mixed" and rng.random() < 0.3):
                return Fraction(x, rng.randint(1, 6))
            return x

        points = [[entry(-20, 20) for _ in range(n)] + [entry(1, 3)] for _ in range(m)]
        weights = [entry(1, 5) * rng.choice((1, -1)) for _ in range(m)]
        try:
            want = _fraction_power_sum(points, weights, d)
        except DegenerateInputError:  # the powers cancelled
            with pytest.raises(DegenerateInputError):
                synth_power_sum(points, weights, d)
            continue
        seen.add(kind)
        got = synth_power_sum(points, weights, d)
        assert got == want and got.text() == want.text(), (points, weights, d)
        assert all(type(c) is Fraction for c in got.coeffs.values())
        units = [tuple(int(i == s) for i in range(n + 1)) for s in range(n + 1)]
        forms = [dict(zip(units, p)) for p in points]
        assert synth_power_sum(forms, weights, d) == want
    assert seen == {"int", "frac", "mixed"}


def test_synth_power_sum_admits_by_coefficient_count():
    d = MAX_POWER_SUM_ENTRIES // 2 - 1  # two points of P^1 fill 2 * (d + 1)
    g = synth_power_sum([[1, 0], [0, 1]], [1, 1], d)
    assert g.coeffs == {(d, 0): 1, (0, d): 1}
    with pytest.raises(EnvelopeError):
        synth_power_sum([[1, 0], [0, 1]], [1, 1], d + 1)
    with pytest.raises(EnvelopeError):
        synth_power_sum([[1] * 40], [1], 40)  # C(79, 39) coefficients
    # P^4412 at d = 1 fills only 4413 coefficients a point, but its basis
    # of 4413 monomials prices 4413 * (4412 + 121) > MAX_CATALECTICANT_WORK
    for m in (1, 2):
        start = time.perf_counter()
        with pytest.raises(EnvelopeError, match=r"a basis at \(n=4412, e=1\)"):
            synth_power_sum([[1] * 4413] * m, [1] * m, 1)
        assert time.perf_counter() - start < 0.05


def test_synth_power_sum_refuses_powers_too_long_to_print():
    limit = (10 ** sys.get_int_max_str_digits() - 1).bit_length()
    start = time.perf_counter()
    with pytest.raises(EnvelopeError, match="too long to print"):
        synth_power_sum([[102]], [1], 10**7)  # 102^(10^7) was computed, then not printed
    assert time.perf_counter() - start < 0.05
    # d times the largest numerator or denominator bit length is the bound
    for point, bits in (([2], 2), ([Fraction(1, 1024)], 11), ([Fraction(-1000, 3)], 10)):
        d = limit // bits
        assert synth_power_sum([point], [1], d).text()
        with pytest.raises(EnvelopeError, match="too long to print"):
            synth_power_sum([point], [1], d + 1)


def test_eigen_structure_of_powers():
    # f . v^d = f(v) * v^(d-e): the defining property of the power family
    v = [Fraction(2), Fraction(-1), Fraction(3)]
    g = synth_power_sum([v], [1], 4)
    f = {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(2)}
    value = v[0] * v[1] + 2 * v[2] ** 2
    lower = synth_power_sum([v], [1], 2)
    acc = {}
    for mono, c in f.items():
        for target, x in contract(mono, g).items():
            acc[target] = acc.get(target, Fraction(0)) + c * x
    acc = {m: c for m, c in acc.items() if c}
    assert acc == {m: value * c for m, c in lower.coeffs.items() if value * c}


def test_gorenstein_check():
    for text, n in [("y0^3+y1^3", None), ("y0^5", 1), ("y0*y1*y2", None)]:
        diag = gorenstein_check(Socle.parse(text, n=n))
        assert diag.all_ok
    diag = gorenstein_check(random_socle(random.Random(42), 3, 3))
    assert diag.all_ok and diag.hilbert_function == (1, 4, 4, 1)


def test_socle_dimension_is_ranked_not_read_from_h(monkeypatch):
    # hilbert_function reads h_d = 1 off g, so a fault in the Cat_d gather
    # shows only if gorenstein_diagnostics ranks Cat_d itself
    g = Socle.parse("y0^3 + y1^3 + y2^3")
    h, gather = hilbert_function(g), apolarity.catalecticants

    def zero_cat_d(g):
        cats = list(gather(g))
        cats[-1] = [[0] * len(cats[-1][0])]
        return iter(cats)

    assert apolarity.gorenstein_diagnostics(g, h).socle_dimension_ok
    monkeypatch.setattr(apolarity, "catalecticants", zero_cat_d)
    diag = apolarity.gorenstein_diagnostics(g, h)
    assert not diag.socle_dimension_ok and diag.hilbert_function == h == (1, 3, 3, 1)


def _corrupted_at(monkeypatch, k):
    """Make ``catalecticants`` add 1 to the last entry of the first row of
    Cat_k, which is off the diagonal of a square Cat_k."""
    gather = apolarity.catalecticants

    def corrupted(g, degrees=None):
        cats = list(gather(g, degrees))
        cats[k][0][-1] += 1
        return iter(cats)

    monkeypatch.setattr(apolarity, "catalecticants", corrupted)


@pytest.mark.parametrize("d", [4, 5])
def test_every_dual_pair_of_catalecticants_is_compared(monkeypatch, d):
    # Cat_e is compared with the transpose of Cat_(d-e) for e <= d/2 only,
    # so a fault on either side of the middle, or in it, must still show
    g = random_socle(random.Random(d), 2, d)
    h = hilbert_function(g)
    assert apolarity.gorenstein_diagnostics(g, h).all_ok
    for k in sorted({0, 1, d // 2, d - d // 2, d - 1, d}):
        with monkeypatch.context() as m:
            _corrupted_at(m, k)
            diag = apolarity.gorenstein_diagnostics(g, h)
        assert not diag.catalecticant_transpose_ok, k
        assert diag.palindromic and diag.hilbert_function == h


@pytest.mark.parametrize("d", [4, 5])
def test_a_hilbert_function_off_its_palindrome_is_caught(d):
    g = random_socle(random.Random(d), 2, d)
    h = hilbert_function(g)
    for e in range(d + 1):
        bad = h[:e] + (h[e] + 1,) + h[e + 1 :]
        diag = apolarity.gorenstein_diagnostics(g, bad)
        # the middle of an even degree is its own partner
        assert diag.palindromic == (2 * e == d), e
        assert diag.catalecticant_transpose_ok and diag.hilbert_function == bad


def test_palindromy_battery():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        d = rng.choice((2, 3, 4))
        g = random_socle(rng, n, d)
        h = hilbert_function(g)
        assert h[0] == h[d] == 1
        # hilbert_function reads h_0 and h_d off g; rank Cat_0 and Cat_d here
        ends = catalecticant(g, 0), catalecticant(g, d)
        assert rank(ends[0], 1) == rank(ends[1], len(ends[1][0])) == 1
        assert all(h[e] == h[d - e] for e in range(d + 1))
        assert h[1] <= n + 1
        for e in range(d + 1):
            assert h[e] <= min(len(monomial_basis(n, e)), len(monomial_basis(n, d - e)))
            m = catalecticant(g, e)
            assert [list(col) for col in zip(*m)] == catalecticant(g, d - e)


def test_trapezoid_law():
    rng = random.Random(11)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3)]
    for d in range(3, 8):
        for count in range(1, (d + 1) // 2 + 1):
            pts = rng.sample(pool, count)
            g = synth_power_sum([list(p) for p in pts], [1] * count, d)
            expected = tuple(min(e + 1, d - e + 1, count) for e in range(d + 1))
            assert hilbert_function(g) == expected


def test_point_ideal_containment():
    # power sums always factor through the ideal of their points; for
    # {(1:0), (0:1), (1:2)} that ideal is generated by the product
    # x1 * x0 * (2 x0 - x1) of the linear operators vanishing at them
    g = synth_power_sum([[1, 0], [0, 1], [1, 2]], [1, 3, -2], 7)
    product = {(2, 1): Fraction(2), (1, 2): Fraction(-1)}
    assert factors_through_ideal(g, [product])


def test_zero_socle_rejected():
    with pytest.raises(DegenerateInputError):
        Socle(1, 2, {(2, 0): 0})
    with pytest.raises(DegenerateInputError):
        Socle.parse("y0 - y0")


def test_parse_refuses_n_above_the_variable_index_bound():
    assert Socle.parse("y0^2", n=MAX_VARIABLE_INDEX).n == MAX_VARIABLE_INDEX
    start = time.perf_counter()
    with pytest.raises(EnvelopeError, match="above the maximum variable index"):
        Socle.parse("y0^2", n=30_000_000)  # padding each monomial is linear in n
    assert time.perf_counter() - start < 0.05
    with pytest.raises(EnvelopeError):
        Socle.parse("y0^2", n=MAX_VARIABLE_INDEX + 1)


# ---------------------------------------------------------------------------
# text grammar


def test_parse_round_trip():
    for text in ["y0^3 + y1^3", "1/2*y0^2*y1", "y0^2 - 3*y1^2 + y0*y1"]:
        g = Socle.parse(text)
        assert Socle.parse(g.text()) == g


def test_parse_coefficients_and_whitespace():
    g = Socle.parse("  1/2 * y0 ^2* y1+ y2^3 - y0*y1*y2 ", n=2)
    assert g.coeff((2, 1, 0)) == Fraction(1, 2)
    assert g.coeff((0, 0, 3)) == 1
    assert g.coeff((1, 1, 1)) == -1


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_form("y0^2 + @", var="y")
    assert exc.value.column == 8
    with pytest.raises(ParseError):
        parse_form("y0 y1", var="y")
    with pytest.raises(ParseError):
        parse_form("y0 +", var="y")
    with pytest.raises(ParseError) as exc:  # a '*' that ends the text
        parse_form("y0^2 + 3*", var="y")
    assert exc.value.column == 9
    with pytest.raises(ParseError):
        parse_form("3/0", var="y")
    with pytest.raises(ParseError):
        parse_form("x0 + y0", var="y")
    with pytest.raises(ParseError) as exc:  # past CPython's int_max_str_digits
        parse_form("y0^2 + y1^" + "7" * 5000, var="y")
    assert (exc.value.line, exc.value.column) == (1, 11)


# Pieces of the grammar, good and bad; "v" stands for the parsed variable
# and "w" for another letter.  Unicode digits are digits to the grammar.
PARSE_FRAGMENTS = [
    "v0", "v1", "v2", "v12", "v1001", "w0", "v", "0", "1", "2", "7", "12", "٣", "१२",
    "+", "-", "*", "/", "^", "+", "-", "*", "^2", "/3", "/0", "^0",
    " ", "  ", "\n", "\t", " \n ", "@", "Y", "z",
]
LONG_LITERAL = "7" * 5000  # past CPython's default int_max_str_digits


def random_token_string(rng, var):
    other = "x" if var == "y" else "y"
    parts = [rng.choice(PARSE_FRAGMENTS) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.01:
        parts.insert(rng.randint(0, len(parts)), LONG_LITERAL)
    return "".join(parts).replace("v", var).replace("w", other)


def grammar_polynomial(rng, var):
    """A form generated from the grammar; about a third get a one-fragment
    edit, and a few a 5,000-digit literal."""

    def ws():
        return rng.choice(["", "", "", " ", "\n", " \n ", "\t"])

    def number():
        return rng.choice(["0", "1", "2", "3", "10", "٣", "१२", str(rng.randint(0, 10**6))])

    terms = []
    for k in range(rng.randint(1, 3)):
        factors = []
        if rng.random() < 0.6:
            factors.append(number() + (ws() + "/" + ws() + number() if rng.random() < 0.4 else ""))
        for _ in range(rng.randint(0 if factors else 1, 2)):
            index = rng.randint(990, 1010) if rng.random() < 0.02 else rng.randint(0, 3)
            factors.append(f"{var}{index}" + (ws() + "^" + ws() + number() if rng.random() < 0.5 else ""))
        rng.shuffle(factors)
        sign = rng.choice(["", "-", "+", "--", "+-"] if k == 0 else ["+", "-", "- -"])
        terms.append(sign + ws() + (ws() + "*" + ws()).join(factors))
    text = ws() + ws().join(terms) + ws()
    if rng.random() < 0.3:
        at = rng.randint(0, len(text))
        edit = random_token_string(rng, var)[:3]
        text = text[:at] + edit + text[at + rng.randint(0, 1) :]
    if rng.random() < 0.005:
        at = rng.randint(0, len(text))
        text = text[:at] + LONG_LITERAL + text[at:]
    return text


def parse_outcome(parse, text, var):
    """The result of parse, or its exception's type, message, line and column."""
    try:
        coeffs, max_index = parse(text, var=var)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return list(coeffs.items()), max_index


def test_parse_form_matches_the_token_index_oracle():
    rng = random.Random(23)
    fixed = [
        "y0^2\n + @",
        "y0^2 +\n\n y1^" + LONG_LITERAL,
        LONG_LITERAL + "*y0",
        "y" + LONG_LITERAL,
        "y1001 + y0",
        "y0*y1000 - y1000*y0",
        "٣/١٢*y٣^٢",
        "",
        " \n ",
    ]
    inputs = [(text, "y") for text in fixed]
    inputs += [(random_token_string(rng, var), var) for var in "yx" for _ in range(50_000)]
    inputs += [(grammar_polynomial(rng, var), var) for var in "yx" for _ in range(25_000)]
    parsed, messages = 0, set()
    for text, var in inputs:
        expected = parse_outcome(parse_oracle.parse_form, text, var)
        assert parse_outcome(parse_form, text, var) == expected, (text, var)
        if len(expected) == 2:
            parsed += 1
        else:
            messages.add(expected[1])
    # the inputs reach every way out of the parser, on later lines too
    assert parsed > 10_000
    for prefix in [
        "unexpected character",
        "unknown variable",
        "empty polynomial",
        "dangling sign",
        "unexpected '",
        "expected '+' or '-' between terms",
        "expected a coefficient or variable",
        "expected denominator",
        "expected exponent",
        "zero denominator",
        "integer literal of",
        "variable index",
    ]:
        assert any(message.startswith(prefix) for message in messages), prefix
    assert any("(line 3, " in message for message in messages)


def test_format_is_canonical():
    coeffs, _ = parse_form("y1^2 + y0^2 - y0*y1", var="y")
    assert format_form(coeffs) == "y0^2 - y0*y1 + y1^2"
    assert format_form({(0, 0): Fraction(-3, 2)}) == "-3/2"
