import gc
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import gather_oracle
from soclekit import linalg
from soclekit.apolarity import (
    MAX_CATALECTICANT_ENTRIES,
    MAX_POWER_SUM_ENTRIES,
    ApolarIdeal,
    Socle,
    annihilates,
    apolar_piece,
    catalecticant,
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
from soclekit.linalg import Matrix, monomial_basis, monomial_mul, rank


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
    assert m.rows == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rows
    assert rank(m) == 3


def test_catalecticant_shape_and_rank():
    g = Socle.parse("y0^3+y1^3")
    m = catalecticant(g, 1)
    assert (m.nrows, m.ncols) == (3, 2)
    # extraction oracle: entry = coefficient of row * col monomial
    rows = monomial_basis(1, 2)
    cols = monomial_basis(1, 1)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert m.entry(i, j) == g.coeff(monomial_mul(r, c))
    assert rank(m) == 2
    with pytest.raises(ValueError):
        catalecticant(g, 5)


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
                Socle(n, d, {m: Fraction(rng.choice([-3, 1, 2]), rng.choice([1, 5])) for m in terms}),
            ):
                c, want = integer_coeffs(g), gather_oracle.integer_coeff_map(g)
                assert c == [want.get(m, 0) for m in basis]
                for e in range(d + 1):
                    assert int_catalecticant(c, n, d, e) == gather_oracle.int_catalecticant(
                        want, n, d, e
                    ), (g, e)


def test_out_of_envelope_hilbert_function_keeps_little_memory():
    # Cat_5 here is 252 x 252; no shape table that size may outlive the call
    g = Socle.parse("y0^2*y1^2*y2^2*y3^2*y4*y5")
    for table in (
        linalg._basis,
        linalg.monomial_index,
        linalg.catalecticant_table,
        linalg.lift_table,
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
    assert h == (1, 6, 19, 40, 61, 70, 61, 40, 19, 6, 1)
    assert kept < 0.5 * 2**20


@pytest.mark.parametrize(
    "call",
    [
        hilbert_function,
        gorenstein_check,
        ApolarIdeal.of,
        lambda g: apolar_piece(g, 7),
        lambda g: catalecticant(g, 7),
    ],
    ids=[
        "hilbert_function", "gorenstein_check", "ApolarIdeal.of", "apolar_piece", "catalecticant"
    ],
)
def test_oversized_catalecticants_are_refused_before_any_work(call):
    # Cat_7 of a (6, 14) socle is 1716 x 1716; ranking this sparse one took 7.9 s
    g = Socle.parse("y0^14 + y6^14 + y1^7*y2^7 + y3^5*y4^5*y5^4")
    start = time.perf_counter()
    with pytest.raises(EnvelopeError, match=f"beyond {MAX_CATALECTICANT_ENTRIES} entries"):
        call(g)
    assert time.perf_counter() - start < 0.05


def test_power_of_linear_form_has_rank_one():
    for n, d in [(1, 4), (2, 3), (2, 5), (3, 3)]:
        point = [1, 2, -1, 3][: n + 1]
        g = synth_power_sum([point], [1], d)
        for e in range(1, d):
            assert rank(catalecticant(g, e)) == 1


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
                shifted = {monomial_mul(mono, m): c for m, c in nonzero.items()}
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


def test_palindromy_battery():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        d = rng.choice((2, 3, 4))
        g = random_socle(rng, n, d)
        h = hilbert_function(g)
        assert h[0] == h[d] == 1
        assert all(h[e] == h[d - e] for e in range(d + 1))
        assert h[1] <= n + 1
        for e in range(d + 1):
            assert h[e] <= min(len(monomial_basis(n, e)), len(monomial_basis(n, d - e)))
            m = catalecticant(g, e)
            assert m.transpose().rows == catalecticant(g, d - e).rows


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


def test_format_is_canonical():
    coeffs, _ = parse_form("y1^2 + y0^2 - y0*y1", var="y")
    assert format_form(coeffs) == "y0^2 - y0*y1 + y1^2"
    assert format_form({(0, 0): Fraction(-3, 2)}) == "-3/2"
