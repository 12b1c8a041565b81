import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import charge_oracle
from charge_oracle import poly_eval
from soclekit.apolarity import random_socle, synth_power_sum
from soclekit.charge import (
    ChargePoint,
    TwistComplex,
    anti_slope,
    beilinson_dims,
    charge,
    chern_p2,
    compare_arg,
    cone_charge,
    discriminant,
    dual_class,
    hilb_poly,
)
from soclekit.resolution import koszul_betti

HALF = Fraction(-1, 2)


def signed_binomial(a: int, n: int) -> int:
    """C(a, n) for any integer a, via reflection for negative a."""
    if a >= 0:
        return comb(a, n) if a >= n else 0
    return (-1) ** n * comb(n - 1 - a, n)


def hilb_oracle(c: TwistComplex, t: int) -> Fraction:
    """Integer-point evaluation from the raw binomial formula."""
    total = 0
    for i, j, b in c.terms:
        total += (-1) ** i * b * signed_binomial(c.n + t - j, c.n)
    return Fraction(total)


def interpolated_derivative(c: TwistComplex, s: Fraction) -> Fraction:
    """Derivative at s of the Lagrange interpolant through integer points."""
    n = c.n
    points = list(range(-n, 1))
    values = [hilb_oracle(c, t) for t in points]

    def basis_derivative(k):
        total = Fraction(0)
        xk = points[k]
        for m in range(len(points)):
            if m == k:
                continue
            prod = Fraction(1, xk - points[m])
            for l in range(len(points)):
                if l in (k, m):
                    continue
                prod *= Fraction(s - points[l], xk - points[l])
            total += prod
        return total

    return sum(values[k] * basis_derivative(k) for k in range(len(points)))


def test_hilb_poly_examples():
    assert hilb_poly(TwistComplex.line_bundle(2, 0)) == (1, Fraction(3, 2), Fraction(1, 2))
    # omega(-1)[2] on the plane: (t-2)(t-3)/2
    assert hilb_poly(TwistComplex.canonical_twist(2, 1)) == (
        3,
        Fraction(-5, 2),
        Fraction(1, 2),
    )
    balanced = TwistComplex(2, ((1, 2, 5), (0, 1, 5)))
    assert hilb_poly(balanced) == (0, 5, 0)


def test_hilb_poly_matches_integer_point_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        terms = tuple(
            (rng.randint(0, n), rng.randint(-3, 5), rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))
        )
        c = TwistComplex(n, terms)
        p = hilb_poly(c)
        for t in range(-4, 5):
            assert poly_eval(p, t) == hilb_oracle(c, t)
            assert poly_eval(p, t).denominator == 1


def _random_class(rng: random.Random) -> TwistComplex:
    n = rng.randint(0, 3)
    return TwistComplex(
        n,
        tuple(
            (rng.randint(0, n + 1), rng.randint(-6, 6), rng.choice((1, rng.randint(1, 10**6))))
            for _ in range(rng.randint(1, 6))
        ),
    )


def test_charge_oracle_gen_binomial_values():
    gen_binomial = charge_oracle.gen_binomial
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(-2, 2) == 3  # (-2)(-3)/2
    assert all(gen_binomial(a, n) == signed_binomial(a, n) for a in range(-6, 7) for n in range(5))
    # direct product oracle for the fractional case
    a = Fraction(-1, 2)
    assert gen_binomial(a, 2) == a * (a - 1) / 2 == Fraction(3, 8)
    assert gen_binomial(a, 0) == 1
    with pytest.raises(ValueError):
        gen_binomial(1, -1)


def test_integer_charges_match_the_fraction_oracle():
    rng = random.Random(21)
    for _ in range(300):
        c = _random_class(rng)
        points = [Fraction(0), HALF] + [
            Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(3)
        ]
        assert hilb_poly(c) == charge_oracle.hilb_poly(c)
        for s in points:
            assert charge(c, s) == charge_oracle.charge(c, s)
        assert beilinson_dims(c) == charge_oracle.beilinson_dims(c)
        for t in range(-4, 5):
            assert poly_eval(hilb_poly(c), t) == hilb_oracle(c, t)


def test_charge_reference_values():
    for n in (1, 2, 3):
        z = charge(TwistComplex.line_bundle(n, 0), 0)
        assert z == (sum(Fraction(1, i) for i in range(1, n + 1)), 1)
    cases = [
        (1, 0, 0, (1, Fraction(1, 2))),
        (1, -1, 1, (-1, Fraction(1, 2))),
        (2, 0, 0, (1, Fraction(3, 8))),
        (2, -1, 1, (0, Fraction(1, 8))),
        (2, -2, 2, (-1, Fraction(3, 8))),
        (3, 0, 0, (Fraction(23, 24), Fraction(5, 16))),
        (3, -1, 1, (Fraction(1, 24), Fraction(1, 16))),
    ]
    for n, e, shift, expected in cases:
        assert charge(TwistComplex.line_bundle(n, e).shift(shift), HALF) == expected
    for n in (1, 2, 3):
        assert charge(TwistComplex.point(n), HALF) == (0, 1)
        assert charge(TwistComplex.point(n), 0) == (0, 1)


def test_charge_derivative_against_interpolation_oracle():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(1, 3)
        c = TwistComplex(n, ((0, rng.randint(-3, 3), rng.randint(1, 3)),))
        for s in (Fraction(0), HALF, Fraction(1, 3)):
            z = charge(c, s)
            assert z.x == interpolated_derivative(c, s)


def test_compare_arg():
    assert compare_arg(ChargePoint(Fraction(-1), Fraction(0)), ChargePoint(Fraction(0), Fraction(1))) == 1
    assert compare_arg(ChargePoint(Fraction(0), Fraction(1)), ChargePoint(Fraction(1), Fraction(1))) == 1
    assert compare_arg(ChargePoint(Fraction(5, 2), Fraction(1)), ChargePoint(Fraction(3, 2), Fraction(1))) == -1
    assert compare_arg(ChargePoint(Fraction(2), Fraction(2)), ChargePoint(Fraction(1), Fraction(1))) == 0
    with pytest.raises(ValueError):
        compare_arg(ChargePoint(Fraction(0), Fraction(0)), ChargePoint(Fraction(1), Fraction(1)))


@given(
    st.tuples(
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
    ).filter(lambda p: p != (0, 0)),
    st.tuples(
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
    ).filter(lambda p: p != (0, 0)),
)
def test_compare_arg_antisymmetric(p, q):
    a = ChargePoint(*p)
    b = ChargePoint(*q)
    assert compare_arg(a, b) == -compare_arg(b, a)


def test_dual_class_reflection_law():
    for n in (1, 2, 3):
        for e in range(5):
            c = TwistComplex.line_bundle(n, e)
            x, y = charge(c, 0)
            assert charge(dual_class(c), 0) == (-x, y)
            assert dual_class(c).terms == TwistComplex.canonical_twist(n, e).terms


def test_dual_is_an_involution_and_balanced_class_negates():
    balanced = TwistComplex(2, ((1, 2, 5), (0, 1, 5)))
    assert charge(dual_class(balanced), 0) == (-5, 0)
    assert sorted(dual_class(dual_class(balanced)).terms) == sorted(balanced.terms)


@given(
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-3, max_value=4),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_dual_charge_identity_generic(n, terms):
    c = TwistComplex(n, tuple(terms))
    x, y = charge(c, 0)
    assert charge(dual_class(c), 0) == (-x, y)
    # the dual polynomial is P(-t)
    p = hilb_poly(c)
    q = hilb_poly(dual_class(c))
    for t in range(-3, 4):
        assert poly_eval(q, t) == poly_eval(p, -t)


def test_mirror_symmetry_at_minus_half():
    for n in (1, 2, 3):
        for e in range(4):
            left = charge(TwistComplex.line_bundle(n, e), HALF)
            mirrored = dual_class(TwistComplex.line_bundle(n, e - 1))
            right = charge(mirrored, HALF)
            assert right == (-left.x, left.y)


def test_charge_additivity_and_shift():
    a = TwistComplex.line_bundle(2, 1)
    b = TwistComplex.point(2)
    za, zb = charge(a, 0), charge(b, 0)
    assert charge(a + b, 0) == (za.x + zb.x, za.y + zb.y)
    assert charge(a.shift(1), 0) == (-za.x, -za.y)
    assert charge(a.scale(3), 0) == (3 * za.x, 3 * za.y)


# ---------------------------------------------------------------------------
# beilinson coefficients


def test_beilinson_reference_values():
    assert beilinson_dims(TwistComplex.line_bundle(2, 1)) == (3, 3, 1)
    assert beilinson_dims(TwistComplex.canonical_twist(2, 1)) == (3, 8, 6)
    assert beilinson_dims(TwistComplex.point(2)) == (1, 2, 1)


def test_beilinson_endpoints_formulae():
    for n in (1, 2, 3):
        for e in range(5):
            dims = beilinson_dims(TwistComplex.line_bundle(n, e))
            assert dims[0] == comb(n + e, n)
            assert dims[n] == comb(n + e - 1, n)
            dual_dims = beilinson_dims(TwistComplex.canonical_twist(n, e))
            assert dual_dims[0] == comb(n + e, n)
            assert dual_dims[n] == comb(n + e + 1, n)


def test_beilinson_reconstructs_the_class():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(1, 3)
        c = TwistComplex(
            n,
            tuple(
                (rng.randint(0, n), rng.randint(-2, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ),
        )
        dims = beilinson_dims(c)
        p = hilb_poly(c)
        for t in range(-n, 1):
            acc = sum(
                (-1) ** i * dims[i] * signed_binomial(n + t - i, n)
                for i in range(n + 1)
            )
            assert acc == poly_eval(p, t)


def test_beilinson_integral_on_resolution_classes():
    rng = random.Random(15)
    for n, d in [(1, 3), (2, 3), (2, 4), (3, 3)]:
        g = random_socle(rng, n, d)
        t = koszul_betti(g)
        interior = TwistComplex(
            n, tuple((i, j, b) for i, j, b in t.entries if 1 <= i <= n)
        )
        for v in beilinson_dims(interior.twist((d + 1) // 2)):
            assert v.denominator == 1


# ---------------------------------------------------------------------------
# cone charges, chern data, anti-slopes


def test_cone_charge_reference():
    q = synth_power_sum([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [1, 1, 1], 2)
    assert cone_charge(koszul_betti(q), 1, 0) == (5, 0)
    assert 2 * charge(TwistComplex.line_bundle(2, 1), 0).x == 5


def test_cone_charge_even_socles():
    rng = random.Random(16)
    for n, d in [(1, 2), (1, 4), (2, 2), (2, 4)]:
        e = d // 2
        target = 2 * charge(TwistComplex.line_bundle(n, e), 0).x
        for _ in range(5):
            g = random_socle(rng, n, d)
            z = cone_charge(koszul_betti(g), e, 0)
            assert z == (target, 0)


def test_chern_extraction():
    assert chern_p2(TwistComplex.line_bundle(2, 1)) == (1, 1, Fraction(1, 2))
    ip1 = TwistComplex.ideal_of_points(2, 1, 1)
    assert chern_p2(ip1) == (1, 1, Fraction(-1, 2))
    balanced = TwistComplex(2, ((1, 2, 5), (0, 1, 5)))
    assert chern_p2(balanced) == (0, 5, Fraction(-15, 2))
    with pytest.raises(ValueError):
        chern_p2(TwistComplex.line_bundle(3, 1))


def test_chern_identities():
    rng = random.Random(17)
    for _ in range(25):
        c = TwistComplex(
            2,
            tuple(
                (rng.randint(0, 2), rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ),
        )
        ch = chern_p2(c)
        x, y = charge(c, 0)
        assert x == Fraction(3, 2) * ch.ch0 + ch.ch1
        assert y == ch.ch0 + Fraction(3, 2) * ch.ch1 + ch.ch2
        assert (2 * ch.ch2).denominator == 1
        assert (ch.ch2 - Fraction(ch.ch1**2, 2)).denominator == 1


def test_discriminant():
    assert discriminant(chern_p2(TwistComplex.line_bundle(2, 1))) == 0
    assert discriminant(chern_p2(TwistComplex.ideal_of_points(2, 1, 1))) == 2
    from soclekit.charge import ChernP2

    assert discriminant(ChernP2(2, -1, Fraction(-1, 2))) == 3


def test_anti_slope():
    assert anti_slope(2, 0) == Fraction(3, 2)
    assert anti_slope(2, HALF) == Fraction(8, 3)
    for n in (1, 2, 3, 4):
        values = [anti_slope(n, Fraction(-k) + HALF) for k in range(n, -1, -1)]
        assert values == sorted(values)
    with pytest.raises(ValueError):
        anti_slope(2, -1)
