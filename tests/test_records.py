"""The result records are NamedTuples: their reprs are the ones the package
has always printed, and TwistComplex checks its multiplicities however it
is built."""

import pytest

from soclekit.apolarity import Socle, gorenstein_check, synth_power_sum
from soclekit.charge import TwistComplex
from soclekit.resolution import BettiTable, koszul_betti
from soclekit.strata import binary_waring, catalog


def test_reprs_name_every_field():
    assert repr(koszul_betti(Socle.parse("y0^2 + y1^2"))) == (
        "BettiTable(n=1, d=2, entries=((0, 0, 1), (1, 2, 2), (2, 4, 1)))"
    )
    assert repr(gorenstein_check(Socle.parse("y0^3 + y1^3 + y2^3"))) == (
        "GorensteinDiagnostics(socle_dimension_ok=True, palindromic=True, "
        "catalecticant_transpose_ok=True, hilbert_function=(1, 3, 3, 1))"
    )
    assert repr(TwistComplex.ideal_of_points(2, 3, 1)) == (
        "TwistComplex(n=2, terms=((0, -1, 1), (1, 0, 3), (2, 1, 6), (3, 2, 3)))"
    )
    assert repr(catalog(1, 3)[0]) == (
        "CatalogEntry(label='binary-span-a1', n=1, d=3, hilbert_function=(1, 1, 1, 1), "
        "kernel_object='O(1)', chain='O(2) -> O_Z(2) -> omega(-1)[1], len Z = 1', "
        "dimension=1, charge_node=ChargePoint(x=Fraction(1, 1), y=Fraction(3, 2)), "
        "status='black', reason=None, betti_fingerprint=None, witness_ideal=None)"
    )


def test_waring_reports_of_every_kind():
    g = synth_power_sum([[1, 2], [3, -1], [2, 5]], [1, -2, 3], 7)
    assert repr(binary_waring(g)) == (
        "WaringReport(kind='points', apolar_degree=3, apolar_form={(3, 0): Fraction(10, 1), "
        "(2, 1): Fraction(21, 1), (1, 2): Fraction(-25, 1), (0, 3): Fraction(6, 1)}, "
        "points=((1, 2), (2, 5), (-3, 1)), weights=(Fraction(1, 1), Fraction(3, 1), "
        "Fraction(2, 1)), partition=(), note='')"
    )
    assert repr(binary_waring(Socle.parse("y0^2*y1"))) == (
        "WaringReport(kind='tangential', apolar_degree=2, apolar_form={(0, 2): Fraction(1, 1)}, "
        "points=((1, 0),), weights=(), partition=(2,), "
        "note='apolar generator is not squarefree: span of a non-reduced scheme')"
    )
    assert repr(binary_waring(Socle.parse("y0^2*y1^2"))) == (
        "WaringReport(kind='nonunique', apolar_degree=3, apolar_form={(3, 0): Fraction(1, 1)}, "
        "points=(), weights=(), partition=(), "
        "note='2(a-1) = 4 reaches d = 4: decomposition not unique')"
    )
    assert repr(binary_waring(Socle.parse("2*y0^3 + 4*y0*y1^2"))) == (
        "WaringReport(kind='irrational', apolar_degree=2, "
        "apolar_form={(2, 0): Fraction(2, 1), (0, 2): Fraction(-1, 1)}, "
        "points=(), weights=(), partition=(), "
        "note='squarefree apolar generator with irrational roots')"
    )


def test_records_are_tuples_of_their_fields():
    table = BettiTable(1, 2, ((0, 0, 1), (1, 2, 2), (2, 4, 1)))
    n, d, entries = table
    assert table == (n, d, entries) and len(table) == 3 and table[2] is entries
    assert table._replace(d=3) == BettiTable(1, 3, entries)


def test_multiplicities_are_checked_on_every_construction_path():
    # the inherited _replace and _make of a NamedTuple skip __new__
    c = TwistComplex.line_bundle(2, 0)
    for build in (
        lambda: TwistComplex(2, ((0, 0, 0),)),
        lambda: c._replace(terms=((0, 0, 0),)),
        lambda: TwistComplex._make((2, ((0, 0, -1),))),
    ):
        with pytest.raises(ValueError, match="^multiplicities must be positive$"):
            build()
    assert c._replace(n=3) == TwistComplex._make((3, ((0, 0, 1),)))
    assert type(c._replace(n=3)) is TwistComplex
