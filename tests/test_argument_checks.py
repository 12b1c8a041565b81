"""Argument checks of the public API that no other test reaches: each
raises its own exception and message, or returns its documented value."""

from fractions import Fraction
from typing import NamedTuple

import pytest

from soclekit.apolarity import Socle, annihilates, format_form, synth_power_sum
from soclekit.charge import ChargePoint, TwistComplex, compare_arg, cone_charge
from soclekit.errors import DegenerateInputError
from soclekit.exceptional import semistable_exists
from soclekit.linalg import monomial_basis
from soclekit.resolution import BettiTable
from soclekit.strata import (
    DiagramNode,
    _rule_red,
    binary_apolar_pair,
    binary_waring,
    classify_by,
    diagram_rule_status,
)

BINARY = Socle.parse("y0^2 + y1^2")
TERNARY = Socle.parse("y0^2 + y1^2 + y2^2")
# a candidate above the structure sheaf ray of (2, 2), but with a value no
# semistable sheaf of any rank reaches
HIGH = DiagramNode("high", ChargePoint(Fraction(1, 3), Fraction(5)), "black", None, "candidate")


class Raises(NamedTuple):
    kind: type
    message: str


CASES = {
    "socle-negative-n": (
        lambda: Socle(-1, 2, {}),
        Raises(ValueError, "n and d must be non-negative"),
    ),
    "socle-wrong-degree": (
        lambda: Socle(1, 2, {(1, 0): 1}),
        Raises(ValueError, "monomial (1, 0) is not degree 2 in 2 variables"),
    ),
    "scaled-by-zero": (
        lambda: BINARY.scaled(0),
        Raises(DegenerateInputError, "cannot scale a socle by zero"),
    ),
    "annihilates-zero-operator": (lambda: annihilates({(1, 0): 0}, BINARY), True),
    "annihilates-degree-above-d": (
        lambda: annihilates({(3, 0): 1}, BINARY),
        Raises(ValueError, "operator degree exceeds socle degree"),
    ),
    "power-sum-zero-mapping": (
        lambda: synth_power_sum([{(1, 0): 0}], [1], 2),
        Raises(DegenerateInputError, "zero linear form"),
    ),
    "power-sum-zero-weight": (
        lambda: synth_power_sum([[1, 2]], [0], 2),
        Raises(DegenerateInputError, "zero weight"),
    ),
    "format-zero-form": (lambda: format_form({}), "0"),
    "twist-sum-across-dimensions": (
        lambda: TwistComplex.point(1) + TwistComplex.point(2),
        Raises(ValueError, "ambient dimensions differ"),
    ),
    "twist-scale-zero": (
        lambda: TwistComplex.point(1).scale(0),
        Raises(ValueError, "scale factor must be positive"),
    ),
    "compare-on-positive-ray": (
        lambda: compare_arg(ChargePoint(Fraction(1), Fraction(0)), ChargePoint(Fraction(3), Fraction(0))),
        0,
    ),
    "cone-charge-bad-corner": (
        lambda: cone_charge(BettiTable(1, 2, ((0, 0, 2),)), 1, 0),
        Raises(ValueError, "malformed table: b[0, 0] must be 1"),
    ),
    "cone-charge-no-interior": (
        lambda: cone_charge(BettiTable(1, 2, ((0, 0, 1),)), 1, 0),
        Raises(ValueError, "table has no interior columns"),
    ),
    "semistable-rank-zero": (
        lambda: semistable_exists(0, 1, Fraction(0)),
        Raises(ValueError, "rank must be positive"),
    ),
    "basis-negative-n": (
        lambda: monomial_basis(-1, 2),
        Raises(ValueError, "invalid basis request (n=-1, e=2)"),
    ),
    "apolar-pair-not-binary": (
        lambda: binary_apolar_pair(TERNARY),
        Raises(ValueError, "apolar pairs are a binary-form computation"),
    ),
    "waring-not-binary": (
        lambda: binary_waring(TERNARY),
        Raises(ValueError, "Waring reports are a binary-form computation"),
    ),
    "classify-unmatched-hf": (lambda: classify_by(TERNARY, (1, 9, 1), lambda: None), None),
    "diagram-rule-2-status": (lambda: diagram_rule_status(HIGH, 2, 2), "red"),
    "diagram-rule-2-reason": (
        lambda: _rule_red(HIGH.point, 2, Fraction(0)),
        (True, "value above every rank's semistable maximum: torsion sheaves only"),
    ),
}


@pytest.mark.parametrize("call, want", CASES.values(), ids=CASES.keys())
def test_argument_check(call, want):
    if isinstance(want, Raises):
        with pytest.raises(want.kind) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == want
    else:
        assert call() == want
