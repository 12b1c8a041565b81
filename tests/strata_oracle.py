"""The hand-written plane catalogs, witnesses and charge diagrams, kept as
the oracle for the class table in ``soclekit.strata``.

These are the catalog builders, ``witness_socles`` and ``zdiagram`` as they
stood when every plane entry and diagram candidate spelled out its own
K-class and ``witness_socles`` listed each degree's points by hand,
unchanged but for their imports and a registry of their own.  Every shape
must give the same catalog repr, the same witnesses (labels, order and
coefficient order) and the same diagram JSON from both.  It is not part of
the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable

from soclekit.apolarity import Socle, binary_hilbert_function, synth_power_sum
from soclekit.charge import ChargePoint, TwistComplex, charge
from soclekit.errors import EnvelopeError
from soclekit.strata import (
    _FACTORIZATION_NOTES,
    CatalogEntry,
    DiagramNode,
    _rule_red,
    parity_point,
)


def _Z(d: int, cls: TwistComplex) -> ChargePoint:
    return charge(cls, parity_point(d))


def _O(n: int, e: int) -> TwistComplex:
    return TwistComplex.line_bundle(n, e)


def _I(n: int, count: int, twist: int) -> TwistComplex:
    return TwistComplex.ideal_of_points(n, count, twist)


def _cone_class(n: int, e: int) -> TwistComplex:
    """[O(e)] - [omega(-e)[n]] (the even-case cone)."""
    omega = TwistComplex.canonical_twist(n, e)
    return _O(n, e) + omega.shift(1)


def _binary_entries(d: int) -> list[CatalogEntry]:
    entries = []
    top = d // 2 + 1
    for a in range(1, top + 1):
        e = (d + 1) // 2
        if d % 2 == 0 and a == top:
            kernel_object, node = "none (semistable)", _Z(d, _cone_class(1, d // 2))
            chain = f"O({d // 2}) -> omega({-d // 2})[1] injective"
        else:
            kernel_object = f"O({e - a})"
            node = _Z(d, _O(1, e - a))
            chain = f"O({e}) -> O_Z({e}) -> omega({1 - e if d % 2 else -e})[1], len Z = {a}"
        entries.append(
            CatalogEntry(
                label=f"binary-span-a{a}",
                n=1,
                d=d,
                hilbert_function=binary_hilbert_function(d, a),
                kernel_object=kernel_object,
                chain=chain,
                dimension=min(2 * a - 1, d),
                charge_node=node,
            )
        )
    return entries


def _plane_d1() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            label="linear-form",
            n=2,
            d=1,
            hilbert_function=(1, 1),
            kernel_object="I_p(1)",
            chain="O(1) -> O_p(1) -> omega(0)[2]",
            dimension=2,
            charge_node=_Z(1, _I(2, 1, 1)),
            witness_ideal=("x1", "x2"),
        )
    ]


def _plane_d2() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            label="rank-1",
            n=2,
            d=2,
            hilbert_function=(1, 1, 1),
            kernel_object="I_p(1)",
            chain="O(1) -> O_p(1) -> omega(-1)[2]",
            dimension=2,
            charge_node=_Z(2, _I(2, 1, 1)),
            witness_ideal=("x1", "x2"),
        ),
        CatalogEntry(
            label="rank-2",
            n=2,
            d=2,
            hilbert_function=(1, 2, 1),
            kernel_object="O",
            chain="O(1) -> O_l(1) -> omega(-1)[2]",
            dimension=4,
            charge_node=_Z(2, _O(2, 0)),
            witness_ideal=("x2",),
        ),
        CatalogEntry(
            label="rank-3",
            n=2,
            d=2,
            hilbert_function=(1, 3, 1),
            kernel_object="none (semistable)",
            chain="O(1) -> omega(-1)[2] injective",
            dimension=5,
            charge_node=_Z(2, _cone_class(2, 1)),
        ),
    ]


def _plane_d3() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            label="veronese",
            n=2,
            d=3,
            hilbert_function=(1, 1, 1, 1),
            kernel_object="I_p(2)",
            chain="O(2) -> O_p(2) -> omega(-1)[2]",
            dimension=2,
            charge_node=_Z(3, _I(2, 1, 2)),
            witness_ideal=("x1", "x2"),
        ),
        CatalogEntry(
            label="secant-lines",
            n=2,
            d=3,
            hilbert_function=(1, 2, 2, 1),
            kernel_object="I_pq(2)",
            chain="O(2) -> O_pq(2) -> omega(-1)[2]",
            dimension=5,
            charge_node=_Z(3, _I(2, 2, 2)),
            witness_ideal=("x2", "x0*x1"),
        ),
        CatalogEntry(
            label="three-points",
            n=2,
            d=3,
            hilbert_function=(1, 3, 3, 1),
            kernel_object="I_pqr(2)",
            chain="O(2) -> O_pqr(2) -> omega(-1)[2]",
            dimension=8,
            charge_node=_Z(3, _I(2, 3, 2)),
            betti_fingerprint=((0, 0), (3, 2), (2, 3), (0, 0)),
            witness_ideal=("x0*x1", "x0*x2", "x1*x2"),
        ),
        CatalogEntry(
            label="open-semistable",
            n=2,
            d=3,
            hilbert_function=(1, 3, 3, 1),
            kernel_object="O^3",
            chain="O^3 -> O(2), no intermediary",
            dimension=9,
            charge_node=_Z(3, _O(2, 0).scale(3)),
            betti_fingerprint=((0, 0), (3, 0), (0, 3), (0, 0)),
        ),
    ]


def _plane_d4() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            label="veronese",
            n=2,
            d=4,
            hilbert_function=(1, 1, 1, 1, 1),
            kernel_object="I_p(2)",
            chain="O(2) -> O_p -> omega(-2)[2]",
            dimension=2,
            charge_node=_Z(4, _I(2, 1, 2)),
            witness_ideal=("x1", "x2"),
        ),
        CatalogEntry(
            label="secant-lines",
            n=2,
            d=4,
            hilbert_function=(1, 2, 2, 2, 1),
            kernel_object="I_pq(2)",
            chain="O(2) -> O_l(2) -> O_pq -> omega(-2)[2]",
            dimension=5,
            charge_node=_Z(4, _I(2, 2, 2)),
            witness_ideal=("x2", "x0*x1"),
        ),
        CatalogEntry(
            label="line-quartics",
            n=2,
            d=4,
            hilbert_function=(1, 2, 3, 2, 1),
            kernel_object="O(1)",
            chain="O(2) -> O_l(2) -> omega(-2)[2]",
            dimension=6,
            charge_node=_Z(4, _O(2, 1)),
            witness_ideal=("x2",),
        ),
        CatalogEntry(
            label="three-points",
            n=2,
            d=4,
            hilbert_function=(1, 3, 3, 3, 1),
            kernel_object="I_pqr(2)",
            chain="O(2) -> O_pqr -> omega(-2)[2]",
            dimension=8,
            charge_node=_Z(4, _I(2, 3, 2)),
            witness_ideal=("x0*x1", "x0*x2", "x1*x2"),
        ),
        CatalogEntry(
            label="quartic-line-plus-point",
            n=2,
            d=4,
            hilbert_function=(1, 3, 4, 3, 1),
            kernel_object="I_{l+p}(2)",
            chain="O(2) -> O_{l+p}(2) -> omega(-2)[2]",
            dimension=9,
            charge_node=ChargePoint(Fraction(5, 2), Fraction(2)),
            betti_fingerprint=((0, 0), (2, 1), (2, 2), (1, 2), (0, 0)),
            witness_ideal=("x0*x2", "x1*x2"),
        ),
        CatalogEntry(
            label="conic-pencil-base",
            n=2,
            d=4,
            hilbert_function=(1, 3, 4, 3, 1),
            kernel_object="O^2",
            chain="O(2) -> O(2)/O^2 -> omega(-2)[2]",
            dimension=11,
            charge_node=_Z(4, _O(2, 0).scale(2)),
            betti_fingerprint=((0, 0), (2, 0), (1, 1), (0, 2), (0, 0)),
        ),
        CatalogEntry(
            label="single-conic",
            n=2,
            d=4,
            hilbert_function=(1, 3, 5, 3, 1),
            kernel_object="O",
            chain="O(2) -> O_C(2) -> omega(-2)[2]",
            dimension=13,
            charge_node=_Z(4, _O(2, 0)),
            witness_ideal=("x0*x1 - x2^2",),
        ),
        CatalogEntry(
            label="open-semistable",
            n=2,
            d=4,
            hilbert_function=(1, 3, 6, 3, 1),
            kernel_object="none (semistable)",
            chain="[O(-2)^7 -> O(-1)^7], corank one",
            dimension=14,
            charge_node=_Z(4, _cone_class(2, 2)),
        ),
    ]


_CATALOGS: dict[tuple[int, int], Callable[[], list[CatalogEntry]]] = {
    **{(1, d): partial(_binary_entries, d) for d in range(1, 13)},
    (2, 1): _plane_d1,
    (2, 2): _plane_d2,
    (2, 3): _plane_d3,
    (2, 4): _plane_d4,
}


def catalog(n: int, d: int) -> list[CatalogEntry]:
    return _CATALOGS[n, d]()


def catalog_supported(n: int, d: int) -> bool:
    return (n, d) in _CATALOGS


_E0, _E1, _E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
_CONIC_POINTS = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 4, 2), (1, 4, -2)]


def witness_socles(n: int, d: int) -> dict[str, Socle]:
    """One constructive witness socle per catalog entry; the open-semistable
    plane cubic and quartic are fixed socles a seeded random search found."""
    if not catalog_supported(n, d):
        raise EnvelopeError(f"no witnesses for (n={n}, d={d})")
    if n == 1:
        pts = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2), (1, 3)]
        return {
            f"binary-span-a{a}": synth_power_sum(pts[:a], [1] * a, d)
            for a in range(1, d // 2 + 2)
        }
    if d == 1:
        return {"linear-form": Socle.parse("y0", n=2)}
    if d == 2:
        return {
            "rank-1": synth_power_sum([_E0], [1], 2),
            "rank-2": synth_power_sum([_E0, _E1], [1, 1], 2),
            "rank-3": synth_power_sum([_E0, _E1, _E2], [1, 1, 1], 2),
        }
    if d == 3:
        return {
            "veronese": synth_power_sum([_E0], [1], 3),
            "secant-lines": synth_power_sum([_E0, _E1], [1, 1], 3),
            "three-points": synth_power_sum([_E0, _E1, _E2], [1, 1, 1], 3),
            "open-semistable": Socle.parse(
                "-3*y0^3 + 2*y0^2*y1 - 4*y0*y1^2 - y1^3 + 2*y0^2*y2 + 6*y0*y1*y2"
                " + 8*y1^2*y2 + 4*y0*y2^2 + 9*y1*y2^2"
            ),
        }
    return {
        "veronese": synth_power_sum([_E0], [1], 4),
        "secant-lines": synth_power_sum([_E0, _E1], [1, 1], 4),
        "line-quartics": synth_power_sum([_E0, _E1, (1, 1, 0)], [1, 1, 1], 4),
        "three-points": synth_power_sum([_E0, _E1, _E2], [1, 1, 1], 4),
        "quartic-line-plus-point": synth_power_sum(
            [_E0, _E1, (1, 1, 0), _E2], [1, 1, 1, 1], 4
        ),
        "conic-pencil-base": synth_power_sum(
            [_E0, _E1, _E2, (1, 1, 1)], [1, 1, 1, 1], 4
        ),
        "single-conic": synth_power_sum(_CONIC_POINTS, [1] * 5, 4),
        "open-semistable": Socle.parse(
            "3*y0^4 + 3*y0^3*y1 + 8*y0^2*y1^2 - 2*y1^4 + 4*y0^3*y2 - 6*y0^2*y1*y2"
            " + 3*y0*y1^2*y2 - y1^3*y2 - 6*y0^2*y2^2 + 3*y0*y1*y2^2 - 4*y0*y2^3"
            " + 8*y1*y2^3 - 4*y2^4"
        ),
    }


def _node(d: int, name: str, cls: TwistComplex, kind: str) -> DiagramNode:
    return DiagramNode(name, _Z(d, cls), "black", None, kind)


def zdiagram(n: int, d: int) -> list[DiagramNode]:
    """Named nodes of the charge diagram with exact coordinates.

    Candidate nodes reproduce their catalog status; red reasons are the
    computational rules 1 and 2 where they apply and the annotated
    factorization notes otherwise.
    """
    if not catalog_supported(n, d):
        raise EnvelopeError(f"no charge diagram for (n={n}, d={d})")
    s = parity_point(d)
    e = (d + 1) // 2
    nodes: list[DiagramNode] = []
    if n == 1:
        nodes.append(_node(d, "O(-1)[1]", _O(1, -1).shift(1), "reference"))
        nodes.append(_node(d, "C_p", TwistComplex.point(1), "reference"))
        if d % 2 == 0:
            nodes.append(_node(d, "E(sigma)", _cone_class(1, e), "reference"))
        else:
            omega = TwistComplex.canonical_twist(1, e - 1)
            nodes.append(_node(d, "E(sigma)", _O(1, e) + omega.shift(1), "reference"))
        for k in range(e):
            nodes.append(_node(d, f"O({k})" if k else "O", _O(1, k), "candidate"))
        nodes.append(_node(d, f"O({e})", _O(1, e), "reference"))
        return nodes

    nodes.append(_node(d, "O(-1)[1]", _O(2, -1).shift(1), "reference"))
    nodes.append(_node(d, "O(-2)[2]", _O(2, -2).shift(2), "reference"))
    nodes.append(_node(d, "C_p", TwistComplex.point(2), "reference"))
    nodes.append(_node(d, f"O({e})", _O(2, e), "reference"))
    if d == 1:
        candidates = [
            ("O", _O(2, 0), "red"),
            ("O^2", _O(2, 0).scale(2), "red"),
            ("I_p(1)", _I(2, 1, 1), "black"),
        ]
    elif d == 2:
        candidates = [
            ("O", _O(2, 0), "black"),
            ("I_p(1)", _I(2, 1, 1), "black"),
            ("I_pq(1)", _I(2, 2, 1), "red"),
        ]
    elif d == 3:
        candidates = [
            ("O(1)", _O(2, 1), "black"),
            ("I_p(2)", _I(2, 1, 2), "black"),
            ("I_pq(2)", _I(2, 2, 2), "black"),
            ("I_pqr(2)", _I(2, 3, 2), "black"),
            ("O^3", _O(2, 0).scale(3), "black"),
            ("T(-1)", TwistComplex(2, ((0, 0, 3), (1, 1, 1))), "red"),
        ]
    else:
        candidates = [
            ("O", _O(2, 0), "black"),
            ("O(1)", _O(2, 1), "black"),
            ("O^2", _O(2, 0).scale(2), "black"),
            ("I_p(2)", _I(2, 1, 2), "black"),
            ("I_pq(2)", _I(2, 2, 2), "black"),
            ("I_pqr(2)", _I(2, 3, 2), "black"),
        ]

    for name, cls, status in candidates:
        point = _Z(d, cls)
        reason = None
        if status == "red":
            fired, rule_reason = _rule_red(point, 2, s)
            if fired:
                reason = rule_reason
            else:
                reason = _FACTORIZATION_NOTES[(2, d, name)]
        nodes.append(DiagramNode(name, point, status, reason, "candidate"))
    return nodes
