"""Command-line interface.

Subcommands: analyze, synth, classify, betti, zdiagram, mrtable,
verify-paper.  Exit codes: 0 ok, 1 verification failure, 2 input error,
3 envelope error.  All rationals print exactly; JSON output is
byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

# Each command imports the rest of the package itself, after its input
# has parsed, so a cold start loads only the modules that command runs.
# ``hilbert_function`` is unused here: the benchmark's tracer test pins
# this binding.
from .apolarity import (
    Socle,
    gorenstein_diagnostics,
    hilbert_function,
    synth_power_sum,
)
from .errors import (
    ConsistencyError,
    DegenerateInputError,
    EnvelopeError,
    InputError,
    ParseError,
    SocleKitError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_ENVELOPE = 3


def _emit(args, payload, text: str, code: int = EXIT_OK) -> int:
    """The one output path of every command that takes ``--format``.

    Under ``--format json`` it prints the JSON-ready result ``payload()``,
    else the text view ``text``, and returns the exit code.  The payload is
    built only when it is printed: ``classify``'s JSON holds the socle's
    text, which refuses a coefficient too long to print, and its text view
    does not.
    """
    print(json.dumps(payload(), indent=2, ensure_ascii=True) if args.format == "json" else text)
    return code


def _read_input(args) -> str:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from exc
    if args.input is None:
        raise ParseError("no input given: pass a polynomial or --file")
    return args.input


def _load_socle(args) -> Socle:
    return Socle.parse(_read_input(args), n=args.n)


def analysis_report(g: Socle) -> dict:
    """The full invariant report of one socle, JSON-ready."""
    from .charge import TwistComplex, charge, cone_charge
    from .resolution import analyze_socle
    from .strata import catalog_supported, classify_by, parity_point

    analysis = analyze_socle(g)
    diag = gorenstein_diagnostics(g, analysis.hilbert_function)
    table = analysis.betti
    warnings: list[str] = []
    stratum = None
    if catalog_supported(g.n, g.d):
        entry = classify_by(g, analysis.hilbert_function, lambda: table)
        stratum = entry.label if entry else "unclassified"
    else:
        warnings.append(f"no stratum catalog for (n={g.n}, d={g.d})")
    s = parity_point(g.d)
    e = (g.d + 1) // 2
    source = charge(TwistComplex.line_bundle(g.n, e), s)
    report = {
        "socle": g.text(),
        "n": g.n,
        "d": g.d,
        "hilbert_function": list(diag.hilbert_function),
        "gorenstein": {
            "socle_dimension_ok": diag.socle_dimension_ok,
            "palindromic": diag.palindromic,
            "catalecticant_transpose_ok": diag.catalecticant_transpose_ok,
        },
        "betti": {
            "entries": [list(t) for t in table.entries],
            "grid_rows": table.grid(),
        },
        "stratum": stratum,
        "charge": {
            "evaluation_point": str(s),
            "source_twist": e,
            "source": [str(source.x), str(source.y)],
        },
        "warnings": warnings,
    }
    if g.d % 2 == 0 and g.n >= 1:
        cone = cone_charge(table, g.d // 2, 0)
        report["charge"]["cone"] = [str(cone.x), str(cone.y)]
    return report


def _format_report_text(report: dict) -> str:
    lines = [
        f"socle: {report['socle']}",
        f"n = {report['n']}, d = {report['d']}",
        f"hilbert function: {report['hilbert_function']}",
        f"stratum: {report['stratum']}",
        "betti table (rows j - i):",
    ]
    for row in report["betti"]["grid_rows"]:
        lines.append("  " + " ".join(str(v).rjust(3) for v in row))
    c = report["charge"]
    lines.append(
        f"charge at {c['evaluation_point']} of O({c['source_twist']}): "
        f"({c['source'][0]}, {c['source'][1]})"
    )
    if "cone" in c:
        lines.append(f"cone charge: ({c['cone'][0]}, {c['cone'][1]})")
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    report = analysis_report(_load_socle(args))
    return _emit(args, lambda: report, _format_report_text(report))


def cmd_synth(args) -> int:
    try:
        spec = json.loads(_read_input(args))
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # int_max_str_digits, deep nesting
        raise ParseError(f"bad synthesis spec: {exc}") from None
    if type(spec) is not dict:
        raise ParseError("bad synthesis spec: not a JSON object")
    for key in ("points", "degree"):
        if key not in spec:
            raise ParseError(f'bad synthesis spec: missing key "{key}"')
    points, degree = spec["points"], spec["degree"]
    shape = "bad synthesis spec: points must be an array of arrays, weights an array"
    if not (type(points) is list and all(type(p) is list for p in points)):
        raise ParseError(shape)
    weights = spec.get("weights", [1] * len(points))
    if type(weights) is not list:
        raise ParseError(shape)
    try:
        weights = [Fraction(str(w)) for w in weights]
        vectors = [[Fraction(str(c)) for c in p] for p in points]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad synthesis spec: {exc}") from exc
    if type(degree) is not int:
        raise ParseError(f"bad synthesis spec: degree must be an integer, not {degree!r}")
    g = synth_power_sum(vectors, weights, degree)
    print(g.text())
    return EXIT_OK


def cmd_classify(args) -> int:
    g = _load_socle(args)
    from .strata import classify

    entry = classify(g)
    label = entry.label if entry else "unclassified"
    fields, text = {}, label
    if entry:
        fields = {
            "hilbert_function": list(entry.hilbert_function),
            "kernel_object": entry.kernel_object,
            "dimension": entry.dimension,
        }
        text = f"{label}  (kernel {entry.kernel_object}, dimension {entry.dimension})"
    return _emit(args, lambda: {"socle": g.text(), "stratum": label, **fields}, text)


def cmd_betti(args) -> int:
    g = _load_socle(args)
    from .resolution import koszul_betti

    table = koszul_betti(g)
    payload = {"n": table.n, "d": table.d, "entries": [list(t) for t in table.entries]}
    return _emit(args, lambda: payload, table.to_text())


def cmd_zdiagram(args) -> int:
    from .strata import zdiagram, zdiagram_json, zdiagram_svg

    nodes = zdiagram(args.n, args.d)
    lines = [
        f"{node.name:10s} ({node.point.x}, {node.point.y})  {node.status}/{node.kind}"
        + (f"  [{node.reason}]" if node.reason else "")
        for node in nodes
    ]
    text = zdiagram_svg(nodes) if args.format == "svg" else "\n".join(lines)
    return _emit(args, lambda: zdiagram_json(nodes), text)


def cmd_mrtable(args) -> int:
    from .exceptional import mr_grid, mr_grid_text

    grid = mr_grid(refined=not args.naive)
    rows = [
        {"rank": r, "values": {str(c): (None if v is None else str(v)) for c, v in row.items()}}
        for r, row in sorted(grid.items())
    ]
    payload = {"kind": "naive" if args.naive else "refined", "rows": rows}
    return _emit(args, lambda: payload, mr_grid_text(grid))


def cmd_verify_paper(args) -> int:
    from . import verify

    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_all(seed=seed)
    payload = [
        {"id": r.ident, "name": r.name, "expected": r.expected, "actual": r.actual,
         "pass": r.passed}
        for r in results
    ]
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.ident:4s} {r.name}")
        if not r.passed:
            lines += [f"      expected: {r.expected}", f"      actual:   {r.actual}"]
    passed = all(r.passed for r in results)
    return _emit(args, lambda: payload, "\n".join(lines), EXIT_OK if passed else EXIT_VERIFY)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soclekit",
        description="Exact invariants and stability strata of degree-d socles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_socle_input(p):
        p.add_argument("input", nargs="?", help="polynomial text (or use --file)")
        p.add_argument("--file", help="read the input from a file")
        p.add_argument("--n", type=int, default=None, help="ambient dimension override")

    def add_format(p, *extra):
        p.add_argument("--format", choices=("text", "json", *extra), default="text")

    p = sub.add_parser("analyze", help="full invariant report for one socle")
    add_socle_input(p)
    add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="power-sum socle from a points+weights JSON spec")
    p.add_argument("input", nargs="?", help='e.g. \'{"points": [[1,0],[0,1]], "degree": 3}\'')
    p.add_argument("--file", help="read the spec from a file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("classify", help="stratum label of a socle")
    add_socle_input(p)
    add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("betti", help="betti table of a socle")
    add_socle_input(p)
    add_format(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("zdiagram", help="charge diagram nodes for (n, d)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    add_format(p, "svg")
    p.set_defaults(func=cmd_zdiagram)

    p = sub.add_parser("mrtable", help="semistable maxima by rank and slope data")
    p.add_argument("--naive", action="store_true", help="discriminant-only bound")
    add_format(p)
    p.set_defaults(func=cmd_mrtable)

    p = sub.add_parser("verify-paper", help="run the built-in verification suite")
    add_format(p)
    p.add_argument("--json", dest="format", action="store_const", const="json")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DegenerateInputError, InputError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EnvelopeError as exc:
        print(f"envelope error: {exc}", file=sys.stderr)
        return EXIT_ENVELOPE
    except ConsistencyError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SocleKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
