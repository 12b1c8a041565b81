import io
import json
import os
import subprocess
import sys
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soclekit
from soclekit import verify
from soclekit.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_analyze_text():
    code, out, _ = run_cli(["analyze", "y0^3+y1^3"])
    assert code == 0
    assert "hilbert function: [1, 2, 2, 1]" in out
    assert "stratum: binary-span-a2" in out


def test_analyze_json_fields_and_determinism():
    code, out1, _ = run_cli(["analyze", "y0^4+y1^4+y2^4", "--format", "json"])
    assert code == 0
    code, out2, _ = run_cli(["analyze", "y0^4+y1^4+y2^4", "--format", "json"])
    assert out1 == out2
    report = json.loads(out1)
    assert report["hilbert_function"] == [1, 3, 3, 3, 1]
    assert report["stratum"] == "three-points"
    assert report["gorenstein"]["palindromic"] is True
    assert report["charge"]["evaluation_point"] == "0"
    assert report["charge"]["cone"] == ["7", "0"]
    assert report["warnings"] == []


def test_analyze_consistency_between_table_and_ranks():
    code, out, _ = run_cli(["analyze", "y0^3+y1^3+y2^3", "--format", "json"])
    report = json.loads(out)
    grid = report["betti"]["grid_rows"]
    assert grid[1][1] == 3 and grid[1][2] == 2


def test_negative_homology_is_a_verification_failure(monkeypatch):
    from soclekit import resolution

    monkeypatch.setattr(resolution, "rank_of_int_rows", lambda *args: 10**6)
    # a ternary cubic: a binary form's ranks all come from h, unranked
    code, _, err = run_cli(["betti", "y0^3+y1^3+y2^3"])
    assert code == 1
    assert err.startswith("verification error: negative homology at ")
    assert "Traceback" not in err
    code, out, err = run_cli(["analyze", "y0^3+y1^3+y2^3"])
    assert code == 1 and out == ""
    assert err == "verification error: negative homology at (1, 2)\n"


def test_analyze_zero_socle_is_input_error():
    code, _, err = run_cli(["analyze", "0"])
    assert code == 2
    assert "zero socle" in err


def test_analyze_parse_error_carries_position():
    code, _, err = run_cli(["analyze", "y0^2 + &"])
    assert code == 2
    assert "column 8" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze"], "no input given: pass a polynomial or --file"),
        (["synth", "[1]"], "bad synthesis spec: not a JSON object"),
        (
            ["synth", '{"points":["12"],"degree":2}'],
            "bad synthesis spec: points must be an array of arrays, weights an array",
        ),
        (["analyze", "y0^2", "--n", "-1"], "socle uses y0 but n=-1 was requested"),
        (["synth", "5"], "bad synthesis spec: not a JSON object"),
        (["synth", '"x"'], "bad synthesis spec: not a JSON object"),
        # a missing key is named, and points are checked before the
        # default weights count them
        (["synth", "{}"], 'bad synthesis spec: missing key "points"'),
        (["synth", '{"points":[[1,2]]}'], 'bad synthesis spec: missing key "degree"'),
        (
            ["synth", '{"points":5,"degree":2}'],
            "bad synthesis spec: points must be an array of arrays, weights an array",
        ),
        (
            ["synth", '{"points":[[1,2]],"degree":2,"weights":null}'],
            "bad synthesis spec: points must be an array of arrays, weights an array",
        ),
    ],
)
def test_errors_without_a_source_position_report_none(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_parse_errors_carry_a_position_only_when_the_text_has_one():
    from soclekit.apolarity import Socle
    from soclekit.errors import ParseError

    with pytest.raises(ParseError) as exc:
        Socle.parse("y0^2", n=-1)
    assert (exc.value.line, exc.value.column) == (None, None)
    assert str(exc.value) == "socle uses y0 but n=-1 was requested"
    with pytest.raises(ParseError) as exc:
        Socle.parse("y0^2\n + @")
    assert (exc.value.line, exc.value.column) == (2, 4)
    assert str(exc.value) == "unexpected character '@' (line 2, column 4)"


def test_analyze_envelope_error():
    code, _, err = run_cli(["analyze", "y0^7+y1^7+y2^7"])
    assert code == 3
    assert "n <= 3" in err


def test_analyze_unsupported_catalog_warns_but_reports():
    code, out, _ = run_cli(["analyze", "y0^3+y1^3+y2^3+y3^3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["stratum"] is None
    assert any("no stratum catalog" in w for w in report["warnings"])


def test_analyze_from_file(tmp_path):
    path = tmp_path / "socle.txt"
    path.write_text("y0^4 + y1^4 + y2^4 + 1/3*y0^2*y1^2\n")
    code, out, _ = run_cli(["analyze", "--file", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_degree_zero_socle_report():
    code, out, _ = run_cli(["analyze", "5", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["hilbert_function"] == [1]
    assert report["d"] == 0


def test_synth_round_trip():
    spec = '{"points": [[1,0],[0,1]], "weights": [1, 1], "degree": 3}'
    code, out, _ = run_cli(["synth", spec])
    assert code == 0
    assert out.strip() == "y0^3 + y1^3"
    code, out2, _ = run_cli(["analyze", out.strip(), "--format", "json"])
    assert json.loads(out2)["hilbert_function"] == [1, 2, 2, 1]


def test_synth_matching_decompositions_print_identically():
    one = '{"points": [[1,0],[0,1]], "degree": 2}'
    two = '{"points": [[1,1],[1,-1]], "weights": ["1/2", "1/2"], "degree": 2}'
    assert run_cli(["synth", one])[1] == run_cli(["synth", two])[1]


def test_synth_three_points():
    spec = '{"points": [[1,0,0],[0,1,0],[0,0,1]], "degree": 4}'
    code, out, _ = run_cli(["synth", spec])
    code, out2, _ = run_cli(["classify", out.strip()])
    assert "three-points" in out2


def test_synth_degenerate_is_input_error():
    spec = '{"points": [[1,0],[1,0]], "weights": [1, -1], "degree": 3}'
    code, _, err = run_cli(["synth", spec])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "y0^3 + y1^2"],
        ["analyze", "9*"],
        ["analyze", "y0^2 + 3*"],
        ["analyze", "--file", "/nonexistent"],
        ["synth", '{"points":[[1,"a"]],"degree":3}'],
        ["synth", '{"points":[[1,0]],"degree":-1}'],
        ["synth", '{"points":[[1,2]],"degree":1e400}'],
        ["synth", '{"points":[[1,"1/0"]],"degree":2}'],
        ["synth", '{"points":[[1,2]],"weights":["1/0"],"degree":2}'],
        ["synth", '{"points":[[1,2]],"degree":2.5}'],
        ["synth", '{"points":[[1,2]],"degree":true}'],
        # integer literals past CPython's int_max_str_digits (4,300)
        ["analyze", "9" * 5000 + "*y0^2"],
        ["analyze", "y0^" + "9" * 5000],
        ["analyze", "y" + "9" * 5000],
        ["analyze", "1/" + "9" * 5000 + "*y0^2"],
        ["synth", '{"points":[[1,2]],"degree":' + "9" * 5000 + "}"],
        ["synth", "[" * 50000 + "]" * 50000],
        # a string or an object where an array belongs
        ["synth", '{"points":[[1,2]],"degree":2,"weights":"3"}'],
        ["synth", '{"points":["12"],"degree":2}'],
        ["synth", '{"points":[[1,2]],"degree":2,"weights":{"7":1}}'],
    ],
)
def test_malformed_inputs_exit_with_input_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        '{"points":[[1,2]],"degree":100000000}',
        '{"points":[[1,2,3,4,5,6,7]],"degree":60}',
        '{"points":[[102]],"degree":10000000}',
    ],
)
def test_oversized_synth_is_refused_before_any_work(spec):
    start = time.perf_counter()
    code, out, err = run_cli(["synth", spec])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("envelope error: power sum at ")


@pytest.mark.parametrize("index", ["3000000", "123456789"])
def test_huge_variable_index_is_refused_before_allocation(index):
    start = time.perf_counter()
    code, out, err = run_cli(["analyze", f"y{index}^2 + y0^2"])
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err == f"envelope error: variable index {index} is above the maximum 1000\n"


def test_huge_n_is_refused_before_padding():
    start = time.perf_counter()
    code, out, err = run_cli(["analyze", "y0^2", "--n", "30000000"])
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err == "envelope error: n=30000000 is above the maximum variable index 1000\n"


def test_classify_json():
    code, out, _ = run_cli(["classify", "y0^4", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == "veronese"
    assert payload["dimension"] == 2


def test_classify_text_does_not_print_the_socle():
    # only the JSON report holds the socle's text, so only it refuses a
    # coefficient past int_max_str_digits
    big = "*".join(["9" * 3000] * 2)
    code, out, _ = run_cli(["classify", f"{big}*y0^2 + y1^2"])
    assert (code, out) == (0, "binary-span-a2  (kernel none (semistable), dimension 2)\n")
    code, out, err = run_cli(["classify", f"{big}*y0^2 + y1^2", "--format", "json"])
    assert (code, out) == (3, "")
    assert err == "envelope error: a coefficient or exponent has too many digits to print\n"


def test_betti_text_and_json():
    code, out, _ = run_cli(["betti", "y0^2+y1^2+y2^2"])
    assert code == 0
    assert out.splitlines() == ["1 0 0 0", "0 5 5 0", "0 0 0 1"]
    code, out, _ = run_cli(["betti", "y0^2+y1^2+y2^2", "--format", "json"])
    payload = json.loads(out)
    assert [1, 2, 5] in payload["entries"]


def test_zdiagram_json_and_svg():
    code, out, _ = run_cli(["zdiagram", "2", "2", "--format", "json"])
    assert code == 0
    nodes = {node["name"]: node for node in json.loads(out)}
    assert nodes["I_pq(1)"]["status"] == "red"
    assert nodes["I_pq(1)"]["x"] == "5/2"
    code, out, _ = run_cli(["zdiagram", "2", "3", "--format", "svg"])
    assert out.startswith("<svg")
    code, _, err = run_cli(["zdiagram", "3", "2"])
    assert code == 3


def test_mrtable():
    code, out, _ = run_cli(["mrtable"])
    assert code == 0
    assert "r\\chi'" in out
    code, out, _ = run_cli(["mrtable", "--format", "json"])
    payload = json.loads(out)
    assert payload["kind"] == "refined"
    row3 = next(r for r in payload["rows"] if r["rank"] == 3)
    assert row3["values"]["7/2"] == "0"
    code, out, _ = run_cli(["mrtable", "--naive", "--format", "json"])
    row3 = next(r for r in json.loads(out)["rows"] if r["rank"] == 3)
    assert row3["values"]["7/2"] == "1"


def test_verify_paper_plumbing(monkeypatch):
    fake = [
        verify.CheckResult("C1", "first", "1", "1", True),
        verify.CheckResult("C2", "second", "2", "3", False),
    ]
    monkeypatch.setattr(verify, "run_all", lambda seed: fake)
    code, out, _ = run_cli(["verify-paper"])
    assert code == 1
    assert "PASS  C1" in out and "FAIL  C2" in out
    code, out, _ = run_cli(["verify-paper", "--json"])
    payload = json.loads(out)
    assert payload[1]["pass"] is False


def test_verify_paper_fault_injection(monkeypatch):
    # flattening the existence boundary reverts the refined bound to the
    # naive one, and the reference-table row must then fail
    from soclekit import exceptional

    monkeypatch.setattr(exceptional, "boundary_discriminant", lambda mu: 0)
    result = verify.run_one("C9")
    assert not result.passed


# ---------------------------------------------------------------------------
# cold start: what each command loads

# The submodules that no parse error, and no command that does not use
# them, may load.
HEAVY = {"charge", "exceptional", "resolution", "strata", "verify"}


def fresh_interpreter(code):
    """Run code in a new interpreter that imports this soclekit; the JSON
    of the ``result`` it sets and the soclekit submodules that have run.

    A deferred submodule is in ``sys.modules`` from ``import soclekit`` on,
    as a lazy module; its type becomes ``ModuleType`` when it runs.
    """
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json, sys
        from types import ModuleType
        loaded = sorted(
            name[9:] for name, m in sys.modules.items()
            if name.startswith("soclekit.") and type(m) is ModuleType
        )
        print(json.dumps([result, loaded]))
        """
    )
    root = os.path.dirname(os.path.dirname(soclekit.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    result, loaded = json.loads(proc.stdout.splitlines()[-1])
    return result, set(loaded)


def test_importing_the_cli_loads_no_command_modules():
    _, loaded = fresh_interpreter("import soclekit.cli\nresult = None")
    assert "apolarity" in loaded and not loaded & HEAVY


def test_a_parse_error_loads_no_command_modules():
    code, loaded = fresh_interpreter(
        "from soclekit.cli import main\nresult = main(['analyze', 'y0^^3'])"
    )
    assert code == 2 and not loaded & HEAVY


def test_mrtable_loads_only_the_exceptional_module():
    code, loaded = fresh_interpreter(
        "from soclekit.cli import main\nresult = main(['mrtable', '--format', 'json'])"
    )
    assert code == 0 and loaded & HEAVY == {"exceptional"}


def test_commands_load_no_introspection_modules():
    # the result records are NamedTuples; dataclasses would bring inspect,
    # ast, dis and tokenize into every process that imports the package
    result, _ = fresh_interpreter(
        """
        import sys
        import soclekit
        from soclekit.cli import main

        g = "y0^4 + y1^4 + y2^4"
        result = [
            main(argv)
            for argv in (
                ["analyze", g],
                ["analyze", g, "--format", "json"],
                ["classify", g],
                ["betti", g],
                ["synth", '{"points":[[1,2],[3,-1]],"degree":4}'],
                ["zdiagram", "2", "3", "--format", "svg"],
                ["mrtable"],
                ["analyze", "y0^2 + 3*"],
                ["betti", "y0^7 + y1^7"],
            )
        ]
        result.append(sorted({"dataclasses", "inspect"} & set(sys.modules)))
        """
    )
    assert result == [0, 0, 0, 0, 0, 0, 0, 2, 3, []]


def test_deferred_submodules_are_listed_before_they_run():
    # A walk over the package's modules in sys.modules (perfbench's tracer
    # rebinds every global it finds there) must see every module that
    # exports a name, and reading a module's globals must run it first.
    # The deferred ones come before ``linalg``, so such a walk runs them
    # before it has rebound anything they import.
    result, loaded = fresh_interpreter(
        """
        import sys
        import soclekit

        listed = [n[9:] for n in sys.modules if n.startswith("soclekit.")]
        deferred = ("charge", "exceptional", "resolution", "strata")
        result = [
            sorted(listed),
            max(map(listed.index, deferred)) < listed.index("linalg"),
            "classify" in vars(sys.modules["soclekit.strata"]),
        ]
        """
    )
    assert result == [
        ["_kernels", "apolarity", "charge", "errors", "exceptional", "linalg",
         "resolution", "strata"],
        True,
        True,
    ]
    assert loaded & HEAVY == {"charge", "resolution", "strata"}


def test_every_export_is_the_object_its_submodule_defines():
    # checked before and after every submodule has loaded: loading the
    # submodule ``charge`` must not replace the exported function ``charge``
    bad, loaded = fresh_interpreter(
        """
        import importlib, sys
        import soclekit

        def mismatches():
            out = []
            for name in soclekit.__all__:
                if name == "kernel_backend":  # the package's own constant
                    continue
                obj = getattr(soclekit, name)
                home = getattr(obj, "__module__", "")
                if not home.startswith("soclekit.") or (
                    getattr(importlib.import_module(home), name) is not obj
                ):
                    out.append(name)
            return out

        result = mismatches() + mismatches()
        result += [
            m for m in ("exceptional", "resolution", "strata")
            if getattr(soclekit, m) is not sys.modules["soclekit." + m]
        ]
        """
    )
    assert bad == []
    assert {"charge", "exceptional", "resolution", "strata"} <= loaded


def test_star_import_and_unknown_attributes():
    result, _ = fresh_interpreter(
        """
        import soclekit
        from soclekit import *

        result = [all(name in globals() for name in soclekit.__all__)]
        try:
            soclekit.no_such_name
        except AttributeError as exc:
            result.append(str(exc))
        """
    )
    assert result == [True, "module 'soclekit' has no attribute 'no_such_name'"]


@pytest.mark.parametrize(
    "name, home",
    [("hilbert_function", "apolarity"), ("rank", "linalg"), ("charge", "charge")],
    ids=["hilbert_function", "rank", "charge"],
)
def test_exported_names_can_be_rebound(monkeypatch, name, home):
    exported = getattr(soclekit, name)
    marker = object()
    # a rebinding in the home module shows through the package, and so
    # does its undoing; checked first, because undoing the package-level
    # setattr below leaves a plain package global in place of the lookup
    monkeypatch.setattr(sys.modules[f"soclekit.{home}"], name, marker)
    assert getattr(soclekit, name) is marker
    monkeypatch.undo()
    assert getattr(soclekit, name) is exported
    monkeypatch.setattr(soclekit, name, marker)
    assert getattr(soclekit, name) is marker
    monkeypatch.undo()
    assert getattr(soclekit, name) is exported
    # the undo restored the value as a plain package global, which would
    # shadow __getattr__ for every later test: drop it
    delattr(soclekit, name)
    assert name not in vars(soclekit)
    assert getattr(soclekit, name) is exported


# ---------------------------------------------------------------------------
# fuzz: the exit-code contract holds for every input

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)
POLYNOMIAL_ALPHABET = "y0123456789^*+-/ "
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=12,
)


def assert_contract(argv):
    """Exit 0, 2 or 3 in a bounded time, with no traceback and nothing on
    stdout after an error; argparse's own rejection exits 2."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 10, argv
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == "", argv


@FUZZ
@given(
    st.sampled_from(["analyze", "betti", "classify"]),
    st.text(alphabet=POLYNOMIAL_ALPHABET, max_size=14),
)
def test_fuzz_socle_commands(command, text):
    assert_contract([command, text])


NUMBERS = (
    st.integers(-20, 20) | st.integers() | st.floats() | st.text("0123456789/-.e", max_size=6)
)


@FUZZ
@given(
    JSON_VALUES
    | st.fixed_dictionaries(
        {
            "points": JSON_VALUES | st.lists(st.lists(NUMBERS, max_size=4), max_size=4),
            "degree": JSON_VALUES | st.integers(-2, 40),
        },
        optional={"weights": JSON_VALUES | st.lists(NUMBERS, max_size=4)},
    )
)
def test_fuzz_synth(spec):
    assert_contract(["synth", json.dumps(spec)])


@FUZZ
@given(st.integers(), st.integers())
def test_fuzz_zdiagram(n, d):
    assert_contract(["zdiagram", str(n), str(d)])
