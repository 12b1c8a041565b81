import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

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


def test_analyze_inconsistency_is_a_verification_failure(monkeypatch):
    from soclekit import resolution

    monkeypatch.setattr(resolution, "hf_from_betti", lambda table: (0,))
    code, out, err = run_cli(["analyze", "y0^3+y1^3+y2^3"])
    assert code == 1 and out == ""
    assert err == "verification error: internal inconsistency between table and ranks\n"


def test_negative_homology_is_a_verification_failure(monkeypatch):
    from soclekit import resolution

    monkeypatch.setattr(resolution, "rank_of_int_rows", lambda *args: 10**6)
    code, _, err = run_cli(["betti", "y0^3+y1^3"])
    assert code == 1
    assert err.startswith("verification error: negative homology at ")
    assert "Traceback" not in err


def test_analyze_zero_socle_is_input_error():
    code, _, err = run_cli(["analyze", "0"])
    assert code == 2
    assert "zero socle" in err


def test_analyze_parse_error_carries_position():
    code, _, err = run_cli(["analyze", "y0^2 + &"])
    assert code == 2
    assert "column 8" in err


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
    ['{"points":[[1,2]],"degree":100000000}', '{"points":[[1,2,3,4,5,6,7]],"degree":60}'],
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


def test_classify_json():
    code, out, _ = run_cli(["classify", "y0^4", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["stratum"] == "veronese"
    assert payload["dimension"] == 2


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
