"""Tests of the benchmark itself: seeded inputs, the tracer, digests.

    python -m pytest -q perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import soclekit  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from speed import CAL_REF_S, IN_PROCESS, Timeline  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _inputs(name, seed):
    return [(op.label, op.input) for op in run.build_ops(name, soclekit, seed, ROOT)]


@pytest.mark.parametrize("name", ["verify-paper", "envelope", "structured", "cli-cold"])
def test_inputs_are_a_function_of_the_seed(name):
    first = _inputs(name, 3)
    assert first == _inputs(name, 3)
    assert first != _inputs(name, 4)


def _bindings():
    """Every global of every loaded soclekit module, plus Socle.parse."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "soclekit" or name.startswith("soclekit.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    out[("Socle", "parse")] = soclekit.Socle.__dict__["parse"]
    return out


def test_tracer_rebinds_every_reference_and_restores_them():
    from soclekit import apolarity, cli, strata  # cli holds its own references

    before = _bindings()
    original = apolarity.hilbert_function
    tracer = Tracer()
    with tracer:
        for holder in (soclekit, apolarity, strata, cli):
            assert holder.hilbert_function is not original
            assert holder.hilbert_function.__wrapped__ is original
        g = soclekit.Socle.parse("y0^2*y1 + y1^3 + y2^3")
        strata.classify(g)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    snap = tracer.snapshot()
    assert snap["calls"]["apolarity.Socle.parse"] == 1
    assert snap["calls"]["strata.classify"] == 1
    assert snap["calls"]["apolarity.hilbert_function"] >= 1
    assert snap["cells"] > 0 and snap["max_bits"] > 0
    assert set(snap["calls"]) == {
        f"{k.lstrip('_')}.{f}" for k, fs in TARGETS.items() for f in fs
    }


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    g = soclekit.Socle.parse("y0^3 + y1^3 + y2^3 + y0*y1*y2")
    with tracer:
        soclekit.koszul_betti(g)
    snap = tracer.snapshot()
    assert snap["calls"]["resolution.quotient_bases"] == 1
    assert snap["calls"]["linalg.rref"] > 0
    assert all(v >= 0 for v in snap["self_s"].values())


def test_traced_and_untraced_digests_are_equal():
    ops = run.build_ops("structured", soclekit, 5, ROOT)[:12]
    timeline = Timeline()
    plain = run.Pass(ops, timeline)
    tracer = Tracer()
    traced = run.Pass(ops, timeline, tracer)
    assert not plain.failures and not traced.failures
    assert plain.digest == traced.digest
    assert tracer.snapshot()["calls"]["apolarity.hilbert_function"] >= 12


def test_traced_cli_child_matches_the_plain_cli():
    plain_ops = run.build_ops("cli-cold", soclekit, 5, ROOT)
    traced_ops = run.build_ops("cli-cold", soclekit, 5, ROOT, traced=True)
    picks = [0, len(plain_ops) - 1]  # one analyze, one malformed input
    timeline = Timeline()
    plain = run.Pass([plain_ops[k] for k in picks], timeline)
    traced = run.Pass([traced_ops[k] for k in picks], timeline)
    assert not plain.failures and not traced.failures
    assert plain.digest == traced.digest
    trace = run._child_trace(traced.outputs[0][2])
    assert trace["calls"]["apolarity.Socle.parse"] == 1
    assert trace["import_s"] > 0


def test_cli_requests_cover_every_exit_class():
    codes = {code for _, _, code in workloads._cli_requests(soclekit, 9)}
    assert codes == {0, 2, 3}


def test_splits_cut_ops_the_same_way_in_every_pass_and_restore():
    from soclekit import resolution

    before = dict(vars(resolution))
    ops = run.build_ops("envelope", soclekit, 2, ROOT)[:3]
    timeline = Timeline()
    splits = run.Splits(resolution)
    first = run.Pass(ops, timeline, splits=splits)
    second = run.Pass(ops, timeline, splits=splits)
    assert all(vars(resolution)[k] is v for k, v in before.items())
    assert first.digest == second.digest == run.Pass(ops, timeline).digest
    assert [len(s) for s in first.spans] == [len(s) for s in second.spans]
    assert all(len(s) > 10 for s in first.spans)
    for spans in first.spans:  # segments are ordered and do not overlap
        flat = [t for span in spans for t in span]
        assert flat == sorted(flat)
    times = run.op_times([first, second], timeline, IN_PROCESS)
    assert len(times) == 3 and all(t > 0 for t in times)


def test_timeline_scales_by_nearby_calibration_samples():
    timeline = Timeline()
    timeline.times = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    timeline.durations = [CAL_REF_S] * 3 + [2 * CAL_REF_S] * 3
    assert timeline.scaled(1.5, 2.5) == 1.0
    assert timeline.scaled(10.5, 11.5, sensitivity=1) == 0.5
    assert timeline.scaled(10.5, 11.5, sensitivity=0.5) == 0.5**0.5
    # too few samples in the window: the nearest ones are used
    assert timeline.factor(13.0, 13.1, sensitivity=1) == 0.5
    assert timeline.factor(-5.0, -4.9, sensitivity=1) == 1.0
    assert abs(timeline.overall(sensitivity=1) - 2 / 3) < 1e-12
