"""Acceptance suite: runs the full verification registry and asserts
every criterion row.

The same registry backs the CLI's ``verify-paper`` subcommand; a criterion
is listed here exactly once so the pass/fail report has one line per row
(`pytest -v` shows them individually).
"""

import pytest

from soclekit import verify

_RESULTS = {}


@pytest.fixture(scope="module")
def results():
    if not _RESULTS:
        for r in verify.run_all():
            _RESULTS[r.ident] = r
    return _RESULTS


@pytest.mark.parametrize("ident", [ident for ident, _ in verify.CHECKS])
def test_criterion(results, ident):
    r = results[ident]
    assert r.passed, (
        f"{r.ident} {r.name}\n  expected: {r.expected}\n  actual:   {r.actual}"
    )


def test_registry_is_complete():
    assert [ident for ident, _ in verify.CHECKS] == [f"C{k}" for k in range(1, 14)]


def test_quartic_catalog_computes_each_hilbert_function_once(monkeypatch):
    from soclekit import strata

    witnesses = strata.witness_socles(2, 4)
    old = [
        (entry.label if entry else None, hf)
        for entry, hf in ((strata.classify(g), strata.hilbert_function(g)) for g in witnesses.values())
    ]
    calls = []
    original = verify.hilbert_function

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(verify, "hilbert_function", counted)
    monkeypatch.setattr(strata, "hilbert_function", counted)
    strata.witness_socles(2, 4)
    assert not calls  # the witnesses are fixed socles, drawn by no search
    r = verify.check_quartic_catalog(verify.DEFAULT_SEED)
    assert len(calls) == len(witnesses) == 8
    assert r.passed and r.actual.startswith(f"({old}, ")


def test_property_suite_audits_the_forced_ranks(monkeypatch):
    from soclekit import resolution

    audited = []
    original = verify._forced_ranks_hold
    monkeypatch.setattr(verify, "_forced_ranks_hold", lambda g: audited.append(g) or original(g))
    assert verify.check_property_suite(verify.DEFAULT_SEED).passed
    assert len(audited) == verify.FORCED_RANK_AUDITS == 50
    # binary socles alone: koszul_betti ranks nothing, so an elimination
    # that disagrees with h is seen by the audit alone
    monkeypatch.setattr(verify, "PROPERTY_COUNTS", {(1, 3): 60, (1, 4): 40})
    monkeypatch.setattr(resolution, "rank_of_int_rows", lambda rows, width: len(rows) + 1)
    r = verify.check_property_suite(verify.DEFAULT_SEED)
    assert not r.passed and r.actual.startswith("(100, ['forced-rank ")
