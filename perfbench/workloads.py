"""The four benchmark workloads: seeded inputs, one operation per input,
and the exact checks every operation's output must pass.

A workload is a list of ``Op`` built from the seed alone; every pass runs
the same list in order, one operation at a time (a closed loop with a
single caller).  ``Op.run`` calls into the package and returns a
canonical, hashable summary of the outputs; ``Op.check`` verifies that
summary exactly (integers and fractions only, no stored floats) and
returns the name of the first failed check or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable

VERIFY_EXTRA_SEEDS = 10
VERIFY_EXTRA = ("C1", "C2", "C4", "C5", "C6", "C7", "C9", "C12", "C13")

# Per-pass composition of ``envelope``.  With 22 ops the median lies at
# position 10.5 and the 90th percentile at 18.9 (counting from 0), that is
# inside the (2, 6) group (positions 4-12) and in the middle of the (3, 6)
# group (17-21): never on a boundary between two groups of very different
# cost, so the percentiles do not flip between groups from seed to seed.
ENVELOPE_MIX = (((1, 6), 4), ((2, 6), 9), ((3, 5), 4), ((3, 6), 5))

POWER_SUM_SHAPES = ((2, 3), (2, 4), (3, 3), (3, 4), (2, 6))
# Inputs per (shape, number of points) and per binary degree: enough that
# the pass time varies by a few per cent, not tens, from seed to seed.
POWER_SUM_REPS = 4
BINARY_REPS = 4
# Trial division in ``strata._binary_roots`` is linear in the extreme
# coefficients of the apolar generator, which are about the products of
# the point coordinates.  Bounding those products keeps that cost in the
# tail of ``structured`` without letting one seed dominate a pass.
BINARY_COORD = 20
BINARY_PRODUCT_CAP = 2 * 10**4


@dataclass
class Op:
    """One operation: a label, the call into the package, and its check."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    input: object  # what the package receives: a socle, argv, or a seed
    # The part of the output that must be identical between runs and
    # commits (the CLI's stderr, which carries the child's trace, is not).
    digest_key: Callable[[object], object] = lambda out: out


# ---------------------------------------------------------------------------
# shared helpers


def _betti_checks(sk, g, h, table) -> str | None:
    """The structural checks every computed betti table must pass."""
    if h[0] != 1 or h[g.d] != 1 or any(h[e] != h[g.d - e] for e in range(g.d + 1)):
        return "hilbert function not palindromic"
    if table is None:
        return None
    if not sk.check_duality(table):
        return "betti duality"
    if not sk.check_euler(table):
        return "betti euler identities"
    if sk.hf_from_betti(table) != h:
        return "hf_from_betti differs from catalecticant ranks"
    return None


def _distinct_points(rng: random.Random, n: int, bound: int, m: int) -> list[list[int]]:
    """m projectively distinct integer points of P^n with coordinates in
    [-bound, bound].  Powers of degree d >= m - 1 of distinct points are
    linearly independent, so no weighted power sum of them collapses to 0."""
    seen: set[tuple[int, ...]] = set()
    pts = []
    while len(pts) < m:
        p = [rng.randint(-bound, bound) for _ in range(n + 1)]
        c = 0
        for v in p:
            c = gcd(c, v)
        if not c:
            continue
        if next(v for v in p if v) < 0:
            c = -c
        key = tuple(v // c for v in p)
        if key not in seen:
            seen.add(key)
            pts.append(p)
    return pts


# ---------------------------------------------------------------------------
# verify-paper


def verify_paper(sk, seed: int) -> list[Op]:
    """The 13-criterion acceptance suite, one op per criterion, then the
    quick criteria again for ``VERIFY_EXTRA_SEEDS`` seeds derived from
    ``seed``.

    A criterion's cost varies by up to a factor of three from seed to
    seed, so with one seed the op latency percentiles would each be one
    criterion at one seed.  The quick criteria (``VERIFY_EXTRA``, each
    under 60 ms) run for 11 seeds in all, which makes 103 ops per pass:
    the median falls inside the 11 runs of C6 and the 90th percentile
    inside those of C5, away from the boundaries between criteria.
    C10 (1000 socles, about four seconds) and the slower criteria run
    once.
    """
    from soclekit import verify

    rng = random.Random(f"verify-paper:{seed}")
    runs = [(seed, "")] + [
        (rng.randrange(2**31), f"#{k}") for k in range(1, VERIFY_EXTRA_SEEDS + 1)
    ]
    ops = []
    for run_seed, suffix in runs:
        for ident, fn in verify.CHECKS:
            if suffix and ident not in VERIFY_EXTRA:
                continue

            def run(fn=fn, run_seed=run_seed):
                r = fn(run_seed)
                return (r.ident, r.passed, r.actual)

            def check(out, ident=ident):
                got_ident, passed, _ = out
                if got_ident != ident:
                    return f"criterion reported as {got_ident}"
                return None if passed else f"criterion {ident} failed"

            ops.append(Op(ident + suffix, run, check, run_seed))
    return ops


# ---------------------------------------------------------------------------
# envelope


def envelope(sk, seed: int) -> list[Op]:
    """Dense random socles at the top of the betti envelope."""
    rng = random.Random(f"envelope:{seed}")
    ops = []
    for (n, d), count in ENVELOPE_MIX:
        for k in range(count):
            g = sk.apolarity.random_socle(rng, n, d)

            def run(g=g):
                h = sk.hilbert_function(g)
                t = sk.koszul_betti(g)
                checks = (
                    sk.check_duality(t),
                    sk.check_euler(t),
                    sk.hf_from_betti(t) == h,
                )
                return (h, t.entries, checks)

            def check(out, g=g):
                h, entries, checks = out
                if not all(checks):
                    return "package self-checks failed"
                table = sk.BettiTable(g.n, g.d, entries)
                return _betti_checks(sk, g, h, table)

            ops.append(Op(f"({n},{d})#{k}", run, check, g))
    return ops


# ---------------------------------------------------------------------------
# structured


def _power_sum_ops(sk, rng: random.Random) -> list[Op]:
    ops = []
    for n, d in POWER_SUM_SHAPES:
        for m in range(1, 5):
            for rep in range(POWER_SUM_REPS):
                pts = _distinct_points(rng, n, 3, m)
                weights = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in pts]
                g = sk.synth_power_sum(pts, weights, d)
                ops.append(
                    _structured_op(sk, g, f"power-sum ({n},{d}) m={m}#{rep}", rank_at_most=m)
                )
    return ops


def _binary_points(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """m projectively distinct points (p : q), p, q nonzero and within +-20."""
    while True:
        pts: set[tuple[int, int]] = set()
        while len(pts) < m:
            p = rng.randint(-BINARY_COORD, BINARY_COORD)
            q = rng.randint(-BINARY_COORD, BINARY_COORD)
            if not p or not q:
                continue
            c = gcd(p, q)
            p, q = p // c, q // c
            if p < 0:
                p, q = -p, -q
            pts.add((p, q))
        prod_p = prod_q = 1
        for p, q in pts:
            prod_p *= abs(p)
            prod_q *= abs(q)
        if prod_p <= BINARY_PRODUCT_CAP and prod_q <= BINARY_PRODUCT_CAP:
            return sorted(pts)


def _binary_ops(sk, rng: random.Random) -> list[Op]:
    ops = []
    for d in range(3, 13):
        for rep in range(BINARY_REPS):
            # a fixed spread of ranks per degree, so that the seed picks
            # points and weights but not how costly the mix is
            m = 1 + rep * (d // 2 - 1) // (BINARY_REPS - 1)
            pts = _binary_points(rng, m)
            weights = [Fraction(rng.choice((1, -1)) * rng.randint(1, 9)) for _ in pts]
            g = sk.synth_power_sum([list(p) for p in pts], weights, d)
            ops.append(
                _structured_op(
                    sk, g, f"binary d={d} m={m}#{rep}",
                    expect_label=f"binary-span-a{m}", rank_at_most=m,
                )
            )
    return ops


def _transform(sk, g, rng: random.Random):
    """g under a seeded permutation and nonzero scaling of the variables.

    Both act on every catalecticant by permuting and rescaling rows and
    columns, so ranks, betti tables and stratum labels are unchanged.
    """
    perm = list(range(g.n + 1))
    rng.shuffle(perm)
    scale = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in perm]
    coeffs = {}
    for mono, c in g.coeffs.items():
        new = [0] * (g.n + 1)
        for i, a in enumerate(mono):
            new[perm[i]] = a
            c *= Fraction(scale[i]) ** a
        coeffs[tuple(new)] = c
    return sk.Socle(g.n, g.d, coeffs)


def _witness_ops(sk, rng: random.Random) -> list[Op]:
    ops = []
    for d in range(1, 5):
        for label, g in sk.witness_socles(2, d).items():
            for rep in range(2):
                ops.append(
                    _structured_op(
                        sk, _transform(sk, g, rng), f"witness d={d} {label}#{rep}",
                        expect_label=label,
                    )
                )
    return ops


def _structured_op(sk, g, label: str, expect_label=None, rank_at_most=None) -> Op:
    from soclekit.resolution import MAX_D, MAX_N
    from soclekit.strata import catalog_supported

    def run():
        ideal = sk.ApolarIdeal.of(g)
        h = sk.hilbert_function(g)
        stratum = waring = table = None
        if catalog_supported(g.n, g.d):
            entry = sk.classify(g)
            stratum = entry.label if entry else "unclassified"
        if g.n == 1:
            rep = sk.binary_waring(g)
            waring = (rep.kind, rep.points, rep.weights)
        if g.n <= MAX_N and g.d <= MAX_D:
            table = sk.koszul_betti(g)
        dims = tuple(len(piece) for piece in ideal.pieces)
        return (h, dims, stratum, waring, None if table is None else table.entries)

    def check(out):
        h, dims, stratum, waring, entries = out
        table = None if entries is None else sk.BettiTable(g.n, g.d, entries)
        bad = _betti_checks(sk, g, h, table)
        if bad:
            return bad
        if any(dims[e] != comb(g.n + e, g.n) - h[e] for e in range(g.d + 1)):
            return "apolar piece dimensions differ from dim S_e - h_e"
        if rank_at_most is not None and max(h) > rank_at_most:
            return "Hilbert function exceeds the number of points"
        if expect_label is not None and stratum != expect_label:
            return f"classified as {stratum}, expected {expect_label}"
        if waring is not None:
            kind, points, weights = waring
            if kind != "points":
                return f"binary Waring returned {kind}"
            rebuilt = sk.synth_power_sum([list(p) for p in points], list(weights), g.d)
            if rebuilt != g:
                return "Waring decomposition does not rebuild g"
        return None

    return Op(label, run, check, g)


def structured(sk, seed: int) -> list[Op]:
    """Low-rank and special socles: power sums, binary forms, witnesses."""
    rng = random.Random(f"structured:{seed}")
    return _power_sum_ops(sk, rng) + _binary_ops(sk, rng) + _witness_ops(sk, rng)


# ---------------------------------------------------------------------------
# cli-cold


def _cli_requests(sk, seed: int) -> list[tuple[str, list[str], int]]:
    """(kind, argv, expected exit code) for one pass of ``cli-cold``."""
    rng = random.Random(f"cli-cold:{seed}")

    def socle(n, d):
        return sk.apolarity.random_socle(rng, n, d).text()

    pts = _distinct_points(rng, 2, 4, rng.randint(2, 5))
    spec = json.dumps({"points": pts, "degree": rng.randint(3, 6)})
    binary = sk.synth_power_sum(
        [list(p) for p in _binary_points(rng, 3)], [1, -2, 3], 6
    ).text()
    return [
        ("analyze", ["analyze", socle(2, 3)], 0),
        ("analyze", ["analyze", socle(1, 5), "--format", "json"], 0),
        ("analyze", ["analyze", socle(2, 4), "--format", "json"], 0),
        ("classify", ["classify", socle(2, 4)], 0),
        ("classify", ["classify", binary, "--format", "json"], 0),
        ("betti", ["betti", socle(3, 3)], 0),
        ("betti", ["betti", socle(2, 4), "--format", "json"], 0),
        ("synth", ["synth", spec], 0),
        ("zdiagram", ["zdiagram", "2", str(rng.randint(1, 3)), "--format", "svg"], 0),
        ("mrtable", ["mrtable"] + (["--format", "json"] if rng.random() < 0.5 else []), 0),
        ("envelope", ["betti", socle(4, 2)], 3),
        ("envelope", ["classify", socle(3, 2)], 3),
        ("envelope", ["analyze", socle(1, 7)], 3),
        ("malformed", ["analyze", "y0^^3 + y1"], 2),
        ("malformed", ["betti", socle(2, 2) + " +"], 2),
        ("malformed", ["classify", "0*y0^2"], 2),
        ("malformed", ["synth", json.dumps({"points": [[0, 0]], "degree": 3})], 2),
        ("malformed", ["synth", "{points: 3}"], 2),
    ]


def _in_process_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``soclekit.cli.main`` run in this process."""
    from soclekit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI contract has no code for an escaped exception
            code = 1
    return code, out.getvalue()


def cli_cold(sk, seed: int, root: str, child_argv: list[str]) -> list[Op]:
    """Sequential cold CLI children; each must match the exit-code contract
    and print exactly what the same call prints in-process."""
    env = child_env(root)
    ops = []
    for kind, argv, want_code in _cli_requests(sk, seed):
        ref_code, ref_out = _in_process_cli(argv)

        def run(argv=argv):
            proc = subprocess.run(
                child_argv + argv, cwd=root, env=env, capture_output=True,
                text=True, timeout=120,
            )
            return (proc.returncode, proc.stdout, proc.stderr)

        def check(out, want_code=want_code, ref_code=ref_code, ref_out=ref_out):
            code, stdout = out[0], out[1]
            if code != want_code:
                return f"exit code {code}, contract says {want_code}"
            if ref_code != want_code:
                return f"in-process exit code {ref_code}, contract says {want_code}"
            if stdout != ref_out:
                return "stdout differs from the in-process output"
            if want_code == 0:
                return _cli_semantic_check(sk, argv, stdout)
            return None if stdout == "" else "an error exit printed to stdout"

        ops.append(Op(f"{kind}:{argv[0]}", run, check, argv, lambda out: out[:2]))
    return ops


def _cli_semantic_check(sk, argv, stdout) -> str | None:
    """Exact checks on the JSON reports, beyond equality with in-process."""
    if "--format" not in argv or argv[argv.index("--format") + 1] != "json":
        return None if stdout.strip() else "empty output"
    payload = json.loads(stdout)
    if argv[0] == "analyze":
        g = sk.Socle.parse(argv[1])
        h = tuple(payload["hilbert_function"])
        table = sk.BettiTable(g.n, g.d, tuple(tuple(t) for t in payload["betti"]["entries"]))
        return _betti_checks(sk, g, h, table)
    if argv[0] == "betti":
        g = sk.Socle.parse(argv[1])
        table = sk.BettiTable(g.n, g.d, tuple(tuple(t) for t in payload["entries"]))
        return _betti_checks(sk, g, sk.hf_from_betti(table), table)
    if argv[0] == "classify":
        return None if payload["stratum"] == "binary-span-a3" else "binary stratum"
    return None


def child_env(root: str) -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {
    "verify-paper": verify_paper,
    "envelope": envelope,
    "structured": structured,
    "cli-cold": cli_cold,
}

# What the setup probe imports: the module a user of the workload loads first.
SETUP_MODULE = {
    "verify-paper": "soclekit",
    "envelope": "soclekit",
    "structured": "soclekit",
    "cli-cold": "soclekit.cli",
}

# Where long ops are cut into segments, so that the machine's speed can be
# sampled inside them: at every call that this module makes into the rest
# of the package (see ``run.Splits``).  ``verify-paper``'s C10 is one 4-second
# call; an ``envelope`` op at (3, 6) is half a second of ``koszul_betti``.
SPLIT_MODULE = {"verify-paper": "soclekit.verify", "envelope": "soclekit.resolution"}

# Workloads whose ops are child processes; their times are scaled with the
# child-process sensitivity (see ``speed.py``).
CHILD_PROCESS = {"cli-cold"}
