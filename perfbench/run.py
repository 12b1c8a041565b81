#!/usr/bin/env python3
"""soclekit benchmark: seeded workloads, exact output checks, per-layer trace.

Run from the root of a source checkout (the package is imported from
``./src``; nothing needs to be built or installed):

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20        # every workload

Each run builds its inputs from ``--seed``, pins itself to one CPU, warms
up, then repeats timed passes over the same inputs for about ``--seconds``.
A fixed calibration routine runs every 0.1 s between the steps of a pass;
every measured interval is scaled by the calibration time next to it and
reported in reference-speed seconds (see ``speed.py``), since the shared
host's speed drifts by up to 2x for minutes at a time.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (see README.md).  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from cli_child import MARKER  # noqa: E402
from speed import CHILD, IN_PROCESS, Timeline  # noqa: E402
from tracer import Tracer, target_labels  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MIN_PASSES = 2
WARMUP_SECONDS = 1.0
SETUP_PROBES = 15
CRITERIA = tuple(f"C{k}" for k in range(1, 14))
# A fresh interpreter imports the workload's entry module and makes its
# first call, so lazy set-up inside the package would be counted here.
PROBE = """
import sys
from time import perf_counter
t0 = perf_counter()
if sys.argv[1] == "soclekit.cli":
    from soclekit import cli
    cli.build_parser()
else:
    import soclekit
    soclekit.hilbert_function(soclekit.Socle.parse("y0^2 + y1^2"))
print(perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package(root: str):
    """Import soclekit from the checkout's ``src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "soclekit", "__init__.py")):
        fail(f"no src/soclekit under {root}: run from the root of a soclekit checkout")
    sys.path.insert(0, src)
    import soclekit

    where = os.path.realpath(soclekit.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        fail(f"soclekit was imported from {where}, not from {src}")
    return soclekit


# ---------------------------------------------------------------------------
# metadata


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str) -> str:
    """HEAD of the checkout read from ``.git`` directly; 'unknown' without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(sk, root: str, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": sk.kernel_backend,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# measurement


def pin_to_one_cpu() -> int | None:
    """Run this process and its children on one CPU, so that calibration
    samples read the speed of the CPU that the measured work runs on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_seconds(root: str, module: str, timeline: Timeline) -> tuple[float, float]:
    """Median over fresh interpreters of import plus first call, in
    reference-speed seconds, and the same median unscaled.

    The probe reports its own time; it is scaled by the calibration
    samples taken between the probes, around the child's interval.
    """
    env = workloads.child_env(root)
    spans = []
    for k in range(SETUP_PROBES + 1):
        timeline.sample()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, module], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        t1 = perf_counter()
        if k:  # the first probe may still be writing bytecode caches
            spans.append((float(proc.stdout.strip()), t0, t1))
    timeline.sample()
    return (
        statistics.median(raw * timeline.factor(t0, t1, CHILD) for raw, t0, t1 in spans),
        statistics.median(raw for raw, _, _ in spans),
    )


class Splits:
    """Cuts at the calls an op makes into the functions that ``module``
    imports from the rest of the package.

    The cuts split a long op (``verify-paper``'s C10 runs 1000 socles in
    one call) into segments, so that the machine's speed can be sampled
    between them and each segment scaled by the speed it ran at.  With
    the same inputs every pass makes the same calls in the same order, so
    segment k of one pass is the same work as segment k of the next.  A
    wrapper costs two ``perf_counter`` calls and a list append, plus a
    calibration sample when one is due; the sample lies between two
    segments and is in neither.
    """

    def __init__(self, module) -> None:
        self.module = module
        self.cuts: list[tuple[float, float]] = []
        self._saved: dict[str, object] = {}

    def install(self, timeline: Timeline) -> None:
        cuts = self.cuts
        for attr, value in list(vars(self.module).items()):
            if (
                inspect.isfunction(value)
                and value.__module__.startswith("soclekit")
                and value.__module__ != self.module.__name__
            ):

                def cut(*args, _fn=value, **kwargs):
                    end = perf_counter()
                    timeline.maybe()
                    cuts.append((end, perf_counter()))
                    return _fn(*args, **kwargs)

                self._saved[attr] = value
                setattr(self.module, attr, cut)

    def restore(self) -> None:
        for attr, value in self._saved.items():
            setattr(self.module, attr, value)
        self._saved.clear()


class Pass:
    """Timings, output digest and failures of one pass over the ops.

    ``spans[k]`` lists op k's segments as raw (start, end) pairs: one pair
    for the whole op, or one per segment between ``Splits`` cuts.
    """

    def __init__(self, ops, timeline: Timeline, tracer: Tracer | None = None,
                 splits: Splits | None = None):
        self.spans: list[list[tuple[float, float]]] = []
        self.failures: list[str] = []
        self.outputs: list = []
        digest = hashlib.sha256()
        cuts = splits.cuts if splits is not None else []
        if tracer is not None:
            tracer.install()
        if splits is not None:
            splits.install(timeline)
        try:
            for op in ops:
                timeline.maybe()
                first = len(cuts)
                t0 = perf_counter()
                try:
                    out = op.run()
                    bad = None
                except Exception as exc:  # an op that raises is a failed op
                    out = ("raised", type(exc).__name__, str(exc))
                    bad = f"raised {type(exc).__name__}: {exc}"
                t1 = perf_counter()
                bounds = [(None, t0), *cuts[first:], (t1, None)]
                self.spans.append([(a[1], b[0]) for a, b in zip(bounds, bounds[1:])])
                bad = bad or op.check(out)
                del cuts[first:]  # with any cuts made by the check
                if bad:
                    self.failures.append(f"{op.label}: {bad}")
                self.outputs.append(out)
                digest.update(repr(op.digest_key(out)).encode())
                digest.update(b"\n")
        finally:
            if splits is not None:
                splits.restore()
            if tracer is not None:
                tracer.restore()
        # unscaled whole-op times, calibration samples inside an op included
        self.raw_times = [spans[-1][1] - spans[0][0] for spans in self.spans]
        self.digest = digest.hexdigest()

    def op_times(self, timeline: Timeline, sensitivity: float) -> list[float]:
        """Each op's time in this pass, in reference-speed seconds."""
        return [
            sum(timeline.scaled(t0, t1, sensitivity) for t0, t1 in spans)
            for spans in self.spans
        ]


def op_times(passes: list[Pass], timeline: Timeline, sensitivity: float) -> list[float]:
    """Each op's time in reference-speed seconds: the sum over its
    segments of the segment's median over the passes.

    Passes in which an op made a different number of calls than in most
    (a cold cache in the first pass) are left out for that op.
    """
    out = []
    for k in range(len(passes[0].spans)):
        runs = [p.spans[k] for p in passes]
        common = statistics.mode(len(r) for r in runs)
        runs = [r for r in runs if len(r) == common]
        out.append(sum(
            statistics.median(timeline.scaled(t0, t1, sensitivity) for t0, t1 in column)
            for column in zip(*runs)
        ))
    return out


def measure(ops, seconds: float, timeline: Timeline, traced_ops=None,
            splits: Splits | None = None):
    """Untimed warm-up, then passes for about ``seconds``.

    The warm-up runs the first ops of a pass for about ``WARMUP_SECONDS``,
    enough to fill the package's one cache (exceptional slopes, used by C9
    and ``semistable_exists``) without paying for a whole ``verify-paper``
    pass.  A new pass starts only if a pass as long as the median one so
    far still ends within ``seconds``; there are at least ``MIN_PASSES``.
    With ``traced_ops``, untraced and traced passes alternate and both
    lists are returned.
    """
    start = perf_counter()
    for op in ops:
        if perf_counter() - start > WARMUP_SECONDS:
            break
        Pass([op], timeline)
    plain: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    start = perf_counter()
    lengths: list[float] = []
    while len(plain) < MIN_PASSES or (
        perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        t0 = perf_counter()
        plain.append(Pass(ops, timeline, splits=splits))
        if traced_ops is not None:
            tracer = Tracer()
            traced.append((Pass(traced_ops, timeline, tracer), tracer))
        lengths.append(perf_counter() - t0)
    timeline.sample()  # the last op's right-hand neighbour
    return plain, traced


def end_to_end(passes: list[Pass], timeline: Timeline, sensitivity: float,
               setup_s: float, peak_rss_kb: int) -> dict:
    times = op_times(passes, timeline, sensitivity)
    wall = sum(times)
    return {
        "wall_s": wall,
        "ops_per_s": len(times) / wall,
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_kb / 1024,
        "setup_s": setup_s,
    }


def per_layer(name: str, ops, plain: list[Pass], traced, timeline: Timeline,
              sensitivity: float) -> dict:
    """Per-pass means of the traced passes, plus untraced criterion times.

    Self times and import times are totals, not single intervals; they
    are scaled by the run's median calibration factor.
    """
    npass = len(traced)
    scale = timeline.overall()  # self times are spent in this process
    calls = dict.fromkeys(target_labels(), 0)
    self_s = dict.fromkeys(target_labels(), 0.0)
    cells = max_bits = 0
    import_s = []
    for p, tracer in traced:
        snaps = [tracer.snapshot()]
        if name == "cli-cold":
            # a child that died before tracing is already a failed op
            snaps = [s for s in map(_child_trace, (out[2] for out in p.outputs)) if s]
            import_s += [s["import_s"] for s in snaps]
        for s in snaps:
            for label in calls:
                calls[label] += s["calls"][label]
                self_s[label] += s["self_s"][label]
            cells += s["cells"]
            max_bits = max(max_bits, s["max_bits"])
    metrics = {}
    for label in calls:
        metrics[f"{label}.calls"] = (calls[label] / npass, "count")
        metrics[f"{label}.self_s"] = (self_s[label] / npass * scale, "s")
    metrics["kernels.cells"] = (cells / npass, "count")
    metrics["kernels.max_bits"] = (max_bits, "bits")
    quiet = dict(zip((op.label for op in ops), op_times(plain, timeline, sensitivity)))
    for ident in CRITERIA:
        metrics[f"verify.{ident}.s"] = (quiet.get(ident, 0.0), "s")
    metrics["cli.import_s"] = (
        statistics.median(import_s) * timeline.overall(CHILD) if import_s else 0.0, "s")
    nops = len(ops)
    metrics["apolarity.hilbert_function.calls_per_op"] = (
        calls["apolarity.hilbert_function"] / npass / nops, "calls/op")
    metrics["resolution.koszul_betti.calls_per_op"] = (
        calls["resolution.koszul_betti"] / npass / nops, "calls/op")

    def pass_wall(p: Pass) -> float:
        return sum(p.op_times(timeline, sensitivity))

    # whole passes on both sides: traced passes are not split
    metrics["trace.overhead_s"] = (
        statistics.median(pass_wall(p) for p, _ in traced)
        - statistics.median(pass_wall(p) for p in plain),
        "s",
    )
    return metrics


def _child_trace(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


# ---------------------------------------------------------------------------
# entry points


def build_ops(name: str, sk, seed: int, root: str, traced: bool = False):
    if name == "cli-cold":
        child = (
            [sys.executable, os.path.join(HERE, "cli_child.py")]
            if traced else [sys.executable, "-m", "soclekit.cli"]
        )
        return workloads.cli_cold(sk, seed, root, child)
    return workloads.WORKLOADS[name](sk, seed)


def run_workload(args) -> tuple[dict, dict]:
    root = os.getcwd()
    sk = load_package(root)
    meta = run_metadata(sk, root, args)
    meta["pinned_cpu"] = pin_to_one_cpu()
    ops = build_ops(args.workload, sk, args.seed, root)
    traced_ops = None
    if args.trace:
        traced_ops = ops if args.workload != "cli-cold" else build_ops(
            args.workload, sk, args.seed, root, traced=True)
    timeline = Timeline()
    sensitivity = CHILD if args.workload in workloads.CHILD_PROCESS else IN_PROCESS
    setup_s, raw_setup_s = setup_seconds(root, workloads.SETUP_MODULE[args.workload], timeline)
    split_module = workloads.SPLIT_MODULE.get(args.workload)
    splits = Splits(importlib.import_module(split_module)) if split_module else None
    plain, traced = measure(ops, args.seconds, timeline, traced_ops, splits)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss
    all_passes = plain + [p for p, _ in traced]
    digests = {p.digest for p in all_passes}
    failures = [f for p in all_passes for f in p.failures]
    attempted = sum(len(p.spans) for p in all_passes)
    meta.update(
        passes=len(plain),
        pass_walls=[round(sum(p.op_times(timeline, sensitivity)), 4) for p in plain],
        raw_pass_walls=[round(sum(p.raw_times), 4) for p in plain],
        raw_wall_s=sum(statistics.median(c) for c in zip(*(p.raw_times for p in plain))),
        raw_setup_s=raw_setup_s,
        calibration_ms=[round(1000 * q, 4) for q in statistics.quantiles(
            timeline.durations, n=4, method="inclusive")],
        calibration_samples=len(timeline.durations),
        traced_passes=len(traced),
        ops_per_pass=len(ops),
        op_samples=len(plain) * len(ops),
        digest=sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        failures=failures[:10],
    )
    if args.trace:
        metrics = per_layer(args.workload, ops, plain, traced, timeline, sensitivity)
    else:
        metrics = {
            k: (v, E2E_UNITS[k])
            for k, v in end_to_end(plain, timeline, sensitivity, setup_s, peak_rss_kb).items()
        }
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return meta, result


def print_result(meta: dict, result: dict) -> None:
    print(f"workload {meta['workload']}  seed {meta['seed']}  backend {meta['kernel_backend']}"
          f"  passes {meta['passes']} (+{meta['traced_passes']} traced)"
          f"  ops/pass {meta['ops_per_pass']}  op samples {meta['op_samples']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  correct {result['correct']}  attempted {result['attempted']}"
          f"  failed {result['failed']}  digest {meta['digest']}")
    for line in meta["failures"]:
        print(f"  FAILED {line}")
    print("meta " + json.dumps(meta))


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> None:
    """Every workload in its own process, one after the other."""
    load_package(os.getcwd())
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    everything = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        meta = json.loads(next(x for x in lines if x.startswith("meta "))[5:])
        result = json.loads(lines[-1])
        everything[name] = {"meta": meta, "result": result}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if args.out:
        write_json(args.out, everything)
    print(json.dumps(combined))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the results (with metadata) to this JSON file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
        return
    meta, result = run_workload(args)
    if args.out:
        write_json(args.out, {"meta": meta, "result": result})
    print_result(meta, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
