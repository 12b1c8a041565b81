"""Per-layer tracing from outside the package.

Modules import functions by name (``strata`` and ``cli`` hold their own
``hilbert_function``, ``linalg`` holds the kernel functions), so patching
one module attribute would miss most calls.  ``Tracer.install`` wraps each
target function and rebinds every global of every loaded ``soclekit``
module that refers to the original object; ``Tracer.restore`` puts every
binding back.

Each wrapper records a span: calls and self time, where self time is the
span's duration minus the time covered by the traced calls it made.  The
kernel wrappers also count elimination cells (rows x cols, at the
outermost kernel call only) and the largest entry bit length left in the
rows by ``fraction_free_ref``; that scan is excluded from every span.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# module -> functions; a dotted name is a method on a class of that module.
# Metric labels drop the module's leading underscore (``kernels.*``), since
# metric names must start with a letter or a digit.
TARGETS = {
    "linalg": ("rank", "rref", "kernel_basis", "rank_of_int_rows"),
    "_kernels": ("fraction_free_ref", "fraction_free_rank"),
    "apolarity": (
        "Socle.parse", "hilbert_function", "catalecticant", "apolar_piece",
        "gorenstein_check", "synth_power_sum",
    ),
    "resolution": (
        "koszul_betti", "quotient_bases", "check_duality", "check_euler", "hf_from_betti",
    ),
    "strata": ("classify", "binary_waring", "binary_apolar_pair", "zdiagram"),
    "charge": ("charge", "cone_charge", "beilinson_dims"),
    "exceptional": ("mr_grid", "semistable_exists"),
}

KERNEL_LABELS = ("kernels.fraction_free_ref", "kernels.fraction_free_rank")


def _label(module: str, name: str) -> str:
    return f"{module.lstrip('_')}.{name}"


def target_labels() -> list[str]:
    return [_label(module, name) for module, names in TARGETS.items() for name in names]


def _package_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "soclekit" or name.startswith("soclekit."))
    ]


class Tracer:
    """Aggregated spans and counters for the functions in ``TARGETS``."""

    def __init__(self) -> None:
        self.calls = {label: 0 for label in target_labels()}
        self.self_s = {label: 0.0 for label in target_labels()}
        self.cells = 0
        self.max_bits = 0
        self._stack: list[float] = []  # traced child time per open span
        self._kernel_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- bookkeeping -----------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "cells": self.cells,
            "max_bits": self.max_bits,
        }

    def _wrap(self, label: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        kernel = label in KERNEL_LABELS
        scan_bits = label == "kernels.fraction_free_ref"

        def traced(*args, **kwargs):
            if kernel:
                if self._kernel_depth == 0:
                    self.cells += len(args[0]) * args[1]
                self._kernel_depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                calls[label] += 1
                self_s[label] += (t1 - t0) - child
                if kernel:
                    self._kernel_depth -= 1
                if scan_bits:
                    for row in args[0]:
                        for v in row:
                            b = abs(v).bit_length()
                            if b > self.max_bits:
                                self.max_bits = b
                if stack:
                    stack[-1] += perf_counter() - t0

        traced.__wrapped__ = fn
        return traced

    # -- install / restore ----------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for module, names in TARGETS.items():
            home = importlib.import_module(f"soclekit.{module}")
            for name in names:
                label = _label(module, name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = self._wrap(label, original.__func__)
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, type(original)(wrapper))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(label, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
