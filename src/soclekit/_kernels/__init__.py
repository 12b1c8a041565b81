"""Kernel selection: compiled extension when present, pure Python otherwise.

Set ``SOCLEKIT_PURE=1`` in the environment to force the pure backend;
``benchmarks/bench_elim.py`` sets it to time the two backends side by
side.  The equivalence tests in ``tests/test_kernels.py`` import both
modules directly and do not read it.
"""

import os

if os.environ.get("SOCLEKIT_PURE"):
    from .elim_py import fraction_free_rank, fraction_free_ref

    BACKEND = "python"
else:
    try:
        from ._elim import (  # type: ignore[no-redef]
            fraction_free_rank,
            fraction_free_ref,
        )

        BACKEND = "cython"
    except ImportError:
        from .elim_py import (  # type: ignore[no-redef]
            fraction_free_rank,
            fraction_free_ref,
        )

        BACKEND = "python"

__all__ = ["fraction_free_ref", "fraction_free_rank", "BACKEND"]
