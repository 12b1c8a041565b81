"""soclekit: exact invariants and stability strata of socles on projective space.

Everything is computed over the rationals with no floating point:
catalecticant ranks, apolar ideals, Hilbert functions, Koszul-homology
betti tables, central charges of twist complexes, discriminant existence
bounds for plane sheaves, and the classification of socles into the
low-degree stratum catalogs.  Only ``zdiagram_svg`` uses floats, to place
the exact diagram coordinates at pixel positions.

Each public name is declared once, in ``_EXPORTS``, with the submodule
that defines it.  ``__all__`` is built from that table, and
``__getattr__`` (PEP 562) resolves every export through it on each
access, so ``soclekit.<name>`` is always the home module's current value.

Importing the package runs only ``apolarity`` and ``linalg``.  The
submodules ``charge``, ``exceptional``, ``resolution`` and ``strata`` are
entered in ``sys.modules`` at once but run on first use (a lazy loader),
so a command pays only for the modules it runs.  The result records are
NamedTuples, so importing the package loads neither ``dataclasses`` nor
``inspect``.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec


def _deferred(name: str):
    """Submodule ``name`` in ``sys.modules``, run on its first attribute access.

    Any code that reads its globals (``vars``, an import, an attribute)
    runs it first, so a walk over the package's modules in ``sys.modules``
    sees complete namespaces.
    """
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Entered before ``apolarity`` runs, so that a walk over sys.modules in
# order (perfbench's tracer) runs them before it reaches ``linalg``.
# ``charge`` is not bound here: the package's ``charge`` is the function.
_deferred("charge")
exceptional = _deferred("exceptional")
resolution = _deferred("resolution")
strata = _deferred("strata")

from . import apolarity  # noqa: E402, F401

__version__ = "0.1.0"

# The elimination kernel is pure Python (``_kernels``); this constant stays
# because the benchmark harness records it in every run's metadata.
kernel_backend = "python"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ApolarIdeal", "Socle", "annihilates", "apolar_piece", "catalecticant", "contract",
            "factors_through_ideal", "gorenstein_check", "hilbert_function", "synth_power_sum",
        ),
        "apolarity",
    ),
    **dict.fromkeys(("kernel_basis", "monomial_basis", "rank"), "linalg"),
    **dict.fromkeys(
        (
            "ChargePoint", "ChernP2", "TwistComplex", "anti_slope", "beilinson_dims",
            "charge", "chern_p2", "compare_arg", "cone_charge", "discriminant",
            "dual_class", "hilb_poly",
        ),
        "charge",
    ),
    **dict.fromkeys(("m_r_dlp", "m_r_naive"), "exceptional"),
    **dict.fromkeys(
        (
            "BettiTable", "SocleAnalysis", "analyze_socle", "check_duality", "check_euler",
            "hf_from_betti", "interior_square", "koszul_betti", "quotient_bases",
        ),
        "resolution",
    ),
    **dict.fromkeys(
        (
            "CatalogEntry", "WaringReport", "binary_apolar_pair", "binary_waring", "catalog",
            "classify", "quadric_rank", "verify_factorization_witness", "witness_socles",
            "zdiagram",
        ),
        "strata",
    ),
}

__all__ = sorted([*_EXPORTS, "kernel_backend"])


def __getattr__(name: str):
    # The value is looked up on every access and never stored here, so a
    # rebinding in the home module (a tracer's wrapper, a test's
    # monkeypatch) shows through, and its undoing does too.
    if name in _EXPORTS:
        return getattr(sys.modules[f"{__name__}.{_EXPORTS[name]}"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
