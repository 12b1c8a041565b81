"""soclekit: exact invariants and stability strata of socles on projective space.

Everything is computed over the rationals with no floating point:
catalecticant ranks, apolar ideals, Hilbert functions, Koszul-homology
betti tables, central charges of twist complexes, discriminant existence
bounds for plane sheaves, and the classification of socles into the
low-degree stratum catalogs.  Only ``zdiagram_svg`` uses floats, to place
the exact diagram coordinates at pixel positions.
"""

from .apolarity import (
    ApolarIdeal,
    Socle,
    annihilates,
    apolar_piece,
    catalecticant,
    contract,
    factors_through_ideal,
    gorenstein_check,
    hilbert_function,
    synth_power_sum,
)
from .charge import (
    ChargePoint,
    ChernP2,
    TwistComplex,
    anti_slope,
    beilinson_dims,
    charge,
    chern_p2,
    compare_arg,
    cone_charge,
    discriminant,
    dual_class,
    hilb_poly,
)
from .exceptional import m_r_dlp, m_r_naive
from .linalg import Matrix, gen_binomial, kernel_basis, monomial_basis, rank
from .resolution import (
    BettiTable,
    SocleAnalysis,
    analyze_socle,
    check_duality,
    check_euler,
    hf_from_betti,
    interior_square,
    koszul_betti,
    quotient_bases,
)
from .strata import (
    CatalogEntry,
    WaringReport,
    binary_apolar_pair,
    binary_waring,
    catalog,
    classify,
    quadric_rank,
    verify_factorization_witness,
    witness_socles,
    zdiagram,
)

__version__ = "0.1.0"

# The elimination kernel is pure Python (``_kernels``); this constant stays
# because the benchmark harness records it in every run's metadata.
kernel_backend = "python"

__all__ = [
    "ApolarIdeal",
    "BettiTable",
    "CatalogEntry",
    "ChargePoint",
    "ChernP2",
    "Matrix",
    "Socle",
    "SocleAnalysis",
    "TwistComplex",
    "WaringReport",
    "analyze_socle",
    "annihilates",
    "anti_slope",
    "apolar_piece",
    "beilinson_dims",
    "binary_apolar_pair",
    "binary_waring",
    "catalecticant",
    "catalog",
    "charge",
    "chern_p2",
    "check_duality",
    "check_euler",
    "classify",
    "compare_arg",
    "cone_charge",
    "contract",
    "discriminant",
    "dual_class",
    "factors_through_ideal",
    "gen_binomial",
    "gorenstein_check",
    "hf_from_betti",
    "hilb_poly",
    "hilbert_function",
    "interior_square",
    "kernel_backend",
    "kernel_basis",
    "koszul_betti",
    "m_r_dlp",
    "m_r_naive",
    "monomial_basis",
    "quadric_rank",
    "quotient_bases",
    "rank",
    "synth_power_sum",
    "verify_factorization_witness",
    "witness_socles",
    "zdiagram",
]
