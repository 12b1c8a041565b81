"""Reference size prices: the three capped binomials that ``soclekit``
wrote out before every size price read ``linalg.capped_size``.

``admit_catalecticants`` priced a request with exact binomials behind a
guard on d, ``_basis_size`` (from ``linalg``) and ``_power_sum_entries``
(from ``apolarity``) each ran its own partial product m * C(n+e, k).  They
are kept here only as differential-test oracles: the package must admit
and refuse the same requests, with the same errors.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from soclekit.apolarity import MAX_POWER_SUM_ENTRIES
from soclekit.errors import EnvelopeError
from soclekit.linalg import MAX_CATALECTICANT_WORK


def admit_catalecticants(g, *degrees: int, count: int = 1) -> None:
    """Raise EnvelopeError when gathering and eliminating count copies of
    Cat_e of g for every e in degrees, and building its degree-d basis once,
    pass MAX_CATALECTICANT_WORK."""
    n, d, cap = g.n, g.d, MAX_CATALECTICANT_WORK
    work = d  # a d past the budget alone is refused before any binomial
    if d <= cap:
        work = comb(n + d, n) * (n + 121)
        for e in degrees:
            r, c = comb(n + d - e, n), comb(n + e, n)
            work += count * (r * c * min(r, c) + 500)
    if work > cap:
        raise EnvelopeError(f"a socle at (n={n}, d={d}) needs catalecticant work beyond {cap}")


@lru_cache(maxsize=256)
def _basis_size(n: int, e: int) -> int:
    """C(n+e, n), refused when times n + 121 it passes MAX_CATALECTICANT_WORK:
    (n + 121) * C(n+e, k) grows with k <= min(n, e), so a huge basis stops early."""
    work = n + 121
    for k in range(1, min(n, e) + 1):
        work = work * (n + e + 1 - k) // k
        if work > MAX_CATALECTICANT_WORK:
            raise EnvelopeError(f"a basis at (n={n}, e={e}) needs work beyond {MAX_CATALECTICANT_WORK}")
    return work // (n + 121)


def _power_sum_entries(n: int, d: int, m: int) -> int:
    """m * C(n+d, n), or a partial product past MAX_POWER_SUM_ENTRIES: the
    product m * C(n+d, k) grows with k <= min(n, d), so a huge request
    stops after a few steps."""
    size = m
    for k in range(1, min(n, d) + 1):
        size = size * (n + d + 1 - k) // k
        if size > MAX_POWER_SUM_ENTRIES:
            break
    return size
