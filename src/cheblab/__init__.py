"""Desk-scale laboratory for error terms in the Chebotarev density theorem.

Two families indexed by n = 2^r are built and measured: a dihedral one
where no prime below n^2 splits totally, and a cyclotomic one whose
residue set D avoids all primes below T = n * log(n)^alpha.  Measured
error terms are compared against parameterized bound templates; diverging
implied constants falsify a template on the tested range.
"""

from .analytic import li
from .bounds import (
    BOUNDED,
    DIVERGES,
    BoundFamily,
    ChebotarevSample,
    IncompatibleVariantError,
    ScanReport,
    ScanRow,
    SerreFit,
    abs_error,
    bound_denominator,
    discriminant_bracket,
    falsification_scan,
    implied_constant,
    main_term,
    range_check,
    serre_fit,
)
from .cyclotomic import (
    CyclotomicInstance,
    build_D,
    density_ratio,
    measure_family,
    pi_D_cyclotomic,
)
from .dihedral import (
    ExactBoundExceeded,
    SearchLimitExceeded,
    alpha_dihedral,
    min_split_prime,
    pi_D_dihedral,
)
from .sieve import (
    odd_rows,
    prime_chunks,
    prime_count,
    sieve_range,
)

__version__ = "0.20.0"

__all__ = [
    "BOUNDED",
    "DIVERGES",
    "BoundFamily",
    "ChebotarevSample",
    "CyclotomicInstance",
    "ExactBoundExceeded",
    "IncompatibleVariantError",
    "ScanReport",
    "ScanRow",
    "SearchLimitExceeded",
    "SerreFit",
    "abs_error",
    "alpha_dihedral",
    "bound_denominator",
    "build_D",
    "density_ratio",
    "discriminant_bracket",
    "falsification_scan",
    "implied_constant",
    "li",
    "main_term",
    "measure_family",
    "min_split_prime",
    "odd_rows",
    "pi_D_cyclotomic",
    "pi_D_dihedral",
    "prime_chunks",
    "prime_count",
    "range_check",
    "serre_fit",
    "sieve_range",
]
