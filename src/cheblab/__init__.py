"""Desk-scale laboratory for error terms in the Chebotarev density theorem.

Two families indexed by n = 2^r are built and measured: a dihedral one
where no prime below n^2 splits totally, and a cyclotomic one whose
residue set D avoids all primes below T = n * log(n)^alpha.  Measured
error terms are compared against parameterized bound templates; diverging
implied constants falsify a template on the tested range.
"""

from .analytic import li, li_ratio_to_asymptote
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
    frobenius_class,
    measure_family,
    pi_D_cyclotomic,
)
from .dihedral import (
    ExactBoundExceeded,
    SearchLimitExceeded,
    alpha_dihedral,
    conjugacy_count_bruteforce,
    is_totally_split,
    min_split_prime,
    pi_D_dihedral,
)
from .sieve import (
    PrimeRange,
    odd_flags_below,
    prime_chunks,
    prime_count,
    primes_in_ap_count,
    sieve_range,
)

__version__ = "0.4.0"

__all__ = [
    "BOUNDED",
    "DIVERGES",
    "BoundFamily",
    "ChebotarevSample",
    "CyclotomicInstance",
    "ExactBoundExceeded",
    "IncompatibleVariantError",
    "PrimeRange",
    "ScanReport",
    "ScanRow",
    "SearchLimitExceeded",
    "SerreFit",
    "abs_error",
    "alpha_dihedral",
    "bound_denominator",
    "build_D",
    "conjugacy_count_bruteforce",
    "density_ratio",
    "discriminant_bracket",
    "falsification_scan",
    "frobenius_class",
    "implied_constant",
    "is_totally_split",
    "li",
    "li_ratio_to_asymptote",
    "main_term",
    "measure_family",
    "min_split_prime",
    "odd_flags_below",
    "pi_D_cyclotomic",
    "pi_D_dihedral",
    "prime_chunks",
    "prime_count",
    "primes_in_ap_count",
    "range_check",
    "serre_fit",
    "sieve_range",
]
