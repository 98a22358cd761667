"""Cyclotomic residue family: odd classes mod 2n avoiding all small primes.

For q = 2n = 2^(r+1) the Galois group is (Z/qZ)* of order n, the Frobenius
of an odd prime p is p mod q, and D collects the odd residues whose
progression contains no prime below T = n * log(n)^alpha.  By construction
pi_D(T) = 0 while |D| >= n - pi(T), so |D| ~ n.

Both the builder and the counter read the odd primes below their bound
from the shared table in sieve.odd_primes_below and map each prime to
its residue index in one vectorised step.  D is stored only as a bitmap
of n bytes; the table costs 8 bytes per prime below the largest bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .dihedral import _validate_n


@dataclass(frozen=True, eq=False)
class CyclotomicInstance:
    """One built family member: modulus, threshold and the residue set D.

    mask is a bitmap over odd residues indexed by (d - 1) / 2 for O(1)
    membership; residues derives the same set from it as a sorted array.
    """

    r: int
    n: int                      # |G| = phi(2n) = 2^r
    q: int                      # modulus 2n = 2^(r+1)
    alpha: float
    T: float                    # n * log(n)^alpha
    mask: np.ndarray
    M: int = 2

    @property
    def residues(self) -> np.ndarray:
        return 2 * np.flatnonzero(self.mask) + 1

    @property
    def D_size(self) -> int:
        return int(np.count_nonzero(self.mask))

    def contains(self, d: int) -> bool:
        """Membership of the residue d in D."""
        if not 0 <= d < self.q:
            raise ValueError(f"residue {d} outside [0, {self.q})")
        if d % 2 == 0:
            return False
        return bool(self.mask[d >> 1])


def frobenius_class(p: int, q: int) -> int:
    """Frobenius of the odd prime p in (Z/qZ)*: the residue p mod q."""
    if p % 2 == 0:
        raise ValueError("p must be an odd prime (2 ramifies)")
    if q < 8 or q & (q - 1):
        raise ValueError(f"q must be a power of two with q >= 8, got {q}")
    return p % q


def build_D(n: int, alpha: float) -> CyclotomicInstance:
    """Construct D = odd residues mod 2n hit by no prime below T.

    The threshold T = n * log(n)^alpha stays a real; primes are compared
    with strict p < T and no rounding.
    """
    _validate_n(n)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    q = 2 * n
    T = n * math.log(n) ** alpha
    mask = np.ones(n, dtype=bool)
    mask[(sieve.odd_primes_below(T) % q) >> 1] = False
    return CyclotomicInstance(
        r=n.bit_length() - 1, n=n, q=q, alpha=alpha, T=T, mask=mask,
    )


def pi_D_cyclotomic(inst: CyclotomicInstance, x: float) -> int:
    """Number of odd primes p < x with p mod q in D; 2 is excluded."""
    primes = sieve.odd_primes_below(x)
    return int(np.count_nonzero(inst.mask[(primes % inst.q) >> 1]))


def density_ratio(inst: CyclotomicInstance) -> float:
    """|D| / n, which tends to 1 as n grows."""
    return inst.D_size / inst.n
