"""Cyclotomic residue family: odd classes mod 2n avoiding all small primes.

For q = 2n = 2^(r+1) the Galois group is (Z/qZ)* of order n, the Frobenius
of an odd prime p is p mod q, and D collects the odd residues whose
progression contains no prime below T = n * log(n)^alpha.  By construction
pi_D(T) = 0 while |D| >= n - pi(T), so |D| ~ n.

The odd integer 2k + 1 lies in the class with index k mod n.  So the
packed odd flags below a bound (sieve.odd_flags_below), cut into rows of
n bits, put every prime of one class in the same bit column: OR-ing the
rows gives the classes hit, and AND-ing the rows with D counts the primes
in D.  For n = 4 a row is one byte, two periods.  Nothing is unpacked but
D itself, a bitmap of n bytes; the flags cost one bit per odd integer
below the largest bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    flags = np.frombuffer(sieve.odd_flags_below(T).flags, dtype=np.uint8)
    width = max(n, 8) // 8      # bytes per row: n bits, one byte for n = 4
    full = flags.size - flags.size % width
    hit = np.bitwise_or.reduce(flags[:full].reshape(-1, width), axis=0)
    hit[:flags.size - full] |= flags[full:]
    if n == 4:
        hit |= hit >> 4         # odd index k lies in class k mod 4
    mask = np.unpackbits(~hit, count=n, bitorder="little").view(bool)
    return CyclotomicInstance(
        r=n.bit_length() - 1, n=n, q=q, alpha=alpha, T=T, mask=mask,
    )


def pi_D_cyclotomic(inst: CyclotomicInstance, x: float) -> int:
    """Number of odd primes p < x with p mod q in D; 2 is excluded."""
    flags = np.frombuffer(sieve.odd_flags_below(x).flags, dtype=np.uint8)
    row = np.packbits(inst.mask, bitorder="little")
    if inst.n == 4:
        row |= row << 4
    in_D = np.resize(row, flags.size)
    in_D &= flags
    return int.from_bytes(in_D, "little").bit_count()


def peak_bytes(n: int, alpha: float) -> int:
    """Upper bound on the bytes held at once to build D for n and count pi_D(T).

    D as n bytes and its packed forms (n/4 more); four times the flag
    table below T, in whole segments (the table, the prefix read from it,
    the AND with D and the integer that counts it; while the table grows,
    the old table, the new segments and their join); and one sieve
    segment's workspace.  T is kept as an exact rational, so no n
    overflows a float.
    """
    step = 2 * sieve.SEGMENT_ODDS
    segments = math.ceil(n * Fraction(math.log(n) ** alpha) / step)
    return n + n // 4 + 4 * (segments * step // 16) + 3 * sieve.SEGMENT_ODDS


def density_ratio(inst: CyclotomicInstance) -> float:
    """|D| / n, which tends to 1 as n grows."""
    return inst.D_size / inst.n
