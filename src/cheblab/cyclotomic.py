"""Cyclotomic residue family: odd classes mod 2n avoiding all small primes.

For q = 2n = 2^(r+1) the Galois group is (Z/qZ)* of order n, the Frobenius
of an odd prime p is p mod q, and D collects the odd residues whose
progression contains no prime below T = n * log(n)^alpha.  By construction
pi_D(T) = 0 while |D| >= n - pi(T), so |D| ~ n.

The odd integer 2k + 1 lies in the class with index k mod n.  So the
packed odd flags below a bound (sieve.odd_flags_below), cut into rows of
n bits, put every prime of one class in the same bit column: OR-ing the
rows gives the classes hit, and AND-ing the rows with D counts the primes
in D.  For n = 4 a row is one byte, two periods.  A family
(measure_family) is sieved once, below its largest T, and each member
reads its prefix of those flags; nothing is kept between calls.  Nothing
is unpacked but D itself, a bitmap of n bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

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


def measure_family(
    ns: Iterable[int], alpha: float,
) -> Iterator[tuple[CyclotomicInstance, int]]:
    """Yield (member, pi_D(T)) for each n in turn, from one sieve.

    The odd flags below the largest T are sieved once, and each member
    folds and counts its own prefix of them.  No member is held here
    while the next one is built.
    """
    ns = list(ns)
    for n in ns:
        _validate_n(n)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    Ts = [n * math.log(n) ** alpha for n in ns]
    flags = np.frombuffer(sieve.odd_flags_below(max(Ts, default=0)).flags,
                          dtype=np.uint8)
    for n, T in zip(ns, Ts):
        yield _member(n, alpha, T, flags)


def _member(n: int, alpha: float, T: float,
            flags: np.ndarray) -> tuple[CyclotomicInstance, int]:
    """Member n and pi_D(T), from packed odd flags that reach at least T."""
    bits = math.ceil(T) // 2    # odd integers below T
    width = max(n, 8) // 8      # bytes per row: n bits, one byte for n = 4
    size, rem = divmod(bits, 8)
    full = size - size % width
    hit = np.bitwise_or.reduce(flags[:full].reshape(-1, width), axis=0)
    hit[:size - full] |= flags[full:size]
    if rem:
        hit[size - full] |= flags[size] & ((1 << rem) - 1)
    mask = np.unpackbits(~hit, count=n, bitorder="little").view(bool)
    inst = CyclotomicInstance(
        r=n.bit_length() - 1, n=n, q=2 * n, alpha=alpha, T=T, mask=mask,
    )
    return inst, _count_in_D(inst, flags, bits)


def _count_in_D(inst: CyclotomicInstance, flags: np.ndarray, bits: int) -> int:
    """Set bits among the first `bits` of flags whose class lies in D."""
    row = np.packbits(inst.mask, bitorder="little")
    if inst.n == 4:
        row |= row << 4
    in_D = np.resize(row, -(-bits // 8))
    in_D &= flags[:in_D.size]
    if bits % 8:
        in_D[-1] &= (1 << bits % 8) - 1
    return int.from_bytes(in_D, "little").bit_count()


def build_D(n: int, alpha: float) -> CyclotomicInstance:
    """Construct D = odd residues mod 2n hit by no prime below T.

    The family of one.  The threshold T = n * log(n)^alpha stays a real;
    primes are compared with strict p < T and no rounding.
    """
    return next(measure_family([n], alpha))[0]


def pi_D_cyclotomic(inst: CyclotomicInstance, x: float) -> int:
    """Number of odd primes p < x with p mod q in D; 2 is excluded."""
    flags = np.frombuffer(sieve.odd_flags_below(x).flags, dtype=np.uint8)
    return _count_in_D(inst, flags, 8 * flags.size)


def peak_bytes(n: int, alpha: float) -> int:
    """Upper bound on the bytes held at once to build D for n and count pi_D(T).

    D as n bytes and its packed forms (n/4 more); four times the flags
    below T, in whole segments (the flags the family reads, the AND with
    D, and the bytes and the integer that count it; while the flags are
    gathered, the buffer and its bytes copy); and one sieve segment's
    workspace, charged at 3 bytes per odd integer where the sieve uses
    1.25.  T is kept as an exact rational, so no n overflows a float.
    The family holds the flags below its largest T, so the bound at its
    largest n covers every member.
    """
    step = 2 * sieve.SEGMENT_ODDS
    segments = math.ceil(n * Fraction(math.log(n) ** alpha) / step)
    return n + n // 4 + 4 * (segments * step // 16) + 3 * sieve.SEGMENT_ODDS


def density_ratio(inst: CyclotomicInstance) -> float:
    """|D| / n, which tends to 1 as n grows."""
    return inst.D_size / inst.n
