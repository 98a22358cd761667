"""Cyclotomic residue family: odd classes mod 2n avoiding all small primes.

For q = 2n = 2^(r+1) the Galois group is (Z/qZ)* of order n, the Frobenius
of an odd prime p is p mod q, and D collects the odd residues whose
progression contains no prime below T = n * log(n)^alpha.  By construction
pi_D(T) = 0 while |D| >= n - pi(T), so |D| ~ n.

The odd integer 2k + 1 lies in the class with index k mod n.  So the
packed odd flags below a bound (sieve.odd_flags_below), read as ints of
W = max(n, 2^16) bits, a multiple of n, put every prime of one class in
the same bit column mod n: OR-ing the chunks and halving the result down
to n bits gives the classes hit, and AND-ing each chunk with D repeated
across W counts the primes in D.  D itself is an int of n bits.  A
family (measure_family) is sieved once, below its largest T, and each
member reads its prefix of those flags; nothing is kept between calls.
numpy is imported only by the mask and residues arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

from . import sieve
from .dihedral import _validate_n

if TYPE_CHECKING:
    import numpy as np

_MIN_FOLD_BITS = 1 << 16        # width of the ints the flags are read as, at least


@dataclass(frozen=True, eq=False)
class CyclotomicInstance:
    """One built family member: modulus, threshold and the residue set D.

    D is a bitset: bit k is set iff the odd residue 2k + 1 lies in D, so
    membership is a shift.  mask and residues unpack it into arrays.
    """

    r: int
    n: int                      # |G| = phi(2n) = 2^r
    q: int                      # modulus 2n = 2^(r+1)
    alpha: float
    T: float                    # n * log(n)^alpha
    D: int
    M: int = 2

    @property
    def mask(self) -> np.ndarray:
        """D as n bools, indexed by (d - 1) / 2."""
        import numpy as np

        packed = np.frombuffer(self.D.to_bytes(-(-self.n // 8), "little"),
                               dtype=np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little").view(bool)

    @property
    def residues(self) -> np.ndarray:
        """The residues in D as a sorted int64 array."""
        import numpy as np

        return 2 * np.flatnonzero(self.mask) + 1

    @property
    def D_size(self) -> int:
        return self.D.bit_count()

    def contains(self, d: int) -> bool:
        """Membership of the residue d in D."""
        if not 0 <= d < self.q:
            raise ValueError(f"residue {d} outside [0, {self.q})")
        if d % 2 == 0:
            return False
        return bool(self.D >> (d >> 1) & 1)


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
    flags = sieve.odd_flags_below(max(Ts, default=0)).flags
    for n, T in zip(ns, Ts):
        yield _member(n, alpha, T, flags)


def _chunks(flags: bytes, bits: int, width: int) -> Iterator[int]:
    """The first `bits` bits of flags, as ints of `width` bits in turn.

    width is a multiple of 8; the bits of the last chunk at or above
    `bits` are cleared.
    """
    view = memoryview(flags)
    for start in range(0, bits, width):
        chunk = int.from_bytes(view[start // 8:(start + width) // 8], "little")
        if bits - start < width:
            chunk &= (1 << bits - start) - 1
        yield chunk


def _member(n: int, alpha: float, T: float,
            flags: bytes) -> tuple[CyclotomicInstance, int]:
    """Member n and pi_D(T), from packed odd flags that reach at least T.

    The chunks are OR-ed into one int of W bits, W a multiple of n, and
    that int is halved down to n bits, so bit k ends up at k mod n.
    """
    bits = math.ceil(T) // 2    # odd integers below T
    width = max(n, _MIN_FOLD_BITS)
    hit = 0
    for chunk in _chunks(flags, bits, width):
        hit |= chunk
    while width > n:
        width //= 2
        hit = (hit | hit >> width) & ((1 << width) - 1)
    inst = CyclotomicInstance(
        r=n.bit_length() - 1, n=n, q=2 * n, alpha=alpha, T=T,
        D=hit ^ ((1 << n) - 1),
    )
    return inst, _count_in_D(inst, flags, bits)


def _count_in_D(inst: CyclotomicInstance, flags: bytes, bits: int) -> int:
    """Set bits among the first `bits` of flags whose class lies in D."""
    width = max(inst.n, _MIN_FOLD_BITS)
    in_D, filled = inst.D, inst.n       # D repeated across `width` bits
    while filled < width:
        in_D |= in_D << filled
        filled *= 2
    return sum((chunk & in_D).bit_count()
               for chunk in _chunks(flags, bits, width))


def build_D(n: int, alpha: float) -> CyclotomicInstance:
    """Construct D = odd residues mod 2n hit by no prime below T.

    The family of one.  The threshold T = n * log(n)^alpha stays a real;
    primes are compared with strict p < T and no rounding.
    """
    return next(measure_family([n], alpha))[0]


def pi_D_cyclotomic(inst: CyclotomicInstance, x: float) -> int:
    """Number of odd primes p < x with p mod q in D; 2 is excluded."""
    flags = sieve.odd_flags_below(x).flags
    return _count_in_D(inst, flags, 8 * len(flags))


def peak_bytes(n: int, alpha: float) -> int:
    """Upper bound on the bytes held at once to build D for n and count pi_D(T).

    Four times the flags below T, in whole segments: while they are
    gathered, the buffer and its bytes copy, which the family then reads;
    twice that again to spare.  n + n/4 bytes for the ints of the fold and the
    count, a few of W = max(n, 2^16) bits each (a chunk of the flags, the
    OR of the chunks, D repeated across W and its AND with a chunk); at
    n < 2^16 they fit in the slack of the segment charge.  And one sieve
    segment's workspace, charged at 3 bytes per odd integer where the
    sieve uses 1.25.  T is kept as an exact rational, so no n overflows a
    float.  The family holds the flags below its largest T, so the bound
    at its largest n covers every member.
    """
    step = 2 * sieve.SEGMENT_ODDS
    segments = math.ceil(n * Fraction(math.log(n) ** alpha) / step)
    return n + n // 4 + 4 * (segments * step // 16) + 3 * sieve.SEGMENT_ODDS


def density_ratio(inst: CyclotomicInstance) -> float:
    """|D| / n, which tends to 1 as n grows."""
    return inst.D_size / inst.n
