"""Cyclotomic residue family: odd classes mod 2n avoiding all small primes.

For q = 2n = 2^(r+1) the Galois group is (Z/qZ)* of order n, the Frobenius
of an odd prime p is p mod q, and D collects the odd residues whose
progression contains no prime below T = n * log(n)^alpha.  By construction
pi_D(T) = 0 while |D| >= n - pi(T), so |D| ~ n.

The odd integer 2k + 1 lies in the class with index k mod n, and row k
of sieve.odd_rows, the flags of aligned segment k as one int of 2^20
bits, holds the indices [k * 2^20, (k + 1) * 2^20).  A family
(measure_family, n strictly increasing) is one ordered pass over the rows
below its largest T.  Each row is held and OR-ed into one accumulator of
max(1, n_max / 2^20) rows, row k into slot k mod that many.  At a
member's T its classes hit are a fold of the accumulator and the current
row cut at T; D is the complement, an int of n bits.  Every held row lies
wholly below T, so pi_D(T) is recounted over the held rows and the cut:
their popcounts less those of each row AND the fold.  A fold that missed
a class thus counts non-zero.  The last member is counted before the rows
are dropped and its D is formed; nothing is kept between calls.
pi_D_cyclotomic is the same popcount, of each row AND D.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Iterator, NamedTuple

from . import sieve
from .dihedral import _validate_n

_ROW_BITS = sieve.SEGMENT_ODDS  # odd flags per aligned segment: one row
_ROW_BYTES = _ROW_BITS // 8


class CyclotomicInstance(NamedTuple):
    """One built family member: modulus, threshold and the residue set D.

    D is a bitset: bit k is set iff the odd residue 2k + 1 lies in D, so
    membership is a shift.  Equality is by value, D included.
    """

    r: int
    n: int                      # |G| = phi(2n) = 2^r
    q: int                      # modulus 2n = 2^(r+1)
    alpha: float
    T: float                    # n * log(n)^alpha
    D: int

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
    """Yield (member, pi_D(T)) for each n in turn, from one ordered pass.

    ns must strictly increase.  The aligned segments below the largest T
    are sieved once, in order; each member is folded from the accumulator
    when the pass reaches its T and is not held here once yielded.
    """
    ns = list(ns)
    for n in ns:
        _validate_n(n)
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"ns must strictly increase, got {ns}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return _walk(ns, alpha)


def _walk(ns: list[int], alpha: float) -> Iterator[tuple[CyclotomicInstance, int]]:
    """The pass of measure_family, over validated, increasing ns.

    Row k of the flags is held for the recounts and OR-ed into
    slots[k mod len(slots)].  Each n divides len(slots) * 2^20 or is below
    2^20, so a member's classes hit are a fold of the slots.  `held` is
    the popcount of the held rows, kept as they are appended.
    """
    if not ns:
        return
    Ts = [n * math.log(n) ** alpha for n in ns]
    pending = [(n, T, math.ceil(T) // 2) for n, T in zip(ns, Ts)]  # odds below T
    slots = [0] * max(1, ns[-1] // _ROW_BITS)
    rows: list[int] = []                        # the rows before row k
    held = 0
    for k, row in enumerate(sieve.odd_rows(Ts[-1])):
        while pending and pending[0][2] <= (k + 1) * _ROW_BITS:
            n, T, bits = pending.pop(0)
            rows.append(row & ((1 << (bits - k * _ROW_BITS)) - 1))  # cut at T
            hit = _fold(slots, k, rows[-1], n)
            # the primes below T minus those in a class the fold marks hit
            pi_D = held + rows[-1].bit_count() - _ones(rows, hit)
            rows.pop()
            if not pending:                 # the last member: nothing else reads them
                rows.clear()
                slots.clear()
            yield CyclotomicInstance(
                r=n.bit_length() - 1, n=n, q=2 * n, alpha=alpha, T=T,
                D=_complement(hit, n),
            ), pi_D
        if not pending:
            return
        rows.append(row)
        held += row.bit_count()
        slots[k % len(slots)] |= row


def _fold(slots: list[int], k: int, partial: int, n: int) -> list[int]:
    """Classes mod n hit by the slots and by `partial`, the cut row k, as
    rows of 2^20 bits: row t covers classes [t * 2^20, (t + 1) * 2^20).

    From n = 2^20 on, row t is the OR of the slots j = t (mod n / 2^20);
    below it, the OR of all slots is halved to n bits and tiled back to
    one row.
    """
    if n >= _ROW_BITS:
        m = n // _ROW_BITS
        hit = [functools.reduce(operator.or_, slots[t::m]) for t in range(m)]
        hit[k % m] |= partial
        return hit
    hit, width = functools.reduce(operator.or_, slots, partial), _ROW_BITS
    while width > n:
        width //= 2
        hit = (hit | hit >> width) & ((1 << width) - 1)
    return _as_rows(hit, n)


def _as_rows(bits: int, n: int) -> list[int]:
    """An int of n bits as rows of 2^20 bits: tiled across one row below
    n = 2^20, else cut into n / 2^20 rows."""
    if n < _ROW_BITS:
        while n < _ROW_BITS:
            bits |= bits << n
            n *= 2
        return [bits]
    packed = memoryview(bits.to_bytes(n // 8, "little"))
    return [int.from_bytes(packed[s:s + _ROW_BYTES], "little")
            for s in range(0, len(packed), _ROW_BYTES)]


def _ones(rows: Iterable[int], cover: list[int]) -> int:
    """Set bits of row k that are also set in cover[k mod len(cover)],
    summed over the rows."""
    m = len(cover)
    return sum((row & cover[k % m]).bit_count() for k, row in enumerate(rows))


def _complement(hit: list[int], n: int) -> int:
    """D, the n-bit complement of a fold.  hit is emptied as it is read,
    so its rows are released while D is assembled."""
    if n < _ROW_BITS:
        return ~hit.pop() & ((1 << n) - 1)
    full = (1 << _ROW_BITS) - 1
    parts = []
    for t in range(len(hit)):
        parts.append((hit[t] ^ full).to_bytes(_ROW_BYTES, "little"))
        hit[t] = 0
    packed = b"".join(parts)    # bytes: int.from_bytes would copy a bytearray
    del parts
    return int.from_bytes(packed, "little")


def build_D(n: int, alpha: float) -> CyclotomicInstance:
    """Construct D = odd residues mod 2n hit by no prime below T.

    The family of one.  The threshold T = n * log(n)^alpha stays a real;
    primes are compared with strict p < T and no rounding.
    """
    return next(measure_family([n], alpha))[0]


def pi_D_cyclotomic(inst: CyclotomicInstance, x: float) -> int:
    """Number of odd primes p < x with p mod q in D; 2 is excluded.

    The popcounts of each row k of the flags below x AND D, tiled across
    2^20 bits or sliced to D's row k mod (n / 2^20).
    """
    return _ones(sieve.odd_rows(x), _as_rows(inst.D, inst.n))


def peak_bytes(n: int, alpha: float) -> int:
    """Upper bound on the bytes held at once to build D for n and count pi_D(T).

    The pass holds the flags below T once, as rows of 2^20 bits (T/16
    bytes), the accumulator of max(n, 2^20) bits, one member's fold and
    D, n/8 bytes each, and one sieve segment's workspace: a byte per odd
    integer and the packed flags, about 1.27 bytes per odd integer.  The
    charge exceeds that: four times the flags below T in whole segments,
    n + n/4 bytes for the ints of n bits, and the workspace at 3 bytes
    per odd integer.  T is kept as an exact rational, the float
    log(n)^alpha as num / den, so no n overflows a float.  The
    family holds the flags below its largest T, so the bound at its
    largest n covers every member.
    """
    step = 2 * sieve.SEGMENT_ODDS
    num, den = (math.log(n) ** alpha).as_integer_ratio()
    segments = -(-n * num // (den * step))      # ceil(T / step)
    return n + n // 4 + 4 * (segments * step // 16) + 3 * sieve.SEGMENT_ODDS


def density_ratio(inst: CyclotomicInstance) -> float:
    """|D| / n, which tends to 1 as n grows."""
    return inst.D_size / inst.n
