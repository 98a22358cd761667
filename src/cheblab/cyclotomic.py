"""Cyclotomic residue family: odd classes mod 2n avoiding all small primes.

For q = 2n = 2^(r+1) the Galois group is (Z/qZ)* of order n, the Frobenius
of an odd prime p is p mod q, and D collects the odd residues whose
progression contains no prime below T = n * log(n)^alpha, the start of
the template range at gamma = alpha, read from bounds.range_start so that
the walk and the counts records use the same bits of T.  By construction
pi_D(T) = 0 while |D| >= n - pi(T), so |D| ~ n.

The odd integer 2k + 1 lies in the class with index k mod n, and row k
of sieve.odd_rows, the flags of aligned segment k as one int of 2^20
bits, holds the indices [k * 2^20, (k + 1) * 2^20).  D is kept in the
same one form: from n = 2^20 on, row t of D holds the classes [t * 2^20,
(t + 1) * 2^20), and below it D is one row of n bits.  A family
(measure_family, n strictly increasing) is one ordered pass over the
rows below its largest T, in which each member counts the odd primes of
each class as bit-planes, per block t = k mod m, m = max(n / 2^20, 1):
plane j holds bit j of every count in the block.  Every row k below
the member's T, sieve.cut at T, is added into block k mod m by a ripple
carry, after the same adder has halved it to n bits while n < 2^20; a
block's first row is its plane 0, the row int itself.  Block t is final
once its last row below T is carried in, for every member alike, and
its planes are then the class counts below T: D's row t is the
complement of their OR, and the block's share of pi_D(T) is sum_j 2^j *
popcount(P_j & D's row t), so a D that holds a class hit counts
non-zero.  A final block drops its planes; nothing is held between calls.

measure_counts yields each member's (n, T, |D|, pi_D(T)), the two counts
that the commands report.  Under CHEB_CACHE_DIR it keeps them as one
counts record per member, keyed by n and the exact bits of T, through
the sieve's cache helpers: a member with a valid record is read from
it, and the others are walked by one measure_family pass and recorded.
build_D, measure_family and pi_D_cyclotomic return or take D, which no
record holds, so they neither read nor write records.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from typing import Iterable, Iterator, NamedTuple, Optional

from . import bounds, sieve
from .dihedral import _validate_n

_ROW_BITS = sieve.SEGMENT_ODDS  # odd flags per aligned segment: one row
_COUNTS_MAGIC = b"CHEBC"
_COUNTS = struct.Struct("<QQ")  # a counts record's payload: |D| and pi_D(T)


class CyclotomicInstance(NamedTuple):
    """One built family member: |G|, threshold and the residue set D.

    D is kept in one form, as rows of 2^20 bits, or one row of n bits
    below n = 2^20: bit i of rows[t] is set iff the odd residue
    2(t * 2^20 + i) + 1 mod 2n lies in D.  Equality is by value, the
    rows included.
    """

    n: int                      # |G| = phi(2n) = 2^r
    T: float                    # n * log(n)^alpha
    rows: tuple[int, ...]       # D

    @property
    def D_size(self) -> int:
        return sum(map(int.bit_count, self.rows))


def measure_family(
    ns: Iterable[int], alpha: float,
) -> Iterator[tuple[CyclotomicInstance, int]]:
    """Yield (member, pi_D(T)) for each n in turn, from one ordered pass.

    ns must strictly increase.  The aligned segments below the largest T
    are sieved once, in order; each member is yielded when the pass
    reaches its T, and is not held here once yielded.
    """
    return _walk(_checked(ns, alpha), alpha)


def _checked(ns: Iterable[int], alpha: float) -> list[int]:
    """ns as a list, once each n is valid, ns strictly increase and alpha
    lies in (0, 1)."""
    ns = list(ns)
    for n in ns:
        _validate_n(n)
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"ns must strictly increase, got {ns}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return ns


def measure_counts(
    ns: Iterable[int], alpha: float,
) -> Iterator[tuple[int, float, int, int]]:
    """Yield (n, T, |D|, pi_D(T)) for each n in turn: measure_family's
    counts, with its checks of ns and alpha.

    A member whose counts record in CHEB_CACHE_DIR is valid is read from
    it.  The others are walked by one measure_family pass, and their
    records stored; so without a cache dir every member is walked.
    """
    return _replay(_checked(ns, alpha), alpha)


def _replay(ns: list[int],
            alpha: float) -> Iterator[tuple[int, float, int, int]]:
    """The members of measure_counts, over validated, increasing ns.  A
    walked member reaches this frame only as its counts, through map."""
    Ts = [bounds.range_start(n, alpha) for n in ns]
    found = [_load_counts(n, T) for n, T in zip(ns, Ts)]
    missing = [n for n, counts in zip(ns, found) if counts is None]
    walked = map(_stored_counts, _walk(missing, alpha) if missing else ())
    for n, T, counts in zip(ns, Ts, found):
        yield (n, T, *counts) if counts else next(walked)


def _counts_file(n: int, T: float) -> tuple[str, bytes]:
    """A member's counts record: its file name and header, keyed by n and
    the exact bits of T, on which alone D and pi_D(T) depend."""
    header = _COUNTS_MAGIC + struct.pack("<Qd", n, T)
    return f"counts-{n}-{T.hex()}.chebc", header


def _load_counts(n: int, T: float) -> Optional[tuple[int, int]]:
    """(|D|, pi_D(T)) from a valid counts record, or None."""
    payload = sieve._cache_read(*_counts_file(n, T), _COUNTS.size)
    return None if payload is None else _COUNTS.unpack(payload)


def _stored_counts(
    member: tuple[CyclotomicInstance, int],
) -> tuple[int, float, int, int]:
    """(n, T, |D|, pi_D(T)) of a walked member, stored as its record."""
    inst, pi_D = member
    counts = inst.D_size, pi_D
    sieve._cache_write(*_counts_file(inst.n, inst.T), _COUNTS.pack(*counts))
    return inst.n, inst.T, *counts


def _walk(ns: list[int], alpha: float) -> Iterator[tuple[CyclotomicInstance, int]]:
    """The pass of measure_family over validated, increasing ns.  A member
    is n, T, its last row below T, its blocks' planes, into which every
    row below T is carried, and its final blocks' (D's row, pi_D share)."""
    pending = []
    for n in ns:
        T, m = bounds.range_start(n, alpha), max(n // _ROW_BITS, 1)
        pending.append((n, T, (math.ceil(T) // 2 - 1) // _ROW_BITS,
                        [[] for _ in range(m)], [None] * m))
    for k, row in enumerate(sieve.odd_rows(pending[-1][1]) if ns else ()):
        for n, T, last, planes, D in pending:
            t = k % len(D)
            for j, bits in enumerate(_halved(sieve.cut(row, k, T), n)):
                _carry(planes[t], bits, j)
            if k + len(D) > last:               # row k is block t's last
                D[t] = _final(planes[t], (1 << min(n, _ROW_BITS)) - 1)
                planes[t] = []
        while pending and pending[0][2] == k:
            n, T, _, _, D = pending.pop(0)
            full = (1 << min(n, _ROW_BITS)) - 1  # a block that no row reaches
            rows, pi_D = zip(*[block or (full, 0) for block in D])
            yield CyclotomicInstance(n=n, T=T, rows=rows), sum(pi_D)
            del D, rows, full   # the consumer holds the member now, or not at all


def _carry(planes: list[int], bits: int, j: int = 0) -> None:
    """Add 2^j to the count of each class set in bits: a ripple carry up
    the planes from plane j, in place.  A new plane is bits itself."""
    while bits and j < len(planes):
        planes[j], bits = planes[j] ^ bits, planes[j] & bits
        j += 1
    if bits:
        planes += [0] * (j - len(planes)) + [bits]


def _halved(row: int, n: int) -> list[int]:
    """The planes of a row's counts per class k mod n: the row itself from
    n = 2^20 on, else the row halved to n bits, the high half of each
    plane added into the low half by _carry."""
    planes, width = [row], _ROW_BITS
    while width > n:
        width //= 2
        high = [plane >> width for plane in planes]
        planes = [plane & ((1 << width) - 1) for plane in planes]
        for j, bits in enumerate(high):
            _carry(planes, bits, j)
    return planes


def _final(planes: list[int], full: int) -> tuple[int, int]:
    """A final block's D row, the classes of `full` that its planes (the
    class counts below T, none if every row was cut to 0) do not hit, and
    sum_j 2^j popcount(P_j & D): the block's share of pi_D(T)."""
    D = functools.reduce(operator.or_, planes, 0) ^ full
    return D, sum((plane & D).bit_count() << j for j, plane in enumerate(planes))


def build_D(n: int, alpha: float) -> CyclotomicInstance:
    """Construct D = odd residues mod 2n hit by no prime below T.

    The family of one.  The threshold T = n * log(n)^alpha stays a real;
    primes are compared with strict p < T and no rounding.
    """
    return next(measure_family([n], alpha))[0]


def pi_D_cyclotomic(inst: CyclotomicInstance, x: float) -> int:
    """Number of odd primes p < x with p mod 2n in D; 2 is excluded.

    The popcounts of each row k of the flags below x AND D's row
    k mod (n / 2^20), or AND D tiled across 2^20 bits below n = 2^20.
    """
    cover = [sieve.tile(row, inst.n) for row in inst.rows]
    return sum((row & cover[k % len(cover)]).bit_count()
               for k, row in enumerate(sieve.odd_rows(x)))


def peak_bytes(n: int, alpha: float) -> int:
    """Upper bound on the bytes held at once to build D for n and count pi_D(T).

    The pass holds each member's open blocks, a plane per bit of their
    largest count, and D's final rows, of n bits or 2^20 from n = 2^20 on:
    at most the T/16 bytes of the flags below T and n/8 more, and about
    max(T/16 - n/8, n/8) bytes at alpha = 0.5, as blocks become final in
    turn.  Add one sieve segment's workspace: a byte per odd integer and
    the packed flags, about 1.27 bytes per odd integer.  The charge
    exceeds that: four times the flags below T in whole segments, n + n/4
    bytes for D and the planes, and the workspace at 3 bytes per odd
    integer.  A family's smaller members hold about as much again
    together, inside that margin, so the bound at its largest n covers
    every member.
    """
    _checked([n], alpha)
    step = sieve.SEGMENT_WIDTH
    segments = math.ceil(bounds.range_start(n, alpha) / step)  # exact: n, step 2^k
    return n + n // 4 + 4 * (segments * step // 16) + 3 * sieve.SEGMENT_ODDS
