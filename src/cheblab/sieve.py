"""Segmented, odd-only sieve of Eratosthenes with packed primality flags.

Flags carry one bit per odd integer; the prime 2 is reintroduced by the
query layer.  sieve_range fills one byte per odd integer of [lo, hi)
from a wheel for 3..13, strikes the multiples of the other base primes
below sqrt(hi) with bytearray slices, and packs the bytes to bits.
Every reader walks whole aligned segments
[k * SEGMENT_WIDTH, (k + 1) * SEGMENT_WIDTH) through odd_rows, and only
those are cached on disk, so the cache keys depend on neither x nor the
reader.  Cache files end in a CRC-32 of header and payload, so a damaged
file is recomputed rather than read; _cache_read and _cache_write serve
the segments and the cyclotomic family's per-member counts alike.  The
module holds no state between calls but the base primes of the last
range.

The flags have one form in memory, an int whose bit i is set iff
(lo | 1) + 2i is prime: sieve_range returns it, odd_rows yields it one
segment (a row of SEGMENT_ODDS bits) at a time from any first row,
prime_count, sieve-check and the cyclotomic family are popcounts of
rows cut below x by cut, tile spreads a residue class across a row, and
prime_chunks lists the primes of a range from its rows' binary digits.
Flag bytes exist only in cache files and inside _packed, which joins a
segment's flag bytes before sieve_range builds the int from them.
All of it is pure Python: nothing imports numpy.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import os
import threading
import zlib
from typing import Iterator, Optional

SEGMENT_ODDS = 1 << 20          # odd entries per segment: cache-resident inner loop
SEGMENT_WIDTH = 2 * SEGMENT_ODDS    # integers per aligned segment
MAX_SEGMENTS_PER_RANGE = 256    # cap on materialized ranges; stream wider ones
# the base primes of a range below MAX_LIMIT lie below 2^22: about 3 * 10^5
MAX_LIMIT = 1 << 44
CACHE_ENV = "CHEB_CACHE_DIR"
_CACHE_MAGIC = b"CHEB2"


def _odds_in(lo: int, hi: int) -> int:
    """Number of odd integers in [lo, hi)."""
    return hi // 2 - lo // 2


@functools.lru_cache(maxsize=1)
def _base_odd_primes(limit: int) -> tuple[int, ...]:
    """Odd primes <= limit (limit >= 1), increasing, by an odd-only
    sieve: byte i stands for 2i + 1."""
    size = (limit + 1) // 2
    odd = bytearray(b"\x01") * size
    odd[0] = 0                  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, size, p)))
    return tuple(itertools.compress(range(1, limit + 1, 2), odd))


_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_ODDS = 3 * 5 * 7 * 11 * 13   # the wheel's period in odd integers


def _wheel() -> memoryview:
    """Byte i is 1 << (i % 8) if 2i + 1 is prime to 3..13, else 0, for i
    below lcm(8, 15015): the pattern every segment starts from."""
    wheel = bytearray(bytes(1 << b for b in range(8))) * _WHEEL_ODDS
    for p in _WHEEL_PRIMES:
        wheel[p // 2::p] = bytes(len(range(p // 2, len(wheel), p)))
    return memoryview(bytes(wheel))


_WHEEL = _wheel()
_PACK_PIECE = 1 << 17           # row bytes packed at once; a multiple of 8


def _odd_bytes(lo: int, hi: int) -> bytearray:
    """The odd integers of [lo, hi), one byte each: byte i is 1 << (i % 8)
    if (lo | 1) + 2i is prime, else 0, so eight bytes OR to one flag byte."""
    size = _odds_in(lo, hi)
    row = bytearray(size)
    # start at the wheel byte of lo | 1 (index lo // 2 mod 15015) that has
    # bit 0: since 15015 = -1 mod 8, t periods on the bit is t lower
    at = lo // 2 % _WHEEL_ODDS
    at += _WHEEL_ODDS * (at % 8)
    done = 0
    while done < size:
        piece = _WHEEL[at:at + size - done]
        row[done:done + len(piece)] = piece
        done += len(piece)
        at = 0
    first = lo | 1
    if first == 1 and size:
        row[0] = 0              # 1 is not prime
    # the base primes below sqrt(hi), and at least 3..13, cut from those
    # below a power of two, which the segments of a walk share
    root = math.isqrt(max(hi - 1, _WHEEL_PRIMES[-1] ** 2))
    base = _base_odd_primes(1 << root.bit_length())
    base = base[:bisect.bisect_right(base, root)]
    # a bytearray of the run's exact length is assigned without a copy;
    # as p grows the run shrinks, or grows by at most one
    zeros = bytearray(size // 17 + 1)   # 17: the least prime struck
    for p in base[len(_WHEEL_PRIMES):]:
        d = -first % p          # first + d: the least multiple of p >= first
        i = (d + p * (d & 1)) >> 1  # first + 2i: the least odd one
        if i < size:
            # odd multiples of p are p apart in odd-index space
            count = (size - 1 - i) // p + 1
            if count < len(zeros):
                del zeros[count:]
            elif count > len(zeros):
                zeros.append(0)
            row[i::p] = zeros
    # the wheel and the strike cleared each base prime as its own multiple
    for p in base[bisect.bisect_left(base, lo):bisect.bisect_left(base, hi)]:
        i = (p - first) // 2
        row[i] = 1 << i % 8
    return row


def _packed(row: bytearray) -> bytes:
    """Eight bytes of the row to one flag byte, LSB first: the row's
    bytes k, k + 8, ... hold only bit k, so their eight slices OR.  A
    piece at a time, so that the slices and ints are small beside the row."""
    pieces = []
    for at in range(0, len(row), _PACK_PIECE):
        end = min(at + _PACK_PIECE, len(row))
        bits = 0
        for k in range(8):
            bits |= int.from_bytes(row[at + k:end:8], "little")
        pieces.append(bits.to_bytes((end - at + 7) // 8, "little"))
    return b"".join(pieces)


def _cache_read(name: str, header: bytes, size: int) -> Optional[bytes]:
    """The payload of the cache file `name`, or None: no cache dir, or a
    file that is missing or unreadable, or does not hold `header`, `size`
    payload bytes and the CRC-32 of both.  Such files are recomputed
    silently."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    try:        # the payload is read as its own bytes, so nothing copies it
        with open(os.path.join(cache_dir, name), "rb") as fh:
            head, payload, tail = fh.read(len(header)), fh.read(size), fh.read()
    except OSError:
        return None
    crc = zlib.crc32(payload, zlib.crc32(head))
    if (head != header or len(payload) != size
            or tail != crc.to_bytes(4, "little")):
        return None
    return payload


def _cache_write(name: str, header: bytes, payload: bytes) -> None:
    """Store header, payload and their CRC-32 as the cache file `name`,
    through a temporary file renamed into place; silent without a cache
    dir or when the write fails."""
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return
    path = os.path.join(cache_dir, name)
    tmp = f"{path}.tmp{os.getpid()}-{threading.get_ident()}"
    crc = zlib.crc32(payload, zlib.crc32(header))
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
            fh.write(crc.to_bytes(4, "little"))
        os.replace(tmp, path)
    except OSError:             # cache is best-effort; leave no partial file
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _segment_file(lo: int, hi: int) -> tuple[str, bytes]:
    """The cache file name and header of the segment [lo, hi)."""
    header = _CACHE_MAGIC + lo.to_bytes(8, "little") + hi.to_bytes(8, "little")
    return f"sieve-{lo}-{hi}.cheb2", header


def _check_range(lo: int, hi: int) -> None:
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise TypeError("lo and hi must be integers")
    if lo < 0 or hi < lo:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi})")
    if hi > MAX_LIMIT:
        raise OverflowError(
            f"hi={hi} exceeds the 2**{MAX_LIMIT.bit_length() - 1} sieve limit")


def sieve_range(lo: int, hi: int) -> int:
    """Sieve [lo, hi) in one mask and return its flags as an int: bit i is
    set iff (lo | 1) + 2i is prime, so the uncut row k of odd_rows is
    sieve_range(k * SEGMENT_WIDTH, (k + 1) * SEGMENT_WIDTH).

    When CHEB_CACHE_DIR is set and [lo, hi) is exactly one aligned
    segment, valid cached flags are reused and fresh ones stored; any
    other range is sieved and never cached.
    """
    _check_range(lo, hi)
    if _odds_in(lo, hi) > SEGMENT_ODDS * MAX_SEGMENTS_PER_RANGE:
        raise OverflowError(
            "range too wide to sieve at once; "
            "stream it with odd_rows or prime_chunks"
        )

    # without a cache dir no segment's name, header or payload is built
    cacheable = (lo % SEGMENT_WIDTH == 0 and hi - lo == SEGMENT_WIDTH
                 and os.environ.get(CACHE_ENV))
    if cacheable:
        name, header = _segment_file(lo, hi)
        flags = _cache_read(name, header, SEGMENT_ODDS // 8)
        if flags is not None:
            return int.from_bytes(flags, "little")

    # the row is freed before the int is built, which reads bytes in place
    flags = _packed(_odd_bytes(lo, hi))
    if cacheable:
        _cache_write(name, header, flags)
    return int.from_bytes(flags, "little")


def _check_count_limit(x: float) -> None:
    if not x >= 0:              # so that nan fails too
        raise ValueError("x must be nonnegative")
    if x > MAX_LIMIT:
        raise OverflowError(
            f"x={x} exceeds the 2**{MAX_LIMIT.bit_length() - 1} sieve limit")


def cut(row: int, k: int, x: float) -> int:
    """Row k of odd_rows cut to the odd integers below ceil(x): the row
    itself if they fill it, else its bits below them, none if none."""
    odds = math.ceil(x) // 2 - k * SEGMENT_ODDS
    return row if odds >= SEGMENT_ODDS else row & ((1 << max(odds, 0)) - 1)


def odd_rows(x: float, first: int = 0) -> Iterator[int]:
    """The flags of the odd integers below ceil(x), one int (a row) per
    aligned segment that holds one of them (the segment at lo iff
    lo + 1 < ceil(x)), in order from row `first`, before which nothing is
    sieved or read: row k is sieve_range of segment k, cut by
    cut(row, k, x).  x is checked here, not on the first next()."""
    _check_count_limit(x)
    return (cut(sieve_range(lo, lo + SEGMENT_WIDTH), lo // SEGMENT_WIDTH, x)
            for lo in range(first * SEGMENT_WIDTH, math.ceil(x) - 1,
                            SEGMENT_WIDTH))


def tile(bits: int, period: int) -> int:
    """A pattern of `period` bits doubled until it spans a row, and not cut
    to the row: from a period of SEGMENT_ODDS on, `bits` itself."""
    while period < SEGMENT_ODDS:
        bits |= bits << period
        period *= 2
    return bits


def prime_count(x: float) -> int:
    """Number of primes strictly below x."""
    rows = odd_rows(x)          # checks x, also where x <= 2
    # 1 for the prime 2
    return 1 + sum(map(int.bit_count, rows)) if x > 2 else 0


def prime_chunks(lo: int, hi: int) -> Iterator[list[int]]:
    """Yield the primes in [lo, hi) as increasing lists: 2, then those of
    each row of odd_rows(hi) from lo's row, which holds lo | 1."""
    _check_range(lo, hi)
    digits = bytes.maketrans(b"01", b"\0\1")  # a binary digit to its bit
    if lo <= 2 < hi:
        yield [2]
    first = lo // SEGMENT_WIDTH
    for k, row in enumerate(odd_rows(hi, first) if lo | 1 < hi else (), first):
        # format writes the most significant bit first: reversed, byte i
        # is bit i of the row, which odd_rows cut below hi
        row = format(row, f"0{SEGMENT_ODDS}b")[::-1].encode().translate(digits)
        odds = list(itertools.compress(range(k * SEGMENT_WIDTH + 1, hi, 2), row))
        odds = odds[bisect.bisect_left(odds, lo):]
        if odds:
            yield odds
