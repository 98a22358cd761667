"""Segmented, odd-only sieve of Eratosthenes with packed primality flags.

Flags carry one bit per odd integer; the prime 2 is reintroduced by the
query layer.  sieve_range strikes one mask for [lo, hi) against all base
primes below sqrt(hi).  Every reader walks whole aligned segments
[k * 2 * SEGMENT_ODDS, (k + 1) * 2 * SEGMENT_ODDS), and only those are
cached on disk, so the cache keys do not depend on x or on which reader
asked.  Cache files end in a CRC-32 of header and payload, so a damaged
file is recomputed rather than read.  The module holds no state between
calls.

odd_rows is the one reader of the flags as bits: one int of SEGMENT_ODDS
bits per segment, on which prime_count and the cyclotomic family are
popcounts.  PrimeRange.odd_primes and prime_chunks read the primes as
arrays.  numpy is the sieve's kernel and is imported only where it is
used: to sieve a range the cache does not hold, and by the array
readers.  A cache hit and odd_rows are pure bytes and ints.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import zlib
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    import numpy as np

SEGMENT_ODDS = 1 << 20          # odd entries per segment: cache-resident inner loop
_STEP = 2 * SEGMENT_ODDS        # integers per aligned segment
MAX_SEGMENTS_PER_RANGE = 256    # cap on materialized ranges; stream wider ones
MAX_LIMIT = 1 << 63
CACHE_ENV = "CHEB_CACHE_DIR"
_CACHE_MAGIC = b"CHEB2"


def _odds_in(lo: int, hi: int) -> int:
    """Number of odd integers in [lo, hi)."""
    return hi // 2 - lo // 2


class PrimeRange(NamedTuple):
    """Packed primality flags for the odd integers in [lo, hi).

    Bit k (LSB-first within each byte) corresponds to the k-th odd integer
    at or above lo and is set iff that integer is prime.  Queries about 2
    are answered out of band.
    """

    lo: int
    hi: int
    flags: bytes

    @property
    def odd_count(self) -> int:
        return _odds_in(self.lo, self.hi)

    def odd_primes(self) -> np.ndarray:
        """The odd primes in [lo, hi) as an int64 array, increasing."""
        import numpy as np

        packed = np.frombuffer(self.flags, dtype=np.uint8)
        bits = np.unpackbits(packed, count=self.odd_count, bitorder="little")
        # the bits are 0 or 1, and flatnonzero scans bool several times faster
        index = np.flatnonzero(bits.view(bool)).astype(np.int64, copy=False)
        return (self.lo | 1) + 2 * index


def _base_odd_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit via a dense in-memory sieve (limit <= sqrt(2^63))."""
    import numpy as np

    if limit < 3:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)[1:].astype(np.int64)  # drop 2


def _sieve_segment(mask: np.ndarray, lo: int, hi: int, base: np.ndarray) -> None:
    """Strike the odd composites in [lo, hi) from mask, one bool per odd integer."""
    if mask.size == 0:
        return
    first = lo | 1
    if first == 1:
        mask[0] = False
    for p in base.tolist():
        pp = p * p
        if pp >= hi:
            break
        start = (lo + p - 1) // p * p
        if start % 2 == 0:
            start += p
        if start < pp:
            start = pp
        if start >= hi:
            continue
        # consecutive odd multiples of p differ by 2p: stride p in odd-index space
        mask[(start - first) // 2 :: p] = False


def _cache_path(cache_dir: str, lo: int, hi: int) -> str:
    return os.path.join(cache_dir, f"sieve-{lo}-{hi}.cheb2")


def _cache_header(lo: int, hi: int) -> bytes:
    return _CACHE_MAGIC + lo.to_bytes(8, "little") + hi.to_bytes(8, "little")


def _cache_load(lo: int, hi: int) -> Optional[bytes]:
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    try:
        with open(_cache_path(cache_dir, lo, hi), "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    header = _cache_header(lo, hi)
    expected_len = len(header) + (_odds_in(lo, hi) + 7) // 8 + 4
    body, trailer = data[:-4], data[-4:]
    if (len(data) != expected_len or not data.startswith(header)
            or zlib.crc32(body) != int.from_bytes(trailer, "little")):
        return None  # corrupt entries are recomputed silently
    return body[len(header):]


def _cache_store(lo: int, hi: int, flags: bytes) -> None:
    cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return
    path = _cache_path(cache_dir, lo, hi)
    tmp = f"{path}.tmp{os.getpid()}-{threading.get_ident()}"
    header = _cache_header(lo, hi)
    crc = zlib.crc32(flags, zlib.crc32(header))
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(flags)
            fh.write(crc.to_bytes(4, "little"))
        os.replace(tmp, path)
    except OSError:             # cache is best-effort; leave no partial file
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _check_range(lo: int, hi: int) -> None:
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise TypeError("lo and hi must be integers")
    if lo < 0 or hi < lo:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi})")
    if hi > MAX_LIMIT:
        raise OverflowError(f"hi={hi} exceeds the 2**63 sieve limit")


def sieve_range(lo: int, hi: int) -> PrimeRange:
    """Sieve [lo, hi) in one mask and return packed odd-primality flags.

    When CHEB_CACHE_DIR is set and [lo, hi) is exactly one aligned
    segment, valid cached flags are reused and fresh ones stored; any
    other range is sieved and never cached.
    """
    _check_range(lo, hi)
    if _odds_in(lo, hi) > SEGMENT_ODDS * MAX_SEGMENTS_PER_RANGE:
        raise OverflowError(
            "range too wide to materialize in one PrimeRange; "
            "stream it with prime_chunks"
        )

    whole_segment = lo % _STEP == 0 and hi - lo == _STEP
    cached = _cache_load(lo, hi) if whole_segment else None
    if cached is not None:
        return PrimeRange(lo, hi, cached)

    import numpy as np

    base = _base_odd_primes(math.isqrt(hi - 1) if hi > 1 else 0)
    mask = np.ones(_odds_in(lo, hi), dtype=bool)
    _sieve_segment(mask, lo, hi, base)
    flags = np.packbits(mask, bitorder="little").tobytes()
    if whole_segment:
        _cache_store(lo, hi, flags)
    return PrimeRange(lo, hi, flags)


def _check_count_limit(x: float) -> None:
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x > MAX_LIMIT:
        raise OverflowError(f"x={x} exceeds the 2**63 sieve limit")


def _aligned_segments(lo: int, hi: int) -> Iterator[PrimeRange]:
    """Sieve, in order, the whole aligned segments that hold an odd
    integer of [lo, hi).

    lo | 1 is the first odd integer at or above lo, and it lies in lo's
    segment.  Segment k starts at an even integer, so its first odd
    integer k + 1 lies below hi iff k < hi - 1.
    """
    _check_range(lo, hi)
    first = lo - lo % _STEP if lo | 1 < hi else hi
    return (sieve_range(k, k + _STEP) for k in range(first, hi - 1, _STEP))


def _as_int(seg: PrimeRange) -> int:
    return int.from_bytes(seg.flags, "little")


def odd_rows(x: float) -> Iterator[int]:
    """The flags of the odd integers below ceil(x), one int (a row) per
    aligned segment that holds one of them, in order.

    Bit i of row k is set iff 2 * (k * SEGMENT_ODDS + i) + 1 is prime, so
    every row has at most SEGMENT_ODDS bits, and the last is cut at
    ceil(x).  x is checked here, not on the first next().
    """
    _check_count_limit(x)
    odds = math.ceil(x) // 2            # the odd integers below ceil(x)
    return _rows(_aligned_segments(0, 2 * odds), odds)


def _rows(segments: Iterator[PrimeRange], odds: int) -> Iterator[int]:
    """The segments' flags as rows, cut to the first `odds` in all."""
    # map reads each segment, so no loop variable holds its bytes at a yield
    for row in map(_as_int, segments):
        if odds < SEGMENT_ODDS:
            row &= (1 << odds) - 1
        odds -= SEGMENT_ODDS
        yield row


def prime_count(x: float) -> int:
    """Number of primes strictly below x."""
    rows = odd_rows(x)          # checks x, also where x <= 2
    # 1 for the prime 2
    return 1 + sum(map(int.bit_count, rows)) if x > 2 else 0


def prime_chunks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as increasing int64 arrays."""
    import numpy as np

    segments = _aligned_segments(lo, hi)
    if lo <= 2 < hi:
        yield np.array([2], dtype=np.int64)
    for seg in segments:
        odds = seg.odd_primes()
        odds = odds[odds.searchsorted(lo):odds.searchsorted(hi)]
        if odds.size:
            yield odds
