"""Segmented, odd-only sieve of Eratosthenes with packed primality flags.

Flags carry one bit per odd integer; the prime 2 is reintroduced by the
query layer.  Every segment is sieved against all base primes below
sqrt(hi), so any segmentation of the same interval produces identical
flag bytes.

The module holds no state between calls.  Counts below x and the flags
below x (odd_flags_below) walk the same aligned segments
[k * 2 * SEGMENT_ODDS, (k + 1) * 2 * SEGMENT_ODDS), whole ones only, so
the disk-cache keys do not depend on x or on which count asked.  Cache
files end in a CRC-32 of header and payload, so a damaged file is
recomputed rather than read.
"""

from __future__ import annotations

import math
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

SEGMENT_ODDS = 1 << 20          # odd entries per segment: cache-resident inner loop
MAX_SEGMENTS_PER_RANGE = 256    # cap on materialized ranges; stream wider ones
MAX_LIMIT = 1 << 63
CACHE_ENV = "CHEB_CACHE_DIR"
_CACHE_MAGIC = b"CHEB2"


def _odds_in(lo: int, hi: int) -> int:
    """Number of odd integers in [lo, hi)."""
    return hi // 2 - lo // 2


@dataclass(frozen=True)
class PrimeRange:
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

    def is_prime(self, m: int) -> bool:
        """Primality of m, which must lie in [lo, hi)."""
        if not self.lo <= m < self.hi:
            raise ValueError(f"{m} outside [{self.lo}, {self.hi})")
        if m == 2:
            return True
        if m % 2 == 0:
            return False
        idx = m // 2 - self.lo // 2
        return bool(self.flags[idx >> 3] & (1 << (idx & 7)))

    def count_odd_primes(self, upto: Optional[float] = None) -> int:
        """Number of set bits for odd integers < upto (default: the whole range).

        Population count over packed bytes with boundary masking, so the
        result is bit-exact regardless of the padding in the last byte.
        """
        limit = self.hi if upto is None else min(math.ceil(upto), self.hi)
        if limit <= self.lo:
            return 0
        k = _odds_in(self.lo, limit)
        full, rem = divmod(k, 8)
        total = int.from_bytes(self.flags[:full], "little").bit_count()
        if rem:
            total += (self.flags[full] & ((1 << rem) - 1)).bit_count()
        return total

    def odd_primes(self) -> np.ndarray:
        """The odd primes in [lo, hi) as an int64 array, increasing."""
        packed = np.frombuffer(self.flags, dtype=np.uint8)
        bits = np.unpackbits(packed, count=self.odd_count, bitorder="little")
        # the bits are 0 or 1, and flatnonzero scans bool several times faster
        index = np.flatnonzero(bits.view(bool)).astype(np.int64, copy=False)
        return (self.lo | 1) + 2 * index


def _base_odd_primes(limit: int) -> np.ndarray:
    """Odd primes <= limit via a dense in-memory sieve (limit <= sqrt(2^63))."""
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
    except OSError:
        pass  # cache is best-effort


def sieve_range(lo: int, hi: int, segment_odds: int = SEGMENT_ODDS) -> PrimeRange:
    """Sieve [lo, hi) and return packed odd-primality flags.

    The byte content is independent of segment_odds.  When CHEB_CACHE_DIR
    is set, valid cached ranges are reused and fresh ones stored.
    """
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise TypeError("lo and hi must be integers")
    if lo < 0 or hi < lo:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi})")
    if hi > MAX_LIMIT:
        raise OverflowError(f"hi={hi} exceeds the 2**63 sieve limit")
    if segment_odds < 8:
        raise ValueError("segment_odds must be at least 8")
    if _odds_in(lo, hi) > SEGMENT_ODDS * MAX_SEGMENTS_PER_RANGE:
        raise OverflowError(
            "range too wide to materialize in one PrimeRange; "
            "stream it with prime_chunks"
        )

    cached = _cache_load(lo, hi)
    if cached is not None:
        return PrimeRange(lo, hi, cached)

    base = _base_odd_primes(math.isqrt(hi - 1)) if hi > 1 else np.empty(0, np.int64)
    mask = np.ones(_odds_in(lo, hi), dtype=bool)
    for seg_lo in range(lo, hi, 2 * segment_odds):
        seg_hi = min(seg_lo + 2 * segment_odds, hi)
        start = _odds_in(lo, seg_lo)
        _sieve_segment(mask[start:start + _odds_in(seg_lo, seg_hi)],
                       seg_lo, seg_hi, base)
    flags = np.packbits(mask, bitorder="little").tobytes()
    _cache_store(lo, hi, flags)
    return PrimeRange(lo, hi, flags)


def _check_count_limit(x: float) -> None:
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x > MAX_LIMIT:
        raise OverflowError(f"x={x} exceeds the 2**63 sieve limit")


def _aligned_segments(limit: int) -> Iterator[PrimeRange]:
    """Sieve, in order, the whole aligned segments that cover [0, limit)."""
    step = 2 * SEGMENT_ODDS
    for lo in range(0, limit, step):
        yield sieve_range(lo, lo + step)


def prime_count(x: float) -> int:
    """Number of primes strictly below x."""
    _check_count_limit(x)
    if x <= 2:
        return 0
    limit = math.ceil(x)
    # 1 for the prime 2
    return 1 + sum(seg.count_odd_primes(limit)
                   for seg in _aligned_segments(limit))


def primes_in_ap_count(x: float, q: int, d: int) -> int:
    """Number of primes p < x with p congruent to d modulo q."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    if not 0 <= d < q:
        raise ValueError(f"residue d={d} outside [0, {q})")
    _check_count_limit(x)
    if x <= 2:
        return 0
    limit = math.ceil(x)
    total = 1 if 2 % q == d else 0
    for seg in _aligned_segments(limit):
        odds = seg.odd_primes()
        total += int(np.count_nonzero(odds[odds < limit] % q == d))
    return total


def odd_flags_below(x: float) -> PrimeRange:
    """Packed odd-primality flags of [0, ceil(x)), from aligned segments.

    Padding bits at or above ceil(x) are cleared, so the bytes equal
    sieve_range(0, ceil(x)).flags.
    """
    _check_count_limit(x)
    limit = math.ceil(x)
    full, rem = divmod(_odds_in(0, limit), 8)
    flags = bytearray(full + (rem > 0))
    for seg in _aligned_segments(limit):
        start = seg.lo // 16        # 16 integers, 8 of them odd, per byte
        part = memoryview(seg.flags)[:len(flags) - start]
        flags[start:start + len(part)] = part
    if rem:
        flags[-1] &= (1 << rem) - 1
    return PrimeRange(0, limit, bytes(flags))


def prime_chunks(lo: int, hi: int,
                 segment_odds: int = SEGMENT_ODDS) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as increasing int64 arrays."""
    if lo < 0 or hi < lo:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi})")
    if hi > MAX_LIMIT:
        raise OverflowError(f"hi={hi} exceeds the 2**63 sieve limit")
    if lo <= 2 < hi:
        yield np.array([2], dtype=np.int64)
    step = 2 * segment_odds
    for seg_lo in range(lo, hi, step):
        seg = sieve_range(seg_lo, min(seg_lo + step, hi), segment_odds)
        odds = seg.odd_primes()
        if odds.size:
            yield odds
