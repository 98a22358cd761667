"""Independent verification routes used only by the tests.

Deliberately dumb implementations: trial division instead of a sieve,
adaptive Simpson instead of Gauss-Legendre, an exhaustive a-scan instead
of the b-iteration, direct residue filtering instead of bitmaps.  They
share no code with the package so that agreement is evidence.

The one exception is ``sieve_split_primes``: the package's sieve and the
split predicate ``is_totally_split``, tested prime by prime.  It shares no
code with the form enumeration in ``pi_D_dihedral`` and is fast enough to
check the wall pi_D(n^2) = 0 up to n = 2^12.  ``flag_bytes``,
``range_is_prime``, ``li_ratio_to_asymptote``, ``odd_primes``, ``mask``
and ``residues`` likewise read values the package computed.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from cheblab import analytic, cyclotomic, sieve

MAX_BRUTEFORCE_ORDER = 4096

# High-precision offset logarithmic integral, integral of dt/log t from 2,
# precomputed with 30-digit arbitrary-precision quadrature.
LI_HIGH_PRECISION = {
    10: 5.1204357246698051527,
    16: 7.4745526835935662936,
    100: 29.080977803962137141,
    256: 59.467901557799838558,
    10 ** 4: 1245.0920521192709669,
    10 ** 6: 78626.503995682064427,
    10 ** 8: 5762208.3302842513501,
}

# li(n^2) * 2 log(n) / n^2 for r = 8..20, same precomputation.
LI_RATIO_R8_R20 = [
    1.1140008295396133,
    1.0979201921842658,
    1.0859045269185905,
    1.0765777701277065,
    1.069115076696783,
    1.0629992294497574,
    1.0578904005577736,
    1.0535557396419799,
    1.0498299268357831,
    1.0465920722617189,
    1.0437515753462378,
    1.0412391137338483,
    1.0390006971520948,
]


def trial_is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    for d in range(3, math.isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True


def flag_bytes(bits: int, lo: int, hi: int) -> bytes:
    """The flags of [lo, hi) as sieve_range's int holds them, laid out as
    a CHEB2 payload: one bit per odd integer, LSB first within each byte,
    padded with 0 to whole bytes."""
    return bits.to_bytes((hi // 2 - lo // 2 + 7) // 8, "little")


def range_is_prime(bits: int, lo: int, hi: int, m: int) -> bool:
    """Primality of m read from the flags of [lo, hi); m must lie there."""
    if not lo <= m < hi:
        raise ValueError(f"{m} outside [{lo}, {hi})")
    if m == 2:
        return True
    if m % 2 == 0:
        return False
    idx = m // 2 - lo // 2
    return bool(flag_bytes(bits, lo, hi)[idx >> 3] & (1 << (idx & 7)))


def odd_primes(bits: int, lo: int, hi: int) -> np.ndarray:
    """The odd primes in [lo, hi) as an increasing int64 array, unpacked
    from the flags of [lo, hi) by numpy rather than by the package's bit
    code."""
    packed = np.frombuffer(flag_bytes(bits, lo, hi), dtype=np.uint8)
    flags = np.unpackbits(packed, count=hi // 2 - lo // 2, bitorder="little")
    return (lo | 1) + 2 * np.flatnonzero(flags).astype(np.int64)


def mask(inst: cyclotomic.CyclotomicInstance) -> np.ndarray:
    """D as n bools, indexed by (d - 1) / 2, unpacked from inst.rows."""
    width = -(-min(inst.n, sieve.SEGMENT_ODDS) // 8)   # bytes per row
    packed = np.frombuffer(
        b"".join(row.to_bytes(width, "little") for row in inst.rows),
        dtype=np.uint8)
    return np.unpackbits(packed, count=inst.n, bitorder="little").view(bool)


def residues(inst: cyclotomic.CyclotomicInstance) -> np.ndarray:
    """The residues in D as a sorted int64 array."""
    return 2 * np.flatnonzero(mask(inst)) + 1


def trial_primes_below(x: float) -> list[int]:
    """All primes < x by trial division against the primes found so far."""
    limit = math.ceil(x)
    primes: list[int] = []
    for m in range(2, limit):
        composite = False
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                composite = True
                break
        if not composite:
            primes.append(m)
    return primes


def trial_prime_count(x: float) -> int:
    return len(trial_primes_below(x))


def ap_count_brute(x: float, q: int, d: int) -> int:
    return sum(1 for p in trial_primes_below(x) if p % q == d)


def represented_by_form(p: int, n: int) -> bool:
    """Exhaustive scan over a for p = a^2 + n^2 b^2, a >= 0, b >= 0."""
    n2 = n * n
    for a in range(0, math.isqrt(p) + 1):
        rem = p - a * a
        if rem == 0:
            return True
        if rem % n2 == 0:
            s = rem // n2
            root = math.isqrt(s)
            if root * root == s:
                return True
    return False


def is_totally_split(p: int, n: int) -> bool:
    """Whether the odd prime p is of the form a^2 + n^2 b^2.

    b runs from 1 to floor(sqrt(p-1)/n) and the remainder is tested for
    being a perfect square by exact integer square root; b = 0 is
    impossible since p = a^2 is never prime for a > 1.
    """
    if p % 2 == 0:
        raise ValueError("p must be an odd prime (2 ramifies)")
    if n < 4 or n & (n - 1):
        raise ValueError(f"n must be a power of two with n >= 4, got {n}")
    n2 = n * n
    for b in range(1, math.isqrt(p - 1) // n + 1):
        rem = p - n2 * b * b
        a = math.isqrt(rem)
        if a * a == rem:
            return True
    return False


def iter_sieve_split_primes(n: int, x: float) -> Iterator[int]:
    """Odd primes p < x of the form a^2 + n^2 b^2, one sieved prime at a time."""
    return (p for chunk in sieve.prime_chunks(3, math.ceil(x))
            for p in chunk if is_totally_split(p, n))


def sieve_split_primes(n: int, x: float) -> list[int]:
    return list(iter_sieve_split_primes(n, x))


def fermat_row_prime(n: int) -> int:
    """The first a^2 + n^2, a odd, that passes Fermat tests to 2, 3, 5 and 7.

    Every value skipped has a Fermat witness among those bases, which
    proves it composite; the value returned is only a probable prime.
    """
    a = 1
    while True:
        m = a * a + n * n
        if all(pow(w, m - 1, m) == 1 for w in (2, 3, 5, 7)):
            return m
        a += 2


def conjugacy_count_bruteforce(n: int) -> int:
    """Conjugacy classes of the dihedral group of order n, by orbit scan.

    Elements are pairs (rotation index mod n/2, reflection flag); serves
    as an independent oracle for alpha_dihedral.
    """
    if n < 4 or n % 2:
        raise ValueError(f"group order must be even and >= 4, got {n}")
    if n > MAX_BRUTEFORCE_ORDER:
        raise ValueError(f"order {n} above brute-force cap {MAX_BRUTEFORCE_ORDER}")
    m = n // 2

    def mul(g, h):
        gi, gs = g
        hi, hs = h
        # reflections conjugate the rotation subgroup by inversion
        return ((gi + hi) % m if gs == 0 else (gi - hi) % m, gs ^ hs)

    def inv(g):
        gi, gs = g
        return ((-gi) % m, 0) if gs == 0 else g

    elements = [(i, s) for s in (0, 1) for i in range(m)]
    seen = set()
    classes = 0
    for g in elements:
        if g in seen:
            continue
        classes += 1
        seen.update(mul(mul(h, g), inv(h)) for h in elements)
    return classes


def li_ratio_to_asymptote(n: int) -> float:
    """li(n^2) divided by its asymptote n^2 / (2 log n); tends to 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return analytic.li(float(n) * n) * 2.0 * math.log(n) / (float(n) * n)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (
        _adapt(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
        + _adapt(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    )


def adaptive_simpson_li(x: float, rel_tol: float = 1e-12) -> float:
    """Offset logarithmic integral by adaptive Simpson with Richardson tail."""
    a, b = 2.0, float(x)
    if b == a:
        return 0.0

    def f(t: float) -> float:
        return 1.0 / math.log(t)

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(abs(whole), 1.0) * rel_tol
    return _adapt(f, a, b, fa, fm, fb, whole, tol, 60)
