"""Independent verification routes used only by the tests.

Deliberately dumb implementations: trial division instead of a sieve,
adaptive Simpson instead of Gauss-Legendre, an exhaustive a-scan instead
of the b-iteration, direct residue filtering instead of bitmaps.  They
share no code with the package so that agreement is evidence.

The one exception is ``sieve_split_primes``: the package's sieve and its
split predicate, tested prime by prime.  It shares no code with the form
enumeration in ``pi_D_dihedral`` and is fast enough to check the wall
pi_D(n^2) = 0 up to n = 2^12.
"""

from __future__ import annotations

import math
from typing import Iterator

from cheblab import dihedral, sieve

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


def iter_sieve_split_primes(n: int, x: float) -> Iterator[int]:
    """Odd primes p < x of the form a^2 + n^2 b^2, one sieved prime at a time."""
    return (p for chunk in sieve.prime_chunks(3, math.ceil(x))
            for p in chunk.tolist() if dihedral.is_totally_split(p, n))


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
