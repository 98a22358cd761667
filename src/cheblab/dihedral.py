"""Dihedral splitting family: group statistics and split-prime counting.

The field under study has dihedral Galois group of order n = 2^r, ramified
only at 2, and an odd prime splits completely exactly when it is
represented by the quadratic form a^2 + n^2 b^2.  No odd prime below n^2
is of that form, which makes pi_D vanish on [0, n^2] while the main term
li(n^2) / n grows like n / (2 log n).  Both the split-prime count and the
least split prime enumerate the values of the form and test each one
with a deterministic Miller-Rabin test.
"""

from __future__ import annotations

import math
from typing import Iterator

# The first 12 primes as Miller-Rabin bases decide primality exactly below
# this bound (Sorenson and Webster, 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_BOUND = 318665857834031151167461


class SearchLimitExceeded(RuntimeError):
    """The row a^2 + n^2 below 4 n^2 holds no prime."""


class ExactBoundExceeded(ValueError):
    """A search would test values above MILLER_RABIN_BOUND."""


def _validate_n(n: int) -> None:
    if n < 4 or n & (n - 1):
        raise ValueError(f"n must be a power of two with n >= 4, got {n}")


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= m < MILLER_RABIN_BOUND."""
    for a in MILLER_RABIN_BASES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        y = pow(a, d, m)
        if y == 1 or y == m - 1:
            continue
        for _ in range(s - 1):
            y = y * y % m
            if y == m - 1:
                break
        else:
            return False
    return True


def _form_values(n: int, top: int) -> Iterator[int]:
    """The values a^2 + n^2 b^2 <= top with a odd and b >= 1.

    They come b by b, and within each b in increasing order of a.  The
    split primes are exactly the primes among them, each of which occurs
    once, since a prime is a sum of two squares in at most one way.
    """
    b = 1
    while (nb2 := n * n * b * b) < top:
        for a in range(1, math.isqrt(top - nb2) + 1, 2):
            yield a * a + nb2
        b += 1


def _check_exact(n: int, top: float) -> None:
    if not top <= MILLER_RABIN_BOUND:
        raise ExactBoundExceeded(
            f"n=2^{n.bit_length() - 1} would need primality tests above "
            f"{MILLER_RABIN_BOUND}, the bound of the deterministic test")


def pi_D_dihedral(n: int, x: float) -> int:
    """Number of odd primes p < x that split totally; 2 is excluded.

    Tests each value of the form below x for primality.  There are about
    pi x / (8 n) of them, against one predicate test per prime below x.
    """
    _validate_n(n)
    if not x >= 0:              # so that nan fails too
        raise ValueError("x must be nonnegative")
    if x <= 3:
        return 0
    _check_exact(n, x)
    top = math.ceil(x) - 1          # p < x exactly when p <= top
    return sum(1 for v in _form_values(n, top) if _is_prime(v))


def min_split_prime(n: int) -> int:
    """Smallest totally split prime; always between n^2 and 4 n^2 here.

    Every form value with b >= 2 is at least 4 n^2, so the first prime
    among a^2 + n^2 with a odd and a^2 + n^2 < 4 n^2 is the least one.
    No n is known whose row holds no prime, but none is ruled out.
    """
    _validate_n(n)
    top = 4 * n * n - 1
    _check_exact(n, top)
    for v in _form_values(n, top):
        if _is_prime(v):
            return v
    raise SearchLimitExceeded(f"no totally split prime below {top + 1} for n={n}")


def alpha_dihedral(n: int) -> int:
    """Conjugacy-class count of the dihedral group of order n = 2^r: n/4 + 3."""
    _validate_n(n)
    return n // 4 + 3

