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
from dataclasses import dataclass, field
from typing import Iterator

SEARCH_CEILING_FACTOR = 64      # default min_split_prime scan bound, in units of n^2
MAX_BRUTEFORCE_ORDER = 4096

# The first 12 primes as Miller-Rabin bases decide primality exactly below
# this bound (Sorenson and Webster, 2015).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MILLER_RABIN_BOUND = 318665857834031151167461


class SearchLimitExceeded(RuntimeError):
    """No totally split prime found below the configured ceiling."""


def _validate_n(n: int) -> None:
    if n < 4 or n & (n - 1):
        raise ValueError(f"n must be a power of two with n >= 4, got {n}")


@dataclass(frozen=True)
class DihedralInstance:
    """Group-level constants for one member of the family."""

    r: int
    n: int                      # |G| = 2^r
    M: int = 2                  # only the prime 2 ramifies
    alpha_classes: int = field(default=0)   # conjugacy-class count n/4 + 3
    D_size: int = 1             # D = {identity}

    def __post_init__(self):
        _validate_n(self.n)
        if self.n != 1 << self.r:
            raise ValueError(f"n={self.n} is not 2^{self.r}")
        if self.alpha_classes == 0:
            object.__setattr__(self, "alpha_classes", alpha_dihedral(self.n))

    @classmethod
    def from_r(cls, r: int) -> "DihedralInstance":
        if r < 2:
            raise ValueError(f"need r >= 2, got {r}")
        return cls(r=r, n=1 << r)


def is_totally_split(p: int, n: int) -> bool:
    """Whether the odd prime p is of the form a^2 + n^2 b^2.

    b runs from 1 to floor(sqrt(p-1)/n) and the remainder is tested for
    being a perfect square by exact integer square root; b = 0 is
    impossible since p = a^2 is never prime for a > 1.
    """
    if p % 2 == 0:
        raise ValueError("p must be an odd prime (2 ramifies)")
    _validate_n(n)
    n2 = n * n
    for b in range(1, math.isqrt(p - 1) // n + 1):
        rem = p - n2 * b * b
        a = math.isqrt(rem)
        if a * a == rem:
            return True
    return False


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


def _check_exact(x: float) -> None:
    if not x <= MILLER_RABIN_BOUND:
        raise ValueError(
            f"x must not exceed {MILLER_RABIN_BOUND}, the bound of the "
            f"deterministic primality test, got {x}")


def pi_D_dihedral(n: int, x: float) -> int:
    """Number of odd primes p < x that split totally; 2 is excluded.

    Tests each value of the form below x for primality.  There are about
    pi x / (8 n) of them, against one predicate test per prime below x.
    """
    _validate_n(n)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x <= 3:
        return 0
    _check_exact(x)
    top = math.ceil(x) - 1          # p < x exactly when p <= top
    return sum(1 for v in _form_values(n, top) if _is_prime(v))


def min_split_prime(n: int, ceiling: int | None = None) -> int:
    """Smallest totally split prime below ceiling; always > n^2 here.

    Every form value with b >= 2 is at least 4 n^2, so the first prime
    among a^2 + n^2 with a odd and a^2 + n^2 < 4 n^2 is the least one.
    Only if that row has none are all form values below ceiling searched.
    """
    _validate_n(n)
    if ceiling is None:
        ceiling = SEARCH_CEILING_FACTOR * n * n
    _check_exact(ceiling - 1)
    for v in _form_values(n, min(ceiling, 4 * n * n) - 1):
        if _is_prime(v):
            return v
    found = [v for v in _form_values(n, ceiling - 1) if _is_prime(v)]
    if found:
        return min(found)
    raise SearchLimitExceeded(
        f"no totally split prime below {ceiling} for n={n}"
    )


def alpha_dihedral(n: int) -> int:
    """Conjugacy-class count of the dihedral group of order n = 2^r: n/4 + 3."""
    _validate_n(n)
    return n // 4 + 3


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
