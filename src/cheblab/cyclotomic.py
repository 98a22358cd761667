"""Cyclotomic residue family: odd classes mod 2n avoiding all small primes.

For q = 2n = 2^(r+1) the Galois group is (Z/qZ)* of order n, the Frobenius
of an odd prime p is p mod q, and D collects the odd residues whose
progression contains no prime below T = n * log(n)^alpha.  By construction
pi_D(T) = 0 while |D| >= n - pi(T), so |D| ~ n.

The odd integer 2k + 1 lies in the class with index k mod n, and row k
of sieve.odd_rows, the flags of aligned segment k as one int of 2^20
bits, holds the indices [k * 2^20, (k + 1) * 2^20).  D is kept as rows
too: from n = 2^20 on, row t of D holds the classes [t * 2^20,
(t + 1) * 2^20), and below it D is one row of n bits.  A family
(measure_family, n strictly increasing) is one ordered pass over the
rows below its largest T, each held as it comes.  At a member's T the
rows held and the current row, sieve.cut at T, are folded one residue
t mod m = max(n / 2^20, 1) at a time, by the one fold that serves every
n: the classes hit in D's row t are the OR of rows[t::m], halved to n
bits while n < 2^20, and D's row t is their complement.  Every held row
lies wholly below T, so pi_D(T) is counted as pi_D_cyclotomic counts
it: the popcounts of the held rows and the cut, each AND D's row.  A
fold that missed a class, or a D that holds a class hit, thus counts
non-zero.  The last member drops each row once its residue is folded
and counted, so its D takes the rows' place.  Once it alone is pending,
it folds residue t as soon as row k, t's last row up to the row K cut
at T, arrives, if t has a row before it (k >= m); the other classes
fold at T.  So about max(K + 1 - m, m) + 1 of the K + 1 rows below T
are held at once, and nothing between calls.

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
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import sieve
from .dihedral import _validate_n

_ROW_BITS = sieve.SEGMENT_ODDS  # odd flags per aligned segment: one row
_ROW_BYTES = _ROW_BITS // 8
_COUNTS_MAGIC = b"CHEBC"
_COUNTS = struct.Struct("<QQ")  # a counts record's payload: |D| and pi_D(T)


class CyclotomicInstance(NamedTuple):
    """One built family member: modulus, threshold and the residue set D.

    D is kept as rows of 2^20 bits, or one row of n bits below n = 2^20:
    bit i of rows[t] is set iff the odd residue 2(t * 2^20 + i) + 1 lies
    in D, so membership is an index and a shift.  Equality is by value,
    the rows included.
    """

    n: int                      # |G| = phi(2n) = 2^r
    q: int                      # modulus 2n = 2^(r+1)
    T: float                    # n * log(n)^alpha
    rows: tuple[int, ...]       # D

    @property
    def D(self) -> int:
        """D as one int of n bits: bit k is set iff 2k + 1 lies in D."""
        if len(self.rows) == 1:
            return self.rows[0]
        return int.from_bytes(b"".join(
            row.to_bytes(_ROW_BYTES, "little") for row in self.rows), "little")

    @property
    def D_size(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def contains(self, d: int) -> bool:
        """Membership of the residue d in D."""
        if not 0 <= d < self.q:
            raise ValueError(f"residue {d} outside [0, {self.q})")
        if d % 2 == 0:
            return False
        k = d >> 1
        return bool(self.rows[k // _ROW_BITS] >> (k % _ROW_BITS) & 1)


def measure_family(
    ns: Iterable[int], alpha: float,
) -> Iterator[tuple[CyclotomicInstance, int]]:
    """Yield (member, pi_D(T)) for each n in turn, from one ordered pass.

    ns must strictly increase.  The aligned segments below the largest T
    are sieved once, in order; each member is folded from the held rows
    when the pass reaches its T and is not held here once yielded.
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


def _threshold(n: int, alpha: float) -> float:
    """T = n * log(n)^alpha: the one expression for a member's threshold,
    so that a counts record is looked up under the bits the walk uses."""
    return n * math.log(n) ** alpha


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
    Ts = [_threshold(n, alpha) for n in ns]
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
    """The pass of measure_family, over validated, increasing ns.

    Row k of the flags is held for the later members' folds.  `early`
    keeps the last member's classes folded before T: D's row and count.
    """
    if not ns:
        return
    Ts = [_threshold(n, alpha) for n in ns]
    pending = [(n, T, math.ceil(T) // 2) for n, T in zip(ns, Ts)]  # odds below T
    m, last = ns[-1] // _ROW_BITS, pending[-1][2]
    rows: list[int] = []                        # the rows before row k
    early: dict[int, tuple[int, int]] = {}
    for k, row in enumerate(sieve.odd_rows(Ts[-1])):
        while pending and pending[0][2] <= (k + 1) * _ROW_BITS:
            n, T, _ = pending.pop(0)
            rows.append(sieve.cut(row, k, T))
            # the last member drops the rows: nothing else reads them.  A list:
            # zip(*genexpr) left a tuple per member on CPython's free list
            D, pi_D = zip(*[early.pop(t, None)
                              or _fold_class(rows, t, n, drop=not pending)
                              for t in range(max(n // _ROW_BITS, 1))])
            rows.pop()
            yield CyclotomicInstance(n=n, q=2 * n, T=T, rows=D), sum(pi_D)
            del D               # the consumer holds the member now, or not at all
        if not pending:
            return
        rows.append(row)
        # row k is the last of its class up to the cut row, and not the first
        if len(pending) == 1 and 0 < m <= k and last <= (k + m) * _ROW_BITS:
            early[k % m] = _fold_class(rows, k % m, ns[-1], drop=True)


def _fold_class(rows: list[int], t: int, n: int, drop: bool) -> tuple[int, int]:
    """D's row t for n, and the set bits of rows[t::m], m = max(n / 2^20,
    1), that lie in it.  D's row is the complement of their OR, halved to
    n bits while n < 2^20.  With `drop` they are set to 0 once counted, so
    D's row can take their place."""
    m = max(n // _ROW_BITS, 1)
    folded = rows[t::m]
    D, width = functools.reduce(operator.or_, folded, 0), _ROW_BITS
    while width > n:
        width //= 2
        D = (D | D >> width) & ((1 << width) - 1)
    D ^= (1 << width) - 1                       # the classes no row hits
    pi_D = _ones(folded, [sieve.tile(D, n)])
    if drop:
        rows[t::m] = [0] * len(folded)
    del folded
    return D, pi_D


def _ones(rows: Iterable[int], cover: Sequence[int]) -> int:
    """Set bits of row k that are also set in cover[k mod len(cover)],
    summed over the rows."""
    m = len(cover)
    return sum((row & cover[k % m]).bit_count() for k, row in enumerate(rows))


def build_D(n: int, alpha: float) -> CyclotomicInstance:
    """Construct D = odd residues mod 2n hit by no prime below T.

    The family of one.  The threshold T = n * log(n)^alpha stays a real;
    primes are compared with strict p < T and no rounding.
    """
    return next(measure_family([n], alpha))[0]


def pi_D_cyclotomic(inst: CyclotomicInstance, x: float) -> int:
    """Number of odd primes p < x with p mod q in D; 2 is excluded.

    The popcounts of each row k of the flags below x AND D's row
    k mod (n / 2^20), or AND D tiled across 2^20 bits below n = 2^20.
    """
    return _ones(sieve.odd_rows(x), [sieve.tile(row, inst.n) for row in inst.rows])


def peak_bytes(n: int, alpha: float) -> int:
    """Upper bound on the bytes held at once to build D for n and count pi_D(T).

    The pass holds the flags below T, as rows of 2^20 bits (T/16 bytes),
    and one member's D of n/8 bytes.  The last member folds each class
    as its last row arrives and builds D in the place of the rows it
    drops, so the rows and D together come to about max(T/16 - n/8, n/8)
    bytes.  Add one sieve segment's workspace: a byte per odd integer and
    the packed flags, about 1.27 bytes per odd integer.  The charge
    exceeds that: four times the flags below T in whole segments, n + n/4
    bytes for D and the fold, and the workspace at 3 bytes per odd
    integer.  The family holds the flags below its largest T, so the
    bound at its largest n covers every member.
    """
    _checked([n], alpha)
    step = sieve.SEGMENT_WIDTH
    segments = math.ceil(_threshold(n, alpha) / step)  # exact: n, step 2^k
    return n + n // 4 + 4 * (segments * step // 16) + 3 * sieve.SEGMENT_ODDS
