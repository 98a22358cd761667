"""Sieve correctness against trial division, plus packing and cache format."""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import math
import os
import random
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblab import cli, cyclotomic, sieve

import oracles


STEP = sieve.SEGMENT_WIDTH


def sieved_in_pieces(lo: int, hi: int, piece_odds: int) -> bytes:
    """Flags of [lo, hi) sieved in pieces of piece_odds odd integers,
    joined, as the bytes of a CHEB2 payload."""
    joined = shift = 0
    for start in range(lo, hi, 2 * piece_odds):
        end = min(start + 2 * piece_odds, hi)
        joined |= sieve.sieve_range(start, end) << shift
        shift += end // 2 - start // 2
    return oracles.flag_bytes(joined, lo, hi)


class TestSieveRange:
    def test_first_decade(self):
        bits = sieve.sieve_range(0, 10)
        assert oracles.odd_primes(bits, 0, 10).tolist() == [3, 5, 7]
        # the query layer adds 2
        assert oracles.range_is_prime(bits, 0, 10, 2) is True
        assert oracles.range_is_prime(bits, 0, 10, 1) is False
        assert oracles.range_is_prime(bits, 0, 10, 9) is False

    def test_empty_interval(self):
        bits = sieve.sieve_range(10, 10)
        assert oracles.flag_bytes(bits, 10, 10) == b""
        assert oracles.odd_primes(bits, 10, 10).size == 0

    def test_inner_window(self):
        bits = sieve.sieve_range(100, 120)
        assert oracles.odd_primes(bits, 100, 120).tolist() == [
            101, 103, 107, 109, 113]

    @pytest.mark.parametrize("lo,hi", [(0, 200), (97, 113), (1, 2), (2, 3),
                                       (3, 4), (1000, 1100), (9973, 9974)])
    def test_matches_trial_division(self, lo, hi):
        bits = sieve.sieve_range(lo, hi)
        for m in range(lo, hi):
            assert oracles.range_is_prime(bits, lo, hi, m) \
                == oracles.trial_is_prime(m), m

    @given(st.integers(0, 5000), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matches_trial_division_random(self, a, b):
        lo, hi = min(a, b), max(a, b)
        bits = sieve.sieve_range(lo, hi)
        for m in range(lo | 1, hi, 2):
            assert oracles.range_is_prime(bits, lo, hi, m) \
                == oracles.trial_is_prime(m), m

    @pytest.mark.parametrize("piece_odds", [8, 97, 1000, 4096, 1 << 20])
    def test_segment_independence(self, piece_odds):
        whole = sieve.sieve_range(0, 100000)
        split = sieved_in_pieces(0, 100000, piece_odds)
        assert split == oracles.flag_bytes(whole, 0, 100000)

    @given(st.integers(0, 3000), st.integers(0, 3000), st.integers(8, 512))
    @settings(max_examples=40, deadline=None)
    def test_segment_independence_random(self, a, b, piece_odds):
        lo, hi = min(a, b), max(a, b)
        one = sieve.sieve_range(lo, hi)
        many = sieved_in_pieces(lo, hi, piece_odds)
        assert many == oracles.flag_bytes(one, lo, hi)

    def test_workspace_is_one_mask(self):
        # one byte per odd integer and the packed flags twice: about
        # 1.27 bytes per odd integer, not a row and a copy of it
        tracemalloc.start()
        try:
            sieve.sieve_range(0, sieve.SEGMENT_WIDTH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)

    def test_returns_the_row_int(self):
        # bit i stands for (lo | 1) + 2i: 101, 103, 107, 109 and 113 are
        # bits 0, 1, 3, 4 and 6 of [100, 120)
        bits = sieve.sieve_range(100, 120)
        assert type(bits) is int
        assert bits == 0b1011011

    def test_validation(self):
        with pytest.raises(ValueError):
            sieve.sieve_range(10, 5)
        with pytest.raises(ValueError):
            sieve.sieve_range(-1, 5)
        with pytest.raises(OverflowError):
            sieve.sieve_range(0, (1 << 63) + 2)
        with pytest.raises(OverflowError):
            # wider than the materialization cap; must be streamed instead
            sieve.sieve_range(0, sieve.SEGMENT_WIDTH
                              * sieve.MAX_SEGMENTS_PER_RANGE + 4)
        with pytest.raises(TypeError, match="^lo and hi must be integers$"):
            sieve.sieve_range(0, 10.0)
        with pytest.raises(TypeError, match="^lo and hi must be integers$"):
            next(sieve.prime_chunks(0.5, 10))

    def test_limit(self):
        # 2^44 - 17 is the one prime of the window; its base primes are
        # those below 2^22, the widest table the sieve admits
        top = sieve.MAX_LIMIT
        assert top == 1 << 44
        want = [oracles.trial_is_prime(m) for m in range(top - 23, top, 2)]
        assert odd_flags(sieve.sieve_range(top - 24, top), 12) == want
        assert sum(want) == 1
        with pytest.raises(OverflowError,
                           match=r"^hi=17592186044417 exceeds the 2\*\*44 "):
            sieve.sieve_range(top - 24, top + 1)
        with pytest.raises(OverflowError,
                           match=r"^x=17592186044417 exceeds the 2\*\*44 "):
            sieve.prime_count(top + 1)

    def test_is_prime_out_of_range(self):
        bits = sieve.sieve_range(10, 20)
        with pytest.raises(ValueError):
            oracles.range_is_prime(bits, 10, 20, 20)
        with pytest.raises(ValueError):
            oracles.range_is_prime(bits, 10, 20, 9)


def odd_flags(bits: int, odds: int) -> list[bool]:
    """The first `odds` flags as bools; no bit at or above odds is set."""
    assert bits >> odds == 0
    return [bool(bits >> i & 1) for i in range(odds)]


def packbits(row: bytearray) -> bytes:
    """numpy's packing of a row, which reads each nonzero byte as 1."""
    return np.packbits(np.frombuffer(row, np.uint8),
                       bitorder="little").tobytes()


def weighted(bits: list[int]) -> bytearray:
    """A row as the kernel makes it: byte i is bits[i] << (i % 8)."""
    return bytearray(bit << i % 8 for i, bit in enumerate(bits))


class TestKernel:
    """The bytearray strike and its packer, against routes that share no
    code with them: trial division, numpy's packbits, and flags of the
    numpy kernel that 0.11.0 shipped, which CHEB2 files hold."""

    # zlib.crc32 of the flags of aligned segment k, from 0.11.0
    FROZEN_CRC = {0: 0x90273B8A, 1: 0x3B94E8B5, 32: 0x5B4800DD,
                  563: 0xF88FA1AC}

    # the wheel clears 3..13 and the strike each base prime from 17 as a
    # multiple of itself, and both put them back; 289, 361 and 529 are
    # the least multiples struck for 17, 19 and 23
    @pytest.mark.parametrize("lo,hi", [
        (0, 2), (1, 16), (3, 14), (5, 6), (7, 8), (11, 12), (13, 14),
        (12, 18), (13, 600), (289, 290), (288, 292), (361, 362), (529, 530),
        (520, 540)])
    def test_small_primes_and_least_struck_squares(self, lo, hi):
        want = [oracles.trial_is_prime(m) for m in range(lo | 1, hi, 2)]
        assert odd_flags(sieve.sieve_range(lo, hi), len(want)) == want

    @pytest.mark.parametrize("k", sorted(FROZEN_CRC))
    def test_frozen_segments(self, k):
        lo, hi = k * STEP, (k + 1) * STEP
        bits = sieve.sieve_range(lo, hi)
        assert zlib.crc32(oracles.flag_bytes(bits, lo, hi)) \
            == self.FROZEN_CRC[k]

    # windows whose first odd integer has an odd index (lo | 1) // 2 that
    # is not a multiple of 8, so a row's bit i is not that index's bit
    @given(st.one_of(st.integers(0, 1 << 40), st.integers(1 << 39, 1 << 40))
           .filter(lambda lo: (lo | 1) // 2 % 8),
           st.integers(0, 64))
    @example((1 << 40) - 64, 64)
    @example(2, 13)
    @settings(max_examples=25, deadline=None)
    def test_windows_up_to_2_40(self, lo, width):
        hi = lo + width
        want = [oracles.trial_is_prime(m) for m in range(lo | 1, hi, 2)]
        assert odd_flags(sieve.sieve_range(lo, hi), len(want)) == want

    @pytest.mark.parametrize("size", [
        0, 1, 7, 8, 9, 1000, sieve._PACK_PIECE - 1, sieve._PACK_PIECE,
        sieve._PACK_PIECE + 1, 2 * sieve._PACK_PIECE + 13])
    def test_packer_on_random_rows(self, size):
        rng = random.Random(size)
        row = weighted([rng.getrandbits(1) for _ in range(size)])
        want = bytes(sum(row[j:j + 8]) for j in range(0, size, 8))
        assert sieve._packed(row) == want

    @pytest.mark.parametrize("lo,hi", [
        (0, STEP), (STEP, 2 * STEP), (32 * STEP, 33 * STEP), (0, 10 ** 5),
        (12345, 12345 + 3 * 10 ** 5), (STEP - 77, STEP + 1001)])
    def test_packer_matches_packbits_on_segments(self, lo, hi):
        row = sieve._odd_bytes(lo, hi)
        assert sieve._packed(row) == packbits(row)


class TestPrimeCount:
    # pi(10^3), pi(10^4), pi(10^5), pi(10^6) from the trial-division oracle
    FROZEN = {10 ** 3: 168, 10 ** 4: 1229, 10 ** 5: 9592, 10 ** 6: 78498}

    @pytest.mark.parametrize("x,expected", sorted(FROZEN.items()))
    def test_frozen_oracle_values(self, x, expected):
        assert sieve.prime_count(x) == expected

    def test_small_values(self):
        assert sieve.prime_count(0) == 0
        assert sieve.prime_count(2) == 0
        assert sieve.prime_count(2.5) == 1
        assert sieve.prime_count(3) == 1
        assert sieve.prime_count(10) == 4

    def test_strict_upper_bound(self):
        # p < x convention: the prime at x itself is excluded
        assert sieve.prime_count(7) == 3
        assert sieve.prime_count(7.5) == 4
        assert sieve.prime_count(8) == 4

    @given(st.integers(0, 2000))
    @settings(max_examples=50, deadline=None)
    def test_matches_trial_division(self, x):
        assert sieve.prime_count(x) == oracles.trial_prime_count(x)

    @given(st.integers(0, 10 ** 5), st.integers(0, 10 ** 5))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, a, b):
        x, y = min(a, b), max(a, b)
        assert sieve.prime_count(x) <= sieve.prime_count(y)

    def test_validation(self):
        with pytest.raises(ValueError):
            sieve.prime_count(-1)
        with pytest.raises(OverflowError):
            sieve.prime_count(2 ** 64)


def sieve_check(limit: int, q: int) -> dict:
    """The detail fields of each sieve-check row at --limit and --q."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["sieve-check", "--limit", str(limit), "--q", str(q)])
    assert rc == cli.EXIT_OK, out.getvalue()
    rows = (line.split(",") for line in out.getvalue().splitlines()[1:])
    return {check: dict(field.split("=") for field in detail.split())
            for check, _, detail in rows}


def ap_fields(primes: list[int], limit: int, q: int) -> dict:
    """The ap-partition fields sieve-check should print, from primes."""
    below = primes[:bisect.bisect_left(primes, limit)]
    return {
        "x": str(limit), "q": str(q),
        "coprime": str(sum(1 for p in below if math.gcd(p, q) == 1)),
        "divisors": str(sum(1 for p in below if q % p == 0)),
        "total": str(len(below)),
    }


@pytest.fixture(scope="module")
def primes_below_3e4() -> list[int]:
    return oracles.trial_primes_below(3 * 10 ** 4)


class TestPrimesInAP:
    """Prime counts in the progressions mod q, as sieve-check's
    ap-partition makes them from one walk of the sieve, against trial
    division."""

    def test_examples(self):
        assert sieve_check(10, 4)["ap-partition"] == {
            "x": "10", "q": "4", "coprime": "3", "divisors": "1",
            "total": "4"}             # 3, 5, 7 and the divisor 2
        assert sieve_check(10, 15)["ap-partition"]["divisors"] == "2"

    def test_counts_two(self):
        # 2 is the only prime dividing q = 2; q = 1 has no prime divisor
        assert sieve_check(10, 2)["ap-partition"] == {
            "x": "10", "q": "2", "coprime": "3", "divisors": "1",
            "total": "4"}
        assert sieve_check(10, 1)["ap-partition"] == {
            "x": "10", "q": "1", "coprime": "4", "divisors": "0",
            "total": "4"}

    @pytest.mark.parametrize("q", [3, 4, 5, 8, 12])
    @pytest.mark.parametrize("x", [100, 10 ** 4])
    def test_partition(self, q, x, primes_below_3e4):
        want = ap_fields(primes_below_3e4, x, q)
        assert sieve_check(x, q)["ap-partition"] == want
        assert int(want["coprime"]) + int(want["divisors"]) \
            == int(want["total"])

    @given(st.integers(10, 3 * 10 ** 4), st.integers(1, 60))
    @example(10, 1)
    @example(10, 60)
    @example(1000, 997)
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration(self, primes_below_3e4, limit, q):
        fields = sieve_check(limit, q)
        assert fields["ap-partition"] == ap_fields(primes_below_3e4, limit, q)
        # the points 100 and 1000 may lie past the limit
        xs = sorted({2, 10, 100, 1000, limit // 2, limit})
        want = [bisect.bisect_left(primes_below_3e4, x) for x in xs]
        assert fields["monotonicity"]["counts"] == ";".join(map(str, want))

    def test_validation(self, capsys):
        for argv in (("--q", "0"), ("--q", "-1"), ("--limit", "9")):
            assert cli.main(["sieve-check", *argv]) == cli.EXIT_USAGE
        capsys.readouterr()


class TestIteratePrimes:
    """Iterating the primes of [lo, hi) through prime_chunks."""

    def collect(self, lo, hi):
        return [p for chunk in sieve.prime_chunks(lo, hi) for p in chunk]

    def test_examples(self):
        assert self.collect(0, 6) == [2, 3, 5]
        assert self.collect(4, 5) == []
        assert self.collect(89, 98) == [89, 97]

    def test_increasing_order_matches_oracle(self):
        got = self.collect(0, 1000)
        assert got == oracles.trial_primes_below(1000)
        assert got == sorted(got)

    def test_chunked_iteration_is_seamless(self):
        # the chunks are aligned segments; this range crosses two boundaries
        lo, hi = STEP - 10 ** 4, 2 * STEP + 10 ** 4
        got = oracles.odd_primes(sieve.sieve_range(lo, hi), lo, hi).tolist()
        chunked: list[int] = []
        for chunk in sieve.prime_chunks(lo, hi):
            chunked.extend(chunk)
        assert got == chunked

    def test_sieves_the_segments_that_meet_the_range(self, monkeypatch):
        sieve_range = sieve.sieve_range
        calls = []

        def recorded(lo, hi):
            calls.append((lo, hi))
            return sieve_range(lo, hi)

        monkeypatch.setattr(sieve, "sieve_range", recorded)
        assert self.collect(5, 5) == [] and calls == []
        self.collect(STEP - 10, STEP + 10)
        assert calls == [(0, STEP), (STEP, 2 * STEP)]

    def test_sieves_only_segments_holding_an_odd_integer(self, monkeypatch):
        # the only integer of [STEP, 2 * STEP) below STEP + 1 is even
        sieve_range = sieve.sieve_range
        calls = []

        def recorded(lo, hi):
            calls.append((lo, hi))
            return sieve_range(lo, hi)

        monkeypatch.setattr(sieve, "sieve_range", recorded)
        assert self.collect(STEP, STEP + 1) == [] and calls == []
        assert self.collect(4, 5) == [] and calls == []
        assert self.collect(3, STEP + 1)[-1] == 2097143
        assert calls == [(0, STEP)]

    def test_sieves_no_segment_below_the_range(self, monkeypatch):
        # segments sieved as 0, so only the calls are checked
        calls = []

        def recorded(lo, hi):
            calls.append((lo, hi))
            return 0

        monkeypatch.setattr(sieve, "sieve_range", recorded)
        assert self.collect(5 * STEP + 3, 6 * STEP + 10) == []
        assert calls == [(5 * STEP, 6 * STEP), (6 * STEP, 7 * STEP)]

    @given(st.lists(st.one_of(*(st.integers(max(0, c - 10 ** 4), c + 10 ** 4)
                                for c in (0, STEP, 2 * STEP))),
                    min_size=2, max_size=2))
    @example([STEP, 2 * STEP])
    @example([STEP - 1, STEP + 1])
    @example([0, 3])
    @settings(max_examples=25, deadline=None)
    def test_chunks_equal_one_sieved_range(self, ends):
        lo, hi = sorted(ends)
        want = ([2] if lo <= 2 < hi else []) \
            + oracles.odd_primes(sieve.sieve_range(lo, hi), lo, hi).tolist()
        assert self.collect(lo, hi) == want

    # chunks and sieve_range calls of prime_chunks over ranges that are
    # empty, hold 2 alone, cross segment seams or lie at 2^40, and the
    # sha256 of their repr as cheblab 0.27.0 gave them
    FROZEN_RANGES = [(0, 3), (2, 3), (10, 11), (0, 1),
                     (STEP - 50, STEP + 50), (3 * STEP + 7, 5 * STEP - 3),
                     (2 ** 40 - 10 ** 5, 2 ** 40), (0, 10 ** 6)]
    FROZEN_DIGEST = (
        "f4bf2913071e4b89976c31ffa80706e199140f47fd3674dab20563311d88cbf3")

    def test_frozen_chunks_and_calls(self, monkeypatch):
        sieve_range = sieve.sieve_range
        calls = []

        def recorded(lo, hi):
            calls.append((lo, hi))
            return sieve_range(lo, hi)

        monkeypatch.setattr(sieve, "sieve_range", recorded)
        digest = hashlib.sha256()
        for lo, hi in self.FROZEN_RANGES:
            calls.clear()
            chunks = list(sieve.prime_chunks(lo, hi))
            digest.update(repr((lo, hi, chunks, calls)).encode())
        assert digest.hexdigest() == self.FROZEN_DIGEST

    def test_validation(self):
        with pytest.raises(ValueError):
            self.collect(5, 4)
        with pytest.raises(OverflowError):
            self.collect(0, (1 << 63) + 2)


def streamed_odd_primes(x: float) -> np.ndarray:
    """The odd primes below x, streamed by prime_chunks."""
    chunks = sieve.prime_chunks(3, max(3, math.ceil(x)))
    return np.array([p for chunk in chunks for p in chunk], dtype=np.int64)


def joined(rows) -> int:
    """The rows of odd_rows as one int, row k shifted by k * 2^20 bits."""
    return sum(row << (k * sieve.SEGMENT_ODDS) for k, row in enumerate(rows))


def row_primes(x: float) -> np.ndarray:
    """The odd primes below x, decoded from the bits of odd_rows(x)."""
    parts = [np.empty(0, dtype=np.int64)]
    for k, row in enumerate(sieve.odd_rows(x)):
        # to_bytes raises OverflowError on a row wider than one segment
        packed = np.frombuffer(row.to_bytes(sieve.SEGMENT_ODDS // 8, "little"),
                               dtype=np.uint8)
        index = np.flatnonzero(np.unpackbits(packed, bitorder="little"))
        parts.append(2 * (k * sieve.SEGMENT_ODDS + index) + 1)
    return np.concatenate(parts)


class TestPrimeTable:
    """sieve.odd_rows, the one reader of the flags as bits."""

    @given(st.one_of(
        st.floats(0, 3),
        st.floats(0, 2 * STEP + 1),
        st.builds(lambda k, d: k * STEP + d,
                  st.integers(1, 2), st.sampled_from([-0.5, 0.0, 0.5])),
    ))
    @example(0.0)
    @example(3.0)
    @example(3.5)
    @example(STEP - 0.5)
    @example(float(STEP))
    @example(STEP + 0.5)
    @settings(max_examples=20, deadline=None)
    def test_matches_streamed_primes(self, x):
        np.testing.assert_array_equal(row_primes(x), streamed_odd_primes(x))

    def test_examples(self):
        def below(x):
            return row_primes(x).tolist()

        assert below(2) == []
        assert below(3) == []
        assert below(3.5) == [3]
        assert below(30) == oracles.trial_primes_below(30)[1:]
        assert below(29)[-1] == 23      # strict p < x

    def test_order_independence(self):
        def below(x):
            return joined(sieve.odd_rows(x))

        xs = (10.5, STEP - 0.5, float(STEP), STEP + 1, 2 * STEP + 0.5)
        ascending = [below(x) for x in xs]
        descending = [below(x) for x in reversed(xs)][::-1]
        assert descending == ascending

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_flags_equal_sieve_range(self, order):
        xs = [0, 1, 2, 3, 3.5] + [k * STEP + d for k in (1, 2, 3)
                                  for d in (-0.5, 0.5, 1)]
        if order == "descending":
            xs.reverse()
        for x in xs:
            limit = math.ceil(x)
            rows = list(sieve.odd_rows(x))
            assert joined(rows) == sieve.sieve_range(0, limit), x
            # one row per aligned segment holding an odd integer below
            # ceil(x), each of at most 2^20 bits, the last cut below ceil(x)
            odds = limit // 2
            assert len(rows) == -(-odds // sieve.SEGMENT_ODDS), x
            assert all(row.bit_length() <= sieve.SEGMENT_ODDS for row in rows)
            if rows:
                last = odds - (len(rows) - 1) * sieve.SEGMENT_ODDS
                assert rows[-1].bit_length() <= last, x

    def test_uncut_rows_are_sieve_range_segments(self, monkeypatch):
        # row k is sieve_range of segment k, whose CRC 0.11.0 froze; the
        # segments between are sieved as 0, so the walk to 563 is cheap
        sieve_range, wanted = sieve.sieve_range, TestKernel.FROZEN_CRC

        def sparse(lo, hi):
            return sieve_range(lo, hi) if lo // STEP in wanted else 0

        monkeypatch.setattr(sieve, "sieve_range", sparse)
        rows = {k: row for k, row in enumerate(sieve.odd_rows(564 * STEP))
                if k in (0, 1, 563)}
        assert sorted(rows) == [0, 1, 563]
        for k, row in rows.items():
            lo, hi = k * STEP, (k + 1) * STEP
            assert row == sieve_range(lo, hi), k
            assert zlib.crc32(oracles.flag_bytes(row, lo, hi)) == wanted[k]

    @pytest.mark.parametrize("x", [5 * STEP + 12345, 6 * STEP])
    def test_first_row(self, x):
        # x cuts the last row mid-way, or at its end
        rows = list(sieve.odd_rows(x))
        for first in (0, 1, 2, 5):
            assert list(sieve.odd_rows(x, first)) == rows[first:], first

    def test_first_row_sieves_no_earlier_segment(self, monkeypatch):
        calls = []

        def recorded(lo, hi):
            calls.append(lo // STEP)
            return 0

        monkeypatch.setattr(sieve, "sieve_range", recorded)
        assert len(list(sieve.odd_rows(6 * STEP + 2, 4))) == 3
        assert calls == [4, 5, 6]
        # a first row past the last one: no row and no segment
        calls.clear()
        assert list(sieve.odd_rows(6 * STEP + 2, 7)) == []
        assert list(sieve.odd_rows(2.5, 1)) == [] and calls == []

    @pytest.mark.parametrize("k", [1, 7])
    @pytest.mark.parametrize("d", [-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2])
    def test_row_count_is_the_walks_last_row(self, monkeypatch, k, d):
        # cyclotomic._walk states the last row below T as
        # (ceil(T) // 2 - 1) // 2^20; odd_rows stops its segments at
        # ceil(T) - 1: the two agree, with nothing sieved
        monkeypatch.setattr(sieve, "sieve_range", lambda lo, hi: 0)
        T = k * STEP + d
        last = (math.ceil(T) // 2 - 1) // sieve.SEGMENT_ODDS
        assert sum(1 for _ in sieve.odd_rows(T)) == last + 1

    def test_validation(self):
        # raised by the call itself, before any row is read
        with pytest.raises(ValueError):
            sieve.odd_rows(-1)
        with pytest.raises(OverflowError):
            sieve.odd_rows(2 ** 64)

    @pytest.mark.parametrize("x", [-1, math.nan])
    @pytest.mark.parametrize("first", [0, 3])
    def test_validation_from_a_first_row(self, x, first):
        # nan and a negative x raise on the call, not on the first next()
        with pytest.raises(ValueError):
            sieve.odd_rows(x, first)


def bits_of(row: int) -> np.ndarray:
    """The 2^20 bits of a row as 0/1 bytes, bit i at index i."""
    packed = np.frombuffer(row.to_bytes(sieve.SEGMENT_ODDS // 8, "little"),
                           dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little")


class TestCut:
    """sieve.cut keeps the bits of row k whose odd integer
    2 * (k * 2^20 + i) + 1 lies below ceil(x); the oracle reads that off
    the row's unpacked bits and shares no code with it."""

    X = [0, 0.5, 2, 2.5, STEP - 1, STEP, STEP + 1, 3 * STEP + 5.5]

    @staticmethod
    def oracle(row: int, k: int, x: float) -> np.ndarray:
        bits = bits_of(row)
        odd = 2 * (k * sieve.SEGMENT_ODDS + np.arange(bits.size)) + 1
        return np.where(odd < math.ceil(x), bits, 0)

    @pytest.mark.parametrize("x", X)
    @pytest.mark.parametrize("fill", ["ones", "random"])
    def test_matches_unpacked_bits(self, x, fill):
        size = sieve.SEGMENT_ODDS
        row = ((1 << size) - 1 if fill == "ones"
               else random.Random(x).getrandbits(size))
        own = math.ceil(x) // 2 // size       # the row that holds x
        for k in {max(own - 1, 0), own, own + 1}:
            np.testing.assert_array_equal(
                bits_of(sieve.cut(row, k, x)), self.oracle(row, k, x),
                err_msg=f"k={k}")


class TestTile:
    """tile repeats a pattern of `period` bits across a row: the row's
    bits equal the pattern written out as a string, repeated and cut."""

    ROW = sieve.SEGMENT_ODDS

    @pytest.mark.parametrize("period", [1 << k for k in range(21)]
                             + [3, 17, 8191, 1048583])
    def test_row_bits_repeat_the_pattern(self, period):
        for bits in (1, random.Random(period).getrandbits(period)):
            pattern = format(bits, f"0{period}b")[::-1]   # bit 0 first
            repeated = (pattern * (self.ROW // period + 1))[:self.ROW]
            want = int(repeated[::-1], 2)
            assert sieve.tile(bits, period) & ((1 << self.ROW) - 1) == want

    @pytest.mark.parametrize("period", [1 << 20, 1 << 21, 1048583])
    def test_a_period_of_a_row_or_more_is_the_pattern_itself(self, period):
        bits = random.Random(period).getrandbits(period)
        assert sieve.tile(bits, period) is bits
        assert sieve.tile(1, period) == 1


class TestDiskCache:
    def _expected_bytes(self, lo, hi, bits):
        body = (b"CHEB2" + lo.to_bytes(8, "little")
                + hi.to_bytes(8, "little") + oracles.flag_bytes(bits, lo, hi))
        return body + zlib.crc32(body).to_bytes(4, "little")

    def test_cache_file_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        bits = sieve.sieve_range(0, STEP)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        data = files[0].read_bytes()
        assert data == self._expected_bytes(0, STEP, bits)
        # payload is one bit per odd integer, LSB first, padded to bytes
        assert len(data) == 21 + (STEP // 2 + 7) // 8 + 4

    def test_no_cache_dir_serializes_nothing(self, monkeypatch):
        monkeypatch.delenv(sieve.CACHE_ENV, raising=False)
        calls = []
        monkeypatch.setattr(sieve, "_cache_read",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(sieve, "_cache_write",
                            lambda *args: calls.append(args))
        sieve.sieve_range(0, sieve.SEGMENT_WIDTH)
        assert calls == []

    def test_first_format_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = sieve.sieve_range(0, STEP)
        path = next(tmp_path.iterdir())
        # a CHEB1 file (no CRC) with every odd integer marked prime,
        # both under its own name and under the current one
        cheb1 = (b"CHEB1" + (0).to_bytes(8, "little")
                 + STEP.to_bytes(8, "little") + b"\xff" * (STEP // 16))
        (tmp_path / f"sieve-0-{STEP}.cheb1").write_bytes(cheb1)
        assert sieve.sieve_range(0, STEP) == clean
        path.write_bytes(cheb1)
        assert sieve.sieve_range(0, STEP) == clean
        assert path.read_bytes() == self._expected_bytes(0, STEP, clean)

    def test_flipped_payload_bit_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = cyclotomic.build_D(1 << 12, 0.5)
        # no prime below T is 1 mod 2^13, so marking 1 prime would drop
        # class 1 from D if the damaged file were read
        assert oracles.mask(clean)[1 // 2]
        path = tmp_path / f"sieve-0-{STEP}.cheb2"
        good = path.read_bytes()
        data = bytearray(good)
        data[21] ^= 1               # payload bit 0: the odd integer 1
        path.write_bytes(bytes(data))
        assert cyclotomic.build_D(1 << 12, 0.5).D_size == clean.D_size
        assert path.read_bytes() == good

    def test_temp_names_unique_per_thread(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        replace = os.replace
        sources = []
        # both writers wait here, so both are alive when each names its
        # file: a thread id is unique only among live threads
        both = threading.Barrier(2, timeout=60)

        def recorded(src, dst):
            sources.append(src)
            both.wait()
            replace(src, dst)

        payload = oracles.flag_bytes(sieve.sieve_range(0, 1000), 0, 1000)
        monkeypatch.setattr(sieve.os, "replace", recorded)
        threads = [threading.Thread(target=sieve._cache_write,
                                    args=(*sieve._segment_file(0, 1000),
                                          payload))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(sources) == 2 and sources[0] != sources[1]

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        first = sieve.sieve_range(STEP, 2 * STEP)
        path = next(tmp_path.iterdir())
        stamp = path.stat().st_mtime_ns
        again = sieve.sieve_range(STEP, 2 * STEP)
        assert again == first
        assert path.stat().st_mtime_ns == stamp  # served from disk, not rewritten

    def test_corrupt_cache_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = sieve.sieve_range(0, STEP)
        path = next(tmp_path.iterdir())
        path.write_bytes(b"CHEB2" + b"\xff" * (STEP // 16 + 20))
        recomputed = sieve.sieve_range(0, STEP)
        assert recomputed == clean

    def test_wrong_header_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = sieve.sieve_range(0, STEP)
        path = next(tmp_path.iterdir())
        data = bytearray(path.read_bytes())
        data[:5] = b"NOPE1"
        path.write_bytes(bytes(data))
        assert sieve.sieve_range(0, STEP) == clean

    def test_unwritable_cache_dir_is_silent(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv(sieve.CACHE_ENV, str(blocker / "sub"))
        odds = oracles.odd_primes(sieve.sieve_range(0, STEP), 0, STEP)
        assert odds[odds < 100].tolist() == oracles.trial_primes_below(100)[1:]

    def test_no_env_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(sieve.CACHE_ENV, raising=False)
        sieve.sieve_range(0, STEP)
        assert list(tmp_path.iterdir()) == []

    def test_only_aligned_segments_are_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        for lo, hi in [(0, 1000), (1, STEP + 1), (STEP, 3 * STEP),
                       (0, STEP - 2), (STEP // 2, 3 * STEP // 2)]:
            sieve.sieve_range(lo, hi)
        assert list(tmp_path.iterdir()) == []
        list(sieve.prime_chunks(3, 5 * 10 ** 6))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"sieve-{k * STEP}-{(k + 1) * STEP}.cheb2" for k in (0, 1, 2)]

    def test_failed_store_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(sieve.os, "replace", refuse)
        clean = sieve.sieve_range(0, STEP)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.delenv(sieve.CACHE_ENV)
        assert sieve.sieve_range(0, STEP) == clean
