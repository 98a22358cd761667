"""Sieve correctness against trial division, plus packing and cache format."""

from __future__ import annotations

import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblab import sieve

import oracles


class TestSieveRange:
    def test_first_decade(self):
        rng = sieve.sieve_range(0, 10)
        assert rng.odd_primes().tolist() == [3, 5, 7]
        assert rng.is_prime(2) is True  # query layer adds 2
        assert rng.is_prime(1) is False
        assert rng.is_prime(9) is False

    def test_empty_interval(self):
        rng = sieve.sieve_range(10, 10)
        assert rng.odd_count == 0
        assert rng.flags == b""
        assert rng.count_odd_primes() == 0

    def test_inner_window(self):
        rng = sieve.sieve_range(100, 120)
        assert rng.odd_primes().tolist() == [101, 103, 107, 109, 113]

    @pytest.mark.parametrize("lo,hi", [(0, 200), (97, 113), (1, 2), (2, 3),
                                       (3, 4), (1000, 1100), (9973, 9974)])
    def test_matches_trial_division(self, lo, hi):
        rng = sieve.sieve_range(lo, hi)
        for m in range(lo, hi):
            assert rng.is_prime(m) == oracles.trial_is_prime(m), m

    @given(st.integers(0, 5000), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_matches_trial_division_random(self, a, b):
        lo, hi = min(a, b), max(a, b)
        rng = sieve.sieve_range(lo, hi)
        for m in range(lo | 1, hi, 2):
            assert rng.is_prime(m) == oracles.trial_is_prime(m), m

    @pytest.mark.parametrize("segment_odds", [8, 97, 1000, 4096, 1 << 20])
    def test_segment_independence(self, segment_odds):
        whole = sieve.sieve_range(0, 100000, segment_odds=1 << 20)
        split = sieve.sieve_range(0, 100000, segment_odds=segment_odds)
        assert split.flags == whole.flags

    @given(st.integers(0, 3000), st.integers(0, 3000), st.integers(8, 512))
    @settings(max_examples=40, deadline=None)
    def test_segment_independence_random(self, a, b, segment_odds):
        lo, hi = min(a, b), max(a, b)
        one = sieve.sieve_range(lo, hi, segment_odds=1 << 20)
        many = sieve.sieve_range(lo, hi, segment_odds=segment_odds)
        assert many.flags == one.flags

    def test_validation(self):
        with pytest.raises(ValueError):
            sieve.sieve_range(10, 5)
        with pytest.raises(ValueError):
            sieve.sieve_range(-1, 5)
        with pytest.raises(OverflowError):
            sieve.sieve_range(0, (1 << 63) + 2)
        with pytest.raises(OverflowError):
            # wider than the materialization cap; must be streamed instead
            sieve.sieve_range(0, 2 * sieve.SEGMENT_ODDS
                              * sieve.MAX_SEGMENTS_PER_RANGE + 4)
        with pytest.raises(ValueError):
            sieve.sieve_range(0, 100, segment_odds=4)

    def test_is_prime_out_of_range(self):
        rng = sieve.sieve_range(10, 20)
        with pytest.raises(ValueError):
            rng.is_prime(20)
        with pytest.raises(ValueError):
            rng.is_prime(9)


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


class TestPrimesInAP:
    def test_examples(self):
        assert sieve.primes_in_ap_count(10, 4, 1) == 1  # p = 5
        assert sieve.primes_in_ap_count(10, 4, 3) == 2  # p = 3, 7
        assert sieve.primes_in_ap_count(2, 3, 1) == 0

    def test_counts_two(self):
        assert sieve.primes_in_ap_count(10, 2, 0) == 1  # only p = 2
        assert sieve.primes_in_ap_count(10, 1, 0) == 4

    @pytest.mark.parametrize("q", [3, 4, 5, 8, 12])
    @pytest.mark.parametrize("x", [100, 10 ** 4])
    def test_partition(self, q, x):
        coprime = sum(
            sieve.primes_in_ap_count(x, q, d)
            for d in range(q)
            if np.gcd(d, q) == 1
        )
        divisors = sum(
            1 for p in oracles.trial_primes_below(x) if q % p == 0
        )
        assert coprime + divisors == sieve.prime_count(x)

    @given(st.integers(2, 400), st.integers(1, 30), st.integers(0, 29))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, x, q, d):
        if d >= q:
            d = d % q
        assert sieve.primes_in_ap_count(x, q, d) == oracles.ap_count_brute(x, q, d)

    def test_validation(self):
        with pytest.raises(ValueError):
            sieve.primes_in_ap_count(10, 4, 4)
        with pytest.raises(ValueError):
            sieve.primes_in_ap_count(10, 4, -1)
        with pytest.raises(ValueError):
            sieve.primes_in_ap_count(10, 0, 0)


class TestIteratePrimes:
    """Iterating the primes of [lo, hi) through prime_chunks."""

    def collect(self, lo, hi):
        return [p for chunk in sieve.prime_chunks(lo, hi) for p in chunk.tolist()]

    def test_examples(self):
        assert self.collect(0, 6) == [2, 3, 5]
        assert self.collect(4, 5) == []
        assert self.collect(89, 98) == [89, 97]

    def test_increasing_order_matches_oracle(self):
        got = self.collect(0, 1000)
        assert got == oracles.trial_primes_below(1000)
        assert got == sorted(got)

    def test_chunked_iteration_is_seamless(self):
        got = self.collect(0, 10 ** 4)
        chunked: list[int] = []
        for chunk in sieve.prime_chunks(0, 10 ** 4, segment_odds=64):
            chunked.extend(chunk.tolist())
        assert got == chunked

    def test_validation(self):
        with pytest.raises(ValueError):
            self.collect(5, 4)
        with pytest.raises(OverflowError):
            self.collect(0, (1 << 63) + 2)


STEP = 2 * sieve.SEGMENT_ODDS     # integers per aligned table segment


def streamed_odd_primes(x: float) -> np.ndarray:
    """The odd primes below x, streamed by prime_chunks without the table."""
    chunks = list(sieve.prime_chunks(3, max(3, math.ceil(x))))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


class TestPrimeTable:
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
        got = sieve.odd_primes_below(x)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, streamed_odd_primes(x))

    def test_examples(self, fresh_prime_table):
        assert sieve.odd_primes_below(2).tolist() == []
        assert sieve.odd_primes_below(3).tolist() == []
        assert sieve.odd_primes_below(3.5).tolist() == [3]
        assert sieve.odd_primes_below(30).tolist() == \
            oracles.trial_primes_below(30)[1:]
        assert sieve.odd_primes_below(29).tolist()[-1] == 23   # strict p < x

    def test_order_independence(self, fresh_prime_table):
        xs = (10.5, STEP - 0.5, float(STEP), STEP + 1, 2 * STEP + 0.5)
        ascending = [sieve.odd_primes_below(x).copy() for x in xs]
        descending = [sieve.odd_primes_below(x) for x in reversed(xs)][::-1]
        fresh_prime_table()
        descending_first = [sieve.odd_primes_below(x)
                            for x in reversed(xs)][::-1]
        for a, d, f in zip(ascending, descending, descending_first):
            np.testing.assert_array_equal(d, a)
            np.testing.assert_array_equal(f, a)

    def test_threads_sieve_each_segment_once(self, fresh_prime_table,
                                             monkeypatch):
        calls = []
        sieve_range = sieve.sieve_range

        def counted(lo, hi, *args, **kwargs):
            calls.append((lo, hi))
            return sieve_range(lo, hi, *args, **kwargs)

        monkeypatch.setattr(sieve, "sieve_range", counted)
        # four requesters and a short switch interval, so they interleave
        xs = (100.5, STEP + 0.5, 2 * STEP - 7, float(2 * STEP))
        barrier = threading.Barrier(len(xs), timeout=60)
        results = {}

        def request(x):
            barrier.wait()
            results[x] = sieve.odd_primes_below(x)

        threads = [threading.Thread(target=request, args=(x,)) for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == [(0, STEP), (STEP, 2 * STEP)]
        for x in xs:
            np.testing.assert_array_equal(results[x], streamed_odd_primes(x))

    def test_slices_are_read_only(self):
        primes = sieve.odd_primes_below(100)
        with pytest.raises(ValueError):
            primes[0] = 4

    def test_validation(self):
        with pytest.raises(ValueError):
            sieve.odd_primes_below(-1)
        with pytest.raises(OverflowError):
            sieve.odd_primes_below(2 ** 64)


class TestDiskCache:
    def _expected_bytes(self, lo, hi, flags):
        return (b"CHEB1" + lo.to_bytes(8, "little")
                + hi.to_bytes(8, "little") + flags)

    def test_cache_file_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        rng = sieve.sieve_range(0, 10 ** 4)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        data = files[0].read_bytes()
        assert data == self._expected_bytes(0, 10 ** 4, rng.flags)
        # payload is one bit per odd integer, LSB first, padded to bytes
        assert len(rng.flags) == (10 ** 4 // 2 + 7) // 8

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        first = sieve.sieve_range(1000, 5000)
        path = next(tmp_path.iterdir())
        stamp = path.stat().st_mtime_ns
        again = sieve.sieve_range(1000, 5000)
        assert again.flags == first.flags
        assert path.stat().st_mtime_ns == stamp  # served from disk, not rewritten

    def test_corrupt_cache_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = sieve.sieve_range(0, 2000)
        path = next(tmp_path.iterdir())
        path.write_bytes(b"CHEB1" + b"\xff" * (len(clean.flags) + 16))
        recomputed = sieve.sieve_range(0, 2000)
        assert recomputed.flags == clean.flags

    def test_wrong_header_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = sieve.sieve_range(0, 2000)
        path = next(tmp_path.iterdir())
        data = bytearray(path.read_bytes())
        data[:5] = b"NOPE1"
        path.write_bytes(bytes(data))
        assert sieve.sieve_range(0, 2000).flags == clean.flags

    def test_unwritable_cache_dir_is_silent(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv(sieve.CACHE_ENV, str(blocker / "sub"))
        rng = sieve.sieve_range(0, 100)
        assert rng.odd_primes().tolist() == oracles.trial_primes_below(100)[1:]

    def test_no_env_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(sieve.CACHE_ENV, raising=False)
        sieve.sieve_range(0, 1000)
        assert list(tmp_path.iterdir()) == []
