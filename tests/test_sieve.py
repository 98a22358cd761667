"""Sieve correctness against trial division, plus packing and cache format."""

from __future__ import annotations

import math
import os
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblab import cyclotomic, sieve

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

    def test_workspace_is_one_mask(self):
        # one bool per odd integer and the packed flags twice: about
        # 1.25 bytes per odd integer, not a mask and its joined copy
        tracemalloc.start()
        try:
            sieve.sieve_range(0, 2 * sieve.SEGMENT_ODDS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20)

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


STEP = 2 * sieve.SEGMENT_ODDS     # integers per aligned segment


def streamed_odd_primes(x: float) -> np.ndarray:
    """The odd primes below x, streamed by prime_chunks."""
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
        got = sieve.odd_flags_below(x).odd_primes()
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, streamed_odd_primes(x))

    def test_examples(self):
        def below(x):
            return sieve.odd_flags_below(x).odd_primes().tolist()

        assert below(2) == []
        assert below(3) == []
        assert below(3.5) == [3]
        assert below(30) == oracles.trial_primes_below(30)[1:]
        assert below(29)[-1] == 23      # strict p < x

    def test_order_independence(self):
        def below(x):
            return sieve.odd_flags_below(x).odd_primes()

        xs = (10.5, STEP - 0.5, float(STEP), STEP + 1, 2 * STEP + 0.5)
        ascending = [below(x).copy() for x in xs]
        descending = [below(x) for x in reversed(xs)][::-1]
        descending_first = [below(x) for x in reversed(xs)][::-1]
        for a, d, f in zip(ascending, descending, descending_first):
            np.testing.assert_array_equal(d, a)
            np.testing.assert_array_equal(f, a)

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_flags_equal_sieve_range(self, order):
        xs = [0, 1, 2, 3, 3.5] + [k * STEP + d for k in (1, 2, 3)
                                  for d in (-0.5, 0.5)]
        if order == "descending":
            xs.reverse()
        for x in xs:
            got = sieve.odd_flags_below(x)
            want = sieve.sieve_range(0, math.ceil(x))
            assert (got.lo, got.hi) == (0, math.ceil(x)), x
            assert got.flags == want.flags, x

    def test_validation(self):
        with pytest.raises(ValueError):
            sieve.odd_flags_below(-1)
        with pytest.raises(OverflowError):
            sieve.odd_flags_below(2 ** 64)


class TestDiskCache:
    def _expected_bytes(self, lo, hi, flags):
        body = (b"CHEB2" + lo.to_bytes(8, "little")
                + hi.to_bytes(8, "little") + flags)
        return body + zlib.crc32(body).to_bytes(4, "little")

    def test_cache_file_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        rng = sieve.sieve_range(0, 10 ** 4)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        data = files[0].read_bytes()
        assert data == self._expected_bytes(0, 10 ** 4, rng.flags)
        # payload is one bit per odd integer, LSB first, padded to bytes
        assert len(rng.flags) == (10 ** 4 // 2 + 7) // 8

    def test_first_format_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = sieve.sieve_range(0, 2000)
        path = next(tmp_path.iterdir())
        # a CHEB1 file (no CRC) with every odd integer marked prime,
        # both under its own name and under the current one
        cheb1 = (b"CHEB1" + (0).to_bytes(8, "little")
                 + (2000).to_bytes(8, "little") + b"\xff" * len(clean.flags))
        (tmp_path / "sieve-0-2000.cheb1").write_bytes(cheb1)
        assert sieve.sieve_range(0, 2000).flags == clean.flags
        path.write_bytes(cheb1)
        assert sieve.sieve_range(0, 2000).flags == clean.flags
        assert path.read_bytes() == self._expected_bytes(0, 2000, clean.flags)

    def test_flipped_payload_bit_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        clean = cyclotomic.build_D(1 << 12, 0.5)
        # no prime below T is 1 mod 2^13, so marking 1 prime would drop
        # class 1 from D if the damaged file were read
        assert clean.contains(1)
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

        flags = sieve.sieve_range(0, 1000).flags
        monkeypatch.setattr(sieve.os, "replace", recorded)
        threads = [threading.Thread(target=sieve._cache_store,
                                    args=(0, 1000, flags))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(sources) == 2 and sources[0] != sources[1]

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
        path.write_bytes(b"CHEB2" + b"\xff" * (len(clean.flags) + 20))
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
