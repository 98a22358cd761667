"""Split-prime detection against an exhaustive form scan; group statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheblab import dihedral

import oracles

# Least totally split prime per n, frozen from an increasing brute-force
# scan double-checked by the exhaustive a-scan oracle.
MIN_SPLIT = {
    4: 17,
    8: 73,
    16: 257,
    32: 1033,
    64: 4177,
    128: 16433,
    256: 65537,
    512: 262153,
    1024: 1048601,
}


class TestIsTotallySplit:
    def test_examples(self):
        assert dihedral.is_totally_split(17, 4) is True   # 17 = 1 + 16
        assert dihedral.is_totally_split(13, 4) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            dihedral.is_totally_split(2, 4)
        with pytest.raises(ValueError):
            dihedral.is_totally_split(16, 4)
        with pytest.raises(ValueError):
            dihedral.is_totally_split(17, 6)
        with pytest.raises(ValueError):
            dihedral.is_totally_split(17, 2)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_agrees_with_exhaustive_scan_small(self, n):
        for p in oracles.trial_primes_below(10 ** 4):
            if p == 2:
                continue
            assert dihedral.is_totally_split(p, n) == \
                oracles.represented_by_form(p, n), (p, n)

    def test_agrees_with_exhaustive_scan_to_1e5(self):
        # full sweep of the quantified invariant at its cheapest n
        for p in oracles.trial_primes_below(10 ** 5):
            if p == 2:
                continue
            assert dihedral.is_totally_split(p, 4) == \
                oracles.represented_by_form(p, 4), p

    @given(st.integers(1, 5000), st.sampled_from([8, 16]))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_exhaustive_scan_random(self, k, n):
        p = 2 * k + 1
        if oracles.trial_is_prime(p):
            assert dihedral.is_totally_split(p, n) == \
                oracles.represented_by_form(p, n)

    def test_nothing_splits_below_n_squared(self):
        for n in (4, 8, 16):
            for p in oracles.trial_primes_below(n * n):
                if p > 2:
                    assert dihedral.is_totally_split(p, n) is False


class TestPiD:
    def test_examples(self):
        assert dihedral.pi_D_dihedral(4, 18) == 1   # only 17
        assert dihedral.pi_D_dihedral(4, 16) == 0
        assert dihedral.pi_D_dihedral(4, 17) == 0   # strict p < x
        assert dihedral.pi_D_dihedral(4, 0) == 0

    def test_counts_match_oracle_scan(self):
        for n, x in ((4, 100), (4, 1000), (8, 500)):
            expected = sum(
                1
                for p in oracles.trial_primes_below(x)
                if p > 2 and oracles.represented_by_form(p, n)
            )
            assert dihedral.pi_D_dihedral(n, x) == expected

    def test_zero_below_the_wall(self, dihedral_samples, dihedral_wall_oracle):
        for r, count in dihedral_wall_oracle.items():
            assert count == 0, f"r={r}"
            assert dihedral_samples[r].pi_D == count, f"r={r}"
        for r, sample in dihedral_samples.items():
            assert sample.pi_D == 0, f"r={r}"

    @staticmethod
    def grid(n):
        return (n * n, 2 * n * n, 4 * n * n, 2.5 * n * n + 0.5)

    @pytest.mark.parametrize("r", range(2, 11))
    def test_form_count_matches_sieve_route(self, r):
        n = 1 << r
        split = oracles.sieve_split_primes(n, 4 * n * n)
        for x in self.grid(n):
            expected = sum(1 for p in split if p < x)
            assert dihedral.pi_D_dihedral(n, x) == expected, (n, x)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_form_count_matches_exhaustive_scan(self, r):
        # the trial-division route costs about 8x per r; r = 7 is ~0.2 s
        n = 1 << r
        primes = oracles.trial_primes_below(4 * n * n)
        for x in self.grid(n):
            expected = sum(1 for p in primes
                           if 2 < p < x and oracles.represented_by_form(p, n))
            assert dihedral.pi_D_dihedral(n, x) == expected, (n, x)

    @given(st.floats(0, 4096), st.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=40, deadline=None)
    def test_form_count_matches_exhaustive_scan_random(self, x, n):
        expected = sum(1 for p in oracles.trial_primes_below(x)
                       if p > 2 and oracles.represented_by_form(p, n))
        assert dihedral.pi_D_dihedral(n, x) == expected

    def test_miller_rabin_bound(self):
        bound = dihedral.MILLER_RABIN_BOUND
        with pytest.raises(dihedral.ExactBoundExceeded):
            dihedral.pi_D_dihedral(4, bound + 1)
        with pytest.raises(dihedral.ExactBoundExceeded):
            dihedral.pi_D_dihedral(4, float("inf"))
        # x = n^2 = 2^78 lies just below the bound and has no candidates
        n = 1 << 39
        assert dihedral.pi_D_dihedral(n, n * n) == 0

    def test_primality_test(self):
        for m in range(2, 10 ** 4):
            assert dihedral._is_prime(m) == oracles.trial_is_prime(m), m
        # strong pseudoprimes to the first 4 and the first 11 prime bases
        assert not dihedral._is_prime(3215031751)
        assert not dihedral._is_prime(3825123056546413051)
        assert dihedral._is_prime((1 << 61) - 1)
        assert not dihedral._is_prime(1000000007 * 998244353)

    def test_validation(self):
        with pytest.raises(ValueError):
            dihedral.pi_D_dihedral(5, 100)
        with pytest.raises(ValueError):
            dihedral.pi_D_dihedral(4, -1)


class TestMinSplitPrime:
    @pytest.mark.parametrize("n,expected", sorted(MIN_SPLIT.items()))
    def test_frozen_values(self, n, expected):
        assert dihedral.min_split_prime(n) == expected

    def test_always_beyond_n_squared(self):
        for n in MIN_SPLIT:
            assert dihedral.min_split_prime(n) > n * n

    @pytest.mark.parametrize("r", range(2, 13))
    def test_matches_sieve_route(self, r):
        n = 1 << r
        first = next(oracles.iter_sieve_split_primes(n, 4 * n * n))
        assert dihedral.min_split_prime(n) == first

    @pytest.mark.parametrize("r", range(13, 39))
    def test_matches_fermat_oracle(self, r):
        n = 1 << r
        assert dihedral.min_split_prime(n) == oracles.fermat_row_prime(n)

    def test_search_limit(self, monkeypatch):
        # with no prime in the row a^2 + n^2 < 4 n^2 the search gives up
        is_prime = dihedral._is_prime
        monkeypatch.setattr(dihedral, "_is_prime",
                            lambda m: m >= 4 * 16 * 16 and is_prime(m))
        with pytest.raises(dihedral.SearchLimitExceeded):
            dihedral.min_split_prime(16)
        assert dihedral.min_split_prime(32) == MIN_SPLIT[32]   # 1033 > 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            dihedral.min_split_prime(12)
        # the row of 2^39 reaches 2^80, beyond the exact primality test
        with pytest.raises(dihedral.ExactBoundExceeded):
            dihedral.min_split_prime(1 << 39)
        assert dihedral.min_split_prime(1 << 38) < dihedral.MILLER_RABIN_BOUND


class TestGroupStatistics:
    def test_alpha_examples(self):
        assert dihedral.alpha_dihedral(8) == 5
        assert dihedral.alpha_dihedral(16) == 7

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            dihedral.alpha_dihedral(2)
        with pytest.raises(ValueError):
            dihedral.alpha_dihedral(24)

    def test_alpha_exceeds_quarter_order(self):
        for r in range(2, 21):
            n = 1 << r
            assert dihedral.alpha_dihedral(n) > n / 4

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
    def test_alpha_matches_bruteforce(self, n):
        assert dihedral.alpha_dihedral(n) == dihedral.conjugacy_count_bruteforce(n)

    def test_bruteforce_klein_four(self):
        # order 4 means two commuting involutions: abelian, 4 classes
        assert dihedral.conjugacy_count_bruteforce(4) == 4

    @pytest.mark.parametrize("order,expected", [(6, 3), (10, 4), (12, 6),
                                                (20, 8), (14, 5)])
    def test_bruteforce_general_orders(self, order, expected):
        # closed form for order 2m: (m+3)/2 classes for odd m, m/2+3 for even
        assert dihedral.conjugacy_count_bruteforce(order) == expected

    def test_bruteforce_validation(self):
        with pytest.raises(ValueError):
            dihedral.conjugacy_count_bruteforce(7)
        with pytest.raises(ValueError):
            dihedral.conjugacy_count_bruteforce(2)
        with pytest.raises(ValueError):
            dihedral.conjugacy_count_bruteforce(4098)
