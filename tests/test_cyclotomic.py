"""Residue-set construction verified by independent prime rescans."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblab import cyclotomic, sieve

import oracles


def synthetic_instance(n: int, T: float) -> cyclotomic.CyclotomicInstance:
    """Instance with an artificial threshold and full D, bypassing build_D.

    For every valid build_D input T = n*log(n)^alpha >= 4, so the
    degenerate no-odd-prime-below-T case is reachable only synthetically.
    """
    return cyclotomic.CyclotomicInstance(
        r=n.bit_length() - 1, n=n, q=2 * n, alpha=0.5, T=T,
        mask=np.ones(n, dtype=bool),
    )


class TestFrobeniusClass:
    def test_examples(self):
        assert cyclotomic.frobenius_class(17, 8) == 1
        assert cyclotomic.frobenius_class(7, 16) == 7
        assert cyclotomic.frobenius_class(97, 32) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclotomic.frobenius_class(2, 8)
        with pytest.raises(ValueError):
            cyclotomic.frobenius_class(17, 12)
        with pytest.raises(ValueError):
            cyclotomic.frobenius_class(17, 4)


class TestBuildD:
    def test_hand_enumerated_example(self):
        inst = cyclotomic.build_D(4, 0.5)
        assert inst.T == pytest.approx(4 * math.log(4) ** 0.5, rel=1e-15)
        assert inst.q == 8
        # primes below T ~ 4.71 are {2, 3}; only 3 is odd, removing class 3
        assert inst.residues.tolist() == [1, 5, 7]
        assert inst.D_size == 3

    def test_second_hand_example(self):
        inst = cyclotomic.build_D(8, 0.5)
        # odd primes below T ~ 11.54: 3, 5, 7, 11 knock out those classes
        assert inst.residues.tolist() == [1, 9, 13, 15]

    def test_membership_bitmap(self):
        inst = cyclotomic.build_D(4, 0.5)
        assert inst.contains(1) and inst.contains(5) and inst.contains(7)
        assert not inst.contains(3)
        assert not inst.contains(4)  # even residues never belong
        with pytest.raises(ValueError):
            inst.contains(8)
        with pytest.raises(ValueError):
            inst.contains(-1)

    def test_validation(self):
        for alpha in (0.0, 1.0, 1.2, -0.3):
            with pytest.raises(ValueError):
                cyclotomic.build_D(4, alpha)
        with pytest.raises(ValueError):
            cyclotomic.build_D(6, 0.5)
        with pytest.raises(ValueError):
            cyclotomic.build_D(2, 0.5)

    @pytest.mark.parametrize("r", [2, 3, 4, 8, 12])
    def test_no_small_prime_lands_in_D(self, r, cyclotomic_instances):
        # independent rescan with trial-division primes
        inst = cyclotomic_instances[r]
        for p in oracles.trial_primes_below(inst.T):
            if p > 2:
                assert not inst.contains(p % inst.q), p

    def test_complement_bounded_by_prime_count(self, cyclotomic_instances):
        inst = cyclotomic_instances[16]
        removed = inst.n - inst.D_size
        assert removed <= sieve.prime_count(inst.T)
        assert inst.D_size >= inst.n - sieve.prime_count(inst.T)

    def test_repeated_build_writes_no_cache_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        first = cyclotomic.build_D(1 << 12, 0.5)
        stamps = {f.name: f.stat().st_mtime_ns for f in tmp_path.iterdir()}
        assert stamps
        cyclotomic.build_D(1 << 12, 0.5)
        again = cyclotomic.build_D(1 << 12, 0.5)
        cyclotomic.build_D(1 << 10, 0.5)
        sieve.prime_count(2 * sieve.SEGMENT_ODDS)
        assert {f.name: f.stat().st_mtime_ns
                for f in tmp_path.iterdir()} == stamps
        np.testing.assert_array_equal(again.mask, first.mask)

    def test_every_residue_odd_and_in_range(self, cyclotomic_instances):
        for inst in cyclotomic_instances.values():
            residues = inst.residues
            assert np.all(residues % 2 == 1)
            assert np.all((residues >= 1) & (residues <= inst.q - 1))


class TestMeasureFamily:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.99])
    def test_members_equal_family_of_one(self, alpha):
        ns = [1 << r for r in range(2, 21)]
        members = cyclotomic.measure_family(ns, alpha)
        for n, (inst, pi_D) in zip(ns, members, strict=True):
            one = cyclotomic.build_D(n, alpha)
            assert (inst.n, inst.q, inst.T) == (one.n, one.q, one.T)
            np.testing.assert_array_equal(inst.mask, one.mask)
            assert pi_D == cyclotomic.pi_D_cyclotomic(one, one.T)


class TestPiD:
    def test_examples(self, cyclotomic_instances):
        inst = cyclotomic.build_D(4, 0.5)
        assert cyclotomic.pi_D_cyclotomic(inst, 30) == 6  # 5,7,13,17,23,29
        assert cyclotomic.pi_D_cyclotomic(inst, 2) == 0
        for r in (2, 5, 9):
            member = cyclotomic_instances[r]
            assert cyclotomic.pi_D_cyclotomic(member, member.T) == 0

    def test_matches_oracle_filter(self, cyclotomic_instances):
        for r, x in ((2, 1000), (4, 5000)):
            inst = cyclotomic_instances[r]
            residues = set(inst.residues.tolist())
            expected = sum(
                1
                for p in oracles.trial_primes_below(x)
                if p > 2 and p % inst.q in residues
            )
            assert cyclotomic.pi_D_cyclotomic(inst, x) == expected

    def test_partition_with_complement(self, cyclotomic_instances):
        inst = cyclotomic_instances[3]
        for x in (30.0, 1000.0):
            in_D = cyclotomic.pi_D_cyclotomic(inst, x)
            complement = sum(
                sieve.primes_in_ap_count(x, inst.q, d)
                for d in range(1, inst.q, 2)
                if not inst.contains(d)
            )
            two = 1 if x > 2 else 0
            assert in_D + complement + two == sieve.prime_count(x)

    def test_validation(self, cyclotomic_instances):
        with pytest.raises(ValueError):
            cyclotomic.pi_D_cyclotomic(cyclotomic_instances[2], -2.0)


@pytest.fixture(scope="module")
def trial_primes() -> list[int]:
    """Primes below 2^16 by trial division, shared by the fold tests."""
    return oracles.trial_primes_below(1 << 16)


class TestFoldAgainstTrialPrimes:
    """build_D and pi_D against p % q over trial-division primes, a route
    that shares no code with the sieve or the bit folds."""

    @given(st.integers(2, 12),
           st.floats(0, 1, exclude_min=True, exclude_max=True),
           st.floats(0, 1 << 16).filter(lambda x: x % 16 != 0))
    @example(2, 0.5, 3.5)
    @example(2, 0.999, 30.5)
    @example(3, 0.001, 65535.5)
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, trial_primes, r, alpha, x):
        n = 1 << r
        q = 2 * n
        inst = cyclotomic.build_D(n, alpha)
        hit = {p % q for p in trial_primes if 2 < p < inst.T}
        in_D = [d for d in range(1, q, 2) if d not in hit]
        assert inst.residues.tolist() == in_D
        assert inst.D_size == len(in_D)
        members = set(in_D)
        expected = sum(1 for p in trial_primes if 2 < p < x and p % q in members)
        assert cyclotomic.pi_D_cyclotomic(inst, x) == expected


class TestDensityRatio:
    def test_hand_example(self):
        assert cyclotomic.density_ratio(cyclotomic.build_D(4, 0.5)) == 0.75

    def test_full_D_when_threshold_below_first_odd_prime(self):
        inst = synthetic_instance(4, 2.5)
        assert cyclotomic.density_ratio(inst) == 1.0
        assert cyclotomic.pi_D_cyclotomic(inst, 2.5) == 0

    def test_lower_bound_from_complement(self, cyclotomic_instances):
        for inst in cyclotomic_instances.values():
            floor = 1.0 - sieve.prime_count(inst.T) / inst.n
            assert cyclotomic.density_ratio(inst) >= floor

    def test_reported_sequence_tends_up(self, cyclotomic_instances):
        # no monotonicity is promised; record that density climbs overall
        ratios = [cyclotomic.density_ratio(cyclotomic_instances[r])
                  for r in range(8, 21)]
        assert ratios[-1] > ratios[0]
        assert ratios[-1] > 0.7
