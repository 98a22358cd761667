"""Residue-set construction verified by independent prime rescans."""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import random
import struct
import tracemalloc
import types
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheblab import bounds, cyclotomic, sieve

import oracles


def synthetic_instance(n: int, T: float) -> cyclotomic.CyclotomicInstance:
    """Instance with an artificial threshold and full D, bypassing build_D.

    For every valid build_D input T = n*log(n)^alpha >= 4, so the
    degenerate no-odd-prime-below-T case is reachable only synthetically.
    """
    return cyclotomic.CyclotomicInstance(n=n, T=T, rows=((1 << n) - 1,))


class TestBuildD:
    def test_hand_enumerated_example(self):
        inst = cyclotomic.build_D(4, 0.5)
        assert inst.T == pytest.approx(4 * math.log(4) ** 0.5, rel=1e-15)
        # primes below T ~ 4.71 are {2, 3}; only 3 is odd, removing class 3
        assert oracles.residues(inst).tolist() == [1, 5, 7]
        assert inst.D_size == 3

    def test_second_hand_example(self):
        inst = cyclotomic.build_D(8, 0.5)
        # odd primes below T ~ 11.54: 3, 5, 7, 11 knock out those classes
        assert oracles.residues(inst).tolist() == [1, 9, 13, 15]

    def test_membership_bitmap(self):
        mask = oracles.mask(cyclotomic.build_D(4, 0.5))
        assert mask[1 // 2] and mask[5 // 2] and mask[7 // 2]
        assert not mask[3 // 2]

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
        mask = oracles.mask(inst)
        for p in oracles.trial_primes_below(inst.T):
            if p > 2:
                assert not mask[p % (2 * inst.n) // 2], p

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
        sieve.prime_count(sieve.SEGMENT_WIDTH)
        assert {f.name: f.stat().st_mtime_ns
                for f in tmp_path.iterdir()} == stamps
        assert again.rows == first.rows

    def test_every_residue_odd_and_in_range(self, cyclotomic_instances):
        for inst in cyclotomic_instances.values():
            residues = oracles.residues(inst)
            assert np.all(residues % 2 == 1)
            assert np.all((residues >= 1) & (residues <= 2 * inst.n - 1))


class TestMeasureFamily:
    @pytest.mark.parametrize("alpha,r_max", [(0.1, 20), (0.5, 22), (0.99, 20)],
                             ids=["0.1", "0.5", "0.99"])
    def test_members_equal_family_of_one(self, alpha, r_max):
        ns = [1 << r for r in range(2, r_max + 1)]
        members = cyclotomic.measure_family(ns, alpha)
        for n, (inst, pi_D) in zip(ns, members, strict=True):
            one = cyclotomic.build_D(n, alpha)
            assert (inst.n, inst.T) == (one.n, one.T)
            assert inst.rows == one.rows
            assert pi_D == cyclotomic.pi_D_cyclotomic(one, one.T)

    @pytest.mark.parametrize("ns", [[8, 8], [16, 8], [4, 32, 16], [4, 4, 8]])
    def test_rejects_n_that_do_not_strictly_increase(self, ns):
        with pytest.raises(ValueError, match="strictly increase"):
            list(cyclotomic.measure_family(ns, 0.5))

    def test_empty_family(self):
        assert list(cyclotomic.measure_family([], 0.5)) == []

    @pytest.mark.parametrize("n,alpha",
                             [(1 << 19, 0.99), (1 << 21, 0.5), (1 << 22, 0.5)],
                             ids=["one-row", "two-rows", "folds-before-T"])
    def test_a_fold_that_misses_a_row_counts_its_primes(self, n, alpha,
                                                        monkeypatch):
        # pi_D(T) is recounted over the flags, never taken as 0: a fold that
        # leaves out the first row it is given leaves classes of primes
        # below T in D, and the recount finds each of them.
        reduce = functools.reduce
        monkeypatch.setattr(cyclotomic, "functools", types.SimpleNamespace(
            reduce=lambda f, rows, *init: reduce(f, list(rows)[1:], *init)))
        inst, pi_D = next(cyclotomic.measure_family([n], alpha))
        assert pi_D > 0
        assert pi_D == cyclotomic.pi_D_cyclotomic(inst, inst.T)

    @pytest.mark.parametrize("n", [1 << 12, 1 << 21], ids=["one-row", "two-rows"])
    def test_a_hit_class_let_into_D_counts_its_primes(self, n, monkeypatch):
        # The first block to become final lets its lowest class hit by a
        # prime below T into D.  pi_D(T) is counted over the D the walk
        # returns, so it counts that class's primes.
        good = cyclotomic.build_D(n, 0.5)
        final, leaked = cyclotomic._final, []

        def leaky(planes, full):
            if not leaked:
                hit = functools.reduce(operator.or_, planes)
                leaked.append(hit & -hit)
                full ^= leaked[0]
            return final(planes, full)

        monkeypatch.setattr(cyclotomic, "_final", leaky)
        inst, pi_D = next(cyclotomic.measure_family([n], 0.5))
        assert inst.D_size == good.D_size + 1
        assert pi_D > 0
        assert pi_D == cyclotomic.pi_D_cyclotomic(inst, inst.T)

    def test_traced_peak_holds_the_flags_once(self):
        # The pass holds the 33 whole segments of flags below T(2^24) once
        # (2^17 bytes each), D (2^24 / 8 bytes) and one sieve segment's
        # workspace; the bound leaves room for a second n / 8 bytes.
        ns = [1 << r for r in range(8, 25)]
        tracemalloc.start()
        try:
            counts = list(map(operator.itemgetter(1),
                              cyclotomic.measure_family(ns, 0.5)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == [0] * len(ns)
        assert peak <= 33 * (1 << 17) + 2 * (1 << 21) + 3 * (1 << 20)

    def test_traced_peak_holds_no_accumulator(self):
        # The rows below T(2^24), 2^17 bytes per segment, D's n / 8 bytes
        # and 1.5 MiB for one segment's workspace and the fold's
        # temporaries: D takes the place of the rows it is folded from.
        n = 1 << 24
        segments = math.ceil(n * math.log(n) ** 0.5 / sieve.SEGMENT_WIDTH)
        tracemalloc.start()
        try:
            counts = list(map(operator.itemgetter(1),
                              cyclotomic.measure_family([n], 0.5)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == [0]
        assert peak <= segments * (1 << 17) + n // 8 + 3 * (1 << 19)

    def test_traced_peak_folds_each_class_as_its_last_row_arrives(self):
        # Rows 0..K lie below T(2^24); class t = k mod m, m = 16, folds as
        # its last row arrives if it has one before it (k >= m).  Before
        # the first such fold max(K + 1 - m, m) rows are held, and each
        # fold swaps two or more rows for one row of D, so the rows and D
        # never pass that count plus the arriving row.  Two more rows for
        # the fold's OR and its popcount temporary, 2^17 bytes each, and
        # 1.5 MiB for one segment's workspace.
        n = 1 << 24
        m = n // sieve.SEGMENT_ODDS
        K = math.ceil(n * math.log(n) ** 0.5 / sieve.SEGMENT_WIDTH) - 1
        tracemalloc.start()
        try:
            counts = list(map(operator.itemgetter(1),
                              cyclotomic.measure_family([n], 0.5)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == [0]
        assert peak <= (max(K + 1 - m, m) + 3) * (1 << 17) + 3 * (1 << 19)


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
            residues = set(oracles.residues(inst).tolist())
            expected = sum(
                1
                for p in oracles.trial_primes_below(x)
                if p > 2 and p % (2 * inst.n) in residues
            )
            assert cyclotomic.pi_D_cyclotomic(inst, x) == expected

    def test_partition_with_complement(self, cyclotomic_instances):
        inst = cyclotomic_instances[3]
        q, mask = 2 * inst.n, oracles.mask(inst)
        for x in (30.0, 1000.0):
            in_D = cyclotomic.pi_D_cyclotomic(inst, x)
            complement = sum(
                oracles.ap_count_brute(x, q, d)
                for d in range(1, q, 2)
                if not mask[d // 2]
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
        assert oracles.residues(inst).tolist() == in_D
        assert inst.D_size == len(in_D)
        members = set(in_D)
        expected = sum(1 for p in trial_primes if 2 < p < x and p % q in members)
        assert cyclotomic.pi_D_cyclotomic(inst, x) == expected


class TestFoldAgainstSievedPrimes:
    """measure_family and pi_D against p % q over the sieve's primes, a
    route that shares the sieve but not the fold.  The flags are read in
    chunks of max(n, 2^16) bits: from n = 2^16 a chunk is one row, and
    below it x = 10^6 reaches past the first chunk.  No x here, nor the
    flag bytes below it, ends on a chunk, so every read ends on a partial
    one."""

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    def test_matches_residues_of_sieved_primes(self, alpha):
        ns = [1 << r for r in (2, 8, 12, 16, 17, 18, 19, 20)]
        top = 4 * ns[-1] * math.log(ns[-1]) ** alpha
        top = math.ceil(top)
        primes = oracles.odd_primes(sieve.sieve_range(0, top), 0, top)
        members = cyclotomic.measure_family(ns, alpha)
        for n, (inst, pi_D) in zip(ns, members, strict=True):
            hit = np.zeros(n, dtype=bool)
            hit[primes[primes < inst.T] % (2 * n) // 2] = True
            np.testing.assert_array_equal(oracles.mask(inst), ~hit)
            assert inst.D_size == n - np.count_nonzero(hit)
            assert pi_D == 0
            for x in (inst.T, 4 * inst.T, 10 ** 6 + 0.5):
                below = primes[primes < x]
                expected = np.count_nonzero(~hit[below % (2 * n) // 2])
                assert cyclotomic.pi_D_cyclotomic(inst, x) == expected

    def test_members_past_one_row(self):
        # From n = 2^21 a member folds two or more residues t mod n / 2^20,
        # and D is kept as that many rows of 2^20 bits.
        ns = [1 << 21, 1 << 22]
        top = 2 * ns[-1] * math.log(ns[-1]) ** 0.5
        top = math.ceil(top)
        primes = oracles.odd_primes(sieve.sieve_range(0, top), 0, top)
        members = cyclotomic.measure_family(ns, 0.5)
        for n, (inst, pi_D) in zip(ns, members, strict=True):
            hit = np.zeros(n, dtype=bool)
            hit[primes[primes < inst.T] % (2 * n) // 2] = True
            np.testing.assert_array_equal(oracles.mask(inst), ~hit)
            assert inst.D_size == n - np.count_nonzero(hit)
            assert pi_D == 0
            for x in (inst.T, 2 * inst.T):
                below = primes[primes < x]
                expected = np.count_nonzero(~hit[below % (2 * n) // 2])
                assert cyclotomic.pi_D_cyclotomic(inst, x) == expected


@pytest.fixture(scope="module")
def wide() -> cyclotomic.CyclotomicInstance:
    """The member n = 2^21 at alpha = 0.5: D in two rows of 2^20 classes."""
    return cyclotomic.build_D(1 << 21, 0.5)


def in_D_by_trial(inst: cyclotomic.CyclotomicInstance, d: int) -> bool:
    """d in D iff no number below T in the class of d is prime."""
    return not any(map(oracles.trial_is_prime,
                       range(d, math.ceil(inst.T), 2 * inst.n)))


class TestMultiRowD:
    """D of n = 2^21 is kept as two rows; every reader crosses the seam."""

    def test_contains_across_the_row_boundary(self, wide):
        seam = sieve.SEGMENT_ODDS          # class index 2^20 opens row 1
        mask, found = oracles.mask(wide), set()
        for k in range(seam - 64, seam + 64):
            d = 2 * k + 1
            want = in_D_by_trial(wide, d)
            assert mask[d // 2] == want, k
            found.add((k >= seam, want))
        assert found == {(False, False), (False, True), (True, False), (True, True)}

    def test_D_equals_the_mask_of_sieved_primes(self, wide):
        top = math.ceil(wide.T)
        primes = oracles.odd_primes(sieve.sieve_range(0, top), 0, top)
        hit = np.zeros(wide.n, dtype=bool)
        hit[primes % (2 * wide.n) // 2] = True
        np.testing.assert_array_equal(oracles.mask(wide), ~hit)
        low, high = wide.rows
        assert max(low, high).bit_length() <= sieve.SEGMENT_ODDS
        assert wide.D_size == wide.n - np.count_nonzero(hit)

    def test_pi_D_by_trial_division(self, wide):
        # Around x = 2q the flags pass from row 3 to row 4 and the classes
        # wrap from D's row 1 to its row 0.
        lo, hi = 4 * wide.n - 5000, 4 * wide.n + 5000
        assert wide.T < lo
        expected = sum(1 for p in range(lo | 1, hi, 2)
                       if oracles.trial_is_prime(p)
                       and in_D_by_trial(wide, p % (2 * wide.n)))
        assert expected > 0
        assert (cyclotomic.pi_D_cyclotomic(wide, hi)
                - cyclotomic.pi_D_cyclotomic(wide, lo)) == expected

    def test_last_member_of_a_family_equals_a_family_of_one(self, wide):
        family = list(cyclotomic.measure_family([1 << 19, 1 << 20, 1 << 21], 0.5))
        inst, pi_D = family[-1]
        assert inst.rows == wide.rows
        assert inst == wide
        assert pi_D == 0
        assert family[1][0] == cyclotomic.build_D(1 << 20, 0.5)


def hit_by_sieved_primes(n: int, T: float) -> np.ndarray:
    """The classes k mod n hit by an odd prime below T, as n bools, from
    oracles.odd_primes one aligned segment at a time."""
    hit = np.zeros(n, dtype=bool)
    top, step = math.ceil(T), sieve.SEGMENT_WIDTH
    for lo in range(0, top, step):
        hi = min(lo + step, top)
        primes = oracles.odd_primes(sieve.sieve_range(lo, hi), lo, hi)
        hit[primes % (2 * n) // 2] = True
    return hit


class TestEarlyFold:
    """Block t = k mod m, m = n / 2^20, of every member is final once its
    last row k below T arrives, and a block that no row below T reaches
    stays whole in D.  Each edge of that rule against the sieve's primes
    unpacked by numpy and against trial division."""

    @pytest.mark.parametrize("n,alpha,rows_per_class", [
        (1 << 22, 0.1, 0),      # K + 1 = 3 < m = 4: class 3 has no row
        (1 << 24, 0.99, 8),     # K + 1 = 130: every class folds 8 rows
    ], ids=["a-class-without-rows", "eight-rows"])
    def test_matches_sieved_and_trial_primes(self, n, alpha, rows_per_class):
        inst, pi_D = next(cyclotomic.measure_family([n], alpha))
        m = n // sieve.SEGMENT_ODDS
        segments = math.ceil(inst.T / sieve.SEGMENT_WIDTH)
        assert segments // m == rows_per_class
        hit, mask = hit_by_sieved_primes(n, inst.T), oracles.mask(inst)
        np.testing.assert_array_equal(mask, ~hit)
        assert inst.D_size == n - np.count_nonzero(hit)
        assert len(inst.rows) == m
        full = (1 << sieve.SEGMENT_ODDS) - 1
        assert inst.rows[segments:] == (full,) * max(m - segments, 0)
        assert pi_D == 0
        assert cyclotomic.pi_D_cyclotomic(inst, inst.T) == 0
        # the classes on each side of every seam of D's rows
        for t in range(m):
            for k in (t * sieve.SEGMENT_ODDS - 1, t * sieve.SEGMENT_ODDS):
                d = (2 * k + 1) % (2 * n)
                assert mask[d // 2] == in_D_by_trial(inst, d), (t, k)
        lo = math.ceil(inst.T) + 1
        hi = lo + 4000
        expected = sum(1 for p in range(lo | 1, hi, 2)
                       if oracles.trial_is_prime(p)
                       and in_D_by_trial(inst, p % (2 * n)))
        assert (cyclotomic.pi_D_cyclotomic(inst, hi)
                - cyclotomic.pi_D_cyclotomic(inst, lo)) == expected


def decoded(planes: list[int], width: int) -> np.ndarray:
    """The counts that bit-planes hold: plane j adds 2^j to count i where
    its bit i is set."""
    counts = np.zeros(width, dtype=np.int64)
    for j, plane in enumerate(planes):
        packed = np.frombuffer(plane.to_bytes(-(-width // 8), "little"),
                               dtype=np.uint8)
        bits = np.unpackbits(packed, count=width, bitorder="little")
        counts += bits.astype(np.int64) << j
    return counts


@pytest.fixture(scope="module")
def primes_to_16T() -> list[int]:
    """Primes below 16 T(2^12, 0.5) by trial division."""
    return oracles.trial_primes_below(16 * bounds.range_start(1 << 12, 0.5))


class TestPlanes:
    """The walk's adder and halving, checked through the counts their
    planes hold."""

    @pytest.mark.parametrize("c", [1, 2, 4, 16])
    @pytest.mark.parametrize("r", [3, 5, 8, 10, 12])
    def test_class_counts_equal_trial_primes(self, r, c, primes_to_16T):
        n = 1 << r
        x = c * bounds.range_start(n, 0.5)
        planes: list[int] = []
        for row in sieve.odd_rows(x):
            for j, bits in enumerate(cyclotomic._halved(row, n)):
                cyclotomic._carry(planes, bits, j)
        want = np.zeros(n, dtype=np.int64)
        for p in primes_to_16T:
            if 2 < p < x:
                want[p % (2 * n) // 2] += 1
        np.testing.assert_array_equal(decoded(planes, n), want)

    def test_adder_sums_random_ints(self):
        rng, width = random.Random(32), sieve.SEGMENT_ODDS
        planes: list[int] = []
        want = np.zeros(width, dtype=np.int64)
        for _ in range(12):
            bits, j = rng.getrandbits(rng.randint(1, width)), rng.randint(0, 3)
            cyclotomic._carry(planes, bits, j)
            want += decoded([bits], width) << j
        assert want.max() > 8
        np.testing.assert_array_equal(decoded(planes, width), want)

    @staticmethod
    def final_planes(n, alpha, monkeypatch):
        """The member n's CyclotomicInstance and the planes that _final
        receives for each of its blocks, in the order they become final."""
        final, seen = cyclotomic._final, []

        def recording(planes, full):
            seen.append(list(planes))
            return final(planes, full)

        monkeypatch.setattr(cyclotomic, "_final", recording)
        return next(cyclotomic.measure_family([n], alpha))[0], seen

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.99])
    @pytest.mark.parametrize("r", [3, 5, 8, 10, 12])
    def test_final_planes_are_the_class_counts(self, r, alpha, monkeypatch):
        # Every row below T is carried in before a block becomes final, so
        # _final reads the counts of the odd primes below T per class.
        n = 1 << r
        inst, seen = self.final_planes(n, alpha, monkeypatch)
        want = np.zeros(n, dtype=np.int64)
        for p in oracles.trial_primes_below(inst.T):
            if p > 2:
                want[p % (2 * n) // 2] += 1
        assert len(seen) == 1
        np.testing.assert_array_equal(decoded(seen[0], n), want)

    def test_final_planes_of_two_blocks(self, monkeypatch):
        # n = 2^21: block t holds the classes [t 2^20, (t + 1) 2^20).
        n, width = 1 << 21, sieve.SEGMENT_ODDS
        inst, seen = self.final_planes(n, 0.5, monkeypatch)
        top = math.ceil(inst.T)
        primes = oracles.odd_primes(sieve.sieve_range(0, top), 0, top)
        want = np.bincount(primes[primes < inst.T] % (2 * n) // 2, minlength=n)
        assert len(seen) == 2
        for t, planes in enumerate(seen):
            np.testing.assert_array_equal(decoded(planes, width),
                                          want[t * width:(t + 1) * width])


# sha256 of D's rows, each as little-endian bytes of min(n, 2^20) bits, as
# cheblab 0.26.0 built them: a D of the right size whose classes differ fails.
D_ROWS_SHA256 = {
    (12, 0.1): "a48908f6721ffca773e19d2a5be1cce827cf49daebefe534c3d7e3d53f6cd29f",
    (20, 0.1): "1c1eb886626a0d74b15459f23500d86f05233d9f08390695394b7cdda3c0b016",
    (22, 0.1): "003d9bf28a52312b62da34f457565d5a1a1032ae35ba9d23d8f30f4f6270ed57",
    (12, 0.5): "ea389b944e02215361077bea1ea50795ca7f0101e541321fb171a46ad7ac7792",
    (20, 0.5): "2e25df3626ba23f364e9a0efa8940da6a19f8c6a14e81d107db17345054e44ca",
    (22, 0.5): "403fdbad66b905a02ccc15db1bfd4f034aa19545819eeb99cfe2792168f8a8d2",
    (24, 0.5): "b1fcc68dccf8c37a1ef41d719e683e06b723e7153e6e1acf35f2c7c5785fe9a0",
    (12, 0.99): "271636b0e51ad6d7262d5cb5a5973de27fbf1ba6700cb9e93c62ab1df120601d",
    (20, 0.99): "3667458263c5a6ceee06521cc942d6235c8a2aaa4b3eb282505d4c270c2c2532",
    (22, 0.99): "855f6abdf37b01d922a78c81ce092248c0e344cb9e9f0ead1837c2d7457de39c",
}


class TestFrozenD:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.99])
    def test_rows_digest(self, alpha):
        rs = [r for r, a in D_ROWS_SHA256 if a == alpha]
        members = cyclotomic.measure_family([1 << r for r in rs], alpha)
        for r, (inst, _) in zip(rs, members, strict=True):
            width = min(inst.n, sieve.SEGMENT_ODDS) // 8
            rows = b"".join(row.to_bytes(width, "little") for row in inst.rows)
            assert hashlib.sha256(rows).hexdigest() == D_ROWS_SHA256[r, alpha], r


class TestInstanceRecord:
    def test_fields_are_read_only(self):
        inst = cyclotomic.build_D(16, 0.5)
        assert inst._fields == ("n", "T", "rows")
        for name in (*inst._fields, "D_size", "extra"):
            with pytest.raises(AttributeError):
                setattr(inst, name, 0)

    def test_equality_is_by_value_including_D(self):
        inst = cyclotomic.build_D(16, 0.5)
        assert inst == cyclotomic.build_D(16, 0.5)
        assert inst != inst._replace(rows=(inst.rows[0] ^ 1,))


class TestDensityRatio:
    def test_hand_example(self):
        inst = cyclotomic.build_D(4, 0.5)
        assert inst.D_size / inst.n == 0.75

    def test_full_D_when_threshold_below_first_odd_prime(self):
        inst = synthetic_instance(4, 2.5)
        assert inst.D_size / inst.n == 1.0
        assert cyclotomic.pi_D_cyclotomic(inst, 2.5) == 0

    def test_lower_bound_from_complement(self, cyclotomic_instances):
        for inst in cyclotomic_instances.values():
            floor = 1.0 - sieve.prime_count(inst.T) / inst.n
            assert inst.D_size / inst.n >= floor

    def test_reported_sequence_tends_up(self, cyclotomic_instances):
        # no monotonicity is promised; record that density climbs overall
        ratios = [cyclotomic_instances[r].D_size / cyclotomic_instances[r].n
                  for r in range(8, 21)]
        assert ratios[-1] > ratios[0]
        assert ratios[-1] > 0.7


class TestCountsRecords:
    """measure_counts reads a member's (|D|, pi_D(T)) from its counts record
    in CHEB_CACHE_DIR, and walks and records the members without one."""

    NS = [1 << r for r in range(8, 13)]

    @staticmethod
    def walked(ns, alpha=0.5) -> list:
        return [(inst.n, inst.T, inst.D_size, pi_D)
                for inst, pi_D in cyclotomic.measure_family(ns, alpha)]

    @staticmethod
    def spy(monkeypatch) -> tuple[list, list]:
        """The ns of each walk, and the ranges sieve_range is asked for."""
        walks, sieved = [], []
        walk, sieve_range = cyclotomic._walk, sieve.sieve_range

        def walk_spy(ns, alpha):
            walks.append(list(ns))
            return walk(ns, alpha)

        def sieve_spy(lo, hi):
            sieved.append((lo, hi))
            return sieve_range(lo, hi)

        monkeypatch.setattr(cyclotomic, "_walk", walk_spy)
        monkeypatch.setattr(sieve, "sieve_range", sieve_spy)
        return walks, sieved

    @staticmethod
    def record(path, n, alpha=0.5):
        name, _ = cyclotomic._counts_file(n, bounds.range_start(n, alpha))
        return path / name

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.99])
    def test_counts_equal_the_walk(self, alpha, tmp_path, monkeypatch):
        want = self.walked(self.NS, alpha)
        assert list(cyclotomic.measure_counts(self.NS, alpha)) == want
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        cold = list(cyclotomic.measure_counts(self.NS, alpha))
        warm = list(cyclotomic.measure_counts(self.NS, alpha))
        assert cold == warm == want

    def test_warm_replay_sieves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        cold = list(cyclotomic.measure_counts(self.NS, 0.5))
        walks, sieved = self.spy(monkeypatch)
        assert list(cyclotomic.measure_counts(self.NS, 0.5)) == cold
        assert (walks, sieved) == ([], [])

    def test_record_format(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        n, T, D_size, pi_D = next(cyclotomic.measure_counts([1 << 12], 0.5))
        data = self.record(tmp_path, n).read_bytes()
        body = (b"CHEBC" + n.to_bytes(8, "little") + struct.pack("<d", T)
                + D_size.to_bytes(8, "little") + pi_D.to_bytes(8, "little"))
        assert data == body + zlib.crc32(body).to_bytes(4, "little")
        assert self.record(tmp_path, n).name == f"counts-4096-{T.hex()}.chebc"

    def test_flipped_payload_bit_is_recounted(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        cold = list(cyclotomic.measure_counts(self.NS, 0.5))
        path = self.record(tmp_path, 1 << 10)
        good = path.read_bytes()
        data = bytearray(good)
        data[21] ^= 1               # |D|'s lowest bit
        path.write_bytes(bytes(data))
        walks, _ = self.spy(monkeypatch)
        assert list(cyclotomic.measure_counts(self.NS, 0.5)) == cold
        assert walks == [[1 << 10]]
        assert path.read_bytes() == good

    @pytest.mark.parametrize("other", [(1 << 9, 0.5), (1 << 10, 0.6)],
                             ids=["n", "T"])
    def test_header_of_another_member_is_ignored(self, other, tmp_path,
                                                 monkeypatch):
        # a record with a valid CRC under the name of (2^10, T(2^10, 0.5)),
        # whose header names another n or another T
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        cold = list(cyclotomic.measure_counts(self.NS, 0.5))
        n, alpha = other
        _, header = cyclotomic._counts_file(n, bounds.range_start(n, alpha))
        name = self.record(tmp_path, 1 << 10).name
        sieve._cache_write(name, header, (0).to_bytes(16, "little"))
        walks, _ = self.spy(monkeypatch)
        assert list(cyclotomic.measure_counts(self.NS, 0.5)) == cold
        assert walks == [[1 << 10]]

    def test_unwritable_cache_dir_is_silent(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        monkeypatch.setenv(sieve.CACHE_ENV, str(blocker / "sub"))
        want = self.walked(self.NS)
        assert list(cyclotomic.measure_counts(self.NS, 0.5)) == want
        assert list(cyclotomic.measure_counts(self.NS, 0.5)) == want
        assert [p.name for p in tmp_path.iterdir()] == ["not-a-dir"]

    def test_no_env_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(sieve.CACHE_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        replaced = []
        monkeypatch.setattr(sieve.os, "replace",
                            lambda *args: replaced.append(args))
        list(cyclotomic.measure_counts(self.NS, 0.5))
        assert (list(tmp_path.iterdir()), replaced) == ([], [])

    def test_build_D_and_measure_family_write_no_record(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        cyclotomic.build_D(1 << 12, 0.5)
        list(cyclotomic.measure_family(self.NS, 0.5))
        cyclotomic.pi_D_cyclotomic(cyclotomic.build_D(1 << 9, 0.5), 1e4)
        assert [p.name for p in tmp_path.iterdir()] == [
            f"sieve-0-{sieve.SEGMENT_WIDTH}.cheb2"]

    @pytest.mark.parametrize("ns, alpha, message", [
        ([16, 8], 0.5, "strictly increase"),
        ([12], 0.5, "power of two"),
        ([8, 16], 1.0, "alpha must lie in"),
    ])
    def test_checks_as_measure_family_does(self, ns, alpha, message, tmp_path,
                                           monkeypatch):
        # at the call, with every member's record present
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        list(cyclotomic.measure_counts([8, 16], 0.5))
        for measure in (cyclotomic.measure_family, cyclotomic.measure_counts):
            with pytest.raises(ValueError, match=message):
                measure(ns, alpha)
