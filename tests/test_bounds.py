"""Bound templates, implied constants, scans and fits.

Frozen scan statistics below were precomputed with the high-precision
li oracle before the build; the package must land on them to 5 digits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cheblab import analytic, bounds, cyclotomic, dihedral, sieve

import oracles

LOG2 = math.log(2.0)


def sample(family="cyclotomic", n=8, x=100.0, pi_D=0, li_x=None,
           D_size=4, alpha_G=8) -> bounds.ChebotarevSample:
    if li_x is None:
        li_x = oracles.LI_HIGH_PRECISION.get(x, analytic.li(x))
    return bounds.ChebotarevSample(family=family, n=n, x=float(x), pi_D=pi_D,
                                   li_x=li_x, D_size=D_size, alpha_G=alpha_G)


class TestSampleValidation:
    def test_accepts_valid(self):
        s = sample()
        assert s.n == 8

    def test_zero_D_size_is_legal(self):
        assert sample(D_size=0).D_size == 0

    def test_rejects_bad_fields(self):
        def message(**kwargs) -> str:
            with pytest.raises(ValueError) as info:
                sample(**kwargs)
            return str(info.value)

        assert message(family="quintic") == "unknown family 'quintic'"
        assert message(n=1, D_size=1, alpha_G=1) == "n must be at least 2"
        assert message(D_size=9) == "need 0 <= D_size <= n"    # exceeds n
        assert message(alpha_G=0) == "need 1 <= alpha_G <= n"
        assert message(alpha_G=9) == "need 1 <= alpha_G <= n"
        assert message(pi_D=-1) == "pi_D must be nonnegative"
        assert message(x=-1.0, li_x=0.0) == "x must be nonnegative"


class TestBoundFamilyValidation:
    def test_rejects_bad_variant_and_epsilon(self):
        def message(*args) -> str:
            with pytest.raises(ValueError) as info:
                bounds.BoundFamily(*args)
            return str(info.value)

        for variant in ("D", "FG"):
            assert message(variant, 0.5, 0.0, 0.01) == (
                "variant must be one of ('C', 'Cprime')")
        for eps in (0.0, -0.1, math.nan):
            assert message("C", 0.5, 0.0, eps) == "epsilon must be positive"


class TestRecords:
    def test_replace_checks_the_fields(self):
        with pytest.raises(ValueError, match="n must be at least 2"):
            sample()._replace(n=1)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            bounds.BoundFamily("C")._replace(epsilon=0.0)
        assert sample()._replace(pi_D=3).pi_D == 3

    def test_positional_defaults(self):
        assert bounds.BoundFamily("C") == ("C", 0.0, 0.0, 0.01)

    def test_fields_are_read_only(self, dihedral_samples):
        fam = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        report = bounds.falsification_scan(
            fam, [dihedral_samples[r] for r in range(4, 7)])
        fit = bounds.serre_fit([(4, 17), (8, 73), (16, 257)])
        assert dihedral_samples[4]._fields == (
            "family", "n", "x", "pi_D", "li_x", "D_size", "alpha_G")
        assert report._fields == ("rows", "slope", "last_first_ratio",
                                  "verdict")
        assert fit._fields == ("exponent_e", "constant_c", "low_confidence")
        for record in (dihedral_samples[4], fam, fit, report,
                       report.rows[0]):
            for name in (*record._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)


class TestMainTermAndError:
    def test_full_density_gives_li(self):
        s = sample(n=8, D_size=8, x=100.0)
        assert bounds.main_term(s) == s.li_x

    def test_zero_density_gives_zero(self):
        assert bounds.main_term(sample(D_size=0)) == 0.0

    def test_dihedral_sixteenth_of_li(self):
        s = sample(family="dihedral", n=16, x=256.0, D_size=1, alpha_G=7)
        assert bounds.main_term(s) == pytest.approx(
            oracles.LI_HIGH_PRECISION[256] / 16, rel=1e-12)

    def test_error_vanishes_when_count_meets_main_term(self):
        s = sample(n=4, D_size=4, alpha_G=4, x=10.0, pi_D=5,
                   li_x=5.0)  # engineered equality
        assert bounds.abs_error(s) == 0.0

    def test_dihedral_error_is_main_term(self, dihedral_samples):
        for s in dihedral_samples.values():
            assert s.pi_D == 0
            assert bounds.abs_error(s) == bounds.main_term(s)

    def test_cyclotomic_error_is_main_term(self, cyclotomic_samples):
        s = cyclotomic_samples[8]
        assert bounds.abs_error(s) == pytest.approx(
            s.D_size / s.n * s.li_x, rel=1e-15)


class TestBoundDenominator:
    def test_direct_arithmetic_cprime(self):
        s = sample(family="dihedral", n=16, x=256.0, D_size=1, alpha_G=7)
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        expected = 256.0 ** 0.51 * 1.0 * 7.0 ** -0.5 * 16.0 ** 0.01 * LOG2
        assert bounds.bound_denominator(f, s) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_direct_arithmetic_c(self):
        s = sample(n=8, x=100.0, D_size=4, alpha_G=8)
        f = bounds.BoundFamily("C", 0.0, 0.0, 0.5)
        # template keeps its |G|^epsilon factor even at a = b = 0
        expected = 100.0 * 8.0 ** 0.5 * LOG2
        assert bounds.bound_denominator(f, s) == pytest.approx(expected,
                                                               rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("eps", [0.01, 0.3])
    def test_c_equals_cprime_at_b_zero(self, a, eps):
        s = sample(n=16, x=300.0, D_size=5, alpha_G=7, li_x=60.0)
        c = bounds.bound_denominator(bounds.BoundFamily("C", a, 0.0, eps), s)
        cp = bounds.bound_denominator(
            bounds.BoundFamily("Cprime", a, 0.0, eps), s)
        assert c == cp  # exact equality, not approximate

    def test_empty_D(self):
        s = sample(D_size=0)
        f = bounds.BoundFamily("C", 0.5, 0.0, 0.01)
        assert bounds.bound_denominator(f, s) == 0.0
        with pytest.raises(ValueError):
            bounds.bound_denominator(bounds.BoundFamily("C", -0.5, 0.0, 0.01),
                                     s)

    def test_a_product_below_every_float(self):
        # 8^-400 underflows to 0.0, though every factor is positive
        s = sample(n=8, x=100.0, D_size=4)
        f = bounds.BoundFamily("C", 0.0, -400.0, 0.01)
        with pytest.raises(ValueError, match="underflows a float at n=8"):
            bounds.bound_denominator(f, s)

    @pytest.mark.parametrize("D_size, x, a", [(0, 100.0, 0.0),
                                              (4, 0.5, 0.5)],
                             ids=["empty-D-a-zero", "x-below-one"])
    def test_the_guard_arms_that_still_underflow(self, D_size, x, a):
        # 0^0 = 1 leaves every factor positive, and so does 0 < x < 1
        s = sample(n=8, x=x, D_size=D_size, li_x=0.0)
        f = bounds.BoundFamily("C", a, -400.0, 0.01)
        with pytest.raises(ValueError, match="underflows a float at n=8"):
            bounds.bound_denominator(f, s)

    @pytest.mark.parametrize("D_size, x", [(0, 100.0), (4, 0.0)],
                             ids=["empty-D", "x-zero"])
    def test_a_true_zero_is_not_an_underflow(self, D_size, x):
        s = sample(n=8, x=x, D_size=D_size, pi_D=1, li_x=0.0)
        f = bounds.BoundFamily("C", 0.5, -400.0, 0.01)
        assert bounds.bound_denominator(f, s) == 0.0
        with pytest.raises(ValueError,
                           match="^bound denominator must be positive$"):
            bounds.implied_constant(f, s)

    def test_a_product_past_every_float(self):
        # x^0.51 ~ 1e153 and 4^332 ~ 1e200 are finite, their product is inf
        s = sample(n=8, x=1e300, D_size=4)
        f = bounds.BoundFamily("C", 332.0, 0.0, 0.01)
        with pytest.raises(ValueError, match="overflows a float at n=8"):
            bounds.bound_denominator(f, s)


class TestImpliedConstant:
    def test_zero_error_gives_zero(self):
        s = sample(n=4, D_size=4, alpha_G=4, x=10.0, pi_D=5, li_x=5.0)
        f = bounds.BoundFamily("C", 0.5, 0.0, 0.01)
        assert bounds.implied_constant(f, s) == 0.0

    def test_positive_denominator_required(self):
        s = sample(D_size=0, pi_D=1)
        f = bounds.BoundFamily("C", 0.5, 0.0, 0.01)
        with pytest.raises(ValueError):
            bounds.implied_constant(f, s)

    def test_a_quotient_past_every_float(self):
        # 8^-343.5 is subnormal, about 1e-310: the error over it is inf
        s = sample(n=8, x=100.0, D_size=4, pi_D=0)
        f = bounds.BoundFamily("C", 0.0, -343.5, 0.01)
        assert 0 < bounds.bound_denominator(f, s) < 2.2e-308
        with pytest.raises(ValueError, match="implied constant overflows a "
                                             "float at n=8"):
            bounds.implied_constant(f, s)

    @pytest.mark.parametrize("variant", ["C", "Cprime"])
    @pytest.mark.parametrize("knob", ["a", "b", "epsilon"])
    def test_decreasing_in_each_exponent(self, variant, knob):
        # all sample quantities >= 2, so raising any exponent inflates the
        # denominator and shrinks the constant
        s = sample(n=8, x=100.0, D_size=4, alpha_G=8, pi_D=0)
        base = {"a": 0.5, "b": 0.25, "epsilon": 0.1}
        bumped = dict(base, **{knob: base[knob] + 0.125})
        lo = bounds.implied_constant(bounds.BoundFamily(variant, **base), s)
        hi = bounds.implied_constant(bounds.BoundFamily(variant, **bumped), s)
        assert hi < lo

    def test_dihedral_constants_rise_after_initial_dip(self, dihedral_samples):
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        consts = [bounds.implied_constant(f, dihedral_samples[r])
                  for r in range(4, 13)]
        # log corrections push the r=5 value below r=4; growth is strict
        # from the second sample on
        assert consts[1] < consts[0]
        assert all(a < b for a, b in zip(consts[1:], consts[2:]))
        assert consts[0] == pytest.approx(0.815911, rel=1e-5)
        assert consts[-1] == pytest.approx(2.315137, rel=1e-5)


class TestRangeCheck:
    def test_dihedral_points_clear_range(self, dihedral_samples):
        for s in dihedral_samples.values():
            assert bounds.range_check(s, 1.0) is True

    def test_x_equal_n_fails(self):
        s = sample(n=8, x=8.0, D_size=4, alpha_G=8, li_x=3.0)
        assert bounds.range_check(s, 1.0) is False

    def test_cyclotomic_boundary_is_strict(self, cyclotomic_samples):
        # x = T = n*log(n)^0.5 exactly, so the strict inequality fails
        for s in cyclotomic_samples.values():
            assert bounds.range_check(s, 0.5) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.range_check(sample(), -0.5)


class TestFalsificationScan:
    def scan(self, fam, samples, **kw):
        return bounds.falsification_scan(fam, samples, **kw)

    def test_needs_three_ordered_samples(self, dihedral_samples):
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        with pytest.raises(ValueError):
            self.scan(f, [dihedral_samples[4], dihedral_samples[5]])
        out_of_order = [dihedral_samples[5], dihedral_samples[4],
                        dihedral_samples[6]]
        with pytest.raises(ValueError):
            self.scan(f, out_of_order)

    def test_dihedral_divergence_frozen_statistics(self, dihedral_samples):
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        report = self.scan(f, [dihedral_samples[r] for r in range(4, 13)])
        assert report.verdict == bounds.DIVERGES
        assert report.slope == pytest.approx(0.202896, rel=1e-4)
        assert report.last_first_ratio == pytest.approx(2.837488, rel=1e-4)
        assert not any(row.range_waived for row in report.rows)

    def test_dihedral_c_half_zero_bounded(self, dihedral_samples):
        f = bounds.BoundFamily("C", 0.5, 0.0, 0.01)
        report = self.scan(f, [dihedral_samples[r] for r in range(4, 13)])
        assert report.verdict == bounds.BOUNDED
        assert report.slope < 0

    @pytest.mark.parametrize("b,verdict", [
        # asymptotically every b < 0 diverges; at r <= 12 the 1/log n
        # correction still dominates the n^0.23 trend of b = -1/4
        (-0.25, bounds.BOUNDED),
        (-0.5, bounds.DIVERGES),
        (-1.0, bounds.DIVERGES),
    ])
    def test_dihedral_negative_b_grid(self, b, verdict, dihedral_samples):
        f = bounds.BoundFamily("Cprime", 0.5, b, 0.01)
        report = self.scan(f, [dihedral_samples[r] for r in range(4, 13)])
        assert report.verdict == verdict

    def test_cyclotomic_divergence_frozen_statistics(self, cyclotomic_samples):
        f = bounds.BoundFamily("C", 0.25, 0.0, 0.01)
        report = self.scan(f, [cyclotomic_samples[r] for r in range(8, 21)])
        assert report.verdict == bounds.DIVERGES
        assert report.slope == pytest.approx(0.158537, rel=1e-4)
        assert report.last_first_ratio == pytest.approx(3.701144, rel=1e-4)
        assert all(row.range_waived for row in report.rows)

    @pytest.mark.parametrize("a,b,verdict", [
        (0.0, 0.0, bounds.DIVERGES),
        (0.25, 0.0, bounds.DIVERGES),
        (0.1, 0.15, bounds.DIVERGES),
        # a+b = 0.4 leaves only n^0.08 of headroom, which the log factors
        # absorb on this range; kept as the measured outcome
        (0.4, 0.0, bounds.BOUNDED),
        (0.2, 0.2, bounds.BOUNDED),
    ])
    def test_cyclotomic_ab_grid(self, a, b, verdict, cyclotomic_samples):
        f = bounds.BoundFamily("C", a, b, 0.01)
        report = self.scan(f, [cyclotomic_samples[r] for r in range(8, 21)])
        assert report.verdict == verdict

    def test_cyclotomic_c_and_cprime_agree(self, cyclotomic_samples):
        # alpha(G) = |G| for abelian groups makes the two templates equal
        samples = [cyclotomic_samples[r] for r in range(8, 21)]
        rep_c = self.scan(bounds.BoundFamily("C", 0.25, 0.0, 0.01), samples)
        rep_cp = self.scan(bounds.BoundFamily("Cprime", 0.25, 0.0, 0.01),
                           samples)
        assert rep_c.slope == rep_cp.slope
        assert rep_c.verdict == rep_cp.verdict

    def test_a_zero_implied_constant_is_refused(self, dihedral_samples):
        # a member with |D| = 0 and pi_D = 0 has error 0 at a = 0, where
        # |D|^a = 1 keeps the denominator positive: log 0 has no fit
        samples = [dihedral_samples[r] for r in (4, 5, 6)]
        samples[1] = bounds.ChebotarevSample(
            **{**samples[1]._asdict(), "D_size": 0, "pi_D": 0})
        f = bounds.BoundFamily("C", 0.0, 0.0, 0.01)
        with pytest.raises(ValueError, match="^implied constants must be "
                                             "positive for a log-log fit$"):
            self.scan(f, samples)

    def test_range_violation_raises_for_dihedral(self, dihedral_samples):
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        samples = [dihedral_samples[r] for r in (2, 3, 4)]
        # n log(n)^3 exceeds n^2 at n = 8: sample drops out of range
        with pytest.raises(ValueError):
            self.scan(f, samples, range_alpha=3.0)

    @pytest.mark.parametrize("last,verdict", [
        (1.9, bounds.BOUNDED),      # the slope clears, the ratio does not
        (2.1, bounds.DIVERGES),     # both clear
    ])
    def test_verdict_needs_both_thresholds(self, last, verdict,
                                           dihedral_samples):
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        consts = [1.0, 0.5, last]
        # pi_D = 0, so each constant is (li_x / n) / denominator
        samples = [s._replace(li_x=c * s.n * bounds.bound_denominator(f, s))
                   for s, c in zip([dihedral_samples[r] for r in (4, 5, 6)],
                                   consts)]
        report = self.scan(f, samples)
        assert [row.constant for row in report.rows] == pytest.approx(
            consts, rel=1e-12)
        # n doubles each step: the slope is log2(last / first) / 2
        assert report.slope == pytest.approx(math.log2(last) / 2, rel=1e-9)
        assert report.slope > bounds.SLOPE_THRESHOLD
        assert report.last_first_ratio == pytest.approx(last, rel=1e-12)
        assert ((report.last_first_ratio > bounds.RATIO_THRESHOLD)
                == (verdict == bounds.DIVERGES))
        assert report.verdict == verdict

    @pytest.mark.parametrize("threshold, statistic", [
        ("SLOPE_THRESHOLD", "slope"),
        ("RATIO_THRESHOLD", "last_first_ratio"),
    ])
    def test_verdict_thresholds_are_strict(self, threshold, statistic,
                                           dihedral_samples, monkeypatch):
        # slope 0.203 and ratio 2.84 clear both defaults; a threshold at
        # the scan's own value is not cleared, the float below it is
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        samples = [dihedral_samples[r] for r in range(4, 13)]
        value = getattr(self.scan(f, samples), statistic)
        monkeypatch.setattr(bounds, threshold, value)
        assert self.scan(f, samples).verdict == bounds.BOUNDED
        monkeypatch.setattr(bounds, threshold, math.nextafter(value, -math.inf))
        assert self.scan(f, samples).verdict == bounds.DIVERGES

    def test_slope_agrees_with_polyfit(self, dihedral_samples):
        f = bounds.BoundFamily(variant="Cprime", a=0.0, b=-0.5, epsilon=0.01)
        samples = [dihedral_samples[r] for r in range(4, 18)]
        report = self.scan(f, samples)
        slope = np.polyfit(np.log([s.n for s in samples]),
                           np.log([row.constant for row in report.rows]), 1)[0]
        assert abs(report.slope - slope) < 1e-12

    def test_report_carries_rows(self, dihedral_samples):
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        samples = [dihedral_samples[r] for r in range(4, 13)]
        report = self.scan(f, samples)
        assert [row.n for row in report.rows] == [s.n for s in samples]
        for row, s in zip(report.rows, samples):
            assert row.constant == pytest.approx(
                bounds.implied_constant(f, s), rel=1e-15)


class TestSerreFit:
    POINTS_R2_R8 = [(4, 17), (8, 73), (16, 257), (32, 1033), (64, 4177),
                    (128, 16433), (256, 65537)]

    def test_frozen_fit(self):
        fit = bounds.serre_fit(self.POINTS_R2_R8)
        assert fit.exponent_e == pytest.approx(1.978188, rel=1e-5)
        assert fit.constant_c == pytest.approx(1.114142, rel=1e-5)
        assert not fit.low_confidence
        assert all(p > n * n for n, p in self.POINTS_R2_R8)

    def test_extended_fit_stays_above_1_9(self):
        pts = self.POINTS_R2_R8 + [(512, 262153), (1024, 1048601)]
        fit = bounds.serre_fit(pts)
        assert fit.exponent_e == pytest.approx(1.984357, rel=1e-5)
        assert fit.exponent_e >= 1.9

    def test_fit_beyond_two_to_the_64(self):
        # p_min(2^32) = 18446744073709551697 is already above 2^64
        pts = [(1 << r, dihedral.min_split_prime(1 << r)) for r in range(2, 39)]
        assert max(p for _, p in pts) > 1 << 64
        fit = bounds.serre_fit(pts)
        assert abs(fit.exponent_e - 2) < 0.01

    def test_two_points_low_confidence_exact_line(self):
        fit = bounds.serre_fit([(4, 17), (8, 73)])
        assert fit.low_confidence
        e = math.log(73 / 17) / math.log(2)
        assert fit.exponent_e == pytest.approx(e, rel=1e-12)
        assert fit.constant_c == pytest.approx(17 / 4 ** e, rel=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            bounds.serre_fit([(4, 17)])
        with pytest.raises(ValueError):
            bounds.serre_fit([])
        with pytest.raises(ValueError):
            bounds.serre_fit([(4, 17), (4, 19), (8, 73)])

    def test_exact_power_law_approaches_two(self):
        short = bounds.serre_fit([(1 << r, (1 << r) ** 2 + 1)
                                  for r in range(2, 7)])
        long = bounds.serre_fit([(1 << r, (1 << r) ** 2 + 1)
                                 for r in range(2, 13)])
        assert long.exponent_e == pytest.approx(1.995029, rel=1e-5)
        assert abs(long.exponent_e - 2) < abs(short.exponent_e - 2)

    def test_agrees_with_polyfit(self):
        point_sets = [
            self.POINTS_R2_R8,
            self.POINTS_R2_R8 + [(512, 262153), (1024, 1048601)],
            [(1 << r, dihedral.min_split_prime(1 << r)) for r in range(2, 39)],
            [(4, 17), (8, 73)],
            [(1 << r, (1 << r) ** 2 + 1) for r in range(2, 7)],
            [(1 << r, (1 << r) ** 2 + 1) for r in range(2, 13)],
        ]
        for pts in point_sets:
            fit = bounds.serre_fit(pts)
            # as floats: an int list above 2^64 would make an object array
            logs = np.log(np.array(pts, dtype=float))
            e, logc = np.polyfit(logs[:, 0], logs[:, 1], 1)
            assert abs(fit.exponent_e - e) < 1e-12
            assert abs(math.log(fit.constant_c) - logc) < 1e-12


class TestDiscriminantBracket:
    def test_examples(self):
        lo, hi = bounds.discriminant_bracket(16)
        assert lo == pytest.approx(8 * LOG2, rel=1e-15)
        assert hi == pytest.approx(15 * LOG2 + 16 * math.log(16), rel=1e-15)
        lo2, hi2 = bounds.discriminant_bracket(2)
        assert lo2 == pytest.approx(LOG2, rel=1e-15)
        assert hi2 == pytest.approx(3 * LOG2, rel=1e-15)

    def test_order_of_endpoints(self):
        for r in range(1, 11):
            lo, hi = bounds.discriminant_bracket(1 << r)
            assert lo <= hi

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds.discriminant_bracket(1)


class TestNanFailsRangeChecks:
    # each range check is a comparison that nan fails, so nan meets the
    # check's own message; inf still meets the resource guards, and a
    # template value must be finite, since 1 ** nan == 1 ** inf == 1.0
    @pytest.mark.parametrize("call, x, error, message", [
        (lambda x: dihedral.pi_D_dihedral(4, x), math.nan, ValueError,
         "x must be nonnegative"),
        (lambda x: sample(x=x, li_x=0.0), math.nan, ValueError,
         "x must be nonnegative"),
        (analytic.li, math.nan, ValueError,
         "li is defined for x >= 2, got nan"),
        (sieve.prime_count, math.nan, ValueError, "x must be nonnegative"),
        (lambda x: dihedral.pi_D_dihedral(4, x), math.inf,
         dihedral.ExactBoundExceeded, None),
        (sieve.prime_count, math.inf, OverflowError,
         "x=inf exceeds the 2**44 sieve limit"),
        (lambda x: bounds.BoundFamily("C", x), math.nan, ValueError,
         "a must be finite, got nan"),
        (lambda x: bounds.BoundFamily("C", x), math.inf, ValueError,
         "a must be finite, got inf"),
        (lambda x: bounds.BoundFamily("C", 0.0, x), math.nan, ValueError,
         "b must be finite, got nan"),
        (lambda x: bounds.BoundFamily("C", 0.0, x), -math.inf, ValueError,
         "b must be finite, got -inf"),
        (lambda x: bounds.BoundFamily("C", 0.0, 0.0, x), math.inf,
         ValueError, "epsilon must be finite, got inf"),
        (lambda x: bounds.range_check(sample(), x), math.nan, ValueError,
         "range_alpha must be nonnegative"),
        (lambda x: cyclotomic.peak_bytes(16, x), math.nan, ValueError,
         "alpha must lie in (0, 1), got nan"),
        (lambda x: cyclotomic.peak_bytes(16, x), 1.5, ValueError,
         "alpha must lie in (0, 1), got 1.5"),
    ], ids=["pi_D_dihedral-nan", "ChebotarevSample-nan", "li-nan",
            "prime_count-nan", "pi_D_dihedral-inf", "prime_count-inf",
            "BoundFamily-a-nan", "BoundFamily-a-inf", "BoundFamily-b-nan",
            "BoundFamily-b-minus-inf", "BoundFamily-epsilon-inf",
            "range_check-nan", "peak_bytes-nan", "peak_bytes-above-one"])
    def test_nan_fails_and_inf_meets_the_guard(self, call, x, error, message):
        # ExactBoundExceeded is a ValueError: compare the type exactly
        with pytest.raises(Exception) as info:
            call(x)
        assert type(info.value) is error
        assert message is None or str(info.value) == message


class TestAgainstIndependentConstants:
    def test_dihedral_constant_recomputed_from_scratch(self, dihedral_samples):
        # full independent route: high-precision li, raw exponentiation
        s = dihedral_samples[4]
        f = bounds.BoundFamily("Cprime", 0.5, -0.5, 0.01)
        li_oracle = oracles.LI_HIGH_PRECISION[256]
        denom = 256.0 ** 0.51 * 7.0 ** -0.5 * 16.0 ** 0.01 * LOG2
        assert bounds.implied_constant(f, s) == pytest.approx(
            (li_oracle / 16) / denom, rel=1e-9)
