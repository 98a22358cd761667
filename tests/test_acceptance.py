"""End-to-end acceptance gate.

Each test checks one release criterion and emits a single
``CRITERION nn PASS/FAIL`` line on the live terminal, so a full run
reads as a scorecard.  Run with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time

from cheblab import analytic, bounds, cyclotomic, dihedral, sieve

import oracles


def test_criterion_01_sieve_matches_trial_oracle(criterion_reporter):
    points = (10**3, 10**4, 10**5, 10**6)
    start = time.perf_counter()
    reference = oracles.trial_primes_below(points[-1])
    got = [sieve.prime_count(x) for x in points]
    want = [bisect.bisect_left(reference, x) for x in points]
    elapsed = time.perf_counter() - start
    ok = got == want and got[-1] == 78498 and elapsed < 5.0
    criterion_reporter(
        1, ok,
        f"prime_count at 1e3..1e6 = {got}, oracle = {want}, {elapsed:.2f}s")


def test_criterion_02_dihedral_wall_is_exact(dihedral_samples,
                                             dihedral_wall_oracle,
                                             criterion_reporter):
    # the wall is counted by the sieve route, which shares no code with
    # the form enumeration behind the samples
    counts = dihedral_wall_oracle
    nonzero = {r: c for r, c in counts.items() if c != 0}
    mismatch = [r for r, c in counts.items() if dihedral_samples[r].pi_D != c]
    ok = not nonzero and not mismatch
    criterion_reporter(
        2, ok,
        "pi_D(2^r, 4^r) = 0 for all r in [2, 12] by the sieve route, "
        "and the samples agree" if ok
        else f"nonzero counts at {nonzero}, samples disagree at {mismatch}")


def test_criterion_03_class_count_formula(criterion_reporter):
    orders = (8, 16, 32, 64)
    formula = [dihedral.alpha_dihedral(n) for n in orders]
    brute = [oracles.conjugacy_count_bruteforce(n) for n in orders]
    lower = all(dihedral.alpha_dihedral(1 << r) > (1 << r) / 4
                for r in range(2, 21))
    ok = formula == brute and lower
    criterion_reporter(
        3, ok,
        f"alpha(n) for n={orders}: formula {formula} vs brute force {brute}; "
        f"alpha > n/4 up to r=20: {lower}")


def test_criterion_04_serre_wall_and_exponent(criterion_reporter):
    pmins = {r: dihedral.min_split_prime(1 << r) for r in range(2, 9)}
    above_wall = all(p > (1 << (2 * r)) for r, p in pmins.items())
    fit = bounds.serre_fit([(1 << r, p) for r, p in pmins.items()])
    ok = above_wall and pmins[2] == 17 and fit.exponent_e >= 1.9
    criterion_reporter(
        4, ok,
        f"p_min(4) = {pmins[2]}, all p_min > n^2 for r in [2, 8]: "
        f"{above_wall}, fitted exponent e = {fit.exponent_e:.4f} "
        f"(need >= 1.9)")


def test_criterion_05_cyclotomic_construction(cyclotomic_instances,
                                              criterion_reporter):
    bad = []
    for r, inst in cyclotomic_instances.items():
        zero = cyclotomic.pi_D_cyclotomic(inst, inst.T) == 0
        excluded = inst.n - inst.D_size
        small = excluded <= sieve.prime_count(inst.T)
        if not (zero and small):
            bad.append(r)
    ok = not bad
    criterion_reporter(
        5, ok,
        "pi_D(inst, T) = 0 and |excluded| <= pi(T) for all r in [2, 20]"
        if ok else f"violations at r = {bad}")


def test_criterion_06_dihedral_divergence(dihedral_samples,
                                          criterion_reporter):
    f = bounds.BoundFamily(variant="Cprime", a=0.0, b=-0.5, epsilon=0.01)
    report = bounds.falsification_scan(
        f, [dihedral_samples[r] for r in range(4, 18)])
    ok = (report.verdict == bounds.DIVERGES
          and report.last_first_ratio > 4.0
          and report.slope >= 0.25)
    criterion_reporter(
        6, ok,
        f"Cprime(b=-1/2) on r in [4, 17]: verdict={report.verdict}, "
        f"ratio={report.last_first_ratio:.4f} (need > 4), "
        f"slope={report.slope:.4f} (need >= 0.25)")


def test_criterion_07_cyclotomic_divergence(cyclotomic_samples,
                                            criterion_reporter):
    f = bounds.BoundFamily(variant="C", a=0.25, b=0.0, epsilon=0.01)
    report = bounds.falsification_scan(
        f, [cyclotomic_samples[r] for r in range(8, 21)], range_alpha=0.5)
    ok = (report.verdict == bounds.DIVERGES
          and report.last_first_ratio > 2.0
          and report.slope > 0.0)
    criterion_reporter(
        7, ok,
        f"C(a=1/4) on r in [8, 20]: verdict={report.verdict}, "
        f"ratio={report.last_first_ratio:.4f} (need > 2), "
        f"slope={report.slope:.4f} (need > 0)")


def test_criterion_08_half_power_stays_flat(dihedral_samples,
                                            cyclotomic_samples,
                                            criterion_reporter):
    f = bounds.BoundFamily(variant="C", a=0.5, b=0.0, epsilon=0.01)
    dih = bounds.falsification_scan(
        f, [dihedral_samples[r] for r in range(4, 13)])
    cyc = bounds.falsification_scan(
        f, [cyclotomic_samples[r] for r in range(8, 21)], range_alpha=0.5)
    ok = dih.slope <= 0.2 and cyc.slope <= 0.2
    criterion_reporter(
        8, ok,
        f"C(a=1/2) slopes: dihedral {dih.slope:.4f}, cyclotomic "
        f"{cyc.slope:.4f} (fail only above 0.2)")


def test_criterion_09_li_accuracy(criterion_reporter):
    worst = 0.0
    for x in (10.0, 1e4, 1e8):
        reference = oracles.adaptive_simpson_li(x)
        worst = max(worst, abs(analytic.li(x) - reference) / reference)
    ratio = oracles.li_ratio_to_asymptote(1 << 20)
    ok = worst <= 1e-9 and 0.9 < ratio < 1.1
    criterion_reporter(
        9, ok,
        f"li relative error <= {worst:.3e} at x in {{10, 1e4, 1e8}} "
        f"(need <= 1e-9); li(n^2)/(n^2/(2 log n)) = {ratio:.6f} at n = 2^20")


DETERMINISM_COMMANDS = (
    ("dihedral", "--r-min", "2", "--r-max", "5"),
    ("cyclotomic", "--r-min", "2", "--r-max", "8"),
    ("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "6"),
    ("falsify", "--family", "cyclotomic", "--r-min", "8", "--r-max", "10"),
    ("serre", "--r-min", "2", "--r-max", "5"),
    ("sieve-check", "--limit", "200000"),
)


def test_criterion_10_cli_determinism(criterion_reporter):
    env = {k: v for k, v in os.environ.items() if k != "CHEB_CACHE_DIR"}
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    unstable = []
    for cmd in DETERMINISM_COMMANDS:
        outputs = set()
        for workers in ("1", "1", "1", "8"):
            proc = subprocess.run(
                [sys.executable, "-m", "cheblab", *cmd,
                 "--workers", workers],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.add(proc.stdout)
        if len(outputs) != 1:
            unstable.append(cmd[0])
    ok = not unstable
    criterion_reporter(
        10, ok,
        f"{len(DETERMINISM_COMMANDS) - len(unstable)}/"
        f"{len(DETERMINISM_COMMANDS)} commands byte-identical across "
        f"3 runs and 1 vs 8 workers"
        + (f"; unstable: {unstable}" if unstable else ""))
