"""Shared fixtures: family samples are expensive, build them once per session."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# Tests must not pick up a sieve cache from the environment; cache behavior
# is exercised explicitly with monkeypatched directories.
os.environ.pop("CHEB_CACHE_DIR", None)

from cheblab import analytic, bounds, cyclotomic  # noqa: E402
from cheblab.cli import dihedral_sample  # noqa: E402

import oracles  # noqa: E402


@pytest.fixture(scope="session")
def dihedral_samples() -> dict:
    """Measured dihedral samples at x = n^2 for r = 2..17."""
    return {r: dihedral_sample(r) for r in range(2, 18)}


@pytest.fixture(scope="session")
def dihedral_wall_oracle() -> dict:
    """pi_D(2^r, 4^r) for r = 2..12 by the sieve route, not pi_D_dihedral."""
    return {r: len(oracles.sieve_split_primes(1 << r, float(1 << (2 * r))))
            for r in range(2, 13)}


@pytest.fixture(scope="session")
def cyclotomic_instances() -> dict:
    """Built residue sets for r = 2..20 at alpha = 0.5."""
    return {r: cyclotomic.build_D(1 << r, 0.5) for r in range(2, 21)}


@pytest.fixture(scope="session")
def cyclotomic_samples(cyclotomic_instances) -> dict:
    """Measured cyclotomic samples at x = T for r = 2..20."""
    out = {}
    for r, inst in cyclotomic_instances.items():
        out[r] = bounds.ChebotarevSample(
            family="cyclotomic",
            n=inst.n,
            x=inst.T,
            pi_D=cyclotomic.pi_D_cyclotomic(inst, inst.T),
            li_x=analytic.li(inst.T),
            D_size=inst.D_size,
            alpha_G=inst.n,
        )
    return out


@pytest.fixture(scope="session")
def criterion_reporter(request):
    """Report one acceptance line per criterion on the live terminal."""
    terminal = request.config.pluginmanager.get_plugin("terminalreporter")

    def report(num: int, ok: bool, detail: str) -> None:
        line = f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
        if terminal is not None:
            terminal.write_line("\n" + line)
        else:
            print(line)
        assert ok, line

    return report
