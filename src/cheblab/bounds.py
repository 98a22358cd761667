"""Bound templates, implied constants, falsification scans and fits.

Three error-term templates are evaluated against measured samples:

  C       x^(1/2+eps) * |D|^a * |G|^(b+eps) * log M
  Cprime  x^(1/2+eps) * |D|^a * alpha(G)^b * |G|^eps * log M
  FG      x^(1/2+eps) * q^(-1/2)            (q = 2n; no log M factor)

The implied constant of a sample is |pi_D - (|D|/|G|) Li(x)| divided by
the template value; a family is empirically falsified when the constants
diverge along a sample sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

VARIANTS = ("C", "Cprime", "FG")
FAMILIES = ("dihedral", "cyclotomic")

DIVERGES = "DIVERGES"
BOUNDED = "BOUNDED"

# Verdict thresholds are tool policy, not a statement from the underlying
# theory; they are recorded in every report.
DEFAULT_SLOPE_THRESHOLD = 0.05
DEFAULT_RATIO_THRESHOLD = 2.0


class IncompatibleVariantError(ValueError):
    """Bound template applied to a sample outside its stated scope."""


@dataclass(frozen=True)
class ChebotarevSample:
    """One measurement row: a family member evaluated at a point x."""

    family: str
    n: int                      # |G|
    x: float
    pi_D: int
    li_x: float
    D_size: int
    alpha_G: int
    M: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.x < 0:
            raise ValueError("x must be nonnegative")
        if self.pi_D < 0:
            raise ValueError("pi_D must be nonnegative")
        if not 0 <= self.D_size <= self.n:
            raise ValueError("need 0 <= D_size <= n")
        if not 1 <= self.alpha_G <= self.n:
            raise ValueError("need 1 <= alpha_G <= n")
        if self.M < 2:
            raise ValueError("M must be at least 2")


@dataclass(frozen=True)
class BoundFamily:
    """A template (C_{a,b}), (C'_{a,b}) or the fixed-shape FG conjecture."""

    variant: str
    a: float = 0.0
    b: float = 0.0
    epsilon: float = 0.01

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class SerreFit:
    """Least-squares fit log p_min = e * log n + log c."""

    exponent_e: float
    constant_c: float
    points: Tuple[Tuple[int, int], ...]
    low_confidence: bool        # fewer than 3 points


@dataclass(frozen=True)
class ScanRow:
    n: int
    x: float
    error: float
    denominator: float
    constant: float
    range_waived: bool


@dataclass(frozen=True)
class ScanReport:
    family: BoundFamily
    rows: Tuple[ScanRow, ...]
    slope: float
    last_first_ratio: float
    verdict: str
    slope_threshold: float
    ratio_threshold: float
    range_alpha: float


def main_term(s: ChebotarevSample) -> float:
    """(|D| / |G|) * Li(x)."""
    return s.D_size / s.n * s.li_x


def abs_error(s: ChebotarevSample) -> float:
    """|pi_D - main term|, the quantity every template bounds."""
    return abs(s.pi_D - main_term(s))


def bound_denominator(f: BoundFamily, s: ChebotarevSample) -> float:
    """Template value at the sample; natural log of M throughout."""
    x_part = s.x ** (0.5 + f.epsilon)
    if f.variant == "FG":
        if s.family != "cyclotomic" or s.D_size != 1:
            raise IncompatibleVariantError(
                "FG applies to cyclotomic samples with a single residue class"
            )
        return x_part * (2 * s.n) ** -0.5
    if s.D_size == 0 and f.a < 0:
        raise ValueError("D_size = 0 with a < 0 makes the template singular")
    base = x_part * s.D_size ** f.a * math.log(s.M)
    if f.variant == "C":
        return base * s.n ** (f.b + f.epsilon)
    return base * s.alpha_G ** f.b * s.n ** f.epsilon


def implied_constant(f: BoundFamily, s: ChebotarevSample) -> float:
    """abs_error / bound_denominator; divergence falsifies the template."""
    denom = bound_denominator(f, s)
    if denom <= 0:
        raise ValueError("bound denominator must be positive")
    return abs_error(s) / denom


def range_check(s: ChebotarevSample, range_alpha: float) -> bool:
    """Whether x clears the range restriction x > n * log(n)^range_alpha."""
    if range_alpha < 0:
        raise ValueError("range_alpha must be nonnegative")
    return s.x > s.n * math.log(s.n) ** range_alpha


def falsification_scan(
    f: BoundFamily,
    samples: Sequence[ChebotarevSample],
    *,
    range_alpha: float = 1.0,
    slope_threshold: float = DEFAULT_SLOPE_THRESHOLD,
    ratio_threshold: float = DEFAULT_RATIO_THRESHOLD,
) -> ScanReport:
    """Implied constants along a sample sequence plus a divergence verdict.

    Samples must be ordered by strictly increasing n and lie in the range
    x > n log(n)^range_alpha.  Cyclotomic samples are the deliberate
    exception: the construction pins them at x = T, at or below that
    range, so out-of-range cyclotomic samples are admitted and flagged
    as waived instead of rejected.

    Verdict is DIVERGES when the log-log slope of constant vs n exceeds
    slope_threshold and the last/first ratio exceeds ratio_threshold;
    BOUNDED otherwise (meaning: bounded on the tested range).
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("falsification scan needs at least 3 samples")
    ns = [s.n for s in samples]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("samples must be ordered by strictly increasing n")
    rows = []
    for s in samples:
        in_range = range_check(s, range_alpha)
        waived = not in_range and s.family == "cyclotomic"
        if not in_range and not waived:
            raise ValueError(
                f"sample n={s.n}, x={s.x} fails x > n*log(n)^{range_alpha}"
            )
        err = abs_error(s)
        den = bound_denominator(f, s)
        if den <= 0:
            raise ValueError("bound denominator must be positive")
        rows.append(ScanRow(s.n, s.x, err, den, err / den, waived))
    consts = np.array([row.constant for row in rows])
    if np.any(consts <= 0):
        raise ValueError("implied constants must be positive for a log-log fit")
    slope = float(np.polyfit(np.log(ns), np.log(consts), 1)[0])
    ratio = float(consts[-1] / consts[0])
    verdict = (
        DIVERGES
        if slope > slope_threshold and ratio > ratio_threshold
        else BOUNDED
    )
    return ScanReport(
        family=f,
        rows=tuple(rows),
        slope=slope,
        last_first_ratio=ratio,
        verdict=verdict,
        slope_threshold=slope_threshold,
        ratio_threshold=ratio_threshold,
        range_alpha=range_alpha,
    )


def serre_fit(points: Iterable[Tuple[int, int]]) -> SerreFit:
    """Fit log p_min = e * log n + log c over (n, p_min) points.

    Two points produce a valid but low-confidence fit; fewer than two, or
    duplicate n values, are degenerate.
    """
    pts = tuple((int(n), int(p)) for n, p in points)
    if len(pts) < 2:
        raise ValueError("serre fit needs at least 2 points")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(pts):
        raise ValueError("duplicate n values make the fit degenerate")
    # as floats: an int list above 2^64 would make an object array
    logs = np.log(np.array(pts, dtype=float))
    e, logc = np.polyfit(logs[:, 0], logs[:, 1], 1)
    return SerreFit(
        exponent_e=float(e),
        constant_c=float(math.exp(logc)),
        points=pts,
        low_confidence=len(pts) < 3,
    )


def discriminant_bracket(n: int, M: int) -> Tuple[float, float]:
    """Bracket (n log M / 2, (n-1) log M + n log n) for log d_K."""
    if n < 2 or M < 2:
        raise ValueError("need n >= 2 and M >= 2")
    lower = n * math.log(M) / 2.0
    upper = (n - 1) * math.log(M) + n * math.log(n)
    return lower, upper
