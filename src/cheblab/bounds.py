"""Bound templates, implied constants, falsification scans and fits.

Two error-term templates are evaluated against measured samples:

  C       x^(1/2+eps) * |D|^a * |G|^(b+eps) * log M
  Cprime  x^(1/2+eps) * |D|^a * alpha(G)^b * |G|^eps * log M

The implied constant of a sample is |pi_D - (|D|/|G|) Li(x)| divided by
the template value; a family is empirically falsified when the constants
diverge along a sample sequence.

The records are typing.NamedTuple classes, immutable and compared by
value; ChebotarevSample and BoundFamily check their fields in __new__.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence, Tuple

VARIANTS = ("C", "Cprime")
FAMILIES = ("dihedral", "cyclotomic")

DIVERGES = "DIVERGES"
BOUNDED = "BOUNDED"

# Verdict thresholds are tool policy, not a statement from the underlying
# theory; falsify prints them in every summary.
SLOPE_THRESHOLD = 0.05
RATIO_THRESHOLD = 2.0

# The product of the primes ramified in L: both families ramify only at 2.
M = 2


class _Sample(NamedTuple):
    family: str
    n: int                      # |G|
    x: float
    pi_D: int
    li_x: float
    D_size: int
    alpha_G: int


class ChebotarevSample(_Sample):
    """One measurement row: a family member evaluated at a point x."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not self.x >= 0:     # so that nan fails too
            raise ValueError("x must be nonnegative")
        if self.pi_D < 0:
            raise ValueError("pi_D must be nonnegative")
        if not 0 <= self.D_size <= self.n:
            raise ValueError("need 0 <= D_size <= n")
        if not 1 <= self.alpha_G <= self.n:
            raise ValueError("need 1 <= alpha_G <= n")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)       # so _replace checks the fields too


class _Family(NamedTuple):
    variant: str
    a: float = 0.0
    b: float = 0.0
    epsilon: float = 0.01


class BoundFamily(_Family):
    """A template, (C_{a,b}) or (C'_{a,b}), with finite a, b and epsilon."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        for name in ("a", "b", "epsilon"):     # 1 ** nan is 1.0
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)       # so _replace checks the fields too


class SerreFit(NamedTuple):
    """Least-squares fit log p_min = e * log n + log c."""

    exponent_e: float
    constant_c: float
    low_confidence: bool        # fewer than 3 points


class ScanRow(NamedTuple):
    n: int
    x: float
    error: float
    denominator: float
    constant: float
    range_waived: bool


class ScanReport(NamedTuple):
    rows: Tuple[ScanRow, ...]
    slope: float
    last_first_ratio: float
    verdict: str


def main_term(s: ChebotarevSample) -> float:
    """(|D| / |G|) * Li(x)."""
    return s.D_size / s.n * s.li_x


def abs_error(s: ChebotarevSample) -> float:
    """|pi_D - main term|, the quantity every template bounds."""
    return abs(s.pi_D - main_term(s))


def bound_denominator(f: BoundFamily, s: ChebotarevSample) -> float:
    """Template value at the sample; natural log of M throughout."""
    if s.D_size == 0 and f.a < 0:
        raise ValueError("D_size = 0 with a < 0 makes the template singular")
    try:
        base = s.x ** (0.5 + f.epsilon) * s.D_size ** f.a * math.log(M)
        denom = (base * s.n ** (f.b + f.epsilon) if f.variant == "C"
                 else base * s.alpha_G ** f.b * s.n ** f.epsilon)
    except OverflowError:       # a finite exponent too large for a float
        denom = math.inf
    if not math.isfinite(denom):    # or a product too large for one
        raise ValueError(f"bound denominator overflows a float at n={s.n}")
    # every factor is positive unless x = 0, or |D| = 0 with a > 0
    if denom == 0 and s.x > 0 and (s.D_size > 0 or f.a == 0):
        raise ValueError(f"bound denominator underflows a float at n={s.n}")
    return denom


def implied_constant(f: BoundFamily, s: ChebotarevSample) -> float:
    """abs_error / bound_denominator; divergence falsifies the template."""
    denom = bound_denominator(f, s)
    if denom <= 0:
        raise ValueError("bound denominator must be positive")
    constant = abs_error(s) / denom
    if math.isinf(constant):    # a subnormal denominator, say
        raise ValueError(f"implied constant overflows a float at n={s.n}")
    return constant


def range_start(n: int, gamma: float) -> float:
    """n * log(n)^gamma: where the template range x > n * log(n)^gamma
    starts, and at gamma = alpha the threshold T of the cyclotomic member n."""
    return n * math.log(n) ** gamma


def range_check(s: ChebotarevSample, range_alpha: float) -> bool:
    """Whether x clears the range restriction x > n * log(n)^range_alpha."""
    if not range_alpha >= 0:    # so that nan fails too
        raise ValueError("range_alpha must be nonnegative")
    try:
        return s.x > range_start(s.n, range_alpha)
    except OverflowError:       # the range starts past every float
        return False


def _line_fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and intercept of the line ys = slope * xs + c.

    The closed form about the means, each sum taken by math.fsum; the xs
    must not all be equal.
    """
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    slope = (math.fsum(d * (y - y_mean) for d, y in zip(dx, ys))
             / math.fsum(d * d for d in dx))
    return slope, y_mean - slope * x_mean


def falsification_scan(
    f: BoundFamily,
    samples: Sequence[ChebotarevSample],
    *,
    range_alpha: float = 1.0,
) -> ScanReport:
    """Implied constants along a sample sequence plus a divergence verdict.

    Samples must be ordered by strictly increasing n and lie in the range
    x > n log(n)^range_alpha.  Cyclotomic samples are the deliberate
    exception: the construction pins them at x = T, at or below that
    range, so out-of-range cyclotomic samples are admitted and flagged
    as waived instead of rejected.

    Verdict is DIVERGES when the log-log slope of constant vs n exceeds
    SLOPE_THRESHOLD and the last/first ratio exceeds RATIO_THRESHOLD;
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
        rows.append(ScanRow(s.n, s.x, abs_error(s), bound_denominator(f, s),
                            implied_constant(f, s), waived))
    consts = [row.constant for row in rows]
    if any(c <= 0 for c in consts):
        raise ValueError("implied constants must be positive for a log-log fit")
    slope, _ = _line_fit([math.log(n) for n in ns],
                         [math.log(c) for c in consts])
    ratio = consts[-1] / consts[0]
    verdict = (
        DIVERGES
        if slope > SLOPE_THRESHOLD and ratio > RATIO_THRESHOLD
        else BOUNDED
    )
    return ScanReport(
        rows=tuple(rows),
        slope=slope,
        last_first_ratio=ratio,
        verdict=verdict,
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
    e, logc = _line_fit([math.log(n) for n, _ in pts],
                        [math.log(p) for _, p in pts])
    return SerreFit(
        exponent_e=e,
        constant_c=math.exp(logc),
        low_confidence=len(pts) < 3,
    )


def discriminant_bracket(n: int) -> Tuple[float, float]:
    """Bracket (n log M / 2, (n-1) log M + n log n) for log d_K."""
    if n < 2:
        raise ValueError("need n >= 2")
    lower = n * math.log(M) / 2.0
    upper = (n - 1) * math.log(M) + n * math.log(n)
    return lower, upper
