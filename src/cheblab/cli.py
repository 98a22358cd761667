"""Command-line front end: build families, run scans, emit CSV/JSON.

Exit codes: 0 success, 1 failed self-check or exhausted search,
2 usage error, 3 resource guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Iterable, Optional, Sequence

from . import analytic, bounds, cyclotomic, dihedral, sieve

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4

SIEVE_GUARD = 1 << 40           # refuse sieve-check beyond this extent
MEMORY_BUDGET = 1 << 31         # refuse cyclotomic commands holding more bytes

HEADERS = {
    "dihedral": ("r", "n", "x", "pi_D", "li_x", "alpha_G", "p_min"),
    "cyclotomic": ("r", "n", "T", "D_size", "density", "pi_D_at_T"),
    "falsify": ("r", "n", "x", "error", "denominator", "implied_constant"),
    "serre": ("r", "n", "p_min", "log_dK_lo", "log_dK_hi"),
    "sieve-check": ("check", "status", "detail"),
}


def dihedral_sample(r: int) -> bounds.ChebotarevSample:
    """Measured sample for the dihedral member n = 2^r at x = n^2."""
    n = 1 << r
    pi_D = dihedral.pi_D_dihedral(n, n * n)    # refuses r before float(n) overflows
    x = float(n) * n
    return bounds.ChebotarevSample(
        family="dihedral",
        n=n,
        x=x,
        pi_D=pi_D,
        li_x=analytic.li(x),
        D_size=1,
        alpha_G=dihedral.alpha_dihedral(n),
    )


def _cyclotomic_sample(member: tuple) -> bounds.ChebotarevSample:
    """Measured sample at x = T for one (instance, pi_D(T)) of the family."""
    inst, pi_D = member
    return bounds.ChebotarevSample(
        family="cyclotomic",
        n=inst.n,
        x=inst.T,
        pi_D=pi_D,
        li_x=analytic.li(inst.T),
        D_size=inst.D_size,
        alpha_G=inst.n,         # abelian group: every class is a singleton
    )


def cyclotomic_sample(r: int, alpha: float) -> bounds.ChebotarevSample:
    """Measured sample for the cyclotomic member n = 2^r at x = T."""
    return _cyclotomic_sample(next(cyclotomic.measure_family([1 << r], alpha)))


def _map_ordered(fn: Callable, keys: Iterable, workers: int) -> list:
    # One thread whatever `workers` says; the name and the three parameters
    # stay because bench/traced.py wraps this function by name.  map holds
    # no key while the next one is drawn, so a family member is released
    # before the next is built.
    return list(map(fn, keys))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def render_csv(headers: Sequence[str], rows: Sequence[dict],
               summary: Optional[dict]) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in headers))
    for key, value in (summary or {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def render_json(command: str, headers: Sequence[str], rows: Sequence[dict],
                summary: Optional[dict]) -> str:
    doc = {
        "command": command,
        "rows": [{h: row[h] for h in headers} for row in rows],
    }
    if summary is not None:
        doc["summary"] = summary
    return json.dumps(doc, indent=2) + "\n"


def _emit(args: argparse.Namespace, rows: Sequence[dict],
          summary: Optional[dict] = None) -> int:
    headers = HEADERS[args.command]
    if args.format == "csv":
        text = render_csv(headers, rows, summary)
    else:
        text = render_json(args.command, headers, rows, summary)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_dihedral(args: argparse.Namespace) -> int:
    def row(r: int) -> dict:
        s = dihedral_sample(r)
        return {
            "r": r, "n": s.n, "x": s.x, "pi_D": s.pi_D, "li_x": s.li_x,
            "alpha_G": s.alpha_G, "p_min": dihedral.min_split_prime(s.n),
        }

    rows = _map_ordered(row, range(args.r_min, args.r_max + 1), args.workers)
    return _emit(args, rows)


def cmd_cyclotomic(args: argparse.Namespace) -> int:
    def row(member: tuple) -> dict:
        inst, pi_D = member
        return {
            "r": inst.r, "n": inst.n, "T": inst.T, "D_size": inst.D_size,
            "density": cyclotomic.density_ratio(inst), "pi_D_at_T": pi_D,
        }

    family = cyclotomic.measure_family(
        [1 << r for r in range(args.r_min, args.r_max + 1)], args.alpha)
    rows = _map_ordered(row, family, args.workers)
    return _emit(args, rows)


def cmd_falsify(args: argparse.Namespace) -> int:
    rs = range(args.r_min, args.r_max + 1)
    if args.family == "dihedral":
        samples = _map_ordered(dihedral_sample, rs, args.workers)
    else:
        family = cyclotomic.measure_family([1 << r for r in rs], args.alpha)
        samples = _map_ordered(_cyclotomic_sample, family, args.workers)
    try:
        fam = bounds.BoundFamily(args.variant, args.a, args.b, args.epsilon)
        report = bounds.falsification_scan(fam, samples,
                                           range_alpha=args.range_alpha)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = [
        {
            "r": row.n.bit_length() - 1, "n": row.n, "x": row.x,
            "error": row.error, "denominator": row.denominator,
            "implied_constant": row.constant,
        }
        for row in report.rows
    ]
    summary = {
        "family": args.family,
        "variant": args.variant,
        "a": args.a,
        "b": args.b,
        "epsilon": args.epsilon,
        "range_alpha": report.range_alpha,
        "slope_threshold": report.slope_threshold,
        "ratio_threshold": report.ratio_threshold,
        "slope": report.slope,
        "last_first_ratio": report.last_first_ratio,
        "verdict": report.verdict,
        "range_waived_r": [row.n.bit_length() - 1
                           for row in report.rows if row.range_waived],
    }
    return _emit(args, rows, summary)


def cmd_serre(args: argparse.Namespace) -> int:
    def point(r: int) -> tuple:
        n = 1 << r
        return n, dihedral.min_split_prime(n)

    points = _map_ordered(point, range(args.r_min, args.r_max + 1), args.workers)
    try:
        fit = bounds.serre_fit(points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n, p_min in points:
        lo, hi = bounds.discriminant_bracket(n, 2)
        rows.append({
            "r": n.bit_length() - 1, "n": n, "p_min": p_min,
            "log_dK_lo": lo, "log_dK_hi": hi,
        })
    summary = {
        "exponent_e": fit.exponent_e,
        "constant_c": fit.constant_c,
        "low_confidence": fit.low_confidence,
    }
    return _emit(args, rows, summary)


def _trial_prime_count(x: int) -> int:
    """Trial division against the primes found so far; self-check only."""
    primes: list[int] = []
    for m in range(2, x):
        is_p = True
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                is_p = False
                break
        if is_p:
            primes.append(m)
    return len(primes)


def cmd_sieve_check(args: argparse.Namespace) -> int:
    rows = []

    def record(check: str, ok: bool, detail: str) -> None:
        rows.append({"check": check, "status": "PASS" if ok else "FAIL",
                     "detail": detail})

    cap = min(args.limit, 1 << 22)
    whole = sieve.sieve_range(0, cap, segment_odds=1 << 21)
    pieces = [sieve.sieve_range(0, cap, segment_odds=so) for so in (4096, 8191)]
    ok = all(piece.flags == whole.flags for piece in pieces)
    record("segment-independence", ok,
           f"limit={cap} segmentations=2097152;4096;8191")

    trial_cap = min(args.limit, 10 ** 6)
    got = sieve.prime_count(trial_cap)
    want = _trial_prime_count(trial_cap)
    record("trial-division-equivalence", got == want,
           f"x={trial_cap} sieve={got} trial={want}")

    q = args.q
    coprime_sum = sum(
        sieve.primes_in_ap_count(args.limit, q, d)
        for d in range(q) if math.gcd(d, q) == 1
    )
    divisor_primes = sum(
        1 for p in range(2, q + 1) if q % p == 0 and p < args.limit
        and all(p % d for d in range(2, math.isqrt(p) + 1))
    )
    total = sieve.prime_count(args.limit)
    record("ap-partition", coprime_sum + divisor_primes == total,
           f"x={args.limit} q={q} coprime={coprime_sum} "
           f"divisors={divisor_primes} total={total}")

    xs = sorted({2, 10, 100, 1000, args.limit // 2, args.limit})
    counts = [sieve.prime_count(x) for x in xs]
    ok = all(a <= b for a, b in zip(counts, counts[1:]))
    record("monotonicity", ok, "counts=" + ";".join(map(str, counts)))

    code = _emit(args, rows)
    if code != EXIT_OK:
        return code
    return EXIT_OK if all(r["status"] == "PASS" for r in rows) else EXIT_FAILURE


_COMMANDS = {
    "dihedral": cmd_dihedral,
    "cyclotomic": cmd_cyclotomic,
    "falsify": cmd_falsify,
    "serre": cmd_serre,
    "sieve-check": cmd_sieve_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cheblab",
        description="Desk-scale laboratory for Chebotarev error terms: "
                    "split-prime counts, implied constants, falsification "
                    "scans and least-split-prime fits over two families "
                    "indexed by n = 2^r.",
    )
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common options")
    g.add_argument("--r-min", type=int, default=2,
                   help="smallest r, with n = 2^r (default 2)")
    g.add_argument("--r-max", type=int, default=8,
                   help="largest r (default 8)")
    g.add_argument("--alpha", type=float, default=0.5,
                   help="threshold exponent in T = n*log(n)^alpha, "
                        "0 < alpha < 1 (default 0.5)")
    g.add_argument("--range-alpha", type=float, default=1.0,
                   help="range restriction x > n*log(n)^range_alpha "
                        "(default 1.0)")
    g.add_argument("--variant", choices=list(bounds.VARIANTS),
                   default="Cprime", help="bound template (default Cprime)")
    g.add_argument("--a", type=float, default=0.5,
                   help="exponent on |D| (default 0.5)")
    g.add_argument("--b", type=float, default=-0.5,
                   help="exponent on |G| or alpha(G) (default -0.5)")
    g.add_argument("--epsilon", type=float, default=0.01,
                   help="epsilon in x^(1/2+epsilon) (default 0.01)")
    g.add_argument("--output", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    g.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format (default csv)")
    g.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility: samples are built "
                        "in one thread, and output is identical for any "
                        "value (default 1)")

    parser.set_defaults(family=None)        # only falsify takes --family
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    sub.add_parser("dihedral", parents=[common],
                   help="per-r split counts, li, class counts, least "
                        "split prime")
    sub.add_parser("cyclotomic", parents=[common],
                   help="per-r residue sets D, density and pi_D at T")
    p_falsify = sub.add_parser("falsify", parents=[common],
                               help="implied-constant scan with a "
                                    "divergence verdict")
    p_falsify.add_argument("--family", choices=("dihedral", "cyclotomic"),
                           required=True, help="sample family to scan")
    sub.add_parser("serre", parents=[common],
                   help="least split primes, power-law fit, discriminant "
                        "bracket")
    p_check = sub.add_parser("sieve-check", parents=[common],
                             help="self-check the sieve against "
                                  "independent counting routes")
    p_check.add_argument("--limit", type=int, default=10 ** 6,
                         help="upper bound for the checks (default 10^6)")
    p_check.add_argument("--q", type=int, default=12,
                         help="modulus for the progression partition "
                              "check (default 12)")
    return parser


def _validate(args: argparse.Namespace) -> Optional[str]:
    if args.r_min < 2:
        return "--r-min must be at least 2"
    if args.r_min > args.r_max:
        return "--r-min must not exceed --r-max"
    if args.workers < 1:
        return "--workers must be at least 1"
    needs_alpha = args.command == "cyclotomic" or args.family == "cyclotomic"
    if needs_alpha and not 0.0 < args.alpha < 1.0:
        return f"--alpha must lie in (0, 1), got {args.alpha}"
    if args.command == "falsify":
        if args.epsilon <= 0:
            return "--epsilon must be positive"
        if args.range_alpha < 0:
            return "--range-alpha must be nonnegative"
        if args.r_max - args.r_min < 2:
            return "falsification scan needs at least 3 values of r"
    if args.command == "serre" and args.r_max - args.r_min < 1:
        return "serre fit needs at least 2 values of r"
    if args.command == "sieve-check":
        if args.limit < 10:
            return "--limit must be at least 10"
        if args.q < 1:
            return "--q must be a positive integer"
    return None


def _resource_problem(args: argparse.Namespace) -> Optional[str]:
    """Why the command would exceed a resource guard, or None.

    sieve-check is bounded by its sieve extent, the cyclotomic commands by
    the bytes they hold at r_max; the dihedral commands sieve nothing and
    are bounded by the exact primality test instead.
    """
    if args.command == "sieve-check" and args.limit > SIEVE_GUARD:
        return (f"configuration would sieve up to {args.limit}, beyond the "
                f"2^40 resource guard")
    if args.command == "cyclotomic" or args.family == "cyclotomic":
        held = cyclotomic.peak_bytes(1 << args.r_max, args.alpha)
        if held > MEMORY_BUDGET:
            return (f"r = {args.r_max} would hold about {held} bytes, beyond "
                    f"the memory budget of 2^31 = {MEMORY_BUDGET} bytes")
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    problem = _resource_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_RESOURCE
    try:
        return _COMMANDS[args.command](args)
    except dihedral.SearchLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except dihedral.ExactBoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entrypoint() -> None:
    sys.exit(main())
