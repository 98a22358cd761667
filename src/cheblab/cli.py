"""Command-line front end: build families, run scans, emit CSV/JSON.

Exit codes: 0 success, 1 failed self-check or exhausted search,
2 usage error, 3 resource guard, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Iterable, Optional, Sequence

from . import analytic, bounds, cyclotomic, dihedral, sieve

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_IO = 4

SIEVE_GUARD = 1 << 40           # refuse sieve-check charged more integers
MEMORY_BUDGET = 1 << 31         # refuse cyclotomic commands holding more bytes


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


def _cyclotomic_sample(counts: tuple) -> bounds.ChebotarevSample:
    """Measured sample at x = T for one (n, T, |D|, pi_D(T)) of the family."""
    n, T, D_size, pi_D = counts
    return bounds.ChebotarevSample(
        family="cyclotomic",
        n=n,
        x=T,
        pi_D=pi_D,
        li_x=analytic.li(T),
        D_size=D_size,
        alpha_G=n,              # abelian group: every class is a singleton
    )


def cyclotomic_sample(r: int, alpha: float) -> bounds.ChebotarevSample:
    """Measured sample for the cyclotomic member n = 2^r at x = T."""
    return _cyclotomic_sample(next(cyclotomic.measure_counts([1 << r], alpha)))


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


def render_csv(rows: Sequence[dict], summary: Optional[dict]) -> str:
    # the columns are the keys of the first row: rows are never empty,
    # and every row has the same keys in the same order
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(map(_fmt, row.values())))
    for key, value in (summary or {}).items():
        lines.append(f"# {key}={_fmt(value)}")
    return "\n".join(lines) + "\n"


def render_json(command: str, rows: Sequence[dict],
                summary: Optional[dict]) -> str:
    import json                 # only here: start-up stays without it

    doc = {"command": command, "rows": rows}
    if summary is not None:
        doc["summary"] = summary
    return json.dumps(doc, indent=2) + "\n"


def _emit(args: argparse.Namespace, rows: Sequence[dict],
          summary: Optional[dict] = None) -> int:
    if args.format == "csv":
        text = render_csv(rows, summary)
    else:
        text = render_json(args.command, rows, summary)
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
    def row(counts: tuple) -> dict:
        n, T, D_size, pi_D = counts
        return {
            "r": n.bit_length() - 1, "n": n, "T": T, "D_size": D_size,
            "density": D_size / n, "pi_D_at_T": pi_D,
        }

    family = cyclotomic.measure_counts(
        [1 << r for r in range(args.r_min, args.r_max + 1)], args.alpha)
    rows = _map_ordered(row, family, args.workers)
    return _emit(args, rows)


def cmd_falsify(args: argparse.Namespace) -> int:
    rs = range(args.r_min, args.r_max + 1)
    if args.family == "dihedral":
        samples = _map_ordered(dihedral_sample, rs, args.workers)
    else:
        family = cyclotomic.measure_counts([1 << r for r in rs], args.alpha)
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
        **fam._asdict(),
        "range_alpha": args.range_alpha,
        "slope_threshold": bounds.SLOPE_THRESHOLD,
        "ratio_threshold": bounds.RATIO_THRESHOLD,
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
        lo, hi = bounds.discriminant_bracket(n)
        rows.append({
            "r": n.bit_length() - 1, "n": n, "p_min": p_min,
            "log_dK_lo": lo, "log_dK_hi": hi,
        })
    return _emit(args, rows, fit._asdict())


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


def _prime_factors(q: int) -> list[int]:
    """The distinct primes dividing q, by trial division up to sqrt(q)."""
    factors, p = [], 2
    while p * p <= q:
        if q % p == 0:
            factors.append(p)
            while q % p == 0:
                q //= p
        p += 1
    return factors + [q] if q > 1 else factors


def cmd_sieve_check(args: argparse.Namespace) -> int:
    rows = []

    def record(check: str, ok: bool, detail: str) -> None:
        rows.append({"check": check, "status": "PASS" if ok else "FAIL",
                     "detail": detail})

    # 2^21 odd integers make one piece of the whole range; narrower pieces
    # are never cached, so all are sieved.  Piece bits start at lo // 2.
    cap = min(args.limit, 1 << 22)
    joined = {sum(sieve.sieve_range(lo, min(lo + 2 * odds, cap)) << lo // 2
                  for lo in range(0, cap, 2 * odds))
              for odds in (1 << 21, 4096, 8191)}
    record("segment-independence", len(joined) == 1,
           f"limit={cap} segmentations=2097152;4096;8191")

    # one walk of odd_rows: the primes below x are 2 and the rows cut at
    # x, but at the walk's end the rows as odd_rows cut them
    q, limit, row_bits = args.q, args.limit, sieve.SEGMENT_ODDS
    trial_cap = min(limit, 10 ** 6)
    xs = sorted({2, 10, 100, 1000, limit // 2, limit})
    below = {x: int(x > 2) for x in {trial_cap, *xs}}
    factors = _prime_factors(q)
    odd = [(p, sieve.tile(1, p)) for p in factors if p > 2]
    shared = 0                  # the odd primes below limit that divide q
    for k, row in enumerate(sieve.odd_rows(xs[-1])):
        cut = {x: row if x == xs[-1] else sieve.cut(row, k, x) for x in below}
        below = {x: n + cut[x].bit_count() for x, n in below.items()}
        # the odd multiples of p lie p apart from p // 2: at most one in a
        # row if p is wider than the row, and no shift by 2^20 or more
        shared += sum(((cut[limit] >> at) & bits).bit_count() for p, bits in odd
                      if (at := (p // 2 - k * row_bits) % p) < row_bits)

    want = _trial_prime_count(trial_cap)
    record("trial-division-equivalence", below[trial_cap] == want,
           f"x={trial_cap} sieve={below[trial_cap]} trial={want}")

    divisors = sum(1 for p in factors if p < limit)
    total = below[limit]
    coprime = total - shared - (1 - q % 2)  # and 2 < limit if q is even
    record("ap-partition", coprime + divisors == total,
           f"x={limit} q={q} coprime={coprime} "
           f"divisors={divisors} total={total}")

    counts = [below[x] for x in xs]
    ok = all(a <= b for a, b in zip(counts, counts[1:]))
    record("monotonicity", ok, "counts=" + ";".join(map(str, counts)))

    code = _emit(args, rows)
    return code or (EXIT_OK if all(r["status"] == "PASS" for r in rows)
                    else EXIT_FAILURE)


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
    scan = argparse.ArgumentParser(add_help=False)
    g = scan.add_argument_group("scan options")
    g.add_argument("--r-min", type=int, default=2,
                   help="smallest r, with n = 2^r (default %(default)s)")
    g.add_argument("--r-max", type=int, default=8,
                   help="largest r (default %(default)s)")
    cyclo = argparse.ArgumentParser(add_help=False)
    g = cyclo.add_argument_group("cyclotomic family options")
    g.add_argument("--alpha", type=float, default=0.5,
                   help="threshold exponent in T = n*log(n)^alpha, "
                        "0 < alpha < 1 (default %(default)s)")
    template = argparse.ArgumentParser(add_help=False)
    g = template.add_argument_group("bound template options")
    g.add_argument("--range-alpha", type=float, default=1.0,
                   help="range restriction x > n*log(n)^range_alpha "
                        "(default %(default)s)")
    g.add_argument("--variant", choices=list(bounds.VARIANTS),
                   default="Cprime",
                   help="bound template (default %(default)s)")
    g.add_argument("--a", type=float, default=0.5,
                   help="exponent on |D| (default %(default)s)")
    g.add_argument("--b", type=float, default=-0.5,
                   help="exponent on |G| or alpha(G) (default %(default)s)")
    g.add_argument("--epsilon", type=float, default=0.01,
                   help="epsilon in x^(1/2+epsilon) (default %(default)s)")
    report = argparse.ArgumentParser(add_help=False)
    g = report.add_argument_group("report options")
    g.add_argument("--output", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    g.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format (default %(default)s)")
    g.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility: samples are built "
                        "in one thread, and output is identical for any "
                        "value (default %(default)s)")

    # no abbreviations: cyclotomic --a would otherwise set --alpha
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    sub.add_parser("dihedral", parents=[scan, report], allow_abbrev=False,
                   help="per-r split counts, li, class counts, least "
                        "split prime")
    sub.add_parser("cyclotomic", parents=[scan, cyclo, report],
                   allow_abbrev=False,
                   help="per-r residue sets D, density and pi_D at T")
    p_falsify = sub.add_parser("falsify", allow_abbrev=False,
                               parents=[scan, cyclo, template, report],
                               help="implied-constant scan with a "
                                    "divergence verdict")
    p_falsify.add_argument("--family", choices=bounds.FAMILIES,
                           required=True, help="sample family to scan")
    sub.add_parser("serre", parents=[scan, report], allow_abbrev=False,
                   help="least split primes, power-law fit, discriminant "
                        "bracket")
    p_check = sub.add_parser("sieve-check", parents=[report],
                             allow_abbrev=False,
                             help="self-check the sieve against "
                                  "independent counting routes")
    p_check.add_argument("--limit", type=int, default=10 ** 6,
                         help="the checks' bound; monotonicity also counts "
                              "at 2, 10, 100 and 1000 (default 10^6)")
    p_check.add_argument("--q", type=int, default=12,
                         help="modulus for the progression partition "
                              "check (default %(default)s)")
    return parser


def _validate(args: argparse.Namespace) -> Optional[str]:
    if hasattr(args, "r_min") and args.r_min < 2:
        return "--r-min must be at least 2"
    if hasattr(args, "r_min") and args.r_min > args.r_max:
        return "--r-min must not exceed --r-max"
    if args.workers < 1:
        return "--workers must be at least 1"
    if hasattr(args, "alpha") and not 0.0 < args.alpha < 1.0:
        return f"--alpha must lie in (0, 1), got {args.alpha}"
    # every check below is a comparison, which nan passes
    for name in ("a", "b", "epsilon", "range_alpha"):
        value = getattr(args, name, 0.0)
        if not math.isfinite(value):
            return f"--{name.replace('_', '-')} must be finite, got {value}"
    if hasattr(args, "epsilon") and args.epsilon <= 0:
        return "--epsilon must be positive"
    if hasattr(args, "range_alpha") and args.range_alpha < 0:
        return "--range-alpha must be nonnegative"
    if args.command == "falsify" and args.r_max - args.r_min < 2:
        return "falsification scan needs at least 3 values of r"
    if args.command == "serre" and args.r_max - args.r_min < 1:
        return "serre fit needs at least 2 values of r"
    if hasattr(args, "limit") and args.limit < 10:
        return "--limit must be at least 10"
    if hasattr(args, "q") and args.q < 1:
        return "--q must be a positive integer"
    return None


def _resource_problem(args: argparse.Namespace) -> Optional[str]:
    """Why the command would exceed a resource guard, or None.

    sieve-check is bounded by the integers it walks, the cyclotomic
    commands by the bytes they hold at r_max; the dihedral commands sieve
    nothing and are bounded by the exact primality test instead.  A wide
    r is refused from r alone, before any 2^r is built: the cyclotomic
    commands hold more than n bytes, and the dihedral ones test values
    up to n^2 (falsify) or 4n^2 (dihedral and serre).
    """
    if args.command == "sieve-check":
        # one walk of the segments below limit, rounded up to whole
        # segments; q is charged for factoring it by trial division
        q, step = args.q, sieve.SEGMENT_WIDTH
        charge = q + -(-args.limit // step) * step
        if charge > SIEVE_GUARD:
            return (f"--limit {args.limit} --q {args.q} is charged "
                    f"{charge} integers (q + limit, limit rounded up to "
                    f"whole segments of {step}), beyond the 2^40 resource "
                    f"guard")
    family, r = getattr(args, "family", args.command), getattr(args, "r_max", 0)
    if family == "cyclotomic":
        wide = r >= MEMORY_BUDGET.bit_length()
        held = 0 if wide else cyclotomic.peak_bytes(1 << r, args.alpha)
        if wide or held > MEMORY_BUDGET:
            amount = f"more than 2^{r}" if wide else f"about {held}"
            return (f"r = {r} would hold {amount} bytes, beyond the memory "
                    f"budget of 2^31 = {MEMORY_BUDGET} bytes")
    values, top = ("n^2", 2 * r) if args.command == "falsify" else ("4n^2", 2 * r + 2)
    bound = dihedral.MILLER_RABIN_BOUND
    if family in ("dihedral", "serre") and top >= bound.bit_length():
        return (f"r = {r} would need primality tests up to {values} = 2^{top}, "
                f"above {bound}, the bound of the deterministic test")
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
