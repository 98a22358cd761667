"""Correctness gate for cheblab CLI output.

Each CSV report is checked against facts that do not depend on the bound
template, recorded in reference.json from the commit named there:

- every r of the requested window is present, in order, with n = 2^r;
- `serre`: p_min per r (r = 12 gives 16777337);
- `cyclotomic`: D_size per r (r = 24 gives 12912788), pi_D_at_T = 0 and
  density = D_size / n;
- `falsify`: the error column within 1e-9 relative of the reference, and
  implied_constant = error / denominator.  The error column is
  |pi_D - (|D|/n) li(x)|; it does not depend on the bound exponents.  The
  references were recorded where pi_D = 0 at every sample point (x = n^2
  for the dihedral family, x = T for the cyclotomic one), and a change of
  pi_D by one moves the error by at least 3e-7 relative on every row, so
  this check also pins pi_D = 0;
- `falsify`: the summary echoes the requested template and gives a verdict.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
REL_TOL = 1e-9

HEADERS = {
    "falsify": ["r", "n", "x", "error", "denominator", "implied_constant"],
    "serre": ["r", "n", "p_min", "log_dK_lo", "log_dK_hi"],
    "cyclotomic": ["r", "n", "T", "D_size", "density", "pi_D_at_T"],
}


class GateError(ValueError):
    """The output contradicts a recorded or derived fact."""


def options(argv: Sequence[str]) -> dict:
    """Map each `--flag value` or `--flag=value` in argv to its value."""
    opts = {}
    args = list(argv)
    i = 0
    while i < len(args):
        arg = args[i]
        if arg.startswith("--"):
            if "=" in arg:
                key, _, value = arg[2:].partition("=")
            else:
                key, value = arg[2:], args[i + 1]
                i += 1
            opts[key] = value
        i += 1
    return opts


def parse_csv(text: str) -> tuple[list[str], list[dict], dict]:
    """Split a cheblab CSV report into header, rows and `# key=value` summary."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    summary = dict(line[2:].split("=", 1) for line in text.splitlines()
                   if line.startswith("# ") and "=" in line)
    reader = csv.DictReader(body)
    return list(reader.fieldnames or []), list(reader), summary


def _close(got: float, want: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        raise GateError(f"{what}: got {got!r}, want {want!r}")


def check(argv: Sequence[str], stdout: str) -> None:
    """Raise GateError unless stdout is a correct report for argv."""
    try:
        _check(argv, stdout)
    except GateError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise GateError(f"malformed report: {exc!r}") from exc


def _check(argv: Sequence[str], stdout: str) -> None:
    command = argv[0]
    if command not in HEADERS:
        raise GateError(f"no gate for command {command!r}")
    opts = options(argv[1:])
    header, rows, summary = parse_csv(stdout)
    if header != HEADERS[command]:
        raise GateError(f"header {header} != {HEADERS[command]}")
    window = list(range(int(opts["r-min"]), int(opts["r-max"]) + 1))
    got_rs = [int(row["r"]) for row in rows]
    if got_rs != window:
        raise GateError(f"rows for r={got_rs}, want r={window}")
    for row in rows:
        if int(row["n"]) != 1 << int(row["r"]):
            raise GateError(f"r={row['r']}: n={row['n']} is not 2^r")
    if command == "serre":
        _check_serre(rows)
    elif command == "cyclotomic":
        _check_cyclotomic(rows)
    else:
        _check_falsify(opts, rows, summary)


def _check_serre(rows: list[dict]) -> None:
    ref = REFERENCE["serre_p_min"]
    for row in rows:
        if int(row["p_min"]) != ref[row["r"]]:
            raise GateError(f"r={row['r']}: p_min={row['p_min']}, "
                            f"want {ref[row['r']]}")


def _check_cyclotomic(rows: list[dict]) -> None:
    ref = REFERENCE["cyclotomic_D_size"]
    for row in rows:
        r, d_size = row["r"], int(row["D_size"])
        if d_size != ref[r]:
            raise GateError(f"r={r}: D_size={d_size}, want {ref[r]}")
        if int(row["pi_D_at_T"]) != 0:
            raise GateError(f"r={r}: pi_D_at_T={row['pi_D_at_T']}, want 0")
        _close(float(row["density"]), d_size / int(row["n"]), f"r={r} density")


def _check_falsify(opts: dict, rows: list[dict], summary: dict) -> None:
    ref = REFERENCE[f"{opts['family']}_falsify_error"]
    for row in rows:
        r, error = row["r"], float(row["error"])
        _close(error, ref[r], f"r={r} error")
        _close(float(row["implied_constant"]),
               error / float(row["denominator"]), f"r={r} implied_constant")
    for key in ("family", "variant"):
        if summary.get(key) != opts[key]:
            raise GateError(f"summary {key}={summary.get(key)!r}, "
                            f"want {opts[key]!r}")
    for key in ("a", "b", "epsilon"):
        _close(float(summary[key]), float(opts[key]), f"summary {key}")
    if summary.get("verdict") not in ("DIVERGES", "BOUNDED"):
        raise GateError(f"verdict {summary.get('verdict')!r}")
