"""Self-test of the correctness gate: a doctored report must count as failed.

    python3 bench/selftest.py

Runs each distinct CLI invocation of the workloads once, checks that the
untouched reports pass, then passes doctored copies through the same
counting path that run.py uses (Runner.judge) and checks that every one of
them is counted as failed.  Exits 0 when all are caught, 1 otherwise.
"""

from __future__ import annotations

import sys

import run


def edit_cell(text: str, r: int, column: str, new) -> str:
    """Rewrite one CSV cell of the row for r with new(old_value)."""
    lines = text.splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    out = []
    for line in lines:
        cells = line.rstrip("\n").split(",")
        if not line.startswith("#") and cells[0] == str(r):
            cells[col] = new(cells[col])
            line = ",".join(cells) + "\n"
        out.append(line)
    return "".join(out)


def drop_row(text: str, r: int) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"{r},"))


def nudge(value: str) -> str:
    return repr(float(value) * (1 + 1e-7))


# command -> doctored variants of a correct report, each with a label
DOCTORS = {
    "serre": [
        ("p_min off by two at r=12", lambda t: edit_cell(t, 12, "p_min", lambda v: str(int(v) + 2))),
        ("row r=7 missing", lambda t: drop_row(t, 7)),
    ],
    "cyclotomic": [
        ("D_size off by one at r=24", lambda t: edit_cell(t, 24, "D_size", lambda v: str(int(v) - 1))),
        ("pi_D_at_T = 1 at r=20", lambda t: edit_cell(t, 20, "pi_D_at_T", lambda v: "1")),
    ],
    "falsify": [
        ("error moved by 1e-7 relative at r=9", lambda t: edit_cell(t, 9, "error", nudge)),
        ("error of pi_D = 1 at r=12",
         lambda t: edit_cell(t, 12, "error", lambda v: repr(float(v) - 1))),
        ("implied_constant inconsistent at r=10",
         lambda t: edit_cell(t, 10, "implied_constant", nudge)),
        ("verdict line missing",
         lambda t: "".join(l for l in t.splitlines(keepends=True) if "verdict" not in l)),
        ("empty report", lambda t: ""),
    ],
}


def main() -> int:
    argvs = run.build_workload("paper", 0).pass_argvs
    problems = []
    with run.work_dir("selftest-") as work:
        runner = run.Runner(work)
        reports = [(argv, runner.cli(argv, None).stdout) for argv in argvs]
        if runner.failed:
            problems.append(f"untouched reports failed: {runner.errors}")
        for argv, stdout in reports:
            what = " ".join(argv[:3] if argv[0] == "falsify" else argv[:1])
            cases = [(label, 0, doctor(stdout)) for label, doctor in DOCTORS[argv[0]]]
            cases.append(("exit code 1", 1, stdout))
            for label, code, text in cases:
                before = runner.failed
                runner.judge(argv, code, text)
                caught = runner.failed == before + 1
                print(f"{'caught' if caught else 'MISSED'}  {what}: {label}")
                if not caught:
                    problems.append(f"{what}: {label} not counted as failed")
        print(f"failed_ratio with doctored reports: {runner.failed}/{runner.attempted}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
