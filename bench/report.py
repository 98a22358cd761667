"""Print every metric of every workload by name, with units.

    python3 bench/report.py [--seed N] [--seconds S]

Runs `bench/run.py --trace 1` once per workload.  Such a run measures the
end-to-end metrics with tracing off, then makes one traced pass for the
per-layer metrics; this script prints both, and failed_ratio, as one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run.SPEC["run_seconds"])
    args = parser.parse_args()

    records = {}
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, check=False)
        lines = [line for line in proc.stdout.splitlines() if line.startswith("record ")]
        if proc.returncode != 0 or not lines:
            print(f"error: {name} run failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        records[name] = json.loads(lines[-1][len("record "):])

    metrics = run.SPEC["end_to_end"] + [{"name": "failed_ratio", "unit": "ratio"}] \
        + run.SPEC["per_layer"]
    print(f"{'metric':34}{'unit':>7}" + "".join(f"{w:>15}" for w in run.WORKLOADS))
    for m in metrics:
        values = [records[w]["metrics"].get(m["name"], records[w].get(m["name"]))
                  for w in run.WORKLOADS]
        print(f"{m['name']:34}{m['unit']:>7}" + "".join(f"{v:>15.6g}" for v in values))
    env = records[run.WORKLOADS[0]]["environment"]
    print(f"\nseed {args.seed}, python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, commit {env['commit']}, dirty {env['dirty']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
