"""Benchmark of the cheblab CLI, run as a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every invocation is a fresh
`python -m cheblab ...` process against ./src (PYTHONPATH=src, as the test
suite runs it), so each pays interpreter start-up and import.  A pass runs
the workload's invocations in sequence; passes repeat for S seconds (at
least MIN_PASSES) and the medians are reported.

The seed draws only the bound template (variant, a, b, epsilon) of each
falsify invocation from a fixed set.  It never draws an r window, so the
cost of a pass does not depend on it.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 the run also makes one traced pass
(traced.py) and reports the per-layer metrics.  Every invocation's output
goes through the correctness gate (gate.py); one that exits non-zero or
fails the gate counts in `failed`.  The lines before the last are for
people: the metrics by name, the environment and the exact command lines.
See bench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import random
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gate
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MIN_PASSES = 3
SETUP_REPEATS = 5
TRACED_PASSES = 3
IMPORT_PROBES = 3
INVOCATION_TIMEOUT_S = 60
PROBE = ["-c", "import cheblab.cli"]

# Bound templates the seed draws from.  FG is left out: it only applies to a
# singleton cyclotomic D, so it would fail on every workload.
VARIANTS = ("C", "Cprime")
A_VALUES = (0.0, 0.25, 0.5)
B_VALUES = (-0.5, -0.25, 0.0)
EPSILONS = (0.01, 0.02, 0.05)

# r windows are the paper's acceptance windows.  Dihedral windows stay at
# r <= 12: cost grows about 4x per r, and the 2^40 guard would admit r = 20.
DIHEDRAL_FALSIFY = ["falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "12"]
SERRE = ["serre", "--r-min", "2", "--r-max", "12"]
CYCLOTOMIC = ["cyclotomic", "--r-min", "2", "--r-max", "24"]
CYCLOTOMIC_FALSIFY = ["falsify", "--family", "cyclotomic", "--range-alpha", "0.5",
                      "--r-min", "8", "--r-max", "24"]
WORKLOADS = ("paper", "replay-cached")


@dataclass
class Workload:
    name: str
    pass_argvs: list                # CLI argvs of one timed pass
    setup_argvs: list = field(default_factory=list)  # run cold before the passes
    cached: bool = False            # fresh CHEB_CACHE_DIR per set-up


def template(rng: random.Random) -> list:
    return [f"--variant={rng.choice(VARIANTS)}", f"--a={rng.choice(A_VALUES)!r}",
            f"--b={rng.choice(B_VALUES)!r}", f"--epsilon={rng.choice(EPSILONS)!r}"]


def build_workload(name: str, seed: int) -> Workload:
    """`paper` runs the paper's four results through the thread pool, with no
    cache; `replay-cached` replays one falsify over a warm cache, serially.
    Each workload bypasses the mechanisms the other one exercises."""
    rng = random.Random(seed)
    if name == "paper":
        return Workload(name, [argv + ["--workers=2"] for argv in (
            DIHEDRAL_FALSIFY + template(rng), SERRE,
            CYCLOTOMIC, CYCLOTOMIC_FALSIFY + template(rng))])
    if name == "replay-cached":
        return Workload(name,
                        [CYCLOTOMIC_FALSIFY + template(rng) + ["--workers=1"]
                         for _ in range(3)],
                        setup_argvs=[CYCLOTOMIC_FALSIFY + template(rng) + ["--workers=1"]],
                        cached=True)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class Outcome:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs Python subprocesses in the checkout and keeps the tally of failures."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.commands: list[str] = []

    def python(self, args: list, cache_dir: Path | None = None) -> Outcome:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("CHEB_CACHE_DIR", None)
        if cache_dir is not None:
            env["CHEB_CACHE_DIR"] = str(cache_dir)
        with open(self.work / "stdout", "w+b") as out, \
                open(self.work / "stderr", "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                           usage.ru_maxrss / 1024.0,
                           out.read().decode(errors="replace"),
                           err.read().decode(errors="replace"))

    def fresh_cache(self) -> Path:
        """An empty directory for CHEB_CACHE_DIR."""
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))

    @staticmethod
    def _exit_problem(code: int, stderr: str) -> str | None:
        return None if code == 0 else f"exit {code}: {stderr.strip()[-300:]}"

    def _tally(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.errors.append(f"{what}: {problem}")

    def judge(self, argv: list, code: int, stdout: str, stderr: str = "") -> None:
        """Count one invocation, failed if it exits non-zero or fails the gate."""
        problem = self._exit_problem(code, stderr)
        if problem is None:
            try:
                gate.check(argv, stdout)
            except gate.GateError as exc:
                problem = str(exc)
        self._tally(shlex.join(argv), problem)

    def _record(self, args: list, cache_dir: Path | None) -> None:
        prefix = "PYTHONPATH=src " + (f"CHEB_CACHE_DIR={cache_dir} " if cache_dir else "")
        line = prefix + shlex.join(["python3", *args])
        if line not in self.commands:
            self.commands.append(line)

    def probe(self, args: list = PROBE) -> Outcome:
        self._record(args, None)
        out = self.python(args)
        self._tally(shlex.join(args), self._exit_problem(out.code, out.stderr))
        return out

    def cli(self, argv: list, cache_dir: Path | None) -> Outcome:
        args = ["-m", "cheblab", *argv]
        self._record(args, cache_dir)
        out = self.python(args, cache_dir)
        self.judge(argv, out.code, out.stdout, out.stderr)
        return out

    def traced(self, argv: list, cache_dir: Path | None, pass_id: int) -> tuple:
        """One traced invocation: (wall seconds, layers.layer_metrics input)."""
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)
        args = [str(BENCH / "traced.py"), str(spans_path), str(pass_id), "--", *argv]
        before = _listing(cache_dir)
        out = self.python(args, cache_dir)
        after = _listing(cache_dir)
        try:
            doc = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            doc = {"exit_code": out.code or 1, "stdout": "", "spans": []}
        self.judge(argv, doc["exit_code"], doc["stdout"], out.stderr)
        cache = None
        if cache_dir is not None:
            new = set(after) - set(before)
            cache = {"files": len(new), "bytes": sum(after[n] for n in new)}
        return out.wall_s, {"spans": doc["spans"], "cache": cache}


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under .bench_work in the checkout, removed afterwards."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()         # fails while another run still uses it


def _listing(cache_dir: Path | None) -> dict:
    if cache_dir is None or not cache_dir.is_dir():
        return {}
    return {p.name: p.stat().st_size for p in cache_dir.iterdir()}


def set_up(runner: Runner, wl: Workload) -> tuple[float, Path | None]:
    """Everything before the timed passes: an import probe, then the cold
    invocations that fill a fresh cache.  Returns (seconds, cache dir)."""
    t0 = perf_counter()
    runner.probe()
    cache_dir = runner.fresh_cache() if wl.cached else None
    for argv in wl.setup_argvs:
        runner.cli(argv, cache_dir)
    return perf_counter() - t0, cache_dir


def import_times(runner: Runner) -> dict:
    """Medians of `-X importtime`: cheblab's own import, and numpy's."""
    own, numpy = [], []
    for _ in range(IMPORT_PROBES):
        out = runner.probe(["-X", "importtime", *PROBE])
        cumulative = {}
        for line in out.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        total = cumulative.get("cheblab.cli", 0.0)
        numpy.append(cumulative.get("numpy", 0.0))
        own.append(total - numpy[-1])
    return {"import.cheblab_s": statistics.median(own),
            "import.numpy_s": statistics.median(numpy)}


def traced_metrics(wl: Workload, runner: Runner) -> dict:
    """Medians over TRACED_PASSES traced passes of the per-layer metrics.

    For a cached workload each traced pass first repeats the set-up's cold
    invocations into a fresh cache, so the cache's write path shows as well
    as its read path; only the pass itself counts in traced_pass_s.
    """
    runs = []
    for pass_id in range(TRACED_PASSES):
        cache_dir = runner.fresh_cache() if wl.cached else None
        invocations = [runner.traced(argv, cache_dir, pass_id)[1]
                       for argv in wl.setup_argvs]
        wall = 0.0
        for argv in wl.pass_argvs:
            seconds, inv = runner.traced(argv, cache_dir, pass_id)
            wall += seconds
            invocations.append(inv)
        runs.append({**layers.layer_metrics(invocations), "traced_pass_s": wall})
    names = {name for run in runs for name in run}
    return {name: statistics.median(run.get(name, 0.0) for run in runs)
            for name in names}


def measure(wl: Workload, seconds: float, trace: bool, runner: Runner) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, cache_dir = set_up(runner, wl)
        setups.append(setup_s)

    walls, rss, cpu = [], [], []
    started = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - started < seconds:
        t0 = perf_counter()
        outs = [runner.cli(argv, cache_dir) for argv in wl.pass_argvs]
        walls.append(perf_counter() - t0)
        rss.append(max(o.maxrss_mb for o in outs))
        cpu.append(sum(o.cpu_s for o in outs))

    metrics = {
        "time_to_result_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    report = {"passes": len(walls), "pass_walls_s": walls, "setup_walls_s": setups}
    if trace:
        metrics.update(traced_metrics(wl, runner))
        metrics["cli.cpu_s"] = statistics.median(cpu)
        metrics["trace.overhead_s"] = metrics.pop("traced_pass_s") - metrics["time_to_result_s"]
        metrics.update(import_times(runner))
    return metrics, report


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def environment(args: argparse.Namespace, commands: list) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(),
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "commands": commands,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cheblab" / "cli.py").is_file():
        print(f"error: no cheblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = build_workload(args.workload, args.seed)
    with work_dir("run-") as work:
        runner = Runner(work)
        metrics, report = measure(wl, args.seconds, bool(args.trace), runner)

    # failed_ratio is 0 when all is well, and a metric must never read 0,
    # so the end-to-end metric is its complement
    report["failed_ratio"] = runner.failed / runner.attempted
    metrics["passed_ratio"] = 1.0 - report["failed_ratio"]
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    result = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
              for m in wanted}
    shown = SPEC["end_to_end"] + (SPEC["per_layer"] if args.trace else [])
    for m in shown:
        print(f"{m['name']:32} {metrics.get(m['name'], 0.0):>16.6g} {m['unit']}")
    print(f"{'failed_ratio':32} {report['failed_ratio']:>16.6g} ratio")
    for error in runner.errors[:5]:
        print(f"FAILED {error}", file=sys.stderr)
    record = {"environment": environment(args, runner.commands), **report,
              "metrics": {m["name"]: metrics.get(m["name"], 0.0) for m in shown}}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
