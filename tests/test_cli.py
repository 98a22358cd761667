"""Command-line surface: exit codes, fixed headers, formats, determinism."""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

from cheblab import __version__, bounds, cli, cyclotomic, dihedral, sieve
from cheblab.cli import (
    EXIT_FAILURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    MEMORY_BUDGET,
    cyclotomic_sample,
    main,
)


def run(capsys, *args) -> tuple:
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text: str) -> tuple:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(",")))
            for ln in lines[1:] if not ln.startswith("#")]
    summary = dict(ln[2:].split("=", 1)
                   for ln in lines[1:] if ln.startswith("#"))
    return header, rows, summary


SCAN = {"--r-min", "--r-max"}
REPORT = {"--output", "--format", "--workers"}
TEMPLATE = {"--range-alpha", "--variant", "--a", "--b", "--epsilon"}
OPTIONS = {
    "dihedral": SCAN | REPORT,
    "serre": SCAN | REPORT,
    "cyclotomic": SCAN | {"--alpha"} | REPORT,
    "falsify": SCAN | {"--alpha"} | TEMPLATE | REPORT | {"--family"},
    "sieve-check": REPORT | {"--limit", "--q"},
}


def subcommands() -> dict:
    """The parser of each command, by name."""
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestOptionTable:
    def test_each_command_takes_only_its_options(self):
        taken = {name: {s for a in command._actions for s in a.option_strings
                        if s not in ("-h", "--help")}
                 for name, command in subcommands().items()}
        assert taken == OPTIONS
        assert sum(map(len, taken.values())) == 33

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_names_the_real_defaults(self, command, monkeypatch):
        # the help as printed at 80 columns, its lines rejoined: each
        # "(default X)" belongs to the last option named before it
        monkeypatch.setenv("COLUMNS", "80")
        parser = subcommands()[command]
        pieces = " ".join(parser.format_help().split()).split(" (default ")
        named = {re.findall(r"--[a-z][a-z-]*", before)[-1]:
                 after.split(")", 1)[0]
                 for before, after in zip(pieces, pieces[1:])}
        defaults = {a.option_strings[0]: str(a.default)
                    for a in parser._actions if "(default" in (a.help or "")}
        assert set(named) == set(defaults)
        # the help of --limit writes 10 ** 6 as 10^6
        assert named.pop("--limit", "10^6") == "10^6"
        defaults.pop("--limit", None)
        assert named == defaults

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", ["paper", "replay-cached"])
    def test_bench_command_lines_parse(self, name, seed, monkeypatch):
        # bench/ may not change with the CLI, so its argvs must stay valid
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        run = importlib.import_module("run")
        # a template the CLI drops would fail every bench invocation
        assert set(run.VARIANTS) <= set(bounds.VARIANTS)
        workload = run.build_workload(name, seed)
        argvs = workload.setup_argvs + workload.pass_argvs
        assert argvs
        for argv in argvs:
            args = cli.build_parser().parse_args(argv)
            assert cli._validate(args) is None, argv


class TestUsageErrors:
    def test_r_min_above_r_max(self, capsys):
        rc, _, err = run(capsys, "dihedral", "--r-min", "5", "--r-max", "3")
        assert rc == EXIT_USAGE
        assert "r-min" in err

    def test_r_min_below_two(self, capsys):
        rc, _, _ = run(capsys, "dihedral", "--r-min", "1", "--r-max", "3")
        assert rc == EXIT_USAGE

    def test_cyclotomic_needs_alpha_below_one(self, capsys):
        rc, _, err = run(capsys, "cyclotomic", "--alpha", "1.2")
        assert rc == EXIT_USAGE
        assert "alpha" in err

    # cyclotomic --a would abbreviate --alpha if abbreviations were allowed
    @pytest.mark.parametrize("argv", [
        ("dihedral", "--variant", "C"),
        ("serre", "--alpha", "0.3"),
        ("cyclotomic", "--epsilon", "0.02"),
        ("cyclotomic", "--a", "0.25"),
        ("sieve-check", "--r-min", "1"),
    ], ids=" ".join)
    def test_option_the_command_does_not_take(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_falsify_validates_alpha_for_either_family(self, capsys):
        rc, _, err = run(capsys, "falsify", "--family", "dihedral",
                         "--r-min", "4", "--r-max", "8", "--alpha", "1.2")
        assert rc == EXIT_USAGE
        assert "alpha" in err

    def test_falsify_needs_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["falsify", "--r-min", "4", "--r-max", "8"])
        assert exc.value.code == EXIT_USAGE

    def test_falsify_needs_three_r_values(self, capsys):
        rc, _, err = run(capsys, "falsify", "--family", "dihedral",
                         "--r-min", "4", "--r-max", "5")
        assert rc == EXIT_USAGE
        assert "3" in err

    def test_serre_needs_two_r_values(self, capsys):
        rc, _, _ = run(capsys, "serre", "--r-min", "2", "--r-max", "2")
        assert rc == EXIT_USAGE

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["quintic"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_epsilon(self, capsys):
        rc, _, _ = run(capsys, "falsify", "--family", "dihedral",
                       "--r-min", "4", "--r-max", "8", "--epsilon", "0")
        assert rc == EXIT_USAGE

    def test_workers_positive(self, capsys):
        rc, _, _ = run(capsys, "dihedral", "--workers", "0")
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--a", "--b", "--epsilon",
                                        "--range-alpha"])
    def test_non_finite_template_values(self, option, value, capsys,
                                        monkeypatch):
        # refused before any segment is sieved or sample built
        sieved = []
        monkeypatch.setattr(sieve, "sieve_range",
                            lambda lo, hi: sieved.append((lo, hi)))
        rc, out, err = run(capsys, "falsify", "--family", "cyclotomic",
                           "--r-min", "8", "--r-max", "12",
                           f"{option}={value}")
        assert rc == EXIT_USAGE
        assert (out, sieved) == ("", [])
        assert err == f"error: {option} must be finite, got {value}\n"

    def test_negative_range_alpha(self, capsys, monkeypatch):
        # refused before any segment is sieved
        sieved = []
        monkeypatch.setattr(sieve, "sieve_range",
                            lambda lo, hi: sieved.append((lo, hi)))
        rc, out, err = run(capsys, "falsify", "--family", "cyclotomic",
                           "--r-min", "8", "--r-max", "12", "--range-alpha=-1")
        assert (rc, out, sieved) == (EXIT_USAGE, "", [])
        assert err == "error: --range-alpha must be nonnegative\n"

    @pytest.mark.parametrize("argv", [
        ("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "8",
         "--epsilon", "1000"),
        ("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "8",
         "--b=1e6"),
        ("falsify", "--family", "cyclotomic", "--r-min", "8", "--r-max", "12",
         "--a", "1000"),
        # each factor is finite; their product overflows to inf at n = 4096
        ("falsify", "--family", "cyclotomic", "--variant", "C", "--a", "89.1",
         "--r-min", "8", "--r-max", "12"),
    ], ids=["epsilon", "b", "a", "a-product"])
    def test_finite_template_values_that_overflow(self, argv, capsys):
        for fmt in ("csv", "json"):
            rc, out, err = run(capsys, *argv, "--format", fmt)
            assert rc == EXIT_USAGE
            assert out == ""
            assert err.startswith("error: bound denominator overflows a float")

    @pytest.mark.parametrize("argv, n", [
        (("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "8",
          "--b=-1e6"), 16),
        (("falsify", "--family", "cyclotomic", "--r-min", "8", "--r-max",
          "10", "--variant", "C", "--a=-300"), 256),
    ], ids=["b", "a"])
    def test_finite_template_values_that_underflow(self, argv, n, capsys):
        # every factor of the template is positive; their product is 0.0
        for fmt in ("csv", "json"):
            rc, out, err = run(capsys, *argv, "--format", fmt)
            assert (rc, out) == (EXIT_USAGE, "")
            assert err == ("error: bound denominator underflows a float "
                           f"at n={n}\n")

    def test_an_implied_constant_that_overflows(self, capsys):
        # the denominator at n = 64 is subnormal, 4.2e-308, and the error
        # over it is inf: no row, slope nan or Infinity in the JSON
        for fmt in ("csv", "json"):
            rc, out, err = run(capsys, "falsify", "--family", "dihedral",
                               "--variant", "Cprime", "--r-min", "4",
                               "--r-max", "6", "--b=-241.7", "--format", fmt)
            assert (rc, out) == (EXIT_USAGE, "")
            assert err == "error: implied constant overflows a float at n=64\n"

    def test_range_alpha_past_every_float(self, capsys):
        # no float x clears x > n*log(n)^1000: a dihedral sample fails the
        # range and every cyclotomic one is waived, as at --range-alpha 50
        rc, out, err = run(capsys, "falsify", "--family", "dihedral",
                           "--r-min", "4", "--r-max", "8",
                           "--range-alpha", "1000")
        assert (rc, out) == (EXIT_USAGE, "")
        assert err == "error: sample n=16, x=256.0 fails x > n*log(n)^1000.0\n"
        rc, out, _ = run(capsys, "falsify", "--family", "cyclotomic",
                         "--r-min", "8", "--r-max", "12",
                         "--range-alpha", "1000")
        assert rc == EXIT_OK
        assert parse_csv(out)[2]["range_waived_r"] == "8;9;10;11;12"


class TestResourceGuard:
    # The dihedral commands sieve nothing.  They stop where their values
    # pass the bound of the exact primality test: the least split prime
    # of 2^39 is sought below 2^80, and pi_D at x = n^2 = 2^80 for r = 40.
    def test_dihedral_guard(self, capsys):
        # r = 1100 also checks that the bound is met before float(n) overflows
        for argv in (("dihedral", "--r-max", "39"),
                     ("serre", "--r-min", "2", "--r-max", "39"),
                     ("dihedral", "--r-min", "1100", "--r-max", "1100")):
            rc, out, err = run(capsys, *argv)
            assert rc == EXIT_RESOURCE, argv
            assert out == ""
            assert str(dihedral.MILLER_RABIN_BOUND) in err

    def test_refused_before_any_split_prime(self, capsys, monkeypatch):
        # the least split prime is sought below 4n^2 = 2^(2r + 2), so
        # r = 39 is refused before r = 2..38 are computed
        calls = []
        monkeypatch.setattr(dihedral, "min_split_prime", calls.append)
        for argv in (("serre", "--r-min", "2", "--r-max", "39"),
                     ("dihedral", "--r-max", "39")):
            rc, out, err = run(capsys, *argv)
            assert rc == EXIT_RESOURCE, argv
            assert out == ""
            assert "2^80" in err
        assert calls == []

    def test_exhausted_search_exits_1(self, capsys, monkeypatch):
        # a least-split-prime search that finds no prime below its top
        def exhausted(n):
            raise dihedral.SearchLimitExceeded(f"no split prime for n={n}")

        monkeypatch.setattr(dihedral, "min_split_prime", exhausted)
        for argv in (("serre", "--r-min", "2", "--r-max", "4"),
                     ("dihedral", "--r-max", "4")):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (EXIT_FAILURE, ""), argv
            assert err == "error: no split prime for n=4\n", argv

    def test_falsify_guard(self, capsys):
        rc, out, err = run(capsys, "falsify", "--family", "dihedral",
                           "--r-min", "4", "--r-max", "40")
        assert rc == EXIT_RESOURCE
        assert out == ""
        assert str(dihedral.MILLER_RABIN_BOUND) in err

    def test_cyclotomic_guard(self, capsys):
        for argv in (("cyclotomic", "--r-max", "30"),
                     ("falsify", "--family", "cyclotomic",
                      "--r-min", "8", "--r-max", "30"),
                     ("cyclotomic", "--r-min", "1100", "--r-max", "1100")):
            rc, out, err = run(capsys, *argv)
            assert rc == EXIT_RESOURCE, argv
            assert out == ""
            assert f"2^31 = {MEMORY_BUDGET} bytes" in err

    # an int in argv is an offset from r
    @pytest.mark.parametrize("r", [15000, 10 ** 8])
    @pytest.mark.parametrize("argv", [
        ("cyclotomic", "--r-min", 0, "--r-max", 0),
        ("falsify", "--family", "cyclotomic", "--r-min", "8", "--r-max", 0),
        ("dihedral", "--r-min", 0, "--r-max", 0),
        ("serre", "--r-min", 0, "--r-max", 1),
        ("falsify", "--family", "dihedral", "--r-min", 0, "--r-max", 2),
    ], ids=["cyclotomic", "falsify-cyclotomic", "dihedral", "serre",
            "falsify-dihedral"])
    def test_wide_r_is_refused_from_r(self, argv, r, capsys):
        # no 2^r is built: at r = 10^8 it alone would take 12.5 MB
        argv = [a if isinstance(a, str) else str(r + a) for a in argv]
        tracemalloc.start()
        try:
            rc = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert rc == EXIT_RESOURCE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert peak < 1 << 20

    def test_cyclotomic_budget_admits_r_29(self):
        assert cyclotomic.peak_bytes(1 << 29, 0.5) <= MEMORY_BUDGET
        assert cyclotomic.peak_bytes(1 << 30, 0.5) > MEMORY_BUDGET

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 0.99])
    def test_peak_bytes_equals_the_rational_formula(self, alpha):
        # the charge as it was written with fractions.Fraction
        from fractions import Fraction

        step = sieve.SEGMENT_WIDTH
        for r in range(2, 41):
            n = 1 << r
            segments = math.ceil(n * Fraction(math.log(n) ** alpha) / step)
            want = (n + n // 4 + 4 * (segments * step // 16)
                    + 3 * sieve.SEGMENT_ODDS)
            assert cyclotomic.peak_bytes(n, alpha) == want, r

    @pytest.mark.parametrize("alpha", [0.5, 0.99])
    @pytest.mark.parametrize("r", [16, 20, 22])
    def test_peak_bytes_bound_traced_peak(self, r, alpha):
        tracemalloc.start()
        try:
            cyclotomic_sample(r, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cyclotomic.peak_bytes(1 << r, alpha)

    @pytest.mark.parametrize("argv", [
        ("cyclotomic", "--r-min", "2", "--r-max", "22"),
        ("falsify", "--family", "cyclotomic", "--range-alpha", "0.5",
         "--r-min", "8", "--r-max", "22"),
    ], ids=["cyclotomic", "falsify"])
    def test_each_segment_sieved_once(self, argv, capsys, monkeypatch):
        calls = []
        sieve_range = sieve.sieve_range

        def counted(lo, hi, *args, **kwargs):
            calls.append((lo, hi))
            return sieve_range(lo, hi, *args, **kwargs)

        monkeypatch.setattr(sieve, "sieve_range", counted)
        rc, _, _ = run(capsys, *argv)
        assert rc == EXIT_OK
        step = sieve.SEGMENT_WIDTH
        T = (1 << 22) * math.log(1 << 22) ** 0.5
        assert calls == [(lo, lo + step)
                         for lo in range(0, math.ceil(T), step)]

    def test_sieve_check_guard(self, capsys):
        rc, _, _ = run(capsys, "sieve-check", "--limit", str((1 << 40) + 1))
        assert rc == EXIT_RESOURCE

    @pytest.mark.parametrize("argv", [
        ("--q", str(1 << 39), "--limit", str((1 << 39) + 1)),
        ("--q", str(1 << 41), "--limit", "10"),
        ("--q", str((1 << 40) - (1 << 21) + 1), "--limit", "10"),
    ], ids=["q-plus-limit", "q", "whole-segments"])
    def test_sieve_check_guard_charges_the_work(self, argv, capsys,
                                                monkeypatch):
        # 2^39 + 2^39 + 2^21 and 2^41 both pass 2^40, though each value
        # but 2^41 is admitted alone.  So does 2^40 - 2^21 + 1 with
        # --limit 10: the walk sieves a whole segment of 2^21 integers,
        # however small the limit.  The stub records a run the guard let
        # through instead of sieving.
        ran = []
        monkeypatch.setattr(cli, "cmd_sieve_check",
                            lambda args: ran.append(args) or EXIT_OK)
        rc, out, err = run(capsys, "sieve-check", *argv)
        assert rc == EXIT_RESOURCE
        assert ran == [] and out == ""
        assert "q + limit" in err

    def test_sieve_check_admits_a_large_q(self, capsys):
        # q is factored by trial division up to sqrt(q), not scanned
        rc, out, _ = run(capsys, "sieve-check", "--q", str(1 << 36),
                         "--limit", "10")
        assert rc == EXIT_OK
        assert out == (
            "check,status,detail\n"
            "segment-independence,PASS,limit=10 "
            "segmentations=2097152;4096;8191\n"
            "trial-division-equivalence,PASS,x=10 sieve=4 trial=4\n"
            "ap-partition,PASS,x=10 q=68719476736 coprime=3 divisors=1 "
            "total=4\n"
            "monotonicity,PASS,counts=0;2;4;25;168\n")

    def test_dihedral_commands_reach_the_exact_bound(self, capsys):
        rc, out, _ = run(capsys, "serre", "--r-min", "2", "--r-max", "38")
        assert rc == EXIT_OK
        _, rows, summary = parse_csv(out)
        assert len(rows) == 37
        assert abs(float(summary["exponent_e"]) - 2) < 0.01
        rc, out, _ = run(capsys, "falsify", "--family", "dihedral",
                         "--r-min", "4", "--r-max", "39")
        assert rc == EXIT_OK
        assert len(parse_csv(out)[1]) == 36


class TestIOError:
    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        rc, _, err = run(capsys, "dihedral", "--r-max", "3",
                         "--output", str(target))
        assert rc == EXIT_IO
        assert "cannot write" in err


class TestDihedralCommand:
    def test_smallest_member(self, capsys):
        rc, out, _ = run(capsys, "dihedral", "--r-min", "2", "--r-max", "2")
        assert rc == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert header == ["r", "n", "x", "pi_D", "li_x", "alpha_G", "p_min"]
        assert len(rows) == 1
        assert rows[0]["p_min"] == "17"
        assert rows[0]["pi_D"] == "0"

    def test_three_rows_all_zero(self, capsys):
        rc, out, _ = run(capsys, "dihedral", "--r-min", "2", "--r-max", "4")
        _, rows, _ = parse_csv(out)
        assert [r["pi_D"] for r in rows] == ["0", "0", "0"]
        assert [r["n"] for r in rows] == ["4", "8", "16"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        rc, out, _ = run(capsys, "dihedral", "--r-max", "3",
                         "--output", str(target))
        assert rc == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("r,n,x,")


class TestCyclotomicCommand:
    def test_smallest_member(self, capsys):
        rc, out, _ = run(capsys, "cyclotomic", "--r-min", "2", "--r-max", "2")
        assert rc == EXIT_OK
        header, rows, _ = parse_csv(out)
        assert header == ["r", "n", "T", "D_size", "density", "pi_D_at_T"]
        assert rows[0]["D_size"] == "3"
        assert rows[0]["density"] == "0.75"

    def test_pi_D_always_zero(self, capsys):
        rc, out, _ = run(capsys, "cyclotomic", "--r-min", "2", "--r-max", "10")
        _, rows, _ = parse_csv(out)
        assert all(r["pi_D_at_T"] == "0" for r in rows)


class TestFalsifyCommand:
    def test_dihedral_default_template_diverges(self, capsys):
        rc, out, _ = run(capsys, "falsify", "--family", "dihedral",
                         "--r-min", "4", "--r-max", "12")
        assert rc == EXIT_OK
        header, rows, summary = parse_csv(out)
        assert header == ["r", "n", "x", "error", "denominator",
                          "implied_constant"]
        assert len(rows) == 9
        assert summary["verdict"] == "DIVERGES"
        assert summary["range_waived_r"] == ""

    def test_cyclotomic_quarter_diverges(self, capsys):
        rc, out, _ = run(capsys, "falsify", "--family", "cyclotomic",
                         "--variant", "C", "--a", "0.25", "--b", "0",
                         "--r-min", "8", "--r-max", "20")
        assert rc == EXIT_OK
        _, rows, summary = parse_csv(out)
        assert summary["verdict"] == "DIVERGES"
        assert summary["range_waived_r"] == ";".join(map(str, range(8, 21)))

    def test_dihedral_c_half_zero_bounded(self, capsys):
        rc, out, _ = run(capsys, "falsify", "--family", "dihedral",
                         "--variant", "C", "--a", "0.5", "--b", "0",
                         "--r-min", "4", "--r-max", "12")
        assert rc == EXIT_OK  # completion, not the verdict, drives the code
        _, _, summary = parse_csv(out)
        assert summary["verdict"] == "BOUNDED"

    @pytest.mark.parametrize("family, verdict", [
        ("dihedral", "BOUNDED"),
        ("cyclotomic", "DIVERGES"),
    ])
    def test_range_alpha_zero_gives_a_report(self, family, verdict, capsys):
        # the range x > n starts below every sample, so none is waived;
        # at the default --range-alpha 1 each cyclotomic row is
        rc, out, err = run(capsys, "falsify", "--family", family,
                           "--r-min", "4", "--r-max", "8",
                           "--range-alpha", "0")
        assert rc == EXIT_OK and err == ""
        _, rows, summary = parse_csv(out)
        assert [row["r"] for row in rows] == ["4", "5", "6", "7", "8"]
        assert summary["range_alpha"] == "0"
        assert summary["verdict"] == verdict
        assert summary["range_waived_r"] == ""

    @staticmethod
    def refuse_fg(capsys, *args):
        # argparse refuses --variant FG before any sample is built
        with pytest.raises(SystemExit) as info:
            main(["falsify", "--variant", "FG", *args])
        out, err = capsys.readouterr()
        assert info.value.code == EXIT_USAGE and out == ""
        assert "invalid choice: 'FG'" in err

    def test_fg_on_built_family_is_usage_error(self, capsys):
        self.refuse_fg(capsys, "--family", "cyclotomic",
                       "--r-min", "8", "--r-max", "10")

    def test_fg_stops_the_walk_at_the_first_member(self, capsys,
                                                   monkeypatch):
        # the walk now stops before its first member: no segment is sieved
        calls = []
        monkeypatch.setattr(sieve, "sieve_range",
                            lambda *args: calls.append(args))
        self.refuse_fg(capsys, "--family", "cyclotomic",
                       "--r-min", "8", "--r-max", "24")
        assert calls == []

    def test_fg_on_dihedral_builds_no_sample(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(dihedral, "pi_D_dihedral",
                            lambda *args: calls.append(args))
        self.refuse_fg(capsys, "--family", "dihedral",
                       "--r-min", "4", "--r-max", "12")
        assert calls == []


class TestSerreCommand:
    def test_full_fit(self, capsys):
        rc, out, _ = run(capsys, "serre", "--r-min", "2", "--r-max", "5")
        assert rc == EXIT_OK
        header, rows, summary = parse_csv(out)
        assert header == ["r", "n", "p_min", "log_dK_lo", "log_dK_hi"]
        assert [r["p_min"] for r in rows] == ["17", "73", "257", "1033"]
        assert summary["low_confidence"] == "False"
        for r in rows:
            assert int(r["p_min"]) > int(r["n"]) ** 2

    def test_two_points_low_confidence(self, capsys):
        rc, out, _ = run(capsys, "serre", "--r-min", "2", "--r-max", "3")
        assert rc == EXIT_OK
        _, rows, summary = parse_csv(out)
        assert len(rows) == 2
        assert summary["low_confidence"] == "True"


# sieve-check stdout frozen from cheblab 0.8.0, which sieved once per
# count; the points 100 and 1000 may lie past --limit.  The last three,
# with a prime factor of q beyond a row of 2^20 odd integers, are frozen
# from 0.13.0, which counted the coprime primes with numpy's gcd.
SIEVE_CHECK_STDOUT = {
    (): """\
check,status,detail
segment-independence,PASS,limit=1000000 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=1000000 sieve=78498 trial=78498
ap-partition,PASS,x=1000000 q=12 coprime=78496 divisors=2 total=78498
monotonicity,PASS,counts=0;4;25;168;41538;78498
""",
    ("--limit", "5000000", "--q", "30"): """\
check,status,detail
segment-independence,PASS,limit=4194304 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=1000000 sieve=78498 trial=78498
ap-partition,PASS,x=5000000 q=30 coprime=348510 divisors=3 total=348513
monotonicity,PASS,counts=0;4;25;168;183072;348513
""",
    ("--limit", "10", "--q", "2310"): """\
check,status,detail
segment-independence,PASS,limit=10 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=10 sieve=4 trial=4
ap-partition,PASS,x=10 q=2310 coprime=0 divisors=4 total=4
monotonicity,PASS,counts=0;2;4;25;168
""",
    ("--limit", "2097153", "--q", "4"): """\
check,status,detail
segment-independence,PASS,limit=2097153 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=1000000 sieve=78498 trial=78498
ap-partition,PASS,x=2097153 q=4 coprime=155610 divisors=1 total=155611
monotonicity,PASS,counts=0;4;25;168;82025;155611
""",
    ("--format", "json", "--limit", "100000", "--q", "7"): """\
{
  "command": "sieve-check",
  "rows": [
    {
      "check": "segment-independence",
      "status": "PASS",
      "detail": "limit=100000 segmentations=2097152;4096;8191"
    },
    {
      "check": "trial-division-equivalence",
      "status": "PASS",
      "detail": "x=100000 sieve=9592 trial=9592"
    },
    {
      "check": "ap-partition",
      "status": "PASS",
      "detail": "x=100000 q=7 coprime=9591 divisors=1 total=9592"
    },
    {
      "check": "monotonicity",
      "status": "PASS",
      "detail": "counts=0;4;25;168;5133;9592"
    }
  ]
}
""",
    ("--limit", "10", "--q", "30030"): """\
check,status,detail
segment-independence,PASS,limit=10 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=10 sieve=4 trial=4
ap-partition,PASS,x=10 q=30030 coprime=0 divisors=4 total=4
monotonicity,PASS,counts=0;2;4;25;168
""",
    ("--limit", "5000000", "--q", "15728745"): """\
check,status,detail
segment-independence,PASS,limit=4194304 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=1000000 sieve=78498 trial=78498
ap-partition,PASS,x=5000000 q=15728745 coprime=348510 divisors=3 total=348513
monotonicity,PASS,counts=0;4;25;168;183072;348513
""",
    ("--limit", "5000000", "--q", "14680183"): """\
check,status,detail
segment-independence,PASS,limit=4194304 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=1000000 sieve=78498 trial=78498
ap-partition,PASS,x=5000000 q=14680183 coprime=348511 divisors=2 total=348513
monotonicity,PASS,counts=0;4;25;168;183072;348513
""",
    ("--limit", "10", "--q", "1099509530599"): """\
check,status,detail
segment-independence,PASS,limit=10 segmentations=2097152;4096;8191
trial-division-equivalence,PASS,x=10 sieve=4 trial=4
ap-partition,PASS,x=10 q=1099509530599 coprime=4 divisors=0 total=4
monotonicity,PASS,counts=0;2;4;25;168
""",
}


class TestSieveCheckCommand:
    def test_all_checks_pass(self, capsys):
        rc, out, _ = run(capsys, "sieve-check", "--limit", "20000")
        assert rc == EXIT_OK
        _, rows, _ = parse_csv(out)
        assert len(rows) == 4
        assert all(r["status"] == "PASS" for r in rows)
        names = {r["check"] for r in rows}
        assert names == {"segment-independence", "trial-division-equivalence",
                         "ap-partition", "monotonicity"}

    @pytest.mark.parametrize("argv", list(SIEVE_CHECK_STDOUT),
                             ids=lambda argv: " ".join(argv) or "defaults")
    def test_frozen_stdout(self, argv, capsys):
        rc, out, _ = run(capsys, "sieve-check", *argv)
        assert rc == EXIT_OK
        assert out == SIEVE_CHECK_STDOUT[argv]

    def test_each_segment_sieved_once(self, capsys, monkeypatch):
        # the pieces of the segment-independence check are not aligned
        # segments and are left out
        calls = []
        sieve_range = sieve.sieve_range

        def counted(lo, hi):
            calls.append((lo, hi))
            return sieve_range(lo, hi)

        monkeypatch.setattr(sieve, "sieve_range", counted)
        rc, _, _ = run(capsys, "sieve-check", "--limit", "5000000",
                       "--q", "30")
        assert rc == EXIT_OK
        step = sieve.SEGMENT_WIDTH
        aligned = [(lo, hi) for lo, hi in calls
                   if lo % step == 0 and hi - lo == step]
        assert aligned == [(0, step), (step, 2 * step), (2 * step, 3 * step)]

    def test_late_cut_in_odd_rows_shows(self, capsys, monkeypatch):
        # odd_rows cutting one bit late reads 100003, a prime, below
        # 100002: the count at the walk's end is odd_rows' own popcount.
        # Only odd_rows' cut is late: cli still sees the true sieve.cut.
        cut = sieve.cut
        monkeypatch.setattr(cli, "sieve", types.SimpleNamespace(**vars(sieve)))
        monkeypatch.setattr(sieve, "cut", lambda row, k, x: cut(row, k, x + 2))
        rc, out, _ = run(capsys, "sieve-check", "--limit", "100002",
                         "--q", "7")
        assert rc == EXIT_FAILURE
        assert ("trial-division-equivalence,FAIL,x=100002 sieve=9593 "
                "trial=9592") in out.splitlines()

    @pytest.mark.parametrize("composite, q, limit", [
        (9, 3, 20000), (3 * 1048583, 1048583, 5000000)],
        ids=["small-factor", "factor-beyond-a-row"])
    def test_composite_multiple_fails_ap_partition(self, capsys, monkeypatch,
                                                   composite, q, limit):
        # a sieve that marks one odd multiple of q's factor prime: the
        # popcount over the factor's multiples must count it
        strike = sieve._odd_bytes

        def faulty(lo, hi):
            row = strike(lo, hi)
            if lo <= composite < hi:
                i = (composite - (lo | 1)) // 2
                row[i] = 1 << i % 8
            return row

        monkeypatch.setattr(sieve, "_odd_bytes", faulty)
        rc, out, _ = run(capsys, "sieve-check", "--limit", str(limit),
                         "--q", str(q))
        assert rc == EXIT_FAILURE
        _, rows, _ = parse_csv(out)
        status = {r["check"]: r["status"] for r in rows}
        assert status["ap-partition"] == "FAIL"

    def test_pieces_are_sieved_under_a_cache(self, capsys, monkeypatch,
                                             tmp_path):
        # a sieve that leaves the first odd multiple of 3 marked prime in
        # every piece shorter than a segment and not starting at 0: the
        # check must see it, cache or not
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        strike = sieve._odd_bytes

        def faulty(lo, hi):
            row = strike(lo, hi)
            if lo != 0 and hi - lo < sieve.SEGMENT_WIDTH:
                i = next(i for i in range(3) if ((lo | 1) + 2 * i) % 3 == 0)
                row[i] = 1 << i % 8
            return row

        monkeypatch.setattr(sieve, "_odd_bytes", faulty)
        rc, out, _ = run(capsys, "sieve-check")
        assert rc == EXIT_FAILURE
        _, rows, _ = parse_csv(out)
        status = {r["check"]: r["status"] for r in rows}
        assert status["segment-independence"] == "FAIL"

    def test_caches_only_aligned_segments(self, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        rc, _, _ = run(capsys, "sieve-check", "--limit", "20000")
        assert rc == EXIT_OK
        step = sieve.SEGMENT_WIDTH
        assert [p.name for p in tmp_path.iterdir()] == [
            f"sieve-0-{step}.cheb2"]


class TestFormats:
    @pytest.mark.parametrize("command,args", [
        ("dihedral", ("--r-min", "2", "--r-max", "4")),
        ("cyclotomic", ("--r-min", "2", "--r-max", "6")),
        ("falsify", ("--family", "dihedral", "--r-min", "4", "--r-max", "7")),
        ("serre", ("--r-min", "2", "--r-max", "5")),
    ])
    def test_csv_json_round_trip(self, capsys, command, args):
        _, csv_text, _ = run(capsys, command, *args)
        _, json_text, _ = run(capsys, command, *args, "--format", "json")
        header, csv_rows, _ = parse_csv(csv_text)
        doc = json.loads(json_text)
        assert doc["command"] == command
        assert len(doc["rows"]) == len(csv_rows)
        for csv_row, json_row in zip(csv_rows, doc["rows"]):
            assert list(json_row) == header
            for key, jv in json_row.items():
                if isinstance(jv, int):
                    assert int(csv_row[key]) == jv
                else:
                    assert float(csv_row[key]) == jv  # 17 digits: lossless

    def test_csv_floats_use_17_significant_digits(self, capsys):
        _, out, _ = run(capsys, "dihedral", "--r-min", "4", "--r-max", "4")
        _, rows, _ = parse_csv(out)
        cell = rows[0]["li_x"]
        assert format(float(cell), ".17g") == cell

    def test_json_summary_present(self, capsys):
        _, out, _ = run(capsys, "falsify", "--family", "dihedral",
                        "--r-min", "4", "--r-max", "7", "--format", "json")
        doc = json.loads(out)
        assert doc["summary"]["verdict"] in ("DIVERGES", "BOUNDED")
        assert doc["summary"]["slope_threshold"] == 0.05


# The traffic of the benchmark (bench/run.py, seeds 0 and 1, both
# workloads, without --workers) and the cyclotomic scan at alpha 0.1 and
# 0.99, with the sha256 of each stdout as cheblab 0.17.0 printed it.
CYCLOTOMIC_FALSIFY = ("falsify", "--family", "cyclotomic", "--range-alpha",
                      "0.5", "--r-min", "8", "--r-max", "24")
DIHEDRAL_FALSIFY = ("falsify", "--family", "dihedral", "--r-min", "4",
                    "--r-max", "12")
BENCH_STDOUT_SHA256 = [
    (DIHEDRAL_FALSIFY + ("--variant=Cprime", "--a=0.25", "--b=-0.5",
                         "--epsilon=0.02"),
     "d7964028e05c62f7906562833a2766a602fb74de77a8c6e31252e5f26809afda"),
    (("serre", "--r-min", "2", "--r-max", "12"),
     "a93f14ab5cc132a00f47f2db28d1aad24e778582c8c1e5652a67c3be7969daa5"),
    (("cyclotomic", "--r-min", "2", "--r-max", "24"),
     "1a7d9e10ae3091ffad42f050dd827d3a922e9b4b93bd874983f1a0527581ac87"),
    (CYCLOTOMIC_FALSIFY + ("--variant=Cprime", "--a=0.25", "--b=-0.25",
                           "--epsilon=0.02"),
     "6b826e58d07b4371df3f3bdb17763060bf3b7044b6082918e725ffba87dc291f"),
    (CYCLOTOMIC_FALSIFY + ("--variant=C", "--a=0.25", "--b=-0.5",
                           "--epsilon=0.01"),
     "afa3d04144eef540ed15b9b8408eef1ccfd3a49beb00c63e0e248e51c8c04ad7"),
    (CYCLOTOMIC_FALSIFY + ("--variant=Cprime", "--a=0.25", "--b=-0.5",
                           "--epsilon=0.02"),
     "fef84d6daac15da752a4a7f1cb3a0be40279b24d823be04565e71baea8738494"),
    (CYCLOTOMIC_FALSIFY + ("--variant=Cprime", "--a=0.5", "--b=-0.5",
                           "--epsilon=0.05"),
     "61a50ac688237b1357dadaf4ad005e8ff1b07e82864b0b0485ad765df237ad99"),
    (DIHEDRAL_FALSIFY + ("--variant=C", "--a=0.5", "--b=-0.5",
                         "--epsilon=0.02"),
     "e3cae2f38a7af4e028db53dc43722d15d64aefcfde950c1b465325c4b23224ed"),
    (CYCLOTOMIC_FALSIFY + ("--variant=C", "--a=0.25", "--b=-0.25",
                           "--epsilon=0.02"),
     "c975843cd8c80b3e04d637931d2bf54189ddf2f956b042117ce472c67af437db"),
    (CYCLOTOMIC_FALSIFY + ("--variant=C", "--a=0.25", "--b=-0.25",
                           "--epsilon=0.05"),
     "de96d8e6aecca7d832e10ff296b498325058d7671dff48f9c7c09c7d616cad63"),
    (CYCLOTOMIC_FALSIFY + ("--variant=C", "--a=0.5", "--b=-0.5",
                           "--epsilon=0.02"),
     "8e9cae734c89cfd817788f86b7ed4b82920d09d9f46ca73c3343cda65dbe315c"),
    (CYCLOTOMIC_FALSIFY + ("--variant=Cprime", "--a=0.0", "--b=-0.5",
                           "--epsilon=0.02"),
     "adcde770bba5633c38a5c0baf6e5161c89e96af064dc071d3b208a2faac1c1ce"),
    (("cyclotomic", "--r-min", "2", "--r-max", "24", "--alpha", "0.1"),
     "b1a795ba461663cabd0adf1d351be607ce8682cb40c2a701275b93aa9c7515f0"),
    (("cyclotomic", "--r-min", "2", "--r-max", "24", "--alpha", "0.99"),
     "d8fcce4ee25d893b78bdc5282a8fdf225c7448d21b3e138d5cb66e3991fbac4e"),
]


def counting_sieve_range(monkeypatch) -> list:
    """The ranges sieve.sieve_range is asked for from here on."""
    calls, sieve_range = [], sieve.sieve_range

    def counted(lo, hi):
        calls.append((lo, hi))
        return sieve_range(lo, hi)

    monkeypatch.setattr(sieve, "sieve_range", counted)
    return calls


class TestFrozenBenchStdout:
    def test_stdout_digests(self, capsys, monkeypatch, tmp_path):
        # in order under one cache: the first cyclotomic command writes the
        # segments below T(2^24) and the counts of r 2..24 at alpha 0.5, and
        # each cyclotomic falsify after it replays the counts, sieving nothing
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        calls = counting_sieve_range(monkeypatch)
        replays, cyclotomic_run = [], False
        for argv, digest in BENCH_STDOUT_SHA256:
            calls.clear()
            rc, out, _ = run(capsys, *argv)
            assert rc == EXIT_OK, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
            replay = argv[:len(CYCLOTOMIC_FALSIFY)] == CYCLOTOMIC_FALSIFY
            if replay and cyclotomic_run:
                replays.append(calls[:])
            cyclotomic_run = cyclotomic_run or argv[0] == "cyclotomic"
        assert replays == [[]] * 8     # every cyclotomic falsify of the list
        assert any(tmp_path.iterdir())


# One run of each command in JSON, with the sha256 of each stdout as
# cheblab 0.23.0 printed it: the JSON renderer takes its keys from the rows.
JSON_STDOUT_SHA256 = [
    (("dihedral", "--r-min", "2", "--r-max", "12"),
     "06d6c2734ef54d4e2633f69468355deba2684ad8b71e24fc504e73a6ce311acf"),
    (("cyclotomic", "--r-min", "2", "--r-max", "20"),
     "441bb2cc6f40bd37d9260991f22ffe0e087147bd7d76786fb68af116fb5e10ee"),
    (("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "12"),
     "9b786fa6513f03c529eaa8c3e7169ab048cf640bf6fc493b1438a23176a807a8"),
    (("falsify", "--family", "cyclotomic", "--r-min", "8", "--r-max", "20"),
     "7de23367c00aed6b13977a91e3f87caa8519f72eb721b36fbb770ae34b849333"),
    (("serre", "--r-min", "2", "--r-max", "12"),
     "37135a90d373e0f57e06dc313732547b1bd85a651353212769911126ec53e9bf"),
    (("sieve-check", "--limit", "100000"),
     "90cbd257ac7dac20bf455d3f4830d3acdb236e936d10663a62694e0667bc74f8"),
]


class TestFrozenJsonStdout:
    @pytest.mark.parametrize("argv, digest", JSON_STDOUT_SHA256,
                             ids=["dihedral", "cyclotomic", "falsify-dihedral",
                                  "falsify-cyclotomic", "serre", "sieve-check"])
    def test_stdout_digest(self, argv, digest, capsys):
        rc, out, _ = run(capsys, *argv, "--format", "json")
        assert rc == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCountsReplay:
    """The cyclotomic commands read each member's |D| and pi_D(T) from its
    counts record under CHEB_CACHE_DIR, and walk only the members without
    one."""

    @pytest.mark.parametrize("argv", [
        ("cyclotomic", "--r-min", "8", "--r-max", "16"),
        ("falsify", "--family", "cyclotomic", "--r-min", "8", "--r-max", "16",
         "--format", "json"),
    ], ids=["cyclotomic", "falsify"])
    def test_warm_replay_sieves_nothing(self, argv, capsys, monkeypatch,
                                        tmp_path):
        _, plain, _ = run(capsys, *argv)
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        _, cold, _ = run(capsys, *argv)
        calls = counting_sieve_range(monkeypatch)
        rc, warm, _ = run(capsys, *argv)
        assert (rc, calls) == (EXIT_OK, [])
        assert warm == cold == plain

    def test_records_of_later_members_leave_segment_0(self, capsys,
                                                      monkeypatch, tmp_path):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        run(capsys, "cyclotomic", "--r-min", "8", "--r-max", "24")
        calls = counting_sieve_range(monkeypatch)
        argv, digest = BENCH_STDOUT_SHA256[2]
        assert argv == ("cyclotomic", "--r-min", "2", "--r-max", "24")
        rc, out, _ = run(capsys, *argv)
        assert (rc, calls) == (EXIT_OK, [(0, sieve.SEGMENT_WIDTH)])
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# The files a cold `falsify --family cyclotomic --r-min 8 --r-max 20` writes
# into an empty CHEB_CACHE_DIR, with the sha256 of each, as cheblab 0.26.0
# wrote them: the two segments below T(2^20) and one counts record per member.
COLD_FALSIFY_CACHE_SHA256 = {
    "counts-256-0x1.2d6abe44afc43p+9.chebc":
        "6a1ad5018a8842b40321fa0420461cf42cc5cc55fd5a7d80b6ba2f6ca5a6faa3",
    "counts-512-0x1.3fb372d0959f6p+10.chebc":
        "4eabe24d2ce885d13882fbdb53deaa9f189955ab07337a2f747248e1f41e41a3",
    "counts-1024-0x1.50fe91d179109p+11.chebc":
        "5e3042b724cfdf13c35cb5f773e2c895ae8214678b4685e09084abb0dd05913e",
    "counts-2048-0x1.6171563451dcep+12.chebc":
        "60002f547e44c37eea8e18bfaf50754bdb04b31d9ecb2e5504764cee4dae7326",
    "counts-4096-0x1.7128ac8de74b5p+13.chebc":
        "a203669b6b10c1704e28fe5213b756a15c6258066d44ca9884748a023993b026",
    "counts-8192-0x1.803b9557bec5bp+14.chebc":
        "26f4a3d3ab7c657d3f5041f3909bef9759a85194b1f05ce8656a891420786b36",
    "counts-16384-0x1.8ebcb6ec1f23fp+15.chebc":
        "fbf2e845c8bd5279c35317b0f36d573b322d2242a95af1c9a9c6d1f306139512",
    "counts-32768-0x1.9cbb700b52653p+16.chebc":
        "07756aa538e486574c441226bdf127c7e7a348485bcf149eeedfad86d0ab8d45",
    "counts-65536-0x1.aa4499161cd47p+17.chebc":
        "0a8da358b074d322f49653da323c1637f42ce9ab188903325dcc5223ac5f927b",
    "counts-131072-0x1.b7630f9bbec54p+18.chebc":
        "adc25aacfb3acc911a7718022dc2e98ce3bdf062dbcc85b8a410f56b6201bbe3",
    "counts-262144-0x1.c4201d6707a65p+19.chebc":
        "b8906538f40c4e188f5ac28f3cc05d16b489a1f5bc94e942c82ef200051d7aa0",
    "counts-524288-0x1.d083c612fcaa6p+20.chebc":
        "88f3f1f85636999802029d3929b7b4c94c478bd7bfef174e8730fff5fab8a27e",
    "counts-1048576-0x1.dc950272e3d7bp+21.chebc":
        "470ad44c902858ecc211514e9268042c6e5811f37884821fad09ea7518920940",
    "sieve-0-2097152.cheb2":
        "74dd96e5f1b2d640b788f28200bdba2016f4aba7db324d06b89a7a41c4968c1d",
    "sieve-2097152-4194304.cheb2":
        "c2967f861de9ae516054245d7fdee577058889a6ee761504ac98ba368a95a6b1",
}


class TestColdCacheFiles:
    def test_cold_falsify_writes_the_frozen_files(self, capsys, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv(sieve.CACHE_ENV, str(tmp_path))
        rc, _, _ = run(capsys, "falsify", "--family", "cyclotomic",
                       "--r-min", "8", "--r-max", "20")
        assert rc == EXIT_OK
        written = sorted((path.name, hashlib.sha256(path.read_bytes()).hexdigest())
                         for path in tmp_path.iterdir())
        assert written == sorted(COLD_FALSIFY_CACHE_SHA256.items())


class TestDeterminismQuick:
    def test_workers_do_not_change_output(self, capsys):
        runs = []
        for workers in ("1", "4", "4"):
            _, out, _ = run(capsys, "falsify", "--family", "cyclotomic",
                            "--r-min", "8", "--r-max", "12",
                            "--workers", workers)
            runs.append(out)
        assert runs[0] == runs[1] == runs[2]


# Makes numpy unimportable in a subprocess: any numpy import raises.
BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "


# The cold cyclotomic commands of the paper: 33 segments below T(2^24).
COLD_CYCLOTOMIC = {
    "cyclotomic-cold": ("cyclotomic", "--r-min", "2", "--r-max", "24"),
    "falsify-cyclotomic-cold": ("falsify", "--family", "cyclotomic",
                                "--r-min", "8", "--r-max", "24"),
}


class TestWithoutNumpy:
    """No command and no reader of the sieve imports numpy."""

    @staticmethod
    def python(*args, cache_dir=None) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items() if k != sieve.CACHE_ENV}
        env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        if cache_dir is not None:
            env[sieve.CACHE_ENV] = str(cache_dir)
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env)

    def test_import(self):
        proc = self.python("-c", BLOCK_NUMPY + "import cheblab.cli")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [
        ("serre", "--r-min", "2", "--r-max", "12"),
        ("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "12"),
        ("dihedral", "--r-min", "2", "--r-max", "12"),
        ("falsify", "--family", "cyclotomic", "--range-alpha", "0.5",
         "--r-min", "8", "--r-max", "24"),
    ], ids=["serre", "falsify-dihedral", "dihedral", "falsify-cyclotomic"])
    def test_same_stdout_as_with_numpy(self, argv, tmp_path):
        # the normal run warms the cache, so the cyclotomic run sieves nothing
        normal = self.python("-m", "cheblab", *argv, cache_dir=tmp_path)
        assert normal.returncode == 0, normal.stderr
        bare = self.python("-c", BLOCK_NUMPY + "from cheblab.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv,
                           cache_dir=tmp_path)
        assert bare.returncode == 0, bare.stderr
        assert bare.stdout == normal.stdout

    @pytest.mark.parametrize("argv", list(COLD_CYCLOTOMIC.values()),
                             ids=list(COLD_CYCLOTOMIC))
    def test_cold_sieve_same_stdout(self, argv):
        # no cache: the bare run sieves every segment without numpy
        normal = self.python("-m", "cheblab", *argv)
        assert normal.returncode == 0, normal.stderr
        bare = self.python("-c", BLOCK_NUMPY + "from cheblab.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv)
        assert bare.returncode == 0, bare.stderr
        assert bare.stdout == normal.stdout

    @pytest.mark.parametrize("argv", [(), ("--limit", "5000000", "--q", "30")],
                             ids=["defaults", "limit-5000000"])
    def test_sieve_check(self, argv):
        proc = self.python("-c", BLOCK_NUMPY + "from cheblab.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", "sieve-check", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == SIEVE_CHECK_STDOUT[argv]

    def test_prime_chunks(self):
        code = ("from cheblab import sieve; "
                "chunks = list(sieve.prime_chunks(0, 10 ** 6)); "
                "print(sum(map(len, chunks)), chunks[-1][-1])")
        proc = self.python("-c", BLOCK_NUMPY + code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["78498", "999983"]

    def test_counts_over_a_warm_cache(self, tmp_path):
        # odd_rows reads cached flags as ints: neither count needs numpy
        code = ("from cheblab import cyclotomic, sieve; "
                "inst = cyclotomic.build_D(1 << 16, 0.5); "
                "print(sieve.prime_count(5 * 10 ** 6), "
                "cyclotomic.pi_D_cyclotomic(inst, 2 * inst.T))")
        normal = self.python("-c", code, cache_dir=tmp_path)
        assert normal.returncode == 0, normal.stderr
        assert normal.stdout.split()[0] == "348513"
        bare = self.python("-c", BLOCK_NUMPY + code, cache_dir=tmp_path)
        assert bare.returncode == 0, bare.stderr
        assert bare.stdout == normal.stdout


class TestStartUpModules:
    """Start-up, the commands that sieve nothing, the cold cyclotomic
    commands of the paper and sieve-check load no module that only some
    runs need: records are NamedTuples, so no dataclasses (and its
    inspect), peak_bytes is one exact float expression, so no fractions
    (and its decimal), json is imported under --format json alone, and the
    sieve strikes, packs and counts without numpy."""

    HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "json",
             "numpy")
    CODE = ("import sys; import cheblab.cli; "
            "rc = cheblab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            f"print('loaded=' + ' '.join(m for m in {HEAVY!r} "
            "if m in sys.modules)); sys.exit(rc)")

    @pytest.mark.parametrize("argv, allowed", [
        ((), ""),
        (("serre", "--r-min", "2", "--r-max", "12"), ""),
        (("falsify", "--family", "dihedral", "--r-min", "4", "--r-max",
          "12"), ""),
        (("serre", "--r-min", "2", "--r-max", "12", "--format", "json"),
         "json"),
        (("falsify", "--family", "dihedral", "--r-min", "4", "--r-max",
          "12", "--format", "json"), "json"),
        *((argv, "") for argv in COLD_CYCLOTOMIC.values()),
        (("sieve-check",), ""),
    ], ids=["import", "serre", "falsify-dihedral", "serre-json",
            "falsify-dihedral-json", *COLD_CYCLOTOMIC, "sieve-check"])
    def test_loaded_modules(self, argv, allowed):
        proc = TestWithoutNumpy.python("-c", self.CODE, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "loaded=" + allowed


class TestPackageModules:
    """The package namespace re-exports nothing: `import cheblab` loads no
    other package module, and the CLI loads exactly the modules it uses."""

    CODE = ("import sys; import {}; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'cheblab')))")

    @pytest.mark.parametrize("module, loaded", [
        ("cheblab", ["cheblab"]),
        ("cheblab.cli", ["cheblab", "cheblab.analytic", "cheblab.bounds",
                         "cheblab.cli", "cheblab.cyclotomic",
                         "cheblab.dihedral", "cheblab.sieve"]),
    ], ids=["cheblab", "cheblab.cli"])
    def test_loaded_package_modules(self, module, loaded):
        proc = TestWithoutNumpy.python("-c", self.CODE.format(module))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == loaded


class TestPublicNames:
    """The public names each module defines at its top level, and the
    private names bench/traced.py wraps by name: removing one, or adding
    a name or a module, is a deliberate edit of this table."""

    PUBLIC = {
        "__init__": [],
        "__main__": [],
        "analytic": ["li"],
        "bounds": [
            "BOUNDED", "BoundFamily", "ChebotarevSample", "DIVERGES",
            "FAMILIES", "M", "RATIO_THRESHOLD", "SLOPE_THRESHOLD",
            "ScanReport", "ScanRow", "SerreFit", "VARIANTS", "abs_error",
            "bound_denominator", "discriminant_bracket",
            "falsification_scan", "implied_constant", "main_term",
            "range_check", "range_start", "serre_fit",
        ],
        "cli": [
            "EXIT_FAILURE", "EXIT_IO", "EXIT_OK", "EXIT_RESOURCE",
            "EXIT_USAGE", "MEMORY_BUDGET", "SIEVE_GUARD", "build_parser",
            "cmd_cyclotomic", "cmd_dihedral", "cmd_falsify", "cmd_serre",
            "cmd_sieve_check", "cyclotomic_sample", "dihedral_sample",
            "entrypoint", "main", "render_csv", "render_json",
        ],
        "cyclotomic": [
            "CyclotomicInstance", "build_D", "measure_counts",
            "measure_family", "peak_bytes", "pi_D_cyclotomic",
        ],
        "dihedral": [
            "ExactBoundExceeded", "MILLER_RABIN_BASES", "MILLER_RABIN_BOUND",
            "SearchLimitExceeded", "alpha_dihedral", "min_split_prime",
            "pi_D_dihedral",
        ],
        "sieve": [
            "CACHE_ENV", "MAX_LIMIT", "MAX_SEGMENTS_PER_RANGE",
            "SEGMENT_ODDS", "SEGMENT_WIDTH", "cut", "odd_rows",
            "prime_chunks", "prime_count", "sieve_range", "tile",
        ],
    }
    PACKAGE = Path(cli.__file__).parent

    @staticmethod
    def top_level_names(path: Path) -> set:
        """The names a module's own top-level statements bind, imports
        aside."""
        names = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
        return names

    def test_the_modules(self):
        assert sorted(p.stem for p in self.PACKAGE.glob("*.py")) == sorted(
            self.PUBLIC)

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_public_names(self, module):
        names = self.top_level_names(self.PACKAGE / f"{module}.py")
        assert sorted(n for n in names if not n.startswith("_")) == (
            self.PUBLIC[module])

    @pytest.mark.parametrize("module, name", [("cli", "_map_ordered")])
    def test_traced_private_names(self, module, name):
        assert callable(getattr(importlib.import_module(f"cheblab.{module}"),
                                name))


class TestRecordsStayOutOfReports:
    """The records are tuples, and _fmt joins a tuple with ';' where
    json.dumps writes a list: every report value must be a scalar or a
    list, never a record."""

    @pytest.mark.parametrize("argv", [
        ("dihedral", "--r-min", "2", "--r-max", "4"),
        ("cyclotomic", "--r-min", "2", "--r-max", "8"),
        ("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "6"),
        ("falsify", "--family", "cyclotomic", "--r-min", "8", "--r-max",
         "10"),
        ("serre", "--r-min", "2", "--r-max", "5"),
        ("sieve-check", "--limit", "1000"),
    ], ids=lambda argv: "-".join(argv[:3:2]))
    def test_no_tuple_reaches_the_renderer(self, argv, capsys, monkeypatch):
        emitted = []
        emit = cli._emit

        def recorded(args, rows, summary=None):
            emitted.append((rows, summary))
            return emit(args, rows, summary)

        monkeypatch.setattr(cli, "_emit", recorded)
        rc, _, _ = run(capsys, *argv)
        assert rc == EXIT_OK
        (rows, summary), = emitted
        values = [v for row in rows for v in row.values()]
        values += list((summary or {}).values())
        assert rows and not any(isinstance(v, tuple) for v in values)


class TestTraceHarness:
    """bench/traced.py wraps package functions by name; it must still run."""

    @pytest.mark.parametrize("argv", [
        ("serre", "--r-min", "2", "--r-max", "4"),
        ("falsify", "--family", "dihedral", "--r-min", "4", "--r-max", "8"),
        ("cyclotomic", "--r-min", "2", "--r-max", "12"),
        ("falsify", "--family", "cyclotomic", "--range-alpha", "0.5",
         "--r-min", "8", "--r-max", "12"),
    ], ids=["serre", "falsify-dihedral", "cyclotomic", "falsify-cyclotomic"])
    def test_traced_run_matches_main(self, argv, capsys, tmp_path):
        root = Path(__file__).parents[1]
        out = tmp_path / "spans.json"
        env = {k: v for k, v in os.environ.items() if k != sieve.CACHE_ENV}
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "traced.py"), str(out), "0",
             "--", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["exit_code"] == EXIT_OK
        assert doc["spans"]
        rc, stdout, _ = run(capsys, *argv)
        assert rc == EXIT_OK
        assert doc["stdout"] == stdout


class TestEntryPoints:
    def test_module_invocation(self):
        env = dict(os.environ)
        src = str(Path(__file__).parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cheblab", "--help"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "falsify" in proc.stdout

    @pytest.mark.skipif(shutil.which("cheblab") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["cheblab", "serre", "--r-min", "2",
                               "--r-max", "3"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("r,n,p_min")

    @pytest.mark.parametrize("r_min, code", [("2", EXIT_OK),
                                             ("1", EXIT_USAGE)],
                             ids=["exit-0", "exit-2"])
    def test_console_script_target(self, r_min, code, capsys, monkeypatch):
        # the [project.scripts] line, read as text: no tomllib on 3.10
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        target = text.split("\n[project.scripts]\n", 1)[1].splitlines()[0]
        name, _, spec = target.partition(" = ")
        module, _, attr = spec.strip('"').partition(":")
        entry = getattr(importlib.import_module(module), attr)
        monkeypatch.setattr(sys, "argv", [name, "serre", "--r-min", r_min,
                                          "--r-max", "3"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code
        out = capsys.readouterr().out
        assert out.startswith("r,n,p_min") if code == EXIT_OK else out == ""

    def test_version_matches_pyproject(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert f'\nversion = "{__version__}"\n' in text


def readme_cli_examples() -> list:
    """(argv, quoted) for each `cheblab ...` line of the sh block under
    README's "## CLI", its backslash continuations joined.  quoted holds
    the output lines that README shows below the command, up to the next
    blank line, less their "# "; a "# ..." line elides and is skipped."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    examples = []
    for paragraph in block.replace("\\\n", " ").split("\n\n"):
        lines = paragraph.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("cheblab "))
        quoted = [line[2:] for line in lines[i + 1:]
                  if not line.startswith("# ...")]
        examples.append((shlex.split(lines[i])[1:], quoted))
    return examples


README_EXAMPLES = readme_cli_examples()


class TestReadmeExamples:
    """The CLI examples in README run as written."""

    @pytest.mark.parametrize("argv, quoted", README_EXAMPLES,
                             ids=[argv[0] for argv, _ in README_EXAMPLES])
    def test_example_exits_0_and_prints_what_readme_quotes(self, argv, quoted,
                                                          capsys):
        rc, out, _ = run(capsys, *argv)
        assert rc == EXIT_OK
        assert [line for line in out.splitlines() if line in quoted] == quoted

    def test_six_examples_and_the_dihedral_rows_quoted(self):
        assert [argv[0] for argv, _ in README_EXAMPLES] == [
            "dihedral", "cyclotomic", "falsify", "falsify", "serre",
            "sieve-check"]
        assert README_EXAMPLES[0][1] == ["r,n,x,pi_D,li_x,alpha_G,p_min",
                                  "2,4,16,0,7.474552683593565,4,17"]
