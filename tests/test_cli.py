"""Command-line surface: exit codes, fixed headers, formats, determinism."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cheblab import __version__, cyclotomic, dihedral, sieve
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

    def test_dihedral_ignores_alpha(self, capsys):
        rc, out, _ = run(capsys, "dihedral", "--r-max", "3", "--alpha", "1.2")
        assert rc == EXIT_OK

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

    def test_cyclotomic_budget_admits_r_29(self):
        assert cyclotomic.peak_bytes(1 << 29, 0.5) <= MEMORY_BUDGET
        assert cyclotomic.peak_bytes(1 << 30, 0.5) > MEMORY_BUDGET

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
        step = 2 * sieve.SEGMENT_ODDS
        T = (1 << 22) * math.log(1 << 22) ** 0.5
        assert calls == [(lo, lo + step)
                         for lo in range(0, math.ceil(T), step)]

    def test_sieve_check_guard(self, capsys):
        rc, _, _ = run(capsys, "sieve-check", "--limit", str((1 << 40) + 1))
        assert rc == EXIT_RESOURCE

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

    def test_fg_on_built_family_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "falsify", "--family", "cyclotomic",
                         "--variant", "FG", "--r-min", "8", "--r-max", "10")
        assert rc == EXIT_USAGE
        assert "FG" in err


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


class TestDeterminismQuick:
    def test_workers_do_not_change_output(self, capsys):
        runs = []
        for workers in ("1", "4", "4"):
            _, out, _ = run(capsys, "falsify", "--family", "cyclotomic",
                            "--r-min", "8", "--r-max", "12",
                            "--workers", workers)
            runs.append(out)
        assert runs[0] == runs[1] == runs[2]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cheblab", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "falsify" in proc.stdout

    @pytest.mark.skipif(shutil.which("cheblab") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["cheblab", "serre", "--r-min", "2",
                               "--r-max", "3"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("r,n,p_min")

    def test_version_matches_pyproject(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert f'\nversion = "{__version__}"\n' in text
