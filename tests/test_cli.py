"""Command-line behavior: outputs, formats, exit codes, cache wiring."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brauerkit import derivations
from brauerkit.cli import main
from brauerkit.store import CACHE_DIR_ENV
from brauerkit.verify import expected_table


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen


def test_gen_builds_then_hits_cache(cache_dir, capsys):
    code, out, _ = _run(capsys, "gen", "--family", "B", "--n", "3",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 15
    assert data["source"] == "built"
    assert data["units"] == 6
    assert data["rank_histogram"] == {"3": 6, "1": 9}
    assert (cache_dir / "B-3.cache").exists()

    code, out, _ = _run(capsys, "gen", "--family", "B", "--n", "3",
                        "--format", "json")
    assert json.loads(out)["source"] == "cache"


def test_gen_md_mentions_cache_path(cache_dir, capsys):
    code, out, _ = _run(capsys, "gen", "--family", "J", "--n", "4")
    assert code == 0
    assert "count: 14" in out
    assert out.splitlines()[-1] == f"cache: {cache_dir / 'J-4.cache'}"


def test_gen_respects_explicit_cache_dir_flag(tmp_path, capsys):
    other = tmp_path / "elsewhere"
    code, _, _ = _run(capsys, "gen", "--family", "J", "--n", "2",
                      "--cache-dir", str(other))
    assert code == 0
    assert (other / "J-2.cache").exists()


def test_gen_analyses_pa5(cache_dir, capsys):
    code, out, _ = _run(capsys, "gen", "--family", "PA", "--n", "5",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "green_summary" not in data
    assert (data["count"], data["j_classes"], data["essential_depth"]) == (5046, 6, 4)


def test_gen_analyses_c5(cache_dir, capsys):
    code, out, _ = _run(capsys, "gen", "--family", "C", "--n", "5",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert "green_summary" not in data
    assert (data["count"], data["j_classes"], data["essential_depth"],
            data["aperiodic"], data["units"]) == (115975, 6, 4, False, 120)


def test_gen_budget_error_exits_1(cache_dir, capsys):
    code, _, err = _run(capsys, "gen", "--family", "C", "--n", "6")
    assert code == 1
    assert "error:" in err


def test_gen_and_kernel_csv_is_one_header_and_one_value_row(cache_dir, capsys):
    code, out, _ = _run(capsys, "gen", "--family", "B", "--n", "3",
                        "--format", "csv")
    assert code == 0
    [row] = csv.DictReader(io.StringIO(out))
    assert (row["family"], row["n"], row["count"], row["units"]) == (
        "B", "3", "15", "6")
    assert row["rank_histogram"] == "{3: 6, 1: 9}"
    _, want, _ = _run(capsys, "kernel", "--family", "PA", "--n", "4",
                      "--format", "json")
    code, out, _ = _run(capsys, "kernel", "--family", "PA", "--n", "4",
                        "--format", "csv")
    assert code == 0
    [row] = csv.DictReader(io.StringIO(out))
    assert row == {k: str(v) for k, v in json.loads(want).items()}


# ---------------------------------------------------------------------------
# count


def test_count_csv_has_matching_formula_column(cache_dir, capsys):
    code, out, _ = _run(capsys, "count", "--family", "J", "--n", "5",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["count"] for r in rows] == ["1", "2", "5", "14", "42"]
    assert all(r["count"] == r["formula"] for r in rows)


def test_count_gives_the_motzkin_formula_for_planar_partial_matchings(
        cache_dir, capsys):
    code, out, _ = _run(capsys, "count", "--family", "PJ", "--n", "5",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["formula"] for r in rows] == ["2", "9", "51", "323", "2188"]
    assert all(r["count"] == r["formula"] for r in rows)


def test_count_even_annular_runs_at_the_even_degrees(cache_dir, capsys):
    code, out, _ = _run(capsys, "count", "--family", "EA", "--n", "6",
                        "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["n"], r["count"]) for r in rows] == [("2", "2"), ("4", "22"),
                                                     ("6", "325")]


def test_count_degree_below_1_is_a_usage_error(cache_dir, capsys):
    for n in ("0", "-3"):
        code, out, err = _run(capsys, "count", "--family", "B", "--n", n)
        assert code == 2 and out == ""
        assert "--n must be at least 1" in err


def test_count_md_table(cache_dir, capsys):
    code, out, _ = _run(capsys, "count", "--family", "A", "--n", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("| family")
    assert "| 40" in out


# ---------------------------------------------------------------------------
# green


def test_green_table_for_brauer_4(cache_dir, capsys):
    code, out, err = _run(capsys, "green", "--family", "B", "--n", "4",
                          "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["size"] for r in rows] == [24, 72, 9]
    assert [r["subgroup"] for r in rows] == [24, 2, 1]
    assert "essential_depth: 2" in err


# ---------------------------------------------------------------------------
# kernel


def test_kernel_json_annular_4(cache_dir, capsys):
    code, out, _ = _run(capsys, "kernel", "--family", "A", "--n", "4",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kernel_size"] == 21
    assert data["kernel_aperiodic"] is True
    assert data["aperiodic_by_groups"] is True
    assert "witness" not in data


def test_kernel_reports_witness_for_partial_annular(cache_dir, capsys):
    code, out, _ = _run(capsys, "kernel", "--family", "PA", "--n", "4",
                        "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kernel_size"] == 542
    assert data["aperiodic_by_groups"] is False
    assert data["witness_period"] == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_single_target_pass(cache_dir, capsys):
    code, out, _ = _run(capsys, "verify", "codec", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    rep = reports[0]
    assert list(rep) == ["target", "anchor", "params", "verdict",
                        "details", "duration_ms"]
    assert rep["verdict"] == "PASS"


def test_verify_unknown_target_exits_2(cache_dir, capsys):
    code, _, err = _run(capsys, "verify", "no-such-target")
    assert code == 2
    assert "unknown verify target" in err


def test_verify_degree_below_1_is_a_usage_error(cache_dir, capsys):
    for n in ("0", "-3"):
        code, out, err = _run(capsys, "verify", "all", "--n", n)
        assert code == 2 and out == ""
        assert "--n must be at least 1" in err


def test_even_degree_targets_run_at_the_largest_even_degree(cache_dir, capsys):
    for n in ("5", "1"):
        code, out, _ = _run(capsys, "verify", "closure-annular",
                            "parity-composition", "--n", n, "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["verdict"] for r in reports] == ["PASS", "PASS"]
        assert all(r["details"]["failures"] == 0 for r in reports)


def test_verify_reports_are_deterministic_modulo_duration(cache_dir, capsys):
    def one():
        _, out, _ = _run(capsys, "verify", "counts-partial",
                         "--format", "json")
        rep = json.loads(out)[0]
        rep.pop("duration_ms")
        return rep

    assert one() == one()


def test_verify_runs_the_count_kernel_and_table_targets(cache_dir, capsys):
    code, out, _ = _run(capsys, "verify", "counts-brauer", "kernel-a4",
                        "kernel-pa4-nonaperiodic", "ledger-table", "--format", "json")
    assert code == 0
    reports = {rep["target"]: rep for rep in json.loads(out)}
    assert [rep["verdict"] for rep in reports.values()] == ["PASS"] * 4
    assert reports["counts-brauer"]["details"] == {
        "sizes": {"1": 1, "2": 3, "3": 15, "4": 105, "5": 945, "6": 10395}}
    assert reports["kernel-a4"]["details"] == {
        "kernel_size": 21, "iterations": 2, "aperiodic": True}
    pa4 = reports["kernel-pa4-nonaperiodic"]["details"]
    assert (pa4["kernel_size"], pa4["iterations"], pa4["witness_period"]) == (542, 3, 2)
    table = reports["ledger-table"]["details"]
    assert table["open"] == ["PA:4"] and table["mismatches"] == []
    assert len(table["rows"]) == 29


def test_verify_csv_is_one_header_and_one_row_per_target(cache_dir, capsys):
    code, out, _ = _run(capsys, "verify", "codec", "counts-partial", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["target", "verdict", "duration_ms", "anchor"]
    assert [row[:2] for row in rows] == [["codec", "PASS"], ["counts-partial", "PASS"]]


def test_verify_failing_target_exits_1(cache_dir, capsys, monkeypatch):
    import brauerkit.cli as cli

    monkeypatch.setattr(
        cli, "run_target",
        lambda name, overrides: (False, {"n": 4}, {"mismatch": "left != right"}),
    )
    code, out, _ = _run(capsys, "verify", "codec")
    assert code == 1
    assert "FAIL" in out
    assert "mismatch" in out


def test_verify_target_error_becomes_fail_report(cache_dir, capsys, monkeypatch):
    import brauerkit.cli as cli
    from brauerkit.errors import BudgetExceeded

    def boom(name, overrides):
        raise BudgetExceeded("closure exceeded budget of 10 elements")

    monkeypatch.setattr(cli, "run_target", boom)
    code, out, _ = _run(capsys, "verify", "codec", "--format", "json")
    assert code == 1
    rep = json.loads(out)[0]
    assert rep["verdict"] == "FAIL"
    assert "budget" in rep["details"]["error"]


# ---------------------------------------------------------------------------
# complexity


def test_complexity_full_table(cache_dir, capsys):
    code, out, _ = _run(capsys, "complexity", "--format", "csv")
    assert code == 0
    rows = {f"{r['family']}:{r['n']}": r
            for r in csv.DictReader(io.StringIO(out))}
    assert rows["B:6"]["interval"] == "[3,3]"
    assert rows["B:6"]["status"] == "exact"
    assert rows["EA:6"]["interval"] == "[2,2]"
    assert rows["PA:4"]["status"] == "OPEN"
    assert len(rows) == 29


def test_complexity_filter_and_explain(cache_dir, capsys):
    code, out, _ = _run(capsys, "complexity", "EA:6",
                        "--format", "json", "--explain", "EA:6")
    assert code == 0
    decoder = json.JSONDecoder()
    rows, pos = decoder.raw_decode(out)
    assert [r["family"] for r in rows] == ["EA"]
    tree, _ = decoder.raw_decode(out[pos:].lstrip())
    assert tree["subject"] == "EA:6"
    assert tree["interval"] == [2, 2]


def test_complexity_exclude_rule_widens_the_kernel_chain_rows(cache_dir, capsys):
    code, out, err = _run(capsys, "complexity", "--format", "json",
                          "--exclude-rule", "kernel-chain")
    assert code == 0
    rows = {(r["family"], r["n"]): (r["lo"], r["hi"]) for r in json.loads(out)}
    widened = {k for k, v in rows.items() if v != expected_table()[k]}
    assert widened == {("A", 6), ("EA", 6)}
    assert rows["A", 6] == rows["EA", 6] == (1, 2)
    assert sum(lo == hi for lo, hi in rows.values()) == 26


def test_complexity_order_seed_and_replayed_checks_keep_the_table(
        cache_dir, capsys):
    _, plain, _ = _run(capsys, "complexity")
    code, seeded, err = _run(capsys, "complexity", "--order-seed", "7",
                             "--verify-checks", "20")
    assert code == 0
    assert seeded == plain
    assert "re-ran 20 stored checks, all reproduced" in err


def test_complexity_unknown_row_exits_2(cache_dir, capsys, monkeypatch):
    def refuse():
        raise AssertionError("the ledger was built for an unknown row")

    monkeypatch.setattr(derivations, "build_standard_ledger", refuse)
    code, _, err = _run(capsys, "complexity", "B:9")
    assert code == 2
    assert "unknown table row" in err
    code, _, err = _run(capsys, "complexity", "--verify-checks", "-1")
    assert code == 2
    assert "--verify-checks must be at least 0" in err


def test_complexity_table_under_python_O(tmp_path):
    # python -O strips asserts; the table must not depend on any.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, **{CACHE_DIR_ENV: str(tmp_path)})
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "brauerkit", "complexity", "--format", "json"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rows = {(r["family"], r["n"]): (r["lo"], r["hi"])
            for r in json.loads(proc.stdout)}
    assert rows == expected_table()


def test_complexity_unknown_explain_exits_2(cache_dir, capsys):
    code, _, err = _run(capsys, "complexity", "--explain", "nope")
    assert code == 2
    assert "no registered instance" in err


# ---------------------------------------------------------------------------
# pinned output


def test_cli_output_is_pinned(tmp_path, capsys):
    """stdout of gen (built, then from the cache), green, kernel and
    complexity, byte for byte once the duration_ms lines are dropped."""
    runs = [["gen", "--family", family, "--n", n, "--cache-dir", str(tmp_path)]
            for family, n in (("B", "5"), ("PA", "4")) for _ in range(2)]
    runs += [["green", "--family", "PA", "--n", "4"],
             ["kernel", "--family", "A", "--n", "4"],
             ["kernel", "--family", "PA", "--n", "4"],
             ["complexity"]]
    digest = hashlib.sha256()
    for argv in runs:
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        digest.update("".join(line for line in out.splitlines(keepends=True)
                              if '"duration_ms"' not in line).encode())
    assert digest.hexdigest() == (
        "bd91753989520affeaea2caf2c0673be0eef018a2ef21e9e62316501f898d0e6")


_PINNED_TARGETS = (
    "counts-jones", "counts-partial", "family-filters", "green-rank",
    "subgroup-orders", "named-elements", "parity-morphism-a4",
    "closure-annular", "parity-composition", "partial-generators")


def test_verify_output_is_pinned(capsys):
    """verify's json report over the targets that run the diagram
    predicates, byte for byte once the duration_ms lines are dropped."""
    assert main(["verify", *_PINNED_TARGETS, "--format", "json"]) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if '"duration_ms"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "a21c73e7552efa37a9ab99f68505ef05dc564a0a61299d14754ba565a967f661")


# ---------------------------------------------------------------------------
# parser plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--n", "3"])
    assert info.value.code == 2


def test_verify_takes_no_budget_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "codec", "--budget", "5"])
    assert info.value.code == 2
