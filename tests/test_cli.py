"""Command-line behavior: outputs, formats, exit codes, cache wiring."""

import csv
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
    assert str(cache_dir / "J-4.cache") in out


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


def test_verify_reports_are_deterministic_modulo_duration(cache_dir, capsys):
    def one():
        _, out, _ = _run(capsys, "verify", "counts-partial",
                         "--format", "json")
        rep = json.loads(out)[0]
        rep.pop("duration_ms")
        return rep

    assert one() == one()


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
# parser plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--n", "3"])
    assert info.value.code == 2
