"""Command-line behavior: outputs, formats, exit codes, cache wiring."""

import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from brauerkit import derivations
from brauerkit.cli import main
from brauerkit.store import CACHE_DIR_ENV
from brauerkit.verify import TARGETS, expected_table


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


def _usage_error(capsys, *argv):
    """The stderr of a run that argparse ends with exit code 2, printing
    nothing on stdout."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    return captured.err


def test_count_degree_below_1_is_a_usage_error(cache_dir, capsys):
    for n in ("0", "-3"):
        err = _usage_error(capsys, "count", "--family", "B", "--n", n)
        assert f"argument --n: must be at least 1, got {n}" in err


def test_every_degree_below_1_is_a_usage_error(cache_dir, capsys):
    for command in ("gen", "green", "kernel"):
        err = _usage_error(capsys, command, "--family", "B", "--n", "0")
        assert "argument --n: must be at least 1, got 0" in err
    for command in ("gen", "count", "green", "kernel"):
        for budget in ("0", "-5"):
            err = _usage_error(capsys, command, "--family", "B", "--n", "3",
                               "--budget", budget)
            assert f"argument --budget: must be at least 1, got {budget}" in err
    assert "invalid integer value: 'x'" in _usage_error(
        capsys, "gen", "--family", "B", "--n", "x")
    assert list(cache_dir.iterdir()) == []


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


# kernel size, rounds, aperiodic, witness, its index and period; for PA:5
# and C:4 the table kernel gave the same with TABLE_CELL_LIMIT raised
_KERNELS_PAST_THE_TABLE_LIMIT = {
    ("PA", 5): (4947, 3, False, "5:[{1,5},{2,3'},{3,4'},{4,5'},{1',2'}]", 1, 3),
    ("C", 4): (4117, 2, False, "4:[{1,3'},{2},{3,4'},{4,1'},{2'}]", 1, 3),
    ("B", 7): (130096, 2, False,
               "7:[{1,7},{2,3'},{3,4'},{4,5'},{5,6'},{6,7'},{1',2'}]", 1, 5),
}


def _kernel_child(family, n, tmp_path):
    """`brauerkit kernel --format json` on family:n in a child process:
    its exit code, output, wall seconds and peak RSS in bytes, read for
    the one child by wait4; a 60 s CPU limit stops a runaway child."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    with open(tmp_path / "out", "w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "brauerkit", "kernel", "--family", family,
             "--n", str(n), "--format", "json"],
            env=env, stdout=out, stderr=subprocess.STDOUT,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (60, 60)))
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        out.seek(0)
        text = out.read()
    # ru_maxrss is in KiB on Linux
    return os.waitstatus_to_exitcode(status), text, seconds, usage.ru_maxrss * 1024


@pytest.mark.slow
@pytest.mark.parametrize("family, n", _KERNELS_PAST_THE_TABLE_LIMIT)
def test_kernel_runs_past_the_table_limit(family, n, tmp_path):
    """`brauerkit kernel` on closures whose product table is over
    TABLE_CELL_LIMIT exits 0 in under 5 s and 200 MB peak RSS."""
    code, text, seconds, peak = _kernel_child(family, n, tmp_path)
    assert code == 0, text
    data = json.loads(text)
    assert (data["kernel_size"], data["iterations"], data["kernel_aperiodic"],
            data["witness"], data["witness_index"], data["witness_period"]
            ) == _KERNELS_PAST_THE_TABLE_LIMIT[family, n]
    assert seconds < 5
    assert peak < 200e6


def test_kernel_reaches_annular_10(tmp_path):
    """A:10's kernel, whose generators have about 30,000 weak inverses
    each, grows over one inverse per generator in under 5 s and 200 MiB
    peak RSS."""
    code, text, seconds, peak = _kernel_child("A", 10, tmp_path)
    assert code == 0, text
    data = json.loads(text)
    assert (data["semigroup_size"], data["kernel_size"], data["kernel_aperiodic"]
            ) == (160_524, 81_140, False)
    assert seconds < 5
    assert peak < 200 * 2 ** 20


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
        err = _usage_error(capsys, "verify", "all", "--n", n)
        assert f"argument --n: must be at least 1, got {n}" in err


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
    err = _usage_error(capsys, "complexity", "--verify-checks", "-1")
    assert "argument --verify-checks: must be at least 0, got -1" in err


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
    """stdout of gen (built, then from the cache), green, kernel (on the
    benchmark's closures too) and complexity, byte for byte once the
    duration_ms lines are dropped."""
    runs = [["gen", "--family", family, "--n", n, "--cache-dir", str(tmp_path)]
            for family, n in (("B", "5"), ("PA", "4")) for _ in range(2)]
    runs += [["green", "--family", "PA", "--n", "4"]]
    runs += [["kernel", "--family", family, "--n", n]
             for family, n in (("A", "4"), ("PA", "4"), ("PB", "4"), ("A", "6"),
                               ("EA", "6"), ("J", "6"))]
    runs += [["complexity"]]
    runs = [argv + ["--format", "json"] for argv in runs]
    runs += [["green", "--family", family, "--n", "4", "--format", fmt]
             for family in ("B", "A", "EA") for fmt in ("md", "csv")]
    digest = hashlib.sha256()
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        digest.update("".join(line for line in out.splitlines(keepends=True)
                              if '"duration_ms"' not in line).encode())
    assert digest.hexdigest() == (
        "73bfe93b1c0210c450a4ffe2b1a1f23ba5ad042f2647a470fe4acba149595f8b")


_PINNED_TARGETS = (
    "counts-brauer", "counts-jones", "counts-partial", "family-filters",
    "sing-brauer", "sing-jones", "sing-ea", "sing-annular-odd",
    "sing-annular-even", "green-rank", "subgroup-orders", "depth",
    "named-elements", "local-rotation-power", "twist-laws", "twist-singular",
    "kernel-a4", "parity-morphism-a4", "kernel-pa4-nonaperiodic", "t1-ea6",
    "egen-ea6", "ledger-table", "assoc", "star-laws", "closure-annular",
    "parity-composition", "codec", "partial-generators")


def test_verify_output_is_pinned(capsys):
    """verify's json report over every target, byte for byte once the
    duration_ms lines are dropped."""
    assert sorted(_PINNED_TARGETS) == sorted(TARGETS)
    assert main(["verify", *_PINNED_TARGETS, "--format", "json"]) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if '"duration_ms"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == (
        "91795d2a38b18651d426cc61c52ff7d009d02214035abe932c66b12d8f36e6d9")


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
