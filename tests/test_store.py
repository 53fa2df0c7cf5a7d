"""Cache file format: atomic writes, integrity checks, rebuild policy."""

import pytest

from brauerkit import construct, load_cache, save_cache
from brauerkit.errors import ChecksumMismatch, ParseError, VersionMismatch
from brauerkit.store import (
    CACHE_DIR_ENV,
    cache_path,
    default_cache_dir,
    load_or_build,
    make_report,
)


@pytest.fixture
def b4_cache(tmp_path):
    inst = construct("B", 4)
    path = cache_path(tmp_path, "B", 4)
    save_cache(inst, path)
    return inst, path


def test_round_trip(b4_cache):
    inst, path = b4_cache
    loaded = load_cache(path)
    assert loaded.family == "B"
    assert loaded.degree == 4
    assert loaded.strategy == inst.strategy
    assert loaded.elements == inst.elements
    assert loaded.generators == inst.generators


def test_no_temp_files_left_behind(b4_cache, tmp_path):
    assert [p.name for p in tmp_path.iterdir()] == ["B-4.cache"]


def test_tampering_is_detected(b4_cache):
    _, path = b4_cache
    text = path.read_text()
    path.write_text(text.replace("{1,2}", "{2,1}", 1))
    with pytest.raises(ChecksumMismatch):
        load_cache(path)


def test_version_bump_is_an_error_with_rebuild_hint(b4_cache):
    _, path = b4_cache
    lines = path.read_text().splitlines()
    lines[0] = "brauerkit-cache 999"
    body = "\n".join(lines[:-1]) + "\n"
    import hashlib

    path.write_text(body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")
    with pytest.raises(VersionMismatch) as info:
        load_cache(path)
    assert "rebuild" in str(info.value)


def test_truncation_is_a_parse_error(b4_cache):
    _, path = b4_cache
    lines = path.read_text().splitlines()
    del lines[10]  # drop one element line
    body = "\n".join(lines[:-1]) + "\n"
    import hashlib

    path.write_text(body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")
    with pytest.raises(ParseError):
        load_cache(path)


def test_missing_checksum_line(tmp_path):
    path = tmp_path / "broken.cache"
    path.write_text("brauerkit-cache 1\n")
    with pytest.raises(ParseError):
        load_cache(path)


def test_load_or_build_builds_then_hits(tmp_path):
    inst, hit = load_or_build("J", 3, cache_dir=tmp_path)
    assert not hit
    again, hit = load_or_build("J", 3, cache_dir=tmp_path)
    assert hit
    assert again.elements == inst.elements


def test_load_or_build_rebuilds_on_version_mismatch(tmp_path):
    load_or_build("J", 3, cache_dir=tmp_path)
    path = cache_path(tmp_path, "J", 3)
    lines = path.read_text().splitlines()
    lines[0] = "brauerkit-cache 0"
    body = "\n".join(lines[:-1]) + "\n"
    import hashlib

    path.write_text(body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")
    inst, hit = load_or_build("J", 3, cache_dir=tmp_path)
    assert not hit
    assert load_cache(path).elements == inst.elements


def test_load_or_build_refuses_corrupt_caches(tmp_path):
    load_or_build("J", 3, cache_dir=tmp_path)
    path = cache_path(tmp_path, "J", 3)
    path.write_text(path.read_text()[:-10] + "0000000000")
    with pytest.raises(ChecksumMismatch):
        load_or_build("J", 3, cache_dir=tmp_path)


def test_default_cache_dir_resolution(monkeypatch, tmp_path):
    assert default_cache_dir(tmp_path) == tmp_path
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
    assert default_cache_dir() == tmp_path / "env"
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_dir().name == "brauerkit"


def test_make_report_schema():
    rep = make_report("counts-brauer", "matching counts", {"n": 6},
                      "PASS", "ok", 12)
    assert list(rep) == ["target", "anchor", "params", "verdict",
                        "details", "duration_ms"]
    with pytest.raises(ValueError):
        make_report("x", "y", {}, "MAYBE", "", 0)
