"""Cache file format: atomic writes, integrity checks, rebuild policy."""

import hashlib
import json
import random
from functools import lru_cache

import pytest

from brauerkit import (
    Diagram,
    FamilyInstance,
    as_closure,
    closure,
    construct,
    encode,
    essential_depth,
    green,
    identity,
    is_aperiodic,
    load_cache,
    partial_identity,
    save_cache,
)
from brauerkit import families
from brauerkit.cli import main
from brauerkit.diagrams import from_label_array, from_labels, label_array
from brauerkit.errors import (
    BadDegree,
    ChecksumMismatch,
    CrossCheckFailed,
    ParseError,
    VersionMismatch,
)
from brauerkit.store import (
    CACHE_DIR_ENV,
    CACHE_FORMAT_VERSION,
    MAX_CACHE_DEGREE,
    _label_lines,
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


def test_cache_bytes_are_stable(tmp_path):
    """The bytes save_cache wrote when it joined text lines, so writing
    the element lines as one byte block changes no file."""
    for family, n, digest in (
            ("B", 4, "d9d08b0391951d5d3d6916ff197b24ad2110f95ddb095096d0064c0e6490f9fd"),
            ("A", 6, "e90cf8ae9c08f8ed17c36d319b5d8f61f403f3ad2a83639aba2051f349c1a785")):
        path = save_cache(construct(family, n), cache_path(tmp_path, family, n))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (family, n)


def test_a_hand_made_instance_at_the_largest_degree_round_trips(tmp_path):
    """Degree 18's 36 points take every base-36 digit, z included."""
    n = MAX_CACHE_DEGREE
    singletons = from_labels(range(2 * n))
    elems = {identity(n), singletons, partial_identity(n, 18), identity(n) * singletons}
    inst = FamilyInstance(family="C", degree=n, strategy="generated",
                          elements=frozenset(elems), generators=(singletons, identity(n)))
    path = save_cache(inst, cache_path(tmp_path, "C", n))
    assert path.read_text().splitlines()[5] == "0123456789abcdefghijklmnopqrstuvwxyz"
    loaded = load_cache(path)
    assert loaded == inst and loaded.generators == inst.generators


def test_round_trip_never_decodes_blocks(tmp_path):
    gens = construct("B", 6).generators
    sg = closure(gens, include_identity=True)
    inst = FamilyInstance(family="B", degree=6, strategy="generated",
                          elements=frozenset(from_label_array(sg.labels)), generators=gens)
    loaded = load_cache(save_cache(inst, cache_path(tmp_path, "B", 6)))
    assert loaded.elements == inst.elements and loaded.generators == gens
    assert not any(hasattr(d, "_blocks")
                   for d in [*inst.elements, *loaded.elements, *loaded.generators])


def test_no_temp_files_left_behind(b4_cache, tmp_path):
    assert [p.name for p in tmp_path.iterdir()] == ["B-4.cache"]


def _reseal(path, lines):
    """Write lines (the last one a stale sha256 line) with a fresh seal."""
    body = "\n".join(lines[:-1]) + "\n"
    path.write_text(body + f"sha256 {hashlib.sha256(body.encode()).hexdigest()}\n")


def test_tampering_is_detected(b4_cache):
    _, path = b4_cache
    text = path.read_text()
    # one digit of the first element's label string
    at = text.index("\n", text.index("\nelements ") + 1) + 2
    path.write_text(text[:at] + ("2" if text[at] == "1" else "1") + text[at + 1:])
    with pytest.raises(ChecksumMismatch):
        load_cache(path)


def test_labels_are_written_one_digit_per_point(b4_cache):
    inst, path = b4_cache
    lines = path.read_text().splitlines()
    assert lines[0] == f"brauerkit-cache {CACHE_FORMAT_VERSION}" == "brauerkit-cache 2"
    start = lines.index(f"elements {inst.size}") + 1
    body = lines[start:-1]
    assert body == sorted(body)
    assert {from_labels([int(c, 36) for c in line]) for line in body} == inst.elements


@pytest.mark.parametrize("bad", ["10234567", "01234566x", "0123456", "0123456!",
                                 "01234568", "0123456\u00e9"])
def test_malformed_label_line_is_a_parse_error(b4_cache, bad):
    inst, path = b4_cache
    lines = path.read_text().splitlines()
    lines[lines.index(f"elements {inst.size}") + 1] = bad
    _reseal(path, lines)
    with pytest.raises(ParseError):
        load_cache(path)


@pytest.mark.parametrize("line", ["generator", "element"])
def test_a_label_line_that_is_no_growth_string_is_named(b4_cache, line):
    """Generator rows are tested by diagrams.checked_growth and element rows
    by ElementSet, which calls it; either way the cache reader names the
    problem."""
    inst, path = b4_cache
    lines = path.read_text().splitlines()
    at = 5 if line == "generator" else lines.index(f"elements {inst.size}") + 1
    lines[at] = "00301234"  # 3 follows a highest label of 0
    _reseal(path, lines)
    with pytest.raises(ParseError) as info:
        load_cache(path)
    assert str(info.value) == f"{path}: label line is not a restricted growth string"


def test_duplicate_elements_are_a_parse_error(b4_cache):
    inst, path = b4_cache
    lines = path.read_text().splitlines()
    start = lines.index(f"elements {inst.size}") + 1
    lines[start + 1] = lines[start]
    _reseal(path, lines)
    with pytest.raises(ParseError, match="duplicate"):
        load_cache(path)


def test_permuted_element_lines_load_equal(b4_cache):
    inst, path = b4_cache
    lines = path.read_text().splitlines()
    start = lines.index(f"elements {inst.size}") + 1
    body = lines[start:-1]
    lines[start:-1] = random.Random(4).sample(body, len(body))
    assert lines[start:-1] != body
    _reseal(path, lines)
    assert load_cache(path).elements == inst.elements


@pytest.mark.parametrize("family, n", [("B", 5), ("A", 6)])
def test_build_cache_round_trip_and_analysis_make_no_element_objects(
        family, n, tmp_path, monkeypatch):
    monkeypatch.setattr(families, "_construct",
                        lru_cache(maxsize=None)(families._construct.__wrapped__))
    made = []
    from_key = Diagram._from_key

    def counting_from_key(k, key):
        made.append(key)
        return from_key(k, key)

    monkeypatch.setattr(Diagram, "_from_key", staticmethod(counting_from_key))
    inst = construct(family, n)
    loaded = load_cache(save_cache(inst, cache_path(tmp_path, family, n)))
    sg = as_closure(loaded)  # closes the generators again
    green(sg)
    is_aperiodic(sg)
    essential_depth(sg)
    assert sg.size == inst.size and loaded.elements == inst.elements
    assert len(made) <= len(inst.generators)


def test_a_loaded_element_outside_the_closure_fails_as_closure(b4_cache):
    inst, path = b4_cache
    lines = path.read_text().splitlines()
    start = lines.index(f"elements {inst.size}") + 1
    lines[start] = _label_lines(label_array([partial_identity(4, 1)], 4)).decode().rstrip()
    _reseal(path, lines)
    loaded = load_cache(path)
    assert loaded.size == 105 and partial_identity(4, 1) in loaded.elements
    with pytest.raises(CrossCheckFailed, match="differs from the instance"):
        as_closure(loaded)


@pytest.mark.parametrize("degree", ["19", "0", "four"])
def test_degrees_base_36_cannot_hold_are_a_parse_error(b4_cache, degree):
    _, path = b4_cache
    lines = path.read_text().splitlines()
    lines[2] = f"degree {degree}"
    _reseal(path, lines)
    with pytest.raises(ParseError):
        load_cache(path)


def test_save_refuses_degrees_base_36_cannot_hold(tmp_path):
    big = FamilyInstance(family="SYM", degree=19, strategy="enumerated",
                         elements=frozenset({identity(19)}))
    with pytest.raises(BadDegree):
        save_cache(big, tmp_path / "SYM-19.cache")


def test_version_bump_is_an_error_with_rebuild_hint(b4_cache):
    _, path = b4_cache
    lines = path.read_text().splitlines()
    lines[0] = "brauerkit-cache 999"
    _reseal(path, lines)
    with pytest.raises(VersionMismatch) as info:
        load_cache(path)
    assert "rebuild" in str(info.value)


def test_truncation_is_a_parse_error(b4_cache):
    _, path = b4_cache
    lines = path.read_text().splitlines()
    del lines[10]  # drop one element line
    _reseal(path, lines)
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
    _reseal(path, lines)
    inst, hit = load_or_build("J", 3, cache_dir=tmp_path)
    assert not hit
    assert load_cache(path).elements == inst.elements


def test_gen_rebuilds_a_v1_file(tmp_path, capsys):
    inst = construct("J", 3)
    path = cache_path(tmp_path, "J", 3)
    lines = ["brauerkit-cache 1", "family J", "degree 3", "strategy generated",
             f"generators {len(inst.generators)}",
             *(encode(g) for g in inst.generators),
             f"elements {inst.size}", *(encode(d) for d in inst.sorted_elements()),
             "sha256 -"]
    _reseal(path, lines)
    with pytest.raises(VersionMismatch):
        load_cache(path)
    assert main(["gen", "--family", "J", "--n", "3", "--format", "json",
                 "--cache-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["source"] == "built"
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
