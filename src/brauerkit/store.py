"""Persistent family cache and report helpers.

Cache files are line-oriented text so they diff cleanly under review: a
header naming the family, degree, and construction strategy, the
generators, the sorted elements, and a trailing sha256 line over
everything above it.  Format v2 writes each diagram as its label string:
its label array (diagrams.label_array) with one base-36 digit per point,
so degrees up to 18 fit.  The element lines are the rows of the
instance's ElementSet in order, which is sorted string order, written as
one block of bytes (the digits and a newline column), and a reader
decodes all of them at once into an ElementSet, with no Diagram
per element; repeated lines are found as equal neighbours once the rows
are sorted.
Writes go through a temp file and os.replace, so a reader never sees a
partial cache.  A stale format version is an error rather than a silent
rebuild; callers that own construction (the gen command) catch it and
rebuild.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from .diagrams import ElementSet, checked_growth, from_label_array, label_array
from .errors import BadDegree, BadIndex, ChecksumMismatch, ParseError, VersionMismatch
from .families import FamilyInstance, construct

CACHE_FORMAT_VERSION = 2
CACHE_MAGIC = "brauerkit-cache"
CACHE_DIR_ENV = "BRAUERKIT_CACHE_DIR"

_DIGITS = b"0123456789abcdefghijklmnopqrstuvwxyz"
MAX_CACHE_DEGREE = len(_DIGITS) // 2
_DIGIT_CODES = np.frombuffer(_DIGITS, dtype=np.uint8)
_DIGIT_VALUE = np.full(256, -1, dtype=np.int16)
_DIGIT_VALUE[_DIGIT_CODES] = np.arange(len(_DIGITS))


def default_cache_dir(override=None):
    if override is not None:
        return Path(override)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "brauerkit"


def cache_path(cache_dir, family, degree):
    return Path(cache_dir) / f"{family}-{degree}.cache"


def _checksum(data):
    return hashlib.sha256(data).hexdigest()


def _label_lines(labs):
    """The label strings of the rows of a label array as one ASCII block,
    each row a line ended by a newline."""
    block = np.full((len(labs), labs.shape[1] + 1), ord("\n"), dtype=np.uint8)
    block[:, :-1] = _DIGIT_CODES[labs]
    return block.tobytes()


def _decode_labels(lines, n, what):
    """The label array of label-string lines, of 2n base-36 digits each."""
    width = 2 * n
    if set(map(len, lines)) - {width}:
        raise ParseError(f"{what}: label line is not {width} characters long")
    codes = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8)
    labs = _DIGIT_VALUE[codes].reshape(len(lines), width)
    if (labs < 0).any():
        raise ParseError(f"{what}: label line holds a non-digit character")
    return labs


def save_cache(instance, path):
    path = Path(path)
    n = instance.degree
    if n > MAX_CACHE_DEGREE:
        raise BadDegree(
            f"cache format {CACHE_FORMAT_VERSION} holds degrees up to "
            f"{MAX_CACHE_DEGREE}, got {n}")
    head = (f"{CACHE_MAGIC} {CACHE_FORMAT_VERSION}\n"
            f"family {instance.family}\n"
            f"degree {n}\n"
            f"strategy {instance.strategy}\n"
            f"generators {len(instance.generators)}\n")
    body = b"".join([head.encode(), _label_lines(label_array(instance.generators, n)),
                     f"elements {instance.size}\n".encode(),
                     # rows in byte order are label strings in sorted order
                     _label_lines(instance.elements.labels)])
    body += f"sha256 {_checksum(body)}\n".encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _expect(line, keyword):
    parts = line.split(" ", 1)
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(f"expected '{keyword} ...', got {line!r}")
    return parts[1]


def _expect_count(line, keyword):
    value = _expect(line, keyword)
    if not value.isdigit():
        raise ParseError(f"expected a count after '{keyword}', got {line!r}")
    return int(value)


def load_cache(path):
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if len(lines) < 7 or not lines[-1].startswith("sha256 "):
        raise ParseError(f"{path}: missing checksum line")
    declared = lines[-1].split(" ", 1)[1]
    body = "\n".join(lines[:-1]) + "\n"
    if _checksum(body.encode("utf-8")) != declared:
        raise ChecksumMismatch(f"{path}: cache content does not match its checksum")
    head = _expect(lines[0], CACHE_MAGIC)
    if head != str(CACHE_FORMAT_VERSION):
        raise VersionMismatch(
            f"{path}: cache format {head}, expected {CACHE_FORMAT_VERSION}; "
            "rebuild with the gen command"
        )
    family = _expect(lines[1], "family")
    degree = _expect_count(lines[2], "degree")
    if not 1 <= degree <= MAX_CACHE_DEGREE:
        raise ParseError(
            f"{path}: degree {degree} is outside 1..{MAX_CACHE_DEGREE}")
    strategy = _expect(lines[3], "strategy")
    n_gens = _expect_count(lines[4], "generators")
    pos = 5 + n_gens
    if pos >= len(lines) - 1:
        raise ParseError(f"{path}: generator count disagrees with line count")
    try:  # each label row is tested once, by checked_growth or ElementSet
        generators = tuple(from_label_array(checked_growth(
            _decode_labels(lines[5:pos], degree, path))))
        n_elems = _expect_count(lines[pos], "elements")
        pos += 1
        if pos + n_elems != len(lines) - 1:
            raise ParseError(f"{path}: element count disagrees with line count")
        elements = ElementSet(degree, _decode_labels(lines[pos:-1], degree, path))
    except BadIndex:
        raise ParseError(
            f"{path}: label line is not a restricted growth string") from None
    if len(elements) != n_elems:
        raise ParseError(f"{path}: duplicate elements in cache")
    return FamilyInstance(family=family, degree=degree, strategy=strategy,
                          elements=elements, generators=generators)


def load_or_build(family, degree, budget=None, cache_dir=None):
    """Return (instance, hit) where hit says the cache supplied it."""
    directory = default_cache_dir(cache_dir)
    path = cache_path(directory, family, degree)
    if path.exists():
        try:
            cached = load_cache(path)
            if cached.family == family and cached.degree == degree:
                return cached, True
        except VersionMismatch:
            pass
    instance = construct(family, degree, budget=budget)
    save_cache(instance, path)
    return instance, False


def make_report(target, anchor, params, verdict, details, duration_ms):
    if verdict not in ("PASS", "FAIL"):
        raise ValueError(f"verdict must be PASS or FAIL, got {verdict!r}")
    return {
        "target": target,
        "anchor": anchor,
        "params": params,
        "verdict": verdict,
        "details": details,
        "duration_ms": duration_ms,
    }
