"""Persistent family cache and report helpers.

Cache files are line-oriented text so they diff cleanly under review: a
header naming the family, degree, and construction strategy, the encoded
generators, the sorted encoded elements, and a trailing sha256 line over
everything above it.  Writes go through a temp file and os.replace, so a
reader never sees a partial cache.  A stale format version is an error
rather than a silent rebuild; callers that own construction (the gen
command) catch it and rebuild.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from .diagrams import decode, encode
from .errors import ChecksumMismatch, ParseError, VersionMismatch
from .families import FamilyInstance, construct

CACHE_FORMAT_VERSION = 1
CACHE_MAGIC = "brauerkit-cache"
CACHE_DIR_ENV = "BRAUERKIT_CACHE_DIR"


def default_cache_dir(override=None):
    if override is not None:
        return Path(override)
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "brauerkit"


def cache_path(cache_dir, family, degree):
    return Path(cache_dir) / f"{family}-{degree}.cache"


def _checksum(body):
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def save_cache(instance, path):
    path = Path(path)
    lines = [
        f"{CACHE_MAGIC} {CACHE_FORMAT_VERSION}",
        f"family {instance.family}",
        f"degree {instance.degree}",
        f"strategy {instance.strategy}",
        f"generators {len(instance.generators)}",
    ]
    lines.extend(encode(g) for g in instance.generators)
    lines.append(f"elements {instance.size}")
    lines.extend(encode(d) for d in instance.sorted_elements())
    body = "\n".join(lines) + "\n"
    body += f"sha256 {_checksum(body)}\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
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


def load_cache(path):
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if len(lines) < 7 or not lines[-1].startswith("sha256 "):
        raise ParseError(f"{path}: missing checksum line")
    declared = lines[-1].split(" ", 1)[1]
    body = "\n".join(lines[:-1]) + "\n"
    if _checksum(body) != declared:
        raise ChecksumMismatch(f"{path}: cache content does not match its checksum")
    head = _expect(lines[0], CACHE_MAGIC)
    if head != str(CACHE_FORMAT_VERSION):
        raise VersionMismatch(
            f"{path}: cache format {head}, expected {CACHE_FORMAT_VERSION}; "
            "rebuild with the gen command"
        )
    family = _expect(lines[1], "family")
    degree = int(_expect(lines[2], "degree"))
    strategy = _expect(lines[3], "strategy")
    n_gens = int(_expect(lines[4], "generators"))
    pos = 5
    generators = tuple(
        decode(lines[pos + i], n=degree) for i in range(n_gens)
    )
    pos += n_gens
    n_elems = int(_expect(lines[pos], "elements"))
    pos += 1
    if pos + n_elems != len(lines) - 1:
        raise ParseError(f"{path}: element count disagrees with line count")
    elements = frozenset(
        decode(lines[pos + i], n=degree) for i in range(n_elems)
    )
    if len(elements) != n_elems:
        raise ParseError(f"{path}: duplicate elements in cache")
    return FamilyInstance(
        family=family, degree=degree, strategy=strategy,
        elements=elements, generators=generators,
        note=f"loaded from {path.name}",
    )


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
