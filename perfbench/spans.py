"""Outside-in span tracer for the traced benchmark run.

The tracer never edits the package's source.  It replaces the public
functions it times with timing wrappers, in every ``brauerkit`` module
namespace that holds them (``derivations``, ``ledger`` and ``families``
import ``closure``, ``kernel`` and others by name, so patching only the
defining module would miss those call sites), and restores them after.

Every wrapped call becomes a span with its parent.  A span's self time is
its duration minus the durations of its child spans and of the diagram
products made directly under it.  Products are too many (~10^6 per ledger
build) to keep one span each, so ``multiply`` is a counted leaf: its time
and count are added to the innermost open span.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float
    leaf_s: float  # time in products made directly under this span
    leaf_n: int
    info: object = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        # One [time, count] accumulator per open span, plus one for
        # products made outside every span.
        self._leaf = [[0.0, 0]]
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self._leaf.append([0.0, 0])
        return idx, parent

    def _close(self, idx, parent, name, start, info):
        end = perf_counter()
        self._stack.pop()
        leaf_s, leaf_n = self._leaf.pop()
        self.spans[idx] = Span(name, parent, start, end, leaf_s, leaf_n, info)

    @contextmanager
    def phase(self, name):
        """A root span around one phase of a workload."""
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, None)

    def span_wrapper(self, name, fn, count=None, info=None):
        """Wrap fn so each call records a span; count(result, args) -> dict."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start,
                              info(args) if info is not None else None)
            if count is not None:
                tracer.counts.update(count(result, args))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf_wrapper(self, fn):
        """Wrap fn as a counted leaf: no span, time added to the open span."""
        leaf = self._leaf

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            acc = leaf[-1]
            acc[0] += perf_counter() - start
            acc[1] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def patch_function(self, original, wrapper):
        """Replace `original` by `wrapper` in every brauerkit module namespace."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "brauerkit"
                                   or mod_name.startswith("brauerkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original!r} is bound in no brauerkit module")

    def patch_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._patched.append((cls, attr, original))

    def unpatch(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def retime(self, clock):
        """Move every span onto another clock (a map of perf_counter times).

        Products made under a span are rescaled with that span.
        """
        for sp in self.spans:
            start, end = clock(sp.start), clock(sp.end)
            if sp.end > sp.start:
                sp.leaf_s *= (end - start) / (sp.end - sp.start)
            sp.start, sp.end = start, end

    def self_times(self):
        """Self time of every span, by index."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.duration
        return [sp.duration - child[i] - sp.leaf_s
                for i, sp in enumerate(self.spans)]

    def root_of(self):
        """Index of the root span above each span."""
        roots = []
        for i, sp in enumerate(self.spans):
            roots.append(i if sp.parent < 0 else roots[sp.parent])
        return roots

    def by_phase(self):
        """{phase: {span name or 'products': self seconds}} and product counts."""
        selfs = self.self_times()
        roots = self.root_of()
        table = defaultdict(lambda: defaultdict(float))
        products = Counter()
        for i, sp in enumerate(self.spans):
            phase = self.spans[roots[i]].name
            table[phase][sp.name] += selfs[i]
            table[phase]["products"] += sp.leaf_s
            products[phase] += sp.leaf_n
        return table, products

    def product_totals(self):
        """(seconds, count) of every product made while tracing."""
        seconds, count = self._leaf[0]
        for sp in self.spans:
            seconds += sp.leaf_s
            count += sp.leaf_n
        return seconds, count

    def dump(self, path):
        rows = [[sp.name, sp.parent, round(sp.start, 6), round(sp.duration, 6),
                 round(sp.leaf_s, 6), sp.leaf_n, sp.info] for sp in self.spans]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump({"columns": ["name", "parent", "start", "duration",
                                   "product_s", "products", "info"],
                       "spans": rows, "counts": dict(self.counts)}, fh)
        os.replace(tmp, path)
