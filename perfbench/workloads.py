"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, does the timed
work in ``run`` and checks again what ``run`` produced in ``replay``
(timed separately as ``replay_s``).  Every call into brauerkit goes through
the package namespace at call time (``bk.kernel(...)``), so that the traced
run's wrappers see it.

An operation is the table build, one check replay, one instance analysed,
one cache round trip, or one kernel.  ``Ops`` counts them and their
failures; a failure never stops the workload.
"""

from __future__ import annotations

import math
import random
import shutil
import sys
import tempfile
import traceback
from contextlib import nullcontext

import numpy as np

import brauerkit as bk
from brauerkit import store
from layers import replay_span_name


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, label, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: {why or 'wrong result'}")

    def attempt(self, label, fn):
        """Run fn() -> bool as one operation; an exception counts as failed."""
        try:
            ok = bool(fn())
        except Exception:  # a failing operation is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.record(label, False, "raised " + traceback.format_exc(limit=0).strip())
            return False
        self.record(label, ok)
        return ok


class Table:
    """`brauerkit complexity`: build the ledger, derive, replay every check."""

    def __init__(self, seed, workdir, span=None):
        self.seed = seed
        self.span = span or (lambda name: nullcontext())
        self.ledger = None

    def setup(self):
        """The only input is the derive order, which is the seed."""

    def run(self, ops):
        def build():
            self.ledger = bk.build_standard_ledger()
            entries = self.ledger.derive_all(order_seed=self.seed)
            rows = bk.standard_table(entries)
            want = bk.expected_table()
            got = {(r["family"], r["n"]): (r["lo"], r["hi"]) for r in rows}
            return got == want

        ops.attempt("table build", build)

    def replay(self, ops):
        if self.ledger is None:
            return
        for check in self.ledger.checks.values():
            if check.rerun is None:
                continue
            with self.span(replay_span_name(check.name)):
                ops.attempt(f"replay {check.check_id} {check.name}",
                            lambda c=check: bool(c.rerun()) == c.passed)

    def counts(self):
        return {"ledger.checks": len(self.ledger.checks) if self.ledger else 0}

    def close(self):
        self.ledger = None


def _involutions(m):
    """Partial matchings on m points: I(k) = I(k-1) + (k-1) I(k-2)."""
    a, b = 1, 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


class Census:
    """`brauerkit gen` on each instance with a cold cache, then read back."""

    # (family, degree) -> (size, aperiodic, essential depth).  Sizes are the
    # closed forms where the family has one; A:8, EA:8 and the Green
    # invariants are the values the seed commit computes.
    EXPECTED = {
        ("B", 6): (math.prod(range(1, 12, 2)), False, 3),  # 11!!
        ("A", 8): (9996, False, 4),
        ("J", 9): (math.comb(18, 9) // 10, True, 0),  # Catalan(9)
        ("EA", 8): (5096, False, 3),
        ("PB", 5): (_involutions(10), False, 4),
        ("SYM", 7): (math.factorial(7), False, 1),
    }

    def __init__(self, seed, workdir, span=None):
        self.seed = seed
        self.workdir = workdir
        self.cache_dir = None
        self.built = {}

    def setup(self):
        self.order = sorted(self.EXPECTED)
        random.Random(self.seed).shuffle(self.order)
        self.cache_dir = tempfile.mkdtemp(prefix="census-", dir=self.workdir)

    def run(self, ops):
        for family, n in self.order:
            def analyse(family=family, n=n):
                inst, hit = bk.load_or_build(family, n, cache_dir=self.cache_dir)
                sg = bk.as_closure(inst)
                bk.green(sg)
                got = (inst.size, bk.is_aperiodic(sg), bk.essential_depth(sg))
                self.built[family, n] = inst.elements
                return not hit and got == self.EXPECTED[family, n]

            ops.attempt(f"gen {family}:{n}", analyse)

    # One read-back takes ~1 s, too short to time steadily on a shared host.
    READBACK_PASSES = 3

    def replay(self, ops):
        for _ in range(self.READBACK_PASSES):
            for family, n in self.order:
                def round_trip(family=family, n=n):
                    loaded = bk.load_cache(store.cache_path(self.cache_dir, family, n))
                    return ((loaded.family, loaded.degree) == (family, n)
                            and loaded.elements == self.built.get((family, n)))

                ops.attempt(f"round trip {family}:{n}", round_trip)

    def counts(self):
        return {}

    def close(self):
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.built.clear()


def _t1sub_ea6():
    """The chain-generated submonoid of EA:6, as build_standard_ledger makes it."""
    zeta2 = bk.rotation(6) * bk.rotation(6)
    g5 = bk.adjacent_contraction(6, 5)
    g65 = bk.adjacent_contraction(6, 6) * g5
    return bk.closure([zeta2, g5, g65, bk.double_contraction(6)],
                      include_identity=True)


class KernelMismatch(Exception):
    pass


def recheck_kernel(sg, result):
    """Check a KernelResult from the product table alone.

    The kernel must hold every idempotent, be closed under products and
    under weak conjugation (x k x̄ and x̄ k x for every x̄ x x̄ = x̄), and its
    reported aperiodicity must match a power test: k is aperiodic iff
    k^N k = k^N for some N at least its index, here N = 2^bitlen(m).
    Raises KernelMismatch naming the first check that fails.
    """
    table = np.asarray(sg.product_table())
    m = sg.size
    kids = np.asarray(result.kernel_ids, dtype=np.intp)
    member = np.zeros(m, dtype=bool)
    member[kids] = True
    if not member[list(sg.idempotent_ids())].all():
        raise KernelMismatch("misses an idempotent")
    if not member[table[np.ix_(kids, kids)]].all():
        raise KernelMismatch("not closed under products")
    rows = np.arange(m)[:, None]
    for xbar, x in zip(*np.nonzero(table[table, rows] == rows)):
        if not (member[table[table[x, kids], xbar]].all()
                and member[table[table[xbar, kids], x]].all()):
            raise KernelMismatch(f"not closed under weak conjugation by {x}, {xbar}")
    power = kids.copy()
    for _ in range(m.bit_length()):
        power = table[power, power]
    aperiodic = bool((table[power, kids] == power).all())
    if aperiodic != result.is_aperiodic:
        raise KernelMismatch(
            f"aperiodicity reported {result.is_aperiodic}, power test {aperiodic}")


class Kernels:
    """`kernel()` on five closures that are cheap to build."""

    # name -> (kernel size, kernel aperiodic), as the seed commit computes.
    EXPECTED = {
        "PB:4": (649, False),
        "A:6": (323, False),
        "EA:6": (323, False),
        "J:6": (132, True),
        "t1sub(EA:6)": (192, False),
    }

    def __init__(self, seed, workdir, span=None):
        self.seed = seed
        self.results = {}

    def setup(self):
        self.sgs = {f"{code}:{n}": bk.as_closure(bk.construct(code, n))
                    for code, n in (("PB", 4), ("A", 6), ("EA", 6), ("J", 6))}
        self.sgs["t1sub(EA:6)"] = _t1sub_ea6()
        self.order = sorted(self.sgs)
        random.Random(self.seed).shuffle(self.order)

    def run(self, ops):
        for name in self.order:
            try:
                self.results[name] = bk.kernel(self.sgs[name])
            except Exception:  # counted as a failed kernel in replay
                traceback.print_exc(file=sys.stderr)

    def replay(self, ops):
        for name in self.order:
            def check(name=name):
                result = self.results[name]
                recheck_kernel(self.sgs[name], result)
                return (len(result.kernel_ids), result.is_aperiodic) == self.EXPECTED[name]

            ops.attempt(f"kernel {name}", check)

    def counts(self):
        return {}

    def close(self):
        self.results.clear()


WORKLOADS = {"table": Table, "census": Census, "kernels": Kernels}
