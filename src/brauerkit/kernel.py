"""Type-II subsemigroup computation.

The group kernel of a finite semigroup S is the smallest subsemigroup
containing every idempotent and closed under weak conjugation: whenever
x̄xx̄ = x̄ and k is in the kernel, xkx̄ and x̄kx are too.  By Ash's theorem
this coincides with the set of elements related to the group identity
under every relational morphism into a group, so aperiodicity of the
kernel decides membership in the aperiodic-by-group product variety.

The fixpoint is computed from the m x m product table T, where (x, x̄) is
a weak-inverse pair when T[T[x̄, x], x̄] = x̄.  Each round extends the
product-closed candidate kernel K by the last sweep's conjugates, then
sweeps it.  Two facts keep a sweep small, and both hold exactly.

Semi-naive rounds: before a round, K already holds every conjugate of the
last round's K, and conjugation acts on K element by element, so a round
sweeps only the ids that joined K since the last sweep.  Each id of the
kernel is swept once.

Pruned pairs: K is closed under products, so a pair with x and x̄ both in
K conjugates K into K.  Every other pair has x in
R = (S∖K) ∪ {x : x̄xx̄ = x̄ for some x̄ ∉ K}, and a sweep takes the m x |R|
block P̄[x̄, x] = [x̄xx̄ = x̄] of those columns only.  With W[x, y] = 1 when
y is in xK' for the swept ids K', over the rows x in R, (P̄ W)[x̄, y] > 0
exactly when y x̄ is some x k x̄; likewise with W marking K'x for the
x̄ k x.  The matrices are float32, whose integers are exact up to 2^24,
far above any count here (at most m).  At the fixpoint |R| = |S∖K|, as
by Ash's theorem the kernel holds the weak inverses of its elements, so a
kernel that is most of S sweeps few pairs.  A sweep holds P̄'s m x |R|
block, the |R| x m W and the m x m product P̄ W besides the table and its
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (TABLE_CELL_LIMIT, extend_subsemigroup, generated_subsemigroup,
                     period_one)
from .errors import BudgetExceeded, KernelFixpointError


@dataclass(frozen=True)
class KernelResult:
    kernel_ids: np.ndarray  # ascending and read-only
    iterations: int
    is_aperiodic: bool
    witness: int | None  # id of a period >= 2 kernel element, when present


def _table(sg):
    """sg's product table as an array; BudgetExceeded when it is too big."""
    table = sg.product_table()
    if table is None:
        raise BudgetExceeded(
            f"the group kernel needs the {sg.size} x {sg.size} product table, "
            f"which is over TABLE_CELL_LIMIT = {TABLE_CELL_LIMIT} cells")
    return np.asarray(table)


def weak_inverse_pairs(sg):
    """All ordered pairs (x, x̄) with x̄xx̄ = x̄, ordered by x̄ and then x."""
    table = _table(sg)
    rows = np.arange(len(table))[:, None]
    xbars, xs = np.nonzero(table[table, rows] == rows)
    return list(zip(xs.tolist(), xbars.tolist()))


def _outside_conjugates(table, tableT, member, ks):
    """Ids outside member among x k x̄ and x̄ k x, for k in ks and the
    pairs with x̄xx̄ = x̄, ascending.

    member is a mask closed under products, so only the pairs with x in
    R = (S∖member) ∪ {x : x̄xx̄ = x̄ for some x̄ ∉ member} are swept;
    tableT is table's transpose, as a C-contiguous array.
    """
    ks = np.asarray(ks, dtype=np.intp)
    outside = np.flatnonzero(~member)
    if not ks.size or not outside.size:
        return outside[:0]
    m = len(table)
    rows = np.arange(m)[:, None]
    xbar = outside[:, None]
    in_r = ~member
    in_r[(table[table[outside], xbar] == xbar).any(axis=0)] = True
    xs = np.flatnonzero(in_r)
    pairs = (table[table[:, xs], rows] == rows).astype(np.float32)
    at = np.arange(len(xs))[:, None]
    out = np.zeros(m, dtype=bool)
    reach = np.zeros((len(xs), m), dtype=np.float32)
    reach[at, table[xs[:, None], ks]] = 1  # reach[x, y]: y in x ks
    out[tableT[(pairs @ reach) > 0]] = True  # y x̄ = x k x̄
    reach[:] = 0
    reach[at, tableT[xs[:, None], ks]] = 1  # reach[x, y]: y in ks x
    out[table[(pairs @ reach) > 0]] = True  # x̄ y = x̄ k x
    return np.flatnonzero(out & ~member)


def _check_fixpoint(sg, table, tableT, kids):
    """Raise KernelFixpointError unless kids is closed under both operations."""
    if not np.array_equal(generated_subsemigroup(sg, kids), kids):
        raise KernelFixpointError("the kernel is not closed under products")
    member = np.zeros(len(table), dtype=bool)
    member[kids] = True
    if _outside_conjugates(table, tableT, member, kids).size:
        raise KernelFixpointError("the kernel is not closed under weak conjugation")


def kernel(sg):
    """Group kernel of sg by fixpoint iteration from the idempotents.

    Each round extends the product-closed candidate set by the last
    sweep's conjugates (first the idempotents), then sweeps the ids not
    swept before over the pairs that can leave the set, and the first round
    that adds nothing beyond those conjugates is the last.  The fixpoint is
    checked again from scratch: KernelFixpointError unless it is closed
    under products and a sweep of all of it adds nothing.  kernel_ids is
    the kernel's ids as an ascending read-only array, and witness the
    first of them whose period is over 1, or None.  Raises BudgetExceeded
    when sg's product table is over TABLE_CELL_LIMIT.
    """
    table = _table(sg)
    tableT = np.ascontiguousarray(table.T)
    member = np.zeros(sg.size, dtype=bool)
    gens, new = [], sg.idempotent_ids()
    iterations = 0
    while True:
        iterations += 1
        before = int(member.sum()) + len(new)
        swept = member.copy()
        gens = extend_subsemigroup(sg, member, gens, new)
        new = _outside_conjugates(table, tableT, member, np.flatnonzero(member & ~swept))
        if int(member.sum()) + len(new) == before:
            break

    kids = np.flatnonzero(member)
    _check_fixpoint(sg, table, tableT, kids)
    kids.flags.writeable = False

    periodic = np.flatnonzero(~period_one(sg, kids))
    return KernelResult(
        kernel_ids=kids,
        iterations=iterations,
        is_aperiodic=not periodic.size,
        witness=int(kids[periodic[0]]) if periodic.size else None,
    )
