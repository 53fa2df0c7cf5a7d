"""Type-II subsemigroup computation.

The group kernel of a finite semigroup S is the smallest subsemigroup
containing every idempotent and closed under weak conjugation: whenever
x̄xx̄ = x̄ and k is in the kernel, xkx̄ and x̄kx are too.  By Ash's theorem
this coincides with the set of elements related to the group identity
under every relational morphism into a group, so aperiodicity of the
kernel decides membership in the aperiodic-by-group product variety.

The fixpoint is computed from the m x m product table T, where (x, x̄) is
a weak-inverse pair when T[T[x̄, x], x̄] = x̄.

Generator pairs: let A be S's generators plus its identity, when it has
one, so that A generates S.  A product-closed K is closed under weak
conjugation by every pair iff it is closed under the pairs (a, ā) with a
in A.  Write x = a w with a in A; then ā = w x̄ is a weak inverse of a and
w̄ = x̄ a one of w, and x k x̄ = a (w k w̄) ā and x̄ k x = w̄ (ā k a) w, so
the claim follows by induction on the length of x as a word in A.  So the
sets that hold every idempotent and are closed under products and under
the generator pairs are the sets closed under every pair, and the least
of them is the kernel: it is grown from the generator pairs alone.

Rounds: each round closes K under products, then adds the a k ā and
ā k a outside K.  Conjugation acts on K element by element, and before a
round K already holds every conjugate of the last round's K, so a round
conjugates only the ids that joined K in it.  K holds the product of two
of its elements, so a conjugate y ā (y = a k) or ā y (y = k a) is read
only where y or ā is outside K, a block of whole table rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (_PAIR_BATCH, TABLE_CELL_LIMIT, extend_subsemigroup,
                     generated_subsemigroup, period_one)
from .errors import BudgetExceeded, KernelFixpointError


@dataclass(frozen=True)
class KernelResult:
    kernel_ids: np.ndarray  # ascending and read-only
    iterations: int  # generator-pair rounds, the last adding nothing
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


def _generating_set(sg):
    """sg's generators plus its identity, when it has one."""
    gens = sg.generators
    return gens if sg.identity_id is None else np.union1d(gens, [sg.identity_id])


def _weak_inverses(table, gens):
    """For each a in gens, the ascending ids ā with ā a ā = ā, read from
    one m x |gens| gather of the table."""
    ids = np.arange(len(table))[:, None]
    weak = table[table[:, gens], ids] == ids  # weak[ā, i]: ā gens[i] ā = ā
    return [np.flatnonzero(col) for col in weak.T]


def _row_blocks(table, rows, cols):
    """table[rows][:, cols], a block of whole rows at a time: at most
    _PAIR_BATCH // m rows of m cells, or one row when m is larger."""
    if len(cols):
        step = max(1, _PAIR_BATCH // len(table))
        for lo in range(0, len(rows), step):
            yield table[rows[lo:lo + step]][:, cols]


def _lands_in(member, table, rows, cols):
    """True when table[r, c] is in member for every r in rows and c in cols,
    read in row blocks (_row_blocks) up to the first miss."""
    return all(member[block].all() for block in _row_blocks(table, rows, cols))


def _generator_conjugates(table, member, ks, gens, bars):
    """Ids outside member among a k ā and ā k a, for k in ks, a in gens and
    ā in the matching entry of bars (_weak_inverses), ascending.

    member is a mask closed under products, so of the y ā and ā y, with
    y = a k or k a, only those with y or ā outside member are read.
    """
    out = np.zeros(len(table), dtype=bool)
    for a, bar in zip(gens, bars):
        bar_out = bar[~member[bar]]
        for ys, left in ((table[a, ks], True), (table[ks, a], False)):
            hit = np.zeros(len(table), dtype=bool)
            hit[ys] = True
            for y, b in ((np.flatnonzero(hit & ~member), bar),
                         (np.flatnonzero(hit & member), bar_out)):
                for block in _row_blocks(table, *((y, b) if left else (b, y))):
                    out[block] = True
    return np.flatnonzero(out & ~member)


def _check_fixpoint(sg, table, kids):
    """Raise KernelFixpointError unless kids holds every idempotent and is
    closed under products and under weak conjugation.

    Those three facts make kids a superset of the kernel, the least such
    set by Ash's theorem.  Conjugation is tested over the pairs (a, ā) with
    a in A, sg's generators plus its identity, which is the whole test once
    kids is closed under products (the lemma in the module docstring), so
    the check also checks that A generates sg.
    """
    member = np.zeros(len(table), dtype=bool)
    member[kids] = True
    if not _lands_in(member, table, kids, kids):
        raise KernelFixpointError("the kernel is not closed under products")
    if not member[sg.idempotent_ids()].all():
        raise KernelFixpointError("the kernel misses an idempotent")
    gens = _generating_set(sg)
    if len(generated_subsemigroup(sg, gens)) != sg.size:
        raise KernelFixpointError("the generators do not generate the semigroup")
    if _generator_conjugates(table, member, kids, gens, _weak_inverses(table, gens)).size:
        raise KernelFixpointError("the kernel is not closed under weak conjugation")


def kernel(sg):
    """Group kernel of sg by fixpoint iteration from the idempotents.

    Each round extends the product-closed candidate set by the last
    round's conjugates (first the idempotents), then takes the conjugates
    a k ā and ā k a outside it of the ids that joined it in the round, over
    the generator pairs; the first round that adds nothing beyond those
    conjugates is the last.  The fixpoint is checked again from scratch
    (_check_fixpoint): KernelFixpointError unless it holds every
    idempotent and is closed under products and under weak conjugation by
    the generators.  kernel_ids is the kernel's ids as an ascending
    read-only array, and witness the first of them whose period is over 1,
    or None.  Raises BudgetExceeded when sg's product table is over
    TABLE_CELL_LIMIT.
    """
    table = _table(sg)
    gen_set = _generating_set(sg)
    bars = _weak_inverses(table, gen_set)
    member = np.zeros(sg.size, dtype=bool)
    gens, new = [], sg.idempotent_ids()
    iterations = 0
    while True:
        iterations += 1
        before = int(member.sum()) + len(new)
        old = member.copy()
        gens = extend_subsemigroup(sg, member, gens, new)
        new = _generator_conjugates(table, member, np.flatnonzero(member & ~old),
                                    gen_set, bars)
        if int(member.sum()) + len(new) == before:
            break

    kids = np.flatnonzero(member)
    _check_fixpoint(sg, table, kids)
    kids.flags.writeable = False

    periodic = np.flatnonzero(~period_one(sg, kids))
    return KernelResult(
        kernel_ids=kids,
        iterations=iterations,
        is_aperiodic=not periodic.size,
        witness=int(kids[periodic[0]]) if periodic.size else None,
    )
