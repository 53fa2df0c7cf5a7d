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
tests it over the generators and sweeps it only when the test finds
something.  Three facts keep that small, and all hold exactly.

Generator pairs: let A be S's generators plus its identity, when it has
one, so that A generates S.  A product-closed K is closed under weak
conjugation by every pair iff it is closed under the pairs (a, ā) with a
in A.  Write x = a w with a in A; then ā = w x̄ is a weak inverse of a and
w̄ = x̄ a one of w, and x k x̄ = a (w k w̄) ā and x̄ k x = w̄ (ā k a) w, so
the claim follows by induction on the length of x as a word in A.  The
test reads a k ā and ā k a only where y = a k (or k a) or ā is outside K,
since K holds the product of two of its elements.

Semi-naive rounds: before a round, K already holds every conjugate of the
last round's K, and conjugation acts on K element by element, so a round
sweeps only the ids that joined K since the last sweep, and that sweep is
empty iff the generator test finds nothing.  So the test decides whether a
round sweeps at all, and the rounds are those of sweeping every round.

Pruned pairs: K is closed under products, so a pair with x and x̄ both in
K conjugates K into K.  Every other pair has x in
R = (S∖K) ∪ {x : x̄xx̄ = x̄ for some x̄ ∉ K}, and a sweep takes the m x |R|
block P̄[x̄, x] = [x̄xx̄ = x̄] of those columns only.  With W[x, y] = 1 when
y is in xK' for the swept ids K', over the rows x in R, (P̄ W)[x̄, y] > 0
exactly when y x̄ is some x k x̄; likewise with W marking K'x for the
x̄ k x.  The matrices are float32, whose integers are exact up to 2^24,
far above any count here (at most m).  A sweep holds P̄'s m x |R| block,
the |R| x m W and the m x m product P̄ W besides the table and its
transpose, which is built only when a sweep runs.
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


def _generating_set(sg):
    """sg's generators plus its identity, when it has one."""
    gens = sg.generators
    return gens if sg.identity_id is None else np.union1d(gens, [sg.identity_id])


def _lands_in(member, table, rows, cols):
    """True when table[r, c] is in member for every r in rows and c in cols,
    read in blocks of at most _PAIR_BATCH cells up to the first miss."""
    step = max(1, _PAIR_BATCH // max(1, len(cols)))
    return all(member[table[rows[lo:lo + step]][:, cols]].all()
               for lo in range(0, len(rows), step))


def _conjugates_inside(member, table, ys, bars, left):
    """True when y ā (left) or ā y is in member for every y in ys and ā in
    bars.  member is closed under products, so only the cells with y or ā
    outside it are read, as row gathers from the table."""
    hit = np.zeros(len(table), dtype=bool)
    hit[ys] = True
    for rows, cols in ((np.flatnonzero(hit & ~member), bars),
                       (np.flatnonzero(hit & member), bars[~member[bars]])):
        if not _lands_in(member, table, *((rows, cols) if left else (cols, rows))):
            return False
    return True


def _closed_under_generator_conjugation(table, member, gens):
    """True when a k ā and ā k a are in member for every k in member, every
    a in gens and every ā with ā a ā = ā; member is a mask closed under
    products.  The test stops at the first generator with a conjugate
    outside member.
    """
    kids = np.flatnonzero(member)
    ids = np.arange(len(table))[:, None]
    weak = table[table[:, gens], ids] == ids  # weak[ā, i]: ā gens[i] ā = ā
    for a, col in zip(gens, weak.T):
        bars = np.flatnonzero(col)
        if not (_conjugates_inside(member, table, table[a, kids], bars, left=True)
                and _conjugates_inside(member, table, table[kids, a], bars, left=False)):
            return False
    return True


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


def _check_fixpoint(sg, table, kids):
    """Raise KernelFixpointError unless kids holds every idempotent and is
    closed under products and under weak conjugation.

    Those three facts make kids a superset of the kernel, the least such
    set by Ash's theorem.  Conjugation is tested over the pairs (a, ā) with
    a in A, sg's generators plus its identity, which is the whole test once
    kids is closed under products: write x = a w with a in A; then ā = w x̄
    is a weak inverse of a, w̄ = x̄ a one of w, x k x̄ = a (w k w̄) ā and
    x̄ k x = w̄ (ā k a) w, and induct on the length of x as a word in A.  So
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
    if not _closed_under_generator_conjugation(table, member, gens):
        raise KernelFixpointError("the kernel is not closed under weak conjugation")


def kernel(sg):
    """Group kernel of sg by fixpoint iteration from the idempotents.

    Each round extends the product-closed candidate set by the last
    sweep's conjugates (first the idempotents), then, when the generator
    test finds a conjugate outside it, sweeps the ids not swept before over
    the pairs that can leave the set; the first round that adds nothing
    beyond those conjugates is the last.  The fixpoint is checked again
    from scratch (_check_fixpoint): KernelFixpointError unless it holds
    every idempotent and is closed under products and under weak
    conjugation by the generators.  kernel_ids is the kernel's ids as an
    ascending read-only array, and witness the first of them whose period
    is over 1, or None.  Raises BudgetExceeded when sg's product table is
    over TABLE_CELL_LIMIT.
    """
    table = _table(sg)
    tableT = None
    gen_set = _generating_set(sg)
    member = np.zeros(sg.size, dtype=bool)
    gens, new = [], sg.idempotent_ids()
    iterations = 0
    while True:
        iterations += 1
        before = int(member.sum()) + len(new)
        swept = member.copy()
        gens = extend_subsemigroup(sg, member, gens, new)
        fresh = np.flatnonzero(member & ~swept)
        new = fresh[:0]
        if fresh.size and not _closed_under_generator_conjugation(table, member, gen_set):
            if tableT is None:
                tableT = np.ascontiguousarray(table.T)
            new = _outside_conjugates(table, tableT, member, fresh)
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
