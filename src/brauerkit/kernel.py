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

from .diagrams import PARITY_OF_CODE, Parity, even_or_rank_zero, parities
from .engine import (TABLE_CELL_LIMIT, extend_subsemigroup, generated_subsemigroup,
                     period_one)
from .errors import BudgetExceeded, KernelFixpointError


@dataclass(frozen=True)
class KernelResult:
    kernel_ids: tuple
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
    if generated_subsemigroup(sg, kids) != list(kids):
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
    under products and a sweep of all of it adds nothing.  Raises
    BudgetExceeded when sg's product table is over TABLE_CELL_LIMIT.
    """
    table = _table(sg)
    tableT = np.ascontiguousarray(table.T)
    member = np.zeros(sg.size, dtype=bool)
    gens, new = [], np.asarray(sg.idempotent_ids())
    iterations = 0
    while True:
        iterations += 1
        before = int(member.sum()) + len(new)
        swept = member.copy()
        gens = extend_subsemigroup(sg, member, gens, new)
        new = _outside_conjugates(table, tableT, member, np.flatnonzero(member & ~swept))
        if int(member.sum()) + len(new) == before:
            break

    kids = [int(i) for i in np.flatnonzero(member)]
    _check_fixpoint(sg, table, tableT, kids)

    periodic = np.flatnonzero(~period_one(sg, kids))
    return KernelResult(
        kernel_ids=tuple(kids),
        iterations=iterations,
        is_aperiodic=not periodic.size,
        witness=kids[periodic[0]] if periodic.size else None,
    )


def kernel_elements(sg, result):
    return [sg.elements[i] for i in result.kernel_ids]


def in_A_star_G(sg):
    """Aperiodic-by-group membership: the kernel must be aperiodic."""
    return kernel(sg).is_aperiodic


def _is_relational_morphism(pairs, left_mul, right_mul):
    """Check graph closure: (s,t),(s',t') in R implies (ss', tt') in R."""
    pair_set = set(pairs)
    for s, t in pairs:
        for s2, t2 in pairs:
            if (left_mul(s, s2), right_mul(t, t2)) not in pair_set:
                return False
    return True


def verify_parity_morphism_a4():
    """Re-check the two explicit relations witnessing the degree-4 kernel.

    The first relates every non-unit to all units and each unit to itself;
    the second sends rank >= 2 elements to their parity sign and rank-0
    elements to both signs.  Both must be relational morphisms, and the
    joint preimage of (identity, +1) must equal the kernel, which is the
    singular even part plus the identity.
    """
    from .families import as_closure, construct
    from .engine import singular_part, units

    inst = construct("A", 4)
    sg = as_closure(inst)
    unit_ids = set(units(sg))
    singular = set(singular_part(sg))

    tau1 = [(u, u) for u in unit_ids]
    tau1 += [(x, u) for x in singular for u in unit_ids]

    # a MIXED element, which A:4 cannot hold, fails the lookup
    signs = {Parity.EVEN: (1,), Parity.ODD: (-1,), Parity.RANK_ZERO: (-1, 1)}
    tau2 = [(x, s) for x, code in enumerate(parities(sg.labels).tolist())
            for s in signs[PARITY_OF_CODE[code]]]

    ok1 = _is_relational_morphism(tau1, sg.mul, sg.mul)
    ok2 = _is_relational_morphism(tau2, sg.mul, lambda a, b: a * b)
    if not (ok1 and ok2):
        return False
    # total domain
    if {s for s, _ in tau1} != set(range(sg.size)):
        return False
    if {s for s, _ in tau2} != set(range(sg.size)):
        return False

    t1 = {s for s, t in tau1 if t == sg.identity_id}
    t2 = {s for s, t in tau2 if t == 1}
    preimage = t1 & t2

    even = even_or_rank_zero(sg.labels)
    even_singular = {i for i in singular if even[i]}
    expected = even_singular | {sg.identity_id}
    if preimage != expected:
        return False
    return preimage == set(kernel(sg).kernel_ids)
