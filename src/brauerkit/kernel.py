"""Type-II subsemigroup computation.

The group kernel of a finite semigroup S is the smallest subsemigroup
containing every idempotent and closed under weak conjugation: whenever
x̄xx̄ = x̄ and k is in the kernel, xkx̄ and x̄kx are too.  By Ash's theorem
this coincides with the set of elements related to the group identity
under every relational morphism into a group, so aperiodicity of the
kernel decides membership in the aperiodic-by-group product variety.

The fixpoint is computed with whole-table matrix operations on the m x m
product table T.  The weak-inverse pairs are one 0/1 matrix P̄, with
P̄[x̄, x] = 1 when T[T[x̄, x], x̄] = x̄.  A weak-conjugation sweep over a
candidate kernel K is two matrix products: with W[x, y] = 1 when y is in
xK, (P̄ W)[x̄, y] > 0 exactly when y x̄ is some x k x̄, and likewise with
W marking Kx for the x̄ k x.  The matrices are float32, whose integers are
exact up to 2^24, far above any count here (at most m).  A sweep holds a
few m x m float32 arrays besides the table, 4 m^2 bytes each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagrams import Parity, parity
from .engine import TABLE_CELL_LIMIT, generated_subsemigroup, period_one
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


def _pair_matrix(table):
    """P̄[x̄, x] = 1.0 when x̄xx̄ = x̄, else 0.0, as float32."""
    rows = np.arange(len(table))[:, None]
    return (table[table, rows] == rows).astype(np.float32)


def weak_inverse_pairs(sg):
    """All ordered pairs (x, x̄) with x̄xx̄ = x̄, ordered by x̄ and then x."""
    xbars, xs = np.nonzero(_pair_matrix(_table(sg)))
    return list(zip(xs.tolist(), xbars.tolist()))


def _conjugates(table, pairs, kids):
    """Mask of every xkx̄ and x̄kx over the weak-inverse pairs and k in kids."""
    m = len(table)
    rows = np.arange(m)[:, None]
    out = np.zeros(m, dtype=bool)
    reach = np.zeros((m, m), dtype=np.float32)
    reach[rows, table[:, kids]] = 1  # reach[x, y]: y in xK
    out[table.T[(pairs @ reach) > 0]] = True  # y x̄ = x k x̄
    reach[:] = 0
    reach[rows, table[kids, :].T] = 1  # reach[x, y]: y in Kx
    out[table[(pairs @ reach) > 0]] = True  # x̄ y = x̄ k x
    return out


def _check_fixpoint(sg, table, pairs, kids):
    """Raise KernelFixpointError unless kids is closed under both operations."""
    if generated_subsemigroup(sg, kids) != list(kids):
        raise KernelFixpointError("the kernel is not closed under products")
    member = np.zeros(len(table), dtype=bool)
    member[kids] = True
    if (_conjugates(table, pairs, kids) & ~member).any():
        raise KernelFixpointError("the kernel is not closed under weak conjugation")


def kernel(sg):
    """Group kernel of sg by fixpoint iteration from the idempotents.

    Each round closes the candidate set under products and then adds one
    weak-conjugation sweep of it, as two matrix products over the pair
    matrix; iteration stops at the first round that adds nothing.  The
    fixpoint is then checked again, raising KernelFixpointError if the
    kernel is not closed under products or a full sweep adds anything.
    Raises BudgetExceeded when sg's product table is over TABLE_CELL_LIMIT.
    """
    table = _table(sg)
    pairs = _pair_matrix(table)
    member = np.zeros(sg.size, dtype=bool)
    member[list(sg.idempotent_ids())] = True
    iterations = 0
    while True:
        iterations += 1
        before = int(member.sum())
        kids = generated_subsemigroup(sg, np.flatnonzero(member))
        member[:] = False
        member[kids] = True
        member |= _conjugates(table, pairs, kids)
        if int(member.sum()) == before:
            break

    kids = [int(i) for i in np.flatnonzero(member)]
    _check_fixpoint(sg, table, pairs, kids)

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

    def sign_of(i):
        p = parity(sg.elements[i])
        if p is Parity.EVEN:
            return (1,)
        if p is Parity.ODD:
            return (-1,)
        if p is Parity.RANK_ZERO:
            return (-1, 1)
        raise ValueError(f"A:4 element {i} has {p.value} parity")

    tau2 = [(x, s) for x in range(sg.size) for s in sign_of(x)]

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

    even_singular = {
        i for i in singular
        if parity(sg.elements[i]) in (Parity.EVEN, Parity.RANK_ZERO)
    }
    expected = even_singular | {sg.identity_id}
    if preimage != expected:
        return False
    return preimage == set(kernel(sg).kernel_ids)
