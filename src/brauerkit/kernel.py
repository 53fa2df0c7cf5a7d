"""Type-II subsemigroup computation.

The group kernel of a finite semigroup S is the smallest subsemigroup
containing every idempotent and closed under weak conjugation: whenever
x̄xx̄ = x̄ and k is in the kernel, xkx̄ and x̄kx are too.  By Ash's theorem
this coincides with the set of elements related to the group identity
under every relational morphism into a group, so aperiodicity of the
kernel decides membership in the aperiodic-by-group product variety.

Every product is read through sg.multiply and sg._products, so the engine
picks the path from sg's size: gathers from the product table when it is
under TABLE_CELL_LIMIT, word walks otherwise.  (x, x̄) is a weak-inverse
pair when (x̄ x) x̄ = x̄.

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
only where y or ā is outside K, a block of products at a time.  A round
takes its seeds one id at a time, in ascending order, and skips the ids
K already holds, so K's seeds G stay few.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# _PAIR_BATCH is read through engine, so a patch reaches it
from . import engine
from .engine import _table_generators, generated_subsemigroup, period_one
from .errors import KernelFixpointError


@dataclass(frozen=True)
class KernelResult:
    kernel_ids: np.ndarray  # ascending and read-only
    iterations: int  # generator-pair rounds, the last adding nothing
    is_aperiodic: bool
    witness: int | None  # id of a period >= 2 kernel element, when present


def weak_inverse_pairs(sg):
    """All ordered pairs (x, x̄) with x̄xx̄ = x̄, ordered by x̄ and then x."""
    bars = _weak_inverses(sg, np.arange(sg.size))
    pairs = ((x, xbar) for x, bar in enumerate(bars) for xbar in bar.tolist())
    return sorted(pairs, key=lambda pair: pair[::-1])


def _generating_set(sg):
    """sg's generators plus its identity, when it has one."""
    gens = sg.generators
    return gens if sg.identity_id is None else np.union1d(gens, [sg.identity_id])


def _blocks(sg, rows, cols):
    """sg._products(rows, cols), a block of rows at a time: at most
    _PAIR_BATCH cells, or one row when cols is longer."""
    if len(cols):
        step = max(1, engine._PAIR_BATCH // len(cols))
        for lo in range(0, len(rows), step):
            yield sg._products(rows[lo:lo + step], cols)


def _weak_inverses(sg, gens):
    """For each a in gens, the ascending ids ā with (ā a) ā = ā: the
    products ā a of every id, then each times its ā."""
    ids = np.arange(sg.size)[:, None]
    weak = sg.multiply(sg._products(ids[:, 0], gens), ids) == ids
    return [np.flatnonzero(col) for col in weak.T]


def _generator_conjugates(sg, member, ks, gens, bars):
    """Ids outside member among a k ā and ā k a, for k in ks, a in gens and
    ā in the matching entry of bars (_weak_inverses), ascending.

    member is a mask closed under products, so of the y ā and ā y, with
    y = a k or k a, only those with y or ā outside member are read.
    """
    out = np.zeros(sg.size, dtype=bool)
    for a, bar in zip(gens, bars):
        bar_out = bar[~member[bar]]
        for ys, left in ((sg.multiply(a, ks), True), (sg.multiply(ks, a), False)):
            hit = np.zeros(sg.size, dtype=bool)
            hit[ys] = True
            for y, b in ((np.flatnonzero(hit & ~member), bar),
                         (np.flatnonzero(hit & member), bar_out)):
                for block in _blocks(sg, *((y, b) if left else (b, y))):
                    out[block] = True
    return np.flatnonzero(out & ~member)


def _check_fixpoint(sg, kids, seeds, gens, bars):
    """Raise KernelFixpointError unless kids holds every idempotent and is
    closed under products and under weak conjugation.

    Those three facts make kids a superset of the kernel, the least such
    set by Ash's theorem.  Products are tested as K G ⊆ K and ⟨G⟩ = K, G
    the seeds, |K| x |G| products in place of |K|^2: write k' in K as
    g_1 ⋯ g_r with each g_i in G; then k g_1 ⋯ g_i is in K for i = 1..r by
    induction on i, as K G ⊆ K, so k k' is in K.  Conjugation is tested
    over the pairs (a, ā) with a in gens, A = _generating_set(sg), and ā
    in the matching entry of bars (_weak_inverses(sg, gens)), as kernel()
    computed them; that is the whole test once kids is closed under
    products (the lemma in the module docstring), so the check also checks
    that A generates sg.
    """
    member = np.zeros(sg.size, dtype=bool)
    member[kids] = True
    if not all(member[block].all() for block in _blocks(sg, kids, seeds)):
        raise KernelFixpointError("the kernel is not closed under products")
    if not np.array_equal(generated_subsemigroup(sg, seeds), np.flatnonzero(member)):
        raise KernelFixpointError("the seeds do not generate the kernel")
    if not member[sg.idempotent_ids()].all():
        raise KernelFixpointError("the kernel misses an idempotent")
    if len(generated_subsemigroup(sg, gens)) != sg.size:
        raise KernelFixpointError("the generators do not generate the semigroup")
    if _generator_conjugates(sg, member, kids, gens, bars).size:
        raise KernelFixpointError("the kernel is not closed under weak conjugation")


def kernel(sg):
    """Group kernel of sg by fixpoint iteration from the idempotents.

    Each round extends the product-closed candidate set by the last
    round's conjugates (first the idempotents), one seed at a time, then
    takes the conjugates a k ā and ā k a outside it of the ids that joined
    it in the round, over the generator pairs; the first round that adds
    nothing beyond those conjugates is the last.  The fixpoint is checked
    again (_check_fixpoint), over the same generator pairs:
    KernelFixpointError unless it holds every idempotent and is closed
    under products and under weak conjugation by the generators.
    kernel_ids is the kernel's ids as an ascending read-only array, and
    witness the first of them whose period is over 1, or None.
    """
    sg.product_table()  # kept under TABLE_CELL_LIMIT, so the products below are gathers
    gen_set = _generating_set(sg)
    bars = _weak_inverses(sg, gen_set)
    member = np.zeros(sg.size, dtype=bool)
    seeds, new = [], sg.idempotent_ids()
    iterations = 0
    while True:
        iterations += 1
        before = int(member.sum()) + len(new)
        old = member.copy()
        seeds = _table_generators(sg, member, seeds, new)
        new = _generator_conjugates(sg, member, np.flatnonzero(member & ~old),
                                    gen_set, bars)
        if int(member.sum()) + len(new) == before:
            break

    kids = np.flatnonzero(member)
    _check_fixpoint(sg, kids, seeds, gen_set, bars)
    kids.flags.writeable = False

    periodic = np.flatnonzero(~period_one(sg, kids))
    return KernelResult(
        kernel_ids=kids,
        iterations=iterations,
        is_aperiodic=not periodic.size,
        witness=int(kids[periodic[0]]) if periodic.size else None,
    )
