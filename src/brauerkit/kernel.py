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
the claim follows by induction on the length of x as a word in A.

Inverse pairs: let a be regular in S, with an inverse a′: a a′ a = a and
a′ a a′ = a′.  A product-closed K that holds every idempotent and is
closed under k ↦ a k a′ and k ↦ a′ k a is closed under k ↦ a k ā and
k ↦ ā k a for every weak inverse ā of a.  For e = ā a and f = a ā are
idempotents, and ā = e a′ f, as ā a a′ a ā = ā a ā = ā; so a k ā =
(a (k e) a′) f and ā k a = e (a′ (f k) a), in K as k e, f k, e and f
are.  So the sets that hold every idempotent and are closed under
products and under one pair (a, a′) per a in A are the sets closed under
every pair, and the least of them is the kernel: it is grown from those
pairs alone.  a′ is the first weak inverse of a, in id order, that is an
inverse; an a with no inverse in S keeps all its weak inverses, by the
generator lemma.

Rounds: each round closes K under products, then adds the a k ā and
ā k a outside K over the chosen pairs.  Conjugation acts on K element by
element, and before a round K already holds every conjugate of the last
round's K, so a round conjugates only the ids that joined K in it, a
block of pairs at a time.  A round takes its seeds one id at a time,
in ascending order, and skips the ids K already holds, so K's seeds G
stay few.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# _PAIR_BATCH is read through engine, so a patch reaches it
from . import engine
from .engine import _table_generators, _words_generate, generated_subsemigroup, period_one
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
    return sg.generators if sg.identity_id is None else np.union1d(sg.generators, [sg.identity_id])


def _blocks(sg, rows, cols):
    """sg._products(rows, cols), a block of rows at a time: at most
    _PAIR_BATCH cells, or one row when cols is longer."""
    step = max(1, engine._PAIR_BATCH // max(1, len(cols)))
    for lo in range(0, len(rows), step):
        yield sg._products(rows[lo:lo + step], cols)


def _weak_inverses(sg, gens):
    """For each a in gens, the ascending ids ā with (ā a) ā = ā: the
    products ā a of every id, then each times its ā."""
    ids = np.arange(sg.size)[:, None]
    weak = sg.multiply(sg._products(ids[:, 0], gens), ids) == ids
    return [np.flatnonzero(col) for col in weak.T]


def _inverses(sg, gens):
    """For each a in gens, [a′]: the first of its weak inverses ā
    (_weak_inverses) with a ā a = a, an inverse of a, or all of them
    when a has no inverse in sg (the lemmas in the module docstring)."""
    bars = _weak_inverses(sg, gens)
    ones = [bar[sg.multiply(a, sg.multiply(bar, a)) == a][:1] for a, bar in zip(gens, bars)]
    return [one if one.size else bar for one, bar in zip(ones, bars)]


def _generator_conjugates(sg, member, ks, gens, bars):
    """Ids outside member among a k ā and ā k a, for k in ks, a in gens and
    ā in the matching entry of bars (_inverses), ascending.

    Each pair (a, ā) gives two rows (x, y), (a, ā) and (ā, a), and a row
    gives the products (x k) y: a k ā, and ā k a as (ā k) a.  A block of
    rows at a time, at most _PAIR_BATCH products or one row, takes its
    x k in one _products call and their products by y in one multiply.
    """
    a = np.repeat(gens, [len(bar) for bar in bars])
    xs, ys = np.concatenate([a, *bars]), np.concatenate([*bars, a])
    out = np.zeros(sg.size, dtype=bool)
    step = max(1, engine._PAIR_BATCH // max(1, len(ks)))
    for lo in range(0, len(xs), step):
        out[sg.multiply(sg._products(xs[lo:lo + step], ks), ys[lo:lo + step, None])] = True
    return np.flatnonzero(out & ~member)


def _check_fixpoint(sg, kids, seeds, gens, bars):
    """Raise KernelFixpointError unless kids holds every idempotent and is
    closed under products and under weak conjugation.

    Those three facts make kids a superset of the kernel, the least such
    set by Ash's theorem.  Products are tested as K G ⊆ K and ⟨G⟩ = K, G
    the seeds, |K| x |G| products in place of |K|^2: write k' in K as
    g_1 ⋯ g_r with each g_i in G; then k g_1 ⋯ g_i is in K for i = 1..r by
    induction on i, as K G ⊆ K, so k k' is in K.

    That A = gens generates sg is proved along sg's BFS words
    (engine._words_generate): every seed and generator is in A, and every
    other id is its parent times its letter's generator.

    Conjugation is tested over the pairs (a, ā) with a in A and ā in the
    matching entry of bars, as kernel() chose them (_inverses).  Each
    entry must hold inverses a′ of a alone, a a′ a = a and a′ a a′ = a′,
    or all of a's weak inverses.  For let K hold every idempotent and be
    closed under products and under k ↦ a k a′ and k ↦ a′ k a.  Any weak
    inverse ā of a is e a′ f, with e = ā a and f = a ā idempotents, as
    ā a a′ a ā = ā a ā = ā; so a k ā = (a (k e) a′) f and
    ā k a = e (a′ (f k) a) are in K.  So K is closed under every (a, ā),
    a in A, and then under every weak-inverse pair (the generator lemma in
    the module docstring): the test over the chosen pairs is the whole
    test.
    """
    member = np.isin(np.arange(sg.size), kids)
    if not all(member[block].all() for block in _blocks(sg, kids, seeds)):
        raise KernelFixpointError("the kernel is not closed under products")
    if not np.array_equal(generated_subsemigroup(sg, seeds), np.flatnonzero(member)):
        raise KernelFixpointError("the seeds do not generate the kernel")
    if not member[sg.idempotent_ids()].all():
        raise KernelFixpointError("the kernel misses an idempotent")
    if not _words_generate(sg, np.isin(np.arange(sg.size), gens)):
        raise KernelFixpointError("the generators do not generate the semigroup")
    for a, bar in zip(gens, bars):
        bar_a = sg.multiply(bar, a)
        inverse = (sg.multiply(bar_a, bar) == bar) & (sg.multiply(a, bar_a) == a)
        if not (bar.size and inverse.all() or np.array_equal(bar, _weak_inverses(sg, [a])[0])):
            raise KernelFixpointError(f"the pairs of {a} are not an inverse pair")
    if _generator_conjugates(sg, member, kids, gens, bars).size:
        raise KernelFixpointError("the kernel is not closed under weak conjugation")


def kernel(sg):
    """Group kernel of sg by fixpoint iteration from the idempotents.

    Each round extends the product-closed candidate set by the last
    round's conjugates (first the idempotents), one seed at a time, then
    takes the conjugates a k a′ and a′ k a outside it of the ids that
    joined it in the round, over one inverse pair (a, a′) per generator
    and the identity (_inverses); the first round that adds nothing beyond
    those conjugates is the last.  The fixpoint is checked again
    (_check_fixpoint), over the same pairs: KernelFixpointError unless
    they are inverse pairs and it holds every idempotent and is closed
    under products and under weak conjugation by them.  kernel_ids is the
    kernel's ids as an ascending read-only array, and witness the first of
    them whose period is over 1, or None.
    """
    sg.product_table()  # kept under TABLE_CELL_LIMIT, so the products below are gathers
    gens = _generating_set(sg)
    bars = _inverses(sg, gens)
    member = np.zeros(sg.size, dtype=bool)
    seeds, new, iterations = [], sg.idempotent_ids(), 0
    while True:
        iterations += 1
        before = int(member.sum()) + len(new)
        old = member.copy()
        seeds = _table_generators(sg, member, seeds, new)
        new = _generator_conjugates(sg, member, np.flatnonzero(member & ~old), gens, bars)
        if int(member.sum()) + len(new) == before:
            break

    kids = np.flatnonzero(member)
    _check_fixpoint(sg, kids, seeds, gens, bars)
    kids.flags.writeable = False

    periodic = kids[~period_one(sg, kids)]
    witness = int(periodic[0]) if periodic.size else None
    return KernelResult(kernel_ids=kids, iterations=iterations,
                        is_aperiodic=witness is None, witness=witness)
