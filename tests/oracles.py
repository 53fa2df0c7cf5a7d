"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's algorithms: products go
through repeated set merging instead of union-find, planarity through an
explicit nesting stack instead of depth counts over label arrays,
annularity through relabeling the boundary one pair of row rotations at a
time, rank and parity through the signed blocks one block at a time, and
counts through recurrences distinct from the closed forms in the
library.  Only the public Diagram constructor, the signed block view and
the Parity names are shared, since tests must talk about the same
objects.

The exceptions are the sections on closures and on closure analyses by
diagram products: the engine searches closures in batches of label
arrays and answers analyses by integer walks over a closure's Cayley
data, and the references here multiply the diagrams themselves, one
product at a time: the closure searches with the merging product above,
and the analyses with oracle_product, BlocksDiagram's union-find product
below, which is faster.  Neither goes through the package's own diagram
product, and oracle_closure takes one product per (element, generator)
pair, where the engine looks most of them up in the left Cayley graph.
oracle_random_partial_brauer keeps the sampler that sorted its blocks,
which random_partial_brauer replaced by writing the label row.  oracle_is_inverse
keeps the commuting-idempotents test that the engine replaced by counting
idempotents per Green class, and count_products counts the package's own
diagram products, for tests that require none.  BlocksDiagram keeps the
diagram as its tuple of sorted blocks, with the block-by-block label
array loop and union-find product that Diagram's label bytes replaced,
and the block-by-block star, row turns and end-cap padding that the
label-array transforms stars, turned and pads replaced (oracle_star,
oracle_turned, oracle_pad),
and oracle_green keeps the per-element loops over Green's SCC labels that
engine.green replaced with numpy, and scipy's strong components of the
right, left and summed Cayley graphs, built through COO, that it replaced
with one numpy strong-component pass over the right Cayley graph, the
R-class quotient for J and stability for L.  oracle_strong_components and
oracle_l_leq keep scipy's strong components and breadth-first search,
which engine._strong_components and the frontier searches of
engine._down_sets replaced; scipy is a test dependency only.
oracle_period_one keeps the period test by repeated squaring, one batched
product per squaring, that engine.period_one replaced with the gathers of
its squaring map.
oracle_green_all_generators keeps the analysis of a product table with
every element as a generator, which table-backed closures replaced with
a small generating set found from the table.  oracle_dense_kernel keeps
the kernel fixpoint whose every round sweeps all of the candidate set
over every weak-inverse pair, which kernel.kernel replaced with rounds
over the generator pairs alone; it closes its sets with _oracle_closure
and tests periods with oracle_period_one, not with the engine's
subsemigroup search and squaring map.  oracle_generator_kernel runs
kernel.kernel's rounds one (a, ā, k) at a time in plain Python, each
round over all of the set, where kernel.kernel takes only the ids new to
it and reads only the table cells that can leave it.
oracle_principal_ideal keeps the breadth-first search over the summed
Cayley graphs that principal_ideal replaced by reading the J-order, and
oracle_associativity_failure the loop of scalar products that
_spot_check_associativity replaced by four batched ones.
oracle_restricted_table keeps the k x k restriction of a closure's
products that subsemigroup and rees_quotient replaced by searches over
the parent's ids with k x |generators| products.  table_closure builds
the semigroup of a product table, such as the random transformation
semigroups T:k, as the subsemigroup of all of a TableProduct's ids, so
by the same integer search; TableProduct reads a table as a semigroup
whose products are gathers.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from brauerkit import (
    Diagram,
    Parity,
    closure,
    diagram,
    diagrams,
    green,
    identity,
)
from brauerkit import engine
from brauerkit.engine import GreenData, SemigroupClosure
from brauerkit.errors import BadDegree, BadIndex, BudgetExceeded


def signed_blocks(a):
    return a.signed_blocks


# ---------------------------------------------------------------------------
# multiplication by repeated merging


def oracle_multiply(a, b):
    """Stack a over b, merging blocks through the shared middle row."""
    assert a.n == b.n
    n = a.n
    parts = []
    for block in a.signed_blocks:
        parts.append({("bot", p) if p > 0 else ("mid", -p) for p in block})
    for block in b.signed_blocks:
        parts.append({("mid", p) if p > 0 else ("top", -p) for p in block})
    changed = True
    while changed:
        changed = False
        for i in range(len(parts)):
            if parts[i] is None:
                continue
            for j in range(i + 1, len(parts)):
                if parts[j] is None or not (parts[i] & parts[j]):
                    continue
                parts[i] |= parts[j]
                parts[j] = None
                changed = True
    out = []
    for part in parts:
        if part is None:
            continue
        keep = [p for layer, p in part if layer == "bot"]
        keep += [-p for layer, p in part if layer == "top"]
        if keep:
            out.append(keep)
    return diagram(n, out)


# ---------------------------------------------------------------------------
# enumeration


def oracle_perfect_matchings(n):
    """All ways to pair up the 2n signed points, as diagrams."""
    points = list(range(1, n + 1)) + list(range(-1, -n - 1, -1))

    def rec(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for k, other in enumerate(tail):
            for more in rec(tail[:k] + tail[k + 1:]):
                yield [[first, other]] + more

    return {diagram(n, blocks) for blocks in rec(points)}


def oracle_partial_matchings(n):
    points = list(range(1, n + 1)) + list(range(-1, -n - 1, -1))

    def rec(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for more in rec(tail):
            yield [[first]] + more
        for k, other in enumerate(tail):
            for more in rec(tail[:k] + tail[k + 1:]):
                yield [[first, other]] + more

    return {diagram(n, blocks) for blocks in rec(points)}


def oracle_set_partitions(n):
    points = list(range(1, n + 1)) + list(range(-1, -n - 1, -1))

    def rec(rest):
        if not rest:
            yield []
            return
        first, tail = rest[0], rest[1:]
        for more in rec(tail):
            yield [[first]] + more
            for i in range(len(more)):
                yield more[:i] + [more[i] + [first]] + more[i + 1:]

    return {diagram(n, blocks) for blocks in rec(points)}


def circle_order(n):
    """Points in boundary order: bottom left to right, then top right to left."""
    return list(range(1, n + 1)) + list(range(-n, 0))


def oracle_noncrossing_perfect(n):
    """Non-crossing perfect matchings in the boundary order, as diagrams."""
    order = circle_order(n)

    def rec(segment):
        if not segment:
            yield []
            return
        first = segment[0]
        for k in range(1, len(segment), 2):
            left, right = segment[1:k], segment[k + 1:]
            for lm in rec(left):
                for rm in rec(right):
                    yield [[first, segment[k]]] + lm + rm

    return {diagram(n, blocks) for blocks in rec(order)}


# ---------------------------------------------------------------------------
# planarity and annularity


def _nested(pos, blocks):
    """Stack-nesting test: no two of these blocks of signed points, each of
    size <= 2, cross in the boundary order pos (point -> position)."""
    other_end = [None] * len(pos)
    for block in blocks:
        if len(block) > 2:
            raise ValueError("oracle only handles pair diagrams")
        if len(block) == 2:
            i, j = (pos[p] for p in block)
            other_end[i], other_end[j] = j, i
    stack = []  # where the open arcs close, innermost last
    for t, end in enumerate(other_end):
        if end is None:
            continue
        if end > t:
            stack.append(end)
        elif stack.pop() != t:
            return False
    return True


def _boundary(n):
    return {p: i for i, p in enumerate(circle_order(n))}


def oracle_planar_pairs(a):
    """Stack-nesting planarity test for diagrams with blocks of size <= 2."""
    return _nested(_boundary(a.n), a.signed_blocks)


@functools.lru_cache(maxsize=None)
def _turned_boundaries(n):
    """For each pair (p, q), the boundary position of every signed point
    once bottom labels advance by p and top labels by q (mod n)."""
    order = _boundary(n)
    return [{x: order[(x - 1 + p) % n + 1 if x > 0 else -((-x - 1 + q) % n + 1)]
             for x in order}
            for p in range(n) for q in range(n)]


def oracle_annular(a):
    blocks = a.signed_blocks
    return any(_nested(pos, blocks) for pos in _turned_boundaries(a.n))


def oracle_rank(a):
    """The number of blocks with points on both rows."""
    return sum(min(block) < 0 < max(block) for block in a.signed_blocks)


def oracle_parity(a):
    """Parity from the sums i + j over the bottom points i and top points
    j' (signed -j) of each through block: a block is even when all are
    even, odd when all are odd, and both when they mix."""
    kinds = set()
    for block in a.signed_blocks:
        kinds |= {(i - t) % 2 for i in block if i > 0 for t in block if t < 0}
    if not kinds:
        return Parity.RANK_ZERO
    return {frozenset({0}): Parity.EVEN,
            frozenset({1}): Parity.ODD}.get(frozenset(kinds), Parity.MIXED)


# ---------------------------------------------------------------------------
# counting recurrences


def oracle_catalan(n):
    # segment recurrence, not the binomial closed form
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(table[k] * table[m - 1 - k] for k in range(m)))
    return table[n]


def oracle_double_factorial_odd(n):
    # pairing recurrence f(n) = (2n-1) f(n-1)
    if n <= 0:
        return 1
    return (2 * n - 1) * oracle_double_factorial_odd(n - 1)


def oracle_involutions(m):
    # sum over the number of 2-cycles, not the two-term recurrence
    import math
    total = 0
    for k in range(m // 2 + 1):
        total += math.factorial(m) // (
            math.factorial(k) * (2 ** k) * math.factorial(m - 2 * k)
        )
    return total


def oracle_bell(m):
    # Stirling-number triangle, not the Bell triangle
    stirling = [[1]]
    for row in range(1, m + 1):
        prev = stirling[-1]
        cur = [0] * (row + 1)
        for k in range(1, row + 1):
            above = prev[k] if k < len(prev) else 0
            cur[k] = prev[k - 1] + k * above
        stirling.append(cur)
    return sum(stirling[m])


def oracle_motzkin(m):
    # M(m) counts partial non-crossing pairings of m linear points
    table = [1, 1]
    for k in range(2, m + 1):
        table.append(
            table[k - 1]
            + sum(table[i] * table[k - 2 - i] for i in range(k - 1))
        )
    return table[m]


def oracle_random_pair_diagram(n, rng):
    """Random partial matching, independent of the library samplers."""
    points = list(range(1, n + 1)) + list(range(-1, -n - 1, -1))
    rng.shuffle(points)
    blocks = []
    while points:
        p = points.pop()
        if points and rng.random() < 0.7:
            blocks.append([p, points.pop()])
        else:
            blocks.append([p])
    return diagram(n, blocks)


def oracle_random_brauer(n, rng):
    """Random degree-n perfect matching: the shuffled points paired off in
    order."""
    pts = list(range(2 * n))
    rng.shuffle(pts)
    blocks = [(pts[i], pts[i + 1]) for i in range(0, 2 * n, 2)]
    return Diagram(n, tuple(sorted(tuple(sorted(b)) for b in blocks)))


_PAIR_PROB = 0.7  # chance that oracle_random_partial_brauer pairs a point


def oracle_random_partial_brauer(n, rng):
    """diagrams.random_partial_brauer as it was before it wrote label rows:
    the same random calls, with the blocks sorted and the Diagram built
    from them."""
    pts = list(range(2 * n))
    rng.shuffle(pts)
    blocks = []
    while pts:
        p = pts.pop()
        if pts and rng.random() < _PAIR_PROB:
            q = pts.pop(rng.randrange(len(pts)))
            blocks.append((p, q))
        else:
            blocks.append((p,))
    return Diagram(n, tuple(sorted(tuple(sorted(b)) for b in blocks)))


# ---------------------------------------------------------------------------
# diagrams as tuples of sorted blocks


@dataclass(frozen=True, slots=True)
class BlocksDiagram:
    """A degree-n diagram held as its blocks: sorted tuples of point codes
    (bottom i -> i-1, top i -> n+i-1), listed by least point."""

    n: int
    blocks: tuple

    @classmethod
    def of(cls, n, blocks):
        return cls(n, tuple(sorted(tuple(sorted(b)) for b in blocks)))

    def _through(self):
        return [b for b in self.blocks if b[0] < self.n <= b[-1]]

    @property
    def rank(self):
        return len(self._through())

    def star(self):
        n = self.n
        return BlocksDiagram.of(n, [[p + n if p < n else p - n for p in b]
                                    for b in self.blocks])

    def turned(self, dbot, dtop):
        """Bottom indices rotated by dbot and top indices by dtop (mod n)."""
        n = self.n
        return BlocksDiagram.of(n, [[(p + dbot) % n if p < n else n + (p - n + dtop) % n
                                     for p in b] for b in self.blocks])

    def padded(self, target_n):
        """Degree target_n = n + 2, with caps {n+1, n+2} appended on both rows."""
        if target_n != self.n + 2:
            raise BadDegree(f"target degree must be {self.n + 2}, got {target_n}")
        blocks = [[p if p < self.n else p + 2 for p in b] for b in self.blocks]
        blocks += [(target_n - 2, target_n - 1), (2 * target_n - 2, 2 * target_n - 1)]
        return BlocksDiagram.of(target_n, blocks)

    def __mul__(self, other):
        """Union-find over the 3n points of the stacked picture: self's
        points 0..2n-1 and other's point q as q + n.  Each block of self is
        a tree rooted at its least point, other's blocks are joined to them,
        and the components met by the outer rows, listed by least point,
        are the product's blocks."""
        n = self.n
        parent = list(range(3 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for block in self.blocks:
            for p in block[1:]:
                parent[p] = block[0]
        for block in other.blocks:
            r = find(block[0] + n)
            for p in block[1:]:
                rp = find(p + n)
                if rp != r:
                    parent[rp] = r
        groups = {}
        for p in range(n):
            groups.setdefault(find(p), []).append(p)
        for p in range(2 * n, 3 * n):
            groups.setdefault(find(p), []).append(p - n)
        return BlocksDiagram(n, tuple(map(tuple, groups.values())))


def oracle_product(a, b):
    """The Diagram a*b by BlocksDiagram's union-find product, not by the
    package's."""
    assert a.n == b.n
    product = BlocksDiagram(a.n, a.blocks) * BlocksDiagram(b.n, b.blocks)
    return Diagram(a.n, product.blocks)


def _by_blocks(a, transform, *args):
    """The Diagram of transform applied to a's BlocksDiagram."""
    out = transform(BlocksDiagram(a.n, a.blocks), *args)
    return Diagram(out.n, out.blocks)


def oracle_star(a):
    return _by_blocks(a, BlocksDiagram.star)


def oracle_turned(a, dbot, dtop):
    """a with its bottom row turned by dbot and its top row by dtop: shift
    by k is dbot = dtop = k, and twist by k is dbot = 0, dtop = k."""
    return _by_blocks(a, BlocksDiagram.turned, dbot, dtop)


def oracle_pad(a, target_n):
    return _by_blocks(a, BlocksDiagram.padded, target_n)


def oracle_restricted_growth(labs):
    """Per row of labs: the first label is 0 and each later one is at least
    0 and at most one above every label before it, by a loop over labels."""
    out = []
    for row in np.asarray(labs).tolist():
        top, ok = -1, True
        for lab in row:
            ok &= 0 <= lab <= top + 1
            top = max(top, lab)
        out.append(ok)
    return out


def oracle_label_array(ds, n):
    """The label arrays of the degree-n diagrams ds, block by block."""
    rows = []
    for d in ds:
        row = [0] * (2 * n)
        for k, b in enumerate(d.blocks):
            for p in b:
                row[p] = k
        rows.append(row)
    return np.array(rows, dtype=diagrams.label_dtype(n)).reshape(len(rows), 2 * n)


# ---------------------------------------------------------------------------
# group kernel by a per-pair sweep and by whole-table sweeps


def oracle_weak_inverse_pairs(sg, formulation="bar"):
    """Ordered pairs (x, x̄), one scalar sg.multiply at a time.

    "bar" requires x̄xx̄ = x̄, listed by x̄ and then x; "self" requires
    xx̄x = x, listed by x and then x̄.
    """
    m, mul = sg.size, _scalar_product(sg)
    if formulation == "bar":
        return [(x, xbar) for xbar in range(m) for x in range(m)
                if mul(mul(xbar, x), xbar) == xbar]
    if formulation == "self":
        return [(x, xbar) for x in range(m) for xbar in range(m)
                if mul(mul(x, xbar), x) == x]
    raise ValueError(f"unknown formulation {formulation!r}")


def _oracle_closure(table, seeds):
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        new = {table[x][s] for x in frontier for s in seeds} - closed
        closed |= new
        frontier = list(new)
    return closed


def _oracle_period(table, x):
    seen = {}
    power, k = x, 1
    while power not in seen:
        seen[power] = k
        power = table[power][x]
        k += 1
    return k - seen[power]


def oracle_kernel(sg, sweep_order="forward", formulation="bar"):
    """Group kernel as (ids, rounds, aperiodic, witness), one pair at a time.

    Each round closes the set under products, then sweeps every
    weak-inverse pair (x, x̄) in the given order, adding xkx̄ and x̄kx for
    every k in the closed set, and stops at the first round that adds
    nothing.  The witness is the smallest kernel id of period >= 2.
    """
    table = np.asarray(sg.product_table())
    rows = table.tolist()
    pairs = oracle_weak_inverse_pairs(sg, formulation)
    if sweep_order == "reversed":
        pairs = pairs[::-1]
    elif sweep_order != "forward":
        raise ValueError(f"unknown sweep order {sweep_order!r}")
    member = np.zeros(sg.size, dtype=bool)
    member[[i for i in range(sg.size) if rows[i][i] == i]] = True
    rounds = 0
    while True:
        rounds += 1
        before = int(member.sum())
        kids = np.array(sorted(_oracle_closure(rows, np.flatnonzero(member).tolist())))
        member[:] = False
        member[kids] = True
        for x, xbar in pairs:
            member[table[table[x, kids], xbar]] = True
            member[table[table[xbar, kids], x]] = True
        if int(member.sum()) == before:
            break
    kids = np.flatnonzero(member).tolist()
    witness = next((k for k in kids if _oracle_period(rows, k) != 1), None)
    return tuple(kids), rounds, witness is None, witness


def dense_pair_matrix(table):
    """P̄[x̄, x] = 1.0 when x̄xx̄ = x̄, else 0.0, as float32."""
    rows = np.arange(len(table))[:, None]
    return (table[table, rows] == rows).astype(np.float32)


def dense_conjugates(table, pairs, kids):
    """Mask of every xkx̄ and x̄kx over the pair matrix and k in kids."""
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


def oracle_dense_kernel(sg):
    """Group kernel as (ids, rounds, aperiodic, witness) by whole-table sweeps.

    Each round closes the set under products and sweeps all of it over
    every weak-inverse pair, two m x m matrix products; iteration stops at
    the first round that adds nothing, and the fixpoint must be closed
    under products and add nothing to one more full sweep.
    """
    table = np.asarray(sg.product_table())
    rows = table.tolist()
    pairs = dense_pair_matrix(table)
    member = np.zeros(sg.size, dtype=bool)
    member[list(sg.idempotent_ids())] = True
    rounds = 0
    while True:
        rounds += 1
        before = int(member.sum())
        kids = sorted(_oracle_closure(rows, np.flatnonzero(member).tolist()))
        member[:] = False
        member[kids] = True
        member |= dense_conjugates(table, pairs, kids)
        if int(member.sum()) == before:
            break
    kids = np.flatnonzero(member).tolist()
    assert sorted(_oracle_closure(rows, kids)) == kids
    assert not (dense_conjugates(table, pairs, kids) & ~member).any()
    periodic = np.flatnonzero(~oracle_period_one(sg, kids))
    witness = kids[periodic[0]] if periodic.size else None
    return tuple(kids), rounds, witness is None, witness


def oracle_generator_conjugates(sg, rows, ks):
    """Set of every a k ā and ā k a for k in ks, a one of sg's generators or
    its identity and ā a ā = ā, one (a, ā, k) at a time over the table
    rows."""
    gens = set(sg.generators.tolist()) | ({sg.identity_id} - {None})
    found = set()
    for a in sorted(gens):
        for abar in range(len(rows)):
            if rows[rows[abar][a]][abar] == abar:
                for k in ks:
                    found.add(rows[rows[a][k]][abar])
                    found.add(rows[abar][rows[k][a]])
    return found


def oracle_generator_kernel(sg):
    """Group kernel as (ids, rounds, aperiodic, witness) over generator pairs.

    Each round closes the set under products and adds the conjugates of
    all of it by the generator pairs (oracle_generator_conjugates), which
    by the lemma in kernel.py give the kernel; iteration stops at the first
    round that adds nothing.  The witness is the smallest kernel id of
    period >= 2.
    """
    rows = np.asarray(sg.product_table()).tolist()
    closed = {i for i in range(len(rows)) if rows[i][i] == i}
    rounds = 0
    while True:
        rounds += 1
        before = len(closed)
        closed = _oracle_closure(rows, sorted(closed))
        closed |= oracle_generator_conjugates(sg, rows, closed)
        if len(closed) == before:
            break
    kids = sorted(closed)
    witness = next((k for k in kids if _oracle_period(rows, k) != 1), None)
    return tuple(kids), rounds, witness is None, witness


def oracle_period_one(sg, ids):
    """Mask over ids of the elements x with x^N x = x^N, N = 2^bitlen(m),
    squaring the powers bitlen(m) times by sg.multiply."""
    ids = np.asarray(ids)
    power = ids
    for _ in range(sg.size.bit_length()):
        power = sg.multiply(power, power)
    return sg.multiply(power, ids) == power


# ---------------------------------------------------------------------------
# closure analyses by diagram products


def count_products(monkeypatch):
    """Count the package's diagram products: the rows its two product
    kernels return, the pair kernel (zipped and scalar products) and the
    by-right-factor kernel (batched and masked ones), so each product
    counts once."""
    count = [0]

    def counting(kernel):
        def counted(*args):
            out = kernel(*args)
            count[0] += len(out)
            return out
        return counted

    for name in ("_product", "_factor_products"):
        monkeypatch.setattr(diagrams, name, counting(getattr(diagrams, name)))
    return count


def id_of(sg, d):
    """The id of the diagram d in the closure sg; KeyError when d is no element."""
    i = int(sg.ids_of(diagrams.labels(d)[None])[0])
    if i < 0:
        raise KeyError(d)
    return i


def elements_of(sg, ids=None):
    """The diagrams of sg's ids, or of all of them in id order."""
    return diagrams.from_label_array(
        sg.labels if ids is None else sg.labels[np.asarray(ids, dtype=np.intp)])


def _scalar_product(sg):
    """x, y -> the id of x y in sg, one scalar sg.multiply call."""
    return lambda x, y: int(sg.multiply(x, y))


def _ids(sg):
    """The id of each element of sg, as a dict of diagrams."""
    return {d: i for i, d in enumerate(elements_of(sg))}


def oracle_left_cayley(sg):
    """lc[y, i] = g_i y, one diagram product per entry."""
    idx, elems = _ids(sg), elements_of(sg)
    lc = np.empty((sg.size, len(sg.generators)), dtype=np.int32)
    for gi, g in enumerate(elements_of(sg, sg.generators)):
        lc[:, gi] = [idx[oracle_product(g, x)] for x in elems]
    return lc


def oracle_idempotent_ids(sg):
    return tuple(i for i, x in enumerate(elements_of(sg)) if oracle_product(x, x) == x)


def oracle_span(sg, seed_ids):
    """Ids in sg of the standalone diagram closure of the seed elements."""
    span = closure(elements_of(sg, list(seed_ids)))
    idx = _ids(sg)
    return sorted(idx[d] for d in elements_of(span))


def oracle_local_elements(sg, e_id):
    """The elements e x e of sg in id order, from diagram products."""
    elems, idx = elements_of(sg), _ids(sg)
    e = elems[e_id]
    return [elems[i] for i in sorted(
        {idx[oracle_product(oracle_product(e, x), e)] for x in elems})]


def oracle_table(elems):
    """Product table of a closed diagram list, one diagram product per cell,
    and the position of its two-sided identity (None when there is none)."""
    index = {d: i for i, d in enumerate(elems)}
    rows = [[index[oracle_product(x, y)] for y in elems] for x in elems]
    k = len(elems)
    identity_id = next((i for i in range(k)
                        if all(rows[i][j] == j == rows[j][i] for j in range(k))), None)
    return np.array(rows, dtype=np.int32), identity_id


def oracle_rees_table(sg, ideal_ids):
    """Table of S/I: the non-ideal elements in id order, then the zero."""
    ideal = set(ideal_ids)
    keep = [i for i in range(sg.size) if i not in ideal]
    pos = {x: k for k, x in enumerate(keep)}
    k, idx, elems = len(keep), _ids(sg), elements_of(sg)
    table = np.full((k + 1, k + 1), k, dtype=np.int32)
    for a, x in enumerate(keep):
        for b, y in enumerate(keep):
            p = idx[oracle_product(elems[x], elems[y])]
            table[a, b] = pos.get(p, k)
    return table


def oracle_restricted_table(sg, ids):
    """The products of ids by ids in sg, as a k x k table over positions
    in ids, in the order given, -1 where a product leaves ids: whole rows
    of sg's products (sg._products), as subsemigroup and rees_quotient
    restricted them before they searched over sg's ids."""
    ids = np.asarray(ids, dtype=np.int64)
    pos = np.full(sg.size, -1, dtype=np.int32)
    pos[ids] = np.arange(len(ids), dtype=np.int32)
    return pos[sg._products(ids, ids)]


def oracle_principal_ideal(sg, e_id):
    """Ids of S^1 e S^1, ascending, by a breadth-first search from e over
    the sum of the right and left Cayley graphs."""
    right, left = _cayley_matrices(sg)
    reach = csgraph.breadth_first_order(right + left, e_id, return_predecessors=False)
    return sorted(reach.tolist())


def oracle_associativity_failure(sg, samples):
    """The first of samples triples drawn from random.Random(0) on which
    (xy)z != x(yz), by one scalar product at a time, or None."""
    rng = random.Random(0)
    m, mul = sg.size, _scalar_product(sg)
    for _ in range(samples):
        x, y, z = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            return x, y, z
    return None


def oracle_iso(a_elems, b_elems, mapping):
    """(bijective, multiplicative) verdicts for mapping from a onto b.

    Bijective: the images are distinct and are exactly b's elements.
    Multiplicative: mapping(x y) == mapping(x) mapping(y) for all x, y in
    a, one diagram product on each side.
    """
    elems = list(a_elems)
    image = {mapping(x) for x in elems}
    bijective = len(image) == len(elems) and image == set(b_elems)
    multiplicative = all(
        mapping(oracle_product(x, y)) == oracle_product(mapping(x), mapping(y))
        for x in elems for y in elems)
    return bijective, multiplicative


def oracle_t1_chain(sg):
    """The generator pool (with the identity) sorted in the left order by
    oracle_l_leq on every ordered pair and a comparison sort, or None when
    two pool elements are incomparable."""
    pool = sg.generators.tolist()
    if sg.identity_id is not None and sg.identity_id not in pool:
        pool.append(sg.identity_id)
    rel = {(a, b): oracle_l_leq(sg, a, b) for a in pool for b in pool}
    if any(not rel[a, b] and not rel[b, a] for a in pool for b in pool):
        return None
    return sorted(pool, key=functools.cmp_to_key(
        lambda a, b: int(rel[b, a]) - int(rel[a, b])))


def oracle_is_inverse(sg):
    """Every element regular (each R-class holds an idempotent) and the
    idempotents commute, by one product per pair of idempotents."""
    g = green(sg)
    idem = sg.idempotent_ids()
    if {int(g.r[e]) for e in idem} != set(range(g.num_r)):
        return False
    es = np.array(idem, dtype=np.int64)
    prods = sg.multiply(es[:, None], es)
    return bool((prods == prods.T).all())


# ---------------------------------------------------------------------------
# closures one diagram product at a time


class _ScalarSearch:
    """The Froidure-Pin right Cayley search with one diagram product per
    (element, generator) pair, taken in row-major order: row q is extended
    by every generator added since it was last extended, and a product
    not seen before gets the next id."""

    def __init__(self, budget, within=None):
        self.budget = budget
        self.within = within
        self.elements = []
        self.index = {}
        self.parent = []
        self.letter = []
        self.rows = []
        self.multipliers = []

    def _add(self, d, parent, let):
        self.index[d] = len(self.elements)
        self.elements.append(d)
        self.parent.append(parent)
        self.letter.append(let)
        self.rows.append([])

    def seed(self, d, let=-1):
        if d not in self.index:
            self._add(d, -1, let)

    def add_generator(self, g):
        self.multipliers.append(g)
        self.seed(g, len(self.multipliers) - 1)

    def run(self):
        gens = self.multipliers
        q = 0
        while q < len(self.elements):
            x = self.elements[q]
            row = self.rows[q]
            for gi in range(len(row), len(gens)):
                p = oracle_multiply(x, gens[gi])
                pid = self.index.get(p)
                if pid is None:
                    if self.within is not None and p not in self.within:
                        raise ValueError(
                            "element set is not closed under the product "
                            f"({self.within[x]} * {self.within[gens[gi]]})")
                    pid = len(self.elements)
                    if pid >= self.budget:
                        raise BudgetExceeded(
                            f"closure exceeded budget of {self.budget} elements")
                    self._add(p, q, gi)
                row.append(pid)
            q += 1

    def result(self):
        """The search as plain data: elements, parent, letter, right Cayley
        rows, generator ids and the id of the identity (or None)."""
        n = self.elements[0].n
        return {
            "elements": self.elements,
            "parent": self.parent,
            "letter": self.letter,
            "right_cayley": self.rows,
            "generators": [self.index[g] for g in self.multipliers],
            "identity_id": self.index.get(identity(n)),
        }


def oracle_closure(gens, include_identity=False, budget=10 ** 6):
    """The closure of gens (the identity first when asked) as plain data;
    with no generators, the identity is of degree 1."""
    search = _ScalarSearch(budget)
    if include_identity:
        search.seed(identity(gens[0].n if gens else 1))
    for g in dict.fromkeys(gens):
        search.add_generator(g)
    search.run()
    return search.result()


def oracle_greedy_closure(elems):
    """The closure of a closed element set searched from greedy generators:
    each element not yet reached, in the order given, is the next one."""
    elems = list(dict.fromkeys(elems))
    search = _ScalarSearch(len(elems), within={d: i for i, d in enumerate(elems)})
    for d in elems:
        if d not in search.index:
            search.add_generator(d)
            search.run()
    return search.result()


# ---------------------------------------------------------------------------
# Green structure one element at a time


def _cayley_matrices(sg):
    """sg's right and left Cayley graphs as sparse m x m matrices, with an
    edge from x to x g and to g x for every generator g, built through COO,
    which sums repeated edges (x g = x h) into canonical CSR."""
    m = sg.size
    g = len(sg.generators)
    rows = np.repeat(np.arange(m), g)
    ones = np.ones(m * g, dtype=np.int8)
    return tuple(sparse.csr_matrix((ones, (rows, cayley.ravel())), shape=(m, m))
                 for cayley in (sg.right_cayley, sg.left_cayley))


def _by_least_member(lab):
    """Class labels renumbered 0, 1, ... in the order of each class's least
    member, as int32, by one loop over the ids."""
    number = {}
    return np.array([number.setdefault(c, len(number)) for c in lab.tolist()],
                    dtype=np.int32)


def oracle_strong_components(nbr):
    """The least member of each id's strong component in the graph with an
    edge from x to each id of row x of the m x g array nbr, from scipy's
    strong components of its COO-summed matrix."""
    m, g = np.shape(nbr)
    graph = sparse.csr_matrix((np.ones(m * g, dtype=np.int8),
                               (np.repeat(np.arange(m), g), np.ravel(nbr))), shape=(m, m))
    _, lab = csgraph.connected_components(graph, directed=True, connection="strong")
    least = {}
    for x, c in enumerate(lab.tolist()):
        least.setdefault(c, x)
    return np.array([least[c] for c in lab.tolist()])


def oracle_l_leq(sg, a, b):
    """a <=_L b: a is in scipy's breadth-first order of the left Cayley
    graph from b."""
    _, left = _cayley_matrices(sg)
    return a in csgraph.breadth_first_order(left, b, return_predecessors=False).tolist()


def oracle_green(sg):
    """GreenData of sg from the strong components of its right, left and
    summed Cayley graphs, by loops over the elements; R- and L-classes
    numbered by least member, as green numbers them."""
    m = sg.size
    right, left = _cayley_matrices(sg)
    num_r, r_lab = csgraph.connected_components(right, directed=True, connection="strong")
    num_l, l_lab = csgraph.connected_components(left, directed=True, connection="strong")
    r_lab, l_lab = _by_least_member(r_lab), _by_least_member(l_lab)
    both = right + left
    num_j, j_lab = csgraph.connected_components(both, directed=True, connection="strong")

    h_key = {}
    h_lab = np.empty(m, dtype=np.int64)
    for i in range(m):
        key = (int(r_lab[i]), int(l_lab[i]))
        h_lab[i] = h_key.setdefault(key, len(h_key))

    coo = both.tocoo()
    src_c = j_lab[coo.row]
    dst_c = j_lab[coo.col]
    mask = src_c != dst_c
    order_edges = frozenset(
        (int(a), int(b)) for a, b in zip(src_c[mask], dst_c[mask]))

    members = [[] for _ in range(num_j)]
    for i in range(m):
        members[j_lab[i]].append(i)

    idem = set(sg.idempotent_ids().tolist())
    subgroup = []
    for c in range(num_j):
        es = [i for i in members[c] if i in idem]
        subgroup.append(int(np.count_nonzero(h_lab[np.array(members[c])] == h_lab[min(es)]))
                        if es else 0)

    return GreenData(
        r=r_lab, l=l_lab, j=j_lab, h=h_lab,
        num_r=num_r, num_l=num_l, num_j=num_j, num_h=len(h_key),
        j_subgroup_order=np.array(subgroup, dtype=np.int64),
        j_order=np.array(sorted(order_edges), dtype=np.int64).reshape(-1, 2),
    )


def oracle_green_all_generators(table):
    """Green's relations of the semigroup whose product table is table, with
    every element as a generator.

    Returns (sg, green(sg)) for a closure whose every id is a seed of depth
    0, so a product is one step of the right Cayley graph, which is the
    table, and the left Cayley graph is the table's transpose: m^2 edges
    each.  essential_depth, is_aperiodic, is_inverse and units run on sg
    over those graphs.
    """
    table = np.asarray(table, dtype=np.int32)
    m = len(table)
    ids = np.arange(m)
    identity_id = next((i for i in range(m) if (table[i] == ids).all()
                        and (table[:, i] == ids).all()), None)
    sg = SemigroupClosure(
        degree=None, labels=None, gen_ids=np.arange(m),
        right_cayley=table, left_cayley=table.T.copy(), parent=np.full(m, -1, dtype=np.int32),
        letter=np.arange(m, dtype=np.int32), depth=np.zeros(m, dtype=np.int32),
        identity_id=identity_id)
    return sg, green(sg)


class TableProduct:
    """A product table read as a semigroup of no diagrams, by the names
    engine.subsemigroup reads (size, degree, labels, multiply and
    _products), each product a gather; engine._spot_check_associativity
    reads only size and multiply."""

    degree = labels = None

    def __init__(self, table):
        self.table = np.asarray(table)
        self.size = len(self.table)

    def multiply(self, xs, ys):
        return self.table[xs, ys]

    def _products(self, xs, ys):
        return self.table[np.ix_(xs, ys)]


def table_closure(table):
    """The semigroup whose m x m product table is table: every id of the
    table as an engine.subsemigroup, so searched by the integer search of
    a restriction, a generating set picked greedily in id order, then one
    BFS from it over the table's columns and rows at the picks, which
    renumbers the ids.  Raises BadIndex when the table is not square or
    holds an entry outside 0..m-1."""
    table = np.asarray(table, dtype=np.int32)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise BadIndex(f"product table of shape {table.shape} is not square")
    m = len(table)
    if table.size and (table.min() < 0 or table.max() >= m):
        raise BadIndex(f"product table has an entry outside 0..{m - 1}")
    return engine.subsemigroup(TableProduct(table), np.arange(m))


def transformation_table(seed):
    """Product table of the semigroup that 2-3 random maps of 4-5 points
    generate, maps composed left to right (x y is x, then y), drawn with
    numpy's generator at seed."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(4, 6))
    gens = np.unique(rng.integers(0, k, (int(rng.integers(2, 4)), k)), axis=0)
    maps, seen = list(gens), {tuple(g) for g in gens.tolist()}
    for x in maps:
        for g in gens:
            if tuple(y := g[x]) not in seen:
                seen.add(tuple(y))
                maps.append(y)
    maps = np.array(maps)
    weights = k ** np.arange(k)
    codes = maps @ weights
    order = np.argsort(codes)
    table = np.empty((len(maps), len(maps)), dtype=np.int32)
    for b, y in enumerate(maps):
        table[:, b] = order[np.searchsorted(codes, y[maps] @ weights, sorter=order)]
    return table
