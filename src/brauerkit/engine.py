"""Finite semigroup machinery over diagram elements.

Semigroups are materialized as closures: elements get dense integer ids in
BFS discovery order (seeds first, in the order given, then products), and
the right Cayley graph over the generating set is recorded during the
search, together with a BFS word (parent, letter) for every element.  The
search runs one BFS level at a time over label arrays: each level is
multiplied by the stack of generators in numpy batches
(diagrams.multiply_labels), and new elements are numbered in row-major
(element, generator) order, so ids, words and Cayley graphs are those of
a search taking one product at a time (Froidure & Pin 1997; East,
Egri-Nagy, Mitchell & Peresse, Computing finite semigroups, 2019).
Green's relations come from strongly connected components of the Cayley
graphs; the J-order is the condensation reachability order.

Once a closure is built, no analysis multiplies diagrams again.  Every
product of two elements is an integer operation on the closure
(SemigroupClosure.multiply): a gather from the product table when one has
been built, otherwise a walk along y's word from x over the right Cayley
graph, x y = rc[x parent(y), letter(y)], one BFS depth level at a time
(Froidure & Pin, Algorithms for computing finite semigroups, 1997).  The
left Cayley graph and the full product table are the same walk done for
whole rows by dynamic programming over the depth levels; the table is
built lazily and only below a size limit.  The squaring map i -> i i is
one batched product, kept (SemigroupClosure.squares); idempotents and
the period test read it, so powers x^(2^k) are integer gathers.

SemigroupClosure is the only semigroup class.  A semigroup derived from a
closure is a table-backed SemigroupClosure (SemigroupClosure.from_table)
whose table restricts the parent's integer products: subsemigroup() for
ideals, local monoids e S e, padded copies and group kernels, and
rees_quotient() for S/I, whose ids stand for no diagram.  Every family is
built as the closure of a generating set (families.generators), so no
element set needs its generators found; closure_from_elements, which grows
the same search from generators picked greedily from a set, is kept for
callers outside the family code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from . import diagrams
from .diagrams import Diagram, identity, _canon
from .errors import (
    BadDegree,
    BadIndex,
    BudgetExceeded,
    CrossCheckFailed,
    DegreeMismatch,
    NotAMonoid,
    NotAnIdeal,
    NotASubsemigroup,
    NotIdempotent,
)

DEFAULT_BUDGET = 5_000_000
TABLE_CELL_LIMIT = 16_000_000  # max int32 cells of a product table or Cayley graph
_PAIR_BATCH = 1 << 18  # products per batch in searches and generated_subsemigroup


class SemigroupClosure:
    """A finite semigroup with dense ids 0..size-1 and Cayley data.

    A closure of diagram generators (closure, or closure_from_elements for
    an element set) holds the right Cayley graph over its multipliers and a
    BFS word per element; a table-backed one (from_table) holds its full
    product table, every element being its own generator.  elements[i] is
    the diagram of id i, or elements is None for a Rees quotient.
    identity_id is the id of the two-sided identity when one exists (the
    identity diagram for ordinary closures, the designated idempotent e
    for local monoids e S e).
    """

    def __init__(self, degree, elements, index, gen_ids, multipliers,
                 right_cayley, parent, letter, identity_id):
        self.degree = degree
        self.elements = elements
        self.index = index
        self.generators = gen_ids
        self.multipliers = multipliers
        self.right_cayley = right_cayley
        self.parent = parent
        self.letter = letter
        self.identity_id = identity_id
        self.size = len(parent)
        self._left_cayley = None
        self._table = None
        self._walk = None
        self._green = None
        self._squares = None
        self._idempotents = None

    @classmethod
    def from_table(cls, table, elements=None):
        """The semigroup over ids 0..m-1 whose m x m product table is table.

        identity_id is worked out from the table as its unique two-sided
        identity, or None when it has none.
        """
        table = np.asarray(table, dtype=np.int32)
        m = len(table)
        ids = np.arange(m)
        ident = np.flatnonzero((table == ids).all(axis=1)
                               & (table == ids[:, None]).all(axis=0))
        sg = cls(
            degree=elements[0].n if elements else None,
            elements=elements,
            index=None if elements is None else {d: i for i, d in enumerate(elements)},
            gen_ids=list(range(m)),
            multipliers=elements,
            right_cayley=table,
            parent=np.full(m, -1, dtype=np.int32),
            letter=np.arange(m, dtype=np.int32),
            identity_id=int(ident[0]) if ident.size else None,
        )
        sg._table = table
        sg._left_cayley = table.T.copy()
        return sg

    def __len__(self):
        return self.size

    def element_set(self):
        return frozenset(self.elements)

    @property
    def left_cayley(self):
        """lc[y, i] = g_i y for each multiplier g_i, as integer ids.

        Built by the same depth-level walk as the product table, from the
        multipliers' ids: no diagram product is taken.
        """
        if self._left_cayley is None:
            self._left_cayley = self._rows_times_all(
                np.asarray(self.generators, dtype=np.int32)).T.copy()
        return self._left_cayley

    def product_table(self, cell_limit=TABLE_CELL_LIMIT):
        """Full m x m product table, or None when it would exceed cell_limit."""
        if self._table is None:
            m = self.size
            if m * m > cell_limit:
                return None
            self._table = self._rows_times_all(np.arange(m, dtype=np.int32))
        return self._table

    def _walk_data(self):
        """The right Cayley graph with a "stay" column, and the BFS words.

        rc[:, g] (g = number of multipliers) is the identity map.  Row d of
        words holds, for every element y, the letter of y's ancestor at BFS
        depth d (its seed's generator letter at d = 0), and g past y's depth
        or for the identity seed; letters are stored in the smallest
        unsigned type that holds g.  Returns (rc, words, depth).
        """
        if self._walk is None:
            m = self.size
            g = len(self.multipliers)
            rc = np.empty((m, g + 1), dtype=np.int32)
            rc[:, :g] = self.right_cayley
            rc[:, g] = np.arange(m, dtype=np.int32)
            parent = self.parent
            letter = np.where(self.letter < 0, g, self.letter).astype(np.int32)
            depth = np.zeros(m, dtype=np.int32)
            anc = parent.copy()
            while (alive := anc >= 0).any():
                depth[alive] += 1
                anc[alive] = parent[anc[alive]]
            words = np.full((int(depth.max(initial=0)) + 1, m), g,
                            dtype=np.min_scalar_type(g))
            rows = np.arange(m)
            anc = rows
            while rows.size:
                words[depth[anc], rows] = letter[anc]
                up = parent[anc] >= 0
                rows, anc = rows[up], parent[anc[up]]
            self._walk = rc, words, depth
        return self._walk

    def multiply(self, xs, ys):
        """Ids of x y for ids xs, ys (arrays broadcast against each other).

        A gather from the product table when it has been built; otherwise
        each y's word is followed from x over the right Cayley graph, one
        depth level at a time, so a batch of pairs costs one gather per
        level and no diagram product.
        """
        if self._table is not None:
            return self._table[xs, ys]
        rc, words, depth = self._walk_data()
        xs, ys = np.broadcast_arrays(xs, ys)
        out = np.array(xs, dtype=np.int32)
        if out.size:
            for level in words[:int(depth[ys].max()) + 1]:
                out = rc[out, level[ys]]
        return out

    def _rows_times_all(self, xs):
        """P[r, y] = xs[r] y for every element y, by DP over depth levels.

        A seed y is a multiplier or the identity, so P[:, y] is one step of
        the right Cayley graph from xs; any other y is parent(y) letter(y),
        so P[:, y] = rc[P[:, parent(y)], letter(y)], whose parent column a
        lower level already holds.  Row d of the words holds the letters of
        the elements at depth d.
        """
        rc, words, depth = self._walk_data()
        out = np.empty((len(xs), self.size), dtype=np.int32)
        for d, level in enumerate(words):
            ys = np.flatnonzero(depth == d)
            src = xs[:, None] if d == 0 else out[:, self.parent[ys]]
            out[:, ys] = rc[src, level[ys]]
        return out

    def mul(self, i, j):
        return int(self.multiply(i, j))

    def squares(self):
        """sq[i] = i i for every id i, one batched product, kept."""
        if self._squares is None:
            ids = np.arange(self.size, dtype=np.int32)
            self._squares = self.multiply(ids, ids)
            self._squares.flags.writeable = False
        return self._squares

    def idempotent_ids(self):
        if self._idempotents is None:
            self._idempotents = tuple(np.flatnonzero(
                self.squares() == np.arange(self.size)).tolist())
        return self._idempotents

    def _adjacency(self):
        m = self.size
        g = len(self.generators)
        if g == 0:
            empty = sparse.csr_matrix((m, m))
            return empty, empty
        rows = np.repeat(np.arange(m), g)
        ones = np.ones(m * g, dtype=np.int8)
        right = sparse.csr_matrix(
            (ones, (rows, self.right_cayley.ravel())), shape=(m, m)
        )
        left = sparse.csr_matrix(
            (ones, (rows, self.left_cayley.ravel())), shape=(m, m)
        )
        return right, left


class _RightCayleySearch:
    """Froidure-Pin search of a right Cayley graph, one BFS level at a
    time, that takes generators one at a time.

    Elements are held as label arrays (diagrams.label_array) and told
    apart by their bytes, the diagrams' keys, and get ids in discovery
    order; a seed has parent -1 and its generator's letter (-1 for the
    identity).  run() extends every row by the generators added since
    that row was last extended, so each (element, generator) product is
    taken exactly once, however the generators are interleaved with
    runs.  A level is the rows that exist when it starts; their products
    are taken in batches of at most _PAIR_BATCH products, the rows of a
    batch that miss the same generators in one diagrams.multiply_labels
    call by the stack of those generators, and new elements get ids in
    row-major (id, generator) order, the order of a loop over the rows
    one product at a time.  A new product outside `within` (a dict of
    allowed label bytes to their positions) raises ValueError; an id
    reaching `budget`, BudgetExceeded.
    """

    def __init__(self, degree, budget, within=None):
        self.degree = degree
        self.budget = budget
        self.within = within
        self.size = 0
        self.index = {}
        self.labels = np.empty((16, 2 * degree), dtype=diagrams.label_dtype(degree))
        self.parent = np.empty(16, dtype=np.int32)
        self.letter = np.empty(16, dtype=np.int32)
        self.filled = np.empty(16, dtype=np.int32)
        self.rows = np.empty((16, 4), dtype=np.int32)
        self.multipliers = []
        self.multiplier_labels = self.labels[:0].copy()

    def _reserve(self, m, g):
        """Grow the row arrays to hold m rows and the rows to hold g columns."""
        cap, gcap = self.rows.shape
        if m > cap or g > gcap:
            cap, gcap = max(cap, 2 * m), max(gcap, 2 * g)
            for name in ("labels", "parent", "letter", "filled"):
                old = getattr(self, name)
                grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                grown[:self.size] = old[:self.size]
                setattr(self, name, grown)
            rows = np.empty((cap, gcap), dtype=np.int32)
            rows[:self.size, :self.rows.shape[1]] = self.rows[:self.size]
            self.rows = rows

    def seed(self, d, let=-1):
        if d.key not in self.index:
            q = self.size
            self._reserve(q + 1, len(self.multipliers))
            self.index[d.key] = q
            self.labels[q] = diagrams.labels(d)
            self.parent[q], self.letter[q], self.filled[q] = -1, let, 0
            self.size = q + 1

    def add_generator(self, g):
        self.multipliers.append(g)
        self.multiplier_labels = np.vstack(
            [self.multiplier_labels, diagrams.labels(g)])
        self._reserve(self.size, len(self.multipliers))
        self.seed(g, len(self.multipliers) - 1)

    def run(self):
        g = len(self.multipliers)
        step = max(1, _PAIR_BATCH // max(1, g))
        lo = 0
        while lo < self.size:
            hi = self.size
            for start in range(lo, hi, step):
                self._extend(start, min(hi, start + step))
            lo = hi

    def _extend(self, lo, hi):
        """Take the missing products of rows lo..hi-1 and number the new ones.

        Rows are grouped by the generators they have been extended by, and
        each group takes its products in one diagrams.multiply_labels call.
        """
        gen_labels = self.multiplier_labels
        g = len(gen_labels)
        filled = self.filled[lo:hi]
        need = filled[:, None] <= np.arange(g)
        xs = self.labels[lo:hi]
        prods = np.empty((hi - lo, g, xs.shape[1]), dtype=xs.dtype)
        for f in np.unique(filled[filled < g]).tolist():
            rows = np.flatnonzero(filled == f)
            prods[rows, f:] = diagrams.multiply_labels(xs[rows], gen_labels[f:])
        cells = prods[need]
        keys = diagrams.label_keys(cells)
        ids = list(map(self.index.get, keys))
        if None in ids:
            qs, letters = np.nonzero(need)
            qs += lo
            fresh = self._number(keys, ids, qs, letters)
            m = self.size + len(fresh)
            self._reserve(m, g)
            self.labels[self.size:m] = cells[fresh]
            self.parent[self.size:m] = qs[fresh]
            self.letter[self.size:m] = letters[fresh]
            self.filled[self.size:m] = 0
            self.size = m
        self.rows[lo:hi, :g][need] = ids
        self.filled[lo:hi] = g

    def _number(self, keys, ids, qs, letters):
        """Number the cells whose keys are new, in cell order, into ids.

        Cell c is the product of row qs[c] by generator letters[c].
        Returns the cells that hold the new elements, in id order.
        """
        index, within = self.index, self.within
        fresh = []
        for c in [c for c, pid in enumerate(ids) if pid is None]:
            pid = index.get(keys[c])
            if pid is None:
                if within is not None and keys[c] not in within:
                    q, gi = qs[c], letters[c]
                    raise ValueError(
                        "element set is not closed under the product "
                        f"({within[self.labels[q].tobytes()]} * "
                        f"{within[self.multipliers[gi].key]})")
                pid = self.size + len(fresh)
                if pid >= self.budget:
                    raise BudgetExceeded(
                        f"closure exceeded budget of {self.budget} elements"
                    )
                index[keys[c]] = pid
                fresh.append(c)
            ids[c] = pid
        return fresh

    def closure(self):
        m = self.size
        from_key = Diagram._from_key
        # index holds the keys in id order, since ids are handed out in turn
        elements = [from_key(self.degree, k) for k in self.index]
        return SemigroupClosure(
            degree=self.degree,
            elements=elements,
            index={d: i for i, d in enumerate(elements)},
            gen_ids=[self.index[g.key] for g in self.multipliers],
            multipliers=self.multipliers,
            right_cayley=self.rows[:m, :len(self.multipliers)].copy(),
            parent=self.parent[:m].copy(),
            letter=self.letter[:m].copy(),
            identity_id=self.index.get(identity(self.degree).key),
        )


def closure(gens, *, include_identity=False, budget=None):
    """BFS closure of a generator list under the diagram product.

    Ids are assigned deterministically: the identity first when requested,
    then the deduplicated generators in the order given, then discovery
    order.  Raises BudgetExceeded when the closure grows past `budget`.
    """
    gens = list(gens)
    if not gens and not include_identity:
        raise BadDegree("need at least one generator (or include_identity)")
    degree = gens[0].n if gens else 1
    for g in gens:
        if g.n != degree:
            raise DegreeMismatch(f"generator degrees {degree} vs {g.n}")
    search = _RightCayleySearch(degree, DEFAULT_BUDGET if budget is None else budget)
    if include_identity:
        search.seed(identity(degree))
    for g in dict.fromkeys(gens):
        search.add_generator(g)
    search.run()
    return search.closure()


def closure_from_elements(elems):
    """The closure of an already-closed element set, from greedy generators.

    No family needs it, since each is built from a generating set; it stays
    a public function that the benchmark harness times by name.

    Scanning the distinct elements in the order given, each one not yet in
    the closure becomes the next generator and the search is extended by
    it, so the search takes |S| x g diagram products for the g generators
    picked (at most |S|^2, when every element is needed).  Ids are the
    search's, as in closure.  Raises ValueError at the first product
    outside the set, and BudgetExceeded before |S| x g, the cells of the
    right Cayley graph, would pass TABLE_CELL_LIMIT.
    """
    elems = list(dict.fromkeys(elems))
    if not elems:
        raise BadDegree("empty element set")
    degree = elems[0].n
    for d in elems:
        if d.n != degree:
            raise DegreeMismatch(f"element degrees {degree} vs {d.n}")
    search = _RightCayleySearch(degree, len(elems),
                                within={d.key: i for i, d in enumerate(elems)})
    for d in elems:
        if d.key not in search.index:
            if len(elems) * (len(search.multipliers) + 1) > TABLE_CELL_LIMIT:
                raise BudgetExceeded(
                    f"{len(elems)} elements need over {len(search.multipliers)} greedy "
                    "generators, over TABLE_CELL_LIMIT Cayley graph cells")
            search.add_generator(d)
            search.run()
    return search.closure()


def subsemigroup(sg, ids):
    """The closed id set ids of sg as a table-backed SemigroupClosure.

    Its elements are sg's elements at ids, in the order given, and its
    table is the restriction of sg's products, so no diagram is multiplied.
    Raises NotASubsemigroup when a product leaves ids, BadIndex when an id
    repeats, and BudgetExceeded when the table would be over
    TABLE_CELL_LIMIT cells.
    """
    ids = np.asarray(ids, dtype=np.int64)
    k = len(ids)
    if k * k > TABLE_CELL_LIMIT:
        raise BudgetExceeded(
            f"subsemigroup of {k} elements is over TABLE_CELL_LIMIT")
    pos = np.full(sg.size, -1, dtype=np.int32)
    pos[ids] = np.arange(k, dtype=np.int32)
    if (pos[ids] != np.arange(k)).any():
        raise BadIndex("subsemigroup ids repeat")
    table = pos[sg.multiply(ids[:, None], ids)]
    if (table < 0).any():
        raise NotASubsemigroup(
            f"the {k} ids are not closed under the product")
    return SemigroupClosure.from_table(table, [sg.elements[i] for i in ids.tolist()])


# ---------------------------------------------------------------------------
# Green's relations


@dataclass(frozen=True)
class GreenData:
    r: np.ndarray
    l: np.ndarray
    j: np.ndarray
    h: np.ndarray
    num_r: int
    num_l: int
    num_j: int
    num_h: int
    j_members: tuple
    j_regular: tuple
    j_subgroup_order: tuple
    j_essential: tuple
    j_order: frozenset  # (upper class, lower class) pairs, transitive closure not taken


def green(sg):
    if sg._green is not None:
        return sg._green
    m = sg.size
    right, left = sg._adjacency()
    num_r, r_lab = csgraph.connected_components(right, directed=True, connection="strong")
    num_l, l_lab = csgraph.connected_components(left, directed=True, connection="strong")
    both = right + left
    num_j, j_lab = csgraph.connected_components(both, directed=True, connection="strong")

    # H-classes numbered by first appearance of their (R, L) pair
    pair = r_lab.astype(np.int64) * num_l + l_lab
    _, first, pair_h = np.unique(pair, return_index=True, return_inverse=True)
    num_h = len(first)
    renumber = np.empty(num_h, dtype=np.int64)
    renumber[np.argsort(first)] = np.arange(num_h)
    h_lab = renumber[pair_h.ravel()]

    coo = both.tocoo()
    src_c = j_lab[coo.row].astype(np.int64)
    dst_c = j_lab[coo.col].astype(np.int64)
    mask = src_c != dst_c
    edges = np.unique(src_c[mask] * num_j + dst_c[mask])
    order_edges = frozenset(zip((edges // num_j).tolist(), (edges % num_j).tolist()))

    by_j = np.argsort(j_lab, kind="stable")
    members = np.split(by_j, np.cumsum(np.bincount(j_lab, minlength=num_j))[:-1])

    idem = np.zeros(m, dtype=bool)
    idem[list(sg.idempotent_ids())] = True
    regular = []
    subgroup = []
    essential = []
    for ms in members:
        es = ms[idem[ms]]
        if not es.size:
            regular.append(False)
            subgroup.append(0)
            essential.append(False)
            continue
        order = int(np.count_nonzero(h_lab[ms] == h_lab[es[0]]))
        regular.append(True)
        subgroup.append(order)
        essential.append(order > 1)

    data = GreenData(
        r=r_lab, l=l_lab, j=j_lab, h=h_lab,
        num_r=num_r, num_l=num_l, num_j=num_j, num_h=num_h,
        j_members=tuple(tuple(ms.tolist()) for ms in members),
        j_regular=tuple(regular),
        j_subgroup_order=tuple(subgroup),
        j_essential=tuple(essential),
        j_order=order_edges,
    )
    sg._green = data
    return data


def h_class_of(sg, i):
    g = green(sg)
    return [int(x) for x in np.flatnonzero(g.h == g.h[i])]


def index_period(sg, i):
    """(index, period) of element i: first repetition structure of its powers."""
    seen = {}
    x = i
    k = 1
    while x not in seen:
        seen[x] = k
        x = sg.mul(x, i)
        k += 1
    return seen[x], k - seen[x]


def is_aperiodic(sg):
    """True when every subgroup is trivial.

    Computed two ways (all H-classes singletons; all element periods 1,
    by period_one over every id) and cross-checked; CrossCheckFailed if
    they disagree.  With the Green data built, the period test takes one
    batched product beyond the squaring map.
    """
    g = green(sg)
    by_h = g.num_h == sg.size
    if by_h != period_one(sg, np.arange(sg.size)).all():
        raise CrossCheckFailed("H-class and period aperiodicity tests disagree")
    return by_h


def period_one(sg, ids):
    """Mask over ids of the elements x of period 1, that is x^N x = x^N.

    N = 2^bitlen(m) is at least every index (at most m), and x^N x = x^N
    holds for such N exactly when the period divides 1.  x^N is bitlen(m)
    steps of the squaring map (sg.squares), integer gathers, so only
    x^N x is a batched product.
    """
    ids = np.asarray(ids, dtype=np.int64)
    sq = sg.squares()
    power = ids
    for _ in range(sg.size.bit_length()):
        power = sq[power]
    return sg.multiply(power, ids) == power


def essential_depth(sg):
    """Longest chain of essential J-classes in the J-order."""
    g = green(sg)
    preds = {c: [] for c in range(g.num_j)}
    succs = {c: [] for c in range(g.num_j)}
    indeg = {c: 0 for c in range(g.num_j)}
    for a, b in g.j_order:
        succs[a].append(b)
        preds[b].append(a)
        indeg[b] += 1
    topo = [c for c in range(g.num_j) if indeg[c] == 0]
    out = []
    while topo:
        c = topo.pop()
        out.append(c)
        for d in succs[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                topo.append(d)
    if len(out) != g.num_j:
        raise CrossCheckFailed("J-order condensation is not acyclic")
    depth = {}
    best = 0
    for c in out:
        d = max((depth[p] for p in preds[c]), default=0)
        depth[c] = d + (1 if g.j_essential[c] else 0)
        best = max(best, depth[c])
    return best


def units(sg):
    """Ids of the group of units (H-class of the identity element)."""
    if sg.identity_id is None:
        raise NotAMonoid("semigroup has no identity element")
    return sorted(h_class_of(sg, sg.identity_id))


def singular_part(sg):
    us = set(units(sg))
    return [i for i in range(sg.size) if i not in us]


def generated_subsemigroup(sg, seed_ids):
    """Ids of the subsemigroup generated by seed_ids inside sg, ascending.

    Grows a member mask by right multiplication of each new frontier by
    the seeds, in batches of at most _PAIR_BATCH products.
    """
    member = np.zeros(sg.size, dtype=bool)
    member[np.asarray(seed_ids, dtype=np.int64)] = True
    seeds = np.flatnonzero(member)
    frontier = seeds
    step = max(1, _PAIR_BATCH // max(1, len(seeds)))
    while frontier.size:
        fresh = np.zeros(sg.size, dtype=bool)
        for lo in range(0, len(frontier), step):
            fresh[sg.multiply(frontier[lo:lo + step, None], seeds)] = True
        fresh &= ~member
        member |= fresh
        frontier = np.flatnonzero(fresh)
    return np.flatnonzero(member).tolist()


def idempotents(sg):
    return list(sg.idempotent_ids())


def idempotent_generated(sg):
    """Ids of the subsemigroup generated by all idempotents."""
    return generated_subsemigroup(sg, sg.idempotent_ids())


def principal_ideal(sg, e_id):
    """Ids of the two-sided principal ideal S^1 e S^1 (via Cayley reachability)."""
    right, left = sg._adjacency()
    both = right + left
    reach = csgraph.breadth_first_order(both, e_id, return_predecessors=False)
    return sorted(int(x) for x in reach)


def local_monoid(sg, e_id):
    """The monoid e S e: subsemigroup of sg's elements e x e in id order.

    Its identity is e.  Raises NotIdempotent when e is not idempotent and
    BudgetExceeded as subsemigroup does.
    """
    if sg.mul(e_id, e_id) != e_id:
        raise NotIdempotent(f"element {e_id} is not idempotent")
    member = np.zeros(sg.size, dtype=bool)
    member[sg.multiply(e_id, sg.multiply(np.arange(sg.size), e_id))] = True
    return subsemigroup(sg, np.flatnonzero(member))


def rees_quotient(sg, ideal_ids):
    """Rees quotient S/I: a table-backed SemigroupClosure with no elements.

    Ids 0..k-1 are the non-ideal elements of S in id order, and the last
    id, k, is the adjoined zero.  Raises NotAnIdeal when I is empty or not
    closed under two-sided multiplication by S's generators.
    """
    ideal = sorted(set(int(i) for i in ideal_ids))
    if not ideal:
        raise NotAnIdeal("empty set is not an ideal")
    member = np.zeros(sg.size, dtype=bool)
    member[ideal] = True
    arr = np.array(ideal)
    if not member[sg.right_cayley[arr]].all() or not member[sg.left_cayley[arr]].all():
        raise NotAnIdeal("set is not closed under multiplication by generators")

    keep = np.flatnonzero(~member)
    k = len(keep)
    pos = np.full(sg.size, k, dtype=np.int32)
    pos[keep] = np.arange(k, dtype=np.int32)
    table = np.full((k + 1, k + 1), k, dtype=np.int32)
    table[:k, :k] = pos[sg.multiply(keep[:, None], keep)]
    quotient = SemigroupClosure.from_table(table)
    _spot_check_associativity(quotient)
    return quotient


def _spot_check_associativity(sg, samples=60, seed=0):
    """Raise CrossCheckFailed if (xy)z != x(yz) on a sampled triple."""
    import random

    rng = random.Random(seed)
    m = sg.size
    for _ in range(samples):
        x, y, z = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        if sg.mul(sg.mul(x, y), z) != sg.mul(x, sg.mul(y, z)):
            raise CrossCheckFailed(f"product table not associative at {(x, y, z)}")


def is_inverse(sg):
    """True when every R-class and every L-class holds exactly one idempotent.

    That is, every element is regular and idempotents commute (Howie,
    Fundamentals of Semigroup Theory, Thm 5.1.1); it takes two counts over
    the Green data.
    """
    g = green(sg)
    idem = np.asarray(sg.idempotent_ids(), dtype=np.int64)
    return bool((np.bincount(g.r[idem], minlength=g.num_r) == 1).all()
                and (np.bincount(g.l[idem], minlength=g.num_l) == 1).all())


def l_leq(sg, a, b):
    """Left-order: a <=_L b iff a lies in S^1 b (reachability in the left graph)."""
    if a == b:
        return True
    _, left = sg._adjacency()
    reach = csgraph.breadth_first_order(left, b, return_predecessors=False)
    return a in set(int(x) for x in reach)


def t1_chain(sg):
    """Witness that the generating set is totally preordered by <=_L.

    Returns generator ids sorted ascending in the left order, or None when
    some pair is incomparable.  Only the closure's own generator pool is
    searched; this is a semi-decision, not a classifier.
    """
    pool = list(dict.fromkeys(sg.generators))
    if sg.identity_id is not None and sg.identity_id not in pool:
        pool.append(sg.identity_id)
    rel = {}
    for a in pool:
        for b in pool:
            rel[a, b] = l_leq(sg, a, b)
    for a in pool:
        for b in pool:
            if not rel[a, b] and not rel[b, a]:
                return None
    import functools

    def cmp(a, b):
        if rel[a, b] and not rel[b, a]:
            return -1
        if rel[b, a] and not rel[a, b]:
            return 1
        return 0

    return sorted(pool, key=functools.cmp_to_key(cmp))


def pad_embedding(a, target_n):
    """Embed degree n-2 into degree n by appending caps {n-1,n} on both rows.

    The image lands in the local monoid of the adjacent contraction at
    n-1; the map is one-to-one and multiplicative.
    """
    if target_n != a.n + 2:
        raise BadDegree(f"target degree must be {a.n + 2}, got {target_n}")
    blocks = [tuple(p if p < a.n else p + 2 for p in b) for b in a.blocks]
    blocks += [(target_n - 2, target_n - 1), (2 * target_n - 2, 2 * target_n - 1)]
    return Diagram(target_n, _canon(blocks))
