"""Finite semigroup machinery over diagram elements.

Semigroups are materialized as closures: elements get dense integer ids in
BFS discovery order (seeds first, in the order given, then products), with
a BFS word (parent, letter) per element and the right and left Cayley
graphs over the generating set.  The search (closure) runs one BFS level
at a time and, by the rule of Froidure & Pin (1997; East, Egri-Nagy,
Mitchell & Peresse, Computing finite semigroups, 2019), reads most products
off the left Cayley graph, taking the rest as batched diagram products;
ids, words and Cayley graphs are those of a search taking one product at a
time.  A closure keeps its label array (labels, row i the diagram of id i)
and the sorted integer keys of its rows, and is read through ids: ids_of
finds the ids of label rows by binary search, element_set() is the set of
its rows, and diagrams.from_labels(labels[i]) is the diagram of id i, so a
closure makes no per-element object.  Green's relations take numpy alone:
R is the strong components of the right Cayley graph, J = D the strong
components of the left action on the R-classes, L by stability the ids
reached along left edges inside a J-class, and the J-order is read from
the Cayley arrays.  Every set of ids the engine hands out (generators,
idempotent_ids, units, singular_part, generated_subsemigroup,
idempotent_generated, principal_ideal, t1_chain, and extend_subsemigroup's
seeds) is an integer ndarray without repeats, ascending but for a closure's
generators, which are in letter order; an array the closure keeps is
read-only, and any other is fresh.

Once a closure is built, no analysis multiplies diagrams again.  A product
x y is an integer operation (SemigroupClosure.multiply): a gather from the
product table when one has been built, otherwise a walk along y's word
from x over the right Cayley graph, x y = rc[x parent(y), letter(y)], one
BFS depth level at a time.  The full product table and the restrictions
below are the same walk done for whole rows by dynamic programming over
the depth levels (SemigroupClosure._products); the table is built lazily
and only below a size limit.  The squaring map i -> i i is one batched
product, kept, so powers x^(2^k) are integer gathers.

SemigroupClosure is the only semigroup class.  A semigroup derived from a
closure is a table-backed SemigroupClosure (from_table) whose table
restricts the parent's products, in blocks of at most _PAIR_BATCH cells:
subsemigroup() for ideals, local monoids e S e, padded copies and group
kernels, and rees_quotient() for S/I, whose ids stand for no diagram.
extend_subsemigroup grows the subsemigroup some ids generate by one
integer search; generated_subsemigroup, the kernel rounds and the small
generating set a table-backed closure is analysed over (_table_generators)
are built on it, so that closure's Green's relations cost m x |generators|
edges, not m^2.  Every family is the closure of a generating set
(families.generators); closure_from_elements, the closure of generators
picked greedily from a set, is kept for callers outside the family code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it on first call; keep that in import time

from . import diagrams
from .diagrams import ElementSet, identity, sort_keys
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
_PAIR_BATCH = 1 << 18  # products per batch in searches, restrictions and spans


class SemigroupClosure:
    """A finite semigroup with dense ids 0..size-1 and Cayley data.

    A closure of diagram generators (closure; closure_from_elements picks
    the generators of an element set first) holds the right Cayley graph
    over its generators' ids and a BFS word per element; a table-backed
    one (from_table) holds its full product table, and its generators are
    a small generating set found from the table when first read; its
    parent and letter, the BFS words of a search, are None, since its
    products are table gathers and never walk a word.  labels is the
    read-only label array whose row i is the diagram of id i, or None for
    a Rees quotient, whose ids stand for no diagram.  Each question about
    the elements has one accessor: ids_of maps label rows to ids,
    element_set() is the set of the rows, and diagrams.from_labels makes
    the diagram of one row.  identity_id is the id of the two-sided
    identity when one exists (the identity diagram for ordinary closures,
    the designated idempotent e for local monoids e S e).
    """

    def __init__(self, degree, labels, identity_id, *, table=None, gen_ids=None,
                 right_cayley=None, parent=None, letter=None, depth=None,
                 left_cayley=None, keys=None):
        """A search gives gen_ids, right_cayley, left_cayley, parent,
        letter, depth (each element's BFS depth) and keys (the sorted keys
        of the rows of labels, and the id of each); a missing left_cayley
        or keys is worked out when first needed."""
        self.degree = degree
        self.labels = labels
        self._keys = keys
        self._generators = gen_ids
        self._right_cayley = right_cayley
        self.parent = parent
        self.letter = letter
        self._depth = depth
        self.identity_id = identity_id
        self.size = len(parent) if table is None else len(table)
        self._left_cayley = left_cayley
        self._table = table
        self._walk = None
        self._green = None
        self._squares = None
        self._element_set = None

    @classmethod
    def from_table(cls, table, labels=None):
        """The semigroup over ids 0..m-1 whose m x m product table is table.

        labels, when given, is the label array of the ids' diagrams.
        identity_id is worked out from the table as its unique two-sided
        identity, or None when it has none.  Raises BadIndex when the
        table is not square or holds an entry outside 0..m-1.
        """
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise BadIndex(f"product table of shape {table.shape} is not square")
        m = len(table)
        if table.size and (table.min() < 0 or table.max() >= m):
            raise BadIndex(f"product table has an entry outside 0..{m - 1}")
        ids = np.arange(m)
        ident = np.flatnonzero((table == ids).all(axis=1)
                               & (table == ids[:, None]).all(axis=0))
        if labels is not None:
            labels = np.array(labels)
            labels.flags.writeable = False
        return cls(None if labels is None else labels.shape[1] // 2, labels,
                   int(ident[0]) if ident.size else None, table=table)

    def __len__(self):
        return self.size

    def _sorted_keys(self):
        """The rows' keys (sort_keys) in ascending order, and the id of each."""
        if self._keys is None:  # the rows are distinct
            self._keys = np.unique(sort_keys(self.labels), return_index=True)
        return self._keys

    def element_set(self, ids=None):
        """The ElementSet of the elements at ids, or of all elements.

        The set of all elements is kept.  It takes the rows in the order of
        the closure's sorted keys, the order an ElementSet keeps, and those
        keys, so nothing is sorted or checked again.
        """
        if ids is not None:
            return ElementSet(self.degree, self.labels[np.asarray(ids, dtype=np.intp)])
        if self._element_set is None:
            keys, order = self._sorted_keys()
            self._element_set = ElementSet._of_sorted(
                self.degree, self.labels[order], keys)
        return self._element_set

    def ids_of(self, labs):
        """The id of the element of each row of a label array, -1 for a row
        that is no element, has another degree or is not a restricted growth
        string (whose sort key may be an element's)."""
        labs = np.asarray(labs)
        if labs.shape[1] != 2 * self.degree:
            return np.full(len(labs), -1, dtype=np.int64)
        keys, ids = self._sorted_keys()
        at = diagrams.find_keys(keys, sort_keys(labs))
        at[~diagrams.restricted_growth(labs)] = -1
        return np.where(at >= 0, ids[at], -1).astype(np.int64)

    @property
    def generators(self):
        """The generators' ids, read-only, in the order of the Cayley
        columns; for a table-backed closure, the generating set
        _table_generators finds from its table when first read."""
        if self._generators is None:
            self._generators = _frozen(_table_generators(self))
        return self._generators

    @property
    def right_cayley(self):
        """rc[x, i] = x g_i for each generator g_i, as integer ids."""
        if self._right_cayley is None:
            self._right_cayley = self._table[:, self.generators]
        return self._right_cayley

    @property
    def left_cayley(self):
        """lc[y, i] = g_i y for each generator g_i, as integer ids.

        A closure's search fills it; otherwise the generators' rows of the
        product table, or built by the same depth-level walk as the table:
        no diagram product is taken.
        """
        if self._left_cayley is None:
            self._left_cayley = self._products(
                self.generators, np.arange(self.size)).T.copy()
        return self._left_cayley

    def product_table(self):
        """Full m x m product table, or None when it would exceed
        TABLE_CELL_LIMIT."""
        if self._table is None:
            m = self.size
            if m * m > TABLE_CELL_LIMIT:
                return None
            ids = np.arange(m)
            self._table = self._products(ids, ids)
        return self._table

    def _walk_data(self):
        """The right Cayley graph with a "stay" column, and the BFS words.

        rc[:, g] (g = number of generators) is the identity map.  Row d of
        words holds, for every element y, the letter of y's ancestor at BFS
        depth d (its seed's generator letter at d = 0), and g past y's depth
        or for the identity seed; letters are stored in the smallest
        unsigned type that holds g.  Returns (rc, words, depth), depth the
        search's.
        """
        if self._walk is None:
            m, g, depth = self.size, len(self.generators), self._depth
            rc = np.hstack([self.right_cayley, np.arange(m, dtype=np.int32)[:, None]])
            words = np.full((int(depth.max(initial=0)) + 1, m), g,
                            dtype=np.min_scalar_type(g))
            words[depth, np.arange(m)] = np.where(self.letter < 0, g, self.letter)
            bounds = np.searchsorted(depth, np.arange(len(words) + 1))
            for d in range(1, len(words)):  # ids in BFS order: depth d is a range
                at = slice(bounds[d], bounds[d + 1])
                words[:d, at] = words[:d, self.parent[at]]
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
        ys = np.asarray(ys)  # each level's letters are read before broadcasting
        out = np.asarray(xs, dtype=np.int32) + np.zeros(ys.shape, dtype=np.int32)
        if out.size:
            flat, width = rc.ravel(), np.intp(rc.shape[1])
            for level in words[:int(depth[ys].max()) + 1]:
                out = flat.take(out * width + level[ys])
        return out

    def _products(self, xs, ys):
        """P[r, c] = xs[r] ys[c], a len(xs) x len(ys) table of ids.

        A gather from the product table when it has been built.  Otherwise
        a dynamic program over depth levels, on the columns of ys and their
        BFS ancestors only: a seed y is a multiplier or the identity, so
        P[:, y] is one step of the right Cayley graph from xs; any other y
        is parent(y) letter(y), so P[:, y] = rc[P[:, parent(y)], letter(y)],
        whose parent column a lower level already holds.  Rows are taken
        in blocks of at most _PAIR_BATCH cells, so r rows cost r x
        |ancestors| gathers, at most r x min(m, |ys| x levels).
        """
        xs = np.asarray(xs, dtype=np.intp)
        ys = np.asarray(ys, dtype=np.intp)
        if self._table is not None:
            return self._table[xs[:, None], ys]
        rc, words, depth = self._walk_data()
        need = np.zeros(self.size, dtype=bool)
        anc = ys
        while anc.size:
            need[anc] = True
            anc = self.parent[anc]
            anc = anc[anc >= 0]
            anc = anc[~need[anc]]
        cols = np.flatnonzero(need)  # by depth, as ids are in BFS order
        bounds = np.searchsorted(depth[cols], np.arange(len(words) + 1))
        at = np.empty(self.size, dtype=np.intp)
        at[cols] = np.arange(len(cols))
        up = at[self.parent[cols]]  # unused for seeds, whose parent is -1
        letters = words[depth[cols], cols].astype(np.intp)
        flat, width = rc.ravel(), np.intp(rc.shape[1])
        out = np.empty((len(xs), len(ys)), dtype=np.int32)
        step = max(1, _PAIR_BATCH // max(1, len(cols)))
        for lo in range(0, len(xs), step):
            block = np.empty((len(xs[lo:lo + step]), len(cols)), dtype=np.int32)
            for d in range(len(words)):
                a, b = bounds[d], bounds[d + 1]
                src = xs[lo:lo + step, None] if d == 0 else block[:, up[a:b]]
                block[:, a:b] = flat.take(src * width + letters[a:b])
            out[lo:lo + step] = block[:, at[ys]]
        return out

    def squares(self):
        """sq[i] = i i for every id i, one batched product, kept."""
        if self._squares is None:
            ids = np.arange(self.size, dtype=np.int32)
            self._squares = _frozen(self.multiply(ids, ids))
        return self._squares

    def idempotent_ids(self):
        """The ids i with i i = i, read off the squaring map."""
        return np.flatnonzero(self.squares() == np.arange(self.size))


def _frozen(array):
    """array, made read-only: the arrays a closure keeps and hands out."""
    array.flags.writeable = False
    return array


def closure(gens, *, include_identity=False, budget=None):
    """BFS closure of a generator list under the diagram product.

    Ids are assigned deterministically: the identity first when requested,
    then the deduplicated generators in the order given, then discovery
    order; a seed has parent -1 and its generator's letter (-1 for the
    identity).  Each BFS level's right Cayley rows are filled by the rule
    of Froidure & Pin: s at depth d >= 1 is g_a u, with a its seed's letter
    and suffix(p g_b) = rc[suffix(p), b], so when r = u g_b lies below
    depth d, s g_b = g_a r = lc[r, a] is a lookup.  The other cells are
    diagram products, one diagrams.multiply_labels call per block of rows.
    A lookup never finds a new element, so new ids follow row-major (id,
    generator) order over the product cells, as in a loop taking one
    product at a time.  The level's left rows are then lc[y, a] =
    rc[lc[parent(y), a], letter(y)] (rc[g_a, letter(y)] for a seed, g_a
    for the identity), and its new keys (sort_keys) are merged into one
    sorted array.  Raises BudgetExceeded when a new id would reach budget.
    """
    gens = list(gens)
    if not gens and not include_identity:
        raise BadDegree("need at least one generator (or include_identity)")
    degree = gens[0].n if gens else 1
    for g in gens:
        if g.n != degree:
            raise DegreeMismatch(f"generator degrees {degree} vs {g.n}")
    budget = DEFAULT_BUDGET if budget is None else budget
    gens = list(dict.fromkeys(gens))
    seeds = {identity(degree): -1} if include_identity else {}
    for i, d in enumerate(gens):
        seeds.setdefault(d, i)
    gen_ids = np.array([list(seeds).index(d) for d in gens], dtype=np.int32)
    gen_labels = diagrams.label_array(gens, degree)
    g = len(gens)
    step = max(1, _PAIR_BATCH // max(1, g * g))  # <= _PAIR_BATCH / g cells a block
    level = diagrams.label_array(list(seeds), degree)
    keys, ids = np.unique(sort_keys(level), return_index=True)
    up = np.full(len(level), -1, dtype=np.int32)  # the level's parents
    let = np.fromiter(seeds.values(), dtype=np.int32, count=len(seeds))
    labels, parent, letter = [level], [up], [let]
    first, suffix = let, None  # the level's first letters and suffixes
    rc = lc = np.empty((0, g), dtype=np.int32)
    lo = 0  # the id of the level's first row
    while len(level):
        hi = lo + len(level)
        if suffix is None:  # the seeds: every cell is a product
            need = np.ones((len(level), g), dtype=bool)
            rows = np.empty(need.shape, dtype=np.int32)
        else:  # a lookup where r = suffix g_b lies below the level
            r = rc[suffix]
            need = r >= lo
            rows = lc[np.minimum(r, lo - 1), first[:, None]]
        cells = np.concatenate([
            diagrams.multiply_labels(level[i:i + step], gen_labels,
                                     where=need[i:i + step])
            for i in range(0, len(level), step)])
        cell_keys = sort_keys(cells)
        at = diagrams.find_keys(keys, cell_keys)
        cell_ids, miss = ids[at], np.flatnonzero(at < 0)
        new_keys, born, inverse = np.unique(
            cell_keys[miss], return_index=True, return_inverse=True)
        if len(new_keys) and hi + len(new_keys) > budget:
            raise BudgetExceeded(f"closure exceeded budget of {budget} elements")
        new_ids = np.empty(len(new_keys), dtype=np.int64)
        new_ids[np.argsort(born)] = np.arange(hi, hi + len(new_keys))
        cell_ids[miss] = new_ids[inverse]
        rows[need] = cell_ids
        rc = np.concatenate([rc, rows])
        base = lc[up] if suffix is not None else np.broadcast_to(gen_ids, rows.shape)
        lc = np.concatenate(  # base: g_a parent(y), or g_a for a seed
            [lc, np.where(let[:, None] < 0, base, rc[base, let[:, None]])])
        at = np.searchsorted(keys, new_keys)
        keys, ids = np.insert(keys, at, new_keys), np.insert(ids, at, new_ids)
        born = miss[np.sort(born)]  # the product cells of the new elements
        q, b = (axis[born] for axis in np.nonzero(need))
        level = cells[born]
        up, let = (lo + q).astype(np.int32), b.astype(np.int32)
        first, suffix = first[q], gen_ids[b] if suffix is None else r[q, b]
        labels.append(level)
        parent.append(up)
        letter.append(let)
        lo = hi
    sizes = [len(level) for level in labels]
    labels = np.concatenate(labels)
    labels.flags.writeable = False
    one = diagrams.find_keys(keys, sort_keys(diagrams.labels(identity(degree))[None]))
    return SemigroupClosure(
        degree, labels, int(ids[one[0]]) if one[0] >= 0 else None,
        gen_ids=_frozen(gen_ids.astype(np.int64)), right_cayley=rc, left_cayley=lc,
        keys=(keys, ids),
        parent=np.concatenate(parent), letter=np.concatenate(letter),
        depth=np.repeat(np.arange(len(sizes), dtype=np.int32), sizes))


def closure_from_elements(elems):
    """The closure of an already-closed element set, from greedy generators,
    kept for callers outside the family code (the benchmark harness times
    it by name).

    Scanning the distinct elements in the order given, each one outside
    the closure of the earlier picks becomes the next pick, whose closure
    is searched again.  Returns closure(picks).  Raises ValueError when the
    closure of the picks leaves the set, and BudgetExceeded before |S| x g,
    the cells of the right Cayley graph, would pass TABLE_CELL_LIMIT.
    """
    elems = list(dict.fromkeys(elems))
    if not elems:
        raise BadDegree("empty element set")
    degree = elems[0].n
    for d in elems:
        if d.n != degree:
            raise DegreeMismatch(f"element degrees {degree} vs {d.n}")
    labs = diagrams.label_array(elems, degree)
    picks, outside = [], [0]  # outside: the elements the picks miss
    while len(outside):
        if len(elems) * (len(picks) + 1) > TABLE_CELL_LIMIT:
            raise BudgetExceeded(
                f"{len(elems)} elements need over {len(picks)} greedy "
                "generators, over TABLE_CELL_LIMIT Cayley graph cells")
        picks.append(elems[outside[0]])
        try:
            sg = closure(picks, budget=len(elems))
            inside = sg.ids_of(labs) >= 0
        except BudgetExceeded:  # a closure over |S| elements leaves the set
            sg = None
        if sg is None or inside.sum() < sg.size:
            raise ValueError(
                "element set is not closed under the product: the closure "
                f"of its first {len(picks)} greedy generators leaves it")
        outside = np.flatnonzero(~inside)
    return sg


def _checked_ids(sg, ids):
    """ids (or one id) as an integer array; BadIndex when one is not
    integral or is outside 0..size-1."""
    given = np.asarray(ids)
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
        ids = given.astype(np.int64, copy=False)
    if given.dtype.kind not in "iu" and (ids != given).any():
        raise BadIndex("id is not an integer")
    if ids.size and (ids.min() < 0 or ids.max() >= sg.size):
        raise BadIndex(f"id outside 0..{sg.size - 1}")
    return ids


def subsemigroup(sg, ids):
    """The closed id set ids of sg as a table-backed SemigroupClosure.

    Its elements are sg's elements at ids, in the order given (none when sg
    has none), and its table is the restriction of sg's products, taken a
    block of whole rows at a time (SemigroupClosure._products), so no
    diagram is multiplied.
    Raises NotASubsemigroup when a product leaves ids, BadIndex when an id
    repeats or is outside 0..size-1, and BudgetExceeded when the table
    would be over TABLE_CELL_LIMIT cells.
    """
    ids = _checked_ids(sg, ids)
    k = len(ids)
    if k * k > TABLE_CELL_LIMIT:
        raise BudgetExceeded(
            f"subsemigroup of {k} elements is over TABLE_CELL_LIMIT")
    pos = np.full(sg.size, -1, dtype=np.int32)
    pos[ids] = np.arange(k, dtype=np.int32)
    if (pos[ids] != np.arange(k)).any():
        raise BadIndex("subsemigroup ids repeat")
    table = pos[sg._products(ids, ids)]
    if (table < 0).any():
        raise NotASubsemigroup(
            f"the {k} ids are not closed under the product")
    return SemigroupClosure.from_table(
        table, None if sg.labels is None else sg.labels[ids])


def extend_subsemigroup(sg, member, gens, new):
    """Grow member, the mask of the subsemigroup gens generates, in place to
    the one gens and new generate, and return its seeds: gens and the ids
    of new outside member, as one ascending array.  Old members are
    multiplied on the right by the new seeds and each element that joins
    by every seed, so each (element, seed) product is taken once, at most
    |result| x |seeds| in batches of at most _PAIR_BATCH.  Raises BadIndex for an id outside
    0..size-1.
    """
    new = np.unique(_checked_ids(sg, new))
    new = new[~member[new]]
    seeds = np.union1d(np.asarray(gens, dtype=np.int64), new)

    def joined(xs, ys):
        """The products xs ys outside member, marked in it."""
        step = max(1, _PAIR_BATCH // max(1, len(ys)))
        out = [xs[:0]]
        for lo in range(0, len(xs), step):
            prods = sg.multiply(xs[lo:lo + step, None], ys).ravel()
            out.append(np.unique(prods[~member[prods]]))
            member[out[-1]] = True
        return np.concatenate(out)

    old = np.flatnonzero(member)
    member[new] = True
    frontier = np.concatenate([new, joined(old, new)])
    while frontier.size:
        frontier = joined(frontier, seeds)
    return seeds


def _table_generators(sg):
    """Ids of a generating set of the table-backed closure sg: scanning ids
    in order, each one the earlier picks do not generate is the next pick,
    and extends their subsemigroup, at most m x |picks| gathers in all."""
    member = np.zeros(sg.size, dtype=bool)
    gens = np.empty(0, dtype=np.int64)
    for i in range(sg.size):
        if not member[i]:
            gens = extend_subsemigroup(sg, member, gens, [i])
    return gens


# ---------------------------------------------------------------------------
# Green's relations


@dataclass(frozen=True)
class GreenData:
    """Green's relations as read-only arrays: each id's R-, L-, J- and
    H-class.  R-, L- and H-classes are numbered by least member (r and l
    int32), and J-classes sinks first, by height (the longest J-order path
    down to a minimal class), then by least member.  j_subgroup_order[c] is
    the order of the maximal subgroups in J-class c, 0 when c holds no
    idempotent: c is regular when it is positive and essential when it is
    over 1.  j_order is a k x 2 array of the ascending rows (upper, lower),
    one per J-order edge read from the Cayley arrays (its transitive
    closure not taken), so lower < upper in every row."""

    r: np.ndarray
    l: np.ndarray
    j: np.ndarray
    h: np.ndarray
    num_r: int
    num_l: int
    num_j: int
    num_h: int
    j_subgroup_order: np.ndarray
    j_order: np.ndarray


def _least_reached(nbT):
    """The least id each id reaches in the graph with an edge from x to
    nbT[i, x] for each row i of the g x m intp array nbT: the fixpoint of
    f = min(f, f[x g]), one generator g at a time, then f = f[f]."""
    f, last = np.arange(nbT.shape[1]), None
    while not np.array_equal(f, last):
        last = f.copy()
        for row in nbT:  # each row reads the rows before it, so fewer rounds
            np.minimum(f, f.take(row), out=f)
        f = f.take(f)
    return f


def _reach(nbT, seen):
    """Mark in the mask seen every id reached from its marked ids along the
    edges x -> nbT[i, x], by one frontier search from all of them."""
    at = np.empty(len(seen), dtype=np.intp)
    frontier = np.flatnonzero(seen)
    while frontier.size:
        step = nbT.take(frontier, axis=1).ravel()
        step = step[~seen.take(step)]
        seen[step] = True
        order = np.arange(len(step))
        at[step] = order
        frontier = step[at[step] == order]  # each id once: repeats would multiply


def _strong_components(nbT):
    """The least member of each id's strong component in the graph with an
    edge from x to nbT[i, x] for each row i of the g x m intp array nbT.

    Each round takes the ids not yet settled.  A root, an id r that is the
    least id it reaches (_least_reached, f), is the least member of its
    component, which is the set r reaches along edges inside its f-class
    (Fleischer, Hendrickson & Pinar, 2000); one frontier search from every
    root at once settles those components.  Edges into settled ids are
    turned back on their source, which leaves the other components as they
    were, and the next round takes the rest.
    """
    least = np.empty(nbT.shape[1], dtype=np.intp)
    live = np.arange(nbT.shape[1])  # the unsettled ids; a round works on positions in live
    while live.size:
        f, ids = _least_reached(nbT), np.arange(live.size)
        settled = f == ids
        _reach(np.where(f.take(nbT) == f, nbT, ids), settled)
        least[live[settled]] = live[f[settled]]
        keep = np.flatnonzero(~settled)
        nbT = nbT.take(keep, axis=1)
        nbT = np.where(settled.take(nbT), np.arange(len(keep)),
                       (np.cumsum(~settled) - 1).take(nbT))
        live = live[keep]
    return least


def _numbered(least):
    """Class numbers 0, 1, ... in the order of each class's least member,
    from the least member of each id's class, and those least members."""
    top = least == np.arange(len(least))
    return (np.cumsum(top) - 1)[least], np.flatnonzero(top)


def _box_ranks(of_class, num_j):
    """For classes numbered by least member, of_class[c] the J-class of
    class c: each class's rank among its J-class's, and their count in
    each J-class."""
    count = np.bincount(of_class, minlength=num_j)
    rank = np.empty(len(of_class), dtype=np.intp)
    rank[np.argsort(of_class, kind="stable")] = (
        np.arange(len(of_class)) - np.repeat(np.cumsum(count) - count, count))
    return rank, count


def green(sg):
    """The GreenData of sg, computed once and kept.

    R is the strong components of the right Cayley graph
    (_strong_components).  R is a left congruence (Howie, Fundamentals of
    Semigroup Theory, Prop. 2.1.2), so g R(x) lies in R(g x), and J = D =
    R o L (Prop. 2.1.4) is the strong components of that action on one
    member of each R-class.  By stability (Rhodes & Steinberg, The
    q-theory of Finite Semigroups, 2009), g x J x implies g x L x, so an
    L-class is what its members reach along the left edges that stay inside
    their J-class, and its least member is the least id reached there.
    Each J-class is an egg-box: its R- and L-classes meet in H-classes of
    one size (Green's lemma), so each H-class is a cell of its J-class's
    box.  The J-order's edges (J(x), J(x g)) and (J(x), J(g x)) are read
    from the Cayley arrays at one x of each L-class and of each R-class
    respectively, as L is a right and R a left congruence.
    CrossCheckFailed when R is not a left or L not a right congruence, a
    J-class is no egg-box or the J-order has a cycle, which no associative
    table gives.
    """
    if sg._green is not None:
        return sg._green
    m, ids = sg.size, np.arange(sg.size)
    # the Cayley graphs as g x m intp arrays: intp gathers run at twice int32's speed
    rcT, lcT = (np.ascontiguousarray(nbr.T, dtype=np.intp)
                for nbr in (sg.right_cayley, sg.left_cayley))
    r_lab, one_r = _numbered(_strong_components(rcT))
    on_r = r_lab.take(lcT.take(one_r, axis=1))  # R(g x) for one x of each R-class
    if not np.array_equal(r_lab.take(lcT), on_r.take(r_lab, axis=1)):
        raise CrossCheckFailed("R is not a left congruence")
    lead = one_r.take(_strong_components(on_r)).take(r_lab)  # least id of each id's J-class
    l_lab, one_l = _numbered(_least_reached(np.where(lead.take(lcT) == lead, lcT, ids)))
    on_l = l_lab.take(rcT.take(one_l, axis=1))  # L(x g) for one x of each L-class
    if not np.array_equal(l_lab.take(rcT), on_l.take(l_lab, axis=1)):
        raise CrossCheckFailed("L is not a right congruence")

    top = lead == ids
    tops = np.flatnonzero(top)
    num_j, cls = len(tops), (np.cumsum(top) - 1)[lead]
    # H-classes: cell (R, L) of their J-class's box, numbered by least member
    (r_at, num_rs), (l_at, num_ls) = (_box_ranks(cls[one], num_j) for one in (one_r, one_l))
    box = num_rs * num_ls
    num_h = int(box.sum())
    cell = (np.cumsum(box) - box)[cls] + r_at[r_lab] * num_ls[cls] + l_at[l_lab]
    size = np.bincount(cell, minlength=min(num_h, m + 1))  # a box of over m cells has an empty one
    if num_h > m or (size != np.repeat(size[cell[tops]], box)).any():
        raise CrossCheckFailed("a J-class's R- and L-classes meet in H-classes "
                               "of unequal size or none")
    least_h = np.full(num_h, m)
    np.minimum.at(least_h, cell, ids)
    h_lab = _numbered(least_h[cell])[0]

    edges = []
    for xs, nbT in ((one_l, rcT), (one_r, lcT)):
        src, dst = cls[xs], cls.take(nbT.take(xs, axis=1))
        edges.append((src * num_j + dst)[src != dst])
    codes = np.unique(np.concatenate(edges))
    upper, lower = codes // num_j, codes % num_j
    height = _longest_paths(upper, lower, np.ones(num_j, dtype=np.int64))
    number = np.argsort(np.lexsort((tops, height)))  # each class's rank
    j_lab = number[cls].astype(np.int32)
    codes = np.unique(number[upper] * num_j + number[lower])  # j_order's rows, ascending

    idem = sg.idempotent_ids()
    first_e = np.full(num_j, m)  # each class's first idempotent, m for none
    np.minimum.at(first_e, j_lab[idem], idem)
    subgroup = np.where(first_e < m, size[cell[np.minimum(first_e, m - 1)]], 0)
    sg._green = GreenData(
        r=_frozen(r_lab.astype(np.int32)), l=_frozen(l_lab.astype(np.int32)),
        j=_frozen(j_lab), h=_frozen(h_lab),
        num_r=len(one_r), num_l=len(one_l), num_j=num_j, num_h=num_h,
        j_subgroup_order=_frozen(subgroup),
        j_order=_frozen(np.stack([codes // num_j, codes % num_j], axis=1)),
    )
    return sg._green


def _longest_paths(upper, lower, weight):
    """The most weight on a path down from each class along the J-order
    edges (upper, lower), its own weight included: weight[c] plus the most
    of the classes just below c, by relaxing every edge at once until
    nothing grows.  CrossCheckFailed when it still grows after as many
    rounds as there are classes, which only a cycle of positive weight
    allows."""
    most = weight
    for _ in range(len(weight) + 1):  # a path has at most len(weight) - 1 edges
        grown = weight.copy()
        np.maximum.at(grown, upper, most[lower] + weight[upper])
        if np.array_equal(grown, most):
            return most
        most = grown
    raise CrossCheckFailed("J-order has a cycle")


def index_period(sg, i):
    """(index, period) of element i: first repetition structure of its powers.
    BadIndex for an id outside 0..size-1."""
    i = int(_checked_ids(sg, i))
    seen = {}
    x = i
    k = 1
    while x not in seen:
        seen[x] = k
        x = int(sg.multiply(x, i))
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
    """Most essential J-classes on a chain of the J-order (_longest_paths,
    weighing each essential class 1); CrossCheckFailed when an edge of
    j_order does not point to a lower number, as green numbers classes
    sinks first."""
    g = green(sg)
    if (g.j_order[:, 1] >= g.j_order[:, 0]).any():
        raise CrossCheckFailed("J-order is not numbered sinks first")
    essential = (g.j_subgroup_order > 1).astype(np.int64)
    return int(_longest_paths(*g.j_order.T, essential).max(initial=0))


def units(sg):
    """Ids of the group of units (H-class of the identity element)."""
    if sg.identity_id is None:
        raise NotAMonoid("semigroup has no identity element")
    g = green(sg)
    return np.flatnonzero(g.h == g.h[sg.identity_id])


def singular_part(sg):
    """Ids of the elements outside the group of units."""
    return np.setdiff1d(np.arange(sg.size), units(sg))


def generated_subsemigroup(sg, seed_ids):
    """Ids of the subsemigroup seed_ids generate in sg, extended from the
    empty set; BadIndex for an id outside 0..size-1."""
    member = np.zeros(sg.size, dtype=bool)
    extend_subsemigroup(sg, member, [], seed_ids)
    return np.flatnonzero(member)


def idempotent_generated(sg):
    """Ids of the subsemigroup generated by all idempotents."""
    return generated_subsemigroup(sg, sg.idempotent_ids())


def principal_ideal(sg, e_id):
    """Ids of S^1 e S^1: the J-classes at or below J(e) in the cached
    J-order (green); BadIndex for an id outside 0..size-1."""
    e_id = int(_checked_ids(sg, e_id))
    g = green(sg)
    upper, lower = g.j_order.T
    below = np.arange(g.num_j) == g.j[e_id]
    while not below[lower[below[upper]]].all():
        below[lower[below[upper]]] = True
    return np.flatnonzero(below[g.j])


def local_monoid(sg, e_id):
    """The monoid e S e: subsemigroup of sg's elements e x e in id order.

    Its identity is e.  Raises NotIdempotent when e is not idempotent,
    BadIndex for an id outside 0..size-1 and BudgetExceeded as subsemigroup
    does.
    """
    e_id = int(_checked_ids(sg, e_id))
    if int(sg.multiply(e_id, e_id)) != e_id:
        raise NotIdempotent(f"element {e_id} is not idempotent")
    member = np.zeros(sg.size, dtype=bool)
    member[sg.multiply(e_id, sg.multiply(np.arange(sg.size), e_id))] = True
    return subsemigroup(sg, np.flatnonzero(member))


def is_ideal(sg, ids):
    """True when the ids form a non-empty two-sided ideal of sg: a set closed
    under multiplication by sg's generators on either side is closed under
    every product by induction on the words.  Raises BadIndex for an id
    outside 0..size-1."""
    member = np.zeros(sg.size, dtype=bool)
    member[_checked_ids(sg, ids)] = True
    ids = np.flatnonzero(member)
    return bool(ids.size and member[sg.right_cayley[ids]].all()
                and member[sg.left_cayley[ids]].all())


def rees_quotient(sg, ideal_ids):
    """Rees quotient S/I: a table-backed SemigroupClosure with no elements.

    Ids 0..k-1 are the non-ideal elements of S in id order, and the last
    id, k, is the adjoined zero.  Raises NotAnIdeal when I is empty or not
    an ideal (is_ideal), BadIndex for an id outside 0..size-1, and
    BudgetExceeded, before any table is made, when its (k+1)^2 cells would
    be over TABLE_CELL_LIMIT.
    """
    ideal_ids = _checked_ids(sg, ideal_ids)
    if not is_ideal(sg, ideal_ids):
        raise NotAnIdeal("set is empty or not closed under multiplication by generators")
    keep = np.setdiff1d(np.arange(sg.size), ideal_ids)
    k = len(keep)
    if (k + 1) ** 2 > TABLE_CELL_LIMIT:
        raise BudgetExceeded(
            f"Rees quotient of {k + 1} elements is over TABLE_CELL_LIMIT")
    pos = np.full(sg.size, k, dtype=np.int32)
    pos[keep] = np.arange(k, dtype=np.int32)
    table = np.full((k + 1, k + 1), k, dtype=np.int32)
    table[:k, :k] = pos[sg._products(keep, keep)]
    quotient = SemigroupClosure.from_table(table)
    _spot_check_associativity(quotient)
    return quotient


_ASSOCIATIVITY_SAMPLES = 60


def _spot_check_associativity(sg):
    """Raise CrossCheckFailed naming the first of _ASSOCIATIVITY_SAMPLES
    triples drawn with seed 0 on which (xy)z != x(yz), if any."""
    rng, m = random.Random(0), sg.size
    xyz = np.reshape([rng.randrange(m) for _ in range(3 * _ASSOCIATIVITY_SAMPLES)],
                     (-1, 3))
    x, y, z = xyz.T
    bad = sg.multiply(sg.multiply(x, y), z) != sg.multiply(x, sg.multiply(y, z))
    if bad.any():
        raise CrossCheckFailed(
            f"product table not associative at {tuple(xyz[bad.argmax()].tolist())}")


def is_inverse(sg):
    """True when every R-class and every L-class holds exactly one idempotent.

    That is, every element is regular and idempotents commute (Howie,
    Fundamentals of Semigroup Theory, Thm 5.1.1); it takes two counts over
    the Green data.
    """
    g = green(sg)
    idem = sg.idempotent_ids()
    return bool((np.bincount(g.r[idem], minlength=g.num_r) == 1).all()
                and (np.bincount(g.l[idem], minlength=g.num_l) == 1).all())


def _down_sets(sg, bs):
    """Row i: the mask of S^1 bs[i], one frontier search of the left Cayley
    graph from bs[i]."""
    lcT = np.ascontiguousarray(sg.left_cayley.T, dtype=np.intp)
    below = np.zeros((len(bs), sg.size), dtype=bool)
    for row, b in zip(below, bs):
        row[b] = True
        _reach(lcT, row)
    return below


def l_leq(sg, a, b):
    """Left-order: a <=_L b iff a lies in S^1 b (reachability in the left
    graph); BadIndex for an id outside 0..size-1."""
    a, b = _checked_ids(sg, [a, b]).tolist()
    return bool(_down_sets(sg, [b])[0, a])


def t1_chain(sg):
    """Witness that the generating set is totally preordered by <=_L.

    Returns an array of generator ids sorted ascending in the left order,
    or None when some pair is incomparable.  Only the closure's own
    generator pool is searched (for a table-backed closure, the generating
    set found from its table); this is a semi-decision, not a classifier.

    Each pool element's down-set S^1 b is one breadth-first search of the
    left Cayley graph.  In a total preorder a <_L b makes S^1 a a proper
    subset of S^1 b, so a stable sort by down-set size is the left order.
    """
    pool = sg.generators
    if sg.identity_id is not None and sg.identity_id not in pool:
        pool = np.append(pool, sg.identity_id)
    below = _down_sets(sg, pool)
    at = below[:, pool]  # at[j, i]: pool[i] <=_L pool[j]
    if not (at | at.T).all():
        return None
    return pool[np.argsort(below.sum(axis=1), kind="stable")]


def pad_embedding(a, target_n):
    """Embed degree n-2 into degree n by appending caps {n-1,n} on both rows
    (a one-row call of diagrams.pads).

    The image lands in the local monoid of the adjacent contraction at
    n-1; the map is one-to-one and multiplicative.
    """
    return diagrams.from_labels(diagrams.pads(diagrams.labels(a)[None], target_n)[0])
