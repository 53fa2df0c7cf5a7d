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
BFS depth level at a time.  Whole rows of products are the same walk done
by dynamic programming over the depth levels (SemigroupClosure._products).
The full product table is built lazily, only below a size limit, one
depth level of rows at a time from the left Cayley graph: x y = parent(x)
(g y) for x = parent(x) g, so row x is its parent's row read at a column
of lc.  The squaring map i -> i i is one batched product, kept, so powers
x^(2^k) are integer gathers.

SemigroupClosure is the only semigroup class, and every one is searched:
ids in BFS order, a BFS word per element and the Cayley arrays over a
small generating set, with no product table made to build it.  A
semigroup derived from a closure takes its products from the parent's
ids: subsemigroup() (ideals, local monoids e S e, padded copies and group
kernels) picks a generating set G inside the parent, takes the k x |G|
products of its Cayley arrays from the parent and numbers its ids by one
integer BFS from G; rees_quotient() (S/I, whose ids stand for no
diagram) needs no search, as the parent's words restricted to the
non-ideal ids are a BFS tree of the quotient.  extend_subsemigroup grows
the subsemigroup some ids generate by one integer search.
generated_subsemigroup is built on it, and so is _table_generators, which
adds ids one at a time and skips those already generated: it finds a
restriction's generating set, and the group kernel's rounds pick their few
seeds with it.  The group kernel reads every product through multiply and
_products, so it gathers from the table under TABLE_CELL_LIMIT and walks
words over it.  Every family is the closure of a generating set
(families.generators); closure_from_elements, the closure of generators
picked greedily from a set, is kept for callers outside the family code.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np
import numpy.ma  # noqa: F401  np.unique imports it on first call; keep that in import time

from . import diagrams
from .diagrams import ElementSet, identity, sort_keys
from .errors import (
    BadDegree,
    BadIndex,
    BrauerKitError,
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

    Every semigroup is searched: a closure of diagram generators
    (closure; closure_from_elements picks the generators of an element set
    first), a restriction of a closure to a closed id set (subsemigroup) or
    a Rees quotient (rees_quotient).  Each holds its generators' ids, the
    right and left Cayley graphs over them and a BFS word (parent, letter)
    per element, its ids in BFS order.  labels is the read-only label array
    whose row i is the diagram of id i, or None for a Rees quotient, whose
    ids stand for no diagram.  Each question about the elements has one
    accessor: ids_of maps label rows to ids, element_set() is the set of
    the rows, and diagrams.from_labels makes the diagram of one row.
    identity_id is the id of the two-sided identity when one exists (the
    identity diagram for ordinary closures, the designated idempotent e for
    local monoids e S e).
    """

    def __init__(self, degree, labels, identity_id, *, gen_ids, right_cayley,
                 left_cayley, parent, letter, depth, keys=None):
        """gen_ids, the right and left Cayley graphs (rc[x, i] = x g_i and
        lc[y, i] = g_i y for each generator g_i, as integer ids), parent,
        letter and depth (each element's BFS depth) come from a search, and
        keys (the sorted keys of the rows of labels, and the id of each)
        from a closure's; missing keys are worked out when first needed."""
        self.degree = degree
        self.labels = labels
        self._keys = keys
        self.generators = gen_ids
        self.right_cayley = right_cayley
        self.left_cayley = left_cayley
        self.parent = parent
        self.letter = letter
        self._depth = depth
        self.identity_id = identity_id
        self.size = len(parent)
        self._table = None
        self._walk = None
        self._green = None
        self._squares = None
        self._element_set = None

    def __len__(self):
        return self.size

    def _rows(self):
        """labels; BrauerKitError for a Rees quotient, which has none."""
        if self.labels is None:
            raise BrauerKitError("a Rees quotient's ids stand for no diagram")
        return self.labels

    def _sorted_keys(self):
        """The rows' keys (sort_keys) in ascending order, and the id of each."""
        if self._keys is None:  # the rows are distinct
            self._keys = np.unique(sort_keys(self._rows()), return_index=True)
        return self._keys

    def element_set(self, ids=None):
        """The ElementSet of the elements at ids, or of all elements.

        The set of all elements is kept.  It takes the rows in the order of
        the closure's sorted keys, the order an ElementSet keeps, and those
        keys, so nothing is sorted or checked again.  Raises BadIndex for
        ids that are not integers in 0..size-1, such as a boolean mask, and
        BrauerKitError on a Rees quotient.
        """
        if ids is not None:
            return ElementSet(self.degree, self._rows()[_checked_ids(self, ids)])
        if self._element_set is None:
            keys, order = self._sorted_keys()
            self._element_set = ElementSet._of_sorted(
                self.degree, self.labels[order], keys)
        return self._element_set

    def ids_of(self, labs):
        """The id of the element of each row of a label array, -1 for a row
        that is no element, has another degree or is not a restricted growth
        string (whose sort key may be an element's); BrauerKitError on a
        Rees quotient."""
        keys, ids = self._sorted_keys()
        labs = np.asarray(labs)
        if labs.shape[1] != 2 * self.degree:
            return np.full(len(labs), -1, dtype=np.int64)
        at = diagrams.find_keys(keys, sort_keys(labs))
        at[~diagrams.restricted_growth(labs)] = -1
        return np.where(at >= 0, ids[at], -1).astype(np.int64)

    def product_table(self):
        """Full m x m int32 product table, built once and kept, or None
        when it would exceed TABLE_CELL_LIMIT.

        The table is built one BFS depth level of rows at a time from the
        left Cayley graph: a seed g_a's row is g_a y = lc[y, a] and the
        identity's row is every id; any other x is parent(x) g_b, so x y =
        parent(x) (g_b y) and row x is the row of parent(x), which a lower
        level holds, read at lc[:, b].  A level is taken in blocks of at
        most _PAIR_BATCH / 8 cells, whole rows (one row when m is larger),
        each one gather of lc's columns and one flat take; the block's ids
        are intp, so it holds _PAIR_BATCH bytes.
        """
        if self._table is None:
            m = self.size
            if m * m > TABLE_CELL_LIMIT:
                return None
            # row g of lcT is the identity map, the letter of the identity seed
            lcT = np.vstack([self.left_cayley.T, np.arange(m)], dtype=np.intp)
            letter = np.where(self.letter < 0, len(lcT) - 1, self.letter)
            offset = self.parent.astype(np.intp) * m  # where the parent's row starts
            table = np.empty((m, m), dtype=np.int32)
            bounds = np.searchsorted(self._depth, np.arange(int(self._depth[-1]) + 2))
            table[:bounds[1]] = lcT[letter[:bounds[1]]]
            step = max(1, (_PAIR_BATCH >> 3) // m)
            buf = np.empty((min(step, m), m), dtype=np.intp)  # one block's cells
            for d in range(1, len(bounds) - 1):
                for lo in range(bounds[d], bounds[d + 1], step):
                    hi = min(lo + step, bounds[d + 1])
                    cells = buf[:hi - lo]
                    # indices are in range, so mode="wrap" skips the bounds
                    # check and the copy of out it takes; reading table[:lo]
                    # alone keeps out apart from the source, another copy
                    lcT.take(letter[lo:hi], axis=0, out=cells, mode="wrap")
                    cells += offset[lo:hi, None]
                    table[:lo].ravel().take(cells, out=table[lo:hi], mode="wrap")
            self._table = table
        return self._table

    def _walk_data(self):
        """The right Cayley graph with a "stay" column, scaled, and the BFS
        words.

        With w = g + 1 (g the number of generators), flat[x w + i] is
        (x g_i) w, and flat[x w + g] is x w, the identity map: a walk keeps
        its ids scaled by w, so a step along letters is one add and one
        take.  Row d of words holds, for every element y, the letter of y's
        ancestor at BFS depth d (its seed's generator letter at d = 0), and
        g past y's depth or for the identity seed; letters are stored in
        the smallest unsigned type that holds g.  Returns (flat, w, words,
        depth), depth the search's in the smallest unsigned type that holds
        it, which numpy sorts by radix.
        """
        if self._walk is None:
            m, g, depth = self.size, len(self.generators), self._depth
            flat = np.hstack([self.right_cayley, np.arange(m)[:, None]],
                             dtype=np.int32 if m * (g + 1) < 2 ** 31 else np.int64)
            flat = flat.ravel() * (g + 1)
            words = np.full((int(depth.max(initial=0)) + 1, m), g,
                            dtype=np.min_scalar_type(g))
            words[depth, np.arange(m)] = np.where(self.letter < 0, g, self.letter)
            bounds = np.searchsorted(depth, np.arange(len(words) + 1))
            for d in range(1, len(words)):  # ids in BFS order: depth d is a range
                at = slice(bounds[d], bounds[d + 1])
                words[:d, at] = words[:d, self.parent[at]]
            self._walk = flat, g + 1, words, depth.astype(np.min_scalar_type(len(words) - 1))
        return self._walk

    def multiply(self, xs, ys):
        """Ids of x y for ids xs, ys (arrays broadcast against each other).

        A gather from the product table when it has been built; otherwise
        each y's word is followed from x over the right Cayley graph, one
        depth level at a time, so a batch of pairs costs one gather per
        level and no diagram product.  Each entry of a 1-D or scalar ys is
        a column, along the last axis, and any other ys makes each pair a
        column.  The columns are stepped in non-decreasing depth of y, so
        level d steps only the suffix of columns whose word is still
        running; ys in another order are sorted by depth (a radix sort) and
        put back at the end.  Each column is one row of the work array, so
        a level's suffix is one contiguous block, stepped in place, its ids
        scaled as _walk_data's are: one add and one take a level.
        """
        if self._table is not None:
            return self._table[xs, ys]
        flat, width, words, depth = self._walk_data()
        ys = np.asarray(ys)  # each level's letters are read before broadcasting
        out = np.asarray(xs, dtype=flat.dtype) * width + np.zeros(ys.shape, dtype=flat.dtype)
        if not out.size:
            return out.astype(np.int32)
        shape = out.shape
        ys = (np.broadcast_to(ys, shape) if ys.ndim > 1 else ys).ravel()
        dy = depth[ys]
        order = np.argsort(dy, kind="stable") if (dy[1:] < dy[:-1]).any() else None
        # row c of run: the products by ys[c], one per row of xs
        run = np.ascontiguousarray(out.reshape(-1, len(ys)).T)
        if order is not None:
            ys, dy, run = ys[order], dy[order], run[order]
        step = np.empty(run.shape, dtype=np.intp)
        starts = np.searchsorted(dy, np.arange(int(dy[-1]) + 1)).tolist()
        for level, s in zip(words, starts):  # columns s: still run at this level
            np.add(run[s:], level[ys[s:, None]], out=step[s:])
            # indices are in range, so mode="wrap" skips the bounds check
            # and the buffered copy of out that it takes
            flat.take(step[s:], out=run[s:], mode="wrap")
        if order is not None:
            back, run = run, np.empty_like(run)
            run[order] = back
        return (run.T // width).astype(np.int32, copy=False).reshape(shape)

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
        flat, width, words, depth = self._walk_data()
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
        out = np.empty((len(xs), len(ys)), dtype=np.int32)
        step = max(1, _PAIR_BATCH // max(1, len(cols)))
        for lo in range(0, len(xs), step):
            block = np.empty((len(xs[lo:lo + step]), len(cols)), dtype=flat.dtype)
            for d in range(len(words)):  # block holds ids scaled by width
                a, b = bounds[d], bounds[d + 1]
                src = xs[lo:lo + step, None] * width if d == 0 else block[:, up[a:b]]
                block[:, a:b] = flat.take(src + letters[a:b])
            out[lo:lo + step] = block[:, at[ys]] // width
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
    diagram products, one diagrams._factor_products call per block of rows,
    a generator at a time, from each generator's merges (_factor_plan),
    worked out once per search.  A lookup never finds a new element, so new
    ids follow row-major (id, generator) order over the product cells, as
    in a loop taking one product at a time.  The cells whose keys
    (sort_keys) the sorted keys miss are sorted once, stably, so each new
    key's first cell comes first among its equals: a neighbour comparison
    marks the new keys and their first cells, which take the new ids in
    cell order, and a cumulative sum hands every missed cell the id of its
    key.  The new keys and ids are merged into the sorted keys and their
    ids through one searchsorted and one mask shared by both.  The level's
    left rows are then lc[y, a] = rc[lc[parent(y), a], letter(y)]
    (rc[g_a, letter(y)] for a seed, g_a for the identity).  Raises
    BudgetExceeded when a new id would reach budget.
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
    plans = [diagrams._factor_plan(b) for b in diagrams.label_array(gens, degree)]
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
            diagrams._factor_products(level[i:i + step], plans, need[i:i + step])
            for i in range(0, len(level), step)])
        cell_keys = sort_keys(cells)
        at = diagrams.find_keys(keys, cell_keys)
        cell_ids, miss = ids[at], np.flatnonzero(at < 0)
        missed = cell_keys[miss]
        order = np.argsort(missed, kind="stable")  # a key's first cell first
        ordered = missed[order]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = ordered[1:] != ordered[:-1]
        new_keys, lead = ordered[fresh], order[fresh]
        if len(new_keys) and hi + len(new_keys) > budget:
            raise BudgetExceeded(f"closure exceeded budget of {budget} elements")
        born = np.zeros(len(order), dtype=bool)  # each new key's first cell
        born[lead] = True
        new_ids = hi - 1 + np.cumsum(born)[lead]  # numbered in cell order
        cell_ids[miss[order]] = new_ids[np.cumsum(fresh) - 1]
        rows[need] = cell_ids
        rc = np.concatenate([rc, rows])
        if suffix is None:  # g_a y = rc[g_a, letter(y)], or g_a for the identity
            base = np.broadcast_to(gen_ids, rows.shape)
            left = np.where(let[:, None] < 0, base, rc[base, let[:, None]])
        else:  # past the seeds no letter is negative
            left = rc[lc[up], let[:, None]]
        lc = np.concatenate([lc, left])
        at = np.searchsorted(keys, new_keys) + np.arange(len(new_keys))
        old = np.ones(len(keys) + len(new_keys), dtype=bool)  # the old entries' places
        old[at] = False
        merged = [np.empty(len(old), dtype=kept.dtype) for kept in (keys, ids)]
        for out, kept, added in zip(merged, (keys, ids), (new_keys, new_ids)):
            out[old], out[at] = kept, added
        keys, ids = merged
        born = miss[born]  # the product cells of the new elements
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
    is searched again.  Returns closure(picks).  Raises NotASubsemigroup
    when the closure of the picks leaves the set, and BudgetExceeded before
    |S| x g, the cells of the right Cayley graph, would pass
    TABLE_CELL_LIMIT.
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
            raise NotASubsemigroup(
                "element set is not closed under the product: the closure "
                f"of its first {len(picks)} greedy generators leaves it")
        outside = np.flatnonzero(~inside)
    return sg


def _checked_ids(sg, ids):
    """ids (or one id) as an integer array; BadIndex when one is not
    integral or is outside 0..size-1, or when ids are booleans, such as a
    mask, which would read as ids 0 and 1."""
    given = np.asarray(ids)
    if given.dtype == bool:
        raise BadIndex("ids are booleans, not integers; a mask m is np.flatnonzero(m)")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
        ids = given.astype(np.int64, copy=False)
    if given.dtype.kind not in "iu" and (ids != given).any():
        raise BadIndex("id is not an integer")
    if ids.size and (ids.min() < 0 or ids.max() >= sg.size):
        raise BadIndex(f"id outside 0..{sg.size - 1}")
    return ids


def subsemigroup(sg, ids):
    """The closed id set ids of sg as a SemigroupClosure, searched over
    sg's ids with no product table.

    Its generating set G is picked greedily from ids in the order given
    (_table_generators), which also proves closure: ids are closed iff the
    subsemigroup G generates holds no other id.  Its right and left Cayley
    arrays are sg's products ids G and G ids, k x |G| of them
    (SemigroupClosure._products), so no diagram is multiplied.  Its ids are
    numbered by one integer BFS from G over them, as closure numbers ids:
    G first, in the order given, then each level's products by the
    generators not seen before, in row-major order of first appearance.
    Its elements are sg's at ids, in that order (none when sg has none),
    and its identity is the id e with e g = g e = g for each g in G, which
    the Cayley arrays decide.  Raises NotASubsemigroup when a product
    leaves ids, and BadIndex when an id repeats or is outside 0..size-1.
    """
    ids = _checked_ids(sg, ids)
    k = len(ids)
    pos = np.full(sg.size, -1, dtype=np.int32)
    pos[ids] = np.arange(k, dtype=np.int32)
    if (pos[ids] != np.arange(k)).any():
        raise BadIndex("subsemigroup ids repeat")
    member = np.zeros(sg.size, dtype=bool)
    seeds = np.sort(pos[_table_generators(sg, member, [], ids)])  # in the order given
    if member.sum() > k:
        raise NotASubsemigroup(f"the {k} ids are not closed under the product")
    right, left = pos[sg._products(ids, ids[seeds])], pos[sg._products(ids[seeds], ids)].T
    g = len(seeds)
    seen = np.isin(np.arange(k), seeds)
    # each id's first cell, parent g + letter, and the new id of the level's first row
    order, cells, lo = [seeds], [np.arange(g) - g], 0
    while len(order[-1]):
        found = right[order[-1]].ravel()
        fresh = np.flatnonzero(~seen[found])
        at = fresh[np.sort(np.unique(found[fresh], return_index=True)[1])]
        cells.append(lo * g + at)
        lo += len(order[-1])
        order.append(found[at])
        seen[order[-1]] = True
    depth = np.repeat(np.arange(len(order), dtype=np.int32), [len(level) for level in order])
    parent, letter = np.divmod(np.concatenate(cells, dtype=np.int32), g)
    order = np.concatenate(order)
    new = np.argsort(order).astype(np.int32)  # the new id of each position in ids
    rc, lc = new[right[order]], new[left[order]]
    return SemigroupClosure(
        sg.degree, None if sg.labels is None else _frozen(sg.labels[ids[order]]),
        _identity(rc, lc, np.arange(g)), gen_ids=_frozen(np.arange(g, dtype=np.int64)),
        right_cayley=rc, left_cayley=lc, parent=parent, letter=letter, depth=depth)


def _identity(rc, lc, gens):
    """The id e with e g = g e = g for every generator g, which makes e the
    identity of the semigroup the generators generate, or None."""
    one = np.flatnonzero((rc == gens).all(axis=1) & (lc == gens).all(axis=1))
    return int(one[0]) if one.size else None


def extend_subsemigroup(sg, member, gens, new):
    """Grow member, the mask of the subsemigroup gens generates, in place to
    the one gens and new generate, and return its seeds: gens and the ids
    of new outside member, as one ascending array.  Old members are
    multiplied on the right by the new seeds and each element that joins
    by every seed, so each (element, seed) product is taken once, at most
    |result| x |seeds| in batches of at most _PAIR_BATCH; a batch's products
    outside member are read off a mask over the ids, not sorted.  Raises
    BadIndex for an id outside 0..size-1.
    """
    new = np.unique(_checked_ids(sg, new))
    new = new[~member[new]]
    seeds = np.union1d(np.asarray(gens, dtype=np.int64), new)

    def joined(xs, ys):
        """The products xs ys outside member, marked in it; each block's
        are read off a mask over the ids, so ascending without a sort."""
        step = max(1, _PAIR_BATCH // max(1, len(ys)))
        out = [xs[:0]]
        for lo in range(0, len(xs), step):
            hit = np.zeros(sg.size, dtype=bool)
            hit[sg.multiply(xs[lo:lo + step, None], ys)] = True
            out.append(np.flatnonzero(hit & ~member))
            member[out[-1]] = True
        return np.concatenate(out)

    old = np.flatnonzero(member)
    member[new] = True
    frontier = np.concatenate([new, joined(old, new)])
    while frontier.size:
        frontier = joined(frontier, seeds)
    return seeds


def _table_generators(sg, member, gens, ids):
    """Grow member, the mask of the subsemigroup gens generates, by ids one
    at a time in the order given: each id that member does not hold is the
    next pick and extends it (extend_subsemigroup).  Returns gens and the
    picks as one ascending array.  Over a closed id set, from no member,
    the picks generate it in at most k x |picks| products; subsemigroup
    finds its generators this way, and the kernel rounds their seeds."""
    gens = np.asarray(gens, dtype=np.int64)
    for i in ids:
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
    """The monoid e S e: subsemigroup of sg's elements e x e, picked in
    id order.

    Its identity is e.  Raises NotIdempotent when e is not idempotent and
    BadIndex for an id outside 0..size-1.
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
    """Rees quotient S/I: a SemigroupClosure with no elements, over sg's
    generators, with no search and no product table.

    A prefix of the BFS word of an element outside I lies outside I, so
    sg's words restricted to the kept ids are a BFS tree of S/I over the
    same generators; the kept ids keep their order.  The zero's word goes
    through the first product of the search (the generators first, then
    the rows in id order) that lands in I, and the zero takes the id the
    search would give it there, so it need not be the last id.  The Cayley
    arrays are sg's at the kept ids, with I mapped to the zero and a zero
    row; a generator column repeating the zero is dropped.  Raises
    NotAnIdeal when I is empty or not an ideal (is_ideal), and BadIndex for
    an id outside 0..size-1.
    """
    ideal_ids = _checked_ids(sg, ideal_ids)
    if not is_ideal(sg, ideal_ids):
        raise NotAnIdeal("set is empty or not closed under multiplication by generators")
    inside = np.isin(np.arange(sg.size), ideal_ids)
    keep = np.flatnonzero(~inside)
    g = len(sg.generators)
    cells = np.flatnonzero(inside[np.vstack([sg.generators, sg.right_cayley[keep]])])
    row, let = divmod(int(cells[0]), g) if cells.size else (0, -1)  # no generators: I = S = {1}
    up = int(np.append(-1, keep)[row])  # the zero's parent, -1 for a seed
    codes = sg.parent[keep].astype(np.int64) * g + sg.letter[keep]  # ascending, as ids are
    z = int(np.searchsorted(codes, up * g + let))
    pos = np.full(sg.size + 1, z, dtype=np.int32)  # pos[-1] = -1 is a seed's parent
    pos[keep], pos[-1] = np.arange(len(keep)) + (np.arange(len(keep)) >= z), -1
    gens = pos[sg.generators]
    cols = np.sort(np.unique(gens, return_index=True)[1])  # the zero's column once
    # letters renumbered over cols, and an identity seed's -1 kept
    letter = np.searchsorted(np.append(-1, cols), np.insert(sg.letter[keep], z, let)) - 1
    rc, lc = (np.insert(pos[cayley[keep][:, cols]], z, z, axis=0)
              for cayley in (sg.right_cayley, sg.left_cayley))
    quotient = SemigroupClosure(
        None, None, _identity(rc, lc, gens[cols]),
        gen_ids=_frozen(gens[cols].astype(np.int64)), right_cayley=rc, left_cayley=lc,
        parent=pos[np.insert(sg.parent[keep], z, up)], letter=letter.astype(np.int32),
        depth=np.insert(sg._depth[keep], z, np.append(sg._depth, -1)[up] + 1))
    _spot_check_associativity(quotient)
    return quotient


_ASSOCIATIVITY_SAMPLES = 60


@functools.lru_cache(maxsize=64)
def _associativity_triples(m, samples):
    """samples triples of ids below m drawn with seed 0, as a read-only
    samples x 3 array, drawn once for each m."""
    rng = random.Random(0)
    return _frozen(np.reshape([rng.randrange(m) for _ in range(3 * samples)], (-1, 3)))


def _spot_check_associativity(sg):
    """Raise CrossCheckFailed naming the first of _ASSOCIATIVITY_SAMPLES
    triples drawn with seed 0 on which (xy)z != x(yz), if any.  Two batched
    products: x y and y z, then (xy) z and x (yz)."""
    xyz = _associativity_triples(sg.size, _ASSOCIATIVITY_SAMPLES)
    xy, yz = sg.multiply(xyz.T[:2], xyz.T[1:])
    bad = np.not_equal(*sg.multiply(np.stack([xy, xyz[:, 0]]), np.stack([xyz[:, 2], yz])))
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


def t1_chain(sg):
    """Witness that the generating set is totally preordered by <=_L.

    Returns an array of generator ids sorted ascending in the left order,
    or None when some pair is incomparable.  Only the closure's own
    generator pool is searched; this is a semi-decision, not a
    classifier.

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

