"""Finite semigroup machinery over diagram elements.

Semigroups are materialized as closures: elements get dense integer ids in
BFS discovery order (seeds first, in the order given, then products), and
the right Cayley graph over the generating set is recorded during the
search.  Green's relations come from strongly connected components of the
Cayley graphs; the J-order is the condensation reachability order.

A full product table is built lazily (and only below a size limit) by
dynamic programming over the BFS parent structure, so it costs one numpy
gather per element column instead of one diagram product per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .diagrams import Diagram, identity, _canon
from .errors import (
    BadDegree,
    BudgetExceeded,
    CrossCheckFailed,
    DegreeMismatch,
    NotAMonoid,
    NotAnIdeal,
    NotIdempotent,
)

DEFAULT_BUDGET = 5_000_000
TABLE_CELL_LIMIT = 16_000_000  # max product-table entries (int32)
ALL_GENS_LIMIT = 2_000  # max size for all-elements-as-generators closures


class SemigroupClosure:
    """A concrete finite diagram semigroup with dense ids and Cayley data.

    identity_id is the id of a two-sided identity element when one exists
    (the identity diagram for ordinary closures; the designated idempotent
    for local monoids).
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
        self._left_cayley = None
        self._table = None
        self._green = None
        self._idempotents = None

    @property
    def size(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def element_set(self):
        return frozenset(self.elements)

    @property
    def left_cayley(self):
        if self._left_cayley is None:
            idx = self.index
            lc = np.empty((self.size, len(self.multipliers)), dtype=np.int32)
            for gi, g in enumerate(self.multipliers):
                lc[:, gi] = [idx[g * x] for x in self.elements]
            self._left_cayley = lc
        return self._left_cayley

    def product_table(self, cell_limit=TABLE_CELL_LIMIT):
        """Full m x m product table, or None when it would exceed cell_limit."""
        if self._table is None:
            m = self.size
            if m * m > cell_limit:
                return None
            table = np.empty((m, m), dtype=np.int32)
            rc = self.right_cayley
            for y in range(m):
                p = self.parent[y]
                if p < 0:
                    if self.letter[y] >= 0:
                        table[:, y] = rc[:, self.letter[y]]
                    else:
                        table[:, y] = np.arange(m, dtype=np.int32)
                else:
                    table[:, y] = rc[table[:, p], self.letter[y]]
            self._table = table
        return self._table

    def mul(self, i, j):
        if self._table is not None:
            return int(self._table[i, j])
        return self.index[self.elements[i] * self.elements[j]]

    def idempotent_ids(self):
        if self._idempotents is None:
            self._idempotents = tuple(
                i for i in range(self.size) if self.mul(i, i) == i
            )
        return self._idempotents

    def _adjacency(self):
        m = self.size
        g = len(self.multipliers)
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


def closure(gens, *, include_identity=False, budget=None):
    """BFS closure of a generator list under the diagram product.

    Ids are assigned deterministically: the identity first when requested,
    then the deduplicated generators in the order given, then discovery
    order.  Raises BudgetExceeded when the closure grows past `budget`.
    """
    gens = list(gens)
    if not gens and not include_identity:
        raise BadDegree("need at least one generator (or include_identity)")
    budget = DEFAULT_BUDGET if budget is None else budget
    degree = gens[0].n if gens else 1
    for g in gens:
        if g.n != degree:
            raise DegreeMismatch(f"generator degrees {degree} vs {g.n}")

    elements = []
    index = {}
    parent = []
    letter = []

    def add_seed(d, let):
        if d not in index:
            index[d] = len(elements)
            elements.append(d)
            parent.append(-1)
            letter.append(let)

    multipliers = list(dict.fromkeys(gens))
    if include_identity:
        add_seed(identity(degree), -1)
    for gi, g in enumerate(multipliers):
        add_seed(g, gi)

    gen_ids = [index[g] for g in multipliers]
    rc_rows = []
    q = 0
    while q < len(elements):
        x = elements[q]
        row = []
        for gi, g in enumerate(multipliers):
            p = x * g
            pid = index.get(p)
            if pid is None:
                pid = len(elements)
                if pid >= budget:
                    raise BudgetExceeded(
                        f"closure exceeded budget of {budget} elements"
                    )
                index[p] = pid
                elements.append(p)
                parent.append(q)
                letter.append(gi)
            row.append(pid)
        rc_rows.append(row)
        q += 1

    m = len(elements)
    right = (
        np.array(rc_rows, dtype=np.int32)
        if multipliers
        else np.empty((m, 0), dtype=np.int32)
    )
    return SemigroupClosure(
        degree=degree,
        elements=elements,
        index=index,
        gen_ids=gen_ids,
        multipliers=multipliers,
        right_cayley=right,
        parent=np.array(parent, dtype=np.int32),
        letter=np.array(letter, dtype=np.int32),
        identity_id=index.get(identity(degree)),
    )


def closure_from_elements(elems, *, identity_hint=None, size_limit=ALL_GENS_LIMIT):
    """Closure view of an already-closed element set (all elements generate).

    Builds the full product table up front (m^2 diagram products), so it is
    guarded by size_limit.  Raises ValueError if the set is not closed.
    """
    elems = list(dict.fromkeys(elems))
    if not elems:
        raise BadDegree("empty element set")
    m = len(elems)
    if m > size_limit:
        raise BudgetExceeded(
            f"refusing all-generators closure over {m} > {size_limit} elements"
        )
    degree = elems[0].n
    index = {}
    for d in elems:
        if d.n != degree:
            raise DegreeMismatch(f"element degrees {degree} vs {d.n}")
        index[d] = len(index)
    table = np.empty((m, m), dtype=np.int32)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            p = index.get(x * y)
            if p is None:
                raise ValueError(
                    f"element set is not closed under the product ({i} * {j})"
                )
            table[i, j] = p
    ident = index.get(identity(degree))
    if ident is None:
        ident = identity_hint
    sg = SemigroupClosure(
        degree=degree,
        elements=elems,
        index=index,
        gen_ids=list(range(m)),
        multipliers=elems,
        right_cayley=table,
        parent=np.full(m, -1, dtype=np.int32),
        letter=np.arange(m, dtype=np.int32),
        identity_id=ident,
    )
    sg._table = table
    sg._left_cayley = table.T.copy()
    return sg


class AbstractSemigroup:
    """Finite semigroup given by a product table (used for Rees quotients)."""

    def __init__(self, table, zero=None, source_ids=None):
        self.table = np.asarray(table, dtype=np.int32)
        self.zero = zero
        self.source_ids = source_ids
        self._green = None
        self._idempotents = None

    @property
    def size(self):
        return self.table.shape[0]

    def mul(self, i, j):
        return int(self.table[i, j])

    def idempotent_ids(self):
        if self._idempotents is None:
            m = self.size
            diag = self.table[np.arange(m), np.arange(m)]
            self._idempotents = tuple(int(i) for i in np.flatnonzero(diag == np.arange(m)))
        return self._idempotents

    def _adjacency(self):
        m = self.size
        rows = np.repeat(np.arange(m), m)
        ones = np.ones(m * m, dtype=np.int8)
        right = sparse.csr_matrix((ones, (rows, self.table.ravel())), shape=(m, m))
        left = sparse.csr_matrix((ones, (rows, self.table.T.ravel())), shape=(m, m))
        return right, left


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

    h_key = {}
    h_lab = np.empty(m, dtype=np.int64)
    for i in range(m):
        key = (int(r_lab[i]), int(l_lab[i]))
        h_lab[i] = h_key.setdefault(key, len(h_key))
    num_h = len(h_key)

    coo = both.tocoo()
    src_c = j_lab[coo.row]
    dst_c = j_lab[coo.col]
    mask = src_c != dst_c
    order_edges = frozenset(
        (int(a), int(b)) for a, b in zip(src_c[mask], dst_c[mask])
    )

    members = [[] for _ in range(num_j)]
    for i in range(m):
        members[j_lab[i]].append(i)

    idem = set(sg.idempotent_ids())
    regular = []
    subgroup = []
    essential = []
    for c in range(num_j):
        es = [i for i in members[c] if i in idem]
        if not es:
            regular.append(False)
            subgroup.append(0)
            essential.append(False)
            continue
        e = min(es)
        h_of_e = h_lab[e]
        order = int(np.count_nonzero(h_lab[np.array(members[c])] == h_of_e))
        regular.append(True)
        subgroup.append(order)
        essential.append(order > 1)

    data = GreenData(
        r=r_lab, l=l_lab, j=j_lab, h=h_lab,
        num_r=num_r, num_l=num_l, num_j=num_j, num_h=num_h,
        j_members=tuple(tuple(ms) for ms in members),
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

    Computed two ways (all H-classes singletons; all element periods 1) and
    cross-checked; CrossCheckFailed if they disagree.
    """
    g = green(sg)
    by_h = g.num_h == sg.size
    by_period = True
    for i in range(sg.size):
        if index_period(sg, i)[1] != 1:
            by_period = False
            break
    if by_h != by_period:
        raise CrossCheckFailed("H-class and period aperiodicity tests disagree")
    return by_h


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
    assert len(out) == g.num_j, "J-order condensation is not acyclic"
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
    """Ids of the subsemigroup generated by seed_ids inside sg."""
    seeds = sorted(set(int(s) for s in seed_ids))
    if not seeds:
        return []
    table = sg.product_table() if isinstance(sg, SemigroupClosure) else sg.table
    if table is not None:
        table = np.asarray(table)
        seeds_arr = np.array(seeds)
        closed = set(seeds)
        frontier = seeds_arr
        while frontier.size:
            prods = np.unique(table[np.ix_(frontier, seeds_arr)])
            new = [int(p) for p in prods if int(p) not in closed]
            closed.update(new)
            frontier = np.array(new, dtype=np.int64)
        return sorted(closed)
    closed = set(seeds)
    queue = list(seeds)
    while queue:
        x = queue.pop()
        for s in seeds:
            p = sg.mul(x, s)
            if p not in closed:
                closed.add(p)
                queue.append(p)
    return sorted(closed)


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
    """The monoid e S e as its own closure; identity element e."""
    if sg.mul(e_id, e_id) != e_id:
        raise NotIdempotent(f"element {e_id} is not idempotent")
    ids = sorted({sg.mul(e_id, sg.mul(x, e_id)) for x in range(sg.size)})
    elems = [sg.elements[i] for i in ids]
    e_diagram = sg.elements[e_id]
    local = closure_from_elements(elems, identity_hint=elems.index(e_diagram))
    return local


def rees_quotient(sg, ideal_ids):
    """Rees quotient S/I as an AbstractSemigroup with adjoined zero.

    Raises NotAnIdeal when I is empty or not closed under two-sided
    multiplication by S.  Element 0..k-1 are the non-ideal elements of S in
    id order; the last element is the zero.
    """
    ideal = sorted(set(int(i) for i in ideal_ids))
    if not ideal:
        raise NotAnIdeal("empty set is not an ideal")
    member = np.zeros(sg.size, dtype=bool)
    member[ideal] = True
    if isinstance(sg, SemigroupClosure):
        arr = np.array(ideal)
        if len(sg.multipliers):
            if not member[sg.right_cayley[arr]].all() or not member[sg.left_cayley[arr]].all():
                raise NotAnIdeal("set is not closed under multiplication by generators")
    else:
        arr = np.array(ideal)
        if not member[sg.table[arr, :]].all() or not member[sg.table[:, arr]].all():
            raise NotAnIdeal("set is not closed under multiplication")

    keep = [i for i in range(sg.size) if not member[i]]
    pos = {x: k for k, x in enumerate(keep)}
    k = len(keep)
    table = np.full((k + 1, k + 1), k, dtype=np.int32)
    for a, x in enumerate(keep):
        for b, y in enumerate(keep):
            p = sg.mul(x, y)
            table[a, b] = k if member[p] else pos[p]
    quotient = AbstractSemigroup(table, zero=k, source_ids=tuple(keep))
    _spot_check_associativity(quotient)
    return quotient


def _spot_check_associativity(ab, samples=60, seed=0):
    import random

    rng = random.Random(seed)
    m = ab.size
    for _ in range(samples):
        x, y, z = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        assert ab.mul(ab.mul(x, y), z) == ab.mul(x, ab.mul(y, z)), (
            f"product table not associative at {(x, y, z)}"
        )


def is_inverse(sg):
    """True when every element is regular and idempotents commute."""
    g = green(sg)
    idem = sg.idempotent_ids()
    regular_r = {int(g.r[e]) for e in idem}
    if regular_r != set(range(g.num_r)):
        return False
    for a in idem:
        for b in idem:
            if sg.mul(a, b) != sg.mul(b, a):
                return False
    return True


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
