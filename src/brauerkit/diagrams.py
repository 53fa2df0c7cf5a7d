"""Partition diagrams on a two-row boundary, with the *-semigroup product.

A diagram of degree n is a set partition of the 2n boundary points: bottom
row 1..n and top row 1'..n'.  Internally a point is an integer code in
0..2n-1 (bottom i -> i-1, top i -> n+i-1) so the natural integer order is
the canonical point order bottom 1 < ... < bottom n < top 1 < ... < top n.
In the public factory `diagram` and in `signed_blocks`, bottom i is the
positive integer i and top i is -i.

A diagram is identified by its label array: point p carries the number of
its block, blocks numbered by their least point, so the array is a
restricted growth string over the 2n points.  Diagram.key holds its bytes,
and equality and hashing use only that; the blocks (sorted tuples listed by
least point, singletons kept explicitly) are decoded from it on first use.
Values are immutable, so diagrams are safe to share and to use as dict
keys.  Closures and the cache hold label arrays, which label_array and
from_label_array turn into diagrams and back without decoding blocks;
sort_keys packs label rows into integers ordered as the rows.  An
ElementSet is a set of diagrams held as one label array, its rows sorted.

The predicates that decide family membership (ranks, parities, brauer,
partial_brauer, planar, annular) take a whole label array; Diagram.rank,
parity and the is_* tests are their one-row calls.  So do the transforms:
stars swaps the rows, turned turns each row's bottom and top indices, and
pads appends end caps two degrees up, each a column gather followed by
the first-occurrence renumbering that ends the product; Diagram.star,
star, shift and twist are their one-row calls.  Blocks are decoded only
for text and classification: encode, classify_strings, dom, ran and
signed_blocks.

The product a*b stacks a under b, joins a's top row to b's bottom row, and
reads off the induced partition on the outer rows.  One numpy kernel takes
every product by relabelling a through b, with no loop to convergence:
multiply_labels every row of a label array by every row of another,
multiply_pairs row r by row r, and a*b is a one-row call.  Text round-trip
uses the v1 format  "n:[{1,1'},{2,2'}]" (top points primed).
"""

from __future__ import annotations

import functools
from collections.abc import Set
from enum import Enum

import numpy as np

from .errors import (
    BadDegree,
    BadIndex,
    DegreeMismatch,
    LengthMismatch,
    NotABijection,
    ParseError,
    UnsupportedBlockSize,
)


class StringKind(Enum):
    THROUGH = "through"
    INNER = "inner"
    OUTER = "outer"
    BOTTOM_SINGLETON = "bottom-singleton"
    TOP_SINGLETON = "top-singleton"
    OTHER = "other"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"
    RANK_ZERO = "rank-zero"


class Diagram:
    """A degree-n diagram, identified by the bytes of its label array.

    key is the label_dtype(n) bytes of the restricted growth string that
    numbers each point's block (see label_array); blocks, the sorted
    tuples listed by least point, is decoded from key on first use and
    kept.  Values are immutable.
    """

    __slots__ = ("n", "key", "_blocks")

    def __init__(self, n, blocks):
        """The diagram with these blocks, which must be in canonical form."""
        row = [0] * (2 * n)
        for k, b in enumerate(blocks):
            for p in b:
                row[p] = k
        _set_n(self, n)
        _set_key(self, _key(n, row))
        _set_blocks(self, blocks)

    @staticmethod
    def _from_key(n, key):
        """The degree-n diagram whose label array has the bytes key."""
        d = _new(Diagram)
        _set_n(d, n)
        _set_key(d, key)
        return d

    @property
    def blocks(self):
        """Blocks as sorted tuples of point codes, listed by least point."""
        try:
            return self._blocks
        except AttributeError:
            pass
        row = _row(self)
        parts = [[] for _ in range(max(row) + 1)]
        for p, k in enumerate(row):
            parts[k].append(p)
        blocks = tuple(map(tuple, parts))
        _set_blocks(self, blocks)
        return blocks

    def __eq__(self, other):
        # Keys of different degrees differ in length, so never compare equal.
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Diagram._from_key, (self.n, self.key)

    @property
    def signed_blocks(self):
        """Blocks as tuples of signed indices: bottom i -> i, top i -> -i."""
        n = self.n
        return tuple(
            tuple(p + 1 if p < n else -(p - n + 1) for p in b) for b in self.blocks
        )

    @property
    def rank(self):
        """Number of blocks meeting both rows."""
        return int(_one(ranks, self))

    def dom(self):
        """Bottom indices lying in through blocks, ascending."""
        n = self.n
        out = []
        for b in self.blocks:
            if b[0] < n and b[-1] >= n:
                out.extend(p + 1 for p in b if p < n)
        return tuple(sorted(out))

    def ran(self):
        """Top indices lying in through blocks, ascending."""
        n = self.n
        out = []
        for b in self.blocks:
            if b[0] < n and b[-1] >= n:
                out.extend(p - n + 1 for p in b if p >= n)
        return tuple(sorted(out))

    def star(self):
        """The involution swapping bottom i with top i."""
        return from_labels(_one(stars, self))

    def __mul__(self, other):
        return multiply(self, other)

    def __repr__(self):
        return f"Diagram({encode(self)!r})"


_new = object.__new__
_set_n = Diagram.n.__set__
_set_key = Diagram.key.__set__
_set_blocks = Diagram._blocks.__set__


def _key(n, row):
    """The key of the degree-n label array row, a list of ints."""
    return bytes(row) if n < 64 else np.array(row, dtype=np.int16).tobytes()


def _row(d):
    """d's label array as a sequence of ints."""
    return d.key if d.n < 64 else np.frombuffer(d.key, dtype=np.int16).tolist()


def _canon(blocks):
    """Sort points within blocks and blocks by minimum point."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def diagram(n, blocks):
    """Build a degree-n diagram from blocks of signed indices.

    Bottom i is written i, top i is written -i.  The blocks must partition
    {1..n, -1..-n}; violations raise BadIndex.
    """
    if not isinstance(n, int) or n < 1:
        raise BadDegree(f"degree must be a positive integer, got {n!r}")
    seen = set()
    coded = []
    for block in blocks:
        cb = []
        for p in block:
            if not isinstance(p, int) or p == 0 or abs(p) > n:
                raise BadIndex(f"point {p!r} out of range for degree {n}")
            code = p - 1 if p > 0 else n + (-p) - 1
            if code in seen:
                raise BadIndex(f"point {p!r} appears twice")
            seen.add(code)
            cb.append(code)
        if not cb:
            raise BadIndex("empty block")
        coded.append(tuple(cb))
    if len(seen) != 2 * n:
        raise BadIndex("blocks do not cover all 2n points")
    return Diagram(n, _canon(coded))


def multiply(a, b):
    """The diagram a*b, by a one-row call of the product kernel."""
    row = _product(label_array([a], a.n), label_array([b], b.n))[0]
    return Diagram._from_key(a.n, row.tobytes())


# ---------------------------------------------------------------------------
# label arrays and the batched product


def label_dtype(n):
    """The integer type of degree-n label arrays: int8 while 2n labels fit."""
    return np.int8 if n < 64 else np.int16


def label_array(ds, n):
    """The label arrays of the degree-n diagrams ds, one row each."""
    keys = b"".join(d.key for d in ds)
    return np.frombuffer(keys, dtype=label_dtype(n)).reshape(-1, 2 * n)


def labels(a):
    """The label array of a: entry p is the number of p's block."""
    return label_array([a], a.n)[0]


def label_keys(labs):
    """The rows of a label array as bytes, which tell diagrams apart."""
    labs = np.ascontiguousarray(labs)
    row = np.dtype((np.void, labs.itemsize * labs.shape[1]))
    return labs.view(row).ravel().tolist()


@functools.cache
def _key_weights(n):
    """The 2n x w uint64 matrix whose product with a degree-n label row is
    the row's sort key, of w words.

    Label p of a restricted growth string is at most p, so the row is a
    number in the factorial radix, sum of lab[p] (2n)!/(p+1)!, unique to
    it and ordered as the row's labels.  The points are cut into runs whose
    radix product fits a uint64, a word each, the most significant first;
    2n <= 20 points take one word.
    """
    words, weight = [], 1 << 64  # the weight of p: the radices after it
    for p in reversed(range(2 * n)):
        if weight * (p + 1) > 1 << 64:
            words.insert(0, [0] * (2 * n))
            weight = 1
        words[0][p] = weight
        weight *= p + 1
    return np.array(words, dtype=np.uint64).T


def sort_keys(labs):
    """The sort keys of the rows of a label array (_key_weights): uint64
    values for one word, else big-endian words as one void value each, so
    keys compare as the rows' labels do."""
    labs = np.asarray(labs)
    words = labs.astype(np.uint64) @ _key_weights(labs.shape[1] // 2)
    if words.shape[1] == 1:
        return words[:, 0]
    return np.ascontiguousarray(words, dtype=">u8").view(
        np.dtype((np.void, 8 * words.shape[1]))).ravel()


def restricted_growth(labs):
    """Mask over the rows of a label array: the row numbers its blocks by
    first occurrence, from 0, as a diagram's label array does."""
    labs = np.asarray(labs)
    before = np.maximum.accumulate(labs, axis=1)[:, :-1]
    return ((labs[:, 0] == 0) & (labs.min(axis=1) >= 0)
            & (labs[:, 1:] <= before + 1).all(axis=1))


def find_keys(keys, wanted):
    """The position of each of the keys wanted in the ascending array keys,
    -1 for one that keys does not hold."""
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)  # -1 if none
    return np.where(keys[at] == wanted, at, -1) if len(keys) else at


def from_label_array(labs):
    """The diagrams whose label arrays are the rows of labs.

    Each row must be a restricted growth string; the rows are not checked.
    """
    n = labs.shape[1] // 2
    from_key = Diagram._from_key
    return [from_key(n, k)
            for k in label_keys(np.asarray(labs, dtype=label_dtype(n)))]


def from_labels(lab):
    """The diagram whose label array is lab; inverse of labels."""
    return from_label_array(np.asarray(lab)[None])[0]


class ElementSet(Set):
    """A set of degree-n diagrams held as their label arrays.

    labels is a read-only m x 2n label array, one row per member, sorted
    by its labels (below degree 128 the order of the row bytes, the
    diagrams' keys and their label strings) and free of repeats, so two
    sets of one degree are equal exactly when their arrays are.
    Membership is a binary search over the rows' sort keys, and iteration
    makes each Diagram when it is reached.  Comparisons with other sets,
    such as a frozenset of diagrams, go through the Set mixins, and the
    hash is that of the frozenset of the same diagrams.
    """

    __slots__ = ("degree", "labels", "_keys", "_hash")

    def __init__(self, degree, labs):
        """The set of the rows of labs, label arrays of degree-n diagrams
        (not checked), each kept once."""
        labs = np.array(labs, dtype=label_dtype(degree)).reshape(-1, 2 * degree)
        self._keys, first = np.unique(sort_keys(labs), return_index=True)
        self.labels = labs[first]
        self.labels.flags.writeable = False
        self.degree = degree
        self._hash = None

    @classmethod
    def of(cls, ds, degree):
        """The set of the degree-n diagrams ds."""
        ds = list(ds)
        for d in ds:
            if d.n != degree:
                raise DegreeMismatch(f"element degrees {degree} vs {d.n}")
        return cls(degree, label_array(ds, degree))

    @classmethod
    def _from_iterable(cls, it):
        # the results of &, |, - and ^ are plain frozensets
        return frozenset(it)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        n, from_key = self.degree, Diagram._from_key
        for k in label_keys(self.labels):
            yield from_key(n, k)

    def __contains__(self, d):
        if not isinstance(d, Diagram) or d.n != self.degree:
            return False
        return bool(find_keys(self._keys, sort_keys(labels(d)[None]))[0] >= 0)

    def __le__(self, other):
        if not isinstance(other, ElementSet):
            return Set.__le__(self, other)
        if self.degree != other.degree or len(self) > len(other):
            return False
        return bool((find_keys(other._keys, self._keys) >= 0).all())

    def __eq__(self, other):
        if isinstance(other, ElementSet):
            return (self.degree == other.degree
                    and np.array_equal(self.labels, other.labels))
        return Set.__eq__(self, other)

    def __hash__(self):
        if self._hash is None:
            self._hash = Set._hash(self)
        return self._hash

    def __repr__(self):
        return f"ElementSet(degree={self.degree}, size={len(self)})"


def _block_successors(labs):
    """succ[r, p]: the next point after p in its block of row r, cyclically."""
    k, m = labs.shape
    rows = np.arange(k)[:, None]
    order = np.argsort(labs, axis=1, kind="stable")
    ordered = labs[rows, order]
    pos = np.arange(m)
    starts = np.ones((k, m), dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    ends = np.ones((k, m), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    succ = np.empty_like(order)
    succ[rows, order] = order[rows, np.where(ends, first, pos + 1)]
    return succ


def _product(xs, ys):
    """Label arrays of xs[r] * ys[r] for every row r of two k x 2n stacks.

    x is relabelled through y: for each bottom point p of y whose y-block
    holds an earlier bottom point q, x's blocks at top points n+p and n+q
    merge.  The product's bottom row is x's merged bottom row; its top
    point q takes the merged label at the bottom points of its y-block, or
    the fresh label 2n + y[n+q] when there are none; then each row is
    renumbered by first occurrence.  Each step takes a column at a time of
    the transposed stacks, as numpy does not say which write wins when one
    fancy assignment repeats an index.
    """
    if xs.shape[1] != ys.shape[1]:
        raise DegreeMismatch(f"degree {xs.shape[1] // 2} vs {ys.shape[1] // 2}")
    k, m = ys.shape
    n = m // 2
    small = np.min_scalar_type(-2 * m)  # holds every label below 2m, and -1
    x = np.array(xs.T, dtype=small, order="C")
    y = np.ascontiguousarray(ys.T, dtype=np.intp)
    y += np.arange(k) * m  # block b of row r is the cell r m + b
    first = np.full(k * m, -1, dtype=small)  # a y-block's first bottom point
    for p in range(n - 1, -1, -1):
        first[y[p]] = p
    for p in range(1, n):
        q = first[y[p]]
        rows = np.flatnonzero(q < p)
        if rows.size:
            sub = x[:, rows]
            x[:, rows] = np.where(sub == sub[n + p], x[n + q[rows], rows], sub)
    merged = np.tile(np.arange(m, 2 * m, dtype=small), k)
    for p in range(n):
        merged[y[p]] = x[n + p]
    x[n:] = merged[y[n:]]
    return _renumbered(x, 2 * m)


def _renumbered(x, bound):
    """The label array whose row r numbers the blocks of column r of x by
    first occurrence.

    x is a 2n x k transposed stack of labels in 0..bound-1, in a signed
    type that holds them and -1; it is overwritten a point at a time.
    """
    k = x.shape[1]
    seen = np.full(k * bound, -1, dtype=x.dtype)  # a label's new number
    count = np.zeros(k, dtype=x.dtype)
    for j, cells in enumerate(x + np.arange(k) * bound):
        new = seen[cells]
        fresh = new < 0
        new[fresh] = count[fresh]
        seen[cells] = x[j] = new
        count += fresh
    return np.ascontiguousarray(x.T, dtype=label_dtype(len(x) // 2))


def _gathered(labs, cols, bound):
    """The label array of the diagrams whose point p joins the block of
    point cols[r, p] of row r of labs, labels below bound (cols broadcasts
    against labs' rows)."""
    x = np.take_along_axis(np.asarray(labs), cols, axis=1)
    return _renumbered(np.array(x.T, dtype=np.min_scalar_type(-2 * bound)), bound)


def stars(labs):
    """The label arrays of the stars of the rows of labs: bottom i and top
    i swap places."""
    m = np.shape(labs)[1]
    return _gathered(labs, np.roll(np.arange(m), m // 2)[None], m)


def turned(labs, bottom, top):
    """The label arrays of the rows of labs with bottom index i moved to i +
    bottom[r] and top index i to i + top[r] (mod n) in row r.  The rows
    and the turns broadcast: a scalar turn applies to every row, and one
    row takes every turn."""
    m = np.shape(labs)[1]
    n = m // 2
    back = [(np.arange(n) - np.reshape(t, (-1, 1))) % n for t in (bottom, top)]
    return _gathered(labs, np.hstack(np.broadcast_arrays(back[0], n + back[1])), m)


def pads(labs, target_n):
    """The label arrays of the rows of labs, of degree target_n - 2, with
    the caps {n-1, n} and {(n-1)', n'} appended at degree n = target_n.
    Raises BadDegree for any other target degree."""
    labs = np.asarray(labs)
    n = labs.shape[1] // 2
    if target_n != n + 2:
        raise BadDegree(f"target degree must be {n + 2}, got {target_n}")
    # columns 2n and 2n + 1 hold the caps' fresh labels 2n and 2n + 1
    capped = np.hstack([labs, np.full((len(labs), 2), [2 * n, 2 * n + 1], labs.dtype)])
    cols = np.r_[0:n, 2 * n, 2 * n, n:2 * n, 2 * n + 1, 2 * n + 1]
    return _gathered(capped, cols[None], 2 * n + 2)


def multiply_labels(xs, bs, where=None):
    """Label arrays of x*b for every row x of xs and every row b of bs.

    xs is a k x 2n and bs a g x 2n stack of label arrays; the result has
    shape (k, g, 2n), its [r, j] the label array of xs[r] * bs[j].  With
    where, a k x g mask, only the products it marks are taken, and the
    result is multiply_labels(xs, bs)[where], their stack in row-major
    order."""
    xs, bs = np.asarray(xs), np.asarray(bs)
    rows, cols = np.nonzero(np.ones((len(xs), len(bs)), bool) if where is None else where)
    out = _product(xs[rows], bs[cols])
    return out if where is not None else out.reshape(len(xs), len(bs), xs.shape[1])


def multiply_pairs(xs, ys):
    """Label arrays of xs[r] * ys[r] for every row r of two k x 2n stacks.
    Raises LengthMismatch or DegreeMismatch when the stacks differ in length
    or in degree."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} left factors vs {len(ys)} right factors")
    return _product(np.asarray(xs), np.asarray(ys))


def star(a):
    return a.star()


def identity(n):
    if n < 1:
        raise BadDegree(f"degree must be >= 1, got {n}")
    return Diagram(n, tuple((k, k + n) for k in range(n)))


def rotation(n):
    """The unit rotation: bottom k joined to top k+1 (mod n)."""
    if n < 1:
        raise BadDegree(f"degree must be >= 1, got {n}")
    return Diagram(n, _canon((k, n + (k + 1) % n) for k in range(n)))


def contraction(n, i, j):
    """Projection pairing {i,j} on both rows, identity elsewhere.  Needs i < j."""
    if n < 2:
        raise BadDegree(f"contractions need degree >= 2, got {n}")
    if not (1 <= i < j <= n):
        raise BadIndex(f"need 1 <= i < j <= n, got i={i}, j={j}")
    blocks = [(i - 1, j - 1), (n + i - 1, n + j - 1)]
    blocks += [(k - 1, n + k - 1) for k in range(1, n + 1) if k not in (i, j)]
    return Diagram(n, _canon(blocks))


def adjacent_contraction(n, i):
    """Contraction of the cyclically adjacent pair {i, i+1}; i = n wraps to {n, 1}."""
    if not (1 <= i <= n):
        raise BadIndex(f"need 1 <= i <= n, got {i}")
    j = i % n + 1
    return contraction(n, min(i, j), max(i, j))


def double_contraction(n):
    """Projection contracting {2,3} and {n-1,n}; defined for even n >= 6."""
    if n < 6 or n % 2:
        raise BadDegree(f"defined for even degree >= 6, got {n}")
    special = {2, 3, n - 1, n}
    blocks = [(1, 2), (n + 1, n + 2), (n - 2, n - 1), (2 * n - 2, 2 * n - 1)]
    blocks += [(k - 1, n + k - 1) for k in range(1, n + 1) if k not in special]
    return Diagram(n, _canon(blocks))


def partial_identity(n, i):
    """Rank n-1 partial identity: point i unmatched on both rows."""
    if not (1 <= i <= n):
        raise BadIndex(f"need 1 <= i <= n, got {i}")
    blocks = [(i - 1,), (n + i - 1,)]
    blocks += [(k - 1, n + k - 1) for k in range(1, n + 1) if k != i]
    return Diagram(n, _canon(blocks))


def cascade(n):
    """Closed form of the descending product of adjacent contractions n-1 .. 1.

    Through strings step k -> k+2, with a bottom cap {n-1,n} and a top cap
    {1',2'}.  Defined for n >= 3; `named_element_products` rebuilds it from
    the defining product for verification.
    """
    if n < 3:
        raise BadDegree(f"defined for degree >= 3, got {n}")
    blocks = [(n - 2, n - 1), (n, n + 1)]
    blocks += [(k - 1, n + k + 1) for k in range(1, n - 1)]
    return Diagram(n, _canon(blocks))


def local_rotation(n):
    """Unit of the local monoid at the {n-1,n} contraction: k -> k+2 on 1..n-2.

    Through strings advance by two positions modulo n-2; both rows cap
    {n-1,n}.  For even n its power (n-2)/2 is the adjacent contraction at
    n-1; for odd n it generates a cycle of order n-2.
    """
    if n < 3:
        raise BadDegree(f"defined for degree >= 3, got {n}")
    m = n - 2
    blocks = [(n - 2, n - 1), (2 * n - 2, 2 * n - 1)]
    blocks += [(k - 1, n + ((k + 1) % m)) for k in range(1, m + 1)]
    return Diagram(n, _canon(blocks))


def capped_rotation(n):
    """Rotation with one string broken into caps; defined for odd n >= 3.

    Through strings are k -> k+1 for k <= n-2, plus bottom cap {n-1,n} and
    top cap {1',n'}.  Acts as the single twist on singular elements with a
    suitable outer string.
    """
    if n < 3 or n % 2 == 0:
        raise BadDegree(f"defined for odd degree >= 3, got {n}")
    blocks = [(n - 2, n - 1), (n, 2 * n - 1)]
    blocks += [(k - 1, n + k) for k in range(1, n - 1)]
    return Diagram(n, _canon(blocks))


def named_element_products(n):
    """Recompute the named elements from their defining products.

    Returns a dict with keys "cascade", "local_rotation" and (odd n only)
    "capped_rotation"; callers assert these equal the closed forms.
    """
    if n < 3:
        raise BadDegree(f"defined for degree >= 3, got {n}")
    casc = adjacent_contraction(n, n - 1)
    for i in range(n - 2, 0, -1):
        casc = casc * adjacent_contraction(n, i)
    out = {"cascade": casc}
    xi = casc * adjacent_contraction(n, n) * adjacent_contraction(n, n - 1)
    out["local_rotation"] = xi
    if n % 2:
        tau = identity(n)
        for _ in range((n - 1) // 2):
            tau = tau * xi
        out["capped_rotation"] = tau * adjacent_contraction(n, n)
    return out


def from_permutation(n, images):
    """Embed a permutation given as the sequence (image of 1, ..., image of n)."""
    images = tuple(images)
    if len(images) != n or sorted(images) != list(range(1, n + 1)):
        raise NotABijection(f"not a permutation of 1..{n}: {images!r}")
    return Diagram(n, _canon((k, n + images[k] - 1) for k in range(n)))


def from_transformation(n, images):
    """Embed a full transformation: block {k'} u preimage(k) for each k.

    Multiplicative for maps acting on the right (apply left factor first).
    """
    images = tuple(images)
    if len(images) != n:
        raise BadIndex(f"expected {n} images, got {len(images)}")
    for v in images:
        if not (1 <= v <= n):
            raise BadIndex(f"image {v!r} out of range 1..{n}")
    blocks = []
    for k in range(1, n + 1):
        blocks.append(tuple([n + k - 1] + [j for j in range(n) if images[j] == k]))
    return Diagram(n, _canon(blocks))


# ---------------------------------------------------------------------------
# classification, parity, families of block shapes


def classify_strings(a):
    """Map each block to its StringKind.

    A block meeting both rows is THROUGH regardless of size; one-sided
    blocks split into INNER/OUTER (size >= 2) and the two singleton kinds.
    OTHER is reserved.
    """
    n = a.n
    out = {}
    for b in a.blocks:
        has_bot = b[0] < n
        has_top = b[-1] >= n
        if has_bot and has_top:
            kind = StringKind.THROUGH
        elif len(b) == 1:
            kind = StringKind.BOTTOM_SINGLETON if has_bot else StringKind.TOP_SINGLETON
        else:
            kind = StringKind.INNER if has_bot else StringKind.OUTER
        out[b] = kind
    return out


# A row's parity code (see parities) has bit 0 set when the row has an even
# through block and bit 1 when it has an odd one.
PARITY_OF_CODE = (Parity.RANK_ZERO, Parity.EVEN, Parity.ODD, Parity.MIXED)

# Cells in one block of rows of the crossing test's (row, turn, point) arrays
_CROSSING_CELLS = 1 << 19


def _one(fn, a, *args):
    """The row of a label-array predicate or transform on the one-row array
    of a."""
    return fn(label_array([a], a.n), *args)[0]


def _meets(labs):
    """meets[side, odd][r, b]: block b of row r holds a point of odd
    (odd=1) or even (odd=0) index on the bottom (side=0) or top (side=1)
    row."""
    labs = np.asarray(labs)
    k, m = labs.shape
    n = m // 2
    rows = np.arange(k)[:, None]
    meets = np.zeros((2, 2, k, m), dtype=bool)
    for side in (0, 1):
        for odd in (0, 1):
            # point p of a row has index p + 1 (bottom) or p - n + 1 (top)
            cols = side * n + np.arange(odd ^ 1, n, 2)
            meets[side, odd][rows, labs[:, cols]] = True
    return meets


def ranks(labs):
    """The rank of each row of a label array: its blocks that meet both rows."""
    bottom, top = _meets(labs)
    return (bottom.any(axis=0) & top.any(axis=0)).sum(axis=1)


def parities(labs):
    """The parity code of each row of a label array; PARITY_OF_CODE names it.

    A through block is even when it joins some i to some j' with i = j mod
    2, and odd when it joins some i to some j' with i != j mod 2; one that
    mixes index parities on a row is both.
    """
    (bot_even, bot_odd), (top_even, top_odd) = _meets(labs)
    even = ((bot_even & top_even) | (bot_odd & top_odd)).any(axis=1)
    odd = ((bot_even & top_odd) | (bot_odd & top_even)).any(axis=1)
    return (even + 2 * odd).astype(np.int8)


def parity(a):
    """EVEN/ODD/MIXED over through strings {i, j'} (even iff i = j mod 2).

    Rank-zero diagrams are RANK_ZERO.  A through block whose two sides mix
    index parities counts as mixed.
    """
    return PARITY_OF_CODE[_one(parities, a)]


def even_or_rank_zero(labs):
    """Mask over the rows of a label array: the row has no odd through block."""
    return parities(labs) < 2


def partial_brauer(labs):
    """Mask over the rows of a label array: no block has more than two points."""
    labs = np.asarray(labs)
    k, m = labs.shape
    cells = (labs + m * np.arange(k)[:, None]).ravel()
    sizes = np.bincount(cells, minlength=k * m).reshape(k, m)
    return sizes.max(axis=1) <= 2


def brauer(labs):
    """Mask over the rows of a label array: every block has two points."""
    labs = np.asarray(labs)
    # 2n points in n blocks of at most two are n pairs
    return partial_brauer(labs) & (labs.max(axis=1) == labs.shape[1] // 2 - 1)


def _planar_turned(labs, bottom, top):
    """ok[r, j]: no two chords of row r cross once its bottom row is turned
    by bottom[j] and its top row by top[j] (mod n).

    In the boundary order (bottom 1..n, then top n..1) a point raises the
    depth by one when it opens a chord and lowers it when it closes one,
    and the chords cross exactly when one closes at a depth other than one
    below where it opened.  Raises UnsupportedBlockSize for a block of more
    than two points.
    """
    labs = np.asarray(labs)
    if not partial_brauer(labs).all():
        raise UnsupportedBlockSize(
            "planarity and annularity need blocks of at most two points")
    k, m = labs.shape
    n = m // 2
    turns = len(bottom)
    i = np.arange(n)
    # place[j, p]: boundary position of point p under the j-th turn, and
    # point[j, t] the point at position t
    place = np.hstack([(i + np.asarray(bottom)[:, None]) % n,
                       m - 1 - (i + np.asarray(top)[:, None]) % n])
    point = np.argsort(place, axis=1)
    turn = np.arange(turns)[:, None]
    mate = _block_successors(labs)  # the other point of a pair, or p itself
    out = np.empty((k, turns), dtype=bool)
    step = max(1, _CROSSING_CELLS // (turns * m))
    for lo in range(0, k, step):
        # ends[b, j, t]: position of the other end of the chord at position t
        ends = place[turn, mate[lo:lo + step][:, point]]
        rise = np.sign(ends - np.arange(m))
        depth = np.cumsum(rise, axis=2)
        closed = np.take_along_axis(depth, ends, axis=2)
        out[lo:lo + step] = (closed == depth - rise).all(axis=2)
    return out


def planar(labs):
    """Mask over the rows of a label array: the chord picture is
    non-crossing in the disk.  Needs blocks of at most two points."""
    return _planar_turned(labs, [0], [0])[:, 0]


def annular(labs):
    """Mask over the rows of a label array: some pair (p, q) of row
    rotations makes the row planar.

    Turning the rows by p and q realizes the rotation sandwich, so a
    diagram embeds in the annulus iff some pair gives a planar picture;
    all n^2 pairs are tried, also at rank zero.  Needs blocks of at most
    two points.
    """
    n = np.shape(labs)[1] // 2
    bottom, top = np.divmod(np.arange(n * n), n)
    return _planar_turned(labs, bottom, top).any(axis=1)


def is_projection(a):
    return a.star() == a and a * a == a


def is_brauer(a):
    return bool(_one(brauer, a))


def is_partial_brauer(a):
    return bool(_one(partial_brauer, a))


def is_planar(a):
    """True when the chord picture is non-crossing in the disk (see
    planar).  Only defined for blocks of size <= 2."""
    return bool(_one(planar, a))


def is_jones(a):
    return is_brauer(a) and is_planar(a)


def shift(a, k):
    """Conjugate by the k-th rotation power: every index advances by k (mod n)."""
    return from_labels(_one(turned, a, k, k))


def twist(a, k):
    """Right-multiply by the k-th rotation power: top indices advance by k (mod n)."""
    return from_labels(_one(turned, a, 0, k))


def is_annular(a):
    """True when some pair of row rotations makes the diagram planar (see
    annular).  Needs blocks of size <= 2."""
    return bool(_one(annular, a))


# ---------------------------------------------------------------------------
# text round-trip (format v1)


def encode(a):
    """Canonical text form, e.g. "2:[{1,1'},{2,2'}]" (top points primed)."""
    n = a.n
    parts = []
    for b in a.blocks:
        pts = ",".join(str(p + 1) if p < n else f"{p - n + 1}'" for p in b)
        parts.append("{" + pts + "}")
    return f"{n}:[" + ",".join(parts) + "]"


def decode(text, n=None):
    """Parse the v1 text form; inverse of `encode` on canonical output.

    Raises ParseError with the offset of the first problem.  When n is
    given, the embedded degree must match it.
    """
    pos = 0
    digits = ""
    while pos < len(text) and text[pos].isdigit():
        digits += text[pos]
        pos += 1
    if not digits:
        raise ParseError("expected degree", pos)
    degree = int(digits)
    if degree < 1:
        raise ParseError("degree must be >= 1", 0)
    if n is not None and degree != n:
        raise ParseError(f"degree {degree} does not match expected {n}", 0)
    if pos >= len(text) or text[pos] != ":":
        raise ParseError("expected ':'", pos)
    pos += 1
    if pos >= len(text) or text[pos] != "[":
        raise ParseError("expected '['", pos)
    pos += 1
    blocks = []
    seen = {}
    if pos < len(text) and text[pos] == "]":
        raise ParseError("empty block list", pos)
    while True:
        if pos >= len(text) or text[pos] != "{":
            raise ParseError("expected '{'", pos)
        pos += 1
        block = []
        while True:
            start = pos
            digits = ""
            while pos < len(text) and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            if not digits:
                raise ParseError("expected point index", pos)
            idx = int(digits)
            if not (1 <= idx <= degree):
                raise ParseError(f"index {idx} out of range 1..{degree}", start)
            primed = pos < len(text) and text[pos] == "'"
            if primed:
                pos += 1
            signed = -idx if primed else idx
            if signed in seen:
                raise ParseError(f"point {text[start:pos]} repeated", start)
            seen[signed] = start
            block.append(signed)
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            break
        if pos >= len(text) or text[pos] != "}":
            raise ParseError("expected '}'", pos)
        pos += 1
        blocks.append(block)
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        break
    if pos >= len(text) or text[pos] != "]":
        raise ParseError("expected ']'", pos)
    pos += 1
    if pos != len(text):
        raise ParseError("trailing input", pos)
    if len(seen) != 2 * degree:
        raise ParseError("blocks do not cover all 2n points", len(text) - 1)
    return diagram(degree, blocks)


# ---------------------------------------------------------------------------
# random elements (for property suites; any easy-to-sample distribution)


def random_partial_brauer(n, rng, pair_prob=0.7):
    """Random degree-n diagram with blocks of size <= 2."""
    pts = list(range(2 * n))
    rng.shuffle(pts)
    mate = list(range(2 * n))
    while pts:
        p = pts.pop()
        if pts and rng.random() < pair_prob:
            q = pts.pop(rng.randrange(len(pts)))
            mate[p], mate[q] = q, p
    row, blocks = [], 0
    for p, q in enumerate(mate):  # a block is numbered at its least point
        row.append(row[q] if q < p else blocks)
        blocks += q >= p
    return Diagram._from_key(n, _key(n, row))


def random_brauer(n, rng):
    """Random degree-n diagram with all blocks of size 2 (uniform matching)."""
    pts = list(range(2 * n))
    rng.shuffle(pts)
    blocks = [(pts[i], pts[i + 1]) for i in range(0, 2 * n, 2)]
    return Diagram(n, _canon(blocks))


def random_partition_diagram(n, rng):
    """Random degree-n diagram with arbitrary blocks (random growth string)."""
    blocks = []
    for p in range(2 * n):
        k = rng.randrange(len(blocks) + 1)
        if k == len(blocks):
            blocks.append([p])
        else:
            blocks[k].append(p)
    return Diagram(n, _canon(blocks))
