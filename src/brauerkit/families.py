"""Construction of the named diagram families at a given degree.

Family codes:

  C    all partition diagrams (any block sizes)
  B    perfect matchings (through + cap/cup strings only)
  PB   partial matchings (blocks of size at most 2)
  J    planar perfect matchings
  PJ   planar partial matchings
  A    annular perfect matchings (planar up to independent row rotations)
  PA   annular partial matchings
  EA   even members of A (all through strings parity-preserving), even degree
  SYM  permutation diagrams

Every family is the closure, with the identity, of a generating set
(generators), and construct checks what it builds.  Each generator must
pass membership(family, g), so the closure lies inside the family, and
the closure's size must equal an independent count, so it is the whole
family: the closed forms in CLOSED_FORMS, and for EA the number of even or
rank-zero elements of A:n.  A is defined as its generators' closure.  PA
holds the rotation and the checked PJ:n, so every rotation zeta^a beta
zeta^b of a planar partial matching beta, and membership bounds it from
above.  The generating sets are the symmetric group's with one
contraction for B (and a partial identity for PB), East's four for C (J.
East, Generators and relations for partition monoids and algebras, J.
Algebra 339, 2011), and the e_i, l_i, r_i of the Motzkin monoid for PJ
(Dolinka, East and Gray, Motzkin monoids and partial Brauer monoids, J.
Algebra 471, 2017).

An instance holds its elements as an ElementSet, the closure's label array
in sorted order, so instances are compared, keyed by content and
written to the cache as arrays, with no Diagram per element.  A built
instance also carries the closure it was built as, and its elements are
that closure's own element set; construct's cache of instances is the only
family cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diagrams import (
    Diagram,
    ElementSet,
    _canon,
    adjacent_contraction,
    annular,
    brauer,
    contraction,
    encode,
    even_or_rank_zero,
    from_permutation,
    label_array,
    partial_brauer,
    partial_identity,
    planar,
    ranks,
    rotation,
)
from .engine import DEFAULT_BUDGET, closure
from .errors import BadDegree, BudgetExceeded, CrossCheckFailed

FAMILY_IDS = ("C", "B", "PB", "J", "PJ", "A", "PA", "EA", "SYM")


@dataclass(frozen=True)
class FamilyInstance:
    """A family at one degree: its elements and the generators that close to them.

    elements is an ElementSet; any other iterable of diagrams given for it
    is turned into one.  closure is the SemigroupClosure construct built,
    whose element set elements is; an instance loaded from a cache file or
    made by hand has none.  It takes no part in comparisons.
    """

    family: str
    degree: int
    strategy: str  # "generated"; older cache files say "enumerated" or "rotated-planar"
    elements: ElementSet
    generators: tuple = ()
    closure: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.elements, ElementSet):
            object.__setattr__(
                self, "elements", ElementSet.of(self.elements, self.degree))

    @property
    def size(self):
        return len(self.elements)

    def sorted_elements(self):
        return sorted(self.elements, key=encode)


# ---------------------------------------------------------------------------
# counting helpers


def double_factorial_odd(n):
    """(2n-1)!! = number of perfect matchings on 2n points."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def motzkin(m):
    """Motzkin number: partial non-crossing matchings of m points in a line,
    the sum over k of C(m, 2k) Catalan(k)."""
    return sum(math.comb(m, 2 * k) * catalan(k) for k in range(m // 2 + 1))


def bell_number(m):
    """Bell number via the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def involution_count(m):
    """Number of partial matchings on m points (involutions of S_m)."""
    a, b = 1, 1  # I(0), I(1)
    if m == 0:
        return 1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


# The size of each family at degree n, where a closed form is known.
CLOSED_FORMS = {
    "B": double_factorial_odd,
    "J": catalan,
    "PB": lambda n: involution_count(2 * n),
    "PJ": lambda n: motzkin(2 * n),
    "C": lambda n: bell_number(2 * n),
    "SYM": math.factorial,
}


# ---------------------------------------------------------------------------
# generating sets


def _check_degree(family, n):
    if family not in FAMILY_IDS:
        raise KeyError(f"unknown family {family!r}; choose from {FAMILY_IDS}")
    if n < 1:
        raise BadDegree(f"degree must be positive, got {n}")
    if family == "EA" and n % 2:
        raise BadDegree(f"even-annular family needs even degree, got {n}")


def _shift(n, i, j):
    """Rank n-1 planar partial matching joining i to j' (|i - j| = 1), with
    j and i' unmatched and {k, k'} elsewhere."""
    blocks = [(i - 1, n + j - 1), (j - 1,), (n + i - 1,)]
    blocks += [(k - 1, n + k - 1) for k in range(1, n + 1) if k not in (i, j)]
    return Diagram(n, _canon(blocks))


def generators(family, n):
    """The generating set that construct closes for the family at degree n.

    With the identity, its closure is the whole family; construct checks
    that.  Ids of the closure follow the order of the generators.  PA's
    are the rotation followed by those of construct("PJ", n), so that PJ:n
    has passed its count.
    """
    _check_degree(family, n)
    if n == 1:
        if family in ("PB", "PJ", "PA", "C"):
            return (partial_identity(1, 1),)
        return (rotation(1),) if family == "A" else ()
    sym = [rotation(n)]
    if n >= 3:
        sym.insert(0, from_permutation(n, (2, 1) + tuple(range(3, n + 1))))
    if family == "SYM":
        return tuple(sym)
    if family in ("B", "PB"):
        extra = [partial_identity(n, 1)] if family == "PB" else []
        return tuple(sym + [contraction(n, 1, 2)] + extra)
    if family == "C":
        east = [(0, 1, n, n + 1)] + [(k, n + k) for k in range(2, n)]
        return tuple(sym + [partial_identity(n, 1), Diagram(n, _canon(east))])
    if family == "J":
        return tuple(adjacent_contraction(n, i) for i in range(1, n))
    if family == "PJ":
        return tuple([adjacent_contraction(n, i) for i in range(1, n)]
                     + [_shift(n, i + 1, i) for i in range(1, n)]
                     + [_shift(n, i, i + 1) for i in range(1, n)])
    if family == "PA":
        return (rotation(n),) + construct("PJ", n).generators
    if family == "A":
        return (rotation(n), contraction(n, 1, 2))
    # EA: the n adjacent contractions and the squared rotation
    zeta2 = from_permutation(n, [(k + 2) % n + 1 for k in range(n)])
    return tuple(dict.fromkeys(
        [adjacent_contraction(n, i) for i in range(1, n + 1)] + [zeta2]))


# ---------------------------------------------------------------------------
# construction

def _expected_size(family, n, budget):
    """The independent count the closure must match, or None (A and PA)."""
    if family == "EA":
        labs = construct("A", n, budget=budget).elements.labels
        return int(even_or_rank_zero(labs).sum())
    form = CLOSED_FORMS.get(family)
    return None if form is None else form(n)


@lru_cache(maxsize=None)
def _construct(family, n, budget):
    """The closure of the checked generating set, as an instance carrying it."""
    if family == "C" and n > 5:
        raise BudgetExceeded(
            f"partition family is capped at degree 5 (Bell growth); got {n}")
    want = _expected_size(family, n, budget)
    if want is not None and want > budget:
        raise BudgetExceeded(
            f"{family} at degree {n} has {want} elements, budget {budget}")
    gens = generators(family, n)
    inside = membership_mask(family, label_array(gens, n))
    if not inside.all():
        outside = gens[int(np.argmin(inside))]
        raise CrossCheckFailed(f"generator {encode(outside)} is not in {family}:{n}")
    sg = closure(gens, include_identity=True, budget=budget)
    if want is not None and sg.size != want:
        raise CrossCheckFailed(
            f"the {family}:{n} generators close to {sg.size} elements, "
            f"the independent count is {want}")
    return FamilyInstance(family=family, degree=n, strategy="generated",
                          elements=sg.element_set(), generators=gens, closure=sg)


def construct(family, n, budget=None):
    """Build the family at degree n.  Raises BudgetExceeded on blow-ups."""
    _check_degree(family, n)
    return _construct(family, n, DEFAULT_BUDGET if budget is None else budget)


def membership_mask(family, labs):
    """Mask over the rows of a label array: the rows that lie in the family,
    without constructing it."""
    if family not in FAMILY_IDS:
        raise KeyError(f"unknown family {family!r}; choose from {FAMILY_IDS}")
    labs = np.asarray(labs)
    n = labs.shape[1] // 2
    if family == "C":
        return np.ones(len(labs), dtype=bool)
    if family == "SYM":
        return ranks(labs) == n
    inside = (brauer if family in ("B", "J", "A", "EA") else partial_brauer)(labs)
    if family in ("B", "PB"):
        return inside
    # planarity and annularity are defined on the matchings only
    pairs = labs[inside]
    ok = (planar if family in ("J", "PJ") else annular)(pairs)
    if family == "EA":
        ok &= even_or_rank_zero(pairs)
    inside[inside] = ok
    return inside


def membership(family, a):
    """Pointwise membership test, without constructing the family."""
    return bool(membership_mask(family, label_array([a], a.n))[0])


def cardinality_table(family, n_max, budget=None):
    """Counts {n: |family at degree n|} for n = 1..n_max, the even n for EA."""
    step = 2 if family == "EA" else 1
    return {n: construct(family, n, budget=budget).size
            for n in range(step, n_max + 1, step)}


# ---------------------------------------------------------------------------
# closure views


def as_closure(instance, budget=None):
    """A SemigroupClosure over the instance's elements.

    A built instance's is the closure it carries.  An instance without one
    (loaded from a cache file, or made by hand) is closed from its
    generators with the identity, or from generators(family, degree) when
    it stores none, and the closure is checked equal to its element set.
    """
    if instance.closure is not None:
        return instance.closure
    gens = instance.generators or generators(instance.family, instance.degree)
    sg = closure(gens, include_identity=True,
                 budget=DEFAULT_BUDGET if budget is None else budget)
    if sg.element_set() != instance.elements:
        raise CrossCheckFailed(
            f"closure of the {instance.family}:{instance.degree} generators "
            f"({sg.size} elements) differs from the instance ({instance.size})")
    return sg
