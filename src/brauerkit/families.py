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

Each family is built by the documented strategy: generation (BFS closure),
direct enumeration plus filter, or the rotated-planar formula.  A verified
generating set may be used to speed up Cayley-graph analyses, but only
after its closure is checked equal to the constructed element set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diagrams import (
    Diagram,
    Parity,
    adjacent_contraction,
    contraction,
    encode,
    even_or_rank_zero,
    from_label_array,
    from_permutation,
    identity,
    is_annular,
    is_brauer,
    is_jones,
    is_partial_brauer,
    is_planar,
    label_array,
    label_dtype,
    parity,
    partial_identity,
    rotation,
)
from .engine import (
    DEFAULT_BUDGET,
    closure,
    closure_from_elements,
)
from .errors import BadDegree, BudgetExceeded, CrossCheckFailed

FAMILY_IDS = ("C", "B", "PB", "J", "PJ", "A", "PA", "EA", "SYM")


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    degree: int
    strategy: str  # "generated" | "enumerated" | "rotated-planar"
    elements: frozenset
    generators: tuple = ()
    note: str = ""

    @property
    def size(self):
        return len(self.elements)

    def sorted_elements(self):
        return sorted(self.elements, key=encode)


# ---------------------------------------------------------------------------
# counting helpers used for budget prechecks


def double_factorial_odd(n):
    """(2n-1)!! = number of perfect matchings on 2n points."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


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


def _check_budget(count, budget, what):
    if count > budget:
        raise BudgetExceeded(f"{what} has {count} elements, budget {budget}")


# ---------------------------------------------------------------------------
# enumerators (iterative, stack-based)


def enumerate_partial_matchings(n):
    """All partial matchings on the 2n points of a degree-n diagram."""
    points = list(range(2 * n))
    out = []
    # stack entries: (blocks so far, remaining points)
    stack = [((), tuple(points))]
    while stack:
        blocks, rest = stack.pop()
        if not rest:
            out.append(Diagram(n, tuple(sorted(blocks))))
            continue
        p, tail = rest[0], rest[1:]
        stack.append((blocks + ((p,),), tail))
        for qi, q in enumerate(tail):
            pair = (p, q)
            stack.append((blocks + (pair,), tail[:qi] + tail[qi + 1:]))
    return out


def enumerate_perfect_matchings(n):
    """All perfect matchings on the 2n points of a degree-n diagram."""
    out = []
    stack = [((), tuple(range(2 * n)))]
    while stack:
        blocks, rest = stack.pop()
        if not rest:
            out.append(Diagram(n, tuple(sorted(blocks))))
            continue
        p, tail = rest[0], rest[1:]
        for qi, q in enumerate(tail):
            stack.append((blocks + ((p, q),), tail[:qi] + tail[qi + 1:]))
    return out


def enumerate_partitions(n):
    """All partitions of the 2n points (restricted-growth strings)."""
    m = 2 * n
    out = []
    # a[i] = block index of point i with the growth constraint
    a = [0] * m
    while True:
        out.append(Diagram._from_key(n, bytes(a)))  # a is the label array
        # odometer step
        i = m - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, m):
                    a[j] = 0
                break
            a[i] = 0
            i -= 1
        else:
            return out


# ---------------------------------------------------------------------------
# construction strategies

# Closures by instance content (see as_closure), since instances of one
# size can differ.
_CLOSURE_CACHE = {}


def _content_key(instance):
    return (instance.family, instance.degree, instance.strategy,
            instance.generators, instance.elements)


def _symmetric_group_generators(n):
    gens = []
    if n >= 2:
        if n >= 3:
            gens.append(from_permutation(n, (2, 1) + tuple(range(3, n + 1))))
        gens.append(rotation(n))
    return gens


def _generated(family, n, gens, budget, note):
    """The instance generated by gens and the identity.

    Its closure is kept in the closure cache, so as_closure does not build
    it again.
    """
    sg = closure(gens, include_identity=True, budget=budget)
    instance = FamilyInstance(
        family=family, degree=n, strategy="generated",
        elements=frozenset(sg.elements), generators=tuple(gens), note=note,
    )
    _CLOSURE_CACHE[_content_key(instance)] = sg
    return instance


def _construct_b(n, budget):
    _check_budget(double_factorial_odd(n), budget, f"B at degree {n}")
    gens = _symmetric_group_generators(n)
    if n >= 2:
        gens.append(contraction(n, 1, 2))
    return _generated("B", n, gens, budget,
                      "closure of symmetric-group generators and one contraction")


def _construct_j(n, budget):
    _check_budget(catalan(n), budget, f"J at degree {n}")
    gens = [adjacent_contraction(n, i) for i in range(1, n)]
    return _generated("J", n, gens, budget,
                      "closure of the adjacent contractions plus identity")


def _construct_a(n, budget):
    gens = [rotation(n)]
    if n >= 2:
        gens.append(contraction(n, 1, 2))
    return _generated("A", n, gens, budget,
                      "closure of the rotation and one contraction plus identity")


def _construct_ea(n, budget):
    if n % 2:
        raise BadDegree(f"even-annular family needs even degree, got {n}")
    elems = list(construct("A", n, budget=budget).elements)
    kept = frozenset(itertools.compress(
        elems, even_or_rank_zero(label_array(elems, n)).tolist()))
    return FamilyInstance(
        family="EA", degree=n, strategy="enumerated",
        elements=kept,
        note="parity filter of the annular family",
    )


def _construct_pb(n, budget):
    _check_budget(involution_count(2 * n), budget, f"PB at degree {n}")
    return FamilyInstance(
        family="PB", degree=n, strategy="enumerated",
        elements=frozenset(enumerate_partial_matchings(n)),
        note="direct enumeration of all partial matchings",
    )


def _construct_pj(n, budget):
    _check_budget(involution_count(2 * n), budget, f"PJ at degree {n}")
    kept = frozenset(a for a in enumerate_partial_matchings(n) if is_planar(a))
    return FamilyInstance(
        family="PJ", degree=n, strategy="enumerated",
        elements=kept,
        note="planarity filter over all partial matchings",
    )


def _construct_pa(n, budget):
    base = construct("PJ", n, budget=budget)
    _check_budget(len(base.elements) * n * n, budget, f"PA at degree {n} (upper bound)")
    zeta = rotation(n)
    powers = [identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * zeta)
    out = set()
    for beta in base.elements:
        for za in powers:
            left = za * beta
            for zb in powers:
                out.add(left * zb)
    return FamilyInstance(
        family="PA", degree=n, strategy="rotated-planar",
        elements=frozenset(out),
        note="all rotations of planar partial matchings",
    )


def _construct_c(n, budget):
    if n > 5:
        raise BudgetExceeded(
            f"partition family is capped at degree 5 (Bell growth); got {n}"
        )
    _check_budget(bell_number(2 * n), budget, f"C at degree {n}")
    return FamilyInstance(
        family="C", degree=n, strategy="enumerated",
        elements=frozenset(enumerate_partitions(n)),
        note="all partitions of the 2n points",
    )


def _construct_sym(n, budget):
    _check_budget(math.factorial(n), budget, f"SYM at degree {n}")
    # the diagram of k -> images[k] joins top point j to bottom point
    # images^-1[j], the number of its block: label array [0..n-1, images^-1]
    images = np.array(list(itertools.permutations(range(n))))
    labs = np.empty((len(images), 2 * n), dtype=label_dtype(n))
    labs[:, :n] = np.arange(n)
    labs[:, n:] = np.argsort(images, axis=1)
    elems = frozenset(from_label_array(labs))
    return FamilyInstance(
        family="SYM", degree=n, strategy="enumerated",
        elements=elems,
        note="all permutation diagrams",
    )


_CONSTRUCTORS = {
    "C": _construct_c,
    "B": _construct_b,
    "PB": _construct_pb,
    "J": _construct_j,
    "PJ": _construct_pj,
    "A": _construct_a,
    "PA": _construct_pa,
    "EA": _construct_ea,
    "SYM": _construct_sym,
}


@lru_cache(maxsize=None)
def _construct_cached(family, n, budget):
    return _CONSTRUCTORS[family](n, budget)


def construct(family, n, budget=None):
    """Build the family at degree n.  Raises BudgetExceeded on blow-ups."""
    if family not in _CONSTRUCTORS:
        raise KeyError(f"unknown family {family!r}; choose from {FAMILY_IDS}")
    if n < 1:
        raise BadDegree(f"degree must be positive, got {n}")
    return _construct_cached(family, n, DEFAULT_BUDGET if budget is None else budget)


def membership(family, a):
    """Pointwise membership test, without constructing the family."""
    if family == "C":
        return True
    if family == "B":
        return is_brauer(a)
    if family == "PB":
        return is_partial_brauer(a)
    if family == "J":
        return is_jones(a)
    if family == "PJ":
        return is_partial_brauer(a) and is_planar(a)
    if family == "A":
        return is_brauer(a) and is_annular(a)
    if family == "PA":
        return is_partial_brauer(a) and is_annular(a)
    if family == "EA":
        return (
            is_brauer(a)
            and is_annular(a)
            and parity(a) in (Parity.EVEN, Parity.RANK_ZERO)
        )
    if family == "SYM":
        return a.rank == a.n
    raise KeyError(f"unknown family {family!r}; choose from {FAMILY_IDS}")


def cardinality_table(family, n_max, budget=None):
    """Counts {n: |family at degree n|} for n = 1..n_max."""
    return {n: construct(family, n, budget=budget).size for n in range(1, n_max + 1)}


# ---------------------------------------------------------------------------
# closure views

# Generating sets for enumerated families that make Cayley analyses cheap.
# None is stated in the source constructions, so each is verified: the
# closure is compared element-for-element with the constructed set and
# discarded on mismatch.
def _candidate_generators(family, n):
    if family == "EA" and n >= 2:
        gens = [adjacent_contraction(n, i) for i in range(1, n + 1)]
        gens.append(rotation(n) * rotation(n))
        return gens
    if family == "PB" and n >= 2:
        return _symmetric_group_generators(n) + [
            contraction(n, 1, 2),
            partial_identity(n, 1),
        ]
    if family == "PA" and n >= 2:
        return [rotation(n), contraction(n, 1, 2), partial_identity(n, 1)]
    if family == "SYM" and n >= 2:
        return _symmetric_group_generators(n)
    return None


def as_closure(instance, budget=None):
    """A SemigroupClosure over the instance's elements.

    Generated instances take their defining closure, which construct
    caches when it builds one (an instance loaded from a cache file
    rebuilds it, unless construct built the same one in this process).
    Enumerated ones first try a verified candidate generating set (kept
    only if its closure equals the element set exactly), and otherwise
    search the closure from generators picked greedily from the sorted
    elements (closure_from_elements).  Closures are cached by the
    instance's content, since instances of one size can differ.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    key = _content_key(instance)
    cached = _CLOSURE_CACHE.get(key)
    if cached is not None:
        return cached
    sg = _as_closure_uncached(instance, budget)
    _CLOSURE_CACHE[key] = sg
    return sg


def _as_closure_uncached(instance, budget):
    if instance.strategy == "generated":
        sg = closure(list(instance.generators), include_identity=True, budget=budget)
        if frozenset(sg.elements) != instance.elements:
            raise CrossCheckFailed(
                f"closure of the {instance.family}:{instance.degree} generators "
                f"({sg.size} elements) differs from the instance ({instance.size})")
        return sg
    cand = _candidate_generators(instance.family, instance.degree)
    if cand is not None:
        try:
            sg = closure(cand, include_identity=True, budget=budget)
        except BudgetExceeded:
            sg = None
        if sg is not None and frozenset(sg.elements) == instance.elements:
            return sg
    return closure_from_elements(instance.sorted_elements())
