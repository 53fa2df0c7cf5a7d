"""Registry of named verification targets for the command line.

Each target re-derives one published-table ingredient or structural claim
from scratch and reports PASS or FAIL with supporting numbers.  Target ids
are stable strings; anchors are one-line statements of the claim being
checked.  All targets are deterministic: fixed seeds, fixed default
degrees, no reliance on dict iteration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .diagrams import (
    Diagram,
    Parity,
    adjacent_contraction,
    capped_rotation,
    cascade,
    contraction,
    decode,
    double_contraction,
    encode,
    identity,
    is_annular,
    is_jones,
    is_planar,
    local_rotation,
    parity,
    partial_identity,
    random_partial_brauer,
    random_partition_diagram,
    rotation,
    shift,
    star,
    twist,
)
from .engine import (
    closure,
    essential_depth,
    green,
    idempotent_generated,
    index_period,
    pad_embedding,
    singular_part,
    t1_chain,
    units,
)
from .families import (
    as_closure,
    catalan,
    construct,
    double_factorial_odd,
    generators,
    involution_count,
)
from .kernel import kernel, kernel_elements, verify_parity_morphism_a4
from .ledger import InstanceRef


@dataclass(frozen=True)
class Target:
    target_id: str
    anchor: str
    defaults: dict
    fn: object


TARGETS = {}


def _target(target_id, anchor, **defaults):
    def wrap(fn):
        TARGETS[target_id] = Target(target_id, anchor, defaults, fn)
        return fn
    return wrap


def run_target(target_id, overrides=None):
    """Run one target; returns (passed, params, details)."""
    target = TARGETS[target_id]
    params = dict(target.defaults)
    if overrides:
        params.update({k: v for k, v in overrides.items()
                       if k in params and v is not None})
    passed, details = target.fn(**params)
    return bool(passed), params, details


# ---------------------------------------------------------------------------
# enumerations, independent of the generating sets the families are built from


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
# counting


@_target("counts-brauer",
         "the degree-n matching monoid has (2n-1)!! elements, and closure "
         "over the symmetric group with one contraction reaches them all",
         n=6)
def _counts_brauer(n):
    sizes = {}
    ok = True
    for k in range(1, n + 1):
        built = construct("B", k).size
        formula = double_factorial_odd(k)
        enumerated = len(enumerate_perfect_matchings(k))
        sizes[k] = built
        ok &= built == formula == enumerated
    return ok, {"sizes": sizes}


@_target("counts-jones",
         "the degree-n planar matching monoid has Catalan(n) elements",
         n=10)
def _counts_jones(n):
    sizes = {}
    ok = True
    for k in range(1, n + 1):
        built = construct("J", k).size
        ok &= built == catalan(k)
        if k <= 6:
            planar = sum(is_jones(d) for d in enumerate_perfect_matchings(k))
            ok &= built == planar
        sizes[k] = built
    return ok, {"sizes": sizes, "enumeration_checked_to": min(n, 6)}


@_target("counts-partial",
         "partial-matching families count involutions (all) and Motzkin "
         "paths (planar)",
         n=4)
def _counts_partial(n):
    ok = True
    pb, pj = {}, {}
    for k in range(1, n + 1):
        matchings = enumerate_partial_matchings(k)
        pb[k] = construct("PB", k).size
        pj[k] = construct("PJ", k).size
        ok &= pb[k] == involution_count(2 * k) == len(matchings)
        ok &= pj[k] == sum(is_planar(d) for d in matchings)
    return ok, {"PB": pb, "PJ": pj}


@_target("family-filters",
         "generated annular families agree with the filtered enumerations",
         n=6)
def _family_filters(n):
    ok = True
    details = {}
    for k in range(1, n + 1):
        annular = {d for d in enumerate_perfect_matchings(k) if is_annular(d)}
        ok &= construct("A", k).elements == annular
        details[f"A:{k}"] = len(annular)
        if k % 2 == 0:
            even = {d for d in annular
                    if parity(d) in (Parity.EVEN, Parity.RANK_ZERO)}
            ok &= construct("EA", k).elements == even
            details[f"EA:{k}"] = len(even)
        if k <= 4:
            partial = {d for d in enumerate_partial_matchings(k) if is_annular(d)}
            ok &= construct("PA", k).elements == partial
            details[f"PA:{k}"] = len(partial)
    return ok, details


# ---------------------------------------------------------------------------
# generation of singular parts


def _singular_set(sg):
    return {sg.elements[i] for i in singular_part(sg)}


@_target("sing-brauer",
         "the singular matching diagrams are generated by the pairwise "
         "contractions",
         n=5)
def _sing_brauer(n):
    ok = True
    sizes = {}
    for k in range(2, n + 1):
        sg = as_closure(construct("B", k))
        gens = [contraction(k, i, j)
                for i in range(1, k + 1) for j in range(i + 1, k + 1)]
        span = set(closure(gens).elements)
        ok &= span == _singular_set(sg)
        sizes[k] = len(span)
    return ok, {"singular_sizes": sizes}


@_target("sing-jones",
         "the singular planar diagrams are generated by the n-1 adjacent "
         "contractions",
         n=8)
def _sing_jones(n):
    ok = True
    sizes = {}
    for k in range(2, n + 1):
        sg = as_closure(construct("J", k))
        span = set(closure(
            [adjacent_contraction(k, i) for i in range(1, k)]
        ).elements)
        ok &= span == _singular_set(sg)
        sizes[k] = len(span)
    return ok, {"singular_sizes": sizes}


@_target("sing-ea",
         "the singular even annular diagrams are generated by the n adjacent "
         "contractions including the wrapping one",
         n=6)
def _sing_ea(n):
    ok = True
    sizes = {}
    for k in range(2, n + 1, 2):
        sg = as_closure(construct("EA", k))
        span = set(closure(
            [adjacent_contraction(k, i) for i in range(1, k + 1)]
        ).elements)
        ok &= span == _singular_set(sg)
        sizes[k] = len(span)
    return ok, {"singular_sizes": sizes}


@_target("sing-annular-odd",
         "at odd degree the singular annular diagrams are generated by the "
         "n adjacent contractions",
         n=7)
def _sing_annular_odd(n):
    ok = True
    sizes = {}
    for k in range(3, n + 1, 2):
        if k <= 6:
            sg = as_closure(construct("A", k))
        else:
            sg = closure([rotation(k), adjacent_contraction(k, 1)],
                         include_identity=True)
        span = set(closure(
            [adjacent_contraction(k, i) for i in range(1, k + 1)]
        ).elements)
        ok &= span == _singular_set(sg)
        sizes[k] = len(span)
    return ok, {"singular_sizes": sizes}


@_target("sing-annular-even",
         "at even degree the idempotents of the annular family generate only "
         "a proper part of its singular diagrams",
         n=6)
def _sing_annular_even(n):
    ok = True
    details = {}
    for k in range(4, n + 1, 2):
        sg = as_closure(construct("A", k))
        egen = set(idempotent_generated(sg))
        sing = set(singular_part(sg))
        inter = egen & sing
        ok &= inter < sing
        details[k] = {"egen_singular": len(inter), "singular": len(sing)}
    return ok, details


# ---------------------------------------------------------------------------
# Green structure


_GREEN_FAMILIES = (
    ("B", (1, 2, 3, 4, 5, 6)),
    ("J", (1, 2, 3, 4, 5, 6)),
    ("A", (1, 2, 3, 4, 5, 6)),
    ("EA", (2, 4, 6)),
    ("PB", (1, 2, 3, 4)),
    ("PA", (1, 2, 3, 4)),
    ("PJ", (1, 2, 3, 4)),
    ("C", (1, 2, 3)),
    ("SYM", (1, 2, 3, 4)),
)


@_target("green-rank",
         "in every constructed family the J-classes are exactly the "
         "equal-rank classes (and D = J, as in any finite semigroup)",
         n=6)
def _green_rank(n):
    ok = True
    checked = []
    for code, degrees in _GREEN_FAMILIES:
        for k in degrees:
            if k > n:
                continue
            sg = as_closure(construct(code, k))
            data = green(sg)
            by_class = {}
            for i in range(sg.size):
                by_class.setdefault(data.j[i], set()).add(sg.elements[i].rank)
            ranks_per_class = [len(r) for r in by_class.values()]
            distinct_ranks = {sg.elements[i].rank for i in range(sg.size)}
            ok &= max(ranks_per_class) == 1
            ok &= len(by_class) == len(distinct_ranks)
            checked.append(f"{code}:{k}")
    return ok, {"checked": checked}


@_target("subgroup-orders",
         "maximal subgroups have order t! at rank t in the matching monoid "
         "and r/2 at rank r >= 2 in the even annular family, whose units "
         "are cyclic of order n/2",
         n=6)
def _subgroup_orders(n):
    import math
    ok = True
    details = {}
    for k in range(1, n + 1):
        sg = as_closure(construct("B", k))
        data = green(sg)
        for j in range(data.num_j):
            rank = sg.elements[next(iter(data.j_members[j]))].rank
            ok &= data.j_subgroup_order[j] == math.factorial(rank)
        details[f"B:{k}"] = "t! at each rank t"
    for k in range(2, n + 1, 2):
        sg = as_closure(construct("EA", k))
        data = green(sg)
        for j in range(data.num_j):
            rank = sg.elements[next(iter(data.j_members[j]))].rank
            want = rank // 2 if rank >= 2 else 1
            ok &= data.j_subgroup_order[j] == want
        us = units(sg)
        ok &= len(us) == k // 2
        ok &= max(index_period(sg, u)[1] for u in us) == k // 2
        details[f"EA:{k}"] = f"r/2 at each rank r, units cyclic of order {k // 2}"
    return ok, details


@_target("depth",
         "the essential depth of the matching monoid is floor(n/2) up to "
         "degree 7, and the degree-4 annular family has depth 2",
         n=7)
def _depth(n):
    ok = True
    depths = {}
    for k in range(2, n + 1):
        if k <= 6:
            sg = as_closure(construct("B", k))
        else:
            sg = closure(generators("B", k), include_identity=True)
        depths[f"B:{k}"] = essential_depth(sg)
        ok &= depths[f"B:{k}"] == k // 2
    a4 = as_closure(construct("A", 4))
    depths["A:4"] = essential_depth(a4)
    ok &= depths["A:4"] == 2
    return ok, depths


# ---------------------------------------------------------------------------
# named elements and rotation laws


@_target("named-elements",
         "the cascade, local rotation, and capped rotation factor into "
         "adjacent contractions exactly as documented",
         n=8)
def _named_elements(n):
    ok = True
    checked = []
    for k in range(3, n + 1):
        lam = identity(k)
        for i in range(k - 1, 0, -1):
            lam = lam * adjacent_contraction(k, i)
        ok &= lam == cascade(k)
        checked.append(f"cascade:{k}")
    for k in range(4, n + 1, 2):
        xi = cascade(k) * adjacent_contraction(k, k) * adjacent_contraction(k, k - 1)
        ok &= xi == local_rotation(k)
        checked.append(f"local-rotation:{k}")
    for k in range(5, n + 1, 2):
        xi = local_rotation(k)
        power = identity(k)
        for _ in range((k - 1) // 2):
            power = power * xi
        ok &= power * adjacent_contraction(k, k) == capped_rotation(k)
        checked.append(f"capped-rotation:{k}")
    return ok, {"checked": checked}


@_target("local-rotation-power",
         "at even degree the local rotation raised to (n-2)/2 collapses to "
         "the last adjacent contraction",
         n=8)
def _local_rotation_power(n):
    ok = True
    checked = {}
    for k in range(4, n + 1, 2):
        power = identity(k)
        for _ in range((k - 2) // 2):
            power = power * local_rotation(k)
        ok &= power == adjacent_contraction(k, k - 1)
        checked[k] = (k - 2) // 2
    return ok, {"exponent_by_degree": checked}


@_target("twist-laws",
         "row rotation acts as conjugation (shift) and one-sided "
         "multiplication (twist) by the rotation element",
         n=6, samples=1000, seed=5)
def _twist_laws(n, samples, seed):
    rng = random.Random(seed)
    zeta = rotation(n)
    zpow = {0: identity(n)}
    for k in range(1, 2 * n):
        zpow[k] = zpow[k - 1] * zeta
    def zp(k):
        return zpow[k % (2 * n)]
    bad = 0
    for _ in range(samples):
        a = random_partial_brauer(n, rng)
        k = rng.randrange(-2 * n, 2 * n + 1)
        if shift(a, k) != zp(-k) * a * zp(k):
            bad += 1
        if twist(a, k) != a * zp(k):
            bad += 1
    return bad == 0, {"samples": samples, "failures": bad}


@_target("twist-singular",
         "multiplying a singular annular diagram by the shifted cascade "
         "(even degree) or shifted capped rotation (odd degree) twists it",
         n=6)
def _twist_singular(n):
    ok = True
    details = {}

    def outer_positions(a):
        # top strings {(i-1)', i'}; i = 1 wraps to {n', 1'}
        out = []
        for i in range(1, a.n + 1):
            lo = a.n + (i - 2) % a.n
            hi = a.n + i - 1
            if tuple(sorted((lo, hi))) in a.blocks:
                out.append(i)
        return out

    cases = [(k, cascade(k), 2) for k in range(4, n + 1, 2)]
    cases += [(k, capped_rotation(k), 1) for k in range(5, n + 1, 2)]
    for k, mover, t in cases:
        sg = as_closure(construct("A", k))
        missing = 0
        bad = 0
        for i in singular_part(sg):
            a = sg.elements[i]
            spots = outer_positions(a)
            if not spots:
                missing += 1
                continue
            for pos in spots:
                if a * shift(mover, -(k - pos)) != twist(a, t):
                    bad += 1
        ok &= missing == 0 and bad == 0
        details[f"A:{k}"] = {"twist": t, "no_outer_string": missing,
                             "failed_identities": bad}
    return ok, details


# ---------------------------------------------------------------------------
# kernels


@_target("kernel-a4",
         "the group kernel of the degree-4 annular family is its even "
         "singular part with the identity adjoined, and it is aperiodic",
         n=4)
def _kernel_a4(n):
    sg = as_closure(construct("A", 4))
    result = kernel(sg)
    kset = frozenset(kernel_elements(sg, result))
    ea4 = construct("EA", 4).elements
    zeta2 = rotation(4) * rotation(4)
    expected = frozenset(ea4 - {zeta2})
    ok = kset == expected and result.is_aperiodic
    return ok, {"kernel_size": len(kset), "iterations": result.iterations,
                "aperiodic": result.is_aperiodic}


@_target("parity-morphism-a4",
         "two explicit relational morphisms jointly cut out the degree-4 "
         "annular kernel as a preimage",
         n=4)
def _parity_morphism(n):
    ok = verify_parity_morphism_a4()
    return ok, {"joint_preimage_equals_kernel": ok}


@_target("kernel-pa4-nonaperiodic",
         "the group kernel of the degree-4 annular partial-matching family "
         "contains a period-2 element",
         n=4)
def _kernel_pa4(n):
    sg = as_closure(construct("PA", 4))
    result = kernel(sg)
    ok = not result.is_aperiodic and result.witness is not None
    detail = {"kernel_size": len(result.kernel_ids),
              "iterations": result.iterations}
    if result.witness is not None:
        idx, per = index_period(sg, result.witness)
        detail["witness"] = encode(sg.elements[result.witness])
        detail["witness_period"] = per
        ok &= per == 2
    return ok, detail


def _chain_submonoid():
    zeta2 = rotation(6) * rotation(6)
    g5 = adjacent_contraction(6, 5)
    g65 = adjacent_contraction(6, 6) * g5
    return closure([zeta2, g5, g65, double_contraction(6)],
                   include_identity=True)


@_target("t1-ea6",
         "the distinguished submonoid of the degree-6 even annular family "
         "has left-order comparable generators and is not aperiodic",
         n=6)
def _t1_ea6(n):
    sub = _chain_submonoid()
    chain = t1_chain(sub)
    ok = chain is not None
    details = {"size": sub.size}
    if ok:
        details["chain"] = [encode(sub.elements[i]) for i in chain]
    from .engine import is_aperiodic
    details["aperiodic"] = is_aperiodic(sub)
    ok &= not details["aperiodic"]
    return ok, details


@_target("egen-ea6",
         "the padded degree-4 even annular family lies inside the "
         "idempotent-generated part of the distinguished submonoid, which "
         "equals its group kernel",
         n=6)
def _egen_ea6(n):
    sub = _chain_submonoid()
    egen = {sub.elements[i] for i in idempotent_generated(sub)}
    result = kernel(sub)
    kset = set(kernel_elements(sub, result))
    padded = {pad_embedding(d, 6) for d in construct("EA", 4).elements}
    ok = padded <= egen and egen == kset
    return ok, {"padded": len(padded), "egen": len(egen), "kernel": len(kset)}


# ---------------------------------------------------------------------------
# the complexity table


_EXPECTED_TABLE = {
    ("B", 1): (0, 0), ("B", 2): (1, 1), ("B", 3): (1, 1),
    ("B", 4): (2, 2), ("B", 5): (2, 2), ("B", 6): (3, 3),
    ("J", 1): (0, 0), ("J", 2): (0, 0), ("J", 3): (0, 0),
    ("J", 4): (0, 0), ("J", 5): (0, 0), ("J", 6): (0, 0),
    ("A", 1): (0, 0), ("A", 2): (1, 1), ("A", 3): (1, 1),
    ("A", 4): (1, 1), ("A", 5): (2, 2), ("A", 6): (2, 2),
    ("EA", 2): (0, 0), ("EA", 4): (1, 1), ("EA", 6): (2, 2),
    ("PB", 1): (0, 0), ("PB", 2): (1, 1), ("PB", 3): (1, 1),
    ("PB", 4): (2, 2),
    ("PA", 1): (0, 0), ("PA", 2): (1, 1), ("PA", 3): (1, 1),
    ("PA", 4): (1, 2),
}


def expected_table():
    return dict(_EXPECTED_TABLE)


@_target("ledger-table",
         "the rule-derived complexity table matches the published values, "
         "with the degree-4 annular partial family the only open interval",
         n=6)
def _ledger_table(n):
    from .derivations import build_standard_ledger, standard_table
    led = build_standard_ledger()
    entries = led.derive_all()
    rows = standard_table(entries)
    ok = True
    mismatches = []
    for row in rows:
        want = _EXPECTED_TABLE[row["family"], row["n"]]
        if (row["lo"], row["hi"]) != want:
            ok = False
            mismatches.append(row)
    open_rows = [f"{r['family']}:{r['n']}" for r in rows if r["open"]]
    ok &= open_rows == ["PA:4"]
    for row in rows:
        if row["open"]:
            continue
        tree = led.derivation_tree(InstanceRef("family", f"{row['family']}:{row['n']}"))
        ok &= _tree_checks_pass(tree)
    return ok, {"rows": rows, "open": open_rows, "mismatches": mismatches}


def _tree_checks_pass(tree):
    stack = list(tree["facts"])
    seen_any = False
    while stack:
        node = stack.pop()
        seen_any = True
        for check in node["checks"]:
            if not check["passed"]:
                return False
        prem = node.get("premises")
        if isinstance(prem, list):
            stack.extend(prem)
    return seen_any


# ---------------------------------------------------------------------------
# property sweeps


@_target("assoc",
         "diagram multiplication is associative on random triples",
         n=6, samples=10000, seed=23)
def _assoc(n, samples, seed):
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        a = random_partial_brauer(n, rng)
        b = random_partial_brauer(n, rng)
        c = random_partial_brauer(n, rng)
        bad += (a * b) * c != a * (b * c)
    c3 = sorted(construct("C", 3).elements, key=encode)
    for _ in range(samples):
        a, b, c = rng.choice(c3), rng.choice(c3), rng.choice(c3)
        bad += (a * b) * c != a * (b * c)
    return bad == 0, {"samples": 2 * samples, "failures": bad}


@_target("star-laws",
         "the row-swap involution is an anti-automorphism and every diagram "
         "is regular through its star",
         n=5, samples=2000, seed=29)
def _star_laws(n, samples, seed):
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        a = random_partial_brauer(n, rng)
        b = random_partial_brauer(n, rng)
        bad += star(a * b) != star(b) * star(a)
        bad += star(star(a)) != a
        bad += a * star(a) * a != a
    return bad == 0, {"samples": samples, "failures": bad}


@_target("closure-annular",
         "products of annular diagrams are annular, and products of even "
         "annular diagrams stay even",
         n=6, samples=4000, seed=31)
def _closure_annular(n, samples, seed):
    rng = random.Random(seed)
    a6 = sorted(construct("A", n).elements, key=encode)
    ea6 = sorted(construct("EA", n).elements, key=encode)
    bad = 0
    for _ in range(samples):
        x, y = rng.choice(a6), rng.choice(a6)
        bad += not is_annular(x * y)
        u, v = rng.choice(ea6), rng.choice(ea6)
        bad += parity(u * v) not in (Parity.EVEN, Parity.RANK_ZERO)
    return bad == 0, {"samples": samples, "failures": bad}


@_target("parity-composition",
         "the parity of a product of annular diagrams is the product of "
         "parities unless the rank collapses to zero",
         n=6, samples=20000, seed=37)
def _parity_composition(n, samples, seed):
    rng = random.Random(seed)
    a6 = sorted(construct("A", n).elements, key=encode)
    bad = 0
    for _ in range(samples):
        x, y = rng.choice(a6), rng.choice(a6)
        p = parity(x * y)
        if (x * y).rank == 0:
            bad += p is not Parity.RANK_ZERO
        else:
            same = parity(x) == parity(y)
            bad += p is not (Parity.EVEN if same else Parity.ODD)
    return bad == 0, {"samples": samples, "failures": bad}


@_target("codec",
         "the text encoding of diagrams round-trips exactly",
         n=7, samples=1000, seed=41)
def _codec(n, samples, seed):
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        k = rng.randint(1, n)
        a = random_partition_diagram(k, rng)
        bad += decode(encode(a)) != a
        b = random_partial_brauer(k, rng)
        bad += decode(encode(b), n=k) != b
    return bad == 0, {"samples": samples, "failures": bad}


@_target("partial-generators",
         "the generating sets of the partial-matching and partition families "
         "close to their enumerations, while the three-generator annular "
         "set falls short and is reported, not assumed",
         n=4)
def _partial_generators(n):
    ok = True
    details = {}
    for k in range(2, n + 1):
        matchings = enumerate_partial_matchings(k)
        full = {
            "PB": set(matchings),
            "PJ": {d for d in matchings if is_planar(d)},
            "PA": {d for d in matchings if is_annular(d)},
        }
        if k <= 4:
            full["C"] = set(enumerate_partitions(k))
        for code, family in full.items():
            span = closure(generators(code, k), include_identity=True)
            ok &= span.element_set() == family
            details[f"{code}:{k}"] = {"span": span.size, "family": len(family)}
        if k >= 3:
            three = [rotation(k), contraction(k, 1, 2), partial_identity(k, 1)]
            span = closure(three, include_identity=True)
            proper = span.element_set() < full["PA"]
            ok &= proper
            details[f"PA:{k} three generators"] = {
                "span": span.size, "family": len(full["PA"]),
                "proper_subset": proper}
    return ok, details
