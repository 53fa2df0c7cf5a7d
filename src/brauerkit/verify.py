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

import numpy as np

from .diagrams import (
    PARITY_OF_CODE,
    ElementSet,
    Parity,
    adjacent_contraction,
    annular,
    capped_rotation,
    cascade,
    contraction,
    decode,
    encode,
    even_or_rank_zero,
    from_labels,
    identity,
    label_array,
    label_dtype,
    local_rotation,
    multiply_pairs,
    named_element_products,
    pads,
    parities,
    partial_identity,
    planar,
    random_partial_brauer,
    random_partition_diagram,
    ranks,
    rotation,
    stars,
    turned,
)
from .derivations import build_standard_ledger, standard_table, t1sub_ea6
from .engine import (
    closure,
    essential_depth,
    green,
    idempotent_generated,
    index_period,
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
from .kernel import kernel
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


def enumerate_matchings(n, partial):
    """Label arrays of all perfect (or all partial) matchings on the 2n
    points of a degree-n diagram, one row each."""
    rows, stack = [], [[-1] * (2 * n)]  # -1: the point has no block yet
    while stack:
        row = stack.pop()
        if -1 not in row:
            rows.append(row)
            continue
        p, k = row.index(-1), max(row) + 1  # the next block starts at p
        for q in range(p if partial else p + 1, 2 * n):  # q = p: a singleton
            if row[q] == -1:
                pair = row.copy()
                pair[p] = pair[q] = k
                stack.append(pair)
    return np.array(rows, dtype=label_dtype(n))


def enumerate_partitions(n):
    """Label arrays of all partitions of the 2n points: the restricted
    growth strings, each point in an earlier block or a new one."""
    rows = [[0]]
    for _ in range(2 * n - 1):
        rows = [row + [k] for row in rows for k in range(max(row) + 2)]
    return np.array(rows, dtype=label_dtype(n))


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
        enumerated = len(enumerate_matchings(k, partial=False))
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
            ok &= built == planar(enumerate_matchings(k, partial=False)).sum()
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
        matchings = enumerate_matchings(k, partial=True)
        pb[k] = construct("PB", k).size
        pj[k] = construct("PJ", k).size
        ok &= pb[k] == involution_count(2 * k) == len(matchings)
        ok &= pj[k] == planar(matchings).sum()
    return ok, {"PB": pb, "PJ": pj}


@_target("family-filters",
         "generated annular families agree with the filtered enumerations",
         n=6)
def _family_filters(n):
    ok = True
    details = {}
    for k in range(1, n + 1):
        matchings = enumerate_matchings(k, partial=False)
        filtered = {"A": matchings[annular(matchings)]}
        if k % 2 == 0:
            filtered["EA"] = filtered["A"][even_or_rank_zero(filtered["A"])]
        if k <= 4:
            partial = enumerate_matchings(k, partial=True)
            filtered["PA"] = partial[annular(partial)]
        for code, labs in filtered.items():
            ok &= construct(code, k).elements == ElementSet(k, labs)
            details[f"{code}:{k}"] = len(labs)
    return ok, details


# ---------------------------------------------------------------------------
# generation of singular parts


def _singular_generation(code, degrees, contractions):
    """Whether contractions(k) generate the singular part of code:k, each k."""
    ok = True
    sizes = {}
    for k in degrees:
        sg = as_closure(construct(code, k))
        span = closure(contractions(k)).element_set()
        ok &= span == sg.element_set(singular_part(sg))
        sizes[k] = len(span)
    return ok, {"singular_sizes": sizes}


def _adjacent_with_wrap(k):
    """The n adjacent contractions, including the wrapping one (n, 1)."""
    return [adjacent_contraction(k, i) for i in range(1, k + 1)]


@_target("sing-brauer",
         "the singular matching diagrams are generated by the pairwise "
         "contractions",
         n=5)
def _sing_brauer(n):
    return _singular_generation("B", range(2, n + 1), lambda k: [
        contraction(k, i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)])


@_target("sing-jones",
         "the singular planar diagrams are generated by the n-1 adjacent "
         "contractions",
         n=8)
def _sing_jones(n):
    return _singular_generation("J", range(2, n + 1), lambda k: [
        adjacent_contraction(k, i) for i in range(1, k)])


@_target("sing-ea",
         "the singular even annular diagrams are generated by the n adjacent "
         "contractions including the wrapping one",
         n=6)
def _sing_ea(n):
    return _singular_generation("EA", range(2, n + 1, 2), _adjacent_with_wrap)


@_target("sing-annular-odd",
         "at odd degree the singular annular diagrams are generated by the "
         "n adjacent contractions",
         n=7)
def _sing_annular_odd(n):
    return _singular_generation("A", range(3, n + 1, 2), _adjacent_with_wrap)


@_target("sing-annular-even",
         "at even degree the idempotents of the annular family generate only "
         "a proper part of its singular diagrams",
         n=6)
def _sing_annular_even(n):
    ok = True
    details = {}
    for k in range(4, n + 1, 2):
        sg = as_closure(construct("A", k))
        sing = singular_part(sg)
        inter = np.intersect1d(idempotent_generated(sg), sing)
        ok &= len(inter) < len(sing)
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
            j, rank = green(sg).j, ranks(sg.labels)
            # one rank per J-class, and one J-class per rank
            classes = len(np.unique(j))
            ok &= len(set(zip(j.tolist(), rank.tolist()))) == classes
            ok &= classes == len(np.unique(rank))
            checked.append(f"{code}:{k}")
    return ok, {"checked": checked}


def _ranks_and_subgroup_orders(sg):
    """Each element's rank, and the order of the maximal subgroups of its
    J-class."""
    data = green(sg)
    return ranks(sg.labels), data.j_subgroup_order[data.j]


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
        rank, order = _ranks_and_subgroup_orders(as_closure(construct("B", k)))
        ok &= bool((order == np.array([math.factorial(t) for t in range(k + 1)])[rank]).all())
        details[f"B:{k}"] = "t! at each rank t"
    for k in range(2, n + 1, 2):
        sg = as_closure(construct("EA", k))
        rank, order = _ranks_and_subgroup_orders(sg)
        ok &= bool((order == np.maximum(rank // 2, 1)).all())
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
        sg = as_closure(construct("B", k))
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
    made = {k: named_element_products(k) for k in range(3, n + 1)}
    for name, closed_form, degrees in (
            ("cascade", cascade, range(3, n + 1)),
            ("local_rotation", local_rotation, range(4, n + 1, 2)),
            ("capped_rotation", capped_rotation, range(5, n + 1, 2))):
        for k in degrees:
            ok &= made[k][name] == closed_form(k)
            checked.append(f"{name.replace('_', '-')}:{k}")
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


def _unequal(xs, ys):
    """The number of rows in which two label arrays differ."""
    return int((xs != ys).any(axis=1).sum())


@_target("twist-laws",
         "row rotation acts as conjugation (shift) and one-sided "
         "multiplication (twist) by the rotation element",
         n=6, samples=1000, seed=5)
def _twist_laws(n, samples, seed):
    rng = random.Random(seed)
    zeta = rotation(n)
    zpow = [identity(n)]
    for _ in range(1, 2 * n):
        zpow.append(zpow[-1] * zeta)
    drawn, ks = zip(*[(random_partial_brauer(n, rng), rng.randrange(-2 * n, 2 * n + 1))
                      for _ in range(samples)])
    a = label_array(drawn, n)
    back, ahead = (label_array([zpow[sign * k % (2 * n)] for k in ks], n)
                   for sign in (-1, 1))
    bad = _unequal(multiply_pairs(multiply_pairs(back, a), ahead), turned(a, ks, ks))
    bad += _unequal(multiply_pairs(a, ahead), turned(a, 0, ks))
    return bad == 0, {"samples": samples, "failures": bad}


@_target("twist-singular",
         "multiplying a singular annular diagram by the shifted cascade "
         "(even degree) or shifted capped rotation (odd degree) twists it",
         n=6)
def _twist_singular(n):
    ok = True
    details = {}
    cases = [(k, cascade(k), 2) for k in range(4, n + 1, 2)]
    cases += [(k, capped_rotation(k), 1) for k in range(5, n + 1, 2)]
    for k, mover, t in cases:
        sg = as_closure(construct("A", k))
        singular = sg.labels[singular_part(sg)]
        # outer[r, i - 1]: row r has the top string {(i-1)', i'}, i = 1 wrapping
        # to {n', 1'}; a block of a matching holds two points
        top = singular[:, k:]
        outer = top == np.roll(top, 1, axis=1)
        missing = int((~outer.any(axis=1)).sum())
        rows, cols = np.nonzero(outer)  # position i = cols + 1, shifted by i - k
        movers = turned(label_array([mover], k), cols + 1 - k, cols + 1 - k)
        bad = _unequal(multiply_pairs(singular[rows], movers),
                       turned(singular[rows], 0, t))
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
    kset = sg.element_set(result.kernel_ids)
    expected = construct("EA", 4).elements - {rotation(4) * rotation(4)}
    ok = kset == expected and result.is_aperiodic
    return ok, {"kernel_size": len(kset), "iterations": result.iterations,
                "aperiodic": result.is_aperiodic}


def _is_relational_morphism(pairs, left_mul, right_mul):
    """Check graph closure: (s,t),(s',t') in R implies (ss', tt') in R.

    pairs is a k x 2 integer array; left_mul and right_mul multiply arrays
    that broadcast, so all k^2 products of each side are one batched call,
    and each product pair is looked up among the relation's by its code
    s * width + (t - low)."""
    s, t = np.asarray(pairs, dtype=np.int64).T
    ss, tt = left_mul(s[:, None], s), right_mul(t[:, None], t)
    low = min(t.min(), tt.min())
    width = max(t.max(), tt.max()) - low + 1
    return bool(np.isin(ss * width + (tt - low), s * width + (t - low)).all())


def _parity_relations(sg):
    """The two relations of verify_parity_morphism_a4 on the closure sg of
    A:4, as k x 2 arrays: tau1 relates each unit to itself and each
    non-unit to every unit; tau2 relates each element of rank >= 2 to its
    parity sign and each rank-0 element to both signs."""
    unit_ids, sing = units(sg), singular_part(sg)
    tau1 = np.concatenate([np.column_stack([unit_ids, unit_ids]), np.column_stack(
        [np.repeat(sing, len(unit_ids)), np.tile(unit_ids, len(sing))])])
    # a MIXED element, which A:4 cannot hold, fails the lookup
    signs = {Parity.EVEN: (1,), Parity.ODD: (-1,), Parity.RANK_ZERO: (-1, 1)}
    tau2 = [(x, s) for x, code in enumerate(parities(sg.labels).tolist())
            for s in signs[PARITY_OF_CODE[code]]]
    return tau1, np.array(tau2)


def verify_parity_morphism_a4():
    """Re-check the two explicit relations witnessing the degree-4 kernel.

    The first relates every non-unit to all units and each unit to itself;
    the second sends rank >= 2 elements to their parity sign and rank-0
    elements to both signs (_parity_relations).  Both must be relational
    morphisms, and the joint preimage of (identity, +1) must equal the
    kernel, which is the singular even part plus the identity.
    """
    sg = as_closure(construct("A", 4))
    tau1, tau2 = _parity_relations(sg)
    if not (_is_relational_morphism(tau1, sg.multiply, sg.multiply)
            and _is_relational_morphism(tau2, sg.multiply, np.multiply)):
        return False
    # total domain
    if not all(np.array_equal(np.unique(tau[:, 0]), np.arange(sg.size)) for tau in (tau1, tau2)):
        return False

    preimage = np.intersect1d(tau1[tau1[:, 1] == sg.identity_id, 0], tau2[tau2[:, 1] == 1, 0])
    sing = singular_part(sg)
    expected = np.union1d(sing[even_or_rank_zero(sg.labels)[sing]], sg.identity_id)
    return (np.array_equal(preimage, expected)
            and np.array_equal(preimage, kernel(sg).kernel_ids))


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
        detail["witness"] = encode(from_labels(sg.labels[result.witness]))
        detail["witness_period"] = per
        ok &= per == 2
    return ok, detail


@_target("t1-ea6",
         "the distinguished submonoid of the degree-6 even annular family "
         "has left-order comparable generators and is not aperiodic",
         n=6)
def _t1_ea6(n):
    sub = t1sub_ea6()
    chain = t1_chain(sub)
    ok = chain is not None
    details = {"size": sub.size}
    if ok:
        details["chain"] = [encode(from_labels(sub.labels[i])) for i in chain]
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
    sub = t1sub_ea6()
    egen = sub.element_set(idempotent_generated(sub))
    kset = sub.element_set(kernel(sub).kernel_ids)
    padded = ElementSet(6, pads(construct("EA", 4).elements.labels, 6))
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


def _nonassociative(n, triples):
    """The number of triples (a, b, c) of degree n with (ab)c != a(bc)."""
    a, b, c = (label_array(side, n) for side in zip(*triples))
    return _unequal(multiply_pairs(multiply_pairs(a, b), c),
                    multiply_pairs(a, multiply_pairs(b, c)))


@_target("assoc",
         "diagram multiplication is associative on random triples",
         n=6, samples=10000, seed=23)
def _assoc(n, samples, seed):
    rng = random.Random(seed)
    bad = _nonassociative(n, [[random_partial_brauer(n, rng) for _ in range(3)]
                              for _ in range(samples)])
    c3 = sorted(construct("C", 3).elements, key=encode)
    bad += _nonassociative(3, [[rng.choice(c3) for _ in range(3)]
                               for _ in range(samples)])
    return bad == 0, {"samples": 2 * samples, "failures": bad}


@_target("star-laws",
         "the row-swap involution is an anti-automorphism and every diagram "
         "is regular through its star",
         n=5, samples=2000, seed=29)
def _star_laws(n, samples, seed):
    rng = random.Random(seed)
    drawn = list(zip(*[(random_partial_brauer(n, rng), random_partial_brauer(n, rng))
                       for _ in range(samples)]))
    a, b = (label_array(side, n) for side in drawn)
    sa, sb = stars(a), stars(b)
    bad = _unequal(stars(multiply_pairs(a, b)), multiply_pairs(sb, sa))
    bad += _unequal(stars(sa), a)
    bad += _unequal(multiply_pairs(multiply_pairs(a, sa), a), a)
    return bad == 0, {"samples": samples, "failures": bad}


@_target("closure-annular",
         "products of annular diagrams are annular, and products of even "
         "annular diagrams stay even",
         n=6, samples=4000, seed=31)
def _closure_annular(n, samples, seed):
    """At the largest even degree <= n, at least 2: the even family's."""
    n = max(2, n - n % 2)
    rng = random.Random(seed)
    a6 = sorted(construct("A", n).elements, key=encode)
    ea6 = sorted(construct("EA", n).elements, key=encode)
    x, y, u, v = (label_array(side, n) for side in zip(*[
        (rng.choice(a6), rng.choice(a6), rng.choice(ea6), rng.choice(ea6))
        for _ in range(samples)]))
    bad = int((~annular(multiply_pairs(x, y))).sum()
              + (~even_or_rank_zero(multiply_pairs(u, v))).sum())
    return bad == 0, {"samples": samples, "failures": bad}


@_target("parity-composition",
         "the parity of a product of annular diagrams is the product of "
         "parities unless the rank collapses to zero",
         n=6, samples=20000, seed=37)
def _parity_composition(n, samples, seed):
    """At the largest even degree <= n (2 when n < 2): at odd degree
    parities do not compose."""
    n = max(2, n - n % 2)
    rng = random.Random(seed)
    a6 = sorted(construct("A", n).elements, key=encode)
    pairs = [(rng.choice(a6), rng.choice(a6)) for _ in range(samples)]
    xs, ys = (label_array(side, n) for side in zip(*pairs))
    xy = multiply_pairs(xs, ys)
    rank_zero, even, odd = map(PARITY_OF_CODE.index,
                               (Parity.RANK_ZERO, Parity.EVEN, Parity.ODD))
    want = np.where(ranks(xy) == 0, rank_zero,
                    np.where(parities(xs) == parities(ys), even, odd))
    bad = int((parities(xy) != want).sum())
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
        matchings = enumerate_matchings(k, partial=True)
        full = {"PB": matchings, "PJ": matchings[planar(matchings)],
                "PA": matchings[annular(matchings)]}
        if k <= 4:
            full["C"] = enumerate_partitions(k)
        full = {code: ElementSet(k, labs) for code, labs in full.items()}
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
