"""Semigroup engine: closures, Green data, ideals, quotients, embeddings."""

import ast
import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from hypothesis import example, given, settings, strategies as st

from brauerkit import (
    InstanceRef,
    adjacent_contraction,
    as_closure,
    closure,
    closure_from_elements,
    construct,
    contraction,
    diagram,
    essential_depth,
    generated_subsemigroup,
    green,
    idempotent_generated,
    identity,
    index_period,
    is_aperiodic,
    is_inverse,
    kernel,
    local_monoid,
    pad_embedding,
    partial_identity,
    principal_ideal,
    rees_quotient,
    rotation,
    singular_part,
    subsemigroup,
    units,
)
from brauerkit import build_standard_ledger, derivations, diagrams, engine, families
from brauerkit.diagrams import (
    ElementSet,
    is_partial_brauer,
    label_array,
    labels,
    random_partial_brauer,
    random_partition_diagram,
    sort_keys,
)
from brauerkit.derivations import t1sub_ea6
from brauerkit.engine import SemigroupClosure, l_leq, period_one, t1_chain
from brauerkit.errors import (
    BadDegree,
    BadIndex,
    BudgetExceeded,
    CrossCheckFailed,
    NotAMonoid,
    NotAnIdeal,
    NotASubsemigroup,
    NotIdempotent,
)
from test_diagrams import _BATCH_DEGREES
from oracles import (
    _oracle_closure,
    count_products,
    elements_of,
    id_of,
    oracle_associativity_failure,
    oracle_closure,
    oracle_green,
    oracle_greedy_closure,
    oracle_green_all_generators,
    oracle_idempotent_ids,
    oracle_is_inverse,
    oracle_iso,
    oracle_kernel,
    oracle_l_leq,
    oracle_left_cayley,
    oracle_local_elements,
    oracle_period_one,
    oracle_principal_ideal,
    oracle_rees_table,
    oracle_span,
    oracle_strong_components,
    oracle_t1_chain,
    oracle_table,
    transformation_table,
)


def _b(n):
    return as_closure(construct("B", n))


def _j(n):
    return as_closure(construct("J", n))


# ---------------------------------------------------------------------------
# closure construction


def test_closure_reaches_whole_brauer_monoid():
    assert _b(3).size == 15
    assert _j(4).size == 14


def test_closure_identity_handling():
    e = contraction(3, 1, 2)
    no_id = closure([e])
    assert no_id.size == 1 and no_id.identity_id is None
    with_id = closure([e], include_identity=True)
    assert with_id.size == 2 and with_id.identity_id == 0


def test_closure_of_no_generators_is_the_trivial_monoid():
    sg = closure([], include_identity=True)
    assert (sg.size, sg.identity_id, sg.generators.tolist()) == (1, 0, [])
    assert sg.right_cayley.shape == sg.left_cayley.shape == (1, 0)
    assert elements_of(sg) == [identity(1)]
    assert green(sg).num_j == 1 and is_aperiodic(sg)


def test_closure_deduplicates_generators():
    e = contraction(3, 1, 2)
    sg = closure([e, e, e])
    assert len(sg.generators) == 1


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        construct("B", 4, budget=10)


def test_closure_word_reconstruction():
    sg = closure([rotation(3), contraction(3, 1, 2)], include_identity=True)
    elems, gens = elements_of(sg), elements_of(sg, sg.generators)
    for i in range(sg.size):
        p, let = int(sg.parent[i]), int(sg.letter[i])
        if p < 0:
            expected = identity(3) if let < 0 else gens[let]
        else:
            expected = elems[p] * gens[let]
        assert elems[i] == expected


def test_product_table_and_left_cayley_agree_with_diagrams():
    sg = _b(3)
    table = sg.product_table()
    rng = random.Random(3)
    elems = elements_of(sg)
    for _ in range(200):
        i, j = rng.randrange(sg.size), rng.randrange(sg.size)
        assert table[i, j] == id_of(sg, elems[i] * elems[j])
    assert np.array_equal(sg.left_cayley, oracle_left_cayley(sg))


def test_closure_from_elements_round_trip():
    sg = _b(3)
    rebuilt = closure_from_elements(elements_of(sg))
    assert rebuilt.element_set() == sg.element_set()
    assert rebuilt.identity_id == id_of(rebuilt, identity(3))


def test_closure_from_elements_rejects_open_sets():
    with pytest.raises(ValueError):
        closure_from_elements([rotation(4)])  # missing the higher powers


def test_as_closure_of_pa5_closes_its_generating_set():
    inst = construct("PA", 5)
    sg = as_closure(inst)
    assert sg.size == 5046 and sg.element_set() == inst.elements
    assert len(sg.generators) < sg.size


@pytest.mark.parametrize("name", ["PA:2", "PA:3", "PA:4", "PJ:4", "C:3",
                                  "B:3 shuffled"])
def test_closure_from_elements_matches_diagram_table(name):
    family, n = name.split()[0].split(":")
    elems = construct(family, int(n)).sorted_elements()
    if name.endswith("shuffled"):
        random.Random(5).shuffle(elems)
    sg = closure_from_elements(elems)
    assert sg.element_set() == set(elems)
    _assert_diagram_table(sg, elements_of(sg))


def _rule_products(want):
    """The cells of a search that the Froidure-Pin rule sends to a diagram
    product, worked out from the scalar search's words: every cell of a
    seed's row, and cell (s, b) of an element s = g_a u at depth d >= 1
    when u g_b is not below depth d."""
    parent, letter, rc = want["parent"], want["letter"], want["right_cayley"]
    gen_ids = want["generators"]
    depth, suffix = [0] * len(parent), [None] * len(parent)
    for s, p in enumerate(parent):  # ids in BFS order: parents come first
        if p >= 0:
            depth[s] = depth[p] + 1
            suffix[s] = (gen_ids[letter[s]] if parent[p] < 0
                         else rc[suffix[p]][letter[s]])
    return sum(len(gen_ids) if p < 0 else
               sum(depth[r] >= depth[s] for r in rc[suffix[s]])
               for s, p in enumerate(parent))


def test_closure_takes_products_only_where_the_rule_cannot_look_up(monkeypatch):
    """B:6 takes 14,101 of its 31,185 (element, generator) products."""
    count = count_products(monkeypatch)
    for name, want_products in (("B:6", 14101), ("C:3", 345), ("A:6", 717)):
        family, n = name.split(":")
        gens = construct(family, int(n)).generators
        count[0] = 0
        closure(gens, include_identity=True)
        want = oracle_closure(gens, include_identity=True)
        assert count[0] == _rule_products(want) == want_products, name


def test_the_oracles_take_no_product_of_the_package(monkeypatch):
    sg = as_closure(construct("PB", 3))
    elems = elements_of(sg)
    e_id = id_of(sg, adjacent_contraction(3, 2))
    ideal = principal_ideal(sg, e_id)
    count = count_products(monkeypatch)
    oracle_table(elems)
    oracle_left_cayley(sg)
    oracle_idempotent_ids(sg)
    oracle_local_elements(sg, e_id)
    oracle_rees_table(sg, ideal)
    assert oracle_iso(elems, elems, lambda d: d) == (True, True)
    assert count[0] == 0
    elems[5] * elems[7]  # a scalar product counts once
    assert count[0] == 1


def test_as_closure_takes_the_closure_construct_built(monkeypatch):
    inst = construct("J", 7)
    count = count_products(monkeypatch)
    sg = as_closure(inst)
    assert count[0] == 0
    assert sg.element_set() == inst.elements and sg.size == 429


def _partial_identity_semilattice(n):
    """The 2^n partial identities of degree n by ascending rank, so that
    none is a product of the ones before it."""
    out = []
    for rank in range(n + 1):
        for kept in itertools.combinations(range(1, n + 1), rank):
            d = identity(n)
            for i in set(range(1, n + 1)) - set(kept):
                d = d * partial_identity(n, i)
            out.append(d)
    return out


def test_closure_from_elements_searches_each_pick_once(monkeypatch):
    """The closure of the first k of g picks is searched once, at most
    |S| k products, so at most |S| g(g+1)/2 in all."""
    pa4 = construct("PA", 4).sorted_elements()
    lattice = _partial_identity_semilattice(6)
    count = count_products(monkeypatch)
    g = len(closure_from_elements(pa4).generators)
    assert g == 12 and count[0] <= 589 * g * (g + 1) // 2
    count[0] = 0
    g = len(closure_from_elements(lattice).generators)
    assert g == 64 and count[0] <= 64 * g * (g + 1) // 2


def test_closure_from_elements_stops_before_the_cell_limit(monkeypatch):
    pa4 = construct("PA", 4).sorted_elements()
    g = len(closure_from_elements(pa4).generators)
    monkeypatch.setattr(engine, "TABLE_CELL_LIMIT", len(pa4) * g)
    assert len(closure_from_elements(pa4).generators) == g
    monkeypatch.setattr(engine, "TABLE_CELL_LIMIT", len(pa4) * g - 1)
    with pytest.raises(BudgetExceeded):
        closure_from_elements(pa4)


def test_closure_from_elements_stops_at_the_first_product_outside(monkeypatch):
    gens = list(construct("B", 6).generators)
    count = count_products(monkeypatch)
    with pytest.raises(ValueError):
        closure_from_elements(gens)
    assert count[0] <= len(gens) ** 2


# ---------------------------------------------------------------------------
# the level-synchronous search against the scalar loop


def _assert_same_search(sg, want):
    assert elements_of(sg) == want["elements"]
    assert sg.parent.tolist() == want["parent"]
    assert sg.letter.tolist() == want["letter"]
    assert sg.right_cayley.tolist() == want["right_cayley"]
    assert sg.generators.tolist() == want["generators"]
    assert sg.identity_id == want["identity_id"]
    assert (sg.ids_of(label_array(want["elements"], sg.degree)).tolist()
            == list(range(len(want["elements"]))))
    assert np.array_equal(sg.left_cayley, oracle_left_cayley(sg))


# as_closure searches every instance from the generators it was built from.
_SEARCHES = ("B:5", "J:6", "A:6", "EA:6", "PB:4", "SYM:5", "PJ:4", "PA:3", "PA:4",
             "C:3")


@pytest.mark.parametrize("name", [*_SEARCHES, "t1sub(EA:6)"])
def test_closure_matches_the_scalar_search(name):
    if name == "t1sub(EA:6)":
        t1 = t1sub_ea6()
        gens = elements_of(t1, t1.generators)
        _assert_same_search(closure(gens, include_identity=True),
                            oracle_closure(gens, include_identity=True))
        return
    family, n = name.split(":")
    gens = list(construct(family, int(n)).generators)
    sg = as_closure(construct(family, int(n)))
    assert elements_of(sg, sg.generators) == gens
    _assert_same_search(sg, oracle_closure(gens, include_identity=True))


def _batch_searches():
    """Generator lists of every _BATCH_DEGREES instance, and three edge
    cases, each searched with and without the identity."""
    gens = {f"{family}:{n}": list(construct(family, n).generators)
            for family, ns in _BATCH_DEGREES.items() for n in ns}
    b3 = gens["B:3"]
    gens["B:3 repeated"] = b3 + b3[::-1]
    gens["B:3 and the identity"] = [b3[0], identity(3), *b3[1:]]
    gens["none"] = []
    return {f"{name} {how}": (g, how == "with identity")
            for name, g in gens.items() for how in ("with identity", "without")
            if g or how == "with identity"}


@pytest.mark.parametrize("name", sorted(_batch_searches()))
def test_closure_matches_the_scalar_search_on_every_batch_case(name):
    gens, include_identity = _batch_searches()[name]
    _assert_same_search(closure(gens, include_identity=include_identity),
                        oracle_closure(gens, include_identity=include_identity))


def test_closure_matches_the_scalar_search_on_the_ledger_closures(monkeypatch):
    """Every distinct closure a standard ledger build searches, with
    construct's cache bypassed, searched again by the scalar loop."""
    calls = {}
    search = engine.closure

    def recorded(gens, *, include_identity=False, budget=None):
        gens = list(gens)
        calls[include_identity, *gens] = None
        return search(gens, include_identity=include_identity, budget=budget)

    monkeypatch.setattr(families, "_construct", families._construct.__wrapped__)
    monkeypatch.setattr(families, "closure", recorded)
    monkeypatch.setattr(derivations, "closure", recorded)
    build_standard_ledger()
    assert len(calls) == 30
    for include_identity, *gens in calls:
        _assert_same_search(closure(gens, include_identity=include_identity),
                            oracle_closure(gens, include_identity=include_identity))


@pytest.mark.parametrize("name", ["B:3", "PJ:4", "PA:4"])
def test_greedy_search_matches_the_scalar_search_on_shuffled_sets(name):
    """The picks are the scalar greedy search's generators, and the
    search is the closure of the picks."""
    family, n = name.split(":")
    elems = construct(family, int(n)).sorted_elements()
    random.Random(11).shuffle(elems)
    greedy = oracle_greedy_closure(elems)
    picks = [greedy["elements"][i] for i in greedy["generators"]]
    sg = closure_from_elements(elems)
    assert elements_of(sg, sg.generators) == picks
    _assert_same_search(sg, oracle_closure(picks))


def _open_sets():
    b4 = construct("B", 4).sorted_elements()
    return {"rotation(4)": [rotation(4)],
            "B:6 generators": list(construct("B", 6).generators),
            "B:4 less one element": b4[:40] + b4[41:],
            "B:4 less its identity": [d for d in b4 if d != identity(4)][::-1]}


@pytest.mark.parametrize("name", sorted(_open_sets()))
def test_closure_from_elements_fails_where_the_scalar_search_fails(name):
    elems = _open_sets()[name]
    with pytest.raises(ValueError):
        oracle_greedy_closure(elems)
    with pytest.raises(ValueError):
        closure_from_elements(elems)


def test_budget_stops_the_search_at_the_first_id_past_it():
    gens = list(construct("B", 4).generators)
    assert closure(gens, include_identity=True, budget=105).size == 105
    for budget in (1, 4, 50, 104):
        with pytest.raises(BudgetExceeded):
            oracle_closure(gens, include_identity=True, budget=budget)
        with pytest.raises(BudgetExceeded):
            closure(gens, include_identity=True, budget=budget)


def test_subsemigroup_rejects_open_and_repeated_ids():
    sg = _b(3)
    r = id_of(sg, rotation(3))
    with pytest.raises(NotASubsemigroup):
        subsemigroup(sg, [r])  # missing the higher powers
    with pytest.raises(BadIndex):
        subsemigroup(sg, [sg.identity_id, sg.identity_id])


# ---------------------------------------------------------------------------
# products as word walks, against the diagram-product oracles

_ORACLE_CASES = ["B:3", "B:4", "B:5", "B:6", "A:4", "A:5", "A:6", "A:7", "A:8",
                 "J:6", "EA:6", "PB:4", "PA:4", "SYM:5", "t1sub(EA:6)",
                 "pad(B:4)", "pad(A:4)", "pad(PA:2)",
                 "kernel(t1sub(EA:6))", "egen(t1sub(EA:6))"]

# Subsemigroups the standard ledger restricts from a parent's products,
# by key (whose prefix is the instance kind) with their degree.
_RESTRICTED = {"pad(B:4)": 6, "pad(A:4)": 6, "pad(PA:2)": 4,
               "kernel(t1sub(EA:6))": 6, "egen(t1sub(EA:6))": 6}


def _restricted_elements(led, name):
    """The elements the ledger's restriction should hold, in order."""
    if name.startswith("pad("):
        family, n = name[4:-1].split(":")
        small = as_closure(construct(family, int(n)))
        return [pad_embedding(d, int(n) + 2) for d in elements_of(small)]
    t1 = led.instances[InstanceRef("sub", "t1sub(EA:6)")]
    if name.startswith("kernel("):
        return elements_of(t1, oracle_kernel(t1)[0])
    return elements_of(t1, oracle_span(t1, oracle_idempotent_ids(t1)))


def _assert_diagram_table(sg, elems):
    """sg holds elems in this order, with their diagram-product table."""
    table, identity_id = oracle_table(elems)
    assert elements_of(sg) == elems
    assert sg.identity_id == identity_id
    assert np.array_equal(sg.product_table(), table)


def _instance(name, request):
    """(closure, degree, the elements a restriction should hold, or None)."""
    if name in _RESTRICTED:
        led, _ = request.getfixturevalue("derived_standard_ledger")
        sg = led.instances[InstanceRef(name.split("(")[0], name)]
        return sg, _RESTRICTED[name], _restricted_elements(led, name)
    if name == "t1sub(EA:6)":
        return t1sub_ea6(), 6, None
    family, n = name.split(":")
    return as_closure(construct(family, int(n))), int(n), None


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name in ("B:6", "A:8") else name
    for name in _ORACLE_CASES])
def test_integer_analyses_match_diagram_products(name, request):
    sg, n, elems = _instance(name, request)
    if elems is not None:
        _assert_diagram_table(sg, elems)
    assert np.array_equal(sg.left_cayley, oracle_left_cayley(sg))
    assert sg.idempotent_ids().tolist() == list(oracle_idempotent_ids(sg))

    rng = random.Random(n)
    idem = list(sg.idempotent_ids())
    seed_sets = [sg.generators[:4],
                 rng.sample(range(sg.size), 2),
                 rng.sample(idem, min(6, len(idem)))]
    for seeds in seed_sets:
        assert generated_subsemigroup(sg, seeds).tolist() == oracle_span(sg, seeds)

    try:
        e_id = id_of(sg, adjacent_contraction(n, n - 1))
    except KeyError:
        e_id = sg.identity_id
    _assert_diagram_table(local_monoid(sg, e_id), oracle_local_elements(sg, e_id))

    ideal = principal_ideal(sg, e_id)
    assert np.array_equal(rees_quotient(sg, ideal).product_table(),
                          oracle_rees_table(sg, ideal))


_WALKED = {"B:6": as_closure(construct("B", 6)),
           "J:5": closure([adjacent_contraction(5, i) for i in range(1, 5)],
                          include_identity=True)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_WALKED)), st.data())
def test_word_walk_products_without_a_table(name, data):
    sg = _WALKED[name]
    assert sg._table is None
    ids = st.integers(0, sg.size - 1)
    xs = data.draw(st.lists(ids, min_size=1, max_size=30))
    ys = data.draw(st.lists(ids, min_size=len(xs), max_size=len(xs)))
    want = [id_of(sg, x * y) for x, y in zip(elements_of(sg, xs), elements_of(sg, ys))]
    assert sg.multiply(np.array(xs), np.array(ys)).tolist() == want
    assert [int(sg.multiply(x, y)) for x, y in zip(xs, ys)] == want


@pytest.mark.parametrize("name", sorted(_WALKED))
def test_word_walk_matches_the_products_walk(name):
    """multiply reads each level's letters for ys as given and steps a
    flat right Cayley graph; it gives _products on zipped, scalar and
    broadcast ids."""
    sg = _WALKED[name]
    rng = np.random.default_rng(sg.size)
    xs, ys = rng.integers(0, sg.size, 200), rng.integers(0, sg.size, 50)
    table = sg._products(xs, ys)
    assert sg._table is None
    assert np.array_equal(sg.multiply(xs[:, None], ys), table)
    assert np.array_equal(sg.multiply(ys[:, None], xs[None]), sg._products(ys, xs))
    assert np.array_equal(sg.multiply(xs[:50], ys), table[np.arange(50), np.arange(50)])
    assert np.array_equal(sg.multiply(xs[3], ys), table[3])
    assert np.array_equal(sg.multiply(xs[:, None], ys[[7]]), table[:, [7]])
    assert np.array_equal(sg.multiply(xs, ys[7]), table[:, 7])
    assert sg.multiply(int(xs[5]), int(ys[9])) == sg.multiply(xs[5], ys[9]) == table[5, 9]
    assert sg.multiply(xs[:0, None], ys).shape == (0, 50)


# ---------------------------------------------------------------------------
# Green's relations


def test_green_data_on_brauer_4():
    g = green(_b(4))
    assert sorted(np.bincount(g.j).tolist()) == [9, 24, 72]
    assert sorted(g.j_subgroup_order.tolist()) == [1, 2, 24]
    assert sorted((g.j_subgroup_order > 0).tolist()) == [True, True, True]  # regular
    assert sorted((g.j_subgroup_order > 1).tolist()) == [False, True, True]  # essential
    assert g.num_j == 3


def _assert_same_green(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def test_green_matches_elementwise_oracle_on_ledger_instances(derived_standard_ledger):
    led, _ = derived_standard_ledger
    assert len(led.instances) == 56
    for sg in led.instances.values():
        _assert_same_green(green(sg), oracle_green(sg))


@pytest.mark.parametrize("family, n", [("B", 6), ("A", 8), ("J", 9), ("EA", 8),
                                       ("PB", 5), ("SYM", 7)])
def test_green_matches_elementwise_oracle_on_census_closures(family, n):
    sg = as_closure(construct(family, n))
    _assert_same_green(green(sg), oracle_green(sg))


def _heights(order, num_j):
    """The longest path down from each class of the J-order order; the
    order is a chain when they are 0..num_j-1."""
    below = {c: [b for a, b in order if a == c] for c in range(num_j)}
    height = {}

    def walk(c):
        if c not in height:
            height[c] = max((walk(b) + 1 for b in below[c]), default=0)
        return height[c]

    return [walk(c) for c in range(num_j)]


def test_j_is_r_join_l_on_random_transformation_semigroups():
    # random maps give J-orders that are not chains and semigroups with no
    # identity; the two-sided strong components number incomparable
    # classes their own way, so classes are matched by their members
    chains, monoids = [], []
    for seed in range(60):
        sg = SemigroupClosure.from_table(transformation_table(seed))
        new, old = green(sg), oracle_green(sg)
        match = dict(zip(new.j.tolist(), old.j.tolist()))
        assert new.num_j == old.num_j == len(match) == len(set(match.values())), seed
        assert ({(match[a], match[b]) for a, b in new.j_order.tolist()}
                == set(map(tuple, old.j_order.tolist()))), seed
        assert new.j_order.tolist() == sorted(new.j_order.tolist()), seed
        assert all(lower < upper for upper, lower in new.j_order), seed
        heights = _heights(new.j_order, new.num_j)
        least = np.unique(new.j, return_index=True)[1]  # each class's least member
        assert sorted(range(new.num_j), key=lambda c: (heights[c], least[c])) \
            == list(range(new.num_j)), seed
        chains.append(sorted(heights) == list(range(new.num_j)))
        monoids.append(sg.identity_id is not None)
    assert chains.count(False) >= 20 and monoids.count(False) >= 20


def test_j_order_points_to_lower_numbers_on_ledger_instances(derived_standard_ledger):
    led, _ = derived_standard_ledger
    for ref, sg in led.instances.items():
        g = green(sg)
        assert all(lower < upper for upper, lower in g.j_order), ref
        assert sorted(_heights(g.j_order, g.num_j)) == list(range(g.num_j)), ref


def test_green_rejects_a_j_order_with_a_cycle():
    # a table that is not associative: the strong components of R and L
    # joined as R v L gave J-classes {0, 2} and {1} on a cycle; read through
    # the R-class quotient it is one J-class whose H-classes {0} and {1, 2}
    # differ in size, which Green's lemma forbids
    table = [[2, 0, 0], [2, 0, 0], [1, 2, 1]]
    sg = SemigroupClosure.from_table(table)
    assert oracle_associativity_failure(sg, engine._ASSOCIATIVITY_SAMPLES) is not None
    with pytest.raises(CrossCheckFailed, match="H-classes of unequal size"):
        green(sg)


def _associative(table):
    table = np.asarray(table)
    return bool((table[table] == table[:, table]).all())


@pytest.mark.parametrize("table, what", [
    ([[1, 2, 0], [2, 2, 0], [1, 2, 1]], "R is not a left congruence"),
    ([[3, 2, 3, 2], [2, 1, 3, 0], [2, 2, 3, 2], [1, 1, 1, 1]], "L is not a right congruence"),
    ([[2, 2, 1, 1], [0, 0, 0, 0], [3, 2, 3, 2], [2, 3, 2, 2]], "H-classes of unequal size"),
    ([[2, 1, 1], [2, 1, 1], [2, 2, 0]], "J-order has a cycle"),
])
def test_green_rejects_each_failure_of_a_non_associative_table(table, what):
    assert not _associative(table)
    with pytest.raises(CrossCheckFailed, match=what):
        green(SemigroupClosure.from_table(table))


def test_green_takes_two_strong_component_passes_and_keeps_no_matrix(monkeypatch):
    # one over the right Cayley graph, one over the R-class quotient
    calls = []
    strong = engine._strong_components

    def counted(nbT):
        calls.append(nbT.shape)
        return strong(nbT)

    monkeypatch.setattr(engine, "_strong_components", counted)
    sg = closure(construct("B", 4).generators, include_identity=True)
    g = green(sg)
    assert calls == [(len(sg.generators), sg.size), (len(sg.generators), g.num_r)]
    green(sg)
    assert len(calls) == 2
    assert t1_chain(sg).tolist() == oracle_t1_chain(sg)
    assert l_leq(sg, id_of(sg, contraction(4, 1, 2)), sg.identity_id)
    assert not any(sparse.issparse(v) for v in vars(sg).values())


@st.composite
def _functional_graphs(draw):
    """An m x g array of ids, row x the ends of x's edges: g maps of m
    points, each random, the identity (self-loops) or a repeat of an
    earlier one (x g = x h)."""
    m, maps = draw(st.integers(1, 40)), []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["random", "identity", "repeat"]))
        if kind == "identity":
            maps.append(list(range(m)))
        elif kind == "repeat" and maps:
            maps.append(draw(st.sampled_from(maps)))
        else:
            maps.append(draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))
    return np.array(maps, dtype=np.intp).reshape(-1, m).T


@settings(max_examples=300, deadline=None)
@given(_functional_graphs())
@example(np.zeros((1, 0), dtype=np.intp))  # m = 1, g = 0
@example(np.zeros((5, 0), dtype=np.intp))
@example(np.zeros((1, 2), dtype=np.intp))  # one id, two self-loops
def test_strong_components_match_scipys_partition(nbr):
    least = engine._strong_components(np.ascontiguousarray(nbr.T, dtype=np.intp))
    assert least.tolist() == oracle_strong_components(nbr).tolist()


def test_closure_never_decodes_blocks():
    sg = closure(construct("J", 6).generators, include_identity=True)
    assert sg.size == 132
    assert not any(hasattr(d, "_blocks") for d in elements_of(sg))


# ---------------------------------------------------------------------------
# lookups in the sorted key array


def test_index_and_ids_of_on_every_element_of_pb4():
    sg = as_closure(construct("PB", 4))
    elems = elements_of(sg)
    assert [id_of(sg, d) for d in elems] == list(range(sg.size))
    assert sg.ids_of(sg.labels).tolist() == list(range(sg.size))
    outside = [d for d in construct("C", 4).sorted_elements()
               if not is_partial_brauer(d)]
    assert len(outside) == 4140 - 764
    for d in outside:
        with pytest.raises(KeyError):
            id_of(sg, d)
    mixed = label_array(elems[:-51:-1] + outside, 4)
    assert sg.ids_of(mixed).tolist() == (list(range(sg.size - 1, sg.size - 51, -1))
                                         + [-1] * len(outside))
    other = identity(3)
    with pytest.raises(KeyError):
        id_of(sg, other)
    assert sg.ids_of(labels(other)[None]).tolist() == [-1]


def test_ids_of_finds_no_row_that_is_not_a_restricted_growth_string():
    """[0, 0, 3, 1] shares its factorial-radix sort key with the identity's
    row [0, 1, 0, 1], so only the growth check keeps it out."""
    sg = as_closure(construct("B", 2))
    rows = np.array([[0, 0, 3, 1], [0, 1, 0, 1], [0, -1, 0, 1], [1, 0, 0, 1]], np.int8)
    assert sort_keys(rows[:1]) == sort_keys(rows[1:2])
    assert sg.ids_of(rows).tolist() == [-1, id_of(sg, identity(2)), -1, -1]
    rng = random.Random(4)
    labs = label_array([random_partition_diagram(6, rng) for _ in range(200)], 6)
    assert diagrams.restricted_growth(labs).all()
    assert not diagrams.restricted_growth(labs + 1).any()


@pytest.mark.parametrize("n", [10, 11, 64])
def test_keys_of_one_and_of_several_words(n):
    """2n = 20 points fit one uint64 key; 22 and 128 points take more."""
    assert diagrams._key_weights(n).shape[1] == (1 if n == 10 else
                                                2 if n == 11 else 12)
    sg = closure([rotation(n)])
    _assert_same_search(sg, oracle_closure([rotation(n)]))
    assert sg.ids_of(sg.labels).tolist() == list(range(n))
    assert sg.element_set() == ElementSet(n, sg.labels)
    assert id_of(sg, identity(n)) == sg.identity_id == n - 1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 5, 10, 11, 17, 64]), st.randoms(use_true_random=False))
def test_sort_keys_are_unique_and_ordered_as_the_rows(n, rng):
    ds = [random_partition_diagram(n, rng) for _ in range(20)]
    ds += [random_partial_brauer(n, rng) for _ in range(20)] + ds[:5]
    keys = sort_keys(label_array(ds, n))
    by_bytes = sorted(range(len(ds)), key=lambda i: ds[i].key)
    assert np.argsort(keys, kind="stable").tolist() == by_bytes
    for i, j in itertools.combinations(range(len(ds)), 2):
        assert (keys[i] == keys[j]) == (ds[i] == ds[j])


@pytest.mark.parametrize("family, n", [("B", 6), ("A", 8), ("J", 9), ("EA", 8),
                                       ("PB", 5), ("SYM", 7)])
def test_element_set_is_the_set_of_the_label_rows_on_census_closures(family, n):
    sg = as_closure(construct(family, n))
    assert sg.element_set() == ElementSet(n, sg.labels)


def test_green_counts_are_consistent():
    sg = _j(4)
    g = green(sg)
    assert np.unique(g.j).tolist() == list(range(g.num_j)) and len(g.j) == sg.size
    assert g.num_h >= g.num_j


def test_h_class_of_identity_is_unit_group():
    sg = _b(4)
    h = oracle_green(sg).h
    assert np.flatnonzero(h == h[sg.identity_id]).tolist() == units(sg).tolist()
    assert units(sg).tolist() == np.flatnonzero(diagrams.ranks(sg.labels) == 4).tolist()
    assert len(units(sg)) == 24


def test_units_requires_identity():
    sg = closure([contraction(3, 1, 2)])
    with pytest.raises(NotAMonoid):
        units(sg)


def test_singular_part_complements_units():
    sg = _b(3)
    assert sorted(set(units(sg)) | set(singular_part(sg))) == list(range(sg.size))
    assert len(singular_part(sg)) == sg.size - 6


def test_index_period():
    sg = _b(4)
    assert index_period(sg, id_of(sg, rotation(4))) == (1, 4)
    assert index_period(sg, id_of(sg, contraction(4, 1, 2))) == (1, 1)


def test_aperiodicity():
    assert is_aperiodic(_j(5))
    assert not is_aperiodic(_b(3))


def test_aperiodicity_cross_check_raises_on_disagreement(monkeypatch):
    sg = _j(3)
    forged = SimpleNamespace(num_h=sg.size - 1)  # claims a nontrivial H-class
    monkeypatch.setattr(engine, "green", lambda _: forged)
    with pytest.raises(CrossCheckFailed, match="disagree"):
        is_aperiodic(sg)


def test_period_one_matches_repeated_squaring_on_ledger_instances(
        derived_standard_ledger):
    led, _ = derived_standard_ledger
    assert len(led.instances) == 56
    for sg in led.instances.values():
        ids = np.arange(sg.size)
        want = oracle_period_one(sg, ids)
        assert np.array_equal(period_one(sg, ids), want)


@pytest.mark.parametrize("family, n", [("B", 6), ("A", 8), ("J", 9), ("EA", 8),
                                       ("PB", 5), ("SYM", 7)])
def test_period_one_matches_repeated_squaring_on_census_closures(family, n):
    sg = as_closure(construct(family, n))
    ids = np.arange(sg.size)
    assert np.array_equal(period_one(sg, ids), oracle_period_one(sg, ids))
    assert np.array_equal(sg.squares(), sg.multiply(ids, ids))


def test_is_aperiodic_takes_two_batched_products(monkeypatch):
    sg = closure(construct("B", 6).generators, include_identity=True)
    calls = []
    multiply = SemigroupClosure.multiply

    def counted(self, xs, ys):
        calls.append(np.size(xs))
        return multiply(self, xs, ys)

    monkeypatch.setattr(SemigroupClosure, "multiply", counted)
    assert not is_aperiodic(sg)
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# subsemigroups and idempotents


def test_generated_subsemigroup_matches_standalone_closure():
    sg = _j(4)
    seeds = [id_of(sg, adjacent_contraction(4, 1)), id_of(sg, adjacent_contraction(4, 2))]
    inner = generated_subsemigroup(sg, seeds)
    standalone = closure([adjacent_contraction(4, 1), adjacent_contraction(4, 2)])
    assert set(elements_of(sg, inner)) == standalone.element_set()


def test_idempotents_by_definition():
    sg = _b(3)
    assert list(sg.idempotent_ids()) == [
        i for i in range(sg.size) if int(sg.multiply(i, i)) == i]
    assert len(sg.idempotent_ids()) == 10


def test_idempotent_generated_on_annular_5():
    sg = as_closure(construct("A", 5))
    span = idempotent_generated(sg)
    assert len(sg.idempotent_ids()) == 116
    assert len(span) == 176
    assert set(singular_part(sg)) <= set(span)


# ---------------------------------------------------------------------------
# ideals, local monoids, quotients


def test_principal_ideal_is_rank_filter():
    sg = _b(4)
    e_id = id_of(sg, contraction(4, 1, 2))
    ideal = principal_ideal(sg, e_id)
    assert len(ideal) == 81
    assert ideal.tolist() == [i for i, d in enumerate(elements_of(sg)) if d.rank <= 2]


def test_local_monoid_at_end_cap_is_padded_smaller_monoid():
    sg = _b(4)
    e = adjacent_contraction(4, 3)
    lm = local_monoid(sg, id_of(sg, e))
    assert elements_of(lm, [lm.identity_id]) == [e]
    padded = {pad_embedding(d, 4) for d in construct("B", 2).elements}
    assert lm.element_set() == padded


def test_local_monoid_requires_idempotent():
    sg = _b(4)
    with pytest.raises(NotIdempotent):
        local_monoid(sg, id_of(sg, rotation(4)))


def test_rees_quotient_of_brauer_4():
    sg = _b(4)
    ideal = principal_ideal(sg, id_of(sg, contraction(4, 1, 2)))
    q = rees_quotient(sg, ideal)
    assert q.size == 24 + 1
    assert q.labels is None
    zero = q.size - 1
    for x in range(q.size):
        assert q.multiply(x, zero) == zero
        assert q.multiply(zero, x) == zero
    g = green(q)
    assert g.num_j == 2
    assert not is_aperiodic(q)


@pytest.mark.slow
def test_principal_ideal_reads_the_j_order_as_the_search_did(derived_standard_ledger):
    led, _ = derived_standard_ledger
    for ref, sg in led.instances.items():
        for e_id in sg.idempotent_ids():
            assert (principal_ideal(sg, e_id).tolist()
                    == oracle_principal_ideal(sg, e_id)), (ref, e_id)


def _b3_table(moved=None):
    """The product table of a fresh B:3 closure, with entry moved = (i, j)
    changed to the next id."""
    table = closure(construct("B", 3).generators, include_identity=True).product_table()
    if moved:
        table[moved] = (table[moved] + 1) % len(table)
    return table


@pytest.mark.parametrize("table", [
    _b3_table((4, 7)),  # first fails at the 5th triple
    _b3_table((5, 9)),
    np.random.default_rng(3).integers(0, 5, (5, 5)),
])
def test_spot_check_names_the_first_nonassociative_triple(table):
    sg = SemigroupClosure.from_table(table)
    want = oracle_associativity_failure(sg, engine._ASSOCIATIVITY_SAMPLES)
    assert want is not None
    with pytest.raises(CrossCheckFailed, match=re.escape(f"not associative at {want}")):
        engine._spot_check_associativity(sg)


def test_spot_check_passes_an_associative_table():
    sg = SemigroupClosure.from_table(_b3_table())
    assert oracle_associativity_failure(sg, engine._ASSOCIATIVITY_SAMPLES) is None
    engine._spot_check_associativity(sg)


def test_rees_quotient_rejects_non_ideals():
    sg = _b(4)
    with pytest.raises(NotAnIdeal):
        rees_quotient(sg, units(sg))
    with pytest.raises(NotAnIdeal):
        rees_quotient(sg, [])


@pytest.mark.parametrize("build, size, what", [
    (subsemigroup, 81, "subsemigroup of 81 elements"),
    (rees_quotient, 25, "Rees quotient of 25 elements"),  # 24 kept and a zero
])
def test_tables_over_the_cell_limit_are_refused_before_any_product(
        monkeypatch, build, size, what):
    sg = _b(4)
    sing = singular_part(sg)
    monkeypatch.setattr(engine, "TABLE_CELL_LIMIT", size * size)
    assert build(sg, sing).size == size

    def no_products(self, xs, ys):
        raise AssertionError("a product table was started")

    monkeypatch.setattr(engine, "TABLE_CELL_LIMIT", size * size - 1)
    monkeypatch.setattr(SemigroupClosure, "_products", no_products)
    with pytest.raises(BudgetExceeded, match=what):
        build(sg, sing)


def test_rees_quotient_of_whole_semigroup_is_trivial():
    sg = _j(3)
    q = rees_quotient(sg, list(range(sg.size)))
    assert q.size == 1
    assert is_aperiodic(q)


# ---------------------------------------------------------------------------
# inverse test, left order, chain witness


def test_is_inverse():
    assert is_inverse(_b(2))
    assert not is_inverse(_b(4))
    assert is_inverse(as_closure(construct("SYM", 3)))


def test_is_inverse_matches_the_commuting_idempotents_oracle(
        derived_standard_ledger):
    led, _ = derived_standard_ledger
    sgs = [sg for sg in led.instances.values() if sg.size <= 1_500]
    assert len(sgs) == 55
    verdicts = set()
    for sg in sgs + [_b(6)]:
        verdict = is_inverse(sg)
        assert verdict == oracle_is_inverse(sg)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_left_order_basics():
    sg = _j(3)
    g1 = id_of(sg, adjacent_contraction(3, 1))
    assert l_leq(sg, g1, g1)
    assert l_leq(sg, g1, sg.identity_id)
    assert not l_leq(sg, sg.identity_id, g1)


@pytest.mark.parametrize("a, b", [(999, 999), (-1, 0), (0, 15), (0, -1)])
def test_l_leq_rejects_ids_outside_the_closure(a, b):
    sg = closure(construct("B", 3).generators, include_identity=True)
    assert sg.size == 15
    with pytest.raises(BadIndex):
        l_leq(sg, a, b)


def test_l_leq_matches_the_scipy_search():
    sg = closure(construct("B", 3).generators, include_identity=True)
    pairs = [(sg, a, b) for a in range(sg.size) for b in range(sg.size)]
    rng = random.Random(0)
    for seed in range(20):
        sg = SemigroupClosure.from_table(transformation_table(seed))
        for _ in range(10):  # a pair, and a left multiple of its second id
            a, b = rng.randrange(sg.size), rng.randrange(sg.size)
            pairs += [(sg, a, b), (sg, int(sg.multiply(a, b)), b)]
    got = [l_leq(*pair) for pair in pairs]
    assert got == [oracle_l_leq(*pair) for pair in pairs]
    assert 0 < got.count(True) < len(got)


def test_t1_chain_negative_on_jones_3():
    assert t1_chain(_j(3)) is None


def test_t1_chain_positive_case():
    sg = t1sub_ea6()
    chain = t1_chain(sg)
    assert chain is not None
    for a, b in zip(chain, chain[1:]):
        assert l_leq(sg, a, b)


@pytest.mark.parametrize("name", ["J:3", "B:3", "B:4", "A:4", "A:5", "PB:3",
                                  "PA:3", "SYM:4", "t1sub(EA:6)", "pad(PA:2)"])
def test_t1_chain_matches_the_pairwise_sort(name, request):
    sg, _, _ = _instance(name, request)
    chain = t1_chain(sg)
    assert (None if chain is None else chain.tolist()) == oracle_t1_chain(sg)


# ---------------------------------------------------------------------------
# padding


def test_pad_embedding_blocks():
    img = pad_embedding(contraction(2, 1, 2), 4)
    assert img == diagram(4, [[1, 2], [-1, -2], [3, 4], [-3, -4]])
    with pytest.raises(BadDegree):
        pad_embedding(identity(2), 5)


def test_pad_embedding_is_multiplicative_and_injective():
    b2 = construct("B", 2).sorted_elements()
    images = [pad_embedding(d, 4) for d in b2]
    assert len(set(images)) == len(b2)
    for a in b2:
        for b in b2:
            assert pad_embedding(a, 4) * pad_embedding(b, 4) == pad_embedding(a * b, 4)


# ---------------------------------------------------------------------------
# essential depth


def test_essential_depth_values():
    assert essential_depth(_j(4)) == 0
    assert essential_depth(_b(2)) == 1
    assert essential_depth(_b(4)) == 2
    assert essential_depth(as_closure(construct("A", 4))) == 2


def test_semigroup_from_table():
    group = SemigroupClosure.from_table([[0, 1], [1, 0]])
    assert group.size == 2 and group.labels is None
    assert group.identity_id == 0
    assert group.idempotent_ids().tolist() == [0]
    assert index_period(group, 1) == (1, 2)
    assert not is_aperiodic(group)
    left_zero = SemigroupClosure.from_table([[0, 0], [1, 1]])
    assert left_zero.identity_id is None  # x y = x: no two-sided identity
    assert is_aperiodic(left_zero)


@pytest.mark.parametrize("table", [[[0, 1]], [[0]] * 2, [0, 1], [[0, -1], [1, 0]],
                                   [[0, 2], [1, 0]]],
                         ids=["wide", "tall", "flat", "negative", "too-large"])
def test_from_table_rejects_bad_tables(table):
    with pytest.raises(BadIndex):
        SemigroupClosure.from_table(table)


# ---------------------------------------------------------------------------
# table-backed closures: restriction by rows, a small generating set

# Parent of each kind of table-backed instance in the standard ledger, from
# its key: the family two degrees up for a pad, the family for an ideal or
# a quotient, and the chain submonoid for its kernel and idempotent span.
_PARENT_OF = [
    (r"pad\(([A-Z]+):(\d+)\)", lambda f, n: ("family", f"{f}:{int(n) + 2}")),
    (r"(?:sing|ideal|quot)\(([A-Z]+):(\d+)\W", lambda f, n: ("family", f"{f}:{n}")),
    (r"(?:kernel|egen)\((t1sub\(EA:6\))\)", lambda key: ("sub", key)),
]


def _table_backed(led):
    """(key, closure, parent closure) of every instance of led built by
    from_table, that is every one whose closure walks no words."""
    out = []
    for ref, sg in led.instances.items():
        if sg.parent is not None:
            continue
        for pattern, parent in _PARENT_OF:
            if (hit := re.match(pattern, ref.key)):
                parent_ref = InstanceRef(*parent(*hit.groups()))
                out.append((ref.key, sg, led.instances[parent_ref]))
                break
        else:
            raise AssertionError(f"no parent known for {ref.key}")
    return out


def _same_partition(a, b):
    a, b = a.tolist(), b.tolist()
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


def test_table_backed_analyses_match_all_generators(derived_standard_ledger):
    led, _ = derived_standard_ledger
    seen = _table_backed(led)
    assert len(seen) == 26
    for key, sg, _ in seen:
        new = green(sg)
        all_sg, old = oracle_green_all_generators(sg.product_table())
        for rel in "rljh":
            assert _same_partition(getattr(new, rel), getattr(old, rel)), (key, rel)
        assert ((new.num_r, new.num_l, new.num_j, new.num_h)
                == (old.num_r, old.num_l, old.num_j, old.num_h)), key
        assert essential_depth(sg) == essential_depth(all_sg), key
        assert is_aperiodic(sg) == is_aperiodic(all_sg), key
        assert is_inverse(sg) == is_inverse(all_sg), key
        if sg.identity_id is None:
            assert all_sg.identity_id is None, key
        else:
            assert np.array_equal(units(sg), units(all_sg)), key


def test_restricted_tables_match_the_parents_products(derived_standard_ledger):
    led, _ = derived_standard_ledger
    for key, sg, parent in _table_backed(led):
        if sg.labels is not None:
            ids = parent.ids_of(sg.labels)
            assert np.array_equal(ids[sg.product_table()],
                                  parent.multiply(ids[:, None], ids)), key
            continue
        fam, part = re.fullmatch(r"quot\((.+)/(.+)\)", key).groups()
        ideal_key = f"sing({fam})" if part == "sing" else f"ideal({fam},{part})"
        ideal = led.instances[InstanceRef("ideal", ideal_key)]
        inside = np.zeros(parent.size, dtype=bool)
        inside[parent.ids_of(ideal.labels)] = True
        keep = np.flatnonzero(~inside)
        k = len(keep)
        pos = np.full(parent.size, k)
        pos[keep] = np.arange(k)
        assert np.array_equal(sg.product_table()[:k, :k],
                              pos[parent.multiply(keep[:, None], keep)]), key


def test_restriction_in_blocks_of_one_row_matches_the_word_walk(monkeypatch):
    monkeypatch.setattr(engine, "_PAIR_BATCH", 7)
    sg = _b(5)
    ids = np.array(singular_part(sg))
    assert np.array_equal(ids[subsemigroup(sg, ids).product_table()],
                          sg.multiply(ids[:, None], ids))
    keep = np.array(units(sg))
    table = rees_quotient(sg, singular_part(sg)).product_table()
    assert np.array_equal(keep[table[:-1, :-1]], sg.multiply(keep[:, None], keep))


def _generated_by(sg, gens):
    """The ids reached from gens by a breadth-first search over the right
    Cayley graph."""
    reached = np.zeros(sg.size, dtype=bool)
    frontier = np.asarray(gens, dtype=np.int64)
    reached[frontier] = True
    while frontier.size:
        nxt = np.unique(sg.right_cayley[frontier])
        frontier = nxt[~reached[nxt]]
        reached[frontier] = True
    return reached


def test_generating_set_generates_and_is_irredundant_in_id_order(
        derived_standard_ledger):
    led, _ = derived_standard_ledger
    for key, sg, _ in _table_backed(led):
        gens = sg.generators.tolist()
        assert _generated_by(sg, gens).all(), key
        assert gens[0] == 0 and gens == sorted(gens), key
        # No pick is generated by the picks before it, and every id between
        # two picks is generated by the picks up to the first of them.
        for j, g in enumerate(gens):
            stop = gens[j + 1] if j + 1 < len(gens) else sg.size
            assert g not in generated_subsemigroup(sg, gens[:j]).tolist(), (key, g)
            assert set(range(g + 1, stop)) <= set(
                generated_subsemigroup(sg, gens[:j + 1]).tolist()), (key, g)


def test_the_ledger_ideals_have_small_generating_sets(derived_standard_ledger):
    led, _ = derived_standard_ledger
    # The ideals the standard ledger's ideal and local bounds rest on.
    for key in ["sing(A:6)", "ideal(PB:4,rk2)", "ideal(PA:4,rk2)", "sing(EA:6)"]:
        sg = led.instances[InstanceRef("ideal", key)]
        assert len(sg.generators) <= 32 < sg.size, key


def test_generating_set_of_a_cyclic_group():
    z5 = (np.arange(5)[:, None] + np.arange(5)) % 5
    assert SemigroupClosure.from_table(z5).generators.tolist() == [0, 1]


def test_the_arrays_a_closure_keeps_are_read_only():
    # a write would corrupt what is built from them later, such as the
    # Cayley columns a table-backed closure gathers at its generators
    sg = _b(3)
    ideal = subsemigroup(sg, singular_part(sg))
    g = green(sg)
    kept = {"closure generators": sg.generators, "table generators": ideal.generators,
            "squares": sg.squares(), "kernel_ids": kernel(sg).kernel_ids,
            **{f"GreenData.{field.name}": getattr(g, field.name)
               for field in dataclasses.fields(g)
               if isinstance(getattr(g, field.name), np.ndarray)}}
    assert len(kept) == 10
    for name, array in kept.items():
        assert array.size, name
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0


class _CountedTable(np.ndarray):
    """A product table that counts the cells its reads return."""

    cells = 0

    def __getitem__(self, key):
        out = np.ndarray.__getitem__(self, key)
        _CountedTable.cells += np.size(out)
        return out.view(np.ndarray) if isinstance(out, np.ndarray) else out


def test_generating_set_of_a_left_zero_band_is_everything():
    m = 1000
    sg = SemigroupClosure.from_table(
        np.repeat(np.arange(m, dtype=np.int32)[:, None], m, axis=1))
    sg._table = sg._table.view(_CountedTable)
    _CountedTable.cells = 0
    gens = engine._table_generators(sg)
    assert gens.tolist() == list(range(m))
    assert _CountedTable.cells <= m * len(gens)


def test_multiplying_a_local_monoid_finds_no_generating_set(monkeypatch):
    calls = []
    search = engine._table_generators
    monkeypatch.setattr(engine, "_table_generators",
                        lambda table: calls.append(1) or search(table))
    sg = _b(4)
    local = local_monoid(sg, id_of(sg, adjacent_contraction(4, 3)))
    local.multiply(np.arange(local.size)[:, None], np.arange(local.size))
    local.multiply(1, 2)
    local.squares()
    assert calls == []
    assert local.generators.size and len(calls) == 1


# ---------------------------------------------------------------------------
# extending a subsemigroup by new seeds

_EXTEND_CASES = ["B:3", "A:4", "PA:3", "C:3", "sing(EA:6)", "quot(PB:4/rk2)"]


@pytest.mark.parametrize("name", _EXTEND_CASES)
def test_extending_a_subsemigroup_matches_the_closure_of_all_seeds(
        name, request, monkeypatch):
    if "(" in name:
        led, _ = request.getfixturevalue("derived_standard_ledger")
        sg = next(sg for key, sg, _ in _table_backed(led) if key == name)
        rows = sg.product_table().tolist()
    else:
        sg = as_closure(construct(name.split(":")[0], int(name.split(":")[1])))
        rows = oracle_table(elements_of(sg))[0].tolist()
    products = []
    multiply = SemigroupClosure.multiply

    def counted(self, xs, ys):
        out = multiply(self, xs, ys)
        products.append(np.size(out))
        return out

    monkeypatch.setattr(SemigroupClosure, "multiply", counted)
    rng = random.Random(name)
    for _ in range(25):
        seeds = rng.sample(range(sg.size), rng.randint(1, 8))
        cut = rng.randint(0, len(seeds))
        a, b = seeds[:cut], seeds[cut:]
        old = _oracle_closure(rows, a)
        member = np.zeros(sg.size, dtype=bool)
        member[list(old)] = True
        products.clear()
        gens = engine.extend_subsemigroup(sg, member, a, b)
        want = sorted(_oracle_closure(rows, seeds))
        assert np.flatnonzero(member).tolist() == want, (name, a, b)
        assert gens.tolist() == sorted(set(a) | (set(b) - old)), (name, a, b)
        # the old members times the new seeds, and each joined id times
        # every seed, once: at most |result| x |gens| in all
        once = len(old) * (len(gens) - cut) + (len(want) - len(old)) * len(gens)
        assert sum(products) <= once <= len(want) * len(gens), (name, a, b)


_BAD_IDS = {
    "subsemigroup": subsemigroup,
    "rees_quotient": rees_quotient,
    "generated_subsemigroup": generated_subsemigroup,
    "extend_subsemigroup": lambda sg, ids: engine.extend_subsemigroup(
        sg, np.zeros(sg.size, dtype=bool), [], ids),
}


@pytest.mark.parametrize("shift", ["negative", "too-large", "non-integral"])
@pytest.mark.parametrize("function", sorted(_BAD_IDS))
def test_ids_outside_the_semigroup_are_rejected(function, shift):
    sg = _b(3)
    ids = singular_part(sg)  # an ideal, so valid for every function
    _BAD_IDS[function](sg, ids)
    _BAD_IDS[function](sg, ids.astype(np.float64))  # integral floats pass
    off = {"negative": -sg.size, "too-large": sg.size, "non-integral": 0.5}[shift]
    with pytest.raises(BadIndex):
        _BAD_IDS[function](sg, [i + off for i in ids])


@pytest.mark.parametrize("function", [local_monoid, index_period, principal_ideal])
def test_single_ids_outside_the_semigroup_are_rejected(function):
    sg = _b(3)
    function(sg, sg.identity_id)
    function(sg, np.float32(sg.identity_id))
    for bad in (-1, sg.size, sg.identity_id + 0.5):
        with pytest.raises(BadIndex):
            function(sg, bad)


def test_integral_and_empty_float_ids_read_as_integers():
    sg = _b(3)
    assert generated_subsemigroup(sg, np.union1d([], [])).size == 0  # a float array
    assert (generated_subsemigroup(sg, [1.0, 2.0]).tolist()
            == generated_subsemigroup(sg, [1, 2]).tolist())
    with pytest.raises(BadIndex):
        generated_subsemigroup(sg, [np.nan])


# ---------------------------------------------------------------------------
# claim-guarding checks raise typed errors, also under python -O

_GUARDED = {
    "as_closure": """
from brauerkit import FamilyInstance, as_closure, from_permutation, identity
swap = from_permutation(3, (2, 1, 3))
as_closure(FamilyInstance("SYM", 3, "generated", frozenset({identity(3)}), (swap,)))
""",
    "essential_depth": """
import dataclasses
import numpy as np
from brauerkit import as_closure, construct, essential_depth, green
sg = as_closure(construct("B", 2))
sg._green = dataclasses.replace(green(sg), j_order=np.array([[0, 1], [1, 0]]))
essential_depth(sg)
""",
    "associativity": """
from brauerkit import SemigroupClosure
from brauerkit.engine import _spot_check_associativity
_spot_check_associativity(SemigroupClosure.from_table([[1, 1], [0, 0]]))
""",
    "count": """
from brauerkit import cli, families
families.CLOSED_FORMS["B"] = lambda n: 0
cli.cmd_count(cli.build_parser().parse_args(["count", "--family", "B", "--n", "2"]))
""",
    "verify_sample": """
from brauerkit import Ledger, as_closure, construct
led = Ledger()
led.assert_base_facts(led.register("family", "B:2", as_closure(construct("B", 2))))
for check in led.checks.values():
    check.passed = not check.passed
led.verify_sample()
""",
}


@pytest.mark.parametrize("check", sorted(_GUARDED))
def test_claim_checks_raise_under_python_O(check):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("from brauerkit.errors import CrossCheckFailed\ntry:\n"
            + "".join(f"    {line}\n" for line in _GUARDED[check].strip().splitlines())
            + "except CrossCheckFailed:\n    print('CrossCheckFailed')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["CrossCheckFailed"]


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no claim may rest on one.
    package = Path(__file__).resolve().parents[1] / "src" / "brauerkit"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
