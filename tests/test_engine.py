"""Semigroup engine: closures, Green data, ideals, quotients, embeddings."""

import ast
import dataclasses
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    from_permutation,
    generated_subsemigroup,
    green,
    idempotent_generated,
    identity,
    index_period,
    is_aperiodic,
    is_inverse,
    kernel,
    local_monoid,
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
    from_labels,
    label_array,
    labels,
    pads,
    partial_brauer,
    random_partial_brauer,
    random_partition_diagram,
    sort_keys,
)
from brauerkit.derivations import t1sub_ea6
from brauerkit.engine import SemigroupClosure, _down_sets, period_one, t1_chain
from brauerkit.errors import (
    BadDegree,
    BadIndex,
    BrauerKitError,
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
    oracle_restricted_table,
    oracle_table,
    table_closure,
    TableProduct,
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


def _fresh(family, n):
    """A closure of the family's generating set that has built no table."""
    return closure(families.generators(family, n), include_identity=True)


_ROW_TABLE_CASES = {
    **{f"{family}:{n}": (lambda family=family, n=n: _fresh(family, n))
       for family, n in [("B", 3), ("B", 4), ("PB", 3), ("J", 5), ("PJ", 3),
                         ("A", 4), ("PA", 2), ("EA", 4), ("C", 2), ("SYM", 4)]},
    "t1sub(EA:6)": t1sub_ea6,
    "no identity": lambda: closure([adjacent_contraction(4, i) for i in (1, 2, 3)]),
    "identity as a generator": lambda: closure(
        [rotation(4), identity(4), contraction(4, 1, 2)]),
    "identity seeded and a generator": lambda: closure(
        [rotation(3), identity(3)], include_identity=True),
    "one element, the identity": lambda: closure([], include_identity=True),
    "one element, an idempotent": lambda: closure([contraction(2, 1, 2)]),
}


@pytest.mark.parametrize("name", sorted(_ROW_TABLE_CASES))
def test_the_row_built_table_matches_the_walk_and_the_diagram_products(
        name, pair_batch):
    sg = _ROW_TABLE_CASES[name]()
    if name == "no identity":
        assert sg.identity_id is None
    ids = np.arange(sg.size)
    walk = sg._products(ids, ids)  # no table yet: the depth-level walk
    table = sg.product_table()
    assert table.dtype == np.int32 and table.flags.c_contiguous
    assert np.array_equal(table, walk)
    assert np.array_equal(table, oracle_table(elements_of(sg))[0])
    for rows in (1, 3):  # levels split into blocks of a few rows
        pair_batch(rows * sg.size)
        again = _ROW_TABLE_CASES[name]()
        assert again._table is None
        assert np.array_equal(again.product_table(), table), rows


def test_the_row_built_table_holds_little_besides_itself(pair_batch):
    """Besides the table, building it holds one block of intp ids,
    _PAIR_BATCH bytes, and a few arrays over the ids: about 2 x _PAIR_BATCH
    bytes here, where the walk it replaced held about 10 x."""
    sg = _fresh("PB", 4)
    batch = 128 * sg.size
    pair_batch(batch)
    tracemalloc.start()
    try:
        table = sg.product_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 3 * batch


def test_closure_from_elements_round_trip():
    sg = _b(3)
    rebuilt = closure_from_elements(elements_of(sg))
    assert rebuilt.element_set() == sg.element_set()
    assert rebuilt.identity_id == id_of(rebuilt, identity(3))


def test_closure_from_elements_rejects_open_sets():
    with pytest.raises(NotASubsemigroup):
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
    with pytest.raises(NotASubsemigroup):
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
    keys, ids = sg._keys
    ordered = keys.tolist()  # ints, or big-endian bytes past one key word
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert np.array_equal(np.sort(ids), np.arange(sg.size))
    assert np.array_equal(sort_keys(sg.labels)[ids], keys)


# as_closure searches every instance from the generators it was built from.
_SEARCHES = ("B:5", "J:6", "A:6", "EA:6", "PB:4", "SYM:5", "PJ:4", "PA:3", "PA:4",
             "C:3")
_CENSUS = ("B:6", "A:8", "J:9", "EA:8", "PB:5", "SYM:7")  # A:8 runs 43 levels


@pytest.mark.parametrize("name", [
    *_SEARCHES, "t1sub(EA:6)",
    *(pytest.param(name, marks=pytest.mark.slow) for name in _CENSUS)])
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


def test_closure_numbers_a_repeated_miss_of_several_key_words_once():
    """22 points take two key words, and two products of depth-1 elements
    (cells of one level) are one new element, which takes one id."""
    n = 11
    gens = [from_permutation(n, (2, 1, *range(3, n + 1))),
            from_permutation(n, (1, 3, 2, *range(4, n + 1))), contraction(n, 1, 2)]
    assert diagrams._key_weights(n).shape[1] == 2
    sg = closure(gens, include_identity=True)
    assert sg.size == 15
    rows = sg.right_cayley[sg._depth == 1].ravel()
    found = rows[sg._depth[rows] == 2]
    assert len(np.unique(found)) < len(found)
    _assert_same_search(sg, oracle_closure(gens, include_identity=True))


def test_closure_plans_each_generator_once(monkeypatch):
    """A search works out each generator's product plan once, not once a
    level."""
    calls = []
    plan = diagrams._factor_plan

    def counted(b):
        calls.append(b)
        return plan(b)

    monkeypatch.setattr(diagrams, "_factor_plan", counted)
    for name in _CENSUS:
        family, n = name.split(":")
        gens = list(families.generators(family, int(n)))
        calls.clear()
        closure(gens, include_identity=True)
        assert len(calls) == len(gens), name


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
    with pytest.raises(NotASubsemigroup):
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
        return diagrams.from_label_array(pads(small.labels, int(n) + 2))
    t1 = led.instances[InstanceRef("sub", "t1sub(EA:6)")]
    if name.startswith("kernel("):
        return elements_of(t1, oracle_kernel(t1)[0])
    return elements_of(t1, oracle_span(t1, oracle_idempotent_ids(t1)))


def _assert_bfs_words(sg):
    """sg's ids are in the order a BFS from its generators finds them: a
    seed is its letter's generator (or the identity, letter -1), any other
    id is its parent's product by its letter's generator and is first found
    at that (parent, letter) cell of the right Cayley graph, and the cells
    ascend in row-major order, the seeds first."""
    g, ids = len(sg.generators), np.arange(sg.size)
    parent, letter = sg.parent.astype(np.int64), sg.letter.astype(np.int64)
    seed = parent < 0
    assert np.array_equal(np.where(letter[seed] < 0, sg.identity_id,
                                   sg.generators[letter[seed]]), ids[seed])
    assert np.array_equal(sg.right_cayley[parent[~seed], letter[~seed]], ids[~seed])
    codes = parent * g + letter
    assert (np.diff(codes) > 0).all()
    first = np.full(sg.size, sg.size * g)
    np.minimum.at(first, sg.right_cayley.ravel(), np.arange(sg.size * g))
    assert np.array_equal(first[~seed], codes[~seed])


def _assert_diagram_table(sg, elems):
    """sg holds the elements elems, its ids in BFS order, with their
    diagram-product table."""
    got = elements_of(sg)
    assert len(got) == len(elems) and set(got) == set(elems)
    _assert_bfs_words(sg)
    table, identity_id = oracle_table(got)
    assert sg.identity_id == identity_id
    assert np.array_equal(sg.product_table(), table)


def _rees_order(q):
    """Each id of the Rees quotient q's place in a table that lists the
    ids other than the zero in q's order and the zero last, as
    oracle_rees_table does: the zero is the one id whose row and column
    of the product table hold only itself."""
    table, ids = q.product_table(), np.arange(q.size)
    zero = np.flatnonzero((table == ids[:, None]).all(axis=1) & (table == ids).all(axis=0))
    assert len(zero) == 1
    order = ids - (ids > zero)
    order[zero] = q.size - 1
    return order


def _assert_rees_table(q, want):
    """q's product table is want, read through _rees_order."""
    order = _rees_order(q)
    assert np.array_equal(order[q.product_table()], want[np.ix_(order, order)])


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
    q = rees_quotient(sg, ideal)
    _assert_bfs_words(q)
    _assert_rees_table(q, oracle_rees_table(sg, ideal))


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


@pytest.mark.parametrize("family, n", [("B", 5), ("PA", 4)])
def test_word_walk_by_depth_matches_the_product_table(family, n):
    """multiply steps only the columns whose word still runs, sorting the
    columns by depth when ys is not; it must give the table's gather on
    ascending, unsorted, repeated, scalar and broadcast ids."""
    gens = construct(family, n).generators
    sg = closure(gens, include_identity=True)
    table = closure(gens, include_identity=True).product_table()
    m = sg.size
    rng = np.random.default_rng(m)
    xs, ids = rng.integers(0, m, m), np.arange(m)
    seeds = np.sort(rng.choice(m, 60, replace=False))
    cases = [(xs, ids), (ids, ids), (xs, rng.permutation(m)), (xs, rng.integers(0, m, m)),
             (xs[:180], np.repeat(seeds, 3)), (xs, int(xs[1])), (int(xs[2]), ids),
             (int(xs[3]), int(xs[4])), (xs[:70, None], seeds), (xs[:70, None], seeds[::-1]),
             (xs[:1], ids), (xs, ids[-1:]), (xs[:60].reshape(6, 10), seeds[:10]),
             (xs[:30, None], rng.integers(0, m, (30, 4)))]
    for x, y in cases:
        got = sg.multiply(x, y)
        assert np.shape(got) == np.shape(table[x, y])
        assert np.array_equal(got, table[x, y])
    assert sg._table is None


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
        sg = table_closure(transformation_table(seed))
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
    assert oracle_associativity_failure(
        TableProduct(table), engine._ASSOCIATIVITY_SAMPLES) is not None
    with pytest.raises(CrossCheckFailed, match="H-classes of unequal size"):
        green(table_closure(table))


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
        green(table_closure(table))


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
    assert _down_sets(sg, [sg.identity_id])[0, id_of(sg, contraction(4, 1, 2))]
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
    c4 = construct("C", 4)
    outside = diagrams.from_label_array(c4.elements.labels[~partial_brauer(c4.elements.labels)])
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


@pytest.mark.parametrize("a, b", [(999, 999), (-1, 0), (0, 15), (0, -1)])
def test_element_set_rejects_ids_outside_the_closure(a, b):
    sg = closure(construct("B", 3).generators, include_identity=True)
    assert sg.size == 15
    with pytest.raises(BadIndex):
        sg.element_set([a, b])


def test_element_set_refuses_a_mask_of_ids():
    sg = closure(construct("B", 3).generators, include_identity=True)
    mask = np.zeros(sg.size, dtype=bool)
    mask[[5, 7]] = True
    with pytest.raises(BadIndex, match="booleans"):
        sg.element_set(mask)
    assert sg.element_set(np.flatnonzero(mask)) == set(elements_of(sg, [5, 7]))


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


def _period_one_calls(monkeypatch):
    """The number of ids of each engine.period_one call, as a list."""
    calls = []
    period = engine.period_one

    def counted(sg, ids):
        calls.append(len(ids))
        return period(sg, ids)

    monkeypatch.setattr(engine, "period_one", counted)
    return calls


def test_aperiodicity_cross_check_raises_on_disagreement(monkeypatch):
    """The forged Green data of the aperiodic J:3 put its first idempotent
    f and one other element x in a group H-class of order 2, so the
    H-classes say "not aperiodic".  x is the period witness; its period
    is 1, so every id's period is tested, and they disagree."""
    sg = _j(3)
    real = green(sg)
    f = int(sg.idempotent_ids()[0])
    x = (f + 1) % sg.size
    h, order = real.h.copy(), real.j_subgroup_order.copy()
    h[x], order[real.j[f]] = h[f], 2
    forged = dataclasses.replace(real, num_h=sg.size - 1, h=h, j_subgroup_order=order)
    monkeypatch.setattr(engine, "green", lambda _: forged)
    assert engine._period_witness(sg, forged) == x
    calls = _period_one_calls(monkeypatch)
    with pytest.raises(CrossCheckFailed, match="disagree"):
        is_aperiodic(sg)
    assert calls == [1, sg.size]


def test_aperiodicity_cross_check_raises_when_h_classes_hide_a_group(monkeypatch):
    """Forged Green data that make every H-class of B:3 a singleton say
    "aperiodic", which every id's periods deny."""
    sg = _b(3)
    forged = dataclasses.replace(green(sg), num_h=sg.size)
    monkeypatch.setattr(engine, "green", lambda _: forged)
    with pytest.raises(CrossCheckFailed, match="disagree"):
        is_aperiodic(sg)


@pytest.mark.parametrize("name", ["B:3", "B:6", "A:5", "PB:4", "SYM:4"])
def test_a_non_aperiodic_closure_tests_one_period_witness(name, monkeypatch):
    """The witness lies in a group H-class of order over 1 and is not its
    idempotent, and is_aperiodic tests its period alone."""
    family, n = name.split(":")
    sg = as_closure(construct(family, int(n)))
    g = green(sg)
    x = engine._period_witness(sg, g)
    group = np.flatnonzero(g.h == g.h[x])
    assert g.j_subgroup_order[g.j[x]] == len(group) > 1
    assert int(sg.multiply(x, x)) != x and index_period(sg, x)[1] > 1
    calls = _period_one_calls(monkeypatch)
    assert not is_aperiodic(sg)
    assert calls == [1]


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
    assert ideal.tolist() == np.flatnonzero(diagrams.ranks(sg.labels) <= 2).tolist()


def test_local_monoid_at_end_cap_is_padded_smaller_monoid():
    sg = _b(4)
    e = adjacent_contraction(4, 3)
    lm = local_monoid(sg, id_of(sg, e))
    assert elements_of(lm, [lm.identity_id]) == [e]
    padded = ElementSet(4, pads(construct("B", 2).elements.labels, 4))
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
    [zero] = np.flatnonzero(_rees_order(q) == q.size - 1)  # not the last id
    assert zero < q.size - 1
    for x in range(q.size):
        assert q.multiply(x, zero) == zero
        assert q.multiply(zero, x) == zero
    g = green(q)
    assert g.num_j == 2
    assert not is_aperiodic(q)


def test_a_quotients_ids_stand_for_no_diagram():
    sg = _b(3)
    q = rees_quotient(sg, principal_ideal(sg, sg.idempotent_ids()[0]))
    for read in (q.element_set, lambda: q.element_set([0]), lambda: q.ids_of(sg.labels)):
        with pytest.raises(BrauerKitError, match="quotient's ids stand for no diagram"):
            read()


def _traced_peak(build):
    """build()'s result, and the most memory tracemalloc saw it hold."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_restriction_and_quotient_take_k_by_g_products_and_no_k_by_k_array(monkeypatch):
    """sing(A:6) (619 elements) and its quotient: the restriction takes
    k x |G| of its parent's products for each Cayley array, and its greedy
    pass at most k x |G| more; it never holds a quarter of a k x k array of
    int32 ids.  The quotient takes no row of products."""
    sg = as_closure(construct("A", 6))
    ids = principal_ideal(sg, id_of(sg, adjacent_contraction(6, 5)))
    sg.multiply(ids, ids)  # the walk data sg keeps, built first
    cells = {"multiply": 0, "_products": 0}
    for name in cells:
        def counted(self, xs, ys, name=name, method=getattr(SemigroupClosure, name)):
            out = method(self, xs, ys)
            cells[name] += np.size(out) if self is sg else 0
            return out

        monkeypatch.setattr(SemigroupClosure, name, counted)
    ideal, peak = _traced_peak(lambda: subsemigroup(sg, ids))
    k, g = ideal.size, len(ideal.generators)
    assert k == len(ids) == 619 and g < 20
    assert cells["_products"] == 2 * k * g and cells["multiply"] <= k * g
    assert peak < k * k
    cells["_products"] = 0
    q = rees_quotient(sg, ids)
    assert cells["_products"] == 0
    assert q._table is None and ideal._table is None


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
    sg = TableProduct(table)
    want = oracle_associativity_failure(sg, engine._ASSOCIATIVITY_SAMPLES)
    assert want is not None
    with pytest.raises(CrossCheckFailed, match=re.escape(f"not associative at {want}")):
        engine._spot_check_associativity(sg)


def test_spot_check_passes_an_associative_table():
    sg = TableProduct(_b3_table())
    assert oracle_associativity_failure(sg, engine._ASSOCIATIVITY_SAMPLES) is None
    engine._spot_check_associativity(sg)


def test_rees_quotient_rejects_non_ideals():
    sg = _b(4)
    with pytest.raises(NotAnIdeal):
        rees_quotient(sg, units(sg))
    with pytest.raises(NotAnIdeal):
        rees_quotient(sg, [])


def _star_partitions(sg, ids):
    """The R and L partitions of the ids of sg, a regular *-semigroup closed
    under stars, as the classes of x x* and of x* x (Nordahl & Scheiblich,
    Regular *-semigroups, 1978): one stars, one ids_of and two multiply
    calls, no strong components."""
    star = sg.ids_of(diagrams.stars(sg.labels[ids]))
    assert (star >= 0).all()
    return sg.multiply(ids, star), sg.multiply(star, ids)


def test_a_restriction_past_the_old_table_limit_is_searched():
    """A:8's singular ideal, 9,988 elements (a 99.8M-cell table, past
    TABLE_CELL_LIMIT), is searched over A:8's ids; its R and L are the
    star partitions of A:8's products."""
    sg = as_closure(construct("A", 8))
    sing = singular_part(sg)
    ideal = subsemigroup(sg, sing)
    assert ideal.size == len(sing) == 9988 and ideal.size ** 2 > engine.TABLE_CELL_LIMIT
    assert ideal._table is None and len(ideal.generators) < 40
    assert ideal.element_set() == sg.element_set(sing)
    _assert_bfs_words(ideal)
    g = green(ideal)
    r, l = _star_partitions(sg, sg.ids_of(ideal.labels))
    assert _same_partition(g.r, r) and _same_partition(g.l, l)


def test_a_quotient_past_the_old_table_limit_keeps_the_parents_classes():
    """B:6 over its minimal ideal (the 225 elements of rank 0) keeps 10,170
    elements and a zero, past the old table limit; outside the ideal its
    R and L are the parent's, which are the star partitions."""
    sg = as_closure(construct("B", 6))
    ideal = np.flatnonzero(diagrams.ranks(sg.labels) == 0)
    sg.multiply(ideal, ideal)  # the walk data sg keeps, built first
    q, peak = _traced_peak(lambda: rees_quotient(sg, ideal))
    assert q.size == sg.size - 225 + 1 and q.size ** 2 > engine.TABLE_CELL_LIMIT
    assert peak < q.size * 400  # a k x k table holds 4 k^2 bytes
    assert q.product_table() is None
    _assert_bfs_words(q)
    keep = np.setdiff1d(np.arange(sg.size), ideal)
    ids = np.arange(q.size)[:, None]
    [zero] = np.flatnonzero(((q.right_cayley == ids) & (q.left_cayley == ids)).all(axis=1))
    kept = np.flatnonzero(np.arange(q.size) != zero)  # keep, in order
    g = green(q)
    r, l = _star_partitions(sg, keep)
    assert _same_partition(g.r[kept], r) and _same_partition(g.l[kept], l)
    assert (g.r == g.r[zero]).sum() == (g.l == g.l[zero]).sum() == 1


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


def _l_leq(sg, a, b):
    """a <=_L b, read off b's row of _down_sets."""
    return bool(_down_sets(sg, [b])[0, a])


def test_left_order_basics():
    sg = _j(3)
    g1 = id_of(sg, adjacent_contraction(3, 1))
    assert _l_leq(sg, g1, g1)
    assert _l_leq(sg, g1, sg.identity_id)
    assert not _l_leq(sg, sg.identity_id, g1)


def test_l_leq_matches_the_scipy_search():
    sg = closure(construct("B", 3).generators, include_identity=True)
    pairs = [(sg, a, b) for a in range(sg.size) for b in range(sg.size)]
    rng = random.Random(0)
    for seed in range(20):
        sg = table_closure(transformation_table(seed))
        for _ in range(10):  # a pair, and a left multiple of its second id
            a, b = rng.randrange(sg.size), rng.randrange(sg.size)
            pairs += [(sg, a, b), (sg, int(sg.multiply(a, b)), b)]
    got = [_l_leq(*pair) for pair in pairs]
    assert got == [oracle_l_leq(*pair) for pair in pairs]
    assert 0 < got.count(True) < len(got)


def test_t1_chain_negative_on_jones_3():
    assert t1_chain(_j(3)) is None


def test_t1_chain_positive_case():
    sg = t1sub_ea6()
    chain = t1_chain(sg)
    assert chain is not None
    for a, b in zip(chain, chain[1:]):
        assert _l_leq(sg, a, b)


@pytest.mark.parametrize("name", ["J:3", "B:3", "B:4", "A:4", "A:5", "PB:3",
                                  "PA:3", "SYM:4", "t1sub(EA:6)", "pad(PA:2)"])
def test_t1_chain_matches_the_pairwise_sort(name, request):
    sg, _, _ = _instance(name, request)
    chain = t1_chain(sg)
    assert (None if chain is None else chain.tolist()) == oracle_t1_chain(sg)


# ---------------------------------------------------------------------------
# padding


def test_pad_embedding_blocks():
    img = pads(labels(contraction(2, 1, 2))[None], 4)
    assert from_labels(img[0]) == diagram(4, [[1, 2], [-1, -2], [3, 4], [-3, -4]])
    with pytest.raises(BadDegree):
        pads(labels(identity(2))[None], 5)


def test_pad_embedding_is_multiplicative_and_injective():
    b2 = label_array(construct("B", 2).sorted_elements(), 2)
    k = len(b2)
    images = pads(b2, 4)
    assert len(ElementSet(4, images)) == k
    products = diagrams.multiply_labels(b2, b2).reshape(k * k, 4)
    assert np.array_equal(diagrams.multiply_labels(images, images).reshape(k * k, 8),
                          pads(products, 4))


# ---------------------------------------------------------------------------
# essential depth


def test_essential_depth_values():
    assert essential_depth(_j(4)) == 0
    assert essential_depth(_b(2)) == 1
    assert essential_depth(_b(4)) == 2
    assert essential_depth(as_closure(construct("A", 4))) == 2


def test_semigroup_from_table():
    group = table_closure([[0, 1], [1, 0]])
    assert group.size == 2 and group.labels is None
    assert group.identity_id == 0
    assert group.idempotent_ids().tolist() == [0]
    assert index_period(group, 1) == (1, 2)
    assert not is_aperiodic(group)
    left_zero = table_closure([[0, 0], [1, 1]])
    assert left_zero.identity_id is None  # x y = x: no two-sided identity
    assert is_aperiodic(left_zero)


@pytest.mark.parametrize("table", [[[0, 1]], [[0]] * 2, [0, 1], [[0, -1], [1, 0]],
                                   [[0, 2], [1, 0]]],
                         ids=["wide", "tall", "flat", "negative", "too-large"])
def test_from_table_rejects_bad_tables(table):
    with pytest.raises(BadIndex):
        table_closure(table)


# ---------------------------------------------------------------------------
# restrictions and quotients: searched over the parent's ids, a small
# generating set

# Parent of each kind of derived instance in the standard ledger, from
# its key: the family two degrees up for a pad, the family for an ideal or
# a quotient, and the chain submonoid for its kernel and idempotent span.
_PARENT_OF = [
    (r"pad\(([A-Z]+):(\d+)\)", lambda f, n: ("family", f"{f}:{int(n) + 2}")),
    (r"(?:sing|ideal|quot)\(([A-Z]+):(\d+)\W", lambda f, n: ("family", f"{f}:{n}")),
    (r"(?:kernel|egen)\((t1sub\(EA:6\))\)", lambda key: ("sub", key)),
]


def _derived(led):
    """(key, closure, parent closure) of every instance of led that
    restricts another (subsemigroup) or is a Rees quotient of one."""
    out = []
    for ref, sg in led.instances.items():
        if ref.kind in ("family", "sub"):
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
    seen = _derived(led)
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


def _parent_ids(led, key, sg, parent):
    """The parent's ids of sg's elements, through sg's labels; for a
    quotient, the parent's ids outside its ideal, which the quotient keeps
    in their order, with the zero read through _rees_order."""
    if sg.labels is not None:
        return parent.ids_of(sg.labels)
    fam, part = re.fullmatch(r"quot\((.+)/(.+)\)", key).groups()
    ideal_key = f"sing({fam})" if part == "sing" else f"ideal({fam},{part})"
    ideal = led.instances[InstanceRef("ideal", ideal_key)]
    return np.setdiff1d(np.arange(parent.size), parent.ids_of(ideal.labels))


def test_restricted_tables_match_the_parents_products(derived_standard_ledger):
    """Every restriction and quotient of the standard ledger against the
    k x k restriction of its parent's products (oracle_restricted_table)."""
    led, _ = derived_standard_ledger
    derived = _derived(led)
    assert len(derived) == 26
    for key, sg, parent in derived:
        ids = _parent_ids(led, key, sg, parent)
        old = oracle_restricted_table(parent, ids)
        if sg.labels is not None:
            assert np.array_equal(sg.product_table(), old), key
            continue
        want = np.full((len(ids) + 1,) * 2, len(ids))
        want[:-1, :-1] = np.where(old < 0, len(ids), old)
        _assert_rees_table(sg, want)


@pytest.mark.slow
def test_ledger_restrictions_and_quotients_match_diagram_products(derived_standard_ledger):
    """Every restriction and quotient of the standard ledger, cell by cell,
    against one diagram product per cell: a restriction's elements through
    its labels, a quotient's kept ids through its parent's."""
    led, _ = derived_standard_ledger
    for key, sg, parent in _derived(led):
        if sg.labels is not None:
            table, identity_id = oracle_table(elements_of(sg))
            assert np.array_equal(sg.product_table(), table), key
            assert sg.identity_id == identity_id, key
            continue
        keep = _parent_ids(led, key, sg, parent)
        _assert_rees_table(sg, oracle_rees_table(
            parent, np.setdiff1d(np.arange(parent.size), keep)))


def test_restriction_in_blocks_of_one_row_matches_the_word_walk(pair_batch):
    pair_batch(7)
    sg = _b(5)
    ideal = subsemigroup(sg, singular_part(sg))
    ids = sg.ids_of(ideal.labels)
    assert np.array_equal(ids[ideal.product_table()], sg.multiply(ids[:, None], ids))
    keep = np.array(units(sg))
    q = rees_quotient(sg, singular_part(sg))
    order = _rees_order(q)
    table = np.empty((q.size, q.size), dtype=np.int64)
    table[np.ix_(order, order)] = order[q.product_table()]
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
    """A restriction's generators are its BFS seeds, ids 0..g-1 in the
    order they were picked: none is generated by the ones before it.  In
    the parent, over the restriction's ids in ascending order, the picks
    come in that order, the first id first, and every id between two picks
    is generated by the picks up to the first of them.  A quotient's
    generators are its parent's, outside the ideal or the zero once."""
    led, _ = derived_standard_ledger
    for key, sg, parent in _derived(led):
        gens = sg.generators.tolist()
        assert _generated_by(sg, gens).all(), key
        assert len(set(gens)) == len(gens), key
        if sg.labels is None:
            assert len(gens) <= len(parent.generators), key
            continue
        assert gens == list(range(len(gens))), key
        for j, g in enumerate(gens):
            assert g not in generated_subsemigroup(sg, gens[:j]).tolist(), (key, g)
        ids = np.sort(parent.ids_of(sg.labels))
        rebuilt = subsemigroup(parent, ids)
        picks = parent.ids_of(rebuilt.labels[:len(rebuilt.generators)])
        at = np.searchsorted(ids, picks)
        assert at[0] == 0 and (np.diff(at) > 0).all(), key
        for j, g in enumerate(picks.tolist()):
            stop = at[j + 1] if j + 1 < len(at) else len(ids)
            assert g not in generated_subsemigroup(parent, picks[:j]).tolist(), (key, g)
            assert set(ids[at[j] + 1:stop].tolist()) <= set(
                generated_subsemigroup(parent, picks[:j + 1]).tolist()), (key, g)


def test_the_ledger_ideals_have_small_generating_sets(derived_standard_ledger):
    led, _ = derived_standard_ledger
    # The ideals the standard ledger's ideal and local bounds rest on.
    for key in ["sing(A:6)", "ideal(PB:4,rk2)", "ideal(PA:4,rk2)", "sing(EA:6)"]:
        sg = led.instances[InstanceRef("ideal", key)]
        assert len(sg.generators) <= 32 < sg.size, key


def test_generating_set_of_a_cyclic_group():
    z5 = (np.arange(5)[:, None] + np.arange(5)) % 5
    assert table_closure(z5).generators.tolist() == [0, 1]


def test_the_arrays_a_closure_keeps_are_read_only():
    # a write would corrupt what is built from them later, such as the
    # words a product walks along the generators' Cayley columns
    sg = _b(3)
    ideal = subsemigroup(sg, singular_part(sg))
    g = green(sg)
    kept = {"closure generators": sg.generators, "restriction generators": ideal.generators,
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
    table = np.repeat(np.arange(m, dtype=np.int32)[:, None], m, axis=1)
    sg = TableProduct(table.view(_CountedTable))
    _CountedTable.cells = 0
    gens = engine._table_generators(sg, np.zeros(m, dtype=bool), [], range(m))
    assert gens.tolist() == list(range(m))
    assert _CountedTable.cells <= m * len(gens)
    assert table_closure(table).generators.tolist() == list(range(m))


def test_multiplying_a_local_monoid_finds_no_generating_set(monkeypatch):
    """A local monoid's generating set is picked once, when it is searched,
    and multiplying it picks none again."""
    calls = []
    search = engine._table_generators
    monkeypatch.setattr(engine, "_table_generators",
                        lambda *args: calls.append(1) or search(*args))
    sg = _b(4)
    local = local_monoid(sg, id_of(sg, adjacent_contraction(4, 3)))
    assert len(calls) == 1
    local.multiply(np.arange(local.size)[:, None], np.arange(local.size))
    local.multiply(1, 2)
    local.squares()
    assert local.generators.size and len(calls) == 1


# ---------------------------------------------------------------------------
# extending a subsemigroup by new seeds

_EXTEND_CASES = ["B:3", "A:4", "PA:3", "C:3", "B:5", "sing(EA:6)", "quot(PB:4/rk2)"]


def _extend_case(name, path, request):
    """A closure on one product path, and the oracle closure of a list of
    its ids: a fresh family closure walks words ("walk") or builds its
    table first ("table"); a ledger restriction or quotient builds its
    table, which the oracle reads."""
    if "(" in name:
        led, _ = request.getfixturevalue("derived_standard_ledger")
        sg = next(sg for key, sg, _ in _derived(led) if key == name)
        rows = sg.product_table().tolist()
        return sg, lambda seeds: _oracle_closure(rows, seeds)
    family, n = name.split(":")
    sg = _fresh(family, int(n))
    if path == "table":
        sg.product_table()
    if sg.size > 300:  # too many cells to take one diagram product each
        return sg, lambda seeds: set(oracle_span(sg, seeds)) if seeds else set()
    rows = oracle_table(elements_of(sg))[0].tolist()
    return sg, lambda seeds: _oracle_closure(rows, seeds)


@pytest.mark.parametrize("name, path", [
    pytest.param(name, path, id=name if path == "table" else f"{name} walk")
    for name in _EXTEND_CASES
    for path in (["table"] if "(" in name else ["walk", "table"])])
def test_extending_a_subsemigroup_matches_the_closure_of_all_seeds(
        name, path, request, monkeypatch):
    sg, span = _extend_case(name, path, request)
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
        old = span(a)
        member = np.zeros(sg.size, dtype=bool)
        member[list(old)] = True
        products.clear()
        gens = engine.extend_subsemigroup(sg, member, a, b)
        want = sorted(span(seeds))
        assert np.flatnonzero(member).tolist() == want, (name, a, b)
        assert gens.tolist() == sorted(set(a) | (set(b) - old)), (name, a, b)
        # the old members times the new seeds, and each joined id times
        # every seed, once: at most |result| x |gens| in all
        once = len(old) * (len(gens) - cut) + (len(want) - len(old)) * len(gens)
        assert sum(products) <= once <= len(want) * len(gens), (name, a, b)
    assert (sg._table is None) == (path == "walk")


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


def test_boolean_ids_are_rejected_not_read_as_ids_0_and_1():
    # a mask passed where ids are meant once read as ids 0 and 1:
    # generated_subsemigroup gave the span of [0, 1], principal_ideal
    # the ideal of id 1
    sg = _b(3)
    mask = np.zeros(sg.size, dtype=bool)
    mask[[5, 7]] = True
    for function in (generated_subsemigroup, subsemigroup):
        with pytest.raises(BadIndex, match="booleans"):
            function(sg, mask)
    for one in (np.True_, True):
        with pytest.raises(BadIndex, match="booleans"):
            principal_ideal(sg, one)
    assert generated_subsemigroup(sg, np.flatnonzero(mask)).tolist() == oracle_span(sg, [5, 7])


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
from types import SimpleNamespace
import numpy as np
from brauerkit.engine import _spot_check_associativity
table = np.array([[1, 1], [0, 0]])
_spot_check_associativity(SimpleNamespace(size=2, multiply=lambda xs, ys: table[xs, ys]))
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
