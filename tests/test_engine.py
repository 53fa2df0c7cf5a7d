"""Semigroup engine: closures, Green data, ideals, quotients, embeddings."""

import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brauerkit import (
    InstanceRef,
    adjacent_contraction,
    as_closure,
    closure,
    closure_from_elements,
    construct,
    contraction,
    diagram,
    double_contraction,
    essential_depth,
    generated_subsemigroup,
    green,
    idempotent_generated,
    idempotents,
    identity,
    index_period,
    is_aperiodic,
    is_inverse,
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
from brauerkit import engine
from brauerkit.engine import SemigroupClosure, h_class_of, l_leq, period_one, t1_chain
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
from oracles import (
    count_products,
    oracle_closure,
    oracle_green,
    oracle_greedy_closure,
    oracle_idempotent_ids,
    oracle_is_inverse,
    oracle_kernel,
    oracle_left_cayley,
    oracle_local_elements,
    oracle_period_one,
    oracle_rees_table,
    oracle_span,
    oracle_table,
    t1sub_ea6,
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


def test_closure_deduplicates_generators():
    e = contraction(3, 1, 2)
    sg = closure([e, e, e])
    assert len(sg.multipliers) == 1


def test_closure_budget():
    with pytest.raises(BudgetExceeded):
        construct("B", 4, budget=10)


def test_closure_word_reconstruction():
    sg = closure([rotation(3), contraction(3, 1, 2)], include_identity=True)
    for i in range(sg.size):
        p, let = int(sg.parent[i]), int(sg.letter[i])
        if p < 0:
            expected = identity(3) if let < 0 else sg.multipliers[let]
        else:
            expected = sg.elements[p] * sg.multipliers[let]
        assert sg.elements[i] == expected


def test_product_table_and_left_cayley_agree_with_diagrams():
    sg = _b(3)
    table = sg.product_table()
    rng = random.Random(3)
    for _ in range(200):
        i, j = rng.randrange(sg.size), rng.randrange(sg.size)
        assert table[i, j] == sg.index[sg.elements[i] * sg.elements[j]]
    assert np.array_equal(sg.left_cayley, oracle_left_cayley(sg))


def test_closure_from_elements_round_trip():
    sg = _b(3)
    rebuilt = closure_from_elements(sg.elements)
    assert rebuilt.element_set() == sg.element_set()
    assert rebuilt.identity_id == rebuilt.index[identity(3)]


def test_closure_from_elements_rejects_open_sets():
    with pytest.raises(ValueError):
        closure_from_elements([rotation(4)])  # missing the higher powers


def test_as_closure_of_pa5_closes_its_generating_set():
    inst = construct("PA", 5)
    sg = as_closure(inst)
    assert sg.size == 5046 and sg.element_set() == inst.elements
    assert len(sg.multipliers) < sg.size


@pytest.mark.parametrize("name", ["PA:2", "PA:3", "PA:4", "PJ:4", "C:3",
                                  "B:3 shuffled"])
def test_closure_from_elements_matches_diagram_table(name):
    family, n = name.split()[0].split(":")
    elems = construct(family, int(n)).sorted_elements()
    if name.endswith("shuffled"):
        random.Random(5).shuffle(elems)
    sg = closure_from_elements(elems)
    assert sg.element_set() == set(elems)
    _assert_diagram_table(sg, sg.elements)


def test_closure_takes_one_product_per_element_and_generator(monkeypatch):
    gens = construct("B", 6).generators
    count = count_products(monkeypatch)
    sg = closure(gens, include_identity=True)
    assert (sg.size, len(gens)) == (10395, 3)
    assert count[0] == 10395 * 3


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


def test_closure_from_elements_takes_one_product_per_element_and_generator(
        monkeypatch):
    pa4 = construct("PA", 4).sorted_elements()
    lattice = _partial_identity_semilattice(6)
    count = count_products(monkeypatch)
    closure_from_elements(pa4)
    assert count[0] <= 589 * 12
    count[0] = 0
    closure_from_elements(lattice)
    assert count[0] <= 64 ** 2


def test_closure_from_elements_stops_before_the_cell_limit(monkeypatch):
    pa4 = construct("PA", 4).sorted_elements()
    g = len(closure_from_elements(pa4).multipliers)
    monkeypatch.setattr(engine, "TABLE_CELL_LIMIT", len(pa4) * g)
    assert len(closure_from_elements(pa4).multipliers) == g
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
    assert sg.elements == want["elements"]
    assert sg.parent.tolist() == want["parent"]
    assert sg.letter.tolist() == want["letter"]
    assert sg.right_cayley.tolist() == want["right_cayley"]
    assert sg.generators == want["generators"]
    assert sg.identity_id == want["identity_id"]
    assert sg.index == {d: i for i, d in enumerate(want["elements"])}


# as_closure searches every instance from the generators it was built from.
_SEARCHES = ("B:5", "J:6", "A:6", "EA:6", "PB:4", "SYM:5", "PJ:4", "PA:3", "PA:4",
             "C:3")


@pytest.mark.parametrize("name", [*_SEARCHES, "t1sub(EA:6)"])
def test_closure_matches_the_scalar_search(name):
    if name == "t1sub(EA:6)":
        gens = t1sub_ea6().multipliers
        _assert_same_search(closure(gens, include_identity=True),
                            oracle_closure(gens, include_identity=True))
        return
    family, n = name.split(":")
    gens = list(construct(family, int(n)).generators)
    sg = as_closure(construct(family, int(n)))
    assert sg.multipliers == gens
    _assert_same_search(sg, oracle_closure(gens, include_identity=True))


@pytest.mark.parametrize("name", ["B:3", "PJ:4"])
def test_greedy_search_matches_the_scalar_search_on_shuffled_sets(name):
    family, n = name.split(":")
    elems = construct(family, int(n)).sorted_elements()
    random.Random(11).shuffle(elems)
    _assert_same_search(closure_from_elements(elems),
                        oracle_greedy_closure(elems))


def _open_sets():
    b4 = construct("B", 4).sorted_elements()
    return {"rotation(4)": [rotation(4)],
            "B:6 generators": list(construct("B", 6).generators),
            "B:4 less one element": b4[:40] + b4[41:],
            "B:4 less its identity": [d for d in b4 if d != identity(4)][::-1]}


@pytest.mark.parametrize("name", sorted(_open_sets()))
def test_closure_from_elements_fails_where_the_scalar_search_fails(name):
    elems = _open_sets()[name]
    with pytest.raises(ValueError) as want:
        oracle_greedy_closure(elems)
    with pytest.raises(ValueError) as got:
        closure_from_elements(elems)
    assert str(got.value) == str(want.value)


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
    r = sg.index[rotation(3)]
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
        return [pad_embedding(d, int(n) + 2) for d in small.elements]
    t1 = led.instances[InstanceRef("sub", "t1sub(EA:6)")].sg
    if name.startswith("kernel("):
        return [t1.elements[i] for i in oracle_kernel(t1)[0]]
    return [t1.elements[i] for i in oracle_span(t1, oracle_idempotent_ids(t1))]


def _assert_diagram_table(sg, elems):
    """sg holds elems in this order, with their diagram-product table."""
    table, identity_id = oracle_table(elems)
    assert sg.elements == elems
    assert sg.identity_id == identity_id
    assert np.array_equal(sg.product_table(), table)


def _instance(name, request):
    """(closure, degree, the elements a restriction should hold, or None)."""
    if name in _RESTRICTED:
        led, _ = request.getfixturevalue("derived_standard_ledger")
        sg = led.instances[InstanceRef(name.split("(")[0], name)].sg
        return sg, _RESTRICTED[name], _restricted_elements(led, name)
    if name == "t1sub(EA:6)":
        return t1sub_ea6(), 6, None
    family, n = name.split(":")
    return as_closure(construct(family, int(n))), int(n), None


@pytest.mark.parametrize("name", _ORACLE_CASES)
def test_integer_analyses_match_diagram_products(name, request):
    sg, n, elems = _instance(name, request)
    if elems is not None:
        _assert_diagram_table(sg, elems)
    assert np.array_equal(sg.left_cayley, oracle_left_cayley(sg))
    assert sg.idempotent_ids() == oracle_idempotent_ids(sg)

    rng = random.Random(n)
    idem = list(sg.idempotent_ids())
    seed_sets = [sg.generators[:4],
                 rng.sample(range(sg.size), 2),
                 rng.sample(idem, min(6, len(idem)))]
    for seeds in seed_sets:
        assert generated_subsemigroup(sg, seeds) == oracle_span(sg, seeds)

    e_id = sg.index.get(adjacent_contraction(n, n - 1), sg.identity_id)
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
    want = [sg.index[sg.elements[x] * sg.elements[y]] for x, y in zip(xs, ys)]
    assert sg.multiply(np.array(xs), np.array(ys)).tolist() == want
    assert [sg.mul(x, y) for x, y in zip(xs, ys)] == want


# ---------------------------------------------------------------------------
# Green's relations


def test_green_data_on_brauer_4():
    g = green(_b(4))
    by_size = sorted(len(m) for m in g.j_members)
    assert by_size == [9, 24, 72]
    assert sorted(g.j_subgroup_order) == [1, 2, 24]
    assert sorted(g.j_regular) == [True, True, True]
    assert sorted(g.j_essential) == [False, True, True]
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
    for reg in led.instances.values():
        _assert_same_green(green(reg.sg), oracle_green(reg.sg))


@pytest.mark.parametrize("family, n", [("B", 6), ("A", 8), ("J", 9), ("EA", 8),
                                       ("PB", 5), ("SYM", 7)])
def test_green_matches_elementwise_oracle_on_census_closures(family, n):
    sg = as_closure(construct(family, n))
    _assert_same_green(green(sg), oracle_green(sg))


def test_closure_never_decodes_blocks():
    sg = closure(construct("J", 6).generators, include_identity=True)
    assert sg.size == 132
    assert not any(hasattr(d, "_blocks") for d in sg.elements)


def test_green_counts_are_consistent():
    sg = _j(4)
    g = green(sg)
    assert sum(len(m) for m in g.j_members) == sg.size
    assert g.num_h >= g.num_j


def test_h_class_of_identity_is_unit_group():
    sg = _b(4)
    assert sorted(h_class_of(sg, sg.identity_id)) == units(sg)
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
    assert index_period(sg, sg.index[rotation(4)]) == (1, 4)
    assert index_period(sg, sg.index[contraction(4, 1, 2)]) == (1, 1)


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
    for reg in led.instances.values():
        ids = np.arange(reg.sg.size)
        want = oracle_period_one(reg.sg, ids)
        assert np.array_equal(period_one(reg.sg, ids), want)


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
    seeds = [sg.index[adjacent_contraction(4, 1)], sg.index[adjacent_contraction(4, 2)]]
    inner = generated_subsemigroup(sg, seeds)
    standalone = closure([adjacent_contraction(4, 1), adjacent_contraction(4, 2)])
    assert {sg.elements[i] for i in inner} == standalone.element_set()


def test_idempotents_by_definition():
    sg = _b(3)
    assert idempotents(sg) == [i for i in range(sg.size) if sg.mul(i, i) == i]
    assert len(idempotents(sg)) == 10


def test_idempotent_generated_on_annular_5():
    sg = as_closure(construct("A", 5))
    span = idempotent_generated(sg)
    assert len(idempotents(sg)) == 116
    assert len(span) == 176
    assert set(singular_part(sg)) <= set(span)


# ---------------------------------------------------------------------------
# ideals, local monoids, quotients


def test_principal_ideal_is_rank_filter():
    sg = _b(4)
    e_id = sg.index[contraction(4, 1, 2)]
    ideal = principal_ideal(sg, e_id)
    assert len(ideal) == 81
    assert ideal == sorted(i for i in range(sg.size) if sg.elements[i].rank <= 2)


def test_local_monoid_at_end_cap_is_padded_smaller_monoid():
    sg = _b(4)
    e = adjacent_contraction(4, 3)
    lm = local_monoid(sg, sg.index[e])
    assert lm.elements[lm.identity_id] == e
    padded = {pad_embedding(d, 4) for d in construct("B", 2).elements}
    assert lm.element_set() == padded


def test_local_monoid_requires_idempotent():
    sg = _b(4)
    with pytest.raises(NotIdempotent):
        local_monoid(sg, sg.index[rotation(4)])


def test_rees_quotient_of_brauer_4():
    sg = _b(4)
    ideal = principal_ideal(sg, sg.index[contraction(4, 1, 2)])
    q = rees_quotient(sg, ideal)
    assert q.size == 24 + 1
    assert q.elements is None
    zero = q.size - 1
    for x in range(q.size):
        assert q.mul(x, zero) == zero
        assert q.mul(zero, x) == zero
    g = green(q)
    assert g.num_j == 2
    assert not is_aperiodic(q)


def test_rees_quotient_rejects_non_ideals():
    sg = _b(4)
    with pytest.raises(NotAnIdeal):
        rees_quotient(sg, units(sg))
    with pytest.raises(NotAnIdeal):
        rees_quotient(sg, [])


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
    sgs = [inst.sg for inst in led.instances.values() if inst.sg.size <= 1_500]
    assert len(sgs) == 55
    verdicts = set()
    for sg in sgs + [_b(6)]:
        verdict = is_inverse(sg)
        assert verdict == oracle_is_inverse(sg)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_left_order_basics():
    sg = _j(3)
    g1 = sg.index[adjacent_contraction(3, 1)]
    assert l_leq(sg, g1, g1)
    assert l_leq(sg, g1, sg.identity_id)
    assert not l_leq(sg, sg.identity_id, g1)


def test_t1_chain_negative_on_jones_3():
    assert t1_chain(_j(3)) is None


def test_t1_chain_positive_case():
    n = 6
    z2 = rotation(n) * rotation(n)
    g5 = adjacent_contraction(n, 5)
    sg = closure(
        [z2, g5, adjacent_contraction(n, 6) * g5, double_contraction(n)],
        include_identity=True,
    )
    chain = t1_chain(sg)
    assert chain is not None
    for a, b in zip(chain, chain[1:]):
        assert l_leq(sg, a, b)


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
    assert group.size == 2 and group.elements is None
    assert group.identity_id == 0
    assert group.idempotent_ids() == (0,)
    assert index_period(group, 1) == (1, 2)
    assert not is_aperiodic(group)
    left_zero = SemigroupClosure.from_table([[0, 0], [1, 1]])
    assert left_zero.identity_id is None  # x y = x: no two-sided identity
    assert is_aperiodic(left_zero)


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
from brauerkit import as_closure, construct, essential_depth, green
sg = as_closure(construct("B", 2))
sg._green = dataclasses.replace(green(sg), j_order=frozenset({(0, 1), (1, 0)}))
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
