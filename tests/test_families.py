"""Family constructions: sizes, membership, closure views."""

from functools import lru_cache
from itertools import permutations

import pytest

from brauerkit import (
    Diagram,
    FAMILY_IDS,
    Parity,
    FamilyInstance,
    adjacent_contraction,
    as_closure,
    bell_number,
    cardinality_table,
    catalan,
    closure,
    construct,
    double_factorial_odd,
    from_permutation,
    generators,
    identity,
    involution_count,
    load_cache,
    membership,
    motzkin,
    parity,
    partial_identity,
    rotation,
    save_cache,
)
from brauerkit import diagrams, families
from brauerkit.diagrams import even_or_rank_zero, label_array
from brauerkit.errors import BadDegree, BudgetExceeded, CrossCheckFailed

from oracles import (
    oracle_annular,
    oracle_bell,
    oracle_catalan,
    oracle_double_factorial_odd,
    oracle_involutions,
    oracle_motzkin,
    oracle_noncrossing_perfect,
    oracle_partial_matchings,
    oracle_perfect_matchings,
    oracle_planar_pairs,
    oracle_set_partitions,
)


@pytest.fixture
def fresh_construct(monkeypatch):
    """construct and as_closure with empty caches, so families are built anew."""
    fresh = lru_cache(maxsize=None)(families._construct.__wrapped__)
    monkeypatch.setattr(families, "_construct", fresh)
    monkeypatch.setattr(families, "_CLOSURE_CACHE", {})


# ---------------------------------------------------------------------------
# counting helpers vs independent recursions


def test_counting_helpers_match_oracles():
    for n in range(0, 9):
        assert catalan(n) == oracle_catalan(n)
        assert double_factorial_odd(n) == oracle_double_factorial_odd(n)
    for m in range(0, 12):
        assert involution_count(m) == oracle_involutions(m)
        assert bell_number(m) == oracle_bell(m)
        assert motzkin(m) == oracle_motzkin(m)


# ---------------------------------------------------------------------------
# element sets vs enumeration oracles


def test_brauer_elements_match_oracle_sets():
    for n in range(1, 5):
        inst = construct("B", n)
        assert inst.elements == frozenset(oracle_perfect_matchings(n))
        assert inst.size == double_factorial_odd(n)


def test_jones_elements_are_the_noncrossing_matchings():
    for n in range(1, 7):
        inst = construct("J", n)
        assert inst.elements == frozenset(oracle_noncrossing_perfect(n))
        assert inst.size == catalan(n)


def test_partial_brauer_elements_match_oracle_sets():
    for n in range(1, 4):
        inst = construct("PB", n)
        assert inst.elements == frozenset(oracle_partial_matchings(n))
        assert inst.size == involution_count(2 * n)


def test_planar_partial_sizes_are_motzkin():
    for n in range(1, 5):
        assert construct("PJ", n).size == oracle_motzkin(2 * n)


def test_partition_elements_match_oracle_sets():
    for n in (1, 2):
        inst = construct("C", n)
        assert inst.elements == frozenset(oracle_set_partitions(n))
    assert construct("C", 3).size == oracle_bell(6)


def test_symmetric_sizes():
    assert [construct("SYM", n).size for n in (1, 2, 3, 4)] == [1, 2, 6, 24]


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_label_enumeration_matches_permutation_diagrams(n):
    want = {from_permutation(n, p) for p in permutations(range(1, n + 1))}
    assert construct("SYM", n).elements == want


# ---------------------------------------------------------------------------
# frozen sizes for the annular families (no classical closed form is used)


def test_annular_family_sizes():
    assert [construct("A", n).size for n in range(1, 7)] == [1, 3, 12, 40, 180, 625]
    assert [construct("PA", n).size for n in range(1, 5)] == [2, 10, 73, 589]
    assert [construct("EA", n).size for n in (2, 4, 6)] == [2, 22, 325]


def test_annular_families_agree_with_membership_filters():
    n = 4
    pb = construct("PB", n).elements
    assert construct("A", n).elements == {a for a in pb if membership("A", a)}
    assert construct("PA", n).elements == {a for a in pb if membership("PA", a)}
    assert construct("EA", n).elements == {a for a in pb if membership("EA", a)}


@pytest.mark.parametrize("n", range(1, 9))
def test_even_annular_filter_matches_scalar_parity(n):
    elems = list(construct("A", n).elements)
    # fresh diagrams, so that the shared A:n elements stay undecoded
    fresh = [Diagram._from_key(n, d.key) for d in elems]
    want = [parity(d) in (Parity.EVEN, Parity.RANK_ZERO) for d in fresh]
    assert even_or_rank_zero(label_array(elems, n)).tolist() == want
    if n % 2 == 0:
        assert construct("EA", n).elements == {d for d, w in zip(elems, want) if w}


def test_even_annular_and_symmetric_constructions_never_decode_blocks(
        fresh_construct):
    for family, n, size in (("EA", 8, 5096), ("SYM", 7, 5040)):
        inst = construct(family, n)
        assert inst.size == size
        assert not any(hasattr(d, "_blocks") for d in inst.elements)


def test_even_annular_rejects_odd_degree():
    with pytest.raises(BadDegree):
        construct("EA", 3)


# ---------------------------------------------------------------------------
# guard rails


def test_partition_family_hard_cap():
    with pytest.raises(BudgetExceeded):
        construct("C", 6)


def test_budget_precheck_blocks_blowups():
    with pytest.raises(BudgetExceeded):
        construct("B", 5, budget=100)
    with pytest.raises(BudgetExceeded):
        construct("PB", 4, budget=50)


def test_degree_and_family_validation():
    with pytest.raises(BadDegree):
        construct("B", 0)
    with pytest.raises(KeyError):
        construct("XX", 3)
    with pytest.raises(KeyError):
        membership("XX", identity(2))


def test_cardinality_table():
    assert cardinality_table("J", 6) == {n: catalan(n) for n in range(1, 7)}


def test_family_ids_all_construct():
    for fam in FAMILY_IDS:
        n = 2 if fam != "EA" else 2
        assert construct(fam, n).size >= 1


# ---------------------------------------------------------------------------
# membership spot checks


def test_membership_spot_checks():
    assert membership("B", rotation(3))
    assert not membership("B", partial_identity(3, 1))
    assert membership("PA", partial_identity(3, 1))
    assert membership("J", adjacent_contraction(4, 1))
    assert not membership("J", rotation(4))
    assert membership("SYM", rotation(5))
    assert not membership("SYM", adjacent_contraction(5, 1))


# ---------------------------------------------------------------------------
# closure views


def test_as_closure_generated_families_rebuild():
    inst = construct("B", 3)
    sg = as_closure(inst)
    assert frozenset(sg.elements) == inst.elements
    assert sg.identity_id is not None


def test_as_closure_of_pb_is_its_small_generating_set():
    inst = construct("PB", 3)
    sg = as_closure(inst)
    assert frozenset(sg.elements) == inst.elements
    assert len(sg.multipliers) < inst.size


def test_as_closure_of_pa_is_the_rotation_and_the_pj_generators():
    inst = construct("PA", 3)
    sg = as_closure(inst)
    assert frozenset(sg.elements) == inst.elements
    assert sg.multipliers == [rotation(3), *construct("PJ", 3).generators]
    assert len(sg.multipliers) == 7 < inst.size


def test_as_closure_cache_tells_same_size_instances_apart():
    # Two generated SYM:3 instances of two elements each, told apart only
    # by which transposition they hold.
    views = []
    for perm in ((2, 1, 3), (1, 3, 2)):
        swap = from_permutation(3, perm)
        inst = FamilyInstance("SYM", 3, "generated",
                              frozenset({identity(3), swap}), (swap,))
        views.append((inst, as_closure(inst)))
    for inst, sg in views:
        assert sg.element_set() == inst.elements


def test_rotated_planar_candidate_set_is_proper():
    n = 3
    cand = closure(
        [rotation(n), adjacent_contraction(n, 1), partial_identity(n, 1)],
        include_identity=True,
    )
    assert cand.size == 64
    assert frozenset(cand.elements) < construct("PA", n).elements


# ---------------------------------------------------------------------------
# generating sets against independent oracles


def _span(family, n):
    return closure(generators(family, n), include_identity=True).element_set()


@pytest.mark.parametrize("n", range(1, 5))
def test_partition_generators_close_to_all_set_partitions(n):
    assert _span("C", n) == oracle_set_partitions(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_partial_brauer_generators_close_to_all_partial_matchings(n):
    assert _span("PB", n) == oracle_partial_matchings(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_motzkin_generators_close_to_the_planar_partial_matchings(n):
    planar = {d for d in oracle_partial_matchings(n) if oracle_planar_pairs(d)}
    assert len(planar) == oracle_motzkin(2 * n)
    assert _span("PJ", n) == planar


@pytest.mark.parametrize("n", range(1, 6))
def test_annular_partial_generators_close_to_the_annular_partial_matchings(n):
    annular = {d for d in oracle_partial_matchings(n) if oracle_annular(d)}
    assert _span("PA", n) == annular


def test_partition_family_at_degree_5_has_bell_10_elements():
    assert construct("C", 5).size == oracle_bell(10)


@pytest.mark.parametrize("n", (2, 4, 6, 8))
def test_even_annular_generators_end_with_the_squared_rotation(n):
    assert generators("EA", n)[-1] == rotation(n) * rotation(n)


def test_building_pa4_and_pb5_takes_no_scalar_product(fresh_construct, monkeypatch):
    count = [0]
    multiply = diagrams.multiply

    def counted(a, b):
        count[0] += 1
        return multiply(a, b)

    monkeypatch.setattr(diagrams, "multiply", counted)
    assert construct("PA", 4).size == 589
    assert construct("PB", 5).size == 9496
    assert count[0] == 0


@pytest.mark.parametrize("family, n", [("B", 4), ("J", 5), ("PB", 3), ("PJ", 4),
                                       ("C", 3), ("SYM", 4), ("EA", 4)])
def test_dropping_a_generator_fails_the_count(fresh_construct, monkeypatch,
                                              family, n):
    full = generators
    monkeypatch.setattr(families, "generators",
                        lambda f, k: full(f, k)[:-1] if f == family else full(f, k))
    with pytest.raises(CrossCheckFailed):
        construct(family, n)


def test_a_generator_outside_the_family_fails_membership(fresh_construct,
                                                         monkeypatch):
    full = generators
    monkeypatch.setattr(families, "generators",
                        lambda f, k: full(f, k) + (partial_identity(k, 1),))
    with pytest.raises(CrossCheckFailed):
        construct("B", 3)


def test_a_cache_file_with_no_generators_still_loads(tmp_path):
    # the file written before families were built from generating sets
    inst = construct("PB", 3)
    old = FamilyInstance("PB", 3, "enumerated", inst.elements)
    path = save_cache(old, tmp_path / "PB-3.cache")
    assert "strategy enumerated\ngenerators 0\n" in path.read_text()
    loaded = load_cache(path)
    assert (loaded.strategy, loaded.generators) == ("enumerated", ())
    assert loaded.elements == inst.elements
    sg = as_closure(loaded)
    assert sg is not as_closure(inst)
    assert sg.element_set() == inst.elements
    assert tuple(sg.multipliers) == generators("PB", 3)
