"""Group-kernel computation and the aperiodic-by-group test."""

import functools
import importlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from brauerkit import (
    as_closure,
    construct,
    generators,
    index_period,
    kernel,
    rotation,
    units,
    weak_inverse_pairs,
)
from brauerkit.derivations import t1sub_ea6
from brauerkit.diagrams import stars
from brauerkit.engine import generated_subsemigroup, period_one
from brauerkit.errors import KernelFixpointError
from brauerkit.verify import verify_parity_morphism_a4
from oracles import (
    _oracle_closure,
    dense_conjugates,
    dense_pair_matrix,
    elements_of,
    oracle_dense_kernel,
    oracle_generator_conjugates,
    oracle_generator_kernel,
    oracle_kernel,
    oracle_period_one,
    oracle_weak_inverse_pairs,
    table_closure,
    transformation_table,
)


engine_module = importlib.import_module("brauerkit.engine")
kernel_module = importlib.import_module("brauerkit.kernel")
verify_module = importlib.import_module("brauerkit.verify")


def _sg(family, n):
    return as_closure(construct(family, n))


def _named(name):
    """A family closure "B:4", t1sub(EA:6), or "T:seed", the random
    transformation semigroup oracles.transformation_table draws at seed,
    searched over the table's ids (oracles.table_closure)."""
    if name == "t1sub(EA:6)":
        return t1sub_ea6()
    family, n = name.split(":")
    if family == "T":
        return table_closure(transformation_table(int(n)))
    return _sg(family, int(n))


def _result(res):
    return tuple(res.kernel_ids.tolist()), res.iterations, res.is_aperiodic, res.witness


# ---------------------------------------------------------------------------
# weak inverses


def test_star_gives_weak_inverses_in_brauer_4():
    sg = _sg("B", 4)
    pairs = set(weak_inverse_pairs(sg))
    star_ids = sg.ids_of(stars(sg.labels))
    assert (star_ids >= 0).all()
    assert all(pair in pairs for pair in enumerate(star_ids.tolist()))


def test_weak_inverse_formulations_are_transposes():
    sg = _sg("A", 3)
    bar = set(oracle_weak_inverse_pairs(sg, formulation="bar"))
    self_form = set(oracle_weak_inverse_pairs(sg, formulation="self"))
    assert bar == {(x, y) for y, x in self_form}


@pytest.mark.parametrize("family, n", [("B", 3), ("A", 4), ("PB", 3), ("PA", 3)])
def test_weak_inverse_pairs_match_brute_force_in_order(family, n):
    sg = _sg(family, n)
    expected = oracle_weak_inverse_pairs(sg)
    assert weak_inverse_pairs(sg) == expected


# ---------------------------------------------------------------------------
# kernels of groups and aperiodic monoids


def test_kernel_of_group_is_trivial():
    sg = _sg("SYM", 3)
    res = kernel(sg)
    assert set(res.kernel_ids) == {sg.identity_id}
    assert res.is_aperiodic


def test_kernel_of_aperiodic_monoid_is_everything_but_harmless():
    sg = _sg("J", 4)
    res = kernel(sg)
    assert res.is_aperiodic
    assert res.witness is None


# ---------------------------------------------------------------------------
# the two degree-4 annular kernels


def test_kernel_of_annular_4():
    sg = _sg("A", 4)
    res = kernel(sg)
    assert len(res.kernel_ids) == 21
    assert res.iterations == 2
    assert res.is_aperiodic
    expected = set(construct("EA", 4).elements) - {rotation(4) * rotation(4)}
    assert set(elements_of(sg, res.kernel_ids)) == expected


def test_kernel_of_partial_annular_4():
    sg = _sg("PA", 4)
    res = kernel(sg)
    assert len(res.kernel_ids) == 542
    assert res.iterations == 3
    assert not res.is_aperiodic
    assert res.witness is not None
    assert index_period(sg, res.witness)[1] == 2


@pytest.mark.slow
def test_kernel_fixpoint_is_sweep_and_formulation_invariant():
    for family in ("A", "PA"):
        sg = _sg(family, 4)
        base = _result(kernel(sg))
        for sweep_order in ("forward", "reversed"):
            for formulation in ("bar", "self"):
                assert oracle_kernel(sg, sweep_order, formulation) == base


_PER_PAIR_NAMES = ["B:3", "B:4", "A:3", "A:5", "EA:4", "PB:3", "PA:3", "J:5",
                   "SYM:4", "t1sub(EA:6)"]


def _paths(names):
    """(name, path) parameters for both product paths (_on_path), the walk
    case named "<name> walk"."""
    return [pytest.param(name, path, id=name if path == "table" else f"{name} walk")
            for name in names for path in ("table", "walk")]


def _on_path(name, path, monkeypatch):
    """The named closure on one product path.  "table" is _named's, whose
    table kernel() builds; "walk" is a fresh closure of the same generators
    (for T:seed, of the same table), with the same ids, under a
    TABLE_CELL_LIMIT of 0, so it builds no table and every product walks
    words.  Read what needs the table first."""
    if path == "table":
        return _named(name)
    monkeypatch.setattr(engine_module, "TABLE_CELL_LIMIT", 0)
    if name == "t1sub(EA:6)" or name.startswith("T:"):  # _named builds these afresh
        return _named(name)
    family, n = name.split(":")
    return engine_module.closure(generators(family, int(n)), include_identity=True)


@functools.cache
def _oracle(oracle, name):
    """oracle's kernel of the named closure, computed once for both paths."""
    return oracle(_named(name))


def _assert_kernel_matches(oracle, name, path, monkeypatch):
    want = _oracle(oracle, name)
    sg = _on_path(name, path, monkeypatch)
    assert _result(kernel(sg)) == want
    assert (sg._table is None) == (path == "walk")


@pytest.mark.parametrize("name, path", _paths(_PER_PAIR_NAMES))
def test_kernel_matches_the_per_pair_oracle(name, path, monkeypatch):
    _assert_kernel_matches(oracle_kernel, name, path, monkeypatch)


# T:34 and T:0 have no identity, and T:23's is not id 0
@pytest.mark.parametrize("name, path", _paths(
    _PER_PAIR_NAMES + ["PB:4", "A:6", "EA:6", "J:6", "PA:4", "T:34", "T:0", "T:23"]))
def test_kernel_matches_the_dense_oracle(name, path, monkeypatch):
    _assert_kernel_matches(oracle_dense_kernel, name, path, monkeypatch)


def test_kernel_matches_the_dense_oracle_on_every_ledger_kernel(
        derived_standard_ledger, monkeypatch):
    led, _ = derived_standard_ledger
    ledger_module = importlib.import_module("brauerkit.ledger")
    seen = {}

    def spy(sg):
        seen[id(sg)] = sg
        return kernel(sg)

    monkeypatch.setattr(ledger_module, "kernel", spy)
    reruns = [c for c in led.checks.values()
              if c.name.startswith(("kernel-aperiodic(", "kernel-matches("))]
    assert len(reruns) == 3
    for check in reruns:
        assert check.rerun() == check.passed
    assert sorted(sg.size for sg in seen.values()) == [40, 194, 589]
    for sg in seen.values():
        assert _result(kernel(sg)) == oracle_dense_kernel(sg)
        assert _result(kernel(sg)) == oracle_generator_kernel(sg)


# PJ:4 and T:38 take one round more over the generator pairs than over
# every pair
@pytest.mark.parametrize("name, path", _paths(
    _PER_PAIR_NAMES + ["A:4", "PB:4", "A:6", "EA:6", "J:6", "PA:4", "T:34", "T:0", "T:23",
                       "PJ:4", "T:38"]))
def test_kernel_matches_the_generator_pair_oracle(name, path, monkeypatch):
    _assert_kernel_matches(oracle_generator_kernel, name, path, monkeypatch)


def test_kernel_at_the_table_limit_engine_holds_walks_to_the_table_result(monkeypatch):
    table_sg = _sg("A", 3)
    want = _result(kernel(table_sg))
    sg = engine_module.closure(generators("A", 3), include_identity=True)  # no table yet
    monkeypatch.setattr(engine_module, "TABLE_CELL_LIMIT", sg.size ** 2 - 1)
    assert _result(kernel(sg)) == want
    assert sg._table is None


def test_kernel_without_a_product_table_walks_to_the_table_result(monkeypatch):
    table_sg = _sg("B", 4)
    want = _result(kernel(table_sg)), weak_inverse_pairs(table_sg)
    sg = engine_module.closure(generators("B", 4), include_identity=True)
    monkeypatch.setattr(sg, "product_table", lambda: None)
    assert (_result(kernel(sg)), weak_inverse_pairs(sg)) == want
    assert sg._table is None


@pytest.mark.parametrize("name, path", _paths(["B:3", "A:4", "PA:3", "PB:3", "SYM:4", "J:4",
                                               "EA:4", "C:3"]))
def test_pruned_sweep_matches_the_dense_sweep_on_random_closed_sets(name, path, monkeypatch):
    """_generator_conjugates, which reads only the cells with y or ā
    outside the set, finds the conjugates outside it that the plain
    oracle finds over every (a, ā, k)."""
    ref = _named(name)
    rows = np.asarray(ref.product_table()).tolist()
    pairs = oracle_weak_inverse_pairs(ref)
    sg = _on_path(name, path, monkeypatch)
    gens = kernel_module._generating_set(sg)
    bars = kernel_module._weak_inverses(sg, gens)
    assert [b.tolist() for b in bars] == [sorted(xbar for x, xbar in pairs if x == a)
                                          for a in gens]
    rng = random.Random(name)
    for _ in range(40):
        seeds = rng.sample(range(sg.size), rng.randint(1, 4))
        kids = generated_subsemigroup(ref, seeds)
        member = np.zeros(sg.size, dtype=bool)
        member[kids] = True
        for ks in (kids, sorted(rng.sample(kids.tolist(), rng.randint(1, len(kids))))):
            got = kernel_module._generator_conjugates(sg, member, ks, gens, bars)
            want = oracle_generator_conjugates(ref, rows, ks) - set(kids.tolist())
            assert got.tolist() == sorted(want)
    assert (sg._table is None) == (path == "walk")


def _conjugation_closed(sg, table, pairs, seeds):
    """The least set holding seeds and closed under products and weak
    conjugation, by whole-table sweeps."""
    member = np.zeros(sg.size, dtype=bool)
    member[seeds] = True
    while True:
        kids = generated_subsemigroup(sg, np.flatnonzero(member))
        member[kids] = True
        grown = member | dense_conjugates(table, pairs, kids)
        if grown.sum() == member.sum():
            return kids
        member = grown


@pytest.mark.parametrize("name, path", _paths(["B:3", "A:4", "PA:3", "PB:3", "SYM:4", "J:4",
                                               "EA:4", "C:3", "T:34", "T:0", "T:23"]))
def test_generator_test_matches_the_dense_sweep_on_seeded_closed_sets(name, path, monkeypatch):
    """The lemma: a product-closed set is closed under weak conjugation by
    every pair iff it is by the pairs of the generators and the identity,
    so the generator conjugates outside it are empty iff the dense ones
    are, and they are always among the dense ones.  Half the sets are
    closed under conjugation too; outside the group SYM:4 most miss an
    idempotent.  On T:34 the conjugates are wrong without the cells y ā
    with y inside and ā outside the set, or without the ā y."""
    ref = _named(name)
    table = np.asarray(ref.product_table())
    pairs = dense_pair_matrix(table)
    sg = _on_path(name, path, monkeypatch)
    gens = kernel_module._generating_set(sg)
    bars = kernel_module._weak_inverses(sg, gens)
    rng = random.Random(name)
    found = []
    for i in range(40):
        seeds = rng.sample(range(sg.size), rng.randint(1, 4))
        kids = (_conjugation_closed(ref, table, pairs, seeds) if i % 2
                else generated_subsemigroup(ref, seeds))
        member = np.zeros(sg.size, dtype=bool)
        member[kids] = True
        dense = set(np.flatnonzero(dense_conjugates(table, pairs, kids) & ~member).tolist())
        got = kernel_module._generator_conjugates(sg, member, kids, gens, bars)
        assert bool(got.size) == bool(dense)
        assert set(got.tolist()) <= dense
        found.append(not dense)
    assert 0 < sum(found) < len(found)


def _seeds(sg, kids):
    """A generating set of the subsemigroup kids, picked as the rounds pick."""
    return engine_module._table_generators(sg, np.zeros(sg.size, dtype=bool), [], kids)


def _check_fixpoint(sg, kids, seeds):
    """_check_fixpoint over sg's generator pairs, as kernel() passes them."""
    gens = kernel_module._generating_set(sg)
    kernel_module._check_fixpoint(sg, kids, seeds, gens,
                                  kernel_module._weak_inverses(sg, gens))


@pytest.mark.parametrize("name", ["SYM:3", "A:4", "PB:4"])
def test_fixpoint_check_needs_generators_that_generate(name, monkeypatch):
    sg = _named(name)
    kids = kernel(sg).kernel_ids
    seeds = _seeds(sg, kids)
    dropped = sg.generators[1:]
    monkeypatch.setattr(sg, "generators", dropped)
    with pytest.raises(KernelFixpointError, match="do not generate the semigroup"):
        _check_fixpoint(sg, kids, seeds)
    with pytest.raises(KernelFixpointError):
        kernel(sg)


_PRODUCT_FAILURES = {"the kernel is not closed under products",
                     "the seeds do not generate the kernel"}


@pytest.mark.parametrize("name", ["B:3", "A:4", "PA:3", "PB:3", "SYM:4", "C:3", "T:34",
                                  "T:23"])
def test_the_product_check_matches_the_all_pairs_check(name):
    """_check_fixpoint's K G ⊆ K with ⟨G⟩ = K fails iff K K ⊆ K fails over
    all |K|^2 cells or G does not generate K, on seeded sets: K closed or
    with one id dropped, G a generating set of K or one with a pick
    dropped.  A K that is not closed is generated by no G, as ⟨G⟩ is."""
    sg = _named(name)
    table = np.asarray(sg.product_table())
    rows = table.tolist()
    rng = random.Random(name)
    seen = set()
    for i in range(60):
        kids = generated_subsemigroup(sg, rng.sample(range(sg.size), rng.randint(1, 4)))
        if i % 2 and len(kids) > 1:
            kids = np.delete(kids, rng.randrange(len(kids)))
        seeds = _seeds(sg, kids)
        if i % 4 > 1 and len(seeds) > 1:
            seeds = np.delete(seeds, rng.randrange(len(seeds)))
        member = np.zeros(sg.size, dtype=bool)
        member[kids] = True
        closed = bool(member[table[np.ix_(kids, kids)]].all())
        generates = sorted(_oracle_closure(rows, seeds.tolist())) == kids.tolist()
        try:
            _check_fixpoint(sg, kids, seeds)
            failed = False
        except KernelFixpointError as exc:
            failed = str(exc) in _PRODUCT_FAILURES
        assert failed == (not (closed and generates)), (kids, seeds)
        seen.add((closed, generates))
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("name", ["A:4", "PA:4", "PB:4", "A:6", "t1sub(EA:6)"])
def test_generator_test_is_empty_iff_the_rounds_sweep_is(name, monkeypatch):
    """Each round conjugates the ids that joined K in it over the generator
    pairs, and finds something iff the all-pairs sweep of those ids, run
    by a spy, does; the fixpoint check conjugates all of K once more."""
    sg = _named(name)
    table = np.asarray(sg.product_table())
    pairs = dense_pair_matrix(table)
    pick = kernel_module._table_generators
    conjugates = kernel_module._generator_conjugates
    fresh, calls = [], []

    def pick_spy(semigroup, member, gens, ids):
        old = member.copy()
        seeds = pick(semigroup, member, gens, ids)
        fresh.append(np.flatnonzero(member & ~old).tolist())
        return seeds

    def conjugates_spy(semigroup, member, ks, gens, bars):
        got = conjugates(semigroup, member, ks, gens, bars)
        swept = (dense_conjugates(table, pairs, ks) & ~member).any()
        calls.append((np.asarray(ks).tolist(), bool(got.size), bool(swept)))
        return got

    monkeypatch.setattr(kernel_module, "_table_generators", pick_spy)
    monkeypatch.setattr(kernel_module, "_generator_conjugates", conjugates_spy)
    res = kernel(sg)
    assert len(fresh) == res.iterations
    # each id is fresh in one round
    assert sum(map(len, fresh)) == len(res.kernel_ids)
    assert [ks for ks, _, _ in calls] == fresh + [res.kernel_ids.tolist()]
    assert [found for _, found, _ in calls] == [swept for _, _, swept in calls]
    assert not calls[-1][1]


@pytest.mark.parametrize("name", ["A:4", "PA:4", "PB:4", "t1sub(EA:6)"])
def test_kernel_rounds_extend_one_closure(name, monkeypatch):
    """The rounds pick their seeds into one mask, one id at a time, each
    id K does not hold yet; only the fixpoint check closes a set anew,
    first the seeds, then the generators."""
    sg = _named(name)
    pick = kernel_module._table_generators
    masks, picked, closed = [], [], []

    def pick_spy(semigroup, member, gens, ids):
        masks.append(member)
        seeds = pick(semigroup, member, gens, ids)
        picked.append(seeds)
        return seeds

    def counted(semigroup, seed_ids):
        closed.append(np.asarray(seed_ids).tolist())
        return generated_subsemigroup(semigroup, seed_ids)

    monkeypatch.setattr(kernel_module, "_table_generators", pick_spy)
    monkeypatch.setattr(kernel_module, "generated_subsemigroup", counted)
    res = kernel(sg)
    assert all(mask is masks[0] for mask in masks)
    seeds = picked[-1].tolist()
    assert closed == [seeds, kernel_module._generating_set(sg).tolist()]
    assert seeds == sorted(set(seeds)) and len(seeds) < len(sg.idempotent_ids())
    assert set(seeds) <= set(res.kernel_ids.tolist())


# (kernel size, rounds, aperiodic, witness)
_PAST_THE_TABLE_LIMIT = {"PA:5": (4947, 3, False, 15), "C:4": (4117, 2, False, 21)}


@pytest.mark.slow
@pytest.mark.parametrize("name", _PAST_THE_TABLE_LIMIT)
def test_kernel_past_the_table_limit_in_bounded_memory(name):
    """PA:5's and C:4's tables are over TABLE_CELL_LIMIT, so their kernels
    walk words, holding under a quarter of the table's bytes, as traced by
    tracemalloc.  The results are those the table kernel gave with the
    limit raised."""
    sg = _named(name)
    tracemalloc.start()
    try:
        res = kernel(sg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ((len(res.kernel_ids), res.iterations, res.is_aperiodic, res.witness)
            == _PAST_THE_TABLE_LIMIT[name])
    assert sg._table is None
    assert peak < 0.25 * sg.size ** 2 * np.dtype(np.int32).itemsize


def test_the_closure_check_reads_the_table_in_small_blocks(pair_batch):
    """The check's products come from _blocks, at most _PAIR_BATCH cells a
    block: with the table built first, reading all of K K (34 x _PAIR_BATCH
    bytes of int32 ids here) holds under 12 x _PAIR_BATCH bytes, two blocks of int32
    ids, the one read and the next, with their gathers' temporaries."""
    sg = _named("PB:4")
    sg.product_table()
    kids = kernel(sg).kernel_ids
    member = np.zeros(sg.size, dtype=bool)
    member[kids] = True
    batch = 64 * sg.size
    pair_batch(batch)
    sizes = []
    tracemalloc.start()
    try:
        for block in kernel_module._blocks(sg, kids, kids):
            sizes.append(block.size)
            assert member[block].all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == len(kids) ** 2 and max(sizes) <= batch
    assert peak < 12 * batch


@pytest.mark.parametrize("name", ["PB:4", "A:6", "EA:6", "J:6", "t1sub(EA:6)"])
def test_period_one_on_kernel_ids_matches_repeated_squaring(name):
    sg = _named(name)
    kids = list(kernel(sg).kernel_ids)
    assert period_one(sg, kids).tolist() == oracle_period_one(sg, kids).tolist()


# In SYM:3 a transposition t alone is not closed under products, and {1, t}
# is a subgroup that is not normal, so not closed under weak conjugation;
# with seeds {1} alone it is not generated.  In B:2 the zero alone misses
# the identity, an idempotent.  Last, SYM:3's kernel {1} is checked with one
# of its two generators dropped.
_FIXPOINT_CHECK = """
import numpy as np
from brauerkit import as_closure, construct
from brauerkit.errors import KernelFixpointError
from brauerkit.kernel import _check_fixpoint, _generating_set, _weak_inverses

def check(sg, candidate, seeds):
    gens = _generating_set(sg)
    try:
        _check_fixpoint(sg, np.array(candidate), np.array(seeds), gens,
                        _weak_inverses(sg, gens))
    except KernelFixpointError as exc:
        print(exc)

sym3 = as_closure(construct("SYM", 3))
one = sym3.identity_id
t = next(i for i in range(sym3.size) if i != one and sym3.multiply(i, i) == one)
check(sym3, [t], [t])
check(sym3, sorted([one, t]), [t])
check(sym3, sorted([one, t]), [one])
b2 = as_closure(construct("B", 2))
table = b2.product_table()
zero = [z for z in range(b2.size) if (table[z] == z).all() and (table[:, z] == z).all()]
check(b2, zero, zero)
sym3.generators = sym3.generators[1:]
check(sym3, [one], [one])
"""


def test_fixpoint_check_raises_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _FIXPOINT_CHECK],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "the kernel is not closed under products",
        "the kernel is not closed under weak conjugation",
        "the seeds do not generate the kernel",
        "the kernel misses an idempotent",
        "the generators do not generate the semigroup",
    ]


def test_kernel_monotone_under_the_annular_inclusion():
    a4 = _sg("A", 4)
    pa4 = _sg("PA", 4)
    small = set(elements_of(a4, kernel(a4).kernel_ids))
    big = set(elements_of(pa4, kernel(pa4).kernel_ids))
    assert small <= big


def test_kernel_contains_idempotents_and_units_meet():
    sg = _sg("A", 4)
    res = kernel(sg)
    kids = set(res.kernel_ids)
    assert set(sg.idempotent_ids()) <= kids
    assert kids & set(units(sg)) == {sg.identity_id}


# ---------------------------------------------------------------------------
# explicit relational morphisms at degree 4


def test_parity_morphism_witnesses_the_kernel():
    assert verify_parity_morphism_a4()


def _pairwise_closed(pairs, left_mul, right_mul):
    """The closure test one pair of pairs at a time."""
    rel = {tuple(p) for p in np.asarray(pairs).tolist()}
    return all((int(left_mul(s, s2)), int(right_mul(t, t2))) in rel
               for s, t in rel for s2, t2 in rel)


def _flipped(tau, i):
    tau = tau.copy()
    tau[i, 1] *= -1
    return tau


def test_parity_relations_are_morphisms_and_one_change_breaks_each():
    sg = as_closure(construct("A", 4))
    tau1, tau2 = verify_module._parity_relations(sg)
    assert (len(tau1), len(tau2)) == (4 + 36 * 4, 40 + 4)  # 4 units, 4 of rank 0
    one_sign = np.flatnonzero(np.bincount(tau2[:, 0])[tau2[:, 0]] == 1)
    for tau, changed, left, right in (
            (tau1, [np.delete(tau1, i, axis=0) for i in (0, 3, 4, 77, len(tau1) - 1)],
             sg.multiply, sg.multiply),
            (tau2, [_flipped(tau2, i) for i in one_sign[::7]], sg.multiply, np.multiply)):
        assert verify_module._is_relational_morphism(tau, left, right)
        assert _pairwise_closed(tau, left, right)
        for bad in changed:
            assert not verify_module._is_relational_morphism(bad, left, right)
            assert not _pairwise_closed(bad, left, right)
