"""Group-kernel computation and the aperiodic-by-group test."""

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
    index_period,
    kernel,
    rotation,
    star,
    units,
    weak_inverse_pairs,
)
from brauerkit.derivations import t1sub_ea6
from brauerkit.engine import SemigroupClosure, generated_subsemigroup, period_one
from brauerkit.errors import BudgetExceeded, KernelFixpointError
from brauerkit.verify import verify_parity_morphism_a4
from oracles import (
    dense_conjugates,
    dense_pair_matrix,
    elements_of,
    id_of,
    oracle_dense_kernel,
    oracle_generator_conjugates,
    oracle_generator_kernel,
    oracle_kernel,
    oracle_period_one,
    oracle_weak_inverse_pairs,
    transformation_table,
)


engine_module = importlib.import_module("brauerkit.engine")
kernel_module = importlib.import_module("brauerkit.kernel")
verify_module = importlib.import_module("brauerkit.verify")


def _sg(family, n):
    return as_closure(construct(family, n))


def _named(name):
    """A family closure "B:4", t1sub(EA:6), or "T:seed", the random
    transformation semigroup oracles.transformation_table draws at seed."""
    if name == "t1sub(EA:6)":
        return t1sub_ea6()
    family, n = name.split(":")
    if family == "T":
        return SemigroupClosure.from_table(transformation_table(int(n)))
    return _sg(family, int(n))


def _result(res):
    return tuple(res.kernel_ids.tolist()), res.iterations, res.is_aperiodic, res.witness


# ---------------------------------------------------------------------------
# weak inverses


def test_star_gives_weak_inverses_in_brauer_4():
    sg = _sg("B", 4)
    pairs = set(weak_inverse_pairs(sg))
    for i, d in enumerate(elements_of(sg)):
        assert (i, id_of(sg, star(d))) in pairs


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


@pytest.mark.parametrize("name", _PER_PAIR_NAMES)
def test_kernel_matches_the_per_pair_oracle(name):
    sg = _named(name)
    assert _result(kernel(sg)) == oracle_kernel(sg)


# T:34 and T:0 have no identity, and T:23's is not id 0
@pytest.mark.parametrize("name", _PER_PAIR_NAMES + ["PB:4", "A:6", "EA:6", "J:6", "PA:4",
                                                    "T:34", "T:0", "T:23"])
def test_kernel_matches_the_dense_oracle(name):
    sg = _named(name)
    assert _result(kernel(sg)) == oracle_dense_kernel(sg)


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
@pytest.mark.parametrize("name", _PER_PAIR_NAMES + ["A:4", "PB:4", "A:6", "EA:6", "J:6",
                                                    "PA:4", "T:34", "T:0", "T:23",
                                                    "PJ:4", "T:38"])
def test_kernel_matches_the_generator_pair_oracle(name):
    sg = _named(name)
    assert _result(kernel(sg)) == oracle_generator_kernel(sg)


@pytest.mark.parametrize("name", ["B:3", "A:4", "PA:3", "PB:3", "SYM:4", "J:4",
                                  "EA:4", "C:3"])
def test_pruned_sweep_matches_the_dense_sweep_on_random_closed_sets(name):
    """_generator_conjugates, which reads only the cells with y or ā
    outside the set, finds the conjugates outside it that the plain
    oracle finds over every (a, ā, k)."""
    sg = _named(name)
    table = np.asarray(sg.product_table())
    rows = table.tolist()
    gens = kernel_module._generating_set(sg)
    bars = kernel_module._weak_inverses(table, gens)
    pairs = oracle_weak_inverse_pairs(sg)
    assert [b.tolist() for b in bars] == [sorted(xbar for x, xbar in pairs if x == a)
                                          for a in gens]
    rng = random.Random(name)
    for _ in range(40):
        seeds = rng.sample(range(sg.size), rng.randint(1, 4))
        kids = generated_subsemigroup(sg, seeds)
        member = np.zeros(sg.size, dtype=bool)
        member[kids] = True
        for ks in (kids, sorted(rng.sample(kids.tolist(), rng.randint(1, len(kids))))):
            got = kernel_module._generator_conjugates(table, member, ks, gens, bars)
            want = oracle_generator_conjugates(sg, rows, ks) - set(kids.tolist())
            assert got.tolist() == sorted(want)


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


@pytest.mark.parametrize("name", ["B:3", "A:4", "PA:3", "PB:3", "SYM:4", "J:4",
                                  "EA:4", "C:3", "T:34", "T:0", "T:23"])
def test_generator_test_matches_the_dense_sweep_on_seeded_closed_sets(name):
    """The lemma: a product-closed set is closed under weak conjugation by
    every pair iff it is by the pairs of the generators and the identity,
    so the generator conjugates outside it are empty iff the dense ones
    are, and they are always among the dense ones.  Half the sets are
    closed under conjugation too; outside the group SYM:4 most miss an
    idempotent.  On T:34 the conjugates are wrong without the cells y ā
    with y inside and ā outside the set, or without the ā y."""
    sg = _named(name)
    table = np.asarray(sg.product_table())
    pairs = dense_pair_matrix(table)
    gens = kernel_module._generating_set(sg)
    bars = kernel_module._weak_inverses(table, gens)
    rng = random.Random(name)
    found = []
    for i in range(40):
        seeds = rng.sample(range(sg.size), rng.randint(1, 4))
        kids = (_conjugation_closed(sg, table, pairs, seeds) if i % 2
                else generated_subsemigroup(sg, seeds))
        member = np.zeros(sg.size, dtype=bool)
        member[kids] = True
        dense = set(np.flatnonzero(dense_conjugates(table, pairs, kids) & ~member).tolist())
        got = kernel_module._generator_conjugates(table, member, kids, gens, bars)
        assert bool(got.size) == bool(dense)
        assert set(got.tolist()) <= dense
        found.append(not dense)
    assert 0 < sum(found) < len(found)


@pytest.mark.parametrize("name", ["SYM:3", "A:4", "PB:4"])
def test_fixpoint_check_needs_generators_that_generate(name, monkeypatch):
    sg = _named(name)
    kids = kernel(sg).kernel_ids
    dropped = sg.generators[1:]
    monkeypatch.setattr(SemigroupClosure, "generators", property(lambda self: dropped))
    with pytest.raises(KernelFixpointError, match="do not generate"):
        kernel_module._check_fixpoint(sg, np.asarray(sg.product_table()), kids)
    with pytest.raises(KernelFixpointError):
        kernel(sg)


@pytest.mark.parametrize("name", ["A:4", "PA:4", "PB:4", "A:6", "t1sub(EA:6)"])
def test_generator_test_is_empty_iff_the_rounds_sweep_is(name, monkeypatch):
    """Each round conjugates the ids that joined K in it over the generator
    pairs, and finds something iff the all-pairs sweep of those ids, run
    by a spy, does; the fixpoint check conjugates all of K once more."""
    sg = _named(name)
    table = np.asarray(sg.product_table())
    pairs = dense_pair_matrix(table)
    extend = kernel_module.extend_subsemigroup
    conjugates = kernel_module._generator_conjugates
    fresh, calls = [], []

    def extend_spy(semigroup, member, gens, new):
        old = member.copy()
        seeds = extend(semigroup, member, gens, new)
        fresh.append(np.flatnonzero(member & ~old).tolist())
        return seeds

    def conjugates_spy(table_, member, ks, gens, bars):
        got = conjugates(table_, member, ks, gens, bars)
        swept = (dense_conjugates(table, pairs, ks) & ~member).any()
        calls.append((np.asarray(ks).tolist(), bool(got.size), bool(swept)))
        return got

    monkeypatch.setattr(kernel_module, "extend_subsemigroup", extend_spy)
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
    sg = _named(name)
    calls = []

    def counted(semigroup, seed_ids):
        calls.append(len(seed_ids))
        return generated_subsemigroup(semigroup, seed_ids)

    monkeypatch.setattr(kernel_module, "generated_subsemigroup", counted)
    kernel(sg)
    # the rounds grow one closure; the fixpoint check closes the generators
    assert calls == [len(kernel_module._generating_set(sg))]


# (kernel size, rounds, aperiodic, witness)
_PAST_THE_TABLE_LIMIT = {"PA:5": (4947, 3, False, 15), "C:4": (4117, 2, False, 21)}


@pytest.mark.slow
@pytest.mark.parametrize("name", _PAST_THE_TABLE_LIMIT)
def test_kernel_past_the_table_limit_in_bounded_memory(name, monkeypatch):
    """With the table limit raised, PA:5's and C:4's kernels hold under a
    quarter of their table's bytes besides it, as traced by tracemalloc."""
    monkeypatch.setattr(engine_module, "TABLE_CELL_LIMIT", 6000 ** 2)
    sg = _named(name)
    monkeypatch.setattr(sg, "_table", None)  # drops the table after the test
    table = np.asarray(sg.product_table())
    tracemalloc.start()
    try:
        res = kernel(sg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ((len(res.kernel_ids), res.iterations, res.is_aperiodic, res.witness)
            == _PAST_THE_TABLE_LIMIT[name])
    assert peak < 0.25 * table.nbytes


@pytest.mark.parametrize("name", ["PB:4", "A:6", "EA:6", "J:6", "t1sub(EA:6)"])
def test_period_one_on_kernel_ids_matches_repeated_squaring(name):
    sg = _named(name)
    kids = list(kernel(sg).kernel_ids)
    assert period_one(sg, kids).tolist() == oracle_period_one(sg, kids).tolist()


def test_kernel_without_a_product_table_exceeds_the_budget(monkeypatch):
    sg = _sg("A", 3)
    monkeypatch.setattr(sg, "product_table", lambda: None)
    with pytest.raises(BudgetExceeded, match="12 x 12 product table.*TABLE_CELL_LIMIT"):
        kernel(sg)
    with pytest.raises(BudgetExceeded):
        weak_inverse_pairs(sg)


# In SYM:3 a transposition t alone is not closed under products, and {1, t}
# is a subgroup that is not normal, so not closed under weak conjugation.
# In B:2 the zero alone misses the identity, an idempotent.  Last, SYM:3's
# kernel {1} is checked with one of its two generators dropped.
_FIXPOINT_CHECK = """
import numpy as np
from brauerkit import as_closure, construct
from brauerkit.engine import SemigroupClosure
from brauerkit.errors import KernelFixpointError
from brauerkit.kernel import _check_fixpoint

def check(sg, candidate):
    try:
        _check_fixpoint(sg, sg.product_table(), np.array(candidate))
    except KernelFixpointError as exc:
        print(exc)

sym3 = as_closure(construct("SYM", 3))
one = sym3.identity_id
t = next(i for i in range(sym3.size) if i != one and sym3.multiply(i, i) == one)
check(sym3, [t])
check(sym3, sorted([one, t]))
b2 = as_closure(construct("B", 2))
table = b2.product_table()
check(b2, [z for z in range(b2.size) if (table[z] == z).all() and (table[:, z] == z).all()])
dropped = sym3.generators[1:]
SemigroupClosure.generators = property(lambda self: dropped)
check(sym3, [one])
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
