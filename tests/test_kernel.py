"""Group-kernel computation and the aperiodic-by-group test."""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brauerkit import (
    as_closure,
    construct,
    in_A_star_G,
    index_period,
    kernel,
    kernel_elements,
    rotation,
    star,
    units,
    verify_parity_morphism_a4,
    weak_inverse_pairs,
)
from brauerkit.derivations import t1sub_ea6
from brauerkit.engine import generated_subsemigroup, period_one
from brauerkit.errors import BudgetExceeded
from oracles import (
    dense_conjugates,
    dense_pair_matrix,
    oracle_dense_kernel,
    oracle_kernel,
    oracle_period_one,
    oracle_weak_inverse_pairs,
)


kernel_module = importlib.import_module("brauerkit.kernel")


def _sg(family, n):
    return as_closure(construct(family, n))


def _named(name):
    if name == "t1sub(EA:6)":
        return t1sub_ea6()
    family, n = name.split(":")
    return _sg(family, int(n))


def _result(res):
    return res.kernel_ids, res.iterations, res.is_aperiodic, res.witness


# ---------------------------------------------------------------------------
# weak inverses


def test_star_gives_weak_inverses_in_brauer_4():
    sg = _sg("B", 4)
    pairs = set(weak_inverse_pairs(sg))
    for i in range(sg.size):
        j = sg.index[star(sg.elements[i])]
        assert (i, j) in pairs


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
    assert in_A_star_G(sg)
    expected = set(construct("EA", 4).elements) - {rotation(4) * rotation(4)}
    assert set(kernel_elements(sg, res)) == expected


def test_kernel_of_partial_annular_4():
    sg = _sg("PA", 4)
    res = kernel(sg)
    assert len(res.kernel_ids) == 542
    assert res.iterations == 3
    assert not res.is_aperiodic
    assert res.witness is not None
    assert index_period(sg, res.witness)[1] == 2
    assert not in_A_star_G(sg)


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


@pytest.mark.parametrize("name", _PER_PAIR_NAMES + ["PB:4", "A:6", "EA:6", "J:6", "PA:4"])
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


@pytest.mark.parametrize("name", ["B:3", "A:4", "PA:3", "PB:3", "SYM:4", "J:4",
                                  "EA:4", "C:3"])
def test_pruned_sweep_matches_the_dense_sweep_on_random_closed_sets(name):
    sg = _named(name)
    table = np.asarray(sg.product_table())
    table_t = np.ascontiguousarray(table.T)
    pairs = dense_pair_matrix(table)
    rng = random.Random(name)
    for _ in range(40):
        seeds = rng.sample(range(sg.size), rng.randint(1, 4))
        kids = generated_subsemigroup(sg, seeds)
        member = np.zeros(sg.size, dtype=bool)
        member[kids] = True
        for ks in (kids, sorted(rng.sample(kids, rng.randint(1, len(kids))))):
            got = kernel_module._outside_conjugates(table, table_t, member, ks)
            want = np.flatnonzero(dense_conjugates(table, pairs, ks) & ~member)
            assert got.tolist() == want.tolist()


@pytest.mark.parametrize("name", ["A:4", "PA:4", "PB:4", "t1sub(EA:6)"])
def test_each_kernel_id_is_swept_once(name, monkeypatch):
    sg = _named(name)
    swept = []
    sweep = kernel_module._outside_conjugates

    def counted(table, table_t, member, ks):
        swept.append(len(ks))
        return sweep(table, table_t, member, ks)

    monkeypatch.setattr(kernel_module, "_outside_conjugates", counted)
    res = kernel(sg)
    # one sweep per round, then the fixpoint check's sweep of all of K
    assert len(swept) == res.iterations + 1
    assert sum(swept[:-1]) == len(res.kernel_ids) == swept[-1]


@pytest.mark.parametrize("name", ["A:4", "PA:4", "PB:4", "t1sub(EA:6)"])
def test_kernel_rounds_extend_one_closure(name, monkeypatch):
    sg = _named(name)
    calls = []

    def counted(semigroup, seed_ids):
        calls.append(len(seed_ids))
        return generated_subsemigroup(semigroup, seed_ids)

    monkeypatch.setattr(kernel_module, "generated_subsemigroup", counted)
    res = kernel(sg)
    # the rounds grow one closure; only the fixpoint check starts afresh
    assert calls == [len(res.kernel_ids)]


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
_FIXPOINT_CHECK = """
from brauerkit import as_closure, construct
from brauerkit.errors import KernelFixpointError
from brauerkit.kernel import _check_fixpoint

sg = as_closure(construct("SYM", 3))
table = sg.product_table()
table_t = table.T.copy()
one = sg.identity_id
t = next(i for i in range(sg.size) if i != one and sg.mul(i, i) == one)
for candidate in ([t], sorted([one, t])):
    try:
        _check_fixpoint(sg, table, table_t, candidate)
    except KernelFixpointError as exc:
        print(exc)
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
    ]


def test_kernel_monotone_under_the_annular_inclusion():
    a4 = _sg("A", 4)
    pa4 = _sg("PA", 4)
    small = set(kernel_elements(a4, kernel(a4)))
    big = set(kernel_elements(pa4, kernel(pa4)))
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
