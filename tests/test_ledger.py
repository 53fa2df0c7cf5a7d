"""Bound ledger: base facts, rules, propagation, reporting."""

import hashlib
import json

import pytest

from brauerkit import (
    InstanceRef,
    Ledger,
    adjacent_contraction,
    as_closure,
    closure,
    construct,
    contraction,
    encode,
    from_permutation,
    local_monoid,
    partial_identity,
    principal_ideal,
    rees_quotient,
    rotation,
    singular_part,
    subsemigroup,
    units,
)
from brauerkit.cli import main
from brauerkit.derivations import build_standard_ledger
from brauerkit.diagrams import Diagram, label_array, labels, pads
from brauerkit.errors import (
    CrossCheckFailed,
    NotAnIdeal,
    NotASubsemigroup,
    NotIdempotent,
    SideConditionFailed,
)
from oracles import count_products, elements_of, id_of, oracle_iso, oracle_pad


def _family(led, code, n):
    sg = as_closure(construct(code, n))
    ref = led.register("family", f"{code}:{n}", sg)
    return ref, sg


# ---------------------------------------------------------------------------
# registration and base facts


def test_register_rejects_duplicates():
    led = Ledger()
    _family(led, "B", 2)
    with pytest.raises(ValueError):
        _family(led, "B", 2)


def test_current_is_none_before_any_fact():
    led = Ledger()
    ref, _ = _family(led, "B", 2)
    assert led.current(ref) is None


def test_base_facts_aperiodic():
    led = Ledger()
    ref, _ = _family(led, "J", 3)
    led.assert_base_facts(ref)
    cur = led.current(ref)
    assert (cur.lo, cur.hi) == (0, 0)
    assert not cur.is_open


def test_base_facts_depth_and_inverse_merge():
    led = Ledger()
    ref, _ = _family(led, "B", 2)
    led.assert_base_facts(ref)
    cur = led.current(ref)
    # depth gives [1,1]; the inverse fact [0,1] intersects harmlessly
    assert (cur.lo, cur.hi) == (1, 1)
    rules = {led.facts[f].rule for f in cur.lo_facts + cur.hi_facts}
    assert "base-depth" in rules


def test_base_facts_depth_only_for_non_inverse():
    led = Ledger()
    ref, _ = _family(led, "B", 4)
    led.assert_base_facts(ref)
    cur = led.current(ref)
    assert (cur.lo, cur.hi) == (1, 2)
    assert cur.is_open


def test_derive_all_requires_base_facts_everywhere():
    led = Ledger()
    _family(led, "B", 2)
    with pytest.raises(RuntimeError):
        led.derive_all()


# ---------------------------------------------------------------------------
# conflicting facts


def test_conflicting_facts_make_current_raise():
    led = Ledger()
    ref, _ = _family(led, "J", 3)
    led.assert_base_facts(ref)
    led._add_fact(ref, 1, 1, "deliberately wrong bound")
    with pytest.raises(RuntimeError):
        led.current(ref)


# ---------------------------------------------------------------------------
# rules: happy paths on small instances


def test_ideal_rule_bounds_above():
    led = Ledger()
    ref, sg = _family(led, "B", 3)
    ids = principal_ideal(sg, id_of(sg, contraction(3, 1, 2)))
    ideal_sg = subsemigroup(sg, ids)
    i_ref = led.register("ideal", "sing(B:3)", ideal_sg)
    q_ref = led.register("quotient", "quot(B:3/sing)", rees_quotient(sg, ids))
    for r in (ref, i_ref, q_ref):
        led.assert_base_facts(r)
    led.apply_ideal_rule(ref, i_ref, q_ref)
    led.derive_all()
    cur = led.current(ref)
    ci, cq = led.current(i_ref), led.current(q_ref)
    assert cur.hi <= ci.hi + cq.hi
    assert (cur.lo, cur.hi) == (1, 1)


def test_local_rule_ties_ideal_to_local_monoid():
    led = Ledger()
    ref, sg = _family(led, "B", 4)
    e_id = id_of(sg, adjacent_contraction(4, 3))
    ids = principal_ideal(sg, e_id)
    i_ref = led.register("ideal", "sing(B:4)", subsemigroup(sg, ids))
    b2 = label_array(construct("B", 2).sorted_elements(), 2)
    local_sg = subsemigroup(sg, sg.ids_of(pads(b2, 4)))
    assert elements_of(local_sg, [local_sg.identity_id]) == [adjacent_contraction(4, 3)]
    l_ref = led.register("local", "pad(B:2)", local_sg)
    for r in (ref, i_ref, l_ref):
        led.assert_base_facts(r)
    led.apply_local_rule(ref, e_id, i_ref, l_ref)
    led.derive_all()
    ci, cl = led.current(i_ref), led.current(l_ref)
    assert (ci.lo, ci.hi) == (cl.lo, cl.hi) == (1, 1)


def test_principal_rule_pins_brauer_3():
    led = Ledger()
    ref, sg = _family(led, "B", 3)
    e = adjacent_contraction(3, 2)
    local_sg = subsemigroup(sg, [id_of(sg, e)])
    l_ref = led.register("local", "pad(B:1)", local_sg)
    led.assert_base_facts(ref)
    led.assert_base_facts(l_ref)
    pool = [id_of(sg, contraction(3, i, j))
            for i in range(1, 3) for j in range(i + 1, 4)]
    led.apply_principal_rule(
        ref, id_of(sg, e), l_ref,
        unit_gen_ids=[id_of(sg, g) for g in construct("B", 3).generators[:2]],
        idempotent_pool_ids=pool,
    )
    led.derive_all()
    assert (led.current(ref).lo, led.current(ref).hi) == (1, 1)
    assert (led.current(l_ref).lo, led.current(l_ref).hi) == (0, 0)


def test_subsemigroup_rule_moves_bounds_both_ways():
    led = Ledger()
    b_ref, _ = _family(led, "B", 3)
    sym_ref, _ = _family(led, "SYM", 3)
    led.assert_base_facts(b_ref)
    led.assert_base_facts(sym_ref)
    led.apply_subsemigroup_rule(sym_ref, b_ref)
    led.derive_all()
    # the group pushes lo(B:3) to 1; hi(B:3)=1 caps the group from above
    assert led.current(b_ref).lo == 1
    assert led.current(sym_ref).hi == 1


# ---------------------------------------------------------------------------
# rules: side conditions


def test_ideal_rule_rejects_non_ideal():
    led = Ledger()
    ref, sg = _family(led, "B", 3)
    unit_sg = subsemigroup(sg, units(sg))
    u_ref = led.register("sub", "units(B:3)", unit_sg)
    q = rees_quotient(sg, principal_ideal(sg, id_of(sg, contraction(3, 1, 2))))
    q_ref = led.register("quotient", "bogus", q)
    with pytest.raises(NotAnIdeal):
        led.apply_ideal_rule(ref, u_ref, q_ref)


def test_ideal_rule_rejects_elements_outside_the_semigroup():
    led = Ledger()
    ref, sg = _family(led, "B", 3)
    pb_ref, _ = _family(led, "PB", 3)
    q = rees_quotient(sg, principal_ideal(sg, id_of(sg, contraction(3, 1, 2))))
    q_ref = led.register("quotient", "bogus", q)
    with pytest.raises(KeyError):
        led.apply_ideal_rule(ref, pb_ref, q_ref)


def test_a_quotient_of_another_size_fails_and_reruns_to_false():
    led = Ledger()
    ref, sg = _family(led, "B", 3)
    ideal = singular_part(sg)
    i_ref = led.register("ideal", "sing(B:3)", subsemigroup(sg, ideal))
    b4 = as_closure(construct("B", 4))
    q_ref = led.register("quotient", "quot(B:4/sing)",
                         rees_quotient(b4, singular_part(b4)))
    with pytest.raises(SideConditionFailed) as info:
        led.apply_ideal_rule(ref, i_ref, q_ref)
    assert info.value.condition == "quotient-matches(quot(B:4/sing))"
    check = _check(led, "quotient-matches")
    assert not check.passed and check.rerun() is False
    assert led.verify_sample() == 2


def test_local_rule_rejects_non_idempotent():
    led = Ledger()
    ref, sg = _family(led, "B", 3)
    i_ref = led.register("ideal", "x", sg)
    l_ref = led.register("local", "y", sg)
    with pytest.raises(NotIdempotent):
        led.apply_local_rule(ref, id_of(sg, rotation(3)), i_ref, l_ref)


@pytest.mark.parametrize("wrong", ["whole", "outside"])
def test_local_rule_rejects_an_ideal_other_than_ses(wrong):
    led = Ledger()
    ref, sg = _family(led, "B", 4)
    e_id = id_of(sg, adjacent_contraction(4, 3))
    if wrong == "whole":
        i_ref = led.register("ideal", "x", sg)
    else:  # the principal ideal with one element of PB:4 in place of one of its own
        ses = subsemigroup(sg, principal_ideal(sg, e_id)).element_set()
        swapped = set(ses) - {adjacent_contraction(4, 3)} | {partial_identity(4, 1)}
        i_ref = led.register("ideal", "x", closure(swapped))
    l_ref = led.register("local", "y", local_monoid(sg, e_id))
    with pytest.raises(SideConditionFailed) as info:
        led.apply_local_rule(ref, e_id, i_ref, l_ref)
    assert info.value.condition.startswith("ideal-is-SeS")


def test_principal_rule_requires_nontrivial_units():
    led = Ledger()
    ref, sg = _family(led, "J", 3)
    l_ref = led.register("local", "z", sg)
    with pytest.raises(SideConditionFailed) as info:
        led.apply_principal_rule(ref, sg.idempotent_ids()[0], l_ref)
    assert info.value.condition.startswith("units-nontrivial")


def test_kernel_chain_rule_needs_a_chain():
    led = Ledger()
    ref, sg = _family(led, "J", 3)
    k_ref = led.register("kernel", "k", sg)
    with pytest.raises(SideConditionFailed) as info:
        led.apply_kernel_chain_rule(ref, k_ref)
    assert info.value.condition.startswith("t1-chain")


def test_subsemigroup_rule_rejects_non_subsets():
    led = Ledger()
    b2_ref, _ = _family(led, "B", 2)
    b3_ref, _ = _family(led, "B", 3)
    with pytest.raises(NotASubsemigroup):
        led.apply_subsemigroup_rule(b2_ref, b3_ref)


def test_isomorphism_rule_rejects_non_bijections():
    led = Ledger()
    b2_ref, sg2 = _family(led, "B", 2)
    b4_ref, _ = _family(led, "B", 4)
    with pytest.raises(SideConditionFailed) as info:
        led.apply_isomorphism_rule(b2_ref, b4_ref, lambda labs: pads(labs, 4))
    assert info.value.condition.startswith("iso-bijection")


def _pad_pair(code, n):
    """A ledger holding the family code:n and its padded copy two degrees up,
    with the padding map, before any rule is applied."""
    led = Ledger()
    ref, sg = _family(led, code, n)
    big = as_closure(construct(code, n + 2))
    pad_sg = subsemigroup(big, big.ids_of(pads(sg.labels, n + 2)))
    pad_ref = led.register("pad", f"pad({code}:{n})", pad_sg)
    return led, ref, pad_ref, lambda labs: pads(labs, n + 2)


def _check(led, prefix):
    return next(c for c in led.checks.values() if c.name.startswith(prefix))


def test_isomorphism_rule_rejects_a_non_multiplicative_bijection():
    led, ref, pad_ref, pad = _pad_pair("B", 3)
    x, y = from_permutation(3, (2, 1, 3)), contraction(3, 1, 2)

    def mapping(labs):  # pad, with x and y trading images
        at_x, at_y = ((labs == labels(d)).all(axis=1) for d in (x, y))
        swapped = labs.copy()
        swapped[at_x], swapped[at_y] = labels(y), labels(x)
        return pad(swapped)

    with pytest.raises(SideConditionFailed) as info:
        led.apply_isomorphism_rule(ref, pad_ref, mapping)
    assert info.value.condition.startswith("iso-multiplicative")
    verdicts = (_check(led, "iso-bijection").passed,
                _check(led, "iso-multiplicative").passed)
    assert verdicts == (True, False)
    a, b = led.instances[ref], led.instances[pad_ref]
    swap = {x: y, y: x}
    assert oracle_iso(elements_of(a), elements_of(b),
                      lambda d: oracle_pad(swap.get(d, d), 5)) == verdicts


def test_isomorphism_rule_fails_images_outside_the_target_as_a_side_condition():
    led, ref, pad_ref, pad = _pad_pair("B", 3)

    def mapping(labs):  # degree-7 images, none of them in the degree-5 pad
        return pads(pad(labs), 7)

    with pytest.raises(SideConditionFailed) as info:
        led.apply_isomorphism_rule(ref, pad_ref, mapping)
    assert info.value.condition.startswith("iso-bijection")
    check = _check(led, "iso-bijection")
    assert not check.passed and check.rerun() is False


def test_verify_sample_catches_a_tampered_product_table():
    led, ref, pad_ref, pad = _pad_pair("B", 3)
    led.apply_isomorphism_rule(ref, pad_ref, pad)
    assert led.verify_sample(count=10) == 2
    table = led.instances[pad_ref].product_table()
    table[3, 5] = (table[3, 5] + 1) % len(table)
    with pytest.raises(CrossCheckFailed, match=r"iso-multiplicative\(B:3 -> "):
        led.verify_sample(count=10)


def test_isomorphism_rule_maps_each_element_once_per_check(
        derived_standard_ledger):
    std, _ = derived_standard_ledger
    led = Ledger()
    ref = led.register("family", "B:4",
                       std.instances[InstanceRef("family", "B:4")])
    pad_ref = led.register("pad", "pad(B:4)",
                           std.instances[InstanceRef("pad", "pad(B:4)")])
    calls = [0]

    def mapping(labs):
        calls[0] += 1
        return pads(labs, 6)

    led.apply_isomorphism_rule(ref, pad_ref, mapping)
    assert calls[0] == 2
    for check in led.checks.values():
        calls[0] = 0
        assert check.rerun() is True
        assert calls[0] == 1


_PADS = [("B", 1), ("B", 2), ("B", 3), ("B", 4), ("A", 1), ("A", 3),
         ("A", 4), ("EA", 4), ("PB", 1), ("PB", 2), ("PA", 1), ("PA", 2)]


@pytest.mark.parametrize("code,n", _PADS, ids=[f"{c}:{n}" for c, n in _PADS])
def test_isomorphism_checks_match_the_diagram_product_oracle(
        derived_standard_ledger, code, n):
    led, _ = derived_standard_ledger
    a = led.instances[InstanceRef("family", f"{code}:{n}")]
    b = led.instances[InstanceRef("pad", f"pad({code}:{n})")]
    arrow = f"({code}:{n} -> pad({code}:{n}))"
    checks = [_check(led, f"iso-bijection{arrow}"),
              _check(led, f"iso-multiplicative{arrow}")]
    want = oracle_iso(elements_of(a), elements_of(b), lambda d: oracle_pad(d, n + 2))
    assert tuple(c.passed for c in checks) == want == (True, True)
    assert tuple(bool(c.rerun()) for c in checks) == want


# ---------------------------------------------------------------------------
# the shipped derivations


def test_standard_entries_spot_checks(derived_standard_ledger):
    led, entries = derived_standard_ledger

    def at(key):
        e = entries[InstanceRef("family", key)]
        return e.lo, e.hi

    assert at("B:6") == (3, 3)
    assert at("J:6") == (0, 0)
    assert at("EA:6") == (2, 2)
    assert at("A:6") == (2, 2)
    assert at("PA:4") == (1, 2)
    assert entries[InstanceRef("family", "PA:4")].is_open


def test_derivation_facts_are_acyclic(derived_standard_ledger):
    led, _ = derived_standard_ledger
    for fact in led.facts:
        assert all(p < fact.fact_id for p in fact.premises)


def test_derivation_tree_shape(derived_standard_ledger):
    import json

    led, _ = derived_standard_ledger
    tree = led.derivation_tree(InstanceRef("family", "B:6"))
    assert tree["interval"] == [3, 3]
    assert tree["facts"]
    json.dumps(tree)  # must be serializable as-is
    rules = set()

    def walk(node):
        rules.add(node["rule"])
        if isinstance(node.get("premises"), list):
            for p in node["premises"]:
                walk(p)

    for node in tree["facts"]:
        walk(node)
    assert "principal" in rules


def test_verify_sample_reruns_checks(derived_standard_ledger):
    led, _ = derived_standard_ledger
    assert led.verify_sample(count=15, seed=3) == 15


def test_replaying_every_check_takes_no_diagram_product(
        derived_standard_ledger, monkeypatch):
    led, _ = derived_standard_ledger
    assert len(led.checks) == 211
    count = count_products(monkeypatch)
    for check in led.checks.values():
        if check.rerun is not None:
            assert bool(check.rerun()) == check.passed, check.name
    assert count[0] == 0


def test_replaying_every_check_makes_no_diagram_per_element(
        derived_standard_ledger, monkeypatch):
    """No replayed check makes a Diagram per element: the checks are
    functions of ids and label arrays (a closure has no per-element view).
    Every Diagram made from a label row goes through Diagram._from_key;
    the replay makes only the six that its messages name, the five
    generators of the t1-chain checks and one kernel witness."""
    led, _ = derived_standard_ledger
    calls = [0]
    from_key = Diagram._from_key

    def counted(n, key):
        calls[0] += 1
        return from_key(n, key)

    monkeypatch.setattr(Diagram, "_from_key", staticmethod(counted))
    assert len(led.checks) == 211
    for check in led.checks.values():
        assert bool(check.rerun()) == check.passed, check.name
    assert calls == [6]


@pytest.mark.parametrize("shape", ["one row short", "flat", "wrong degree"])
def test_isomorphism_rule_fails_images_of_the_wrong_shape(shape):
    led, ref, pad_ref, pad = _pad_pair("B", 2)
    wrong = {"one row short": lambda labs: pad(labs)[1:],
             "flat": lambda labs: pad(labs).ravel(),
             "wrong degree": lambda labs: labs}[shape]
    with pytest.raises(SideConditionFailed) as info:
        led.apply_isomorphism_rule(ref, pad_ref, wrong)
    assert info.value.condition.startswith("iso-bijection")
    check = _check(led, "iso-bijection")
    assert not check.passed and check.rerun() is False


def test_a_family_in_the_ledger_shares_its_instances_element_set(
        derived_standard_ledger):
    led, _ = derived_standard_ledger
    sg = led.instances[InstanceRef("family", "B:6")]
    assert sg.element_set() is construct("B", 6).elements


def test_check_details_name_elements_by_their_encoding(
        derived_standard_ledger, capsys):
    led, _ = derived_standard_ledger
    details = {c.name: c.detail for c in led.checks.values()}
    assert (encode(adjacent_contraction(4, 3))
            in details["idempotent(e in PA:4)"])
    assert main(["kernel", "--family", "PA", "--n", "4", "--format", "json"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness in details["kernel-aperiodic(PA:4)"]


def test_excluding_the_kernel_chain_rule_loses_the_lower_bound():
    led = build_standard_ledger()
    entries = led.derive_all(exclude_rules=("kernel-chain",))
    assert (entries[InstanceRef("family", "A:6")].lo,
            entries[InstanceRef("family", "A:6")].hi) == (1, 2)
    assert (entries[InstanceRef("family", "EA:6")].lo,
            entries[InstanceRef("family", "EA:6")].hi) == (1, 2)


def test_derivation_order_does_not_change_the_fixpoint():
    def run(seed):
        led = build_standard_ledger()
        entries = led.derive_all(order_seed=seed)
        return {ref.key: (e.lo, e.hi) for ref, e in entries.items()}

    assert run(1) == run(42)


def _ledger_digest(led):
    """sha256 of every check, every fact and every derivation tree."""
    doc = {
        "checks": [[c.check_id, c.name, c.passed, c.detail]
                   for c in led.checks.values()],
        "facts": [[f.fact_id, f.subject.kind, f.subject.key, f.lo, f.hi, f.rule,
                   list(f.premises), list(f.checks)] for f in led.facts],
        "trees": [led.derivation_tree(ref) for ref in led.instances],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_the_standard_ledger_is_pinned():
    """Check wording, fact numbering and derivation trees, byte for byte.

    Any change to a check's name or detail, to the order in which checks
    or facts are recorded, or to a derivation tree changes the digest.
    """
    led = build_standard_ledger()
    led.derive_all()
    assert _ledger_digest(led) == (
        "f137900c0a4c47d7acb5d4fd745b8b9e18e586e656a5786f533a80c52e243a69")
