"""Forward-chaining derivation of complexity intervals.

No general algorithm computes group complexity, so the ledger never
guesses a value: registered semigroup instances receive certified [lo, hi]
intervals derived from a fixed rule set, and every rule application
records machine-checked side conditions.  An interval that fails to
collapse to a point is reported as open, never forced.

Rules:

  base          aperiodic gives [0,0]; otherwise [1, essential depth];
                inverse structure or an aperiodic group kernel caps hi at 1
  ideal         hi(S) <= hi(I) + hi(S/I) for a two-sided ideal I
  local         the principal ideal SeS and local monoid eSe share an interval
  principal     interval(S) = interval(eSe) + 1 when the units are
                non-trivial, S = <units, e>, and SeS lies in the span of
                verified idempotents
  kernel-chain  lo(S) >= lo(K(S)) + 1 for a non-aperiodic S whose
                generators form a left-order chain
  sub           lo(S) >= lo(T) and hi(T) <= hi(S) for a subsemigroup T of S
  iso           isomorphic instances share an interval
  axiom         imported intervals, gated by an explicit allow-list

The side conditions are checked over closure ids, never by multiplying
diagrams: the iso rule maps a's ids to b's through the mapping's images
(phi) and compares phi(x y) with phi(x) phi(y) for every pair of ids.

derive_all iterates the registered rule applications to a fixpoint; the
result is order independent (monotone interval narrowing), which the test
suite asserts by shuffled reruns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .diagrams import ElementSet, encode
from .engine import (
    _PAIR_BATCH,
    essential_depth,
    generated_subsemigroup,
    is_aperiodic,
    is_inverse,
    local_monoid,
    principal_ideal,
    rees_quotient,
    t1_chain,
    units,
)
from .errors import (
    CrossCheckFailed,
    NotAnIdeal,
    NotASubsemigroup,
    NotIdempotent,
    SideConditionFailed,
)
from .kernel import kernel


@dataclass(frozen=True)
class InstanceRef:
    kind: str  # family | ideal | quotient | local | kernel | egen | sub | pad
    key: str

    def __str__(self):
        return self.key


@dataclass
class Check:
    check_id: str
    name: str
    passed: bool
    detail: str
    rerun: object = None  # zero-argument callable reproducing the boolean


@dataclass(frozen=True)
class Fact:
    fact_id: int
    subject: InstanceRef
    lo: int
    hi: int
    rule: str
    premises: tuple = ()  # fact ids
    checks: tuple = ()  # check ids


@dataclass
class Registered:
    ref: InstanceRef
    sg: object  # SemigroupClosure
    elements: ElementSet | frozenset | None  # frozenset only for a quotient
    description: str


@dataclass(frozen=True)
class Entry:
    subject: InstanceRef
    lo: int
    hi: int
    lo_facts: tuple
    hi_facts: tuple

    @property
    def is_open(self):
        return self.lo != self.hi


@dataclass
class _RuleApp:
    kind: str
    refs: dict
    checks: tuple


def _iso_ids(a_sg, b_sg, mapping):
    """phi[i] = the id in b_sg of mapping(a_sg.elements[i]), -1 outside b_sg."""
    index = b_sg.index
    return np.array([index.get(mapping(x), -1) for x in a_sg.elements],
                    dtype=np.int64)


def _iso_bijective(a_sg, b_sg, mapping):
    """The images lie in b_sg and cover it, and a_sg and b_sg are the same size."""
    phi = _iso_ids(a_sg, b_sg, mapping)
    if a_sg.size != b_sg.size or (phi < 0).any():
        return False
    hit = np.zeros(b_sg.size, dtype=bool)
    hit[phi] = True
    return bool(hit.all())


def _iso_multiplicative(a_sg, b_sg, mapping):
    """phi(x y) == phi(x) phi(y) for every pair of ids, over closure ids.

    Rows of pairs are taken in blocks of at most _PAIR_BATCH products.
    """
    phi = _iso_ids(a_sg, b_sg, mapping)
    if (phi < 0).any():
        return False
    m = a_sg.size
    ids = np.arange(m)
    step = max(1, _PAIR_BATCH // max(1, m))
    for lo in range(0, m, step):
        xs = ids[lo:lo + step, None]
        if (phi[a_sg.multiply(xs, ids)] != b_sg.multiply(phi[xs], phi)).any():
            return False
    return True


class Ledger:
    def __init__(self, allowed_axioms=()):
        self.instances = {}
        self.facts = []
        self.checks = {}
        self.allowed_axioms = frozenset(allowed_axioms)
        self._apps = []
        self._by_subject = {}

    # -- registration ------------------------------------------------------

    def register(self, kind, key, sg, elements=None, description=""):
        ref = InstanceRef(kind, key)
        if ref in self.instances:
            raise ValueError(f"instance {key!r} already registered")
        if elements is None and sg.labels is not None:
            elements = sg.element_set()
        elif elements is not None and sg.degree is not None:
            elements = ElementSet.of(elements, sg.degree)
        self.instances[ref] = Registered(ref, sg, elements, description)
        self._by_subject[ref] = []
        return ref

    def _inst(self, ref):
        try:
            return self.instances[ref]
        except KeyError:
            raise KeyError(f"unregistered instance {ref}") from None

    # -- checks and facts --------------------------------------------------

    def _add_check(self, name, passed, detail, rerun=None):
        cid = f"chk-{len(self.checks)}"
        self.checks[cid] = Check(cid, name, bool(passed), detail, rerun)
        return cid

    def _require(self, name, passed, detail, rerun=None, exc=SideConditionFailed):
        cid = self._add_check(name, passed, detail, rerun)
        if not passed:
            if exc is SideConditionFailed:
                raise SideConditionFailed(name, detail)
            raise exc(f"{name}: {detail}")
        return cid

    def _add_fact(self, subject, lo, hi, rule, premises=(), checks=()):
        if not 0 <= lo <= hi:
            raise ValueError(f"rule {rule} gives {subject} the interval [{lo},{hi}]")
        fact = Fact(len(self.facts), subject, lo, hi, rule,
                    tuple(dict.fromkeys(premises)), tuple(checks))
        self.facts.append(fact)
        self._by_subject[subject].append(fact.fact_id)
        return fact

    def current(self, ref):
        """Tightest known interval with its supporting fact ids."""
        ids = self._by_subject[ref]
        if not ids:
            return None
        lo, hi = 0, None
        lo_facts, hi_facts = (), ()
        for fid in ids:
            f = self.facts[fid]
            if f.lo > lo:
                lo, lo_facts = f.lo, (fid,)
            elif f.lo == lo and lo > 0:
                lo_facts += (fid,)
            if hi is None or f.hi < hi:
                hi, hi_facts = f.hi, (fid,)
            elif f.hi == hi:
                hi_facts += (fid,)
        if lo > hi:
            raise RuntimeError(f"inconsistent interval for {ref}: [{lo},{hi}]")
        return Entry(ref, lo, hi, lo_facts, hi_facts)

    # -- base facts --------------------------------------------------------

    def assert_base_facts(self, ref, compute_kernel=False):
        inst = self._inst(ref)
        sg = inst.sg
        facts = []
        aper = is_aperiodic(sg)
        if aper:
            c_aper = self._add_check(
                f"aperiodic({ref})", True, "trivial subgroups only",
                rerun=lambda: is_aperiodic(sg),
            )
            facts.append(self._add_fact(ref, 0, 0, "base-aperiodic", checks=(c_aper,)))
            return facts
        c_aper = self._add_check(
            f"non-aperiodic({ref})", True, "contains a non-trivial subgroup",
            rerun=lambda: not is_aperiodic(sg),
        )
        depth = essential_depth(sg)
        c_depth = self._add_check(
            f"essential-depth({ref})", True, f"depth {depth}",
            rerun=lambda: essential_depth(sg) == depth,
        )
        facts.append(
            self._add_fact(ref, 1, depth, "base-depth", checks=(c_aper, c_depth))
        )
        if is_inverse(sg):
            c_inv = self._add_check(
                f"inverse({ref})", True,
                "all elements regular, idempotents commute",
                rerun=lambda: is_inverse(sg),
            )
            facts.append(self._add_fact(ref, 0, 1, "base-inverse", checks=(c_inv,)))
        if compute_kernel:
            res = kernel(sg)
            c_ker = self._add_check(
                f"kernel-aperiodic({ref})", res.is_aperiodic,
                f"kernel has {len(res.kernel_ids)} elements, "
                + ("aperiodic" if res.is_aperiodic
                   else f"witness {encode(sg.elements[res.witness])}"),
                rerun=lambda: kernel(sg).is_aperiodic,
            )
            if res.is_aperiodic:
                facts.append(
                    self._add_fact(ref, 0, 1, "base-kernel-aperiodic", checks=(c_ker,))
                )
        return facts

    def add_axiom(self, ref, lo, hi, note):
        inst = self._inst(ref)
        if inst.ref.key not in self.allowed_axioms:
            raise SideConditionFailed(
                "axiom-allow-list", f"{ref} is not on the axiom allow-list"
            )
        cid = self._add_check(f"axiom({ref})", True, note)
        return self._add_fact(ref, lo, hi, "axiom", checks=(cid,))

    # -- rule registration (eager side-condition verification) -------------

    def apply_ideal_rule(self, s_ref, ideal_ref, quotient_ref):
        s = self._inst(s_ref)
        ideal = self._inst(ideal_ref)
        quot = self._inst(quotient_ref)
        ids = s.sg.ids_of(ideal.elements.labels)
        if (ids < 0).any():
            raise KeyError(f"{ideal_ref} has elements outside {s_ref}")
        ids = sorted(ids.tolist())

        def ideal_ok():
            try:
                rees_quotient(s.sg, ids)
                return True
            except NotAnIdeal:
                return False

        c1 = self._require(
            f"two-sided-ideal({ideal_ref} in {s_ref})", ideal_ok(),
            f"{len(ids)} elements closed under outer multiplication",
            rerun=ideal_ok, exc=NotAnIdeal,
        )
        rebuilt = rees_quotient(s.sg, ids)
        same = (rebuilt.size == quot.sg.size
                and (rebuilt.product_table() == quot.sg.product_table()).all())
        c2 = self._require(
            f"quotient-matches({quotient_ref})", same,
            f"Rees quotient of size {rebuilt.size} with adjoined zero",
            rerun=lambda: (rees_quotient(s.sg, ids).product_table()
                           == quot.sg.product_table()).all(),
        )
        self._apps.append(_RuleApp(
            "ideal", {"s": s_ref, "i": ideal_ref, "q": quotient_ref}, (c1, c2)
        ))

    def _check_local_pair(self, s, e_id, ideal_ref, local_ref):
        ideal = self._inst(ideal_ref)
        local = self._inst(local_ref)
        self._require(
            f"idempotent(e in {s.ref})", s.sg.mul(e_id, e_id) == e_id,
            f"element {encode(s.sg.elements[e_id])} squares to itself",
            rerun=lambda: s.sg.mul(e_id, e_id) == e_id, exc=NotIdempotent,
        )
        ses = principal_ideal(s.sg, e_id)
        ideal_ids = np.sort(s.sg.ids_of(ideal.elements.labels))
        c_i = self._require(
            f"ideal-is-SeS({ideal_ref})", np.array_equal(ses, ideal_ids),
            f"principal ideal has {len(ses)} elements",
            rerun=lambda: np.array_equal(principal_ideal(s.sg, e_id), ideal_ids),
        )
        ese = local_monoid(s.sg, e_id).element_set()
        c_l = self._require(
            f"local-is-eSe({local_ref})", ese == local.elements,
            f"local monoid has {len(ese)} elements",
            rerun=lambda: local_monoid(s.sg, e_id).element_set() == local.elements,
        )
        return c_i, c_l

    def apply_local_rule(self, s_ref, e_id, ideal_ref, local_ref):
        s = self._inst(s_ref)
        c_i, c_l = self._check_local_pair(s, e_id, ideal_ref, local_ref)
        self._apps.append(_RuleApp(
            "local", {"i": ideal_ref, "l": local_ref}, (c_i, c_l)
        ))

    def apply_principal_rule(self, s_ref, e_id, local_ref,
                             unit_gen_ids=None, idempotent_pool_ids=None):
        s = self._inst(s_ref)
        sg = s.sg
        unit_ids = set(units(sg))
        c1 = self._require(
            f"units-nontrivial({s_ref})", len(unit_ids) > 1,
            f"group of units has order {len(unit_ids)}",
            rerun=lambda: len(units(sg)) > 1,
        )
        nonunit_idem = sg.mul(e_id, e_id) == e_id and e_id not in unit_ids
        c2 = self._require(
            f"idempotent-nonunit(e in {s_ref})", nonunit_idem,
            f"element {encode(sg.elements[e_id])} is an idempotent outside the units",
            rerun=lambda: sg.mul(e_id, e_id) == e_id and e_id not in set(units(sg)),
        )
        gens = sorted(unit_ids) if unit_gen_ids is None else sorted(unit_gen_ids)
        units_gen = set(generated_subsemigroup(sg, gens)) == unit_ids
        c3 = self._require(
            f"unit-generators({s_ref})", units_gen,
            f"{len(gens)} generators span the {len(unit_ids)} units",
            rerun=lambda: set(generated_subsemigroup(sg, gens)) == set(units(sg)),
        )
        whole = len(generated_subsemigroup(sg, gens + [e_id])) == sg.size
        c4 = self._require(
            f"units-and-e-generate({s_ref})", whole,
            "units together with e generate the whole monoid",
            rerun=lambda: len(generated_subsemigroup(sg, gens + [e_id])) == sg.size,
        )
        ses_ids = principal_ideal(sg, e_id)

        if idempotent_pool_ids is None:
            pool = list(sg.idempotent_ids())
        else:
            pool = sorted(idempotent_pool_ids)
        def pool_idempotent():
            ids = np.asarray(pool, dtype=np.int64)
            return bool((sg.multiply(ids, ids) == ids).all())

        c5 = self._require(
            f"pool-idempotent({s_ref})", pool_idempotent(),
            f"all {len(pool)} pool elements are idempotent",
            rerun=pool_idempotent,
        )

        def covered():
            return set(ses_ids) <= set(generated_subsemigroup(sg, pool))

        c6 = self._require(
            f"SeS-in-idempotent-span({s_ref})", covered(),
            f"ideal of {len(ses_ids)} elements inside the idempotent span",
            rerun=covered,
        )
        ese = local_monoid(sg, e_id).element_set()
        local = self._inst(local_ref)
        c7 = self._require(
            f"local-is-eSe({local_ref})", ese == local.elements,
            f"local monoid has {len(ese)} elements",
            rerun=lambda: local_monoid(sg, e_id).element_set() == local.elements,
        )
        self._apps.append(_RuleApp(
            "principal", {"s": s_ref, "l": local_ref}, (c1, c2, c3, c4, c5, c6, c7)
        ))

    def apply_kernel_chain_rule(self, s_ref, kernel_ref):
        s = self._inst(s_ref)
        chain = t1_chain(s.sg)
        c1 = self._require(
            f"t1-chain({s_ref})", chain is not None,
            "no left-order chain over the generator pool" if chain is None
            else "generators chain as "
            + " <= ".join(encode(s.sg.elements[i]) for i in chain),
            rerun=lambda: t1_chain(s.sg) is not None,
        )
        c2 = self._require(
            f"non-aperiodic({s_ref})", not is_aperiodic(s.sg),
            "contains a non-trivial subgroup",
            rerun=lambda: not is_aperiodic(s.sg),
        )
        res = kernel(s.sg)
        kset = s.sg.element_set(res.kernel_ids)
        ker = self._inst(kernel_ref)
        c3 = self._require(
            f"kernel-matches({kernel_ref})", kset == ker.elements,
            f"kernel fixpoint has {len(kset)} elements "
            f"after {res.iterations} rounds",
            rerun=lambda: s.sg.element_set(kernel(s.sg).kernel_ids) == ker.elements,
        )
        self._apps.append(_RuleApp(
            "kernel-chain", {"s": s_ref, "k": kernel_ref}, (c1, c2, c3)
        ))

    def apply_subsemigroup_rule(self, t_ref, s_ref):
        t = self._inst(t_ref)
        s = self._inst(s_ref)
        if t.elements is None or s.elements is None:
            raise NotASubsemigroup("element sets unavailable for containment")
        contained = t.elements <= s.elements
        c1 = self._require(
            f"subset({t_ref} in {s_ref})", contained,
            f"{len(t.elements)} elements inside {len(s.elements)}",
            rerun=lambda: t.elements <= s.elements, exc=NotASubsemigroup,
        )
        self._apps.append(_RuleApp("sub", {"t": t_ref, "s": s_ref}, (c1,)))

    def apply_isomorphism_rule(self, a_ref, b_ref, mapping):
        a = self._inst(a_ref)
        b = self._inst(b_ref)
        m = a.sg.size
        c1 = self._require(
            f"iso-bijection({a_ref} -> {b_ref})",
            _iso_bijective(a.sg, b.sg, mapping),
            f"mapping is a bijection on {m} elements",
            rerun=lambda: _iso_bijective(a.sg, b.sg, mapping),
        )
        c2 = self._require(
            f"iso-multiplicative({a_ref} -> {b_ref})",
            _iso_multiplicative(a.sg, b.sg, mapping),
            f"checked all {m ** 2} products",
            rerun=lambda: _iso_multiplicative(a.sg, b.sg, mapping),
        )
        self._apps.append(_RuleApp("iso", {"a": a_ref, "b": b_ref}, (c1, c2)))

    # -- propagation -------------------------------------------------------

    def _narrow(self, ref, lo, hi, rule, premises, checks):
        cur = self.current(ref)
        new_lo = max(cur.lo, lo)
        new_hi = cur.hi if hi is None else min(cur.hi, hi)
        if new_lo > new_hi:
            raise RuntimeError(
                f"rule {rule} drives {ref} to the empty interval "
                f"[{new_lo},{new_hi}]"
            )
        if new_lo == cur.lo and new_hi == cur.hi:
            return False
        support = ()
        if new_lo == cur.lo:
            support += cur.lo_facts
        if new_hi == cur.hi:
            support += cur.hi_facts
        self._add_fact(ref, new_lo, new_hi, rule,
                       premises=tuple(premises) + support, checks=checks)
        return True

    def _propagate(self, app):
        k = app.kind
        if k == "ideal":
            s, i, q = app.refs["s"], app.refs["i"], app.refs["q"]
            ci, cq = self.current(i), self.current(q)
            return self._narrow(
                s, 0, ci.hi + cq.hi, "ideal",
                ci.hi_facts + cq.hi_facts, app.checks,
            )
        if k == "local":
            i, l = app.refs["i"], app.refs["l"]
            ci, cl = self.current(i), self.current(l)
            changed = self._narrow(i, cl.lo, cl.hi, "local",
                                   cl.lo_facts + cl.hi_facts, app.checks)
            cl = self.current(l)
            ci = self.current(i)
            changed |= self._narrow(l, ci.lo, ci.hi, "local",
                                    ci.lo_facts + ci.hi_facts, app.checks)
            return changed
        if k == "principal":
            s, l = app.refs["s"], app.refs["l"]
            cl = self.current(l)
            changed = self._narrow(s, cl.lo + 1, cl.hi + 1, "principal",
                                   cl.lo_facts + cl.hi_facts, app.checks)
            cs = self.current(s)
            changed |= self._narrow(l, max(cs.lo - 1, 0), max(cs.hi - 1, 0),
                                    "principal", cs.lo_facts + cs.hi_facts,
                                    app.checks)
            return changed
        if k == "kernel-chain":
            s, kref = app.refs["s"], app.refs["k"]
            ck = self.current(kref)
            return self._narrow(s, ck.lo + 1, None, "kernel-chain",
                                ck.lo_facts, app.checks)
        if k == "sub":
            t, s = app.refs["t"], app.refs["s"]
            ct, cs = self.current(t), self.current(s)
            changed = self._narrow(s, ct.lo, None, "sub", ct.lo_facts, app.checks)
            cs = self.current(s)
            changed |= self._narrow(t, 0, cs.hi, "sub", cs.hi_facts, app.checks)
            return changed
        if k == "iso":
            a, b = app.refs["a"], app.refs["b"]
            ca, cb = self.current(a), self.current(b)
            changed = self._narrow(a, cb.lo, cb.hi, "iso",
                                   cb.lo_facts + cb.hi_facts, app.checks)
            cb = self.current(b)
            ca = self.current(a)
            changed |= self._narrow(b, ca.lo, ca.hi, "iso",
                                    ca.lo_facts + ca.hi_facts, app.checks)
            return changed
        raise ValueError(f"unknown rule kind {k!r}")

    def derive_all(self, exclude_rules=(), order_seed=None):
        """Iterate all registered rule applications to the fixpoint."""
        for ref in self.instances:
            if not self._by_subject[ref]:
                raise RuntimeError(f"{ref} has no base facts; derive would be vacuous")
        apps = [a for a in self._apps if a.kind not in set(exclude_rules)]
        if order_seed is not None:
            apps = list(apps)
            random.Random(order_seed).shuffle(apps)
        changed = True
        while changed:
            changed = False
            for app in apps:
                changed |= self._propagate(app)
        return {ref: self.current(ref) for ref in self.instances}

    # -- reporting ---------------------------------------------------------

    def derivation_tree(self, ref, _seen=None):
        """Nested view of the facts supporting the current interval."""
        cur = self.current(ref)
        seen = set() if _seen is None else _seen

        def fact_node(fid):
            f = self.facts[fid]
            node = {
                "fact": fid,
                "subject": f.subject.key,
                "interval": [f.lo, f.hi],
                "rule": f.rule,
                "checks": [
                    {"check": c, "name": self.checks[c].name,
                     "passed": self.checks[c].passed,
                     "detail": self.checks[c].detail}
                    for c in f.checks
                ],
            }
            if fid in seen:
                node["premises"] = "..."
                return node
            seen.add(fid)
            node["premises"] = [fact_node(p) for p in f.premises]
            return node

        return {
            "subject": ref.key,
            "interval": [cur.lo, cur.hi],
            "open": cur.is_open,
            "facts": [fact_node(f) for f in dict.fromkeys(cur.lo_facts + cur.hi_facts)],
        }

    def verify_sample(self, count=20, seed=0):
        """Re-run a random sample of stored side-condition checks.

        Raises CrossCheckFailed, naming the check, when a rerun disagrees
        with the stored verdict.
        """
        rng = random.Random(seed)
        rerunnable = [c for c in self.checks.values() if c.rerun is not None]
        sample = rng.sample(rerunnable, min(count, len(rerunnable)))
        for check in sample:
            if bool(check.rerun()) != check.passed:
                raise CrossCheckFailed(
                    f"check {check.check_id} ({check.name}) no longer reproduces")
        return len(sample)
