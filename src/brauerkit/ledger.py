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

Each side condition is one test returning (verdict, detail); the test is
run once to record the check, and a check's rerun is that same test, so
a replay runs the code that gave the stored verdict.  The side
conditions are functions of closure ids and label arrays: none multiplies
diagrams or makes one per element.  The iso rule's mapping takes a label
array to a label array (such as diagrams.pads); phi, a's ids to b's, is
one ids_of call on the image of a's labels, and phi(x y) is compared with
phi(x) phi(y) for every pair of ids.  A registered instance is its
closure alone (Ledger.instances maps each ref to its closure): the ideal
rule asks is_ideal of the ids, and the local, kernel-chain and subset
rules compare element sets read from the closures' labels.

Each rule application is data: its checks and its bound moves (see
_RuleApp).  derive_all iterates the moves to a fixpoint; the
result is order independent (monotone interval narrowing), which the test
suite asserts by shuffled reruns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# _PAIR_BATCH is read through engine, so a patch of it reaches the ledger
from . import engine
from .diagrams import encode, from_labels
from .engine import (
    essential_depth,
    generated_subsemigroup,
    is_aperiodic,
    is_ideal,
    is_inverse,
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
    rerun: object  # the check's own test, giving the verdict


@dataclass(frozen=True)
class Fact:
    fact_id: int
    subject: InstanceRef
    lo: int
    hi: int
    rule: str
    premises: tuple = ()  # fact ids
    checks: tuple = ()  # check ids


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


@dataclass(frozen=True)
class _RuleApp:
    """A rule application: its checks, and the bound moves it makes.

    A move (dst, srcs, shift, lo, hi) narrows dst to the sum of the bounds
    of srcs plus shift, floored at 0: the lower bound when lo is set, the
    upper bound when hi is set.  Its premises are the sources' lo_facts,
    then their hi_facts.
    """
    kind: str
    checks: tuple
    moves: tuple


def _tied(a, b, shift=0):
    """Moves giving a the interval of b plus shift, then b that of a minus it."""
    return ((a, (b,), shift, True, True), (b, (a,), -shift, True, True))


def _iso_ids(a_sg, b_sg, mapping):
    """phi[i] = the id in b_sg of row i of mapping(a_sg.labels), -1 for a
    row that is not an element's label array (everywhere, when the images
    are not one row of b_sg's degree per element of a_sg)."""
    images = np.asarray(mapping(a_sg.labels))
    if images.ndim != 2 or len(images) != a_sg.size:
        return np.full(a_sg.size, -1, dtype=np.int64)
    return b_sg.ids_of(images)


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
    step = max(1, engine._PAIR_BATCH // max(1, m))
    for lo in range(0, m, step):
        xs = ids[lo:lo + step, None]
        if (phi[a_sg.multiply(xs, ids)] != b_sg.multiply(phi[xs], phi)).any():
            return False
    return True


class Ledger:
    def __init__(self):
        self.instances = {}
        self.facts = []
        self.checks = {}
        self._apps = []
        self._by_subject = {}

    # -- registration ------------------------------------------------------

    def register(self, kind, key, sg):
        ref = InstanceRef(kind, key)
        if ref in self.instances:
            raise ValueError(f"instance {key!r} already registered")
        self.instances[ref] = sg
        self._by_subject[ref] = []
        return ref

    def _inst(self, ref):
        try:
            return self.instances[ref]
        except KeyError:
            raise KeyError(f"unregistered instance {ref}") from None

    # -- checks and facts --------------------------------------------------

    def _check(self, name, test, exc=SideConditionFailed):
        """Record test()'s (verdict, detail); test itself is the rerun.

        A failed verdict raises exc, unless exc is None (base facts only
        record).
        """
        passed, detail = test()
        cid = f"chk-{len(self.checks)}"
        self.checks[cid] = Check(cid, name, bool(passed), detail,
                                 lambda: bool(test()[0]))
        if not passed and exc is not None:
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
        sg = self._inst(ref)
        if is_aperiodic(sg):
            c_aper = self._check(
                f"aperiodic({ref})",
                lambda: (is_aperiodic(sg), "trivial subgroups only"), exc=None)
            return [self._add_fact(ref, 0, 0, "base-aperiodic", checks=(c_aper,))]
        c_aper = self._check(
            f"non-aperiodic({ref})",
            lambda: (not is_aperiodic(sg), "contains a non-trivial subgroup"),
            exc=None)
        depth = essential_depth(sg)
        c_depth = self._check(
            f"essential-depth({ref})",
            lambda: (essential_depth(sg) == depth, f"depth {depth}"), exc=None)
        facts = [self._add_fact(ref, 1, depth, "base-depth", checks=(c_aper, c_depth))]
        if is_inverse(sg):
            c_inv = self._check(
                f"inverse({ref})",
                lambda: (is_inverse(sg), "all elements regular, idempotents commute"),
                exc=None)
            facts.append(self._add_fact(ref, 0, 1, "base-inverse", checks=(c_inv,)))
        if compute_kernel:
            def kernel_aperiodic():
                res = kernel(sg)
                return res.is_aperiodic, (
                    f"kernel has {len(res.kernel_ids)} elements, "
                    + ("aperiodic" if res.is_aperiodic
                       else f"witness {encode(from_labels(sg.labels[res.witness]))}"))

            c_ker = self._check(f"kernel-aperiodic({ref})", kernel_aperiodic,
                                exc=None)
            if self.checks[c_ker].passed:
                facts.append(self._add_fact(ref, 0, 1, "base-kernel-aperiodic",
                                            checks=(c_ker,)))
        return facts

    # -- rule registration (eager side-condition verification) -------------

    def apply_ideal_rule(self, s_ref, ideal_ref, quotient_ref):
        s = self._inst(s_ref)
        ideal = self._inst(ideal_ref)
        quot = self._inst(quotient_ref)
        ids = s.ids_of(ideal.labels)
        if (ids < 0).any():
            raise KeyError(f"{ideal_ref} has elements outside {s_ref}")
        ids = np.sort(ids)

        def two_sided():
            return (is_ideal(s, ids),
                    f"{len(ids)} elements closed under outer multiplication")

        def quotient_matches():
            rebuilt = rees_quotient(s, ids)
            return (all(np.array_equal(getattr(rebuilt, part), getattr(quot, part))
                        for part in ("generators", "right_cayley", "left_cayley")),
                    f"Rees quotient of size {rebuilt.size} with adjoined zero")

        checks = (
            self._check(f"two-sided-ideal({ideal_ref} in {s_ref})", two_sided,
                        exc=NotAnIdeal),
            self._check(f"quotient-matches({quotient_ref})", quotient_matches),
        )
        self._apps.append(_RuleApp(
            "ideal", checks, ((s_ref, (ideal_ref, quotient_ref), 0, False, True),)))

    def _check_local_is_ese(self, sg, e_id, local_ref):
        local = self._inst(local_ref)

        def local_is_ese():
            ese_ids = np.unique(sg.multiply(e_id, sg.multiply(np.arange(sg.size), e_id)))
            ese = sg.element_set(ese_ids)
            return ese == local.element_set(), f"local monoid has {len(ese)} elements"

        return self._check(f"local-is-eSe({local_ref})", local_is_ese)

    def apply_local_rule(self, s_ref, e_id, ideal_ref, local_ref):
        sg = self._inst(s_ref)
        ideal = self._inst(ideal_ref)
        squares = f"element {encode(from_labels(sg.labels[e_id]))} squares to itself"
        self._check(f"idempotent(e in {s_ref})",
                    lambda: (int(sg.multiply(e_id, e_id)) == e_id, squares), exc=NotIdempotent)
        ideal_ids = np.sort(sg.ids_of(ideal.labels))

        def ideal_is_ses():
            ses = principal_ideal(sg, e_id)
            return (np.array_equal(ses, ideal_ids),
                    f"principal ideal has {len(ses)} elements")

        checks = (self._check(f"ideal-is-SeS({ideal_ref})", ideal_is_ses),
                  self._check_local_is_ese(sg, e_id, local_ref))
        self._apps.append(_RuleApp("local", checks, _tied(ideal_ref, local_ref)))

    def apply_principal_rule(self, s_ref, e_id, local_ref,
                             unit_gen_ids=None, idempotent_pool_ids=None):
        sg = self._inst(s_ref)
        unit_ids = units(sg)
        gens = unit_ids if unit_gen_ids is None else np.unique(unit_gen_ids)
        pool = (sg.idempotent_ids() if idempotent_pool_ids is None
                else np.unique(idempotent_pool_ids))
        ses_ids = principal_ideal(sg, e_id)
        outside = (f"element {encode(from_labels(sg.labels[e_id]))} is an idempotent "
                   "outside the units")

        def units_nontrivial():
            order = len(units(sg))
            return order > 1, f"group of units has order {order}"

        def pool_idempotent():
            return (bool((sg.multiply(pool, pool) == pool).all()),
                    f"all {len(pool)} pool elements are idempotent")

        checks = (
            self._check(f"units-nontrivial({s_ref})", units_nontrivial),
            self._check(
                f"idempotent-nonunit(e in {s_ref})",
                lambda: (int(sg.multiply(e_id, e_id)) == e_id and e_id not in units(sg),
                         outside)),
            self._check(
                f"unit-generators({s_ref})",
                lambda: (np.array_equal(generated_subsemigroup(sg, gens), units(sg)),
                         f"{len(gens)} generators span the {len(unit_ids)} units")),
            self._check(
                f"units-and-e-generate({s_ref})",
                lambda: (len(generated_subsemigroup(sg, np.append(gens, e_id))) == sg.size,
                         "units together with e generate the whole monoid")),
            self._check(f"pool-idempotent({s_ref})", pool_idempotent),
            self._check(
                f"SeS-in-idempotent-span({s_ref})",
                lambda: (np.isin(ses_ids, generated_subsemigroup(sg, pool)).all(),
                         f"ideal of {len(ses_ids)} elements inside the idempotent span")),
            self._check_local_is_ese(sg, e_id, local_ref),
        )
        self._apps.append(_RuleApp("principal", checks, _tied(s_ref, local_ref, 1)))

    def apply_kernel_chain_rule(self, s_ref, kernel_ref):
        sg = self._inst(s_ref)
        ker = self._inst(kernel_ref)

        def chain():
            ids = t1_chain(sg)
            return ids is not None, (
                "no left-order chain over the generator pool" if ids is None
                else "generators chain as "
                + " <= ".join(encode(from_labels(sg.labels[i])) for i in ids))

        def kernel_matches():
            res = kernel(sg)
            kset = sg.element_set(res.kernel_ids)
            return kset == ker.element_set(), (
                f"kernel fixpoint has {len(kset)} elements "
                f"after {res.iterations} rounds")

        checks = (
            self._check(f"t1-chain({s_ref})", chain),
            self._check(f"non-aperiodic({s_ref})",
                        lambda: (not is_aperiodic(sg), "contains a non-trivial subgroup")),
            self._check(f"kernel-matches({kernel_ref})", kernel_matches),
        )
        self._apps.append(_RuleApp(
            "kernel-chain", checks, ((s_ref, (kernel_ref,), 1, True, False),)))

    def apply_subsemigroup_rule(self, t_ref, s_ref):
        t_sg, s_sg = self._inst(t_ref), self._inst(s_ref)
        if t_sg.labels is None or s_sg.labels is None:
            raise NotASubsemigroup("element sets unavailable for containment")
        t, s = t_sg.element_set(), s_sg.element_set()
        c1 = self._check(f"subset({t_ref} in {s_ref})",
                         lambda: (t <= s, f"{len(t)} elements inside {len(s)}"),
                         exc=NotASubsemigroup)
        self._apps.append(_RuleApp("sub", (c1,), (
            (s_ref, (t_ref,), 0, True, False), (t_ref, (s_ref,), 0, False, True))))

    def apply_isomorphism_rule(self, a_ref, b_ref, mapping):
        a = self._inst(a_ref)
        b = self._inst(b_ref)
        checks = (
            self._check(f"iso-bijection({a_ref} -> {b_ref})",
                        lambda: (_iso_bijective(a, b, mapping),
                                 f"mapping is a bijection on {a.size} elements")),
            self._check(f"iso-multiplicative({a_ref} -> {b_ref})",
                        lambda: (_iso_multiplicative(a, b, mapping),
                                 f"checked all {a.size ** 2} products")),
        )
        self._apps.append(_RuleApp("iso", checks, _tied(a_ref, b_ref)))

    # -- propagation -------------------------------------------------------

    def _move(self, app, dst, srcs, shift, lo, hi):
        """Narrow dst to the summed bounds of srcs plus shift, floored at 0."""
        cur = self.current(dst)
        have = [self.current(r) for r in srcs]
        new_lo = max(cur.lo, sum(c.lo for c in have) + shift) if lo else cur.lo
        new_hi = min(cur.hi, max(0, sum(c.hi for c in have) + shift)) if hi else cur.hi
        if new_lo > new_hi:
            raise RuntimeError(f"rule {app.kind} drives {dst} to the empty "
                               f"interval [{new_lo},{new_hi}]")
        if (new_lo, new_hi) == (cur.lo, cur.hi):
            return False
        premises = [f for c in have if lo for f in c.lo_facts]
        premises += [f for c in have if hi for f in c.hi_facts]
        premises += cur.lo_facts if new_lo == cur.lo else ()
        premises += cur.hi_facts if new_hi == cur.hi else ()
        self._add_fact(dst, new_lo, new_hi, app.kind, premises, app.checks)
        return True

    def derive_all(self, exclude_rules=(), order_seed=None):
        """Iterate all registered rule applications to the fixpoint."""
        for ref in self.instances:
            if not self._by_subject[ref]:
                raise RuntimeError(f"{ref} has no base facts; derive would be vacuous")
        skip = set(exclude_rules)
        apps = [a for a in self._apps if a.kind not in skip]
        if order_seed is not None:
            random.Random(order_seed).shuffle(apps)
        changed = True
        while changed:
            changed = False
            for app in apps:
                for move in app.moves:
                    changed |= self._move(app, *move)
        return {ref: self.current(ref) for ref in self.instances}

    # -- reporting ---------------------------------------------------------

    def derivation_tree(self, ref):
        """Nested view of the facts supporting the current interval."""
        cur = self.current(ref)
        seen = set()

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
        checks = list(self.checks.values())
        sample = rng.sample(checks, min(count, len(checks)))
        for check in sample:
            if bool(check.rerun()) != check.passed:
                raise CrossCheckFailed(
                    f"check {check.check_id} ({check.name}) no longer reproduces")
        return len(sample)
