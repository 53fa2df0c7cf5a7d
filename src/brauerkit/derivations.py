"""Standard complexity derivations for the diagram families.

build_standard_ledger registers the family instances alongside the
auxiliary objects their derivations route through (singular ideals, Rees
quotients, padded copies of smaller families, the distinguished chain
subsemigroup of EA_6 with its group kernel) and records every rule
application.  Calling derive_all on the result reproduces the complexity
table; the only interval left open is PA_4.

Derivation routes, per family:

  J_n           aperiodic, so complexity 0 outright
  B_n (n >= 4)  principal rule at the end-cap idempotent: the local monoid
                is a padded copy of B_{n-2}, and complexity steps up by one
  A_4           depth bound [1,2] plus an aperiodic group kernel cap
  A_5           principal rule over the padded A_3
  A_6           upper bound: singular ideal + inverse quotient + local
                monoid; lower bound: contains EA_6
  EA_6          upper bound as for A_6; lower bound: the chain subsemigroup
                generated by the double contraction satisfies the
                kernel-chain rule over its non-aperiodic group kernel
  PB_n, PA_n    ideal of rank <= n-2, inverse quotient, local monoid a
                padded copy two degrees down; PB_4's lower bound comes from
                the contained B_4
"""

from __future__ import annotations

from .diagrams import (
    adjacent_contraction,
    contraction,
    double_contraction,
    from_permutation,
    label_array,
    pads,
    rotation,
)
from .engine import (
    closure,
    idempotent_generated,
    principal_ideal,
    rees_quotient,
    subsemigroup,
)
from .families import as_closure, construct
from .kernel import kernel
from .ledger import InstanceRef, Ledger

FAMILY_ROWS = (
    ("B", (1, 2, 3, 4, 5, 6)),
    ("J", (1, 2, 3, 4, 5, 6)),
    ("A", (1, 2, 3, 4, 5, 6)),
    ("EA", (2, 4, 6)),
    ("PB", (1, 2, 3, 4)),
    ("PA", (1, 2, 3, 4)),
)

_FAMILY_TEXT = {
    "B": "perfect-matching diagrams of degree {n}",
    "J": "planar perfect-matching diagrams of degree {n}",
    "A": "annular perfect-matching diagrams of degree {n}",
    "EA": "even annular perfect-matching diagrams of degree {n}",
    "PB": "partial-matching diagrams of degree {n}",
    "PA": "annular partial-matching diagrams of degree {n}",
}


def _register_family(ledger, code, n, compute_kernel=False):
    sg = as_closure(construct(code, n))
    ref = ledger.register(
        "family", f"{code}:{n}", sg,
        description=_FAMILY_TEXT[code].format(n=n),
    )
    ledger.assert_base_facts(ref, compute_kernel=compute_kernel)
    return ref, sg


def _register_pad(ledger, code, n, small_sg, fam_ref, big_sg):
    """Padded copy of the degree-n family inside the degree-(n+2) one.

    The image equals the local monoid of the larger family at its end-cap
    idempotent, which is what the local and principal rules consume.  It
    is big_sg restricted to the images, in small_sg's order.
    """
    target = n + 2
    padded = subsemigroup(big_sg, big_sg.ids_of(pads(small_sg.labels, target)))
    ref = ledger.register(
        "pad", f"pad({code}:{n})", padded,
        description=f"degree-{target} copies of {code}:{n} with a fixed end-cap",
    )
    ledger.assert_base_facts(ref)
    ledger.apply_isomorphism_rule(fam_ref, ref, lambda labs: pads(labs, target))
    return ref


def _register_ideal(ledger, key, sg, ids, description):
    """Ideal of a closure as sg restricted to its ids, in id order."""
    ref = ledger.register("ideal", key, subsemigroup(sg, sorted(ids)),
                          description=description)
    ledger.assert_base_facts(ref)
    return ref


def _register_quotient(ledger, key, sg, ids, description):
    quot = rees_quotient(sg, sorted(ids))
    ref = ledger.register("quotient", key, quot, description=description)
    ledger.assert_base_facts(ref)
    return ref


def _ideal_local_chain(ledger, code, n, fam_ref, sg, pad_ref, ideal_key, quot_key):
    """Shared upper-bound route: principal ideal at the end-cap, Rees
    quotient, and the local rule tying the ideal to the padded copy."""
    [e_id] = _ids(sg, [adjacent_contraction(n, n - 1)])
    ids = principal_ideal(sg, e_id)
    ideal_ref = _register_ideal(
        ledger, ideal_key, sg, ids,
        f"ideal of {code}:{n} generated by the end-cap idempotent",
    )
    quot_ref = _register_quotient(
        ledger, quot_key, sg, ids,
        f"Rees quotient of {code}:{n} by {ideal_key}",
    )
    ledger.apply_ideal_rule(fam_ref, ideal_ref, quot_ref)
    ledger.apply_local_rule(fam_ref, e_id, ideal_ref, pad_ref)
    return ideal_ref, quot_ref


def _ids(sg, ds):
    """The ids in sg of the diagrams ds, by one lookup; KeyError names the
    first of them outside sg."""
    ids = sg.ids_of(label_array(ds, sg.degree))
    if (ids < 0).any():
        raise KeyError(ds[int((ids < 0).argmax())])
    return ids.tolist()


def _brauer_unit_gens(n):
    return [from_permutation(n, (2, 1) + tuple(range(3, n + 1))),
            from_permutation(n, tuple(range(2, n + 1)) + (1,))]


def _apply_principal(ledger, n, fam_ref, sg, pad_ref, unit_gens, pool=None):
    """The principal rule at the end-cap idempotent, over the units the
    diagrams unit_gens generate and the idempotents pool (all of sg's when
    None), their ids looked up at once."""
    e_id, *ids = _ids(sg, [adjacent_contraction(n, n - 1), *unit_gens, *(pool or ())])
    ledger.apply_principal_rule(
        fam_ref, e_id, pad_ref, unit_gen_ids=sorted(set(ids[:len(unit_gens)])),
        idempotent_pool_ids=None if pool is None else ids[len(unit_gens):],
    )


def _contractions(n):
    return [contraction(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def t1sub_ea6():
    """The chain-generated submonoid of EA:6 with the double contraction."""
    zeta2 = rotation(6) * rotation(6)
    g5 = adjacent_contraction(6, 5)
    g65 = adjacent_contraction(6, 6) * g5
    return closure([zeta2, g5, g65, double_contraction(6)], include_identity=True)


def build_standard_ledger():
    """Register every instance and rule application of the standard table.

    Returns the ledger before derivation so callers can run derive_all with
    their own rule exclusions or orderings.
    """
    led = Ledger()
    fam = {}
    sgs = {}
    for code, degrees in FAMILY_ROWS:
        for n in degrees:
            compute_kernel = (code, n) in {("A", 4), ("PA", 4)}
            fam[code, n], sgs[code, n] = _register_family(
                led, code, n, compute_kernel=compute_kernel
            )

    padded = {}
    for code, n in [("B", 1), ("B", 2), ("B", 3), ("B", 4),
                    ("A", 1), ("A", 3), ("A", 4), ("EA", 4),
                    ("PB", 1), ("PB", 2), ("PA", 1), ("PA", 2)]:
        padded[code, n] = _register_pad(led, code, n, sgs[code, n], fam[code, n],
                                        sgs[code, n + 2])

    # Brauer tower: principal rule at the end-cap, one step per two degrees.
    for n in (3, 4, 5, 6):
        _apply_principal(led, n, fam["B", n], sgs["B", n], padded["B", n - 2],
                         _brauer_unit_gens(n), pool=_contractions(n))

    # Annular tower, odd degrees: principal rule over the rotation units.
    for n in (3, 5):
        _apply_principal(led, n, fam["A", n], sgs["A", n], padded["A", n - 2],
                         [rotation(n)])

    # Even annular and annular degree 6: singular ideal, inverse quotient,
    # local monoid two degrees down.
    _ideal_local_chain(led, "EA", 6, fam["EA", 6], sgs["EA", 6],
                       padded["EA", 4], "sing(EA:6)", "quot(EA:6/sing)")
    _ideal_local_chain(led, "A", 6, fam["A", 6], sgs["A", 6],
                       padded["A", 4], "sing(A:6)", "quot(A:6/sing)")
    led.apply_subsemigroup_rule(fam["EA", 6], fam["A", 6])

    # Lower bound for EA_6: the chain subsemigroup generated by the double
    # contraction, whose group kernel contains a padded EA_4.
    t1 = t1sub_ea6()
    t1_ref = led.register(
        "sub", "t1sub(EA:6)", t1,
        description="chain-generated submonoid of EA:6 with the double contraction",
    )
    led.assert_base_facts(t1_ref)

    ker_sg = subsemigroup(t1, kernel(t1).kernel_ids)
    ker_ref = led.register(
        "kernel", "kernel(t1sub(EA:6))", ker_sg,
        description="group kernel of t1sub(EA:6)",
    )
    led.assert_base_facts(ker_ref)

    egen_sg = subsemigroup(t1, idempotent_generated(t1))
    egen_ref = led.register(
        "egen", "egen(t1sub(EA:6))", egen_sg,
        description="idempotent-generated subsemigroup of t1sub(EA:6)",
    )
    led.assert_base_facts(egen_ref)

    led.apply_subsemigroup_rule(padded["EA", 4], egen_ref)
    led.apply_subsemigroup_rule(egen_ref, ker_ref)
    led.apply_kernel_chain_rule(t1_ref, ker_ref)
    led.apply_subsemigroup_rule(t1_ref, fam["EA", 6])

    # Partial-matching towers: ideal + quotient + local, then contained
    # full-matching families for lower bounds.
    for code in ("PB", "PA"):
        for n in (3, 4):
            _ideal_local_chain(
                led, code, n, fam[code, n], sgs[code, n], padded[code, n - 2],
                f"ideal({code}:{n},rk{n - 2})", f"quot({code}:{n}/rk{n - 2})",
            )
    led.apply_subsemigroup_rule(fam["B", 4], fam["PB", 4])
    led.apply_subsemigroup_rule(fam["A", 4], fam["PA", 4])
    return led


def standard_table(entries=None):
    """Rows of the complexity table as plain dicts."""
    if entries is None:
        entries = build_standard_ledger().derive_all()
    rows = []
    for code, degrees in FAMILY_ROWS:
        for n in degrees:
            entry = entries[InstanceRef("family", f"{code}:{n}")]
            rows.append({
                "family": code,
                "n": n,
                "lo": entry.lo,
                "hi": entry.hi,
                "open": entry.is_open,
            })
    return rows
