"""Which brauerkit functions the traced run times, and the per-layer metrics.

The layers are the package's modules: diagrams, families, engine, kernel,
ledger (with derivations) and store.  Each span name below is also the
stem of its ``<name>_s`` self-time metric.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

from brauerkit import diagrams, engine, families, ledger, store

# The package attribute `brauerkit.kernel` is the function, not the module.
kernel_mod = sys.modules["brauerkit.kernel"]

RULE_METHODS = {
    "ideal": "apply_ideal_rule",
    "local": "apply_local_rule",
    "principal": "apply_principal_rule",
    "kernel-chain": "apply_kernel_chain_rule",
    "sub": "apply_subsemigroup_rule",
    "iso": "apply_isomorphism_rule",
}

# Name prefixes (the text before "(") of the ledger checks that carry a
# rerun.  A check whose prefix is not listed is timed as "other".
REPLAY_PREFIXES = (
    "aperiodic", "non-aperiodic", "essential-depth", "inverse",
    "kernel-aperiodic", "two-sided-ideal", "quotient-matches", "idempotent",
    "ideal-is-SeS", "local-is-eSe", "units-nontrivial", "idempotent-nonunit",
    "unit-generators", "units-and-e-generate", "pool-idempotent",
    "SeS-in-idempotent-span", "t1-chain", "kernel-matches", "subset",
    "iso-bijection", "iso-multiplicative", "other",
)

# Families and degrees of the product microbench, as (metric suffix, code, n).
PRODUCT_SAMPLES = (
    ("B4", "B", 4), ("B6", "B", 6), ("PB4", "PB", 4),
    ("PA4", "PA", 4), ("C4", "C", 4), ("J9", "J", 9),
)

SELF_TIME_SPANS = (
    "families.construct", "families.as_closure",
    "engine.closure", "engine.green", "engine.closure_from_elements",
    "engine.is_aperiodic", "engine.rees_quotient", "engine.local_monoid",
    "engine.generated_subsemigroup", "engine.product_table",
    "kernel.kernel", "kernel.weak_inverse_pairs",
    "ledger.base_facts", "ledger.derive",
    *(f"ledger.rule.{rule}" for rule in RULE_METHODS),
    *(f"ledger.replay.{prefix}" for prefix in REPLAY_PREFIXES),
    "store.save", "store.load",
)

COUNTS = (
    "engine.closure_elems", "engine.closure_from_elements_cells",
    "kernel.pairs", "kernel.rounds", "kernel.kernel_elems",
    "ledger.checks", "store.bytes",
)


def replay_span_name(check_name):
    prefix = check_name.split("(", 1)[0]
    if prefix not in REPLAY_PREFIXES:
        prefix = "other"
    return f"ledger.replay.{prefix}"


def install(tracer):
    """Wrap every timed function; undo with tracer.unpatch()."""
    tracer.patch_function(diagrams.multiply,
                          tracer.leaf_wrapper(diagrams.multiply))

    def wrap(module, attr, name, count=None, info=None):
        original = getattr(module, attr)
        tracer.patch_function(
            original, tracer.span_wrapper(name, original, count, info))

    def wrap_method(cls, attr, name):
        tracer.patch_method(
            cls, attr, tracer.span_wrapper(name, cls.__dict__[attr]))

    wrap(families, "construct", "families.construct")
    wrap(families, "as_closure", "families.as_closure")
    wrap(engine, "closure", "engine.closure",
         count=lambda r, a: {"engine.closure_elems": r.size})
    wrap(engine, "closure_from_elements", "engine.closure_from_elements",
         count=lambda r, a: {"engine.closure_from_elements_cells": r.size ** 2})
    for attr in ("green", "is_aperiodic", "rees_quotient", "local_monoid",
                 "generated_subsemigroup"):
        wrap(engine, attr, f"engine.{attr}")
    wrap_method(engine.SemigroupClosure, "product_table", "engine.product_table")
    wrap(kernel_mod, "kernel", "kernel.kernel",
         count=lambda r, a: {"kernel.rounds": r.iterations,
                             "kernel.kernel_elems": len(r.kernel_ids)},
         info=lambda a: a[0].size)
    wrap(kernel_mod, "weak_inverse_pairs", "kernel.weak_inverse_pairs",
         count=lambda r, a: {"kernel.pairs": len(r)})
    wrap_method(ledger.Ledger, "assert_base_facts", "ledger.base_facts")
    wrap_method(ledger.Ledger, "derive_all", "ledger.derive")
    for rule, attr in RULE_METHODS.items():
        wrap_method(ledger.Ledger, attr, f"ledger.rule.{rule}")
    wrap(store, "save_cache", "store.save",
         count=lambda r, a: {"store.bytes": os.path.getsize(r)})
    wrap(store, "load_cache", "store.load")


def metrics(tracer):
    """Per-layer metrics (without the microbench and overhead figures)."""
    selfs = tracer.self_times()
    self_by_name = defaultdict(float)
    inclusive_by_name = defaultdict(float)
    for i, sp in enumerate(tracer.spans):
        self_by_name[sp.name] += selfs[i]
        inclusive_by_name[sp.name] += sp.duration
    roots = [i for i, sp in enumerate(tracer.spans) if sp.parent < 0]
    fallbacks = sum(
        1 for sp in tracer.spans
        if sp.name == "engine.closure_from_elements" and sp.parent >= 0
        and tracer.spans[sp.parent].name == "families.as_closure"
    )
    product_s, products = tracer.product_totals()
    out = {
        "diagrams.products": products,
        "diagrams.product_s": product_s,
        "families.all_gens_fallbacks": fallbacks,
        "trace.unattributed_s": sum(selfs[i] for i in roots),
    }
    for name in SELF_TIME_SPANS:
        out[f"{name}_s"] = self_by_name[name]
    for name in COUNTS:
        out[name] = tracer.counts[name]
    closure_s = inclusive_by_name["engine.closure"]
    out["engine.closure_elem_per_s"] = (
        out["engine.closure_elems"] / closure_s if closure_s else 0.0)
    return out
