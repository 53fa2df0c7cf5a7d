"""brauerkit: diagram calculus and complexity bounds for Brauer-type monoids."""

__version__ = "0.1.0"

from .diagrams import (
    Diagram,
    ElementSet,
    Parity,
    adjacent_contraction,
    capped_rotation,
    cascade,
    contraction,
    decode,
    diagram,
    double_contraction,
    encode,
    from_permutation,
    identity,
    local_rotation,
    multiply,
    named_element_products,
    partial_identity,
    random_partial_brauer,
    random_partition_diagram,
    rotation,
)
from .engine import (
    GreenData,
    SemigroupClosure,
    closure,
    closure_from_elements,
    essential_depth,
    generated_subsemigroup,
    green,
    idempotent_generated,
    index_period,
    is_aperiodic,
    is_inverse,
    local_monoid,
    principal_ideal,
    rees_quotient,
    singular_part,
    subsemigroup,
    t1_chain,
    units,
)
from .families import (
    CLOSED_FORMS,
    FAMILY_IDS,
    FamilyInstance,
    as_closure,
    bell_number,
    cardinality_table,
    catalan,
    construct,
    double_factorial_odd,
    generators,
    involution_count,
    motzkin,
)
from .kernel import (
    KernelResult,
    kernel,
    weak_inverse_pairs,
)
from .ledger import Check, Entry, Fact, InstanceRef, Ledger
from .derivations import build_standard_ledger, standard_table
from .store import load_cache, load_or_build, make_report, save_cache
from .verify import TARGETS, expected_table, run_target, verify_parity_morphism_a4

__all__ = [name for name in dir() if not name.startswith("_")]
