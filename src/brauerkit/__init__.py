"""brauerkit: diagram calculus and complexity bounds for Brauer-type monoids."""

__version__ = "0.1.0"

from .diagrams import (
    Diagram,
    Parity,
    StringKind,
    adjacent_contraction,
    capped_rotation,
    cascade,
    classify_strings,
    contraction,
    decode,
    diagram,
    double_contraction,
    encode,
    from_permutation,
    from_transformation,
    identity,
    is_annular,
    is_brauer,
    is_jones,
    is_partial_brauer,
    is_planar,
    is_projection,
    local_rotation,
    multiply,
    named_element_products,
    parity,
    partial_identity,
    random_brauer,
    random_partial_brauer,
    random_partition_diagram,
    rotation,
    shift,
    star,
    twist,
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
    idempotents,
    index_period,
    is_aperiodic,
    is_inverse,
    local_monoid,
    pad_embedding,
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
    membership,
    motzkin,
)
from .kernel import (
    KernelResult,
    in_A_star_G,
    kernel,
    kernel_elements,
    verify_parity_morphism_a4,
    weak_inverse_pairs,
)
from .ledger import Check, Entry, Fact, InstanceRef, Ledger
from .derivations import build_standard_ledger, standard_table
from .store import load_cache, load_or_build, make_report, save_cache
from .verify import TARGETS, expected_table, run_target

__all__ = [name for name in dir() if not name.startswith("_")]
