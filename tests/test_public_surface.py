"""The package's public names, and the ones the benchmark harness reads."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import brauerkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# A public name leaves or arrives only with this list changing in the same diff.
PUBLIC = [
    "CLOSED_FORMS", "Check", "Diagram", "ElementSet", "Entry", "FAMILY_IDS",
    "Fact", "FamilyInstance", "GreenData", "InstanceRef", "KernelResult",
    "Ledger", "Parity", "SemigroupClosure", "TARGETS", "adjacent_contraction",
    "as_closure", "bell_number", "build_standard_ledger", "capped_rotation",
    "cardinality_table", "cascade", "catalan", "closure",
    "closure_from_elements", "construct", "contraction", "decode",
    "derivations", "diagram", "diagrams", "double_contraction",
    "double_factorial_odd", "encode", "engine", "errors", "essential_depth",
    "expected_table", "families", "from_permutation", "generated_subsemigroup",
    "generators", "green", "idempotent_generated", "identity", "index_period",
    "involution_count", "is_aperiodic", "is_inverse", "kernel", "ledger",
    "load_cache", "load_or_build", "local_monoid", "local_rotation",
    "make_report", "motzkin", "multiply", "named_element_products",
    "partial_identity", "principal_ideal", "random_partial_brauer",
    "random_partition_diagram", "rees_quotient", "rotation", "run_target",
    "save_cache", "singular_part", "standard_table", "store", "subsemigroup",
    "t1_chain", "units", "verify", "verify_parity_morphism_a4",
    "weak_inverse_pairs",
]


def test_the_public_names_are_pinned():
    assert sorted(brauerkit.__all__) == PUBLIC


def test_importing_the_package_loads_no_scipy():
    # numpy is the one runtime dependency; scipy is for the tests' oracles
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, brauerkit, brauerkit.cli\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _package_reads(path):
    """(module, name, line) of every name path reads from brauerkit: the
    names of `from brauerkit[.sub] import ...`, and the attributes read off
    a name bound to brauerkit or to one of its modules."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, reads = {}, []  # bound: a name in path -> the module it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: "brauerkit" for a in node.names
                          if a.name == "brauerkit"})
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "brauerkit"):
            for a in node.names:
                reads.append((node.module, a.name, node.lineno))
                value = getattr(importlib.import_module(node.module), a.name, None)
                if inspect.ismodule(value):
                    bound[a.asname or a.name] = value.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reads.append((bound[node.value.id], node.attr, node.lineno))
    return reads


def test_every_name_the_benchmark_reads_from_the_package_resolves():
    """A deletion in the package cannot break the benchmark's workloads
    or workers unnoticed; the files are read, not imported."""
    missing, count = [], 0
    for name in ("workloads.py", "worker.py"):
        for module, attr, line in _package_reads(PERFBENCH / name):
            count += 1
            if not (attr.startswith("__")
                    or hasattr(importlib.import_module(module), attr)):
                missing.append(f"{name}:{line}: {module}.{attr}")
    assert missing == []
    assert count >= 20
