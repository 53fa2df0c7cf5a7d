"""The traced benchmark harness still finds every function it times."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every (module, name) binding of the loaded brauerkit modules."""
    return {(mod_name, attr): value
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "brauerkit"
                                    or mod_name.startswith("brauerkit."))
            for attr, value in vars(mod).items()}


def test_layers_install_patches_and_unpatch_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    before = _bindings()
    tracer = Tracer()
    try:
        layers.install(tracer)  # raises for a function it cannot find
        during = _bindings()
        for key in [("brauerkit.engine", "closure_from_elements"),
                    ("brauerkit.engine", "generated_subsemigroup"),
                    ("brauerkit.kernel", "kernel"),
                    ("brauerkit.kernel", "weak_inverse_pairs")]:
            assert during[key] is not before[key], key
    finally:
        tracer.unpatch()
    after = _bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []
