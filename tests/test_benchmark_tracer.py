"""The benchmark's tracer still finds every layer it wraps.

``perfbench/spans.py`` rebinds, by name, each function listed in its
``LAYERS``. A rename in kaclab that leaves one of those names behind breaks
every traced benchmark run, so this test installs the tracer on the real
modules, as a traced run does, and uninstalls it again.
"""
import importlib
import sys
from pathlib import Path

import kaclab.experiments  # noqa: F401  (imports every traced module)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layer_bindings(spans):
    """(owner, attr) -> value for every binding of a traced function, in
    the layers' owners and in each kaclab module, the places where
    ``Tracer.rebind_everywhere`` looks."""
    owners, traced = {}, []
    for layer in spans.LAYERS:
        resolved = [spans._resolve(p) for p in layer.owners]
        traced.append(getattr(resolved[0], layer.attr))
        owners.update((id(o), o) for o in resolved)
    owners.update((id(m), m) for name, m in list(sys.modules.items())
                  if name == "kaclab" or name.startswith("kaclab."))
    return {(id(o), attr): v for o in owners.values()
            for attr, v in vars(o).items() if any(v is f for f in traced)}


def test_tracer_install_and_uninstall_restore_every_layer_binding(
        monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = _layer_bindings(spans)
    firsts = [(layer, spans._resolve(layer.owners[0]))
              for layer in spans.LAYERS]
    originals = [getattr(owner, layer.attr) for layer, owner in firsts]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        # each layer's first owner now holds the tracer's wrapper
        for (layer, owner), orig in zip(firsts, originals):
            assert getattr(owner, layer.attr).__wrapped__ is orig, layer.span
    finally:
        tracer.uninstall()
    assert len(before) >= len(spans.LAYERS)
    assert _layer_bindings(spans) == before
    assert [getattr(owner, layer.attr) for layer, owner in firsts] == originals
