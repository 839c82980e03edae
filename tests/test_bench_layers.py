"""The benchmark's tracer against the package it wraps.

``bench/layers.py`` wraps fsmguard functions by name; a refactor that drops
or renames one of them must fail here rather than in a traced bench run.
"""

import importlib.util
import sys
from pathlib import Path

import fsmguard as fg

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_tracer_installs_on_fsmguard_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # dataclasses look their module up
    spec.loader.exec_module(layers)
    tracer = layers.Tracer(True)
    try:
        tracer.install(fg)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, orig in patched:
            assert getattr(owner, attr) is not orig, attr
    finally:
        # a failed install leaves the wrappers it made before failing
        tracer.uninstall()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, attr
