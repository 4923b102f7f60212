"""The benchmark's tracer (perfbench/tracing.py) patches fiberwave functions
by name.  Installing it must find every name it patches, and uninstalling
it must put every original back."""

from __future__ import annotations

import fiberwave.cli as cli
import fiberwave.cross_section as cs
import fiberwave.graph_model as gm
import fiberwave.graph_solver as gs
import fiberwave.helmholtz_oracle as ho
import fiberwave.spectrum_tools as st

from conftest import load_perfbench


def _namespaces() -> dict:
    names = {(mod.__name__, attr): obj for mod in (cli, cs, gm, gs, ho, st) for attr, obj in vars(mod).items()}
    names["MetricGraph", "channel"] = gm.MetricGraph.__dict__["channel"]
    return names


def test_tracer_install_patches_and_uninstall_restores():
    tracing = load_perfbench("tracing")
    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # AttributeError here names a patched function that is gone
        patched = list(tracer._patches)
        assert patched
        for owner, attr, orig in patched:
            assert getattr(owner, attr) is not orig, attr
    finally:
        tracer.uninstall()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, attr
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []
