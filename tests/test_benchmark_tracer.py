"""The benchmark's tracer (perfbench/tracing.py) patches fiberwave functions
by name.  Installing it must find every name it patches, and uninstalling
it must put every original back."""

from __future__ import annotations

import collections
import math

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


def test_traced_names_are_on_the_paths_they_time(tmp_path):
    """Each kernel and entry point the tracer times records a span on a
    sweep with a dip, a solve and a network validation run through the CLI:
    a path that stops going through one of these names would leave its
    metric reading 0."""
    tracing = load_perfbench("tracing")
    gen = load_perfbench("gen")
    interval = {"shape": "interval", "dims": [math.pi]}
    edge = {
        "channels": [
            {"id": 1, "length": "inf", "cross_section": interval, "start": 1, "end": None},
            {"id": 2, "length": 1.0, "cross_section": interval, "start": 1, "end": 2},
        ],
        "vertices": [
            {"id": 1, "ends": [[1, "start"], [2, "start"]], "junction": {"kind": "dirichlet"}},
            {"id": 2, "ends": [[2, "end"]], "junction": {"kind": "dirichlet"}},
        ],
    }
    edge_path = gen.write_json(str(tmp_path / "edge.json"), edge)
    cross_path = gen.write_json(str(tmp_path / "two-cross.json"), gen.oracle_network("two_cross", math.pi / 16))
    gs._oracle_matrix.cache_clear()  # a cached junction would skip junction_matrix
    tracer = tracing.install(tracing.Tracer())
    try:
        codes = [
            cli.main(["sweep", "--graph", edge_path, "--lo", "1.05", "--hi", "2.0", "--steps", "20", "--eps", "0.1",
                      "--allow-flagged", "--out", str(tmp_path / "sweep.csv")]),
            cli.main(["solve", "--graph", edge_path, "--lambda", "2.0", "--eps", "0.1", "--allow-flagged",
                      "--out", str(tmp_path / "solve.json")]),
            cli.main(["network-validate", "--graph", cross_path, "--lambda", "2.0", "--eps", "1",
                      "--out", str(tmp_path / "validate.csv")]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    spans = collections.Counter(span[1] for span in tracer.spans)
    timed = [
        "graph_solver.lu_factor",
        "graph_solver.lu_solve",
        "graph_solver._estimate_rcond",
        "graph_solver.assemble_system",
        "graph_solver.resolve_vertex",
        "spectrum_tools.lu_factor",
        "helmholtz_oracle.splu",
        "helmholtz_oracle.splu.solve",
        "helmholtz_oracle.junction_matrix",
    ]
    assert [name for name in timed if spans[name] == 0] == []
