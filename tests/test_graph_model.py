"""Graph validation and the global mode ordering of a solve."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fiberwave.cross_section import Interval
from fiberwave.errors import SingularAtThreshold
from fiberwave.graph_model import (
    Channel,
    Dirichlet,
    MetricGraph,
    TabulatedJunction,
    Transparent,
    Vertex,
    validate_graph,
)
from fiberwave.graph_solver import SolveRequest, solve_scattering

from conftest import dirichlet_lead, random_network


def test_minimal_valid_graph():
    assert validate_graph(dirichlet_lead()) == []


def test_each_graph_instance_is_validated_once(tmp_path, monkeypatch):
    # the command line validates the graph it loads, and the solve's first
    # assembly validates it again for callers that skip the loader: the
    # second check reads the first one's findings
    import json

    import fiberwave.graph_model as gm
    from fiberwave.cli import main

    checks = []
    find = gm._find_violations
    monkeypatch.setattr(gm, "_find_violations", lambda g: checks.append(g) or find(g))
    edge = {
        "channels": [
            {"id": 1, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None},
            {"id": 2, "length": 1.0, "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": 2},
        ],
        "vertices": [
            {"id": 1, "ends": [[1, "start"], [2, "start"]], "junction": {"kind": "dirichlet"}},
            {"id": 2, "ends": [[2, "end"]], "junction": {"kind": "dirichlet"}},
        ],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(edge))
    assert main(["solve", "--graph", str(path), "--lambda", "2", "--eps", "0.1", "--out", str(tmp_path / "t.json")]) == 0
    assert len(checks) == 1
    g = dirichlet_lead()
    solve_scattering(g, SolveRequest(2.0, 0.1))
    solve_scattering(g, SolveRequest(3.0, 0.1))
    assert len(checks) == 2 and checks[1] is g


def test_dangling_end_violation():
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi), 1, None),
            Channel(2, 1.0, Interval(math.pi), 1, 2),
        ),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), Dirichlet()),),  # vertex 2 missing
    )
    codes = [v.code for v in validate_graph(g)]
    assert "dangling_end" in codes


def test_transparent_cross_section_mismatch():
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi), 1, None),
            Channel(2, math.inf, Interval(math.pi / 2), 1, None),
        ),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), Transparent()),),
    )
    codes = [v.code for v in validate_graph(g)]
    assert codes == ["cross_section_mismatch"]


def test_infinite_channel_with_end_vertex():
    g = MetricGraph(
        channels=(Channel(1, math.inf, Interval(math.pi), 1, 1),),
        vertices=(Vertex(1, ((1, "start"),), Dirichlet()),),
    )
    assert "infinite_with_end" in [v.code for v in validate_graph(g)]


def test_end_owned_twice():
    g = MetricGraph(
        channels=(Channel(1, math.inf, Interval(math.pi), 1, None),),
        vertices=(
            Vertex(1, ((1, "start"),), Dirichlet()),
            Vertex(2, ((1, "start"),), Dirichlet()),
        ),
    )
    assert "end_multiply_owned" in [v.code for v in validate_graph(g)]


def test_tabulated_table_must_increase():
    g = MetricGraph(
        channels=(Channel(1, math.inf, Interval(math.pi), 1, None),),
        vertices=(Vertex(1, ((1, "start"),), TabulatedJunction([2.0, 1.5], [[[1.0]], [[1.0]]])),),
    )
    assert "table_not_increasing" in [v.code for v in validate_graph(g)]


def test_no_infinite_channels_flagged():
    g = MetricGraph(
        channels=(Channel(1, 2.0, Interval(math.pi), 1, 1),),
        vertices=(Vertex(1, ((1, "start"), (1, "end")), Dirichlet()),),
    )
    assert "no_infinite_channels" in [v.code for v in validate_graph(g)]


def solved_ordering(g, lam):
    """The mode ordering of the network scattering matrix at lam."""
    return solve_scattering(g, SolveRequest(lam, 0.1), allow_flagged=True).ordering


def test_global_ordering_two_channels():
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi), 1, None),
            Channel(2, math.inf, Interval(math.pi), 2, None),
        ),
        vertices=(
            Vertex(1, ((1, "start"),), Dirichlet()),
            Vertex(2, ((2, "start"),), Dirichlet()),
        ),
    )
    ordering = solved_ordering(g, 5.0)
    assert ordering.entries == ((1, 0), (1, 1), (2, 0), (2, 1))
    assert ordering.M == 4


def test_global_ordering_below_bottom():
    ordering = solved_ordering(dirichlet_lead(), 0.5)
    assert ordering.entries == ()
    assert ordering.M == 0


def test_global_ordering_mixed_widths():
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi), 1, None),
            Channel(2, math.inf, Interval(math.pi / 2), 2, None),
        ),
        vertices=(
            Vertex(1, ((1, "start"),), Dirichlet()),
            Vertex(2, ((2, "start"),), Dirichlet()),
        ),
    )
    ordering = solved_ordering(g, 2.0)
    assert ordering.entries == ((1, 0),)
    assert ordering.M == 1


def test_global_ordering_threshold_collision():
    with pytest.raises(SingularAtThreshold):
        solved_ordering(dirichlet_lead(), 4.0)


def test_random_networks_valid_and_ordering_consistent():
    """Every randomly built network validates cleanly, and M matches an
    independent recount from the interval closed form."""
    rng = np.random.default_rng(7)
    lam = 5.0
    for _ in range(25):
        g = random_network(rng, lam)
        assert validate_graph(g) == []
        ordering = solved_ordering(g, lam)
        # independent recount: interval thresholds ((n+1) pi / w)^2 < lam
        m = 0
        for c in sorted((c for c in g.channels if c.end is None), key=lambda c: c.id):
            w = c.cross_section.width
            n = 0
            while ((n + 1) * math.pi / w) ** 2 < lam:
                n += 1
            m += n
        assert ordering.M == m
        # stable: identical on recompute
        assert solved_ordering(g, lam).entries == ordering.entries
        # bijection onto the propagating set, grouped and ascending
        assert sorted(set(ordering.entries)) == list(ordering.entries)
