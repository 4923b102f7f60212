"""CLI: schemas, round trips, exit codes, command behavior."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from fiberwave.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    _matrix_out,
    graph_from_json,
    main,
)
from fiberwave.cross_section import Disk, Interval, Rectangle
from fiberwave.graph_model import (
    Channel,
    Dirichlet,
    MatrixJunction,
    MetricGraph,
    OracleJunction,
    TabulatedJunction,
    Transparent,
    Vertex,
)
from fiberwave.helmholtz_oracle import PlanarGeometry, Stub, cross_geometry


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def geometry_json(geom: PlanarGeometry) -> dict:
    """The geometry-file form of a planar geometry."""
    return {
        "cores": [list(r) for r in geom.cores],
        "stubs": [{"rect": list(s.rect), "direction": s.direction} for s in geom.stubs],
        "h": geom.h,
    }


def dirichlet_graph_json(tmp_path):
    return write_json(
        tmp_path / "g.json",
        {
            "channels": [
                {
                    "id": 1,
                    "length": "inf",
                    "cross_section": {"shape": "interval", "dims": [math.pi]},
                    "start": 1,
                    "end": None,
                }
            ],
            "vertices": [{"id": 1, "ends": [[1, "start"]], "junction": {"kind": "dirichlet"}}],
        },
    )


def edge_graph_json(tmp_path):
    return write_json(
        tmp_path / "edge.json",
        {
            "channels": [
                {
                    "id": 1,
                    "length": "inf",
                    "cross_section": {"shape": "interval", "dims": [math.pi]},
                    "start": 1,
                    "end": None,
                },
                {
                    "id": 2,
                    "length": 1.0,
                    "cross_section": {"shape": "interval", "dims": [math.pi]},
                    "start": 1,
                    "end": 2,
                },
            ],
            "vertices": [
                {"id": 1, "ends": [[1, "start"], [2, "start"]], "junction": {"kind": "dirichlet"}},
                {"id": 2, "ends": [[2, "end"]], "junction": {"kind": "dirichlet"}},
            ],
        },
    )


GRAPH_ALL_JUNCTION_KINDS = """
{"channels": [
  {"id": 1, "length": "inf", "cross_section": {"shape": "interval", "dims": [3.141592653589793]}, "start": 1, "end": null},
  {"id": 2, "length": 1.5, "cross_section": {"shape": "rectangle", "dims": [1.0, 2.0]}, "start": 1, "end": 2},
  {"id": 3, "length": "inf", "cross_section": {"shape": "disk", "dims": [0.8]}, "start": 2, "end": null},
  {"id": 4, "length": "inf", "cross_section": {"shape": "interval", "dims": [3.141592653589793]}, "start": 3, "end": null},
  {"id": 5, "length": "inf", "cross_section": {"shape": "interval", "dims": [3.141592653589793]}, "start": 4, "end": null},
  {"id": 6, "length": "inf", "cross_section": {"shape": "interval", "dims": [3.141592653589793]}, "start": 5, "end": null}],
 "vertices": [
  {"id": 1, "ends": [[1, "start"], [2, "start"]], "junction": {"kind": "transparent"}},
  {"id": 2, "ends": [[2, "end"], [3, "start"]],
   "junction": {"kind": "matrix", "lambda": 2.0, "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}},
  {"id": 3, "ends": [[4, "start"]],
   "junction": {"kind": "tabulated", "table": [{"lambda": 1.5, "matrix": [[[-1.0, 0.0]]]},
                                               {"lambda": 2.5, "matrix": [[[-0.5, 0.1]]]}]}},
  {"id": 4, "ends": [[5, "start"]],
   "junction": {"kind": "from_oracle", "geometry": {"cores": [[0.0, 0.0, 1.0, 1.0]],
     "stubs": [{"rect": [-2.0, 0.0, 0.0, 1.0], "direction": "-x"}], "h": 0.125}}},
  {"id": 5, "ends": [[6, "start"]], "junction": {"kind": "dirichlet"}}]}
"""


def test_roundtrip_all_junction_kinds():
    geom = PlanarGeometry(
        cores=((0.0, 0.0, 1.0, 1.0),),
        stubs=(Stub(rect=(-2.0, 0.0, 0.0, 1.0), direction="-x"),),
        h=0.125,
    )
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi), 1, None),
            Channel(2, 1.5, Rectangle(1.0, 2.0), 1, 2),
            Channel(3, math.inf, Disk(0.8), 2, None),
            Channel(4, math.inf, Interval(math.pi), 3, None),
            Channel(5, math.inf, Interval(math.pi), 4, None),
            Channel(6, math.inf, Interval(math.pi), 5, None),
        ),
        vertices=(
            Vertex(1, ((1, "start"), (2, "start")), Transparent()),
            Vertex(2, ((2, "end"), (3, "start")), MatrixJunction(2.0, ((0j, 1 + 0j), (1 + 0j, 0j)))),
            Vertex(3, ((4, "start"),), TabulatedJunction([1.5, 2.5], [[[-1 + 0j]], [[-0.5 + 0.1j]]])),
            Vertex(4, ((5, "start"),), OracleJunction(geom)),
            Vertex(5, ((6, "start"),), Dirichlet()),
        ),
    )
    g2 = graph_from_json(json.loads(GRAPH_ALL_JUNCTION_KINDS))
    assert g2.channels == g.channels
    for v2, v in zip(g2.vertices, g.vertices, strict=True):
        assert (v2.id, v2.ends, type(v2.junction)) == (v.id, v.ends, type(v.junction))
    j2, j = g2.vertices[1].junction, g.vertices[1].junction
    assert j2.lam == j.lam and np.array_equal(j2.matrix, j.matrix)
    j2, j = g2.vertices[2].junction, g.vertices[2].junction
    assert np.array_equal(j2.lams, j.lams) and np.array_equal(j2.mats, j.mats)
    assert g2.vertices[3].junction == g.vertices[3].junction
    assert g2.vertices[4].junction == g.vertices[4].junction


def test_solve_command(tmp_path, capsys):
    rc = main(["solve", "--graph", dirichlet_graph_json(tmp_path), "--lambda", "2", "--eps", "0.1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["t"] == [[[-1.0, 0.0]]]
    assert out["certified"] is True
    assert out["ordering"] == [[1, 0]]


def test_solve_uncertified_exit_code(tmp_path, capsys):
    lam_star = 1.0 + (math.pi * 0.1) ** 2
    rc = main(
        ["solve", "--graph", edge_graph_json(tmp_path), "--lambda", repr(lam_star), "--eps", "0.1"]
    )
    assert rc == EXIT_NUMERIC
    rc = main(
        [
            "solve",
            "--graph",
            edge_graph_json(tmp_path),
            "--lambda",
            repr(lam_star),
            "--eps",
            "0.1",
            "--allow-flagged",
        ]
    )
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["certified"] is False


def test_sweep_command_flags(tmp_path, capsys):
    out_csv = tmp_path / "sp.csv"
    args = [
        "sweep",
        "--graph",
        edge_graph_json(tmp_path),
        "--lo",
        "1.05",
        "--hi",
        "2",
        "--steps",
        "100",
        "--eps",
        "0.1",
        "--out",
        str(out_csv),
    ]
    rc = main(args)
    assert rc == EXIT_NUMERIC  # flagged intervals present
    rc = main(args + ["--allow-flagged"])
    assert rc == EXIT_OK
    eigs = [1.0 + (math.pi * p * 0.1) ** 2 for p in (1, 2, 3)]
    # one stderr line per flagged dip, naming its refined lambda and depth
    dips = [l for l in capsys.readouterr().err.splitlines() if l.startswith("resonance at")]
    assert len(dips) == 2 * len(eigs)
    for line, e in zip(dips, eigs + eigs):
        m = re.fullmatch(r"resonance at lambda=(\S+): rcond (\S+)", line)
        assert abs(float(m.group(1)) - e) < 1e-12
        assert float(m.group(2)) < 1e-10
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "lambda,col,abs_t_sq,flux_residual,rcond,certified"
    flagged_lams = [float(l.split(",")[0]) for l in lines[1:] if l.endswith(",0")]
    step = (2.0 - 1.05) / 99
    assert flagged_lams
    for lam in flagged_lams:
        assert any(abs(lam - e) <= step for e in eigs)
    for e in eigs:
        assert any(abs(lam - e) <= step for lam in flagged_lams)


def test_junction_command_deterministic(tmp_path, capsys):
    geo_path = write_json(
        tmp_path / "cross.json",
        {
            "cores": [[0, 0, math.pi, math.pi]],
            "stubs": [
                {"rect": [-2 * math.pi, 0, 0, math.pi], "direction": "-x"},
                {"rect": [math.pi, 0, 3 * math.pi, math.pi], "direction": "+x"},
                {"rect": [0, -2 * math.pi, math.pi, 0], "direction": "-y"},
                {"rect": [0, math.pi, math.pi, 3 * math.pi], "direction": "+y"},
            ],
            "h": math.pi / 16,
        },
    )
    out1, out2 = tmp_path / "tv1.json", tmp_path / "tv2.json"
    assert main(["junction", "--geometry", geo_path, "--lambda", "2", "--out", str(out1)]) == EXIT_OK
    assert main(["junction", "--geometry", geo_path, "--lambda", "2", "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["kind"] == "tabulated"
    assert payload["meta"]["mode_counts"] == [1, 1, 1, 1]

    # the emitted block plugs back into a graph as a tabulated junction
    graph = {
        "channels": [
            {
                "id": i,
                "length": "inf",
                "cross_section": {"shape": "interval", "dims": [math.pi]},
                "start": 1,
                "end": None,
            }
            for i in (1, 2, 3, 4)
        ],
        "vertices": [
            {
                "id": 1,
                "ends": [[1, "start"], [2, "start"], [3, "start"], [4, "start"]],
                "junction": {"kind": "tabulated", "table": payload["table"]},
            }
        ],
    }
    gpath = write_json(tmp_path / "loaded.json", graph)
    rc = main(["solve", "--graph", gpath, "--lambda", "2", "--eps", "0.1"])
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    t = np.array([[complex(re, im) for re, im in row] for row in out["t"]])
    assert t.shape == (4, 4)
    assert abs(np.linalg.norm(t.conj().T @ t - np.eye(4))) < 1e-1  # discretized junction


def test_check_command(tmp_path, capsys):
    rc = main(["check", "--graph", dirichlet_graph_json(tmp_path), "--lambda", "2", "--eps", "0.1"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert out.count("PASS") == 7 and "FAIL" not in out

    lossy = write_json(
        tmp_path / "lossy.json",
        {
            "channels": [
                {
                    "id": 1,
                    "length": "inf",
                    "cross_section": {"shape": "interval", "dims": [math.pi]},
                    "start": 1,
                    "end": None,
                }
            ],
            "vertices": [
                {
                    "id": 1,
                    "ends": [[1, "start"]],
                    "junction": {"kind": "matrix", "lambda": 2.0, "matrix": [[[-0.5, 0.0]]]},
                }
            ],
        },
    )
    rc = main(["check", "--graph", lossy, "--lambda", "2", "--eps", "0.1"])
    out = capsys.readouterr().out
    assert rc == EXIT_NUMERIC
    assert "FAIL" in out


def test_network_validate_command(tmp_path, capsys):
    h = math.pi / 16
    geom = cross_geometry(math.pi, 2 * math.pi, h)
    graph = {
        "channels": [
            {"id": 1, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None},
            {"id": 2, "length": math.pi / 2, "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": 2},
            {"id": 3, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None},
            {"id": 4, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None},
            {"id": 5, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 2, "end": None},
            {"id": 6, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 2, "end": None},
            {"id": 7, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 2, "end": None},
        ],
        "vertices": [
            {
                "id": 1,
                "ends": [[1, "start"], [2, "start"], [3, "start"], [4, "start"]],
                "junction": {"kind": "from_oracle", "geometry": geometry_json(geom)},
            },
            {
                "id": 2,
                "ends": [[2, "end"], [5, "start"], [6, "start"], [7, "start"]],
                "junction": {"kind": "from_oracle", "geometry": geometry_json(geom)},
            },
        ],
    }
    gpath = write_json(tmp_path / "net.json", graph)
    out_csv = tmp_path / "cmp.csv"
    rc = main(
        [
            "network-validate",
            "--graph",
            gpath,
            "--lambda",
            "2",
            "--eps",
            "1,0.5",
            "--out",
            str(out_csv),
        ]
    )
    assert rc == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("eps,channel,mode,")
    assert len(lines) == 1 + 2 * 36  # two eps, six incident columns, six infinite channels
    diffs = [float(l.split(",")[-1]) for l in lines[1:]]
    assert max(diffs) < 0.1


def test_network_validate_skips_flagged(tmp_path, capsys, monkeypatch):
    import fiberwave.cli as cli
    from fiberwave.errors import NearSingular

    def boom(*a, **k):
        raise NearSingular(1e-14, 2.0)

    monkeypatch.setattr(cli, "solve_scattering", boom)
    gpath = edge_graph_json(tmp_path)
    rc = main(["network-validate", "--graph", gpath, "--lambda", "2", "--eps", "0.5"])
    err = capsys.readouterr().err
    assert rc == EXIT_NUMERIC
    assert "skipped" in err
    rc = main(
        ["network-validate", "--graph", gpath, "--lambda", "2", "--eps", "0.5", "--allow-flagged"]
    )
    assert rc == EXIT_OK


@pytest.mark.parametrize(
    "command, bad",
    [
        (["solve", "--lambda", "nan", "--eps", "0.1"], "nan"),
        (["solve", "--lambda", "inf", "--eps", "0.1"], "inf"),
        (["solve", "--lambda", "2", "--eps", "-0.1"], "-0.1"),
        (["solve", "--lambda", "2", "--eps", "inf"], "inf"),
        (["solve", "--lambda", "2", "--eps", "0"], "0.0"),
        (["sweep", "--lo=-inf", "--hi", "2", "--steps", "10", "--eps", "0.1"], "-inf"),
        (["junction", "--lambda", "nan"], "nan"),
    ],
)
def test_non_finite_lambda_and_bad_eps_exit_numeric(tmp_path, capsys, command, bad):
    if command[0] == "junction":
        geom = cross_geometry(math.pi, 2 * math.pi, math.pi / 16)
        inputs = ["--geometry", write_json(tmp_path / "cross.json", geometry_json(geom))]
    else:
        inputs = ["--graph", dirichlet_graph_json(tmp_path)]
    rc = main(command[:1] + inputs + command[1:] + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_NUMERIC
    assert f"got {bad}" in err


def one_vertex_graph_json(tmp_path, junction):
    channel = {"id": 1, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None}
    vertex = {"id": 1, "ends": [[1, "start"]], "junction": junction}
    return write_json(tmp_path / "g.json", {"channels": [channel], "vertices": [vertex]})


def lead_graph_json(tmp_path, **fields):
    """A lead of width pi on a Dirichlet vertex, with `fields` of the
    channel replaced."""
    channel = {"id": 1, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None}
    vertex = {"id": 1, "ends": [[1, "start"]], "junction": {"kind": "dirichlet"}}
    return write_json(tmp_path / "lead.json", {"channels": [{**channel, **fields}], "vertices": [vertex]})


def solve_lead(tmp_path, **fields):
    return ["solve", "--graph", lead_graph_json(tmp_path, **fields), "--lambda", "2", "--eps", "0.1"]


def solve_lead_with_ids(tmp_path, cid, start, vid, end_cid):
    """solve on a lead of width pi on a Dirichlet vertex, with the given
    channel id, start vertex, vertex id and channel id in the vertex's ends."""
    channel = {"id": cid, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": start, "end": None}
    vertex = {"id": vid, "ends": [[end_cid, "start"]], "junction": {"kind": "dirichlet"}}
    path = write_json(tmp_path / "lead.json", {"channels": [channel], "vertices": [vertex]})
    return ["solve", "--graph", path, "--lambda", "2", "--eps", "0.1"]


def junction_on_cross_with(tmp_path, part, value):
    """junction on the pi/16 cross's geometry file with its first core or
    its first stub rect replaced by `value`."""
    geo = geometry_json(cross_geometry(math.pi, 2 * math.pi, math.pi / 16))
    if part == "core":
        geo["cores"][0] = value
    else:
        geo["stubs"][0]["rect"] = value
    return ["junction", "--geometry", write_json(tmp_path / "geo.json", geo), "--lambda", "2"]


def solve_edge_with_length(tmp_path, length):
    """solve on edge_graph_json's lead and capped edge, with the edge's
    length replaced."""
    graph = json.loads(open(edge_graph_json(tmp_path)).read())
    graph["channels"][1]["length"] = length
    return ["solve", "--graph", write_json(tmp_path / "edge.json", graph), "--lambda", "2", "--eps", "0.1"]


def junction_on_cross_with_h(tmp_path, h):
    """junction on the pi/16 cross's geometry file with its grid spacing
    replaced by `h`."""
    geo = {**geometry_json(cross_geometry(math.pi, 2 * math.pi, math.pi / 16)), "h": h}
    return ["junction", "--geometry", write_json(tmp_path / "geo.json", geo), "--lambda", "2"]


def not_utf8_graph(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"channels": [], "vertices": [], "note": "\u00e9"}'.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize(
    "argv, bad",
    [
        (lambda p: ["junction", "--geometry", write_json(p / "geo.json", [1, 2]), "--lambda", "2"], "[1, 2]"),
        (
            lambda p: [
                "junction", "--geometry",
                write_json(p / "geo.json", {**geometry_json(cross_geometry(math.pi, 2 * math.pi, math.pi / 16)), "h": math.nan}),
                "--lambda", "2",
            ],
            "got nan",
        ),
        (lambda p: ["solve", "--graph", one_vertex_graph_json(p, "dirichlet"), "--lambda", "2", "--eps", "0.1"], "'dirichlet'"),
        (
            lambda p: [
                "solve", "--graph", one_vertex_graph_json(p, {"kind": "from_oracle", "geometry": [0.0, 1.0]}),
                "--lambda", "2", "--eps", "0.1",
            ],
            "[0.0, 1.0]",
        ),
        (lambda p: ["solve", "--graph", not_utf8_graph(p), "--lambda", "2", "--eps", "0.1"], "0xe9"),
        (lambda p: ["network-validate", "--graph", edge_graph_json(p), "--lambda", "2", "--eps", "1,,0.5"], "'1,,0.5'"),
        (lambda p: ["network-validate", "--graph", edge_graph_json(p), "--lambda", "2", "--eps", "abc"], "'abc'"),
        (lambda p: ["network-validate", "--graph", edge_graph_json(p), "--lambda", "2", "--eps", "1,0.5,1.0"], "1.0 more than once"),
        (lambda p: solve_lead(p, cross_section={"shape": "interval", "dims": "3.14"}), "got '3.14'"),
        (lambda p: solve_lead(p, cross_section={"shape": "interval", "dims": ["3.14"]}), "got ['3.14']"),
        (lambda p: solve_lead(p, cross_section={"shape": "interval", "dims": [math.pi, 7]}), "got [3.141592653589793, 7]"),
        (lambda p: solve_lead(p, length=-math.inf), "bad_length"),
        (lambda p: solve_lead(p, length="-inf"), "bad_length"),
        (lambda p: solve_lead_with_ids(p, 1.9, 1.6, 1, 1.2), "got 1.9"),
        (lambda p: solve_lead_with_ids(p, "1", 1, 1, 1), "got '1'"),
        (lambda p: solve_lead_with_ids(p, 1, True, 1, 1), "got True"),
        (lambda p: solve_lead_with_ids(p, 1, 1, 1.0, 1), "got 1.0"),
        (lambda p: solve_lead_with_ids(p, 1, 1, 1, 1.0), "got 1.0"),
        (lambda p: junction_on_cross_with(p, "rect", "9003"), "got '9003'"),
        (lambda p: junction_on_cross_with(p, "core", "0033"), "got '0033'"),
        (lambda p: junction_on_cross_with(p, "core", [0.0, 0.0, 3.0]), "got [0.0, 0.0, 3.0]"),
        (lambda p: solve_edge_with_length(p, "1.0"), "got '1.0'"),
        (lambda p: solve_edge_with_length(p, True), "got True"),
        (
            lambda p: ["solve", "--graph", one_vertex_graph_json(p, {"kind": "matrix", "lambda": "2", "matrix": [[[-1, 0]]]}),
                       "--lambda", "2", "--eps", "0.1"],
            "got '2'",
        ),
        (
            lambda p: [
                "solve", "--graph",
                one_vertex_graph_json(p, {"kind": "tabulated", "table": [{"lambda": "2", "matrix": [[[-1, 0]]]}]}),
                "--lambda", "2", "--eps", "0.1",
            ],
            "got '2'",
        ),
        (lambda p: junction_on_cross_with_h(p, repr(math.pi / 16)), f"got '{math.pi / 16!r}'"),
        (lambda p: solve_lead(p, cross_section={"shape": "interval", "dims": [True]}), "got [True]"),
    ],
    ids=[
        "geometry-array", "grid-spacing-nan", "junction-string", "oracle-geometry-list", "graph-not-utf8",
        "eps-empty-item", "eps-not-number", "eps-repeated", "dims-string", "dims-numeric-string",
        "dims-two-for-interval", "length-minus-infinity", "length-minus-inf-string",
        "ids-truncated", "id-string", "start-bool", "vertex-id-float", "ends-id-float",
        "rect-string", "core-string", "core-three-numbers", "length-numeric-string", "length-bool",
        "matrix-lambda-string", "table-lambda-string", "h-numeric-string", "dims-bool",
    ],
)
def test_malformed_input_exits_invalid(tmp_path, capsys, argv, bad):
    rc = main(argv(tmp_path))
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID
    assert bad in err


# -I at lambda = 5 on a lead of width pi (two modes), as [re, im] pairs
MINUS_I = [[[-1, 0], [0, 0]], [[0, 0], [-1, 0]]]


def matrix(m):
    return {"kind": "matrix", "lambda": 5.0, "matrix": m}


def with_first_entry(entry):
    return matrix([[entry, MINUS_I[0][1]], MINUS_I[1]])


def table(*mats):
    return {"kind": "tabulated", "table": [{"lambda": 4.5 + i, "matrix": m} for i, m in enumerate(mats)]}


@pytest.mark.parametrize(
    "junction, want",
    [
        (matrix(MINUS_I), EXIT_OK),
        (matrix([[[True, False], [False, False]], [[False, False], [True, False]]]), EXIT_OK),
        (with_first_entry([math.nan, 0]), EXIT_INVALID),
        (with_first_entry([0, math.inf]), EXIT_INVALID),
        (table(MINUS_I, [[[-1, 0], [0, 0]], [[0, 0], [math.nan, 0]]]), EXIT_INVALID),
        (table(MINUS_I, MINUS_I), EXIT_OK),
        (with_first_entry([None, 0]), EXIT_INVALID),
        (with_first_entry(None), EXIT_INVALID),
        (with_first_entry(["abc", 0]), EXIT_INVALID),
        (with_first_entry([-1]), EXIT_INVALID),
        (with_first_entry([-1, 0, 0]), EXIT_INVALID),
        (matrix([MINUS_I[0], MINUS_I[1][:1]]), EXIT_INVALID),
        (matrix(MINUS_I[:1]), EXIT_INVALID),
        (with_first_entry("abc"), EXIT_INVALID),
        (with_first_entry({}), EXIT_INVALID),
        (matrix(5), EXIT_INVALID),
        (matrix("abc"), EXIT_INVALID),
        (matrix({}), EXIT_INVALID),
        (table(MINUS_I, [[[-1, 0]]]), EXIT_INVALID),
        (matrix([[-1, 0], [0, -1]]), EXIT_INVALID),
        (with_first_entry(["-1", 0]), EXIT_INVALID),
        (with_first_entry(-1), EXIT_INVALID),
    ],
    ids=[
        "pairs", "bool-pairs", "nan-pair", "inf-pair", "nan-in-table", "two-sample-table",
        "none-in-pair", "none-entry", "string-in-pair", "pair-of-one", "pair-of-three", "ragged-rows",
        "not-square", "string-entry", "object-entry", "scalar-matrix", "string-matrix", "object-matrix",
        "table-sizes-differ", "bare-reals", "numeric-string-in-pair", "bare-real-among-pairs",
    ],
)
def test_junction_matrix_input_forms(tmp_path, capsys, junction, want):
    rc = main(["solve", "--graph", one_vertex_graph_json(tmp_path, junction), "--lambda", "5", "--eps", "0.1"])
    out, err = capsys.readouterr()
    assert rc == want, err
    if want == EXIT_OK:
        assert json.loads(out)["certified"] is True


def test_lambda_outside_table_names_plain_floats(tmp_path, capsys):
    graph = one_vertex_graph_json(tmp_path, table(MINUS_I, MINUS_I))
    rc = main(["solve", "--graph", graph, "--lambda", "2", "--eps", "0.1"])
    assert rc == EXIT_NUMERIC
    assert "lambda=2.0 outside tabulated range [4.5, 5.5]" in capsys.readouterr().err


# every subcommand that reads a graph, with {out} for an output path
GRAPH_COMMANDS = pytest.mark.parametrize(
    "command",
    [
        ["solve", "--lambda", "2", "--eps", "0.1"],
        ["sweep", "--lo", "1.5", "--hi", "2.5", "--steps", "4", "--eps", "0.1", "--out", "{out}"],
        ["network-validate", "--lambda", "2", "--eps", "1"],
        ["check", "--lambda", "2", "--eps", "0.1"],
    ],
    ids=["solve", "sweep", "network-validate", "check"],
)


@GRAPH_COMMANDS
def test_empty_table_exits_invalid(tmp_path, capsys, command):
    graph = one_vertex_graph_json(tmp_path, {"kind": "tabulated", "table": []})
    argv = [a.format(out=tmp_path / "out.csv") for a in command]
    rc = main(argv[:1] + ["--graph", graph] + argv[1:])
    assert rc == EXIT_INVALID
    assert "table_not_increasing" in capsys.readouterr().err


@GRAPH_COMMANDS
def test_non_finite_junction_entry_exits_invalid(tmp_path, capsys, command):
    one_mode = [[[-1, 0]]]  # one mode at lambda = 2
    argv = [a.format(out=tmp_path / "out.csv") for a in command]
    for junction, code in [
        (matrix([[[math.nan, 0]]]), "non_finite_entry"),
        ({"kind": "matrix", "lambda": math.nan, "matrix": one_mode}, "non_finite_lambda"),
        ({"kind": "tabulated", "table": [{"lambda": math.nan, "matrix": one_mode}]}, "non_finite_lambda"),
        ({"kind": "matrix", "lambda": math.inf, "matrix": one_mode}, "non_finite_lambda"),
    ]:
        rc = main(argv[:1] + ["--graph", one_vertex_graph_json(tmp_path, junction)] + argv[1:])
        assert rc == EXIT_INVALID, junction
        assert code in capsys.readouterr().err


@GRAPH_COMMANDS
def test_negative_infinite_length_exits_invalid(tmp_path, capsys, command):
    argv = [a.format(out=tmp_path / "out.csv") for a in command]
    rc = main(argv[:1] + ["--graph", lead_graph_json(tmp_path, length=-math.inf)] + argv[1:])
    assert rc == EXIT_INVALID
    assert "bad_length" in capsys.readouterr().err


def loop_graph_json(tmp_path, loop_junction):
    """A lead on a Dirichlet vertex and a closed loop of width 1, which
    carries no propagating mode at lambda = 2."""
    lead = {"id": 1, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None}
    loop = {"id": 2, "length": 1.0, "cross_section": {"shape": "interval", "dims": [1.0]}, "start": 2, "end": 2}
    vertices = [
        {"id": 1, "ends": [[1, "start"]], "junction": {"kind": "dirichlet"}},
        {"id": 2, "ends": [[2, "start"], [2, "end"]], "junction": loop_junction},
    ]
    return write_json(tmp_path / "loop.json", {"channels": [lead, loop], "vertices": vertices})


def test_empty_matrix_is_zero_by_zero(tmp_path, capsys):
    ts = []
    for junction in (
        {"kind": "dirichlet"},
        {"kind": "matrix", "lambda": 2.0, "matrix": []},
        {"kind": "tabulated", "table": [{"lambda": 1.5, "matrix": []}, {"lambda": 2.5, "matrix": []}]},
    ):
        rc = main(["solve", "--graph", loop_graph_json(tmp_path, junction), "--lambda", "2", "--eps", "0.1"])
        out, err = capsys.readouterr()
        assert rc == EXIT_OK, err
        ts.append(json.loads(out)["t"])
    assert ts == [[[[-1.0, 0.0]]]] * 3


def test_exit_codes_parse_and_io(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = main(["solve", "--graph", str(bad), "--lambda", "2", "--eps", "0.1"])
    err = capsys.readouterr().err
    assert rc == EXIT_INVALID
    assert "line 1" in err and "column" in err

    rc = main(["solve", "--graph", str(tmp_path / "missing.json"), "--lambda", "2", "--eps", "0.1"])
    assert rc == EXIT_IO

    invalid = write_json(
        tmp_path / "invalid.json",
        {
            "channels": [
                {
                    "id": 1,
                    "length": "inf",
                    "cross_section": {"shape": "interval", "dims": [math.pi]},
                    "start": 1,
                    "end": None,
                }
            ],
            "vertices": [],
        },
    )
    rc = main(["solve", "--graph", invalid, "--lambda", "2", "--eps", "0.1"])
    assert rc == EXIT_INVALID


def test_matrix_out_matches_per_entry_form():
    # signed zeros, NaN, inf and subnormals keep their JSON text
    arr = np.array(
        [[complex(-0.0, 5e-324), complex(math.nan, -0.0)], [complex(1.5, math.inf), complex(1e-310, -1.0)]]
    )
    for m in (arr, arr.T, arr[:, :0], tuple(map(tuple, arr))):
        want = [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in np.asarray(m)]
        assert json.dumps(_matrix_out(m)) == json.dumps(want)
