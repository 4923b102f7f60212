"""Command-line front end.

Subcommands: solve, sweep, junction, network-validate, check.  The graph
file format is JSON:

    {"channels": [{"id": 1, "length": "inf" | 2.5,
                   "cross_section": {"shape": "interval", "dims": [3.14]},
                   "start": 1, "end": null}, ...],
     "vertices": [{"id": 1, "ends": [[1, "start"], ...],
                   "junction": {"kind": "dirichlet"}}, ...]}

Junction kinds: dirichlet, transparent, matrix (fields lambda, matrix),
tabulated (field table: list of {lambda, matrix}), from_oracle (field
geometry).  Ids, start, end and the ids in ends are JSON integers.  A
length is a JSON number or the string "inf", and a junction lambda and a
geometry's h are JSON numbers (not strings, not bools).
Complex numbers are [re, im] pairs of JSON numbers, and an empty matrix
[] is 0 x 0.  Geometries are {"cores": [[x0,y0,x1,y1], ...], "stubs":
[{"rect": [...], "direction": "+x"}, ...], "h": ...}, each core and rect
exactly 4 JSON numbers.

Exit codes: 0 success, 2 parse/validation errors, 3 numeric errors or an
uncertified solve (unless --allow-flagged), 4 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import cross_section as cs
from .errors import FiberwaveError, GeometryInvalid, GraphInvalid, NearSingular, ParseError
from .graph_model import (
    Channel,
    Dirichlet,
    MatrixJunction,
    MetricGraph,
    OracleJunction,
    TabulatedJunction,
    Transparent,
    Vertex,
    validate_graph,
)
from .graph_solver import (
    RCOND_TOL,
    SolveRequest,
    boundary_value_matrices,
    energy_report,
    gc_residual,
    resolve_vertex,
    solve_scattering,
    wave_fields,
)
from .helmholtz_oracle import PlanarGeometry, Stub, junction_matrix, solve_network
from .spectrum_tools import export_spectrum, sweep

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

#: Bound on every row of the `check` property table.
CHECK_TOL = 1e-10


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _matrix_out(m) -> list:
    """Rows of [re, im] pairs, read off the complex array's float64 view."""
    arr = np.asarray(m, dtype=complex)
    return np.ascontiguousarray(arr).view(np.float64).reshape(*arr.shape, 2).tolist()


def _matrix_in(rows) -> np.ndarray:
    """Complex matrix from rows of [re, im] pairs of JSON numbers; [] is 0 x 0."""
    a = np.asarray(rows)
    if a.shape == (0,):
        a = a.reshape(0, 0, 2)
    if a.dtype.kind not in "biuf" or a.ndim != 3 or a.shape[2] != 2:
        raise ParseError(
            f"expected a matrix of [re, im] number pairs, got an array of shape {a.shape} and dtype {a.dtype}"
        )
    return a.astype(float, copy=False).view(complex)[..., 0]


def _numbers(x, count: int, what: str) -> tuple[float, ...]:
    """`x` as a list of exactly `count` JSON numbers (not strings, not
    bools); `what` names it in the error."""
    try:
        a = np.asarray(x)
        ok = a.dtype.kind in "iuf" and a.shape == (count,)
    except ValueError:  # a ragged list
        ok = False
    if not ok:
        raise ParseError(f"{what} needs {count} number(s), got {x!r}")
    return tuple(map(float, a))


def _number(x, what: str) -> float:
    """`x` as one JSON number (not a string, not a bool); `what` names it
    in the error."""
    if type(x) not in (int, float):
        raise ParseError(f"{what} needs a number, got {x!r}")
    return float(x)


def _id(x) -> int:
    """A channel or vertex id: a JSON integer literal, not a bool."""
    if type(x) is not int:
        raise ParseError(f"ids must be JSON integers, got {x!r}")
    return x


# cross-section shape name -> (class, number of dims)
_SHAPES = {"interval": (cs.Interval, 1), "rectangle": (cs.Rectangle, 2), "disk": (cs.Disk, 1)}


def shape_from_json(d: dict):
    """Cross-section from {"shape": name, "dims": [...]}, whose dims are
    exactly the shape's count of JSON numbers."""
    try:
        kind, dims = d["shape"], d["dims"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad cross_section block: {d!r}") from exc
    if kind not in _SHAPES:
        raise ParseError(f"unknown cross-section shape {kind!r}")
    make, count = _SHAPES[kind]
    return make(*_numbers(dims, count, f"bad cross_section block: {kind} dims"))


def geometry_from_json(d: dict) -> PlanarGeometry:
    """Geometry whose every core and stub rect is exactly 4 JSON numbers."""
    if not isinstance(d, dict):
        raise ParseError(f"geometry must be a JSON object, got {d!r}")
    try:
        cores = tuple(_numbers(r, 4, "geometry core") for r in d.get("cores", []))
        stubs = tuple(
            Stub(rect=_numbers(s["rect"], 4, "geometry stub rect"), direction=str(s["direction"]))
            for s in d["stubs"]
        )
        return PlanarGeometry(cores=cores, stubs=stubs, h=_number(d["h"], "geometry h"))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"bad geometry block: {exc}") from exc


def junction_from_json(d: dict):
    if not isinstance(d, dict):
        raise ParseError(f"junction must be a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind == "dirichlet":
        return Dirichlet()
    if kind == "transparent":
        return Transparent()
    if kind == "matrix":
        try:
            return MatrixJunction(lam=_number(d["lambda"], "matrix junction lambda"), matrix=_matrix_in(d["matrix"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad matrix junction: {exc}") from exc
    if kind == "tabulated":
        try:
            table = d["table"]
            return TabulatedJunction(
                lams=[_number(row["lambda"], "tabulated junction lambda") for row in table],
                mats=[_matrix_in(row["matrix"]) for row in table],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad tabulated junction: {exc}") from exc
    if kind == "from_oracle":
        return OracleJunction(geometry=geometry_from_json(d.get("geometry", {})))
    raise ParseError(f"unknown junction kind {kind!r}")


def graph_from_json(d: dict) -> MetricGraph:
    try:
        channels = []
        for c in d["channels"]:
            raw_len = c["length"]
            if raw_len in ("inf", "-inf"):  # "-inf" reads, to be reported as a bad_length violation
                length = float(raw_len)
            else:
                length = _number(raw_len, f"channel {c.get('id')!r} length")
            channels.append(
                Channel(
                    id=_id(c["id"]),
                    length=length,
                    cross_section=shape_from_json(c["cross_section"]),
                    start=_id(c["start"]),
                    end=None if c.get("end") is None else _id(c["end"]),
                )
            )
        vertices = []
        for v in d["vertices"]:
            ends = tuple((_id(cid), str(which)) for cid, which in v["ends"])
            vertices.append(
                Vertex(id=_id(v["id"]), ends=ends, junction=junction_from_json(v["junction"]))
            )
    except (KeyError, TypeError, ValueError) as exc:  # a ParseError passes through
        raise ParseError(f"bad graph file: {exc}") from exc
    return MetricGraph(channels=tuple(channels), vertices=tuple(vertices))


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_graph(path: str) -> MetricGraph:
    g = graph_from_json(load_json(path))
    violations = validate_graph(g)
    if violations:
        raise GraphInvalid(violations)
    return g


def _dump_json(payload: dict, path: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True) + "\n", path)


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_solve(args) -> int:
    g = load_graph(args.graph)
    ns = solve_scattering(g, SolveRequest(lam=args.lam, eps=args.eps), allow_flagged=args.allow_flagged)
    er = energy_report(ns)
    payload = {
        "lambda": ns.lam,
        "eps": ns.eps,
        "ordering": [list(e) for e in ns.ordering.entries],
        "d_diag": [float(v) for v in ns.d_diag],
        "t": _matrix_out(ns.t),
        "rcond": ns.rcond,
        "certified": ns.certified,
        "flux_balance": [float(v) for v in er.balance],
        "max_flux_cross": er.max_cross,
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    g = load_graph(args.graph)
    sr = sweep(g, args.eps, args.lo, args.hi, args.steps)
    export_spectrum(sr, args.out)
    for lam_star, depth in sr.dips:
        if depth < RCOND_TOL:
            sys.stderr.write(f"resonance at lambda={lam_star!r}: rcond {depth:.3e}\n")
    flagged = [r for r in sr.rows if not r.certified]
    if flagged:
        sys.stderr.write(
            f"{len(flagged)} of {len(sr.rows)} sweep points flagged in "
            f"{len(sr.flagged_intervals)} interval(s)\n"
        )
        if not args.allow_flagged:
            return EXIT_NUMERIC
    return EXIT_OK


def _cmd_junction(args) -> int:
    js = junction_matrix(geometry_from_json(load_json(args.geometry)), args.lam)
    payload = {
        "kind": "tabulated",
        "table": [{"lambda": js.lam, "matrix": _matrix_out(js.matrix)}],
        "meta": {
            "lambda": js.lam,
            "h": js.h,
            "geometry_hash": js.geometry_hash,
            "mode_counts": list(js.mode_counts),
        },
    }
    _dump_json(payload, args.out)
    return EXIT_OK


def _cmd_network_validate(args) -> int:
    g = load_graph(args.graph)
    try:
        eps_list = [float(e) for e in args.eps.split(",")]
    except ValueError as exc:
        raise ParseError(f"--eps expects comma-separated numbers, got {args.eps!r}") from exc
    repeated = sorted({eps for eps in eps_list if eps_list.count(eps) > 1})
    if repeated:
        raise ParseError(f"--eps lists {', '.join(map(repr, repeated))} more than once in {args.eps!r}")
    lines = ["eps,channel,mode,t_graph_re,t_graph_im,t_oracle_re,t_oracle_im,abs_diff"]
    worst_by_eps = {}
    skipped = []
    for eps in eps_list:
        try:
            ns = solve_scattering(g, SolveRequest(lam=args.lam, eps=eps))
        except NearSingular as exc:
            skipped.append(eps)
            sys.stderr.write(f"eps={eps}: graph solve flagged ({exc}); comparison skipped\n")
            continue
        t_oracle = solve_network(g, args.lam, eps)
        worst = 0.0
        for col in range(ns.ordering.M):
            for row, (cid, mode) in enumerate(ns.ordering.entries):
                t_g, t_o = ns.t[row, col], t_oracle[row, col]
                diff = float(abs(t_g - t_o))
                worst = max(worst, diff)
                lines.append(
                    f"{eps!r},{cid},{mode},{float(t_g.real)!r},{float(t_g.imag)!r},"
                    f"{float(t_o.real)!r},{float(t_o.imag)!r},{diff!r}"
                )
        worst_by_eps[eps] = worst
    _write("\n".join(lines) + "\n", args.out)
    for eps, worst in worst_by_eps.items():
        sys.stderr.write(f"eps={eps}: max |t_graph - t_oracle| = {worst:.6e}\n")
    return EXIT_OK if not skipped or args.allow_flagged else EXIT_NUMERIC


def _spider_errors(g: MetricGraph, v, lam: float, eps: float) -> tuple[float, float]:
    """Solve the single-vertex problem with this vertex's resolved matrix and
    compare the boundary-value matrices with I + T and (i/eps) D (T - I)."""
    t_v = resolve_vertex(g, v, lam).t_matrix
    ids = range(1, len(v.ends) + 1)
    spider = MetricGraph(
        channels=tuple(Channel(i, math.inf, g.channel(cid).cross_section, 1, None) for i, (cid, _) in zip(ids, v.ends)),
        vertices=(Vertex(1, tuple((i, "start") for i in ids), MatrixJunction(lam, t_v)),),
    )
    ns = solve_scattering(spider, SolveRequest(lam=lam, eps=eps), allow_flagged=True)
    res = resolve_vertex(spider, spider.vertices[0], lam)
    if not res.dim:
        return 0.0, 0.0
    s0, s1 = boundary_value_matrices(wave_fields(ns), res, spider)
    i_v, t_v = np.eye(res.dim), res.t_matrix
    e0 = float(np.max(np.abs(s0 - (i_v + t_v))))
    e1 = float(np.max(np.abs(s1 - (1j / eps) * res.d_diag[:, None] * (t_v - i_v))))
    return e0, e1


def _cmd_check(args) -> int:
    g = load_graph(args.graph)
    ns = solve_scattering(
        g, SolveRequest(lam=args.lam, eps=args.eps), allow_flagged=args.allow_flagged
    )
    a = ns.weighted()
    eye = np.eye(ns.ordering.M)
    er = energy_report(ns)
    resolved = {v.id: resolve_vertex(g, v, args.lam) for v in g.vertices}
    gc_worst = 0.0
    for f in wave_fields(ns):
        for v in g.vertices:
            gc_worst = max(gc_worst, gc_residual(f, resolved[v.id], g, args.eps))
    spider0, spider1 = 0.0, 0.0
    for v in g.vertices:
        e0, e1 = _spider_errors(g, v, args.lam, args.eps)
        spider0, spider1 = max(spider0, e0), max(spider1, e1)

    checks = [
        ("unitarity ||A*A - I||_F", float(np.linalg.norm(a.conj().T @ a - eye))),
        ("symmetry ||A - A^T||_F", float(np.linalg.norm(a - a.T))),
        ("flux balance max", er.max_balance),
        ("flux cross-term max", er.max_cross),
        ("vertex condition residual", gc_worst),
        ("spider values max err", spider0),
        ("spider derivatives max err", spider1),
    ]
    all_ok = True
    print(f"lambda={args.lam} eps={args.eps} M={ns.ordering.M} rcond={ns.rcond:.3e}")
    for name, value in checks:
        ok = value <= CHECK_TOL
        all_ok = all_ok and ok
        print(f"{name:32s} {value:12.3e}  <= {CHECK_TOL:.1e}  {'PASS' if ok else 'FAIL'}")
    if not ns.certified:
        print("solve not certified (resonance flag)")
    return EXIT_OK if all_ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fiberwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", required=True, help="graph JSON file")
        p.add_argument("--allow-flagged", action="store_true", help="exit 0 even if flagged")

    p = sub.add_parser("solve", help="solve one scattering problem")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", help="output JSON path (default: stdout)")

    p = sub.add_parser("sweep", help="lambda sweep to CSV")
    common(p)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("junction", help="compute a junction matrix from geometry")
    p.add_argument("--geometry", required=True, help="geometry JSON file")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", help="output JSON path (default: stdout)")

    p = sub.add_parser("network-validate", help="compare graph model against the 2-D solver")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma-separated eps list")
    p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("check", help="run the property suite on a graph")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "junction": _cmd_junction,
    "network-validate": _cmd_network_validate,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, GraphInvalid, GeometryInvalid) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (FiberwaveError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
