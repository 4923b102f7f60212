"""Span tracer for the traced benchmark run.

Spans are recorded around calls into fiberwave's modules from the
benchmark's own code: every function a module imported by name from a
sibling module is replaced, in that importing namespace, by a timing
wrapper, and so are the few internal entry points whose time is reported
(graph_solver.assemble_system, resolve_vertex and _estimate_rcond,
helmholtz_oracle.junction_matrix as graph_solver reaches it, every public
cross_section function).  The scipy kernels each module imports form the
kernel boundary: graph_solver.lu_factor / lu_solve, spectrum_tools.lu_factor
and helmholtz_oracle.splu, whose factor object is returned behind a proxy
that times .solve.  MetricGraph.channel is counted through the class
attribute.  Spans live in memory until the run ends.

A span is (id, name, layer, site, start, end, parent id, request index):
`layer` is the module that owns the called function ("kernel" for scipy,
"trace" for the tracer's own bookkeeping) and `site` the namespace the call
went through.  Worker threads (spectrum_tools' sweep pool) parent their
spans to the innermost open span of the main thread.
"""

from __future__ import annotations

import collections
import hashlib
import inspect
import itertools
import json
import threading
from time import perf_counter

import numpy as np

class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.factorizations: list[tuple[int, int, str]] = []  # (unknowns, L+U nnz, matrix digest)
        self.dense: list[tuple[str, int, int]] = []  # ("factor"|"solve", n, right-hand sides)
        self.request = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack: list[tuple[int, str]] = []
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _parent(self, st: list):
        if st:
            return st[-1][0]
        try:
            return self._main_stack[-1][0]
        except IndexError:
            return None

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, fn, name: str, layer: str, site: str, *, collapse: bool = False, after=None, bookkeep: bool = False):
        """Timing wrapper.  `collapse` skips spans for calls made from inside
        a span of the same layer.  `after(args, result)` runs once the span
        is closed and may return a replacement result; with `bookkeep` it
        runs inside a 'trace' span, so its cost is not charged to the
        caller's self time."""
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._stack()
            if collapse and st and st[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = tracer._parent(st)
            sid = next(tracer._ids)
            st.append((sid, layer))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                tracer.spans.append((sid, name, layer, site, t0, t1, parent, tracer.request))
            if after is not None and not bookkeep:
                result = after(args, result)
            elif after is not None:
                b0 = perf_counter()
                result = after(args, result)
                tracer.spans.append(
                    (next(tracer._ids), "trace.bookkeeping", "trace", site, b0, perf_counter(), parent, tracer.request)
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, layer: str, site: str, **kw) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, layer, site, **kw))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """One JSON array per line; the first line names the fields."""
        with open(path, "w") as f:
            f.write(json.dumps(["id", "name", "layer", "site", "start", "end", "parent", "request"]) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class _SpluProxy:
    """Stands in for scipy's SuperLU object so each triangular solve is a
    kernel span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def install(tracer: Tracer):
    """Instrument the imported fiberwave package; returns the tracer."""
    import fiberwave.cli as cli
    import fiberwave.cross_section as cs
    import fiberwave.graph_model as gm
    import fiberwave.graph_solver as gs
    import fiberwave.helmholtz_oracle as ho
    import fiberwave.spectrum_tools as st

    modules = {"cli": cli, "spectrum_tools": st, "graph_solver": gs, "graph_model": gm, "cross_section": cs, "helmholtz_oracle": ho}

    # Functions each module imported by name from a sibling module.
    for site, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj):
                continue
            owner = obj.__module__.rsplit(".", 1)[-1]
            if obj.__module__.startswith("fiberwave.") and owner != site and owner in modules:
                tracer.patch(mod, attr, f"{owner}.{attr}", owner, site)

    # Internal entry points reached through the owning module's globals.
    tracer.patch(cli, "main", "cli.main", "cli", "cli")
    tracer.patch(cli, "load_graph", "cli.load_graph", "cli", "cli")
    tracer.patch(gs, "assemble_system", "graph_solver.assemble_system", "graph_solver", "graph_solver")
    tracer.patch(gs, "_estimate_rcond", "graph_solver._estimate_rcond", "graph_solver", "graph_solver")

    def after_resolve(args, result):
        if isinstance(args[1].junction, gm.OracleJunction):
            tracer.count("oracle_resolutions")
        return result

    tracer.patch(gs, "resolve_vertex", "graph_solver.resolve_vertex", "graph_solver", "graph_solver", after=after_resolve)
    # graph_solver reaches the oracle as helmholtz_oracle.junction_matrix.
    tracer.patch(ho, "junction_matrix", "helmholtz_oracle.junction_matrix", "helmholtz_oracle", "graph_solver")
    for attr, obj in list(vars(cs).items()):
        if inspect.isfunction(obj) and obj.__module__ == cs.__name__ and not attr.startswith("_"):
            tracer.patch(cs, attr, f"cross_section.{attr}", "cross_section", "cross_section", collapse=True)

    # Kernel boundary.
    def after_factor(args, result):
        tracer.dense.append(("factor", int(np.shape(args[0])[0]), 0))
        return result

    def after_solve(args, result):
        b = np.shape(args[1])
        tracer.dense.append(("solve", int(b[0]), int(b[1]) if len(b) > 1 else 1))
        return result

    for site, mod in (("graph_solver", gs), ("spectrum_tools", st)):
        tracer.patch(mod, "lu_factor", f"{site}.lu_factor", "kernel", site, after=after_factor)
    tracer.patch(gs, "lu_solve", "graph_solver.lu_solve", "kernel", "graph_solver", after=after_solve)

    def after_splu(args, lu):
        mat = args[0]
        digest = hashlib.sha1()
        for arr in (mat.indptr, mat.indices, mat.data):
            digest.update(np.ascontiguousarray(arr).tobytes())
        tracer.factorizations.append((int(mat.shape[0]), int(lu.L.nnz + lu.U.nnz), digest.hexdigest()))
        solve = tracer.wrap(lu.solve, "helmholtz_oracle.splu.solve", "kernel", "helmholtz_oracle")
        return _SpluProxy(lu, solve)

    tracer.patch(ho, "splu", "helmholtz_oracle.splu", "kernel", "helmholtz_oracle", after=after_splu, bookkeep=True)

    orig_channel = gm.MetricGraph.channel

    def channel(self, cid):
        tracer.count("channel_lookups")
        return orig_channel(self, cid)

    tracer._patches.append((gm.MetricGraph, "channel", orig_channel))
    gm.MetricGraph.channel = channel
    return tracer


# ---------------------------------------------------------------------------
# aggregation


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for s in spans:
        if s[6] is not None:
            children[s[6]].append((s[4], s[5]))
    out: dict[str, float] = collections.defaultdict(float)
    for sid, _name, layer, _site, t0, t1, _parent, _req in spans:
        out[layer] += (t1 - t0) - _union_length(children.get(sid, []), t0, t1)
    return out


def layer_metrics(tracer: Tracer, requests: int, grid_points: int) -> dict[str, float]:
    """Per-request layer metrics of a traced phase of `requests` requests
    that swept `grid_points` lambda nodes in total."""
    spans = tracer.spans
    k = float(requests)
    by = collections.defaultdict(list)
    for s in spans:
        by[(s[1], s[3])].append(s[5] - s[4])

    def dur(name, site=None):
        return sum(sum(v) for (n, st), v in by.items() if n == name and (site is None or st == site))

    def calls(name, site=None):
        return sum(len(v) for (n, st), v in by.items() if n == name and (site is None or st == site))

    selfs = self_times(spans)
    factors = [n for kind, n, _ in tracer.dense if kind == "factor"]
    flops = sum(8.0 * n**3 / 3.0 for n in factors) + sum(
        8.0 * n * n * r for kind, n, r in tracer.dense if kind == "solve"
    )
    fz = tracer.factorizations
    resolutions = tracer.counts["oracle_resolutions"]
    misses = calls("helmholtz_oracle.junction_matrix", "graph_solver")
    cs_calls = sum(len(v) for (n, _st), v in by.items() if n.startswith("cross_section."))
    m = {
        "graph_solver.lu_solve_calls": calls("graph_solver.lu_solve") / k,
        "graph_solver.lu_solve_s": dur("graph_solver.lu_solve") / k,
        "graph_solver.lu_factor_s": (dur("graph_solver.lu_factor") + dur("spectrum_tools.lu_factor")) / k,
        "graph_solver.rcond_s": dur("graph_solver._estimate_rcond") / k,
        "graph_solver.unknowns": float(np.mean(factors)) if factors else 0.0,
        "graph_solver.lu_flops_computed": flops / k,
        "graph_solver.assemble_s": dur("graph_solver.assemble_system") / k,
        "graph_solver.resolve_vertex_s": dur("graph_solver.resolve_vertex") / k,
        "graph_solver.self_s": selfs["graph_solver"] / k,
        "graph_solver.solves": calls("graph_solver.solve_scattering") / k,
        "graph_model.channel_lookups": tracer.counts["channel_lookups"] / k,
        "graph_model.validate_s": dur("graph_model.validate_graph") / k,
        "graph_model.self_s": selfs["graph_model"] / k,
        "cross_section.calls": cs_calls / k,
        "cross_section.self_s": selfs["cross_section"] / k,
        "spectrum_tools.solves_per_point": (
            calls("graph_solver.solve_scattering", "spectrum_tools") / grid_points if grid_points else 0.0
        ),
        "spectrum_tools.refine_evals": calls("graph_solver.assemble_system", "spectrum_tools") / k,
        "spectrum_tools.refine_s": (
            dur("graph_solver.assemble_system", "spectrum_tools")
            + dur("spectrum_tools.lu_factor")
            + dur("graph_solver._estimate_rcond", "spectrum_tools")
        )
        / k,
        "spectrum_tools.self_s": selfs["spectrum_tools"] / k,
        "helmholtz_oracle.factor_calls": len(fz) / k,
        "helmholtz_oracle.factor_s": dur("helmholtz_oracle.splu") / k,
        "helmholtz_oracle.distinct_factor_ratio": len({d for _, _, d in fz}) / len(fz) if fz else 0.0,
        "helmholtz_oracle.triangular_solves": calls("helmholtz_oracle.splu.solve") / k,
        "helmholtz_oracle.triangular_solve_s": dur("helmholtz_oracle.splu.solve") / k,
        "helmholtz_oracle.unknowns": float(np.mean([n for n, _, _ in fz])) if fz else 0.0,
        "helmholtz_oracle.lu_nnz": float(np.mean([z for _, z, _ in fz])) if fz else 0.0,
        # complex128 value plus int32 row index per stored L/U entry
        "helmholtz_oracle.lu_bytes_computed": 20.0 * float(np.mean([z for _, z, _ in fz])) if fz else 0.0,
        "helmholtz_oracle.self_s": selfs["helmholtz_oracle"] / k,
        "helmholtz_oracle.junction_cache_hit_ratio": (resolutions - misses) / resolutions if resolutions else 0.0,
        "cli.load_graph_s": dur("cli.load_graph") / k,
        "cli.self_s": selfs["cli"] / k,
        "trace.spans": len(spans) / k,
    }
    return m
