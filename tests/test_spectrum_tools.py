"""Sweeps, resonance flagging, CSV export, threshold extrapolation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fiberwave.cli import graph_from_json, main
from fiberwave.cross_section import Interval
from fiberwave.errors import (
    DimensionMismatch,
    InsufficientSamples,
    IntervalContainsThreshold,
)
from fiberwave.graph_model import Channel, Dirichlet, MetricGraph, Transparent, Vertex
from fiberwave.graph_solver import RCOND_TOL, SolveRequest, assemble_system, solve_scattering
from fiberwave.spectrum_tools import (
    _V_STEPS,
    _v_bottom,
    export_spectrum,
    sweep,
    threshold_extrapolate,
)

from conftest import (
    W_PI,
    dirichlet_edge_graph,
    dirichlet_lead,
    fabry_perot_line,
    lattice_network,
    load_perfbench,
    loop_network,
)


def edge_eigenvalues(eps: float, length: float, count: int = 3) -> list[float]:
    return [1.0 + (math.pi * p * eps / length) ** 2 for p in range(1, count + 1)]


def test_sweep_clean_lead():
    sr = sweep(dirichlet_lead(), 0.1, 1.05, 2.0, 100)
    assert len(sr.rows) == 100
    assert all(r.certified for r in sr.rows)
    assert sr.flagged_intervals == []
    assert all(abs(r.abs_t_sq[0] - 1.0) < 1e-12 for r in sr.rows)


def test_sweep_flags_edge_eigenvalues():
    eps, length = 0.1, 1.0
    g = dirichlet_edge_graph(length)
    sr = sweep(g, eps, 1.05, 2.0, 100)
    step = (2.0 - 1.05) / 99
    eigs = edge_eigenvalues(eps, length)
    assert len(sr.flagged_intervals) == 3
    for e in eigs:
        assert any(lo - step <= e <= hi + step for lo, hi in sr.flagged_intervals)
    for lo, hi in sr.flagged_intervals:
        assert any(lo - step <= e <= hi + step for e in eigs)
    # uncertified rows carry the dip conditioning, certified ones stay clean
    for r in sr.rows:
        assert r.certified == (r.rcond >= RCOND_TOL)


def test_sweep_certified_rows_conserve_flux():
    sr = sweep(dirichlet_edge_graph(1.0), 0.1, 1.05, 2.0, 200)
    for r in sr.rows:
        if r.certified:
            assert np.max(np.abs(r.flux_residual)) <= 1e-10


def test_sweep_fabry_perot_all_pass():
    sr = sweep(fabry_perot_line(1.0), 0.1, 1.05, 2.0, 120)
    assert sr.flagged_intervals == []
    for r in sr.rows:
        assert np.max(np.abs(r.abs_t_sq - 1.0)) < 1e-12


def test_sweep_refinement_failure_propagates(monkeypatch):
    # an error inside dip refinement is not a singular matrix, so it must
    # not turn into a flagged resonance
    import fiberwave.spectrum_tools as st

    def broken(g, req):
        raise RuntimeError("assembly failed")

    monkeypatch.setattr(st, "assemble_system", broken)
    with pytest.raises(RuntimeError, match="assembly failed"):
        sweep(dirichlet_edge_graph(1.0), 0.1, 1.05, 2.0, 20)


def _count_refinement_assemblies(monkeypatch) -> list[int]:
    # the grid solves assemble through graph_solver; only the dip
    # refinement assembles through spectrum_tools' own name
    import fiberwave.spectrum_tools as st

    calls = [0]
    assemble = st.assemble_system

    def counting(g, req):
        calls[0] += 1
        return assemble(g, req)

    monkeypatch.setattr(st, "assemble_system", counting)
    return calls


def test_sweep_refines_edge_eigenvalues_to_float_spacing(monkeypatch):
    calls = _count_refinement_assemblies(monkeypatch)
    sr = sweep(dirichlet_edge_graph(1.0), 0.1, 1.05, 2.0, 100)
    eigs = edge_eigenvalues(0.1, 1.0)
    assert len(sr.dips) == len(eigs)
    for (lam_star, depth), e in zip(sr.dips, eigs):
        assert abs(lam_star - e) < 1e-12
        assert depth < RCOND_TOL
    assert calls[0] <= 10 * len(sr.dips)


def test_sweep_refinement_assembles_no_grid_lambda(monkeypatch):
    # the grid solve already factored every node: the refinement reads
    # their log|det A| and rcond and assembles off-grid lambdas only
    import fiberwave.spectrum_tools as st

    lams = []
    assemble = st.assemble_system

    def recording(g, req):
        lams.append(req.lam)
        return assemble(g, req)

    monkeypatch.setattr(st, "assemble_system", recording)
    sr = sweep(dirichlet_edge_graph(1.0), 0.1, 1.05, 2.0, 100)
    assert sr.dips and lams
    assert not {r.lam for r in sr.rows}.intersection(lams)


def _benchmark_sweep_graph() -> tuple[MetricGraph, float, float]:
    # a benchmark sweep network: 20 channels of one width
    gen = load_perfbench("gen")
    doc, lo, hi, _eigs = gen.sweep_network(np.random.default_rng([7, 0]), 3, 0.1, 60, 2)
    return graph_from_json(doc), lo, hi


@pytest.mark.parametrize("network", ["edge", "benchmark"])
def test_sweep_assembles_each_lambda_once(monkeypatch, network):
    # the grid solves assemble through graph_solver's name and the dip
    # refinement through spectrum_tools': no lambda goes through either
    # twice, so an off-grid bottom's depth comes off the refinement's own
    # factor, and it equals a single solve's rcond there
    import fiberwave.graph_solver as gs
    import fiberwave.spectrum_tools as st

    g, lo, hi = (dirichlet_edge_graph(1.0), 1.05, 2.0) if network == "edge" else _benchmark_sweep_graph()
    lams = []
    for mod in (gs, st):

        def recording(g, reqs, assemble=mod.assemble_system):
            lams.extend(req.lam for req in ([reqs] if isinstance(reqs, SolveRequest) else reqs))
            return assemble(g, reqs)

        monkeypatch.setattr(mod, "assemble_system", recording)
    sr = sweep(g, 0.1, lo, hi, 60)
    assert len(lams) == len(set(lams))
    off_grid = [(lam_star, depth) for lam_star, depth in sr.dips if lam_star not in {r.lam for r in sr.rows}]
    assert off_grid
    for lam_star, depth in off_grid:
        assert depth == solve_scattering(g, SolveRequest(lam_star, 0.1), allow_flagged=True).rcond


def test_sweep_enumerates_each_shape_once(monkeypatch):
    import fiberwave.cross_section as cs

    g, lo, hi = _benchmark_sweep_graph()
    assert len(g.channels) == 20 and len({c.cross_section for c in g.channels}) == 1
    levels = []
    enumerate_thresholds = cs.enumerate_thresholds

    def recording(shape, level):
        levels.append(level)
        return enumerate_thresholds(shape, level)

    monkeypatch.setattr(cs, "enumerate_thresholds", recording)
    sr = sweep(g, 0.1, lo, hi, 60)
    assert sr.dips  # the refinement resolved off-grid lambdas too
    assert len(levels) == 1 and levels[0] >= hi


def test_sweep_fabry_perot_dips_cost_few_assemblies(monkeypatch):
    # |det A| is constant on the Fabry-Perot line and only its phase turns:
    # the grid's log|det A| has no strict local minimum, so nothing is
    # refined and nothing is flagged
    calls = _count_refinement_assemblies(monkeypatch)
    sr = sweep(fabry_perot_line(1.0), 0.1, 1.5, 3.5, 41)
    assert sr.dips == []
    assert calls[0] == 0
    assert sr.flagged_intervals == []
    assert all(r.certified for r in sr.rows)


def test_sweep_coarse_grid_flags_edge_eigenvalues():
    # ten grid points: each dip's cell spans a fifth of the window
    sr = sweep(dirichlet_edge_graph(1.0), 0.1, 1.05, 2.0, 10)
    for e in edge_eigenvalues(0.1, 1.0):
        assert any(a <= e <= b for a, b in sr.flagged_intervals)
        assert any(abs(lam_star - e) < 1e-12 and depth < RCOND_TOL for lam_star, depth in sr.dips)


def capped_edge_beside_mirror(mirror_length: float) -> MetricGraph:
    """dirichlet_edge_graph(1.0) next to a disjoint mirror line: a lead,
    a transparent vertex and a finite edge of `mirror_length` closed by
    total reflection.  The phase of det A turns with the mirror's
    k mirror_length / eps, while |det A| and the conditioning see only the
    capped edge's eigenvalues."""
    return MetricGraph(
        channels=(
            Channel(1, math.inf, W_PI, 1, None),
            Channel(2, 1.0, W_PI, 1, 2),
            Channel(3, math.inf, W_PI, 3, None),
            Channel(4, mirror_length, W_PI, 3, 4),
        ),
        vertices=(
            Vertex(1, ((1, "start"), (2, "start")), Dirichlet()),
            Vertex(2, ((2, "end"),), Dirichlet()),
            Vertex(3, ((3, "start"), (4, "start")), Transparent()),
            Vertex(4, ((4, "end"),), Dirichlet()),
        ),
    )


def test_sweep_refinement_ignores_phase_of_det():
    # on 20 steps det A's phase turns by 1.6 to 4.9 rad across the dips'
    # two-step cells; the refinement reads |det A| only
    sr = sweep(capped_edge_beside_mirror(3.0), 0.1, 1.05, 2.0, 20)
    for e in edge_eigenvalues(0.1, 1.0):
        assert any(abs(lam_star - e) < 1e-12 and depth < RCOND_TOL for lam_star, depth in sr.dips)


def test_sweep_flags_eigenvalue_on_shoulder_of_another():
    # request 9 of the benchmark's sweep stream for seed 811, replayed as
    # perfbench/run.build_spec draws it: rounds of (2, 3, 3) modes in
    # permuted order, eps 0.1, 60 steps, 2 embedded eigenvalues.  The dip
    # at 12.1497 sits on the shoulder of the one at 12.1446, three steps
    # below, so the rcond at its grid nodes rises across it; log|det A|
    # still has a strict minimum there
    gen = load_perfbench("gen")
    rng = np.random.default_rng([811, 0])
    networks = [gen.sweep_network(rng, int(modes), 0.1, 60, 2) for _ in range(4) for modes in rng.permutation((2, 3, 3))]
    graph, lo, hi, eigs = networks[9]
    sr = sweep(graph_from_json(graph), 0.1, lo, hi, 60)
    flagged = [lam_star for lam_star, depth in sr.dips if depth < RCOND_TOL]
    assert len(flagged) == len(eigs) == 2
    for e in eigs:
        assert any(abs(lam_star - e) < 1e-12 for lam_star in flagged)
    step = (hi - lo) / 59
    for a, b in sr.flagged_intervals:
        assert any(a - step <= e <= b + step for e in eigs)


def test_v_bottom_zero_smooth_minimum_and_flat():
    calls = []

    def bottom(log_abs_det):
        # the grid supplies the cell's three samples; log_d is called for
        # new points only
        def log_d(lam):
            calls.append(lam)
            return log_abs_det(lam)

        calls.clear()
        return _v_bottom(log_d, [(lam, log_abs_det(lam)) for lam in (1.0, 1.3, 1.6)])

    # a zero under a steeply varying |c|: found to float spacing
    lam = bottom(lambda lam: math.log(abs((lam - 1.2345) * math.exp(4.0 * lam))) if lam != 1.2345 else -math.inf)
    assert abs(lam - 1.2345) <= 4.5e-16
    assert 1.0 < min(calls) and max(calls) < 1.6
    # a smooth minimum (no real zero) ends within the step budget, at its bottom
    lam = bottom(lambda lam: 0.5 * math.log((lam - 1.2) ** 2 + 1e-6))
    assert abs(lam - 1.2) < 1e-4 and len(calls) <= _V_STEPS
    # a minimum flatter than _FLAT_REL: nothing beyond the three grid samples
    # (a constant |det A| has no strict minimum, so sweep never refines it)
    assert bottom(lambda lam: 2.77 + 1e-10 * (lam - 1.3) ** 2) == 1.3
    assert calls == []


@pytest.mark.parametrize("build", [loop_network, lattice_network])
def test_log_abs_det_matches_dense_determinant(build):
    g = build(np.random.default_rng(3))
    req = SolveRequest(lam=5.0, eps=0.3)
    log_abs = solve_scattering(g, req).log_abs_det
    dense = np.linalg.det(assemble_system(g, req).matrix.toarray())
    assert abs(log_abs - math.log(abs(dense))) <= 1e-12


def test_sweep_rejects_threshold_in_interval():
    with pytest.raises(IntervalContainsThreshold):
        sweep(dirichlet_lead(), 0.1, 3.0, 5.0, 10)  # contains threshold 4
    with pytest.raises(IntervalContainsThreshold):
        sweep(dirichlet_lead(), 0.1, 4.0, 4.5, 10)  # endpoint collides
    # the first channel propagates one mode throughout [1.5, 3.0]; the
    # second (thresholds 2.25, 9, ...) gains one at 2.25
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi), 1, None),
            Channel(2, math.inf, Interval(math.pi / 1.5), 1, None),
        ),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), Dirichlet()),),
    )
    with pytest.raises(IntervalContainsThreshold, match="channel 2"):
        sweep(g, 0.1, 1.5, 3.0, 10)


# dirichlet_edge_graph(1.0) as a graph file
EDGE_GRAPH_JSON = {
    "channels": [
        {"id": 1, "length": "inf", "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": None},
        {"id": 2, "length": 1.0, "cross_section": {"shape": "interval", "dims": [math.pi]}, "start": 1, "end": 2},
    ],
    "vertices": [
        {"id": 1, "ends": [[1, "start"], [2, "start"]], "junction": {"kind": "dirichlet"}},
        {"id": 2, "ends": [[2, "end"]], "junction": {"kind": "dirichlet"}},
    ],
}


def test_sweep_threads_deterministic(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(EDGE_GRAPH_JSON))
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}.csv"
        argv = ["sweep", "--graph", str(gpath), "--lo", "1.05", "--hi", "1.3", "--steps", "60",
                "--eps", "0.1", "--allow-flagged", "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_export_minimal_and_flagged(tmp_path):
    sr = sweep(dirichlet_lead(), 0.1, 1.5, 1.6, 2)
    path = tmp_path / "s.csv"
    export_spectrum(sr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,col,abs_t_sq,flux_residual,rcond,certified"
    assert len(lines) == 3  # header + 2 data rows

    sr2 = sweep(dirichlet_edge_graph(1.0), 0.1, 1.08, 1.12, 40)
    path2 = tmp_path / "f.csv"
    export_spectrum(sr2, path2)
    rows = path2.read_text().splitlines()[1:]
    flagged_rows = [r for r in rows if r.endswith(",0")]
    assert flagged_rows, "expected flagged rows inside the resonance interval"

    # re-export is byte-identical
    path3 = tmp_path / "f2.csv"
    export_spectrum(sr2, path3)
    assert path2.read_bytes() == path3.read_bytes()


# ---------------------------------------------------------------------------
# threshold extrapolation


def test_extrapolate_constant_model_exact():
    zs = (0.5, 0.4, 0.3, 0.2, 0.1)
    samples = [(1.0 + z * z, -np.eye(2)) for z in zs]
    fit = threshold_extrapolate(samples, 1.0)
    assert np.max(np.abs(fit.t0 + np.eye(2))) < 1e-12
    assert fit.residual < 1e-12


def test_extrapolate_scalar_toy():
    # generating function -exp(2iz); Taylor gives T(0) = -1, T'(0) = -2i.
    # A cubic least-squares fit on these five nodes carries ~3e-3 truncation
    # error in T(0) (measured; interpolation-grade accuracy needs degree 4).
    zs = (0.5, 0.4, 0.3, 0.2, 0.1)
    samples = [(1.0 + z * z, np.array([[-np.exp(2j * z)]])) for z in zs]
    fit = threshold_extrapolate(samples, 1.0)
    assert abs(fit.t0[0, 0] - (-1.0)) <= 3e-3
    assert abs(fit.t_prime[0, 0] - (-2j)) <= 6e-2
    assert fit.residual < 5e-4


def test_extrapolate_consistency_under_subset():
    zs = (0.5, 0.45, 0.4, 0.35, 0.3, 0.2, 0.1)
    samples = [(1.0 + z * z, np.array([[-np.exp(2j * z)]])) for z in zs]
    full = threshold_extrapolate(samples, 1.0)
    sub = threshold_extrapolate([samples[i] for i in (0, 2, 4, 5, 6)], 1.0)
    change = abs(full.t0[0, 0] - sub.t0[0, 0])
    assert change < 3 * max(full.residual, sub.residual)


def test_extrapolate_errors():
    zs = (0.5, 0.4, 0.3, 0.2)
    samples = [(1.0 + z * z, -np.eye(1)) for z in zs]
    with pytest.raises(InsufficientSamples):
        threshold_extrapolate(samples, 1.0)
    zs = (0.5, 0.4, 0.3, 0.2, 0.1)
    bad = [(1.0 + z * z, -np.eye(1 if z > 0.25 else 2)) for z in zs]
    with pytest.raises(DimensionMismatch):
        threshold_extrapolate(bad, 1.0)
    increasing = [(1.0 + z * z, -np.eye(1)) for z in reversed(zs)]
    with pytest.raises(ValueError):
        threshold_extrapolate(increasing, 1.0)
