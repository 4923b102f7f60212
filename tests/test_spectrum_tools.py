"""Sweeps, resonance flagging, CSV export, threshold extrapolation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fiberwave.cli import graph_to_json, main
from fiberwave.cross_section import Interval
from fiberwave.errors import (
    DimensionMismatch,
    InsufficientSamples,
    IntervalContainsThreshold,
)
from fiberwave.graph_model import Channel, Dirichlet, MetricGraph, Vertex
from fiberwave.graph_solver import RCOND_TOL
from fiberwave.spectrum_tools import export_spectrum, sweep, threshold_extrapolate

from conftest import dirichlet_edge_graph, dirichlet_lead, fabry_perot_line


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
    # uncertified rows carry the dip conditioning, certified ones stay
    # clean, whatever the flag threshold
    for flag_tol in (RCOND_TOL, 0.5):
        sr = sweep(g, eps, 1.05, 2.0, 100, flag_tol=flag_tol)
        for r in sr.rows:
            assert r.certified == (r.rcond >= flag_tol)


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
        sweep(fabry_perot_line(1.0), 0.1, 1.5, 3.5, 41)


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


def test_sweep_threads_deterministic(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph_to_json(dirichlet_edge_graph(1.0))))
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
