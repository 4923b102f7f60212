"""Acceptance criteria.

Each test exercises one exit criterion at its stated tolerance and prints a
PASS line once its assertions have held (pytest reports FAIL otherwise).
Run with -s to see the lines stream.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from fiberwave.cross_section import Interval
from fiberwave.graph_model import Channel, MetricGraph, Vertex
from fiberwave.graph_solver import (
    SolveRequest,
    energy_report,
    resolve_vertex,
    solve_scattering,
    vertex_traces,
)
from fiberwave.helmholtz_oracle import (
    cross_geometry,
    duct_geometry,
    flux_residual,
    junction_matrix,
    solve_network,
)
from fiberwave.spectrum_tools import sweep, threshold_extrapolate

from conftest import (
    admissible_junction,
    dirichlet_edge_graph,
    dirichlet_lead,
    mirror_line,
    mirror_line_reflection,
    two_cross_network,
)
from test_helmholtz_oracle import step_geometry


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_unitarity_symmetry(solved_random_ensemble):
    ensemble, build_seconds = solved_random_ensemble
    t0 = time.monotonic()
    worst_u, worst_s = 0.0, 0.0
    for g, ns in ensemble:
        assert ns.certified, "random ensemble hit a resonance; reseed"
        a = ns.weighted()
        eye = np.eye(ns.ordering.M)
        worst_u = max(worst_u, float(np.linalg.norm(a.conj().T @ a - eye)))
        worst_s = max(worst_s, float(np.linalg.norm(a - a.T)))
    elapsed = build_seconds + time.monotonic() - t0
    assert len(ensemble) == 100
    assert worst_u <= 1e-10
    assert worst_s <= 1e-10
    assert elapsed < 5.0
    _report(1, f"100 networks: ||A*A-I||_F <= {worst_u:.2e}, ||A-A^T||_F <= {worst_s:.2e} "
               f"({elapsed:.2f}s)")


def test_criterion_2_energy_conservation(solved_random_ensemble):
    worst_b, worst_c = 0.0, 0.0
    for g, ns in solved_random_ensemble[0]:
        er = energy_report(ns)
        worst_b = max(worst_b, er.max_balance)
        worst_c = max(worst_c, er.max_cross)
    assert worst_b <= 1e-10
    assert worst_c <= 1e-10
    _report(2, f"flux balance <= {worst_b:.2e}, cross terms <= {worst_c:.2e}")


def test_criterion_3_closed_form_lines():
    t0 = time.monotonic()
    ns = solve_scattering(dirichlet_lead(), SolveRequest(2.0, 0.1))
    assert ns.t[0, 0] == -1.0

    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3):
        ns = solve_scattering(mirror_line(1.0), SolveRequest(2.0, eps))
        expected = mirror_line_reflection(1.0, [1.0], eps)
        phase_err = abs(cmath.phase(ns.t[0, 0] / expected))
        assert abs(abs(ns.t[0, 0]) - 1.0) <= 1e-10
        assert phase_err <= 1e-8
        worst = max(worst, phase_err)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(3, f"mirror reflection exact; phase error <= {worst:.2e} down to eps=1e-3 "
               f"({elapsed:.2f}s)")


def test_criterion_4_spider_consistency():
    rng = np.random.default_rng(20240818)
    lam, eps = 5.0, 0.1
    widths = (math.pi, math.pi / 2, 0.75 * math.pi)
    import fiberwave.cross_section as cs
    from fiberwave.graph_model import MatrixJunction

    worst0, worst1 = 0.0, 0.0
    for _ in range(20):
        n_ch = int(rng.integers(2, 6))
        channels = tuple(
            Channel(i + 1, math.inf, Interval(widths[rng.integers(0, 3)]), 1, None)
            for i in range(n_ch)
        )
        ks = []
        for c in channels:
            cnt = len(cs.thresholds_below(c.cross_section, lam))
            ks.extend(math.sqrt(lam - t) for t in cs.thresholds(c.cross_section, cnt))
        t_v = admissible_junction(np.array(ks), rng)
        g = MetricGraph(
            channels=channels,
            vertices=(
                Vertex(1, tuple((c.id, "start") for c in channels),
                       MatrixJunction(lam, t_v)),
            ),
        )
        ns = solve_scattering(g, SolveRequest(lam, eps))
        res = resolve_vertex(g, g.vertices[0], lam)
        s0, s1 = vertex_traces(ns, res, g)
        eye = np.eye(res.dim)
        worst0 = max(worst0, float(np.max(np.abs(s0 - (eye + res.t_matrix)))))
        want = (1j / eps) * res.d_diag[:, None] * (res.t_matrix - eye)
        worst1 = max(worst1, float(np.max(np.abs(s1 - want))))
    assert worst0 <= 1e-10
    assert worst1 <= 1e-10
    _report(4, f"boundary values: |S0-(I+T)| <= {worst0:.2e}, |S1-(i/eps)D(T-I)| <= {worst1:.2e}")


def test_criterion_5_oracle_self_checks():
    t0 = time.monotonic()
    lam = 2.0
    w = math.pi

    duct_err = {}
    for denom in (32, 64):
        t_duct = junction_matrix(duct_geometry(w, 2 * w, math.pi / denom), lam).matrix
        duct_err[denom] = abs(t_duct[1, 0] - 1.0)
        assert abs(t_duct[0, 0]) <= 1e-2
    assert duct_err[64] <= 1e-2
    ratio_t = duct_err[32] / duct_err[64]
    assert 3.0 <= ratio_t <= 5.0

    flux = {}
    for denom in (16, 32, 64):
        flux[denom] = abs(flux_residual(junction_matrix(step_geometry(math.pi / denom), lam))[0])
    r1, r2 = flux[16] / flux[32], flux[32] / flux[64]
    assert 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0

    base = junction_matrix(cross_geometry(w, 2 * w, math.pi / 32), lam).matrix
    long_stub = junction_matrix(cross_geometry(w, 4 * w, math.pi / 32), lam).matrix
    margin = float(np.max(np.abs(long_stub - base)))
    assert np.array_equal(long_stub, base)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(5, f"duct |t-1|={duct_err[64]:.2e} (ratio {ratio_t:.2f}); flux ratios "
               f"{r1:.2f},{r2:.2f}; margin {margin:.1e} ({elapsed:.1f}s)")


def test_criterion_6_graph_vs_pde_convergence():
    t0 = time.monotonic()
    lam, length, h = 2.0, math.pi / 2, math.pi / 32
    incident = (2, 0)  # side arm: breaks the mirror symmetry of the link
    g = two_cross_network(length, h)
    errs = {}
    for eps in (1.0, 0.5, 0.25):
        ns = solve_scattering(g, SolveRequest(lam, eps))
        t_oracle = solve_network(g, lam, eps)
        col = ns.ordering.index(*incident)
        rows = [ns.ordering.index(c, 0) for c in (1, 2, 3, 4, 5, 6)]
        errs[eps] = max(abs(ns.t[r, col] - t_oracle[r, col]) for r in rows)
    # measured discretization floor: oracle amplitudes at h vs h/2, eps = 1/4
    g2 = two_cross_network(length, h / 2)
    t1 = solve_network(g, lam, 0.25)
    t2 = solve_network(g2, lam, 0.25)
    floor = max(abs(t1[r, col] - t2[r, col]) for r in rows)

    assert errs[1.0] >= errs[0.5] - floor
    assert errs[0.5] >= errs[0.25] - floor
    assert errs[0.25] <= errs[1.0] / 2
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    _report(6, f"errors {errs[1.0]:.2e} -> {errs[0.5]:.2e} -> {errs[0.25]:.2e} "
               f"(floor {floor:.2e}) ({elapsed:.1f}s)")


def test_criterion_7_threshold_limit():
    t0 = time.monotonic()
    w = math.pi
    geom = cross_geometry(w, 2 * w, math.pi / 32)
    samples = []
    for z in (0.5, 0.4, 0.3, 0.2, 0.1):
        lam = 1.0 + z * z
        samples.append((lam, junction_matrix(geom, lam).matrix))
    fit = threshold_extrapolate(samples, 1.0)
    dev = float(np.max(np.abs(fit.t0 + np.eye(4))))
    assert dev <= 0.05

    const = [(1.0 + z * z, -np.eye(3)) for z in (0.5, 0.4, 0.3, 0.2, 0.1)]
    fit_const = threshold_extrapolate(const, 1.0)
    assert np.max(np.abs(fit_const.t0 + np.eye(3))) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(7, f"cross junction ||T(0)+I||max = {dev:.3f} <= 0.05; constant model exact "
               f"({elapsed:.1f}s)")


def test_criterion_8_resonance_flagging():
    t0 = time.monotonic()
    eps, length = 0.1, 1.0
    g = dirichlet_edge_graph(length)
    steps = 1000
    sr = sweep(g, eps, 1.05, 2.0, steps)
    step = (2.0 - 1.05) / (steps - 1)
    eigs = [1.0 + (math.pi * p * eps / length) ** 2 for p in (1, 2, 3)]
    for e in eigs:
        assert any(lo - step <= e <= hi + step for lo, hi in sr.flagged_intervals), e
    for lo, hi in sr.flagged_intervals:
        assert any(lo - step <= e <= hi + step for e in eigs), (lo, hi)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(8, f"{len(sr.flagged_intervals)} flagged intervals match the closed-form "
               f"eigenvalues within one grid step; no false flags ({elapsed:.1f}s)")
