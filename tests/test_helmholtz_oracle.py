"""Finite-difference oracle: duct and junction physics, rates, sensitivity."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from fiberwave import helmholtz_oracle
from fiberwave.cli import graph_from_json
from fiberwave.cross_section import Disk, Interval
from fiberwave.errors import (
    DimensionMismatch,
    GeometryInvalid,
    GraphInvalid,
    GridBudgetExceeded,
    GridTooCoarse,
    NonConvergedSolve,
    UnresolvableJunction,
)
from fiberwave.graph_model import Channel, Dirichlet, MetricGraph, OracleJunction, Vertex
from fiberwave.graph_solver import SolveRequest, solve_scattering
from fiberwave.helmholtz_oracle import (
    PlanarGeometry,
    Stub,
    _extract,
    _factor,
    _incidents,
    _operator,
    cross_geometry,
    duct_geometry,
    elbow_geometry,
    flux_residual,
    junction_matrix,
    solve_network,
)

from conftest import load_perfbench

W = math.pi
LAM = 2.0


def step_geometry(h: float) -> PlanarGeometry:
    """Mixed-width junction: full-width left arm, narrower right arm."""
    w2 = 0.75 * math.pi
    return PlanarGeometry(
        cores=((0.0, 0.0, W, W),),
        stubs=(
            Stub(rect=(-2 * W, 0.0, 0.0, W), direction="-x"),
            Stub(rect=(W, 0.0, W + 2 * w2, w2), direction="+x"),
        ),
        h=h,
    )


def test_duct_transmission_accuracy_and_rate():
    errs = {}
    for denom in (32, 64):
        t_duct = junction_matrix(duct_geometry(W, 2 * W, math.pi / denom), LAM).matrix
        t = t_duct[1, 0]
        r = t_duct[0, 0]
        errs[denom] = abs(t - 1.0)
        assert abs(r) <= 1e-2
    assert errs[64] <= 1e-2
    assert 3.0 <= errs[32] / errs[64] <= 5.0


def test_duct_richardson_extrapolation_rate():
    ts = {}
    for denom in (32, 64, 128):
        ts[denom] = junction_matrix(duct_geometry(W, 2 * W, math.pi / denom), LAM).matrix[1, 0]
    rich = ts[128] + (ts[128] - ts[64]) / 3.0
    e1, e2 = abs(ts[32] - rich), abs(ts[64] - rich)
    assert 3.0 <= e1 / e2 <= 5.0


@pytest.mark.parametrize("denom", [16, 32, 64])
def test_straight_duct_reflects_nothing(denom):
    """A duct is one uniform strip, which every mode's closure continues
    exactly: nothing reflects, and each mode passes at unit modulus
    (lambda = 6 carries two modes)."""
    for lam in (1.3, 2.0, 3.4, 6.0):
        js = junction_matrix(duct_geometry(W, 2 * W, math.pi / denom), lam)
        n = js.mode_counts[0]
        t = js.matrix
        assert max(np.max(np.abs(t[:n, :n])), np.max(np.abs(t[n:, n:]))) <= 1e-12, lam
        assert np.max(np.abs(np.abs(t[n:, :n]) - np.eye(n))) <= 1e-12, lam


def single_incident_column(geom: PlanarGeometry, lam: float, col: int) -> np.ndarray:
    """Column `col` of the junction matrix from an operator, a factor and
    a solve of that incident alone."""
    matrix, stubs = _operator(geom, lam)
    b = _incidents(matrix.shape[0], stubs)
    u = np.zeros_like(b)
    u[:, col] = _factor(matrix, lam).solve(b[:, col])
    return _extract(u, stubs, geom.h)[:, col]


def test_solver_linearity():
    geom = cross_geometry(W, 2 * W, math.pi / 16)
    matrix, stubs = _operator(geom, LAM)
    lu = _factor(matrix, LAM)
    b = _incidents(matrix.shape[0], stubs)
    b1 = b[:, 0]  # incident (0, 0)
    b2 = b[:, 2]  # incident (2, 0)
    u1 = lu.solve(b1)
    u2 = lu.solve(b2)
    u12 = lu.solve(b1 + 2.5j * b2)
    assert np.max(np.abs(u12 - (u1 + 2.5j * u2))) < 1e-12


def test_modal_ratio_branch_at_both_band_edges():
    """On a width-pi stub at h = pi/32, mode 1 just past its threshold is an
    outgoing wave (z -> 1 from below, |r| = 1) and mode 2 just short of its
    discrete threshold a decaying one (z -> 1 from above, |r| < 1)."""
    h = math.pi / 32
    geom = duct_geometry(W, 2 * W, h)
    mu_2 = _operator(geom, LAM)[1][0].mu[1]
    for lam, mode in ((1.0 + 1e-6, 0), (mu_2 - 1e-9, 1)):
        s = _operator(geom, lam)[1][0]
        z = 1.0 + h * h * (s.mu[mode] - lam) / 2.0
        r = s.ratio[mode]
        if mode < s.n_prop:
            assert z < 1.0 and abs(abs(r) - 1.0) <= 4 * np.finfo(float).eps
        else:
            assert z > 1.0 and abs(r) < 1.0
        assert abs(r + 1.0 / r - 2.0 * z) <= 1e-12 * abs(2.0 * z)
        js = junction_matrix(geom, lam)
        assert np.all(np.isfinite(js.matrix))
        assert np.max(np.abs(flux_residual(js))) <= h**2


def test_cross_junction_symmetry_orbits():
    t = junction_matrix(cross_geometry(W, 2 * W, math.pi / 32), LAM).matrix
    diag = np.diagonal(t)
    assert np.max(np.abs(diag - diag[0])) <= 1e-2
    through = [t[1, 0], t[0, 1], t[3, 2], t[2, 3]]
    assert max(abs(x - through[0]) for x in through) <= 1e-2
    turns = [t[2, 0], t[3, 0], t[2, 1], t[3, 1], t[0, 2], t[1, 2], t[0, 3], t[1, 3]]
    assert max(abs(x - turns[0]) for x in turns) <= 1e-2


def test_junction_unitarity_h2_on_mixed_widths():
    w2 = 0.75 * math.pi
    d = np.array([1.0, math.sqrt(LAM - (math.pi / w2) ** 2)])
    s = np.sqrt(d)
    devs = {}
    for denom in (32, 64):
        t = junction_matrix(step_geometry(math.pi / denom), LAM).matrix
        a = (s[:, None] * t) / s[None, :]
        devs[denom] = np.linalg.norm(a.conj().T @ a - np.eye(2))
        # reciprocity within the same envelope
        assert np.linalg.norm(a - a.T) <= 2.0 * (math.pi / denom) ** 2
        assert devs[denom] <= 2.0 * (math.pi / denom) ** 2
    assert 3.0 <= devs[32] / devs[64] <= 5.0


def test_flux_residual_h2_rate_mixed_widths():
    fluxes = {}
    for denom in (16, 32, 64):
        fluxes[denom] = abs(flux_residual(junction_matrix(step_geometry(math.pi / denom), LAM))[0])
    assert 3.0 <= fluxes[16] / fluxes[32] <= 5.0
    assert 3.0 <= fluxes[32] / fluxes[64] <= 5.0


def test_cross_junction_converges_below_second_order():
    """The field has an r^(2/3) singularity at each 270-degree corner of
    the cross (Grisvard), so its junction matrix converges at about first
    order in h: halving h from pi/32 to pi/64 shrinks the change of the
    matrix by about 2.2 (1.006e-2, then 4.644e-3), not the 4 of O(h^2)."""
    t = {denom: junction_matrix(cross_geometry(W, 2 * W, math.pi / denom), LAM).matrix for denom in (16, 32, 64)}
    ratio = np.max(np.abs(t[32] - t[16])) / np.max(np.abs(t[64] - t[32]))
    assert 2.0 <= ratio <= 3.0


def test_equal_width_junction_unitary_tight():
    t = junction_matrix(cross_geometry(W, 2 * W, math.pi / 32), LAM).matrix
    assert np.linalg.norm(t.conj().T @ t - np.eye(4)) <= 2.0 * (math.pi / 32) ** 2


def test_evanescent_margin_insensitive():
    """A stub of any whole number of cells, one cell or shorter than its
    width included, leaves the junction matrix as it is."""
    h = math.pi / 32
    t1 = junction_matrix(cross_geometry(W, 2 * W, h), LAM).matrix
    for length in (h, W / 2, 4 * W, 5 * W):
        t2 = junction_matrix(cross_geometry(W, length, h), LAM).matrix
        assert np.array_equal(t2, t1), length


def test_stubs_are_not_meshed():
    """Only a stub's base plane and the line past it are unknowns, and the
    strip beyond is semi-infinite, so a longer stub leaves the operator as
    it is, entry for entry."""
    short, short_stubs = _operator(cross_geometry(W, 2 * W, math.pi / 32), LAM)
    long, long_stubs = _operator(cross_geometry(W, 4 * W, math.pi / 32), LAM)
    assert short.shape == long.shape
    assert all(s.ids.shape == (2, 31) for s in short_stubs + long_stubs)
    assert (short != long).nnz == 0


def test_junction_metadata():
    geom = cross_geometry(W, 2 * W, math.pi / 16)
    js = junction_matrix(geom, LAM)
    assert js.lam == LAM and js.h == geom.h
    assert js.mode_counts == (1, 1, 1, 1)
    assert js.geometry_hash == geom.hash()
    assert js.entries == [(0, 0), (1, 0), (2, 0), (3, 0)]


def test_no_propagating_modes_below_bottom():
    geom = duct_geometry(W, 2 * W, math.pi / 16)
    matrix, stubs = _operator(geom, 0.5)
    assert all(s.n_prop == 0 for s in stubs)
    u = _factor(matrix, 0.5).solve(_incidents(matrix.shape[0], stubs))
    assert u.shape == (matrix.shape[0], 0)
    assert _extract(u, stubs, geom.h).shape == (0, 0)
    js = junction_matrix(geom, 0.5)
    assert js.matrix.shape == (0, 0)
    assert flux_residual(js).shape == (0,)


def test_junction_matrix_without_propagating_modes():
    js = junction_matrix(cross_geometry(W, 2 * W, math.pi / 16), 0.5)
    assert js.matrix.shape == (0, 0)
    assert js.mode_counts == (0, 0, 0, 0)
    assert js.entries == []


def test_no_propagating_modes_is_not_factored(monkeypatch):
    """With no incident column there is nothing to factor, but every
    geometry and grid check still runs."""

    def refuse(mat, **kw):
        raise AssertionError("an operator with no propagating modes was factored")

    monkeypatch.setattr(helmholtz_oracle, "splu", refuse)
    assert junction_matrix(cross_geometry(W, 2 * W, math.pi / 16), 0.5).matrix.shape == (0, 0)
    overlap = PlanarGeometry(
        cores=((0.0, 0.0, W, W), (0.5 * W, 0.0, 1.5 * W, W)),
        stubs=(Stub(rect=(-2 * W, 0.0, 0.0, W), direction="-x"),),
        h=math.pi / 16,
    )
    with pytest.raises(GeometryInvalid):
        junction_matrix(overlap, 0.5)
    # the grid's first mode propagates just below the continuum threshold 1
    with pytest.raises(GridTooCoarse):
        junction_matrix(cross_geometry(W, 2 * W, math.pi / 16), 0.998)


def test_junction_matrix_columns_match_single_incident_solves():
    geom = cross_geometry(W, 2 * W, math.pi / 32)
    js = junction_matrix(geom, LAM)
    for col in range(len(js.entries)):
        column = single_incident_column(geom, LAM, col)
        assert np.max(np.abs(js.matrix[:, col] - column)) <= 1e-13


# ---------------------------------------------------------------------------
# geometry validation


def test_geometry_misaligned():
    with pytest.raises(GeometryInvalid):
        junction_matrix(duct_geometry(1.0, 2.37, 0.1), LAM)


def test_geometry_overlap():
    geom = PlanarGeometry(
        cores=((0.0, 0.0, W, W), (0.5 * W, 0.0, 1.5 * W, W)),
        stubs=(Stub(rect=(-2 * W, 0.0, 0.0, W), direction="-x"),),
        h=math.pi / 16,
    )
    with pytest.raises(GeometryInvalid):
        junction_matrix(geom, LAM)


def test_geometry_stub_side_wall_touched():
    """A stub's strip past its first line is eliminated as a uniform strip,
    so no rectangle may touch its side walls there."""
    geom = PlanarGeometry(
        cores=((0.0, 0.0, W, W), (-2 * W, W, -W, 2 * W)),
        stubs=(Stub(rect=(-2 * W, 0.0, 0.0, W), direction="-x"),),
        h=math.pi / 16,
    )
    with pytest.raises(GeometryInvalid, match="side wall"):
        junction_matrix(geom, LAM)


H16 = math.pi / 16
_SIDE_X = Stub(rect=(-2 * W, 0.0, 0.0, W), direction="-x")
# its truncation plane y = W ends on the corner (-2W, W) of _SIDE_X's side
# wall, so it refuses only because truncation planes are marked before the
# side walls are checked
_SIDE_Y = Stub(rect=(-3 * W + H16, W, -2 * W + H16, 3 * W), direction="-y")


@pytest.mark.parametrize(
    "geom, lam, exc, fragment",
    [
        (cross_geometry(W, 2 * W, math.inf), LAM, GeometryInvalid, "positive and finite"),
        (cross_geometry(W, 2 * W, H16), math.nan, ValueError, "lambda must be finite"),
        (duct_geometry(10.0, 20.0, 1.0), LAM, GridTooCoarse, "points per wavelength"),
        (PlanarGeometry(((0.0, 0.0, 0.0, W),), (), H16), LAM, GeometryInvalid, "degenerate rectangle"),
        (PlanarGeometry((), (Stub((-2 * W, 0.0, 0.0, W), "x-"),), H16), LAM, GeometryInvalid,
         "unknown stub direction"),
        (PlanarGeometry((), (), H16), LAM, GeometryInvalid, "no rectangles"),
        (PlanarGeometry((), (Stub((-2 * H16, 0.0, 0.0, H16), "-x"),), H16), LAM, GeometryInvalid,
         "only one cell wide"),
        (duct_geometry(W, 2 * W, H16), 0.998, GridTooCoarse, "discrete grid sees"),
        (PlanarGeometry(((-3 * W, 0.0, -2 * W, W),), (_SIDE_X,), H16), LAM, GeometryInvalid,
         "truncation plane is blocked"),
        (PlanarGeometry(((0.0, 0.0, H16, H16),), (), H16), LAM, GeometryInvalid, "no interior nodes"),
        (PlanarGeometry(((0.0, 0.0, W, W),), (_SIDE_X, _SIDE_Y), H16), LAM, GeometryInvalid,
         "side wall past its first line"),
        (PlanarGeometry(((0.0, 0.0, W, W),), (_SIDE_Y, _SIDE_X), H16), LAM, GeometryInvalid,
         "side wall past its first line"),
        # a detached square in the -x stub's strip, past the stub's far edge
        (PlanarGeometry(((0.0, 0.0, W, W), (-4 * W, 0.0, -3 * W, W)), cross_geometry(W, 2 * W, H16).stubs, H16),
         LAM, GeometryInvalid, "stub 0: a rectangle lies in its strip past its far edge"),
    ],
    ids=["h-inf", "lambda-nan", "points-per-wavelength", "degenerate", "direction", "empty",
         "one-cell-wide", "discrete-threshold", "truncation-blocked", "no-interior",
         "corner-x-first", "corner-y-first", "past-far-edge"],
)
def test_lattice_refusals(geom, lam, exc, fragment):
    """Every refusal of the lattice builder keeps its type and message."""
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        junction_matrix(geom, lam)
    assert type(info.value) is exc


def test_grid_too_coarse():
    geom = duct_geometry(10.0, 20.0, 1.0)  # h = 1 > 2 pi / (10 sqrt 2)
    with pytest.raises(GridTooCoarse):
        junction_matrix(geom, LAM)


def test_grid_budget(monkeypatch):
    monkeypatch.setattr(helmholtz_oracle, "DEFAULT_NODE_BUDGET", 100)
    with pytest.raises(GridBudgetExceeded):
        junction_matrix(duct_geometry(W, 2 * W, math.pi / 64), LAM)


def test_singular_factorization_is_non_converged(monkeypatch):
    def singular(mat, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(helmholtz_oracle, "splu", singular)
    with pytest.raises(NonConvergedSolve, match="exactly singular"):
        junction_matrix(duct_geometry(W, 2 * W, math.pi / 16), LAM)


class _PerturbedFactor:
    """A SuperLU factor whose solve returns its true block plus `delta`."""

    def __init__(self, lu, delta):
        self._lu, self._delta = lu, delta

    def solve(self, b):
        return self._lu.solve(b) + self._delta


@pytest.mark.parametrize("delta", [1e-6, math.nan], ids=["perturbed", "non-finite"])
def test_single_solve_keeps_residual_gate(monkeypatch, delta):
    """With no refinement step after it, the one block solve is what the
    residual and finiteness test sees."""
    real_splu = helmholtz_oracle.splu
    monkeypatch.setattr(helmholtz_oracle, "splu", lambda mat, **kw: _PerturbedFactor(real_splu(mat, **kw), delta))
    with pytest.raises(NonConvergedSolve, match="discrete solve residual"):
        junction_matrix(cross_geometry(W, 2 * W, math.pi / 16), LAM)


def test_oracle_factor_fill_below_default_ordering():
    """The minimum-degree order on A^T + A suits the nearly symmetric
    stencil: on the pi/32 cross junction its factor holds at most 0.7 of
    the L + U entries of scipy's default (COLAMD) order (0.64 measured)."""
    matrix, _ = _operator(cross_geometry(W, 2 * W, math.pi / 32), LAM)
    lu = _factor(matrix, LAM)
    default = splu(matrix)
    assert lu.L.nnz + lu.U.nnz <= 0.7 * (default.L.nnz + default.U.nnz)


# ---------------------------------------------------------------------------
# full-network solves


def two_vertex_network(a, b, length: float = math.pi) -> MetricGraph:
    """Vertex 1 (lead 1, then link 2's start) and vertex 2 (link 2's end,
    then lead 3) with junction models a and b, all of width pi."""
    shape = Interval(W)
    return MetricGraph(
        channels=(
            Channel(1, math.inf, shape, 1, None),
            Channel(2, length, shape, 1, 2),
            Channel(3, math.inf, shape, 2, None),
        ),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), a), Vertex(2, ((2, "end"), (3, "start")), b)),
    )


def duct_network(length: float, h: float) -> MetricGraph:
    geom = OracleJunction(duct_geometry(W, 2 * W, h))
    return two_vertex_network(geom, geom, length)


def ring_network(links: Sequence[float], h: float) -> MetricGraph:
    """Four cross junctions on the corners of a square joined by links 1-4
    of the given lengths (1: vertex 1 to 2 along +x, 2: 2 to 3 along +y,
    3: 4 to 3 along +x, 4: 1 to 4 along +y), with two leads on each vertex
    (channels 5-12)."""
    shape = Interval(W)
    geom = OracleJunction(cross_geometry(W, 2 * W, h))
    ends = (  # in the cross's stub order -x, +x, -y, +y
        ((5, "start"), (1, "start"), (6, "start"), (4, "start")),
        ((1, "end"), (7, "start"), (8, "start"), (2, "start")),
        ((3, "end"), (9, "start"), (2, "end"), (10, "start")),
        ((11, "start"), (3, "start"), (4, "end"), (12, "start")),
    )
    link_ends = ((1, 2), (2, 3), (4, 3), (1, 4))
    channels = [Channel(c, length, shape, *ab) for c, (length, ab) in enumerate(zip(links, link_ends), start=1)]
    channels += [Channel(c, math.inf, shape, (c - 3) // 2, None) for c in range(5, 13)]
    return MetricGraph(
        channels=tuple(channels),
        vertices=tuple(Vertex(v, e, geom) for v, e in enumerate(ends, start=1)),
    )


def test_network_duct_matches_graph_fabry_perot():
    """A free duct split as two degenerate junctions and one finite channel
    must transmit e^{i k l / eps} like the graph's pass-through line."""
    length, eps, h = math.pi, 0.5, math.pi / 32
    g = duct_network(length, h)
    ns = solve_scattering(g, SolveRequest(LAM, eps))
    row, col = ns.ordering.index(3, 0), ns.ordering.index(1, 0)
    t_graph = ns.t[row, col]
    t_oracle = solve_network(g, LAM, eps)[row, col]
    k = 1.0
    t_exact = complex(math.cos(k * length / eps), math.sin(k * length / eps))
    assert abs(t_oracle - t_graph) <= 2e-2
    assert abs(t_oracle - t_exact) <= 2e-2
    assert abs(t_graph - t_exact) <= 2e-2


def elbow_pair_network(length: float, h: float) -> MetricGraph:
    up = elbow_geometry(W, 2 * W, h)  # stubs: (-x infinite, +y channel)
    down = PlanarGeometry(  # stubs: (-y channel, +x infinite)
        cores=((0.0, 0.0, W, W),),
        stubs=(
            Stub(rect=(0.0, -2 * W, W, 0.0), direction="-y"),
            Stub(rect=(W, 0.0, 3 * W, W), direction="+x"),
        ),
        h=h,
    )
    return two_vertex_network(OracleJunction(up), OracleJunction(down), length)


def meshed_elbow_pair(length: float, h: float, eps: float) -> PlanarGeometry:
    """elbow_pair_network's thin network at eps, meshed whole: its link
    runs up from the first elbow's core to the second's."""
    up = W + length / eps
    return PlanarGeometry(
        cores=((0.0, 0.0, W, W), (0.0, W, W, up), (0.0, up, W, up + W)),
        stubs=(Stub((-2 * W, 0.0, 0.0, W), "-x"), Stub((W, up, 3 * W, up + W), "+x")),
        h=h,
    )


def meshed_duct(length: float, h: float, eps: float) -> PlanarGeometry:
    """duct_network's thin network at eps, meshed whole: one strip."""
    far = length / eps
    return PlanarGeometry(
        cores=((0.0, 0.0, far, W),),
        stubs=(Stub((-2 * W, 0.0, 0.0, W), "-x"), Stub((far, 0.0, far + 2 * W, W), "+x")),
        h=h,
    )


def cross_lattice(nx: int, ny: int, length: float, h: float, eps: float) -> tuple[MetricGraph, PlanarGeometry]:
    """An nx x ny lattice of crosses joined by links of the given length,
    with a lead on each outer stub, numbered from 1 in vertex then stub
    order; and its thin network at eps, meshed whole: the crosses on a
    pitch of W + length / eps, with the links between them."""
    cross = cross_geometry(W, 2 * W, h)
    pitch = W + length / eps
    shape = Interval(W)
    channels, ends, cores, stubs = [], {}, [], []
    for j in range(ny):
        for i in range(nx):
            v, dx, dy = 1 + i + nx * j, i * pitch, j * pitch
            cores.append((dx, dy, dx + W, dy + W))
            ends.setdefault(v, [None] * 4)
            # the cross's stubs are -x, +x, -y, +y
            for k, (stub, at, edge) in enumerate(zip(cross.stubs, (i, i, j, j), (0, nx - 1, 0, ny - 1))):
                x0, y0, x1, y1 = stub.rect
                if at == edge:
                    cid = len(stubs) + 1
                    channels.append(Channel(cid, math.inf, shape, v, None))
                    stubs.append(Stub((x0 + dx, y0 + dy, x1 + dx, y1 + dy), stub.direction))
                    ends[v][k] = (cid, "start")
                elif k in (1, 3):  # a +x or +y stub starts the link to the next cross
                    cid, w = 100 * k + v, v + (1 if k == 1 else nx)
                    channels.append(Channel(cid, length, shape, v, w))
                    ends[v][k] = (cid, "start")
                    ends.setdefault(w, [None] * 4)[k - 1] = (cid, "end")
                    cores.append((dx + W, dy, dx + pitch, dy + W) if k == 1 else (dx, dy + W, dx + W, dy + pitch))
    vertices = tuple(Vertex(v, tuple(e), OracleJunction(cross)) for v, e in sorted(ends.items()))
    return MetricGraph(tuple(channels), vertices), PlanarGeometry(tuple(cores), tuple(stubs), h)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.125])
def test_network_composition_matches_meshed_network(eps):
    """A link is a uniform strip that its stubs' discrete modes solve
    exactly, so the junctions joined through their links are the 5-point
    solve of the whole meshed network, to rounding."""
    h, length = math.pi / 32, math.pi / 2
    cases = (
        cross_lattice(2, 1, length, h, eps),
        (elbow_pair_network(length, h), meshed_elbow_pair(length, h, eps)),
        (duct_network(length, h), meshed_duct(length, h, eps)),
    )
    for g, geom in cases:
        assert np.max(np.abs(solve_network(g, LAM, eps) - junction_matrix(geom, LAM).matrix)) <= 1e-12


@pytest.mark.parametrize(
    "nx, ny, cells, eps",
    [(3, 3, 16, 1.0), (3, 3, 16, 0.5), (2, 1, 1, 1.0), (2, 1, 2, 1.0), (2, 1, 3, 1.0)],
    ids=["3x3-eps-1", "3x3-eps-1/2", "one-cell-link", "two-cell-link", "three-cell-link"],
)
def test_network_composition_matches_meshed_lattice(nx, ny, cells, eps):
    """The same on a 3 x 3 lattice of crosses, whose links close cycles,
    and on two crosses joined by a link of a few cells: a one-cell link
    has no line of its own, each base plane is the other's first line."""
    h = math.pi / 32
    g, geom = cross_lattice(nx, ny, cells * h, h, eps)
    assert np.max(np.abs(solve_network(g, LAM, eps) - junction_matrix(geom, LAM).matrix)) <= 1e-12


def test_network_elbow_pair_error_non_increasing_in_eps():
    h = math.pi / 32
    errs = {}
    for eps in (1.0, 0.5, 0.25):
        g = elbow_pair_network(math.pi / 2, h)
        t_oracle = solve_network(g, LAM, eps)
        ns = solve_scattering(g, SolveRequest(LAM, eps))
        col = ns.ordering.index(1, 0)
        rows = (ns.ordering.index(1, 0), ns.ordering.index(3, 0))
        errs[eps] = max(abs(ns.t[r, col] - t_oracle[r, col]) for r in rows)
    # h^2 floor from grid refinement at the smallest eps
    g64 = elbow_pair_network(math.pi / 2, math.pi / 64)
    t32 = solve_network(elbow_pair_network(math.pi / 2, h), LAM, 0.25)
    t64 = solve_network(g64, LAM, 0.25)
    floor = max(abs(t32[r, col] - t64[r, col]) for r in rows)
    assert errs[1.0] >= errs[0.5] - floor
    assert errs[0.5] >= errs[0.25] - floor


_DUCT16 = OracleJunction(duct_geometry(W, 2 * W, H16))
_LEAD16 = OracleJunction(PlanarGeometry(((0.0, 0.0, W, W),), (Stub((-2 * W, 0.0, 0.0, W), "-x"),), H16))


@pytest.mark.parametrize(
    "g, exc, fragment",
    [
        (two_vertex_network(_DUCT16, Dirichlet()), UnresolvableJunction, "vertex 2 has no oracle geometry"),
        (two_vertex_network(_DUCT16, OracleJunction("duct")), GeometryInvalid, "not a PlanarGeometry"),
        (two_vertex_network(OracleJunction(cross_geometry(W, 2 * W, H16)), _DUCT16), DimensionMismatch,
         "4 stubs serve 2 incident ends"),
        (two_vertex_network(_DUCT16, OracleJunction(duct_geometry(W, 2 * W, H16 / 2))), GeometryInvalid,
         "same grid spacing"),
        (two_vertex_network(_DUCT16, OracleJunction(duct_geometry(W / 2, 2 * W, H16))), GeometryInvalid,
         "channel 2: stub widths differ"),
        (duct_network(1.5 * H16, H16), GeometryInvalid, "not an integer multiple of h"),
    ],
    ids=["dirichlet", "not-planar", "stub-count", "mixed-h", "widths", "link-length"],
)
def test_network_geometry_refusals(g, exc, fragment):
    """Every refusal of the network solve keeps its type and message."""
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        solve_network(g, LAM, 1.0)
    assert type(info.value) is exc


@pytest.mark.parametrize("lead", [Interval(2.0), Disk(1.0)], ids=["interval", "disk"])
def test_network_refuses_a_stub_its_channel_does_not_match(lead):
    """A lead whose cross-section is not the interval of its stub's width
    is refused by the network solve as by the graph solve, with the same
    error."""
    g = duct_network(math.pi, H16)
    g = MetricGraph((dataclasses.replace(g.channels[0], cross_section=lead), *g.channels[1:]), g.vertices)
    for solve in (solve_network, lambda g, lam, eps: solve_scattering(g, SolveRequest(lam, eps))):
        with pytest.raises(DimensionMismatch, match="does not match channel 1"):
            solve(g, LAM, 1.0)


def test_network_invalid_graph_is_typed():
    """A finite channel whose end no vertex owns is a GraphInvalid, as in
    the graph solve, not a failed lookup in the composition."""
    g = two_vertex_network(_DUCT16, _LEAD16)
    g = MetricGraph(g.channels, (g.vertices[0], Vertex(2, ((3, "start"),), _LEAD16)))
    with pytest.raises(GraphInvalid) as info:
        solve_network(g, LAM, 1.0)
    assert [v.code for v in info.value.violations] == ["dangling_end"]


def test_network_ring_closes():
    """Four crosses in a ring: the thin ring approaches the graph as eps
    shrinks."""
    g = ring_network((math.pi / 2,) * 4, H16)
    worst = {}
    for eps in (1.0, 0.5):
        ns = solve_scattering(g, SolveRequest(LAM, eps))
        worst[eps] = float(np.max(np.abs(ns.t - solve_network(g, LAM, eps))))
    assert worst[1.0] == pytest.approx(2.46e-2, abs=5e-5)
    assert worst[0.5] == pytest.approx(3.43e-3, abs=5e-6)


def test_network_need_not_close_in_the_plane():
    """Two up-elbows, whose link leaves the first by its +y stub and
    enters the second by its -x stub, and a ring with one link longer than
    the one opposite it cannot be laid out in the plane.  Their links join
    mode n to mode n all the same, and the graph approaches them as eps
    shrinks."""
    elbows = two_vertex_network(*[OracleJunction(elbow_geometry(W, 2 * W, H16))] * 2, length=math.pi / 2)
    ring = ring_network((math.pi / 2,) * 3 + (math.pi,), H16)
    worst = {}
    for name, g in (("elbows", elbows), ("ring", ring)):
        for eps in (1.0, 0.5):
            ns = solve_scattering(g, SolveRequest(LAM, eps))
            worst[name, eps] = float(np.max(np.abs(ns.t - solve_network(g, LAM, eps))))
    assert worst["elbows", 1.0] == pytest.approx(9.54e-3, abs=5e-6)
    assert worst["elbows", 0.5] == pytest.approx(3.36e-4, abs=5e-7)
    assert worst["ring", 1.0] == pytest.approx(2.25e-2, abs=5e-5)
    assert worst["ring", 0.5] == pytest.approx(8.93e-3, abs=5e-6)


def test_network_block_solve_matches_column_solves(monkeypatch):
    """Each junction is factored once per (geometry, lambda, link stubs),
    whatever eps, and each column of the composed matrix equals a
    single-incident solve of the meshed network."""
    g, geom = cross_lattice(2, 1, math.pi / 2, math.pi / 16, 0.5)
    ns = solve_scattering(g, SolveRequest(LAM, 0.5))
    assert list(ns.ordering.entries) == [(c, 0) for c in range(1, 7)]
    factored = []
    real_splu = helmholtz_oracle.splu

    def counting_splu(mat, **kw):
        factored.append(mat.shape)
        return real_splu(mat, **kw)

    monkeypatch.setattr(helmholtz_oracle, "splu", counting_splu)
    helmholtz_oracle._junction_block.cache_clear()
    t = solve_network(g, LAM, 0.5)
    assert len(factored) == 2  # the two crosses serve the link by different stubs
    solve_network(g, LAM, 0.25)
    assert len(factored) == 2
    for col in range(t.shape[1]):
        column = single_incident_column(geom, LAM, col)
        assert np.max(np.abs(t[:, col] - column)) <= 1e-13


# ---------------------------------------------------------------------------
# exactness of the stub elimination


FULL_STUB_MESH = Path(__file__).resolve().parent / "oracle_full_stub_mesh.json"


def test_matches_full_stub_mesh():
    """Eliminating each stub's strip in its discrete modes leaves the finite
    difference solution as it was when every stub was meshed out to its
    truncation plane.  The values were recorded at commit a562931, the last
    full mesh, from the repository root with

        PYTHONPATH=src:tests python3 - <<'EOF'
        import json, math
        from conftest import load_perfbench
        from fiberwave.cli import graph_from_json
        from fiberwave.helmholtz_oracle import (
            cross_geometry, duct_geometry, elbow_geometry, junction_matrix, solve_network)

        W = math.pi
        gen = load_perfbench("gen")
        out = {}
        for name, make in (("cross", cross_geometry), ("elbow", elbow_geometry), ("duct", duct_geometry)):
            for lam in (1.3, 3.4, 6.0):
                out[f"{name} pi/32 lambda {lam}"] = junction_matrix(make(W, 2 * W, W / 32), lam).matrix
        out["cross pi/64 lambda 2.0"] = junction_matrix(cross_geometry(W, 2 * W, W / 64), 2.0).matrix
        for kind in ("two_cross", "elbow_pair", "duct"):
            g = graph_from_json(gen.oracle_network(kind, W / 32))
            for eps in (1.0, 0.5, 0.125):
                out[f"{kind} pi/32 eps {eps}"] = solve_network(g, 2.0, eps)
        with open("tests/oracle_full_stub_mesh.json", "w") as f:
            json.dump({k: [[[z.real, z.imag] for z in row] for row in m.tolist()] for k, m in out.items()}, f)
        EOF
    """
    recorded = json.loads(FULL_STUB_MESH.read_text())
    gen = load_perfbench("gen")
    computed = {}
    for name, make in (("cross", cross_geometry), ("elbow", elbow_geometry), ("duct", duct_geometry)):
        for lam in (1.3, 3.4, 6.0):
            computed[f"{name} pi/32 lambda {lam}"] = junction_matrix(make(W, 2 * W, W / 32), lam).matrix
    computed["cross pi/64 lambda 2.0"] = junction_matrix(cross_geometry(W, 2 * W, W / 64), 2.0).matrix
    for kind in ("two_cross", "elbow_pair", "duct"):
        g = graph_from_json(gen.oracle_network(kind, W / 32))
        for eps in (1.0, 0.5, 0.125):
            computed[f"{kind} pi/32 eps {eps}"] = solve_network(g, 2.0, eps)
    assert sorted(computed) == sorted(recorded)
    for key, m in computed.items():
        ref = np.array(recorded[key], dtype=float)
        assert m.shape == ref.shape[:2], key
        assert np.max(np.abs(m - (ref[..., 0] + 1j * ref[..., 1])), initial=0.0) <= 1e-10, key
