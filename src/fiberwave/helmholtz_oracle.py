"""2-D finite-difference Helmholtz solver on thin-fiber geometries.

Solves -Laplace(u) = lambda u with Dirichlet walls on a union of
axis-aligned rectangles (junction cores, channel segments and semi-infinite
channel stubs truncated at finite length).  Each truncation plane carries a
modal radiation condition built from the eigenvectors of the discrete 1-D
cross-section Laplacian: per propagating mode du/dt = i sqrt(lambda - mu_n)
u_n and per evanescent mode du/dt = -sqrt(mu_n - lambda) u_n, both
evaluated with the exact discrete ratios of the 5-point stencil (phase
theta_n per cell with 2(1 - cos theta) / h^2 + mu_n = lambda, decaying root
for evanescent modes).  The closure is therefore reflection-free for the
discrete problem: lengthening a stub changes the computed matrices only
through the modes beyond the retained set (8 evanescent by default).

Junction scattering matrices computed here are the first-principles
counterpart of the graph model's junction models: one column per incident
(stub, mode) pair, all columns solved as one block by a single triangular
solve with a single sparse LU factorization of the operator (ordered by
minimum degree on A^T + A), amplitudes extracted by discrete projection
one channel width from the stub base (at least one width inside the
truncation) and referenced to the base plane in the continuum phase
convention, so they converge at O(h^2) to the continuum matrices.
Junctions are solved once at unit scale; rescaling the network by the fiber
thickness maps the thin problem onto widths-fixed geometry with channel
lengths divided by the thickness.  That rescaled network is one more
junction whose stubs are the graph's infinite channels, so the full-network
reference matrix comes from the same solve as every junction matrix, with
rows and columns already in the graph's global mode ordering.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import cross_section as cs
from .errors import (
    DimensionMismatch,
    GeometryInvalid,
    GridBudgetExceeded,
    GridTooCoarse,
    NonConvergedSolve,
    UnresolvableJunction,
)
from .graph_model import END, START, MetricGraph, OracleJunction

Rect = tuple[float, float, float, float]

_DIRECTIONS = ("+x", "-x", "+y", "-y")

DEFAULT_NODE_BUDGET = 500_000
DEFAULT_N_EVANESCENT = 8


@dataclass(frozen=True)
class Stub:
    """Truncated semi-infinite channel piece.

    `rect` is the full stub rectangle; `direction` points outward, toward
    the truncation plane.  The opposite face is the attachment (base) plane
    where amplitudes are referenced.
    """

    rect: Rect
    direction: str

    @property
    def width(self) -> float:
        x0, y0, x1, y1 = self.rect
        return (y1 - y0) if self.direction in ("+x", "-x") else (x1 - x0)

    @property
    def length(self) -> float:
        x0, y0, x1, y1 = self.rect
        return (x1 - x0) if self.direction in ("+x", "-x") else (y1 - y0)


@dataclass(frozen=True)
class PlanarGeometry:
    """Axis-aligned rectilinear domain: core rectangles plus channel stubs.

    All coordinates must be integer multiples of the grid spacing h so the
    Dirichlet walls fall exactly on grid lines.
    """

    cores: tuple[Rect, ...]
    stubs: tuple[Stub, ...]
    h: float

    def hash(self) -> str:
        payload = repr((self.cores, [(s.rect, s.direction) for s in self.stubs], self.h))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _to_lattice(x: float, h: float, what: str) -> int:
    q = x / h
    r = round(q)
    if abs(q - r) > 1e-6 * max(1.0, abs(q)):
        raise GeometryInvalid(f"{what} = {x!r} is not an integer multiple of h = {h!r}")
    return int(r)


@dataclass
class _StubData:
    index: int
    axis: str  # "x" or "y"
    outward: int  # +1 or -1
    n_t: int  # transverse interior nodes
    cells: int  # axial cells (length / h)
    lattice: tuple[int, int, int, int]  # stub rectangle in node-lattice offsets
    plane_ids: np.ndarray  # unknown ids on the truncation plane, q = 1..n_t
    sub_ids: np.ndarray  # unknown ids one layer inward
    extract_ids: np.ndarray  # unknown ids on the extraction plane
    extract_cells: int  # axial index of the extraction plane
    phi: np.ndarray  # (n_modes, n_t) discrete transverse modes
    mu: np.ndarray  # discrete transverse eigenvalues
    n_prop: int
    n_retained: int
    theta: np.ndarray  # per-cell phase of the discrete outgoing wave (propagating)
    k_cont: np.ndarray  # continuum wavenumbers sqrt(lam - lambda_n) (propagating)


class _Grid:
    """Lattice discretization of a PlanarGeometry at one lambda."""

    def __init__(self, geom: PlanarGeometry, lam: float):
        h = geom.h
        if not (h > 0 and math.isfinite(h)):
            raise GeometryInvalid(f"grid spacing must be positive and finite, got {h!r}")
        if not math.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam!r}")
        if lam > 0 and h > 2.0 * math.pi / (10.0 * math.sqrt(lam)):
            raise GridTooCoarse(
                f"h = {h!r} resolves fewer than 10 points per wavelength at lambda = {lam!r}"
            )
        self.h = h

        rects = [self._rect_to_lattice(r, h) for r in geom.cores]
        for s in geom.stubs:
            if s.direction not in _DIRECTIONS:
                raise GeometryInvalid(f"unknown stub direction {s.direction!r}")
            if s.length < 2.0 * s.width - 1e-12:
                raise GeometryInvalid(
                    f"stub length {s.length!r} must be at least twice the width {s.width!r}"
                )
            rects.append(self._rect_to_lattice(s.rect, h))
        if not rects:
            raise GeometryInvalid("geometry has no rectangles")

        ix0 = min(r[0] for r in rects)
        iy0 = min(r[1] for r in rects)
        ix1 = max(r[2] for r in rects)
        iy1 = max(r[3] for r in rects)
        ncx, ncy = ix1 - ix0, iy1 - iy0

        covered = np.zeros((ncx, ncy), dtype=bool)
        for (ax0, ay0, ax1, ay1) in rects:
            sl = np.s_[ax0 - ix0 : ax1 - ix0, ay0 - iy0 : ay1 - iy0]
            if covered[sl].any():
                raise GeometryInvalid("rectangles overlap; cores and stubs must tile disjointly")
            covered[sl] = True

        # A node is an interior unknown iff all four adjacent cells are covered.
        pad = np.zeros((ncx + 2, ncy + 2), dtype=bool)
        pad[1:-1, 1:-1] = covered
        # shape (ncx+1, ncy+1): the node lattice
        interior = pad[:-1, :-1] & pad[1:, :-1] & pad[:-1, 1:] & pad[1:, 1:]

        self.idx = -np.ones(interior.shape, dtype=np.int64)
        self.stubs: list[_StubData] = []
        plane_mask = np.zeros_like(interior)
        for si, (s, r) in enumerate(zip(geom.stubs, rects[len(geom.cores) :])):
            lattice = (r[0] - ix0, r[1] - iy0, r[2] - ix0, r[3] - iy0)
            self.stubs.append(self._stub_data(si, s, lattice, lam))

        # enumerate unknowns: interior nodes first (row-major), then plane nodes
        ii, jj = np.nonzero(interior)
        n_int = len(ii)
        self.idx[ii, jj] = np.arange(n_int)
        count = n_int
        for sd in self.stubs:
            plane = self._section(sd, sd.cells)
            if interior[plane].any() or plane_mask[plane].any():
                raise GeometryInvalid("truncation plane is blocked by another rectangle or stub")
            plane_mask[plane] = True
            self.idx[plane] = np.arange(count, count + sd.n_t)
            count += sd.n_t
        self.n_unknowns = count
        if count > DEFAULT_NODE_BUDGET:
            raise GridBudgetExceeded(f"{count} unknowns exceed the budget of {DEFAULT_NODE_BUDGET}")
        if count == 0:
            raise GeometryInvalid("no interior nodes; geometry too thin for this h")

        for sd in self.stubs:
            self._fill_stub_ids(sd)

    @staticmethod
    def _rect_to_lattice(r: Rect, h: float) -> tuple[int, int, int, int]:
        x0, y0, x1, y1 = r
        if not (x1 > x0 and y1 > y0):
            raise GeometryInvalid(f"degenerate rectangle {r!r}")
        return (
            _to_lattice(x0, h, "rectangle x0"),
            _to_lattice(y0, h, "rectangle y0"),
            _to_lattice(x1, h, "rectangle x1"),
            _to_lattice(y1, h, "rectangle y1"),
        )

    def _stub_data(self, si: int, s: Stub, lattice: tuple[int, int, int, int], lam: float) -> _StubData:
        h = self.h
        ax0, ay0, ax1, ay1 = lattice
        if s.direction in ("+x", "-x"):
            axis, outward = "x", (1 if s.direction == "+x" else -1)
            width_cells, cells = ay1 - ay0, ax1 - ax0
        else:
            axis, outward = "y", (1 if s.direction == "+y" else -1)
            width_cells, cells = ax1 - ax0, ay1 - ay0
        n_t = width_cells - 1
        if n_t < 1:
            raise GeometryInvalid(f"stub {si} is only one cell wide")
        w = width_cells * h
        n = np.arange(n_t)
        q = np.arange(1, n_t + 1)
        phi = np.sqrt(2.0 / w) * np.sin(np.outer((n + 1) * math.pi / width_cells, q))
        mu = (2.0 / h**2) * (1.0 - np.cos((n + 1) * math.pi / width_cells))
        n_prop = int(np.sum(mu < lam))
        ths = cs.thresholds_below(cs.Interval(w), lam) if lam > 0 else []
        if n_prop != len(ths):
            raise GridTooCoarse(
                f"stub {si}: discrete grid sees {n_prop} propagating modes, continuum has "
                f"{len(ths)}; lambda = {lam!r} too close to a threshold for h = {h!r}"
            )
        n_retained = min(n_prop + DEFAULT_N_EVANESCENT, n_t)
        # The discrete outgoing wave of mode n advances by theta_n per cell:
        # 2(1 - cos theta)/h^2 + mu = lam.  Closing the strip with the exact
        # discrete ratio makes the truncation reflection-free, so the
        # computed matrix is insensitive to the stub length.
        theta = np.arccos(1.0 - h * h * (lam - mu[:n_prop]) / 2.0) if n_prop else np.zeros(0)
        k_cont = np.sqrt(lam - np.asarray(ths, dtype=float))
        return _StubData(
            index=si,
            axis=axis,
            outward=outward,
            n_t=n_t,
            cells=cells,
            lattice=lattice,
            plane_ids=np.zeros(0, dtype=np.int64),
            sub_ids=np.zeros(0, dtype=np.int64),
            extract_ids=np.zeros(0, dtype=np.int64),
            extract_cells=width_cells,
            phi=phi,
            mu=mu,
            n_prop=n_prop,
            n_retained=n_retained,
            theta=theta,
            k_cont=k_cont,
        )

    @staticmethod
    def _section(sd: _StubData, p: int) -> tuple:
        """Node-lattice index of stub sd's transverse line at axial index p
        (0 = base plane), transverse index q = 1..n_t in ascending order."""
        ax0, ay0, ax1, ay1 = sd.lattice
        if sd.axis == "x":
            return ((ax0 + p) if sd.outward > 0 else (ax1 - p), slice(ay0 + 1, ay1))
        return (slice(ax0 + 1, ax1), (ay0 + p) if sd.outward > 0 else (ay1 - p))

    def _fill_stub_ids(self, sd: _StubData) -> None:
        def ids_at(p: int) -> np.ndarray:
            out = self.idx[self._section(sd, p)].copy()
            if np.any(out < 0):
                raise GeometryInvalid(f"stub {sd.index}: cross-section at p={p} not interior")
            return out

        sd.plane_ids = ids_at(sd.cells)
        sd.sub_ids = ids_at(sd.cells - 1)
        # One channel width from the base plane: at least one width inside
        # the truncation (lengths are >= 2 widths) while independent of the
        # truncation distance, so lengthening a stub cannot move the
        # measurement.
        sd.extract_ids = ids_at(sd.extract_cells)


class _HelmholtzSolver:
    """Factorized discrete Helmholtz operator with modal DtN closures."""

    def __init__(self, geom: PlanarGeometry, lam: float):
        self.grid = _Grid(geom, lam)
        self.lam = lam
        g = self.grid
        h = g.h
        n = g.n_unknowns

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []

        all_ids = g.idx[g.idx >= 0]
        rows.append(all_ids)
        cols.append(all_ids)
        vals.append(np.full(len(all_ids), 4.0 - h * h * lam, dtype=complex))

        idx = g.idx
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a = idx[max(di, 0) : idx.shape[0] + min(di, 0), max(dj, 0) : idx.shape[1] + min(dj, 0)]
            b = idx[max(-di, 0) : idx.shape[0] + min(-di, 0), max(-dj, 0) : idx.shape[1] + min(-dj, 0)]
            mask = (a >= 0) & (b >= 0)
            rows.append(b[mask])
            cols.append(a[mask])
            vals.append(np.full(int(mask.sum()), -1.0, dtype=complex))

        for sd in g.stubs:
            lam_arr = np.zeros(sd.n_retained, dtype=complex)
            for m in range(sd.n_retained):
                if m < sd.n_prop:
                    lam_arr[m] = 1j * math.sin(sd.theta[m]) / h
                else:
                    # decaying discrete solution rho^{-p}, rho + 1/rho = 2 + h^2 (mu - lam)
                    z = 1.0 + h * h * (sd.mu[m] - lam) / 2.0
                    rho = z + math.sqrt(z * z - 1.0)
                    lam_arr[m] = (1.0 / rho - rho) / (2.0 * h)
            phi_r = sd.phi[: sd.n_retained]  # (n_ret, n_t)
            # ghost elimination: u_ghost = phi^T (u_hat_sub + 2 h Lambda u_hat_plane [+ b])
            plane_block = -2.0 * h * h * (phi_r.T @ (lam_arr[:, None] * phi_r))
            sub_block = -h * (phi_r.T @ phi_r).astype(complex)
            pq = sd.plane_ids
            sq = sd.sub_ids
            rr, cc2 = np.meshgrid(pq, pq, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc2.ravel())
            vals.append(plane_block.ravel())
            rr, cc2 = np.meshgrid(pq, sq, indexing="ij")
            rows.append(rr.ravel())
            cols.append(cc2.ravel())
            vals.append(sub_block.ravel())

        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
        ).tocsc()
        self.matrix = mat

    @cached_property
    def lu(self):
        """SuperLU factorization in SuperLU's minimum-degree order on
        A^T + A: the 5-point stencil and the DtN blocks make the pattern
        nearly symmetric, and that order keeps 33-46 L+U entries per row
        where COLAMD (ordering A^T A) keeps 54-77.  Pivot threshold, relax
        and panel size stay at SuperLU's defaults; larger values were 2-3x
        slower with no less fill.  Made on first use rather than in
        __init__ so that the assembly's COO pieces are freed before the
        factor's fill-in is allocated."""
        try:
            return splu(self.matrix, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU: the operator is exactly singular
            raise NonConvergedSolve(f"factorization failed at lambda = {self.lam!r}: {exc}") from exc

    def rhs_for(self, incident: tuple[int, int]) -> np.ndarray:
        g = self.grid
        b = np.zeros(g.n_unknowns, dtype=complex)
        si, mode = incident
        if not 0 <= si < len(g.stubs):
            raise ValueError(f"no stub {si}")
        sd = g.stubs[si]
        if not 0 <= mode < sd.n_prop:
            raise ValueError(f"stub {si} has {sd.n_prop} propagating modes, asked for {mode}")
        # Incident unit-amplitude discrete wave exp(-i theta p), referenced
        # to the base plane p = 0; only its radiation-condition defect at
        # the truncation plane enters the system.
        th = sd.theta[mode]
        amp = -4j * math.sin(th) * np.exp(-1j * th * sd.cells)
        b[sd.plane_ids] = sd.phi[mode] * amp
        return b

    def solve(self, incidents: Sequence[tuple[int, int]]) -> np.ndarray:
        """Fields of all incidents as the columns of one (n, k) block, from
        one multi-right-hand-side triangular solve with no refinement step
        (its residual is already near 1e-14); each column must be finite and
        meet the residual test on its own."""
        b = np.zeros((self.grid.n_unknowns, len(incidents)), dtype=complex)
        for col, inc in enumerate(incidents):
            b[:, col] = self.rhs_for(inc)
        u = self.lu.solve(b)
        scale = np.maximum(np.max(np.abs(b), axis=0), 1e-300)
        rel = np.max(np.abs(b - self.matrix @ u), axis=0) / scale
        for col in range(len(incidents)):
            if not np.all(np.isfinite(u[:, col])) or rel[col] > 1e-8:
                raise NonConvergedSolve(f"discrete solve residual {rel[col]:.3e}")
        return u

    def extract(self, u: np.ndarray, incidents: Sequence[tuple[int, int]]) -> np.ndarray:
        """Outgoing amplitudes of every (stub, propagating mode) row, stubs in
        geometry order, for every column of the solved block u, projected on
        the extraction plane and referenced to the stub base plane in the
        continuum phase convention of the channel."""
        h = self.grid.h
        blocks = [np.zeros((0, u.shape[1]), dtype=complex)]  # a geometry may have no stubs
        for sd in self.grid.stubs:
            p_e = sd.extract_cells
            hat = h * (sd.phi[: sd.n_prop] @ u[sd.extract_ids])
            for col, inc in enumerate(incidents):
                if inc[0] == sd.index:
                    # remove the (exactly known) discrete incident wave
                    hat[inc[1], col] -= np.exp(-1j * sd.theta[inc[1]] * p_e)
            blocks.append(hat * np.exp(-1j * sd.k_cont * (p_e * h))[:, None])
        return np.concatenate(blocks)


@dataclass
class JunctionScattering:
    """Junction scattering matrix with provenance metadata.

    Rows and columns follow the vertex-local order: stubs in geometry
    order, propagating modes ascending within each stub.  `d_diag` holds
    the continuum wavenumber sqrt(lam - lam_n) of each row.
    """

    matrix: np.ndarray
    d_diag: np.ndarray
    lam: float
    h: float
    geometry_hash: str
    mode_counts: tuple[int, ...]

    @property
    def entries(self) -> list[tuple[int, int]]:
        return [(s, m) for s, c in enumerate(self.mode_counts) for m in range(c)]


def _scatter(geom: PlanarGeometry, lam: float) -> tuple[np.ndarray, list[_StubData]]:
    """Outgoing amplitudes of every (stub, propagating mode) row for every
    (stub, propagating mode) incident column, from one factorization and
    one block solve, with the stubs that label the rows and columns."""
    solver = _HelmholtzSolver(geom, lam)
    stubs = solver.grid.stubs
    entries = [(sd.index, m) for sd in stubs for m in range(sd.n_prop)]
    return solver.extract(solver.solve(entries), entries), stubs


def junction_matrix(geom: PlanarGeometry, lam: float) -> JunctionScattering:
    """Scattering matrix of a junction geometry: one factorization, with
    every incident (stub, mode) a column of one block solve."""
    matrix, stubs = _scatter(geom, lam)
    return JunctionScattering(
        matrix=matrix,
        d_diag=np.array([k for sd in stubs for k in sd.k_cont]),
        lam=lam,
        h=geom.h,
        geometry_hash=geom.hash(),
        mode_counts=tuple(sd.n_prop for sd in stubs),
    )


def flux_residual(js: JunctionScattering) -> np.ndarray:
    """Energy balance of each incident column c, sum_r d_r |T_rc|^2 - d_c
    with continuum wavenumbers d; 0 for the continuum problem, O(h^2)
    here."""
    return js.d_diag @ np.abs(js.matrix) ** 2 - js.d_diag


def _opposite(direction: str) -> str:
    return {"+x": "-x", "-x": "+x", "+y": "-y", "-y": "+y"}[direction]


def _base_plane(s: Stub) -> float:
    """Axial coordinate of the attachment plane in stub-local terms."""
    x0, y0, x1, y1 = s.rect
    return {"+x": x0, "-x": x1, "+y": y0, "-y": y1}[s.direction]


def _transverse_range(s: Stub) -> tuple[float, float]:
    x0, y0, x1, y1 = s.rect
    return (y0, y1) if s.direction in ("+x", "-x") else (x0, x1)


def network_geometry(g: MetricGraph, eps: float) -> PlanarGeometry:
    """Lay out the rescaled planar network defined by a graph whose vertices
    all carry oracle junction geometries.

    Vertices are placed by walking the finite channels: a finite channel of
    length l becomes a straight rectangle of length l/eps joining the
    attachment planes of the two stubs that serve its ends, which must point
    toward each other.  Infinite channels keep their stub (with its
    truncation plane); the stubs follow g.infinite_channel_ids.
    """
    vgeoms: dict[int, PlanarGeometry] = {}
    h: Optional[float] = None
    for v in g.vertices:
        if not isinstance(v.junction, OracleJunction):
            raise UnresolvableJunction(f"vertex {v.id} has no oracle geometry")
        pg = v.junction.geometry
        if not isinstance(pg, PlanarGeometry):
            raise GeometryInvalid(f"vertex {v.id}: geometry is not a PlanarGeometry")
        if len(pg.stubs) != len(v.ends):
            raise DimensionMismatch(
                f"vertex {v.id}: {len(pg.stubs)} stubs serve {len(v.ends)} incident ends"
            )
        if h is None:
            h = pg.h
        elif pg.h != h:
            raise GeometryInvalid("all vertex geometries must share the same grid spacing")
        vgeoms[v.id] = pg
    assert h is not None

    stub_of_end: dict[tuple[int, str], tuple[int, int]] = {}
    for v in g.vertices:
        for i, (cid, which) in enumerate(v.ends):
            stub_of_end[(cid, which)] = (v.id, i)

    pos: dict[int, tuple[float, float]] = {g.vertices[0].id: (0.0, 0.0)}
    todo = [g.vertices[0].id]
    finite = [c for c in g.channels if not c.is_infinite]
    placed_channels: set[int] = set()
    channel_rects: list[Rect] = []

    def stub_global(vid: int, i: int) -> Stub:
        dx, dy = pos[vid]
        s = vgeoms[vid].stubs[i]
        x0, y0, x1, y1 = s.rect
        return Stub(rect=(x0 + dx, y0 + dy, x1 + dx, y1 + dy), direction=s.direction)

    while todo:
        vid = todo.pop()
        for chan in finite:
            if chan.id in placed_channels:
                continue
            ends = [(chan.id, START), (chan.id, END)]
            owners = [stub_of_end[e] for e in ends]
            if owners[0][0] != vid and owners[1][0] != vid:
                continue
            if owners[0][0] == vid:
                (va, ia), (vb, ib) = owners
            else:
                (vb, ib), (va, ia) = owners
            length = chan.length / eps
            sa = stub_global(va, ia)
            sb_local = vgeoms[vb].stubs[ib]
            if sb_local.direction != _opposite(sa.direction):
                raise GeometryInvalid(
                    f"channel {chan.id}: stub directions {sa.direction} and "
                    f"{sb_local.direction} do not face each other"
                )
            ta = _transverse_range(sa)
            tb = _transverse_range(sb_local)
            if abs((ta[1] - ta[0]) - (tb[1] - tb[0])) > 1e-9:
                raise GeometryInvalid(f"channel {chan.id}: stub widths differ")
            base_a = _base_plane(sa)
            sign = +1.0 if sa.direction in ("+x", "+y") else -1.0
            far_plane = base_a + sign * length
            base_b_local = _base_plane(sb_local)
            if sa.direction in ("+x", "-x"):
                dxb = far_plane - base_b_local
                dyb = ta[0] - tb[0]
                lo, hi = sorted((base_a, far_plane))
                channel_rects.append((lo, ta[0], hi, ta[1]))
            else:
                dyb = far_plane - base_b_local
                dxb = ta[0] - tb[0]
                lo, hi = sorted((base_a, far_plane))
                channel_rects.append((ta[0], lo, ta[1], hi))
            if vb in pos:
                ex, ey = pos[vb]
                if abs(ex - dxb) > 1e-9 or abs(ey - dyb) > 1e-9:
                    raise GeometryInvalid(
                        f"channel {chan.id}: network cycle does not close geometrically"
                    )
            else:
                pos[vb] = (dxb, dyb)
                todo.append(vb)
            placed_channels.add(chan.id)

    if len(pos) != len(g.vertices):
        raise GeometryInvalid("network geometry is disconnected through finite channels")
    if len(placed_channels) != len(finite):
        raise GeometryInvalid("some finite channels could not be placed")

    cores: list[Rect] = []
    for v in g.vertices:
        dx, dy = pos[v.id]
        for (x0, y0, x1, y1) in vgeoms[v.id].cores:
            cores.append((x0 + dx, y0 + dy, x1 + dx, y1 + dy))
    cores.extend(channel_rects)

    stubs = tuple(stub_global(*stub_of_end[(cid, START)]) for cid in g.infinite_channel_ids)
    return PlanarGeometry(cores=tuple(cores), stubs=stubs, h=h)


def solve_network(g: MetricGraph, lam: float, eps: float) -> np.ndarray:
    """Scattering matrix of the full rescaled thin network (widths fixed,
    finite channel lengths divided by eps), solved as one junction whose
    stubs are the infinite channels: rows and columns follow the graph's
    global mode ordering, directly comparable with the graph model's
    network scattering matrix."""
    return _scatter(network_geometry(g, eps), lam)[0]


def duct_geometry(width: float, stub_length: float, h: float) -> PlanarGeometry:
    """Straight duct as a degenerate junction: two collinear stubs sharing
    their attachment plane, no core.  The continuum answer is full
    transmission with amplitude exactly 1."""
    return PlanarGeometry(
        cores=(),
        stubs=(
            Stub(rect=(-stub_length, 0.0, 0.0, width), direction="-x"),
            Stub(rect=(0.0, 0.0, stub_length, width), direction="+x"),
        ),
        h=h,
    )


def cross_geometry(width: float, stub_length: float, h: float) -> PlanarGeometry:
    """Symmetric cross junction: square core with four identical stubs."""
    w, a = width, stub_length
    return PlanarGeometry(
        cores=((0.0, 0.0, w, w),),
        stubs=(
            Stub(rect=(-a, 0.0, 0.0, w), direction="-x"),
            Stub(rect=(w, 0.0, w + a, w), direction="+x"),
            Stub(rect=(0.0, -a, w, 0.0), direction="-y"),
            Stub(rect=(0.0, w, w, w + a), direction="+y"),
        ),
        h=h,
    )


def elbow_geometry(width: float, stub_length: float, h: float) -> PlanarGeometry:
    """Right-angle junction: square core with two orthogonal stubs."""
    w, a = width, stub_length
    return PlanarGeometry(
        cores=((0.0, 0.0, w, w),),
        stubs=(
            Stub(rect=(-a, 0.0, 0.0, w), direction="-x"),
            Stub(rect=(0.0, w, w, w + a), direction="+y"),
        ),
        h=h,
    )
