"""2-D finite-difference Helmholtz solver on thin-fiber geometries.

Solves -Laplace(u) = lambda u with Dirichlet walls on a union of
axis-aligned rectangles (junction cores, channel segments and the stubs
of semi-infinite channels) with the 5-point stencil.  One
builder lays out the lattice and assembles the operator; each stub comes
out of it as one complete record: the unknown ids of its two meshed lines,
and the discrete transverse modes phi_n, mu_n of its cross-section.  Mode
n's discrete wave along the stub is r_n^p, p cells out from the base
plane, with r_n + 1/r_n = 2 + h^2 (mu_n - lambda): the root on the unit
circle, exp(i theta_n), is the outgoing wave of a propagating mode, and the
root inside it the decaying wave of an evanescent one.

A stub stands for a semi-infinite channel, a uniform strip that the
discrete modes solve exactly, so only its base plane (p = 0) and the line
past it (p = 1) are meshed.  Past that line every mode continues as r_n^p
into the semi-infinite strip, outgoing or decaying with no incoming part:
the modal radiation condition du_n/dt = (r_n - 1/r_n) / (2h) u_n (Keller &
Givoli, J. Comput. Phys. 82, 1989) holds for every mode.  So the strip
enters through each mode's ratio u_n(2) / u_n(1) = r_n, and a stub's length
does not change the result: its rectangle only marks out the strip that no
other rectangle may touch.

Junction scattering matrices computed here are the first-principles
counterpart of the graph model's junction models: one column per incident
(stub, mode) pair, the unit wave r^-p, all columns solved as one block by a
single triangular solve with a single sparse LU factorization of the
operator (ordered by minimum degree on A^T + A), amplitudes projected on
each stub's line p = 1, carried to the extraction plane one channel width
from the stub base and referenced to the base plane in the continuum phase
convention, so they converge at O(h^2) to the continuum matrices.
Junctions are solved once at unit scale; rescaling the network by the fiber
thickness maps the thin problem onto widths-fixed geometry with channel
lengths divided by the thickness.  That rescaled network is one more
junction whose stubs are the graph's infinite channels, so the full-network
reference matrix comes from the same solve as every junction matrix, with
rows and columns already in the graph's global mode ordering.  The links
between junctions stay meshed.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import cross_section as cs
from .errors import (
    DimensionMismatch,
    GeometryInvalid,
    GraphInvalid,
    GridBudgetExceeded,
    GridTooCoarse,
    NonConvergedSolve,
    UnresolvableJunction,
)
from .graph_model import END, START, MetricGraph, OracleJunction, Vertex, validate_graph

Rect = tuple[float, float, float, float]

_DIRECTIONS = ("+x", "-x", "+y", "-y")

DEFAULT_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class Stub:
    """The stub of a semi-infinite channel.

    `rect` is the stub rectangle, which no other rectangle may touch past
    its first line, nor lie in the strip beyond its far edge.  It may be
    any whole number of cells long: the stub is solved as the uniform
    semi-infinite strip it stands for, so its length does not change the
    result.  `direction` points outward, toward its far (truncation)
    plane; the opposite face is the attachment (base) plane where
    amplitudes are referenced.
    """

    rect: Rect
    direction: str

    @property
    def width(self) -> float:
        x0, y0, x1, y1 = self.rect
        return (y1 - y0) if self.direction in ("+x", "-x") else (x1 - x0)


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


@dataclass(frozen=True)
class _StubModes:
    """One stub of the grid at one lambda.

    `ids` is the stub's 2 x n_t block of unknown ids: row 0 is the base
    plane and row 1 the line one cell out, the only stub lines that are
    meshed, and column q - 1 is transverse node q = 1..n_t.
    `ratio` holds every mode's per-cell ratio r_n of the discrete wave
    r_n^p, with |r_n| = 1 (outgoing) for the n_prop propagating modes and
    |r_n| < 1 (decaying) for the others.  Every mode continues as r_n^p
    into the semi-infinite strip past row 1, so r_n is also its
    u_n(2) / u_n(1) there.
    """

    ids: np.ndarray
    phi: np.ndarray  # (n_t, n_t) discrete transverse modes, one per row
    mu: np.ndarray  # their discrete eigenvalues, ascending
    n_prop: int
    ratio: np.ndarray
    k_cont: np.ndarray  # continuum wavenumbers sqrt(lam - lambda_n) (propagating)


def _modes(si: int, n_t: int, h: float, lam: float) -> tuple:
    """The modal fields of stub si's _StubModes, n_t transverse nodes wide,
    once the grid is known to resolve its propagating modes."""
    if n_t < 1:
        raise GeometryInvalid(f"stub {si} is only one cell wide")
    width_cells = n_t + 1
    n = np.arange(1, width_cells)
    phi = np.sqrt(2.0 / (width_cells * h)) * np.sin(np.outer(n * math.pi / width_cells, n))
    mu = (2.0 / h**2) * (1.0 - np.cos(n * math.pi / width_cells))
    n_prop = int(np.sum(mu < lam))
    ths = cs.thresholds_below(cs.Interval(width_cells * h), lam)
    if n_prop != len(ths):
        raise GridTooCoarse(
            f"stub {si}: discrete grid sees {n_prop} propagating modes, continuum has "
            f"{len(ths)}; lambda = {lam!r} too close to a threshold for h = {h!r}"
        )
    # r + 1/r = 2z; the square root's branch puts r on the unit circle for
    # z < 1 and inside it for z > 1
    z = 1.0 + h * h * (mu - lam) / 2.0
    ratio = z + 1j * np.sqrt(1.0 - z * z + 0j)
    k_cont = np.sqrt(lam - np.asarray(ths, dtype=float))
    return phi, mu, n_prop, ratio, k_cont


def _lattice(geom: PlanarGeometry, lam: float) -> tuple[np.ndarray, list[_StubModes]]:
    """The node lattice of a geometry at lambda, each node's unknown id or
    -1, and its stubs' records in geometry order.  The full lattice is laid
    out and checked, truncation planes included; then each stub's strip
    past its row 1 is dropped, and the unknowns are the remaining interior
    nodes (all four adjacent cells covered), row-major.  The strip is the
    uniform semi-infinite strip of its modes only if its side walls are
    walls and it is empty, so a rectangle touching them past row 1, or
    reaching past the stub's far edge within its open transverse range, is
    rejected; the latter is checked last, so every earlier refusal keeps
    its order."""
    h = geom.h
    if not (h > 0 and math.isfinite(h)):
        raise GeometryInvalid(f"grid spacing must be positive and finite, got {h!r}")
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    if lam > 0 and h > 2.0 * math.pi / (10.0 * math.sqrt(lam)):
        raise GridTooCoarse(
            f"h = {h!r} resolves fewer than 10 points per wavelength at lambda = {lam!r}"
        )

    rects = [_rect_to_lattice(r, h) for r in geom.cores]
    for s in geom.stubs:
        if s.direction not in _DIRECTIONS:
            raise GeometryInvalid(f"unknown stub direction {s.direction!r}")
        rects.append(_rect_to_lattice(s.rect, h))
    if not rects:
        raise GeometryInvalid("geometry has no rectangles")
    ix0, iy0 = min(r[0] for r in rects), min(r[1] for r in rects)
    rects = [(x0 - ix0, y0 - iy0, x1 - ix0, y1 - iy0) for x0, y0, x1, y1 in rects]
    covered = np.zeros((max(r[2] for r in rects), max(r[3] for r in rects)), dtype=bool)
    for x0, y0, x1, y1 in rects:
        if covered[x0:x1, y0:y1].any():
            raise GeometryInvalid("rectangles overlap; cores and stubs must tile disjointly")
        covered[x0:x1, y0:y1] = True
    # A node is an interior unknown iff all four adjacent cells are covered.
    pad = np.zeros((covered.shape[0] + 2, covered.shape[1] + 2), dtype=bool)
    pad[1:-1, 1:-1] = covered
    interior = pad[:-1, :-1] & pad[1:, :-1] & pad[:-1, 1:] & pad[1:, 1:]  # the node lattice

    idx = -np.ones(interior.shape, dtype=np.int64)
    walled = []  # each stub's lines of idx with its side walls as columns 0 and -1
    for s, (x0, y0, x1, y1) in zip(geom.stubs, rects[len(geom.cores) :]):
        block = idx[x0 : x1 + 1, y0 : y1 + 1]
        block = block if s.direction[1] == "x" else block.T
        walled.append(block if s.direction[0] == "+" else block[::-1])
    modes = [_modes(si, w.shape[1] - 2, h, lam) for si, w in enumerate(walled)]
    idx[interior] = 0  # numbered once the strips are dropped
    for w in walled:
        if np.any(w[-1, 1:-1] >= 0):  # an interior node, or another stub's plane
            raise GeometryInvalid("truncation plane is blocked by another rectangle or stub")
        w[-1, 1:-1] = 0  # a plane that meets another stub's side wall touches it
    touched = [bool(np.any(w[2:, [0, -1]] >= 0)) for w in walled]
    for w in walled:
        w[2:, 1:-1] = -1
    n = int(np.count_nonzero(idx >= 0))
    idx[idx >= 0] = np.arange(n)
    if n > DEFAULT_NODE_BUDGET:
        raise GridBudgetExceeded(f"{n} unknowns exceed the budget of {DEFAULT_NODE_BUDGET}")
    if n == 0:
        raise GeometryInvalid("no interior nodes; geometry too thin for this h")
    stubs = []
    for si, (w, m) in enumerate(zip(walled, modes)):
        if touched[si]:
            raise GeometryInvalid(f"stub {si}: a side wall past its first line touches another rectangle")
        stubs.append(_StubModes(w[:2, 1:-1], *m))
    for si, (s, stub) in enumerate(zip(geom.stubs, rects[len(geom.cores) :])):
        a = 0 if s.direction[1] == "x" else 1  # the stub's axis; 1 - a is transverse
        for r in rects:
            past = r[a] < stub[a] if s.direction[0] == "-" else r[a + 2] > stub[a + 2]
            if past and max(r[1 - a], stub[1 - a]) < min(r[3 - a], stub[3 - a]):
                raise GeometryInvalid(f"stub {si}: a rectangle lies in its strip past its far edge")
    return idx, stubs


def _operator(geom: PlanarGeometry, lam: float) -> tuple[sp.csc_matrix, list[_StubModes]]:
    """The discrete operator of a geometry at lambda and its stubs' records
    in geometry order: the 5-point stencil on the meshed nodes, with each
    stub's row 1 closed by its eliminated strip."""
    idx, stubs = _lattice(geom, lam)
    return _assemble(idx, stubs, geom.h, lam), stubs


def _assemble(idx: np.ndarray, stubs: Sequence[_StubModes], h: float, lam: float) -> sp.csc_matrix:
    """The operator on _lattice's unknowns.  The semi-infinite strip past a
    stub's row 1 enters as its value on row 2, phi^T diag(r) u_hat(1) with
    u_hat = h phi u, so row 1 gets the one block -h phi^T diag(r) phi.
    The lattice's covering masks are freed before the assembly allocates
    its COO pieces."""
    all_ids = idx[idx >= 0]
    n = len(all_ids)
    rows, cols = [all_ids], [all_ids]
    vals = [np.full(n, 4.0 - h * h * lam, dtype=complex)]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        a = idx[max(di, 0) : idx.shape[0] + min(di, 0), max(dj, 0) : idx.shape[1] + min(dj, 0)]
        b = idx[max(-di, 0) : idx.shape[0] + min(-di, 0), max(-dj, 0) : idx.shape[1] + min(-dj, 0)]
        mask = (a >= 0) & (b >= 0)
        rows.append(b[mask])
        cols.append(a[mask])
        vals.append(np.full(int(mask.sum()), -1.0, dtype=complex))
    for s in stubs:
        line = s.ids[1]
        rows.append(np.repeat(line, len(line)))
        cols.append(np.tile(line, len(line)))
        vals.append((-h * (s.phi.T @ (s.ratio[:, None] * s.phi))).ravel())
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return mat.tocsc()


def _factor(matrix: sp.csc_matrix, lam: float):
    """SuperLU factorization in SuperLU's minimum-degree order on A^T + A:
    the 5-point stencil and the modal closure blocks make the pattern nearly
    symmetric, and that order keeps 29-52 L+U entries per row where COLAMD
    (ordering A^T A) keeps 47-92.  Pivot threshold, relax and panel size
    stay at SuperLU's defaults; larger values were 2-3x slower with no less
    fill.  It factors the matrix _assemble returns, so the assembly's COO
    pieces are freed before the factor's fill-in is allocated."""
    try:
        return splu(matrix, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: the operator is exactly singular
        raise NonConvergedSolve(f"factorization failed at lambda = {lam!r}: {exc}") from exc


def _incidents(n: int, stubs: Sequence[_StubModes]) -> np.ndarray:
    """One right-hand side per (stub, propagating mode), in stub then mode
    order: the unit incident wave r^-p, referenced to the base plane p = 0.
    Its strip value on row 2 is r u_hat(1) + (1/r - r) r^-1, so it enters
    the system as (1/r - r) r^-1 phi_n on row 1."""
    b = np.zeros((n, sum(s.n_prop for s in stubs)), dtype=complex)
    col = 0
    for s in stubs:
        r = s.ratio[: s.n_prop]
        b[s.ids[1], col : col + s.n_prop] = s.phi[: s.n_prop].T * ((1.0 / r - r) / r)
        col += s.n_prop
    return b


def _extract(u: np.ndarray, stubs: Sequence[_StubModes], h: float) -> np.ndarray:
    """Outgoing amplitudes of every (stub, propagating mode) row for every
    column of u, u's columns solved from _incidents: the field is projected
    on row 1, the incident wave is removed, the outgoing wave is carried by
    r^(p_e - 1) to the extraction plane p_e one channel width from the base
    plane, and referenced from there to the base plane in the continuum
    phase convention of the channel."""
    blocks = [np.zeros((0, u.shape[1]), dtype=complex)]  # a geometry may have no stubs
    col = 0
    for s in stubs:
        # one channel width out, n_t + 1 cells; the strip there is the
        # modal continuation of row 1, so no line of it is meshed
        p_e = s.ids.shape[1] + 1
        r = s.ratio[: s.n_prop]
        hat = h * (s.phi[: s.n_prop] @ u[s.ids[1]])
        hat[:, col : col + s.n_prop] -= np.diag(1.0 / r)
        blocks.append(hat * (r ** (p_e - 1) * np.exp(-1j * s.k_cont * (p_e * h)))[:, None])
        col += s.n_prop
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


def _scatter(geom: PlanarGeometry, lam: float) -> tuple[np.ndarray, list[_StubModes]]:
    """Outgoing amplitudes of every (stub, propagating mode) row for every
    (stub, propagating mode) incident column, with the stubs that label
    them: one factorization and one multi-right-hand-side triangular solve
    with no refinement step (its residual is already near 1e-14), each
    column finite and within the residual test on its own."""
    idx, stubs = _lattice(geom, lam)
    if not any(s.n_prop for s in stubs):  # no rows and no columns: nothing to factor
        return np.zeros((0, 0), dtype=complex), stubs
    matrix = _assemble(idx, stubs, geom.h, lam)
    b = _incidents(matrix.shape[0], stubs)
    lu = _factor(matrix, lam)
    u = lu.solve(b)
    rel = np.max(np.abs(b - matrix @ u), axis=0) / np.maximum(np.max(np.abs(b), axis=0), 1e-300)
    bad = ~np.isfinite(u).all(axis=0) | (rel > 1e-8)
    if bad.any():
        raise NonConvergedSolve(f"discrete solve residual {rel[bad][0]:.3e}")
    return _extract(u, stubs, geom.h), stubs


def junction_matrix(geom: PlanarGeometry, lam: float) -> JunctionScattering:
    """Scattering matrix of a junction geometry: one factorization, with
    every incident (stub, mode) a column of one block solve."""
    matrix, stubs = _scatter(geom, lam)
    return JunctionScattering(
        matrix=matrix,
        d_diag=np.array([k for s in stubs for k in s.k_cont]),
        lam=lam,
        h=geom.h,
        geometry_hash=geom.hash(),
        mode_counts=tuple(s.n_prop for s in stubs),
    )


def flux_residual(js: JunctionScattering) -> np.ndarray:
    """Energy balance of each incident column c, sum_r d_r |T_rc|^2 - d_c
    with continuum wavenumbers d; 0 for the continuum problem, O(h^2)
    here."""
    return js.d_diag @ np.abs(js.matrix) ** 2 - js.d_diag


def network_geometry(g: MetricGraph, eps: float) -> PlanarGeometry:
    """Lay out the rescaled planar network defined by a valid graph whose
    vertices all carry oracle junction geometries.

    Vertices are placed by walking the finite ends of each placed vertex: a
    finite channel of length l becomes a straight rectangle of length l/eps
    joining the attachment planes of the two stubs that serve its ends,
    which must face each other with equal widths, and a channel that reaches
    a placed vertex must meet it.  Infinite channels keep their stub; the
    stubs follow g.infinite_channel_ids.
    """
    violations = validate_graph(g)
    if violations:
        raise GraphInvalid(violations)
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

    owner = {end: (v, i) for v in g.vertices for i, end in enumerate(v.ends)}
    link_length = {c.id: c.length / eps for c in g.channels if not c.is_infinite}
    pos: dict[int, tuple[float, float]] = {g.vertices[0].id: (0.0, 0.0)}
    todo = [g.vertices[0]]
    channel_rects: list[Rect] = []

    def stub_global(v: Vertex, i: int) -> Stub:
        dx, dy = pos[v.id]
        s = vgeoms[v.id].stubs[i]
        x0, y0, x1, y1 = s.rect
        return Stub(rect=(x0 + dx, y0 + dy, x1 + dx, y1 + dy), direction=s.direction)

    while todo:
        va = todo.pop()
        for ia, (cid, which) in enumerate(va.ends):
            if cid not in link_length:
                continue
            vb, ib = owner[(cid, END if which == START else START)]
            sa, sb = stub_global(va, ia), vgeoms[vb.id].stubs[ib]
            if {sa.direction, sb.direction} not in ({"+x", "-x"}, {"+y", "-y"}):
                raise GeometryInvalid(
                    f"channel {cid}: stub directions {sa.direction} and "
                    f"{sb.direction} do not face each other"
                )
            if abs(sa.width - sb.width) > 1e-9:
                raise GeometryInvalid(f"channel {cid}: stub widths differ")
            # the link runs along axis a (0 for x, 1 for y) away from sa's
            # base plane rect[a + k]; sb's base plane faces it at rect[a + 2 - k]
            a = "xy".index(sa.direction[1])
            k, sign = (0, 1.0) if sa.direction[0] == "+" else (2, -1.0)
            far = sa.rect[a + k] + sign * link_length[cid]
            offset = [0.0, 0.0]
            offset[a] = far - sb.rect[a + 2 - k]
            offset[1 - a] = sa.rect[1 - a] - sb.rect[1 - a]
            if vb.id not in pos:
                pos[vb.id] = tuple(offset)
                todo.append(vb)
            elif any(abs(p - q) > 1e-9 for p, q in zip(pos[vb.id], offset)):
                raise GeometryInvalid(f"channel {cid}: network cycle does not close geometrically")
            if which == START:
                rect = list(sa.rect)
                rect[a], rect[a + 2] = sorted((sa.rect[a + k], far))
                channel_rects.append(tuple(rect))

    if len(pos) != len(g.vertices):
        raise GeometryInvalid("network geometry is disconnected through finite channels")

    cores: list[Rect] = []
    for v in g.vertices:
        dx, dy = pos[v.id]
        for (x0, y0, x1, y1) in vgeoms[v.id].cores:
            cores.append((x0 + dx, y0 + dy, x1 + dx, y1 + dy))
    cores.extend(channel_rects)

    stubs = tuple(stub_global(*owner[(cid, START)]) for cid in g.infinite_channel_ids)
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
