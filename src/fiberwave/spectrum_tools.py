"""Spectral sweeps of the graph model and threshold-limit extrapolation.

A sweep solves the scattering problem on a uniform lambda grid, records
per-column transmission totals, flux-balance residuals and the reciprocal
condition of the assembled system, and flags resonance intervals.  The
window holds no threshold, so every grid node has the same unknowns, and
the grid is solved in block-diagonal batches of consecutive nodes
(graph_solver.solve_batch) of at most BATCH_UNKNOWNS unknowns each: one
factorization, one block solve and one conditioning estimate per batch,
with each node's results equal to its own single solve up to rounding.  The
resonant set of the network (embedded eigenvalues of decoupled pieces)
consists of isolated points where the system is exactly singular: simple
real zeros of the analytic det A(lambda).  Every grid solve records
log|det A| at its node, and a grid node almost never lands on a zero, so
each strict local minimum of that curve is refined to the bottom of
|det A| between the node's grid neighbours.  Every further sample is one
sparse LU factor at an off-grid lambda; at an embedded eigenvalue the
bottom is a V-shaped zero, found by secant steps along the V's branches.
RCOND_TOL is applied to the reciprocal condition at the bottom: the grid's
own at a node, else one solve per off-grid bottom, all in one batch.  A
grid row is certified when the reciprocal condition over its grid cell -
not just at its node - stays above RCOND_TOL and lambda is clear of
thresholds, which ThresholdTable.span checks at the window's ends as the
assembly does at each batch's.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

# bound under this module's own name, not imported from graph_solver:
# perfbench/tracing.py times the dip-refinement factorizations through it
from scipy.sparse.linalg import splu as lu_factor

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    IntervalContainsThreshold,
    ThresholdCollision,
)
from .graph_model import MetricGraph
from .graph_solver import (
    RCOND_TOL,
    NetworkScattering,
    SolveRequest,
    _log_abs_det,
    assemble_system,
    energy_report,
    solve_batch,
)


# dip refinement: relative rise of |det A| at both neighbours of the lowest
# sample below which a minimum counts as resolved, and the most factors it
# makes beyond the cell's three grid points
_FLAT_REL = 1e-8
_V_STEPS = 20

#: Most unknowns in one block-diagonal batch of grid solves.  Memory, not
#: time, sets it: a batch's factor, and the CSC copies of L and U that
#: reading log|det A| off it makes, grow with the batch, while the time per
#: grid node falls only slowly past about a thousand unknowns.
BATCH_UNKNOWNS = 1024


@dataclass
class SweepRow:
    lam: float
    abs_t_sq: np.ndarray
    flux_residual: np.ndarray
    rcond: float
    certified: bool


@dataclass
class SweepResult:
    """Rows of one sweep, the maximal flagged lambda intervals and the
    refined (lam*, depth) of every conditioning dip, in grid order."""

    rows: list[SweepRow]
    flagged_intervals: list[tuple[float, float]]
    dips: list[tuple[float, float]]


def _factor(g: MetricGraph, lam: float, eps: float):
    """The SuperLU factor of the system assembled at lam, or None when the
    matrix is exactly singular."""
    matrix = assemble_system(g, SolveRequest(lam=lam, eps=eps)).matrix
    try:
        return lu_factor(matrix)
    except RuntimeError:  # SuperLU: the matrix is exactly singular
        return None


def _v_bottom(log_d, cell: Sequence[tuple[float, float]]) -> float:
    """Bottom of |det A| on the grid cell [a, b] around the dip node m,
    from the grid's samples cell = ((a, log|det A(a)|), (m, ...), (b, ...)),
    of which m is the strict lowest, and log_d(lam) = log|det A(lam)|,
    called on at most _V_STEPS new points inside the cell.

    At a simple real zero lam*, |det A| = |c(lam)| |lam - lam*| with c
    smooth: a V.  Of the two chords next to the lowest sample x, the one
    on the far side of the vertex lies on a branch of the V and is the
    steeper, the other straddles the vertex; the step goes to where the
    steeper chord's line, taken through x, meets zero.  A step that would
    leave the samples around x bisects the larger side instead.  The cell
    ends lie above m and every new sample falls strictly between them, so
    x always has a neighbour on each side.  The search ends when |det A|
    vanishes, when the step is below float spacing or runs against a
    sample within rounding of x, and when |det A| at both neighbours of x
    exceeds its value at x by less than _FLAT_REL of it (a smooth minimum,
    resolved).
    """
    ref = max(l for _, l in cell)  # |det A| is kept relative to the cell's largest
    pts = [(lam, math.exp(l - ref)) for lam, l in cell]
    for _ in range(_V_STEPS):
        i = min(range(len(pts)), key=lambda j: pts[j][1])
        x, dx = pts[i]
        if dx == 0.0:
            return x
        tol = 2.0 * sys.float_info.epsilon * abs(x)
        (lo, d_lo), (hi, d_hi) = pts[i - 1], pts[i + 1]
        if min(d_lo, d_hi) - dx <= _FLAT_REL * dx:
            return x
        s_left, s_right = (d_lo - dx) / (x - lo), (d_hi - dx) / (hi - x)
        y = x + dx / s_left if s_left >= s_right else x - dx / s_right
        if not lo < y < hi:
            if abs(x - (lo if y < x else hi)) <= 16.0 * tol:
                return x  # the samples next to x differ by rounding only
            y = 0.5 * (lo + x) if x - lo > hi - x else 0.5 * (x + hi)
        if abs(y - x) <= tol or y in (lo, hi):
            return x
        pts.append((y, math.exp(log_d(y) - ref)))
        pts.sort()
    return min(pts, key=lambda pt: pt[1])[0]


def _refine_dip(g: MetricGraph, eps: float, cell: Sequence[tuple[float, float]]) -> float:
    """The bottom lam* of |det A| in the grid cell [a, b] around the dip
    node m, from the grid's (lam, log|det A|) at a, m and b, where
    log|det A| is a strict local minimum at m.

    |det A| carries no phase, so the search does not depend on how fast
    the phase of det A turns across the cell: it turns with every broad
    resonance of the open network, not only at the zero.  At an embedded
    eigenvalue the bottom is an exact zero, which _v_bottom finds down to
    float spacing; in a cell with no real zero it is a smooth minimum.
    """
    def log_d(lam: float) -> float:
        return float(_log_abs_det(_factor(g, lam, eps))[0])

    return _v_bottom(log_d, cell)


def sweep(
    g: MetricGraph,
    eps: float,
    lam_lo: float,
    lam_hi: float,
    steps: int,
) -> SweepResult:
    """Solve the graph on a uniform lambda grid and flag resonances.

    The interval must exclude every cross-section threshold of every
    channel.  The grid is solved in batches of consecutive nodes of at
    most BATCH_UNKNOWNS unknowns (at least one node each).  Uncertified
    grid points are grouped into maximal flagged intervals.  Each strict
    local minimum of the grid's log|det A| is refined to the bottom of
    |det A| between its grid neighbours (the node itself when the bottom
    there is better conditioned than the node), and the grid rows within
    one step of it are flagged when the reciprocal condition there falls
    below RCOND_TOL.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not lam_lo < lam_hi:
        raise ValueError(f"need lam_lo < lam_hi, got {lam_lo!r} and {lam_hi!r}")
    # one alpha amplitude per propagating mode of every channel and one beta
    # per mode of a finite channel, the same everywhere on the interval
    unknowns = 0
    for chan in g.channels:
        try:
            modes = len(g.threshold_tables[chan.id].span(lam_lo, lam_hi))
        except (ThresholdCollision, IntervalContainsThreshold) as exc:
            raise IntervalContainsThreshold(f"channel {chan.id}: {exc}") from exc
        unknowns += modes * (1 if chan.is_infinite else 2)

    reqs = [SolveRequest(lam=float(lam), eps=eps) for lam in np.linspace(lam_lo, lam_hi, steps)]
    batch = max(1, BATCH_UNKNOWNS // max(unknowns, 1))

    def solved(todo: Sequence[SolveRequest]) -> Iterator[NetworkScattering]:
        # a batch's solutions are freed before the next batch is solved
        for first in range(0, len(todo), batch):
            yield from solve_batch(g, todo[first : first + batch], allow_flagged=True)

    rows = []
    grid = []  # (lam, log|det A|, rcond) of each node as solved, before any dip lowers a row's rcond
    for ns in solved(reqs):
        with np.errstate(invalid="ignore"):
            abs_t_sq = np.sum(np.abs(ns.t) ** 2, axis=0)
            flux = energy_report(ns).balance
        rows.append(SweepRow(ns.lam, abs_t_sq, flux, ns.rcond, ns.certified))
        grid.append((ns.lam, ns.log_abs_det, ns.rcond))

    # every strict local minimum of log|det A|: its grid node and the bottom
    # lam* in its cell; the depth at every off-grid lam* comes from one
    # batch of solves, and a lam* at its node keeps the grid's rcond
    dip_nodes = [i for i in range(1, steps - 1) if grid[i][1] < grid[i - 1][1] and grid[i][1] < grid[i + 1][1]]
    stars = [_refine_dip(g, eps, [(lam, log_det) for lam, log_det, _ in grid[i - 1 : i + 2]]) for i in dip_nodes]
    off_grid = [SolveRequest(lam=s, eps=eps) for s, i in zip(stars, dip_nodes) if s != grid[i][0]]
    depths = iter([ns.rcond for ns in solved(off_grid)])

    dips: list[tuple[float, float]] = []
    step = (lam_hi - lam_lo) / (steps - 1)
    for lam_star, i in zip(stars, dip_nodes):
        lam, _, rcond = grid[i]
        dip = rcond if lam_star == lam else next(depths)
        if dip > rcond:  # no real zero of det A in the cell: the node is the bottom
            lam_star, dip = lam, rcond
        dips.append((lam_star, dip))
        if dip < RCOND_TOL:
            for row in rows:
                if abs(row.lam - lam_star) <= step:
                    row.certified = False
                    row.rcond = min(row.rcond, dip)

    flagged = []
    for certified, run in groupby(rows, key=lambda row: row.certified):
        if not certified:
            run = list(run)
            flagged.append((run[0].lam, run[-1].lam))

    return SweepResult(rows=rows, flagged_intervals=flagged, dips=dips)


@dataclass
class ThresholdFit:
    """Entrywise polynomial extrapolation of junction matrices to the
    spectral bottom, in the analytic variable z = sqrt(lambda - lambda0).

    t0 estimates the matrix at z = 0 (the total-reflection limit -I for a
    junction with a regular threshold); t_prime is the linear coefficient,
    i.e. the derivative d/dz at 0.  residual is the largest absolute
    deviation of the fit from the samples and is reported, never hidden.
    """

    z: np.ndarray
    t0: np.ndarray
    t_prime: np.ndarray
    residual: float


def threshold_extrapolate(
    matrices: Sequence[tuple[float, np.ndarray]], lam0: float
) -> ThresholdFit:
    """Least-squares cubic fit, entrywise in z = sqrt(lambda - lam0), of
    junction-matrix samples approaching the threshold from above.

    Requires at least five samples with strictly decreasing z so the cubic
    fit stays overdetermined.
    """
    if len(matrices) < 5:
        raise InsufficientSamples(f"need >= 5 samples, got {len(matrices)}")
    lams = np.array([lam for lam, _ in matrices], dtype=float)
    mats = [np.atleast_2d(np.asarray(m, dtype=complex)) for _, m in matrices]
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise DimensionMismatch("threshold samples differ in matrix size")
    if np.any(lams <= lam0):
        raise ValueError("all sample lambdas must lie above lam0")
    z = np.sqrt(lams - lam0)
    if np.any(np.diff(z) >= 0):
        raise ValueError("samples must approach the threshold: z strictly decreasing")

    vand = np.vander(z, 4, increasing=True)
    data = np.stack([m.ravel() for m in mats])  # (n_samples, dim*dim)
    coeffs, *_ = np.linalg.lstsq(vand, data, rcond=None)
    fit = vand @ coeffs
    residual = float(np.max(np.abs(fit - data))) if data.size else 0.0
    t0 = coeffs[0].reshape(shape)
    t_prime = coeffs[1].reshape(shape)
    return ThresholdFit(z=z, t0=t0, t_prime=t_prime, residual=residual)


def export_spectrum(sr: SweepResult, path) -> None:
    """Write a sweep as CSV: one row per (lambda, incident column).

    Header: lambda,col,abs_t_sq,flux_residual,rcond,certified.  Floats are
    shortest round-trip decimals, line endings LF; re-exporting the same
    result is byte-identical.
    """
    with open(path, "w", newline="\n") as f:
        f.write("lambda,col,abs_t_sq,flux_residual,rcond,certified\n")
        for row in sr.rows:
            cert = "1" if row.certified else "0"
            for c in range(len(row.abs_t_sq)):
                f.write(
                    f"{float(row.lam)!r},{c},{float(row.abs_t_sq[c])!r},"
                    f"{float(row.flux_residual[c])!r},{float(row.rcond)!r},{cert}\n"
                )
