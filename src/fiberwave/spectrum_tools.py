"""Spectral sweeps of the graph model and threshold-limit extrapolation.

A sweep solves the scattering problem on a uniform lambda grid, records
per-column transmission totals, flux-balance residuals and the reciprocal
condition of the assembled system, and flags resonance intervals.  The
resonant set of the network (embedded eigenvalues of decoupled pieces)
consists of isolated points where the system is exactly singular: simple
real zeros of the analytic det A(lambda).  A grid node almost never lands
on one, so each strict local minimum of the conditioning curve is refined
to the bottom of |det A| between its grid neighbours, read off one sparse
LU factor per lambda; at an embedded eigenvalue that bottom is a V-shaped
zero, found by secant steps along the V's branches.  The flag threshold
is applied to the reciprocal condition at the bottom.  A grid row is
certified when the reciprocal condition over its grid cell - not just at
its node - stays above the flag threshold and lambda is clear of
thresholds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# bound under this module's own name, not imported from graph_solver:
# perfbench/tracing.py times the dip-refinement factorizations through it
from scipy.sparse.linalg import splu as lu_factor

from . import cross_section as cs
from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    IntervalContainsThreshold,
    ThresholdCollision,
)
from .graph_model import MetricGraph, global_ordering
from .graph_solver import (
    RCOND_TOL,
    SolveRequest,
    _estimate_rcond,
    assemble_system,
    energy_report,
    solve_scattering,
)


# dip refinement: relative rise of |det A| at both neighbours of the lowest
# sample below which a minimum counts as resolved, and the most factors it
# makes beyond the cell's three grid points
_FLAT_REL = 1e-8
_V_STEPS = 20


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
    ordering_entries: tuple[tuple[int, int], ...]
    eps: float
    flag_tol: float


def _check_interval_clear(g: MetricGraph, lam_lo: float, lam_hi: float) -> None:
    """A threshold lies inside the interval iff a channel's propagating
    mode count differs between its ends."""
    for chan in g.channels:
        try:
            below_lo = cs.thresholds_below(chan.cross_section, lam_lo)
            below_hi = cs.thresholds_below(chan.cross_section, lam_hi)
        except ThresholdCollision as exc:
            raise IntervalContainsThreshold(str(exc)) from exc
        if len(below_hi) != len(below_lo):
            t = below_hi[len(below_lo)]
            raise IntervalContainsThreshold(
                f"threshold {t!r} of channel {chan.id} lies inside [{lam_lo!r}, {lam_hi!r}]"
            )


def _factor(g: MetricGraph, lam: float, eps: float):
    """The assembled matrix at lam and its SuperLU factor; the factor is
    None when the matrix is exactly singular."""
    matrix = assemble_system(g, SolveRequest(lam=lam, eps=eps)).matrix
    try:
        return matrix, lu_factor(matrix)
    except RuntimeError:  # SuperLU: the matrix is exactly singular
        return matrix, None


def _log_abs_det(lu) -> float:
    """log|det A| read off the SuperLU factor Pr A Pc = L U: L has a unit
    diagonal and SuperLU does not equilibrate, so it is the sum of
    log|U_ii|.  No factor (an exactly singular matrix) gives -inf."""
    if lu is None:
        return -math.inf
    return float(np.sum(np.log(np.abs(lu.U.diagonal()))))


def _v_bottom(log_d, a: float, m: float, b: float) -> float:
    """Bottom of |det A| on the grid cell [a, b] around the dip node m,
    from log_d(lam) = log|det A(lam)|, called on a, m, b and then on at
    most _V_STEPS more points.

    At a simple real zero lam*, |det A| = |c(lam)| |lam - lam*| with c
    smooth: a V.  Of the two chords next to the lowest sample x, the one
    on the far side of the vertex lies on a branch of the V and is the
    steeper, the other straddles the vertex; the step goes to where the
    steeper chord's line, taken through x, meets zero.  A step that would
    leave the samples around x bisects the larger side instead.  At a cell
    end, where x has one neighbour, the chord beyond that neighbour is the
    branch, and a step that would leave the cell ends the search: |det A|
    has no bottom inside.  The search also ends when |det A| vanishes,
    when the step is below float spacing or runs against a sample within
    rounding of x, and when |det A| at both neighbours of x exceeds its
    value at x by less than _FLAT_REL of it (a smooth minimum, resolved,
    or no minimum at all).
    """
    logs = [(lam, log_d(lam)) for lam in (a, m, b)]
    ref = max(l for _, l in logs)  # |det A| is kept relative to the cell's largest
    if ref == -math.inf:
        return m
    pts = [(lam, math.exp(l - ref)) for lam, l in logs]
    for _ in range(_V_STEPS):
        i = min(range(len(pts)), key=lambda j: pts[j][1])
        x, dx = pts[i]
        if dx == 0.0:
            return x
        tol = 2.0 * sys.float_info.epsilon * abs(x)
        if 0 < i < len(pts) - 1:
            (lo, d_lo), (hi, d_hi) = pts[i - 1], pts[i + 1]
            if min(d_lo, d_hi) - dx <= _FLAT_REL * dx:
                return x
            s_left, s_right = (d_lo - dx) / (x - lo), (d_hi - dx) / (hi - x)
            y = x + dx / s_left if s_left >= s_right else x - dx / s_right
            if not lo < y < hi:
                if abs(x - (lo if y < x else hi)) <= 16.0 * tol:
                    return x  # the samples next to x differ by rounding only
                y = 0.5 * (lo + x) if x - lo > hi - x else 0.5 * (x + hi)
        else:
            (p, dp), (q, dq) = (pts[1], pts[2]) if i == 0 else (pts[-2], pts[-3])
            slope = (dq - dp) / abs(q - p)
            if slope <= 0.0:
                return x
            y = p - dp / slope if i == 0 else p + dp / slope
            lo, hi = min(x, p), max(x, p)
            if not lo < y < hi:
                return x
        if abs(y - x) <= tol or y in (lo, hi):
            return x
        pts.append((y, math.exp(log_d(y) - ref)))
        pts.sort()
    return min(pts, key=lambda pt: pt[1])[0]


def _refine_dip(g: MetricGraph, eps: float, a: float, m: float, b: float) -> tuple[float, float]:
    """The bottom lam* of |det A| in the grid cell [a, b] around the dip
    node m, and the 2-norm reciprocal condition there.

    |det A| carries no phase, so the search does not depend on how fast
    the phase of det A turns across the cell: it turns with every broad
    resonance of the open network, not only at the zero.  At an embedded
    eigenvalue the bottom is an exact zero, which _v_bottom finds down to
    float spacing; in a cell with no real zero it is a smooth minimum or a
    cell end, and the caller compares its depth with the grid node's.
    """
    # log|det A|, lam, matrix and factor of the lowest sample so far: with
    # the factor being made, at most two factors are alive at once
    lowest: tuple = (math.inf, None, None, None)

    def log_d(lam: float) -> float:
        nonlocal lowest
        matrix, lu = _factor(g, lam, eps)
        log_det = _log_abs_det(lu)
        if log_det < lowest[0]:
            lowest = (log_det, lam, matrix, lu)
        return log_det

    lam_star = _v_bottom(log_d, a, m, b)  # always one of the sampled points
    _, lam_low, matrix, lu = lowest
    if lam_low != lam_star:  # the lowest samples tie (all singular, say)
        matrix, lu = _factor(g, lam_star, eps)
    return lam_star, _rcond(matrix, lu)


def _rcond(matrix, lu) -> float:
    if lu is None:
        return 0.0
    with np.errstate(all="ignore"):
        return _estimate_rcond(matrix, lu, np.random.default_rng(0x5EED))


def sweep(
    g: MetricGraph,
    eps: float,
    lam_lo: float,
    lam_hi: float,
    steps: int,
    *,
    flag_tol: float = RCOND_TOL,
) -> SweepResult:
    """Solve the graph on a uniform lambda grid and flag resonances.

    The interval must exclude every cross-section threshold of every
    channel.  Uncertified grid points are grouped into maximal flagged
    intervals.  Each strict local minimum of the conditioning curve is
    refined to the bottom of |det A| between its grid neighbours (the node
    itself when the bottom there is better conditioned than the node), and
    the grid rows within one step of it are flagged when the reciprocal
    condition there falls below `flag_tol`.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not lam_lo < lam_hi:
        raise ValueError(f"need lam_lo < lam_hi, got {lam_lo!r} and {lam_hi!r}")
    _check_interval_clear(g, lam_lo, lam_hi)

    lams = np.linspace(lam_lo, lam_hi, steps)

    rows = []
    for lam in lams:
        ns = solve_scattering(
            g, SolveRequest(lam=float(lam), eps=eps), allow_flagged=True, rcond_tol=flag_tol
        )
        with np.errstate(invalid="ignore"):
            abs_t_sq = np.sum(np.abs(ns.t) ** 2, axis=0)
            flux = energy_report(ns).balance
        rows.append(SweepRow(float(lam), abs_t_sq, flux, ns.rcond, ns.certified))

    dips: list[tuple[float, float]] = []
    if steps >= 3:
        step = (lam_hi - lam_lo) / (steps - 1)
        rc = np.array([r.rcond for r in rows])
        for i in range(1, steps - 1):
            if not (rc[i] < rc[i - 1] and rc[i] < rc[i + 1]):
                continue
            lam_star, dip = _refine_dip(g, eps, float(lams[i - 1]), float(lams[i]), float(lams[i + 1]))
            if dip > rc[i]:  # no real zero of det A in the cell: the node is the bottom
                lam_star, dip = float(lams[i]), float(rc[i])
            dips.append((lam_star, dip))
            if dip < flag_tol:
                for j, row in enumerate(rows):
                    if abs(row.lam - lam_star) <= step:
                        rows[j].certified = False
                        rows[j].rcond = min(rows[j].rcond, float(dip))

    flagged: list[tuple[float, float]] = []
    run_start: Optional[float] = None
    prev_lam = None
    for row in rows:
        if not row.certified:
            if run_start is None:
                run_start = row.lam
            prev_lam = row.lam
        else:
            if run_start is not None:
                flagged.append((run_start, prev_lam))
                run_start = None
    if run_start is not None:
        flagged.append((run_start, prev_lam))

    return SweepResult(
        rows=rows,
        flagged_intervals=flagged,
        dips=dips,
        ordering_entries=global_ordering(g, lam_lo).entries,
        eps=eps,
        flag_tol=flag_tol,
    )


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
    degree: int


def threshold_extrapolate(
    matrices: Sequence[tuple[float, np.ndarray]], lam0: float, *, degree: int = 3
) -> ThresholdFit:
    """Least-squares polynomial fit, entrywise in z = sqrt(lambda - lam0),
    of junction-matrix samples approaching the threshold from above.

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

    deg = min(degree, len(z) - 2)
    vand = np.vander(z, deg + 1, increasing=True)
    data = np.stack([m.ravel() for m in mats])  # (n_samples, dim*dim)
    coeffs, *_ = np.linalg.lstsq(vand, data, rcond=None)
    fit = vand @ coeffs
    residual = float(np.max(np.abs(fit - data))) if data.size else 0.0
    t0 = coeffs[0].reshape(shape)
    t_prime = (coeffs[1] if deg >= 1 else np.zeros_like(coeffs[0])).reshape(shape)
    return ThresholdFit(z=z, t0=t0, t_prime=t_prime, residual=residual, degree=deg)


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
