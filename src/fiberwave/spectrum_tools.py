"""Spectral sweeps of the graph model and threshold-limit extrapolation.

A sweep solves the scattering problem on a uniform lambda grid, records
per-column transmission totals, flux-balance residuals and the reciprocal
condition of the assembled system, and flags resonance intervals.  The
resonant set of the network (embedded eigenvalues of decoupled pieces)
consists of isolated points where the system is exactly singular; a grid
node almost never lands on one, so each strict local minimum of the
conditioning curve is refined by bounded scalar minimization and the flag
threshold is applied at the refined minimizer.  A grid row is certified
when the reciprocal condition over its grid cell - not just at its node -
stays above the flag threshold and lambda is clear of thresholds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import lu_factor

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


@dataclass
class SweepRow:
    lam: float
    abs_t_sq: np.ndarray
    flux_residual: np.ndarray
    rcond: float
    certified: bool


@dataclass
class SweepResult:
    """Rows of one sweep plus the maximal flagged lambda intervals."""

    rows: list[SweepRow]
    flagged_intervals: list[tuple[float, float]]
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


_GOLDEN = 0.6180339887498949


def _refine_dip(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section minimization tracking the best evaluated point.

    The conditioning curve dips like |lam - lam*| at a resonance, so the
    sqrt(eps)-limited generic minimizers stall eight orders of magnitude
    above the bottom; plain golden section reaches float spacing instead.
    """
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(90):
        if b - a <= 4.0 * np.finfo(float).eps * max(1.0, abs(a)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def _rcond_at(g: MetricGraph, lam: float, eps: float) -> float:
    rng = np.random.default_rng(0x5EED)
    system = assemble_system(g, SolveRequest(lam=lam, eps=eps))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            lu_piv = lu_factor(system.matrix)
        except np.linalg.LinAlgError:
            return 0.0
        return _estimate_rcond(system.matrix, lu_piv, rng)


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
    intervals; each strict local minimum of the conditioning curve is
    traced to its bottom and the enclosing grid cells are flagged when the
    minimum falls below `flag_tol`.
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

    if steps >= 3:
        step = (lam_hi - lam_lo) / (steps - 1)
        rc = np.array([r.rcond for r in rows])
        for i in range(1, steps - 1):
            if not (rc[i] < rc[i - 1] and rc[i] < rc[i + 1]):
                continue
            lam_star, dip = _refine_dip(
                lambda lam: _rcond_at(g, float(lam), eps),
                float(lams[i - 1]),
                float(lams[i + 1]),
            )
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
