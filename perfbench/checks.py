"""Correctness gates applied to every request's output file.

Each gate returns None when the output is correct and a one-line reason
when it is not; a failed gate counts the request as failed.
"""

from __future__ import annotations

import csv
import json

import numpy as np

#: Certified sweep rows must conserve flux to this absolute tolerance.
SWEEP_FLUX_TOL = 1e-8
#: ||A*A - I||_F, ||A - A^T||_F and max |flux balance| of a lattice solve.
LATTICE_TOL = 1e-8
#: Per-eps graph-vs-PDE mismatch against the recorded reference.
VALIDATE_RTOL = 1e-6
VALIDATE_ATOL = 1e-10


def check_sweep(path: str, lo: float, hi: float, steps: int, m: int, eigenvalues: list[float]) -> str | None:
    """Flagged intervals contain each closed-form embedded eigenvalue within
    one grid step and nothing else; certified rows conserve flux."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != steps * m:
        return f"{len(rows)} rows, expected {steps} x {m}"
    certified: dict[float, bool] = {}
    for r in rows:
        lam = float(r["lambda"])
        ok = r["certified"] == "1"
        if ok and abs(float(r["flux_residual"])) > SWEEP_FLUX_TOL:
            return f"certified row at lambda={lam!r} has flux residual {r['flux_residual']}"
        certified[lam] = ok
    intervals: list[tuple[float, float]] = []
    start = prev = None
    for lam in sorted(certified):
        if not certified[lam]:
            start = lam if start is None else start
            prev = lam
        elif start is not None:
            intervals.append((start, prev))
            start = None
    if start is not None:
        intervals.append((start, prev))
    step = (hi - lo) / (steps - 1)

    def covers(iv, e):
        return iv[0] - step <= e <= iv[1] + step

    for e in eigenvalues:
        if not any(covers(iv, e) for iv in intervals):
            return f"embedded eigenvalue {e!r} not flagged"
    for iv in intervals:
        if not any(covers(iv, e) for e in eigenvalues):
            return f"flagged interval {iv!r} holds no embedded eigenvalue"
    return None


def _cmatrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def check_lattice(path: str, m: int) -> str | None:
    """A = D^{1/2} T D^{-1/2} is unitary and symmetric and flux balances."""
    with open(path) as f:
        out = json.load(f)
    t = _cmatrix(out["t"])
    d = np.asarray(out["d_diag"], dtype=float)
    if t.shape != (m, m) or d.shape != (m,):
        return f"scattering matrix is {t.shape}, expected {(m, m)}"
    if not out["certified"]:
        return f"solve not certified (rcond {out['rcond']!r})"
    s = np.sqrt(d)
    a = (s[:, None] * t) / s[None, :]
    unitarity = float(np.linalg.norm(a.conj().T @ a - np.eye(m)))
    symmetry = float(np.linalg.norm(a - a.T))
    flux = float(np.max(np.abs(out["flux_balance"])))
    if not max(unitarity, symmetry, flux) <= LATTICE_TOL:
        return f"unitarity {unitarity:.2e} symmetry {symmetry:.2e} flux {flux:.2e}"
    return None


def validate_mismatch(path: str) -> dict[str, float]:
    """Largest |t_graph - t_oracle| per eps of a network-validate CSV."""
    worst: dict[str, float] = {}
    with open(path, newline="") as f:
        for r in csv.DictReader(f):
            eps = repr(float(r["eps"]))
            worst[eps] = max(worst.get(eps, 0.0), float(r["abs_diff"]))
    return worst


def check_validate(path: str, reference: dict[str, float]) -> str | None:
    """Per-eps mismatch equals the reference recorded for these inputs."""
    got = validate_mismatch(path)
    if sorted(got) != sorted(reference):
        return f"eps values {sorted(got)} differ from reference {sorted(reference)}"
    for eps, ref in reference.items():
        if abs(got[eps] - ref) > VALIDATE_ATOL + VALIDATE_RTOL * abs(ref):
            return f"eps={eps}: mismatch {got[eps]!r}, reference {ref!r}"
    return None
