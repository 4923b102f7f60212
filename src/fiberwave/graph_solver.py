"""Scattering on the limiting graph.

On each channel the wave field is a superposition of traveling modes

    field_jn(t) = alpha_jn * exp(+i k_jn t / eps) + beta_jn * exp(-i k_jn t / eps),
    k_jn = sqrt(lambda - lambda_jn),

with t the canonical length parameter (0 at the start vertex).  At every
vertex the traces of the field satisfy the coupling condition

    eps * (I + T_v) D_v^{-1} (d/dt) s(0) + i (I - T_v) s(0) = 0,

written with all adjacent edges parametrized away from the vertex, where
T_v is the junction scattering matrix and D_v the diagonal of local k
values.  For amplitude unknowns this reduces, row by row, to "outgoing =
T_v * incoming", so the assembled system only ever contains unit-modulus
phase factors and stays well conditioned away from resonances.

Solving with the incident-wave right-hand sides (unit incoming amplitude
on one propagating mode of one infinite channel, zero on the others)
produces the M x M network scattering matrix T; D^{1/2} T D^{-1/2} is
unitary and symmetric whenever every junction matrix has that property.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional

import numpy as np
import scipy.sparse as sp

# bound under this module's own name: perfbench/tracing.py times the
# factorizations made here through it.  The graph system keeps SuperLU's
# default COLAMD order: unlike the oracle's stencil its pattern is far from
# symmetric.  On a 10x10 lattice of matrix junctions (1,521 unknowns) the
# minimum-degree order on A^T + A raised L+U nonzeros about fourfold
# (91,983 -> 382,678) and made the factorization about 10x and the solve
# about 3-4x slower.
from scipy.sparse.linalg import splu as lu_factor

from . import cross_section as cs
from .errors import (
    DimensionMismatch,
    GraphInvalid,
    NearSingular,
    SingularAtThreshold,
    UnresolvableJunction,
)
from .graph_model import (
    START,
    Dirichlet,
    GlobalModeOrdering,
    MatrixJunction,
    MetricGraph,
    OracleJunction,
    TabulatedJunction,
    Transparent,
    Vertex,
    mode_ordering,
    validate_graph,
)

#: Below this reciprocal condition number a solve is flagged, not certified.
#: It bounds the estimate of sigma_min / sigma_max of the assembled
#: amplitude system (the 2-norm reciprocal condition), as computed by
#: _estimate_rcond.
RCOND_TOL = 1e-10

_TWO_PI = np.longdouble("6.283185307179586476925286766559005768394")


def propagation_phase(k, length, eps: float):
    """exp(i k length / eps), elementwise over arrays, with the argument
    reduced mod 2 pi in extended precision, so the phase stays accurate for
    eps down to 1e-6."""
    phi = np.asarray(k, dtype=np.longdouble) * np.asarray(length, dtype=np.longdouble) / np.longdouble(eps)
    phi = np.mod(phi, _TWO_PI).astype(np.float64)
    return np.cos(phi) + 1j * np.sin(phi)


@dataclass(frozen=True)
class SolveRequest:
    """Parameters of one scattering solve; the fiber thickness must satisfy
    0 < eps < inf."""

    lam: float
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must satisfy 0 < eps < inf, got {self.eps!r}")


@dataclass
class VertexScatteringResolved:
    """Junction matrix of one vertex at a fixed lambda, with its local mode
    order: entries[r] = (channel id, which end, mode index)."""

    vertex_id: int
    entries: tuple[tuple[int, str, int], ...]
    t_matrix: np.ndarray
    d_diag: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass
class EdgeWaveField:
    """Traveling-wave amplitudes of one scattering solution.

    alpha[cid][n] multiplies exp(+i k t / eps), beta[cid][n] multiplies
    exp(-i k t / eps) in the canonical parametrization of channel cid.  On
    infinite channels beta is the incident indicator.
    """

    lam: float
    eps: float
    incident: tuple[int, int]
    alpha: dict[int, np.ndarray]
    beta: dict[int, np.ndarray]


@dataclass
class NetworkScattering:
    """The M x M network scattering matrix and its certification state,
    with the solved amplitude block it was read from."""

    t: np.ndarray
    d_diag: np.ndarray
    ordering: GlobalModeOrdering
    lam: float
    eps: float
    rcond: float
    certified: bool
    amplitudes: np.ndarray  # unknowns x M, one column per incident wave
    channel_slices: tuple[tuple[int, slice, slice], ...]  # (channel id, alpha columns, beta columns)

    def weighted(self) -> np.ndarray:
        """D^{1/2} T D^{-1/2}, the unitary-symmetric normalization."""
        s = np.sqrt(self.d_diag)
        return (s[:, None] * self.t) / s[None, :]


@dataclass
class LinearSystem:
    """Square system A x = rhs[:, c], one column per incident wave; A is
    sparse (CSC) and rhs dense."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    unknowns: list[tuple[int, str, int]]  # (channel id, "alpha"|"beta", mode)
    ordering: GlobalModeOrdering
    d_diag: np.ndarray  # wavenumber of each entry of the mode ordering
    lam: float
    eps: float
    plan: _SolvePlan  # the index arrays the system was scattered through


def resolve_vertex(g: MetricGraph, v: Vertex, lam: float) -> VertexScatteringResolved:
    """Junction matrix, local mode order and local wavenumber diagonal of a
    vertex at the given lambda; SingularAtThreshold within the exclusion
    window of a threshold of an incident channel."""
    entries: list[tuple[int, str, int]] = []
    per_end_ks: list[np.ndarray] = []
    floor = math.inf  # lowest threshold of the ends, if any end propagates
    for cid, which in v.ends:
        try:
            ths = cs.thresholds_below(g.channel(cid).cross_section, lam)
        except cs.ThresholdCollision as exc:
            raise SingularAtThreshold(
                f"lambda={lam!r} collides with a threshold of channel {cid}"
            ) from exc
        if ths:
            floor = min(floor, ths[0])
        ks = np.sqrt(lam - np.asarray(ths, dtype=float))
        per_end_ks.append(ks)
        entries.extend((cid, which, n) for n in range(len(ks)))
    dim = len(entries)
    d_arr = np.concatenate(per_end_ks) if per_end_ks else np.zeros(0)

    j = v.junction
    if isinstance(j, Dirichlet):
        t = -np.eye(dim, dtype=complex)
    elif isinstance(j, Transparent):
        if len(v.ends) != 2:
            raise UnresolvableJunction(f"vertex {v.id}: transparent junction needs two ends")
        p0, p1 = (len(ks) for ks in per_end_ks)
        if p0 != p1:
            raise DimensionMismatch(f"vertex {v.id}: transparent ends have {p0} vs {p1} modes")
        t = np.zeros((dim, dim), dtype=complex)
        t[:p0, p0:] = np.eye(p0)
        t[p0:, :p0] = np.eye(p0)
    elif isinstance(j, MatrixJunction):
        if abs(j.lam - lam) > cs.threshold_window(lam):
            raise UnresolvableJunction(
                f"vertex {v.id}: matrix junction declared at lambda={j.lam!r}, requested {lam!r}"
            )
        t = j.matrix
    elif isinstance(j, TabulatedJunction):
        t = _interpolate_table(v, j, lam, floor)
    elif isinstance(j, OracleJunction):
        t = _resolve_oracle(g, v, j, lam)
    else:
        raise UnresolvableJunction(f"vertex {v.id}: unknown junction model {j!r}")

    if t.shape != (dim, dim):
        raise DimensionMismatch(
            f"vertex {v.id}: junction matrix is {t.shape}, expected {(dim, dim)} at lambda={lam!r}"
        )
    return VertexScatteringResolved(vertex_id=v.id, entries=tuple(entries), t_matrix=t, d_diag=d_arr)


def _interpolate_table(v, j: TabulatedJunction, lam: float, floor: float) -> np.ndarray:
    """Table entry at lam, linear in the z-chart z = sqrt(lam - floor) of
    the ends' lowest threshold `floor`; infinite when no end propagates,
    and the junction is then 0 x 0."""
    lams, mats = j.lams, j.mats
    if not lams[0] <= lam <= lams[-1]:
        raise UnresolvableJunction(
            f"vertex {v.id}: lambda={lam!r} outside tabulated range [{lams[0]!r}, {lams[-1]!r}]"
        )
    if len(mats) == 1 or floor == math.inf:
        return mats[0]
    z = math.sqrt(max(lam - floor, 0.0))
    zs = np.sqrt(np.maximum(lams - floor, 0.0))
    i = int(np.searchsorted(zs, z, side="right"))
    i = min(max(i, 1), len(zs) - 1)
    w = (z - zs[i - 1]) / (zs[i] - zs[i - 1])
    return (1.0 - w) * mats[i - 1] + w * mats[i]


@lru_cache(maxsize=128)
def _oracle_matrix(geom, lam: float) -> np.ndarray:
    """Junction matrix of an oracle geometry at lambda, kept for the most
    recently used (geometry, lambda) pairs of the process."""
    from . import helmholtz_oracle  # deferred: heavy module

    t = helmholtz_oracle.junction_matrix(geom, lam).matrix
    t.flags.writeable = False  # every cache hit hands out this same array
    return t


def _resolve_oracle(g: MetricGraph, v, j: OracleJunction, lam: float) -> np.ndarray:
    geom = j.geometry
    if len(geom.stubs) != len(v.ends):
        raise DimensionMismatch(
            f"vertex {v.id}: geometry has {len(geom.stubs)} stubs for {len(v.ends)} incident ends"
        )
    for stub, (cid, _which) in zip(geom.stubs, v.ends):
        shape = g.channel(cid).cross_section
        if not isinstance(shape, cs.Interval) or abs(shape.width - stub.width) > 1e-9:
            raise DimensionMismatch(
                f"vertex {v.id}: stub width {stub.width!r} does not match channel {cid} "
                f"cross-section {shape!r} (planar junctions serve interval channels only)"
            )
    return _oracle_matrix(geom, float(lam))


@dataclass(frozen=True, eq=False)
class _SolvePlan:
    """Index arrays of a graph's amplitude system for one set of
    propagating-mode counts; every lambda at which those counts hold reuses
    them.

    Rows follow the vertices and their local entries.  Each row pairs the
    amplitude leaving the vertex (alpha at a start end, beta at a far end)
    with the one arriving (the other), and a far-end row carries the phase
    exp(i k length / eps).  Columns are the unknowns, which form the CSC
    pattern of the matrix, followed by the incident waves, which form the
    dense right-hand side.
    """

    entries: tuple[tuple[tuple[int, str, int], ...], ...]  # per vertex, as resolved
    unknowns: tuple[tuple[int, str, int], ...]
    ordering: GlobalModeOrdering
    end_rows: np.ndarray  # rows at the far end of a finite channel
    end_lengths: np.ndarray  # that channel's length, extended precision
    alpha_rows: np.ndarray  # row of each alpha unknown's start end (its wavenumber)
    block_src: np.ndarray  # row whose incoming phase scales each junction-matrix entry
    indptr: np.ndarray  # CSC column pointers of the matrix
    indices: np.ndarray  # CSC row indices of the matrix
    # per value (junction-matrix entries, then one outgoing entry per row):
    # its CSC data slot, or nnz + its flat position in the right-hand side
    slots: np.ndarray
    channel_slices: tuple[tuple[int, slice, slice], ...]  # (channel id, alpha columns, beta columns)
    ordering_alpha: np.ndarray  # alpha column of each entry of the mode ordering


def _build_plan(g: MetricGraph, entries: tuple[tuple[tuple[int, str, int], ...], ...]) -> _SolvePlan:
    counts = Counter(cid for vertex_entries in entries for cid, which, _n in vertex_entries if which == START)
    ordering = mode_ordering(g, counts)
    # Column groups: the alpha unknowns of every channel and the beta
    # unknowns of finite channels, then the incident betas of infinite
    # channels in mode-ordering order.
    groups = [(chan.id, "alpha") for chan in g.channels]
    groups += [(chan.id, "beta") for chan in g.channels if not chan.is_infinite]
    unknowns = tuple((cid, kind, n) for cid, kind in groups for n in range(counts[cid]))
    groups += [(cid, "beta") for cid in g.infinite_channel_ids]
    first = dict(zip(groups, accumulate((counts[cid] for cid, _kind in groups), initial=0)))
    n_unknowns = len(unknowns)

    out_cols: list[int] = []
    in_cols: list[int] = []
    end_rows: list[int] = []
    end_lengths: list[float] = []
    length_of = {chan.id: chan.length for chan in g.channels}
    alpha_rows = np.zeros(counts.total(), dtype=np.intp)  # one alpha unknown per start-end mode
    for row, (cid, which, n) in enumerate(e for vertex_entries in entries for e in vertex_entries):
        ca, cb = first[cid, "alpha"] + n, first[cid, "beta"] + n
        if which == START:
            out_cols.append(ca)
            in_cols.append(cb)
            alpha_rows[ca] = row
        else:
            out_cols.append(cb)
            in_cols.append(ca)
            end_rows.append(row)
            end_lengths.append(length_of[cid])
    if len(out_cols) != n_unknowns:
        raise AssertionError(
            f"assembled system is {len(out_cols)} x {n_unknowns}; graph bookkeeping is broken"
        )

    # Entry (i, j) of a vertex's T_v lands on the vertex's row i and on the
    # incoming column of its row j.
    vertex_rows = np.split(np.arange(n_unknowns), np.cumsum([len(e) for e in entries])[:-1])
    block_rows = np.concatenate([np.repeat(rows, len(rows)) for rows in vertex_rows])
    block_src = np.concatenate([np.tile(rows, len(rows)) for rows in vertex_rows])
    rows = np.concatenate((block_rows, np.arange(n_unknowns)))
    cols = np.concatenate((np.asarray(in_cols, dtype=np.intp)[block_src], np.asarray(out_cols, dtype=np.intp)))

    # Matrix entries sorted column-major; entries on one position (a loop
    # channel puts two rows of one vertex on one column) share a slot.
    in_matrix = cols < n_unknowns
    keys, first_of_key, slots = np.unique(
        cols[in_matrix] * n_unknowns + rows[in_matrix], return_index=True, return_inverse=True
    )
    all_slots = np.empty(len(rows), dtype=np.intp)
    all_slots[in_matrix] = slots
    all_slots[~in_matrix] = len(keys) + rows[~in_matrix] * ordering.M + cols[~in_matrix] - n_unknowns

    def span(cid: int, kind: str) -> slice:
        return slice(first[cid, kind], first[cid, kind] + counts[cid])

    return _SolvePlan(
        entries=entries,
        unknowns=unknowns,
        ordering=ordering,
        end_rows=np.asarray(end_rows, dtype=np.intp),
        end_lengths=np.asarray(end_lengths, dtype=np.longdouble),
        alpha_rows=alpha_rows,
        block_src=block_src,
        # int32, the index type scipy keeps, so each lambda's matrix views these
        indptr=np.searchsorted(keys, np.arange(n_unknowns + 1) * n_unknowns).astype(np.int32),
        indices=rows[in_matrix][first_of_key].astype(np.int32),
        slots=all_slots,
        channel_slices=tuple((chan.id, span(chan.id, "alpha"), span(chan.id, "beta")) for chan in g.channels),
        ordering_alpha=np.asarray([first[cid, "alpha"] + n for cid, n in ordering.entries], dtype=np.intp),
    )


def assemble_system(g: MetricGraph, req: SolveRequest) -> LinearSystem:
    """Assemble the vertex coupling conditions into a square complex system.

    Unknowns are the alpha amplitudes of every channel plus the beta
    amplitudes of finite channels; incident beta amplitudes on infinite
    channels form the right-hand sides.  Traces at the far end of a finite
    edge are taken in the reversed parameter tau = length - t, which flips
    the derivative and attaches unit-modulus phase factors
    exp(+-i k length / eps).  Row by row the coupling condition then reads

        2i (outgoing - T_v incoming) = 0,

    which is scattered through the graph's solve plan into the data of a
    CSC matrix and into the dense right-hand side.  The plan, with the CSC
    pattern, is built once per graph, after one validate_graph call, and
    again only when some channel's propagating-mode count changes.
    """
    # The plan lives on the (immutable) graph instance.
    plan: Optional[_SolvePlan] = getattr(g, "_solve_plan", None)
    if plan is None:
        violations = validate_graph(g)
        if violations:
            raise GraphInvalid(violations)
    lam, eps = req.lam, req.eps

    resolved = [resolve_vertex(g, v, lam) for v in g.vertices]
    entries = tuple(res.entries for res in resolved)
    if plan is None or plan.entries != entries:
        plan = _build_plan(g, entries)
        object.__setattr__(g, "_solve_plan", plan)

    # Every channel's start end belongs to exactly one vertex (the graph is
    # valid), so the wavenumbers of that end are the channel's.
    k_rows = np.concatenate([res.d_diag for res in resolved])

    in_phase = np.ones(len(k_rows), dtype=complex)
    in_phase[plan.end_rows] = propagation_phase(k_rows[plan.end_rows], plan.end_lengths, eps)
    t_flat = np.concatenate([res.t_matrix.ravel() for res in resolved])
    values = 2j * np.concatenate((-t_flat * in_phase[plan.block_src], in_phase.conj()))
    n, nnz = len(plan.unknowns), len(plan.indices)
    filled = np.zeros(nnz + n * plan.ordering.M, dtype=complex)
    # accumulate: a loop channel puts two values on one slot
    np.add.at(filled, plan.slots, values)
    return LinearSystem(
        matrix=sp.csc_matrix((filled[:nnz], plan.indices, plan.indptr), shape=(n, n)),
        rhs=-filled[nnz:].reshape(n, plan.ordering.M),
        unknowns=list(plan.unknowns),
        ordering=plan.ordering,
        d_diag=k_rows[plan.alpha_rows][plan.ordering_alpha],
        lam=lam,
        eps=eps,
        plan=plan,
    )


def lu_solve(lu, b: np.ndarray) -> np.ndarray:
    """Solve with a SuperLU factor; every block solve goes through this
    name, which perfbench/tracing.py times."""
    return lu.solve(b)


def _estimate_rcond(a: sp.csc_matrix, lu, rng: np.random.Generator) -> float:
    """Estimate of sigma_min / sigma_max of the sparse matrix `a`, its 2-norm
    reciprocal condition number: 12 steps of power iteration on A^H A for
    sigma_max, through products with `a` and its transpose, and 30 steps of
    inverse power iteration for sigma_min, each a solve with A^H and then
    with A through the SuperLU factor `lu` of `a`.  The factor must be
    complex: a real one rejects the complex iterate.  A pivot small enough
    to make the iterate non-finite gives 0."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x /= np.linalg.norm(x)
    a_t = a.T
    smax = 0.0
    for _ in range(12):
        y = a @ x
        x = np.conj(a_t @ np.conj(y))
        nx = np.linalg.norm(x)
        if nx == 0:
            break
        smax = math.sqrt(nx)
        x /= nx
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x /= np.linalg.norm(x)
    inv_smin = 0.0
    for _ in range(30):
        x = lu.solve(lu.solve(x, trans="H"))
        nx = np.linalg.norm(x)
        if not np.isfinite(nx) or nx == 0:
            return 0.0
        inv_smin = math.sqrt(nx)
        x /= nx
    if smax == 0.0:
        return 1.0
    return 1.0 / (inv_smin * smax) if inv_smin > 0 else 1.0


def solve_scattering(
    g: MetricGraph,
    req: SolveRequest,
    *,
    allow_flagged: bool = False,
    rcond_tol: float = RCOND_TOL,
) -> NetworkScattering:
    """Solve the graph scattering problem for all incident waves from one
    factorization.

    Returns the network scattering matrix together with the solved
    amplitude block; wave_fields turns the block into per-incident wave
    fields.  When the reciprocal condition estimate falls below `rcond_tol`
    the result is not certified: NearSingular is raised unless
    `allow_flagged` is set, in which case the flagged result is returned.
    """
    system = assemble_system(g, req)
    a, b = system.matrix, system.rhs

    x, rcond = np.full(b.shape, np.nan, dtype=complex), 0.0
    if not a.shape[0]:
        x, rcond = b.copy(), 1.0
    else:
        with np.errstate(all="ignore"):
            try:
                lu = lu_factor(a)
            except RuntimeError:  # SuperLU: the matrix is exactly singular
                pass
            else:
                y = lu_solve(lu, b)
                # a tiny pivot leaves y non-finite, which is reported like
                # an exactly singular LU
                if np.all(np.isfinite(y)):
                    x, rcond = y, _estimate_rcond(a, lu, np.random.default_rng(0x5EED))

    certified = bool(rcond >= rcond_tol)
    if not certified and not allow_flagged:
        raise NearSingular(rcond, req.lam)

    plan = system.plan
    return NetworkScattering(
        t=x[plan.ordering_alpha, :],
        d_diag=system.d_diag,
        ordering=system.ordering,
        lam=req.lam,
        eps=req.eps,
        rcond=rcond,
        certified=certified,
        amplitudes=x,
        channel_slices=plan.channel_slices,
    )


def wave_fields(ns: NetworkScattering) -> list[EdgeWaveField]:
    """One wave field per entry of the mode ordering, in that order, read off
    the solved amplitude block."""
    m = ns.ordering.M
    # one row per incident wave: its unknowns, then the incident indicator,
    # in the column order of the assembly
    amplitudes = np.hstack([ns.amplitudes.T, np.eye(m)])
    return [
        EdgeWaveField(
            lam=ns.lam,
            eps=ns.eps,
            incident=incident,
            alpha={cid: amp[sa] for cid, sa, _sb in ns.channel_slices},
            beta={cid: amp[sb] for cid, _sa, sb in ns.channel_slices},
        )
        for incident, amp in zip(ns.ordering.entries, amplitudes)
    ]


def local_traces(
    field: EdgeWaveField, resolved: VertexScatteringResolved, g: MetricGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Values and outward derivatives of the field at a vertex, ordered by
    the vertex's local mode entries.

    The derivative is taken along the local parameter that starts at 0 on
    the vertex and increases into the channel.
    """
    eps = field.eps
    vals = np.zeros(resolved.dim, dtype=complex)
    ders = np.zeros(resolved.dim, dtype=complex)
    for r, (cid, which, n) in enumerate(resolved.entries):
        chan = g.channel(cid)
        k = resolved.d_diag[r]
        a = field.alpha[cid][n]
        b = field.beta[cid][n]
        if which == START:
            vals[r] = a + b
            ders[r] = 1j * k / eps * (a - b)
        else:
            p = propagation_phase(k, chan.length, eps)
            vals[r] = a * p + b * np.conj(p)
            ders[r] = 1j * k / eps * (b * np.conj(p) - a * p)
    return vals, ders


def gc_residual(
    field: EdgeWaveField, resolved: VertexScatteringResolved, g: MetricGraph, eps: float
) -> float:
    """Largest absolute residual of the coupling condition at one vertex,
    evaluated scalar by scalar from the wave field.

    This re-derives each row of the condition as the coordinate sum

        sum_(j,n) [ eps (delta + T[r,(j,n)]) k_jn^{-1} s'_jn
                    + i (delta - T[r,(j,n)]) s_jn ]

    which is an independent evaluation path against the matrix assembly.
    """
    vals, ders = local_traces(field, resolved, g)
    t = resolved.t_matrix
    worst = 0.0
    for r in range(resolved.dim):
        acc = 0.0 + 0.0j
        for c in range(resolved.dim):
            delta = 1.0 if r == c else 0.0
            acc += eps * (delta + t[r, c]) / resolved.d_diag[c] * ders[c]
            acc += 1j * (delta - t[r, c]) * vals[c]
        worst = max(worst, abs(acc))
    return worst


@dataclass
class EnergyReport:
    """Per-column flux balance and pairwise flux inner products.

    balance[c] = sum_r d_r |T[r,c]|^2 - d_c  (0 for a flux-conserving
    network); cross[c,c'] = sum_r d_r T[r,c] conj(T[r,c']) for c != c'
    (0 when distinct columns carry orthogonal fluxes).
    """

    balance: np.ndarray
    cross: np.ndarray

    @property
    def max_balance(self) -> float:
        return float(np.max(np.abs(self.balance))) if self.balance.size else 0.0

    @property
    def max_cross(self) -> float:
        return float(np.max(np.abs(self.cross))) if self.cross.size else 0.0


def energy_report(ns: NetworkScattering) -> EnergyReport:
    d = ns.d_diag
    gram = ns.t.conj().T @ (d[:, None] * ns.t)  # gram[c', c] = sum_r conj(T[r,c']) d_r T[r,c]
    cross = gram.T.copy()
    balance = np.real(np.diagonal(cross)) - d
    np.fill_diagonal(cross, 0.0)
    return EnergyReport(balance=balance, cross=cross)


def boundary_value_matrices(
    fields: list[EdgeWaveField],
    resolved: VertexScatteringResolved,
    g: MetricGraph,
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of vertex traces, columns ordered like the local entries.

    For a single-vertex graph the solved fields satisfy S0 = I + T_v and
    S1 = (i/eps) D_v (T_v - I); checking those identities exercises the
    whole assembly/solve/extraction pipeline.
    """
    by_incident = {f.incident: f for f in fields}
    s0 = np.zeros((resolved.dim, resolved.dim), dtype=complex)
    s1 = np.zeros((resolved.dim, resolved.dim), dtype=complex)
    for c, (cid, _which, n) in enumerate(resolved.entries):
        f = by_incident[(cid, n)]
        vals, ders = local_traces(f, resolved, g)
        s0[:, c] = vals
        s1[:, c] = ders
    return s0, s1
