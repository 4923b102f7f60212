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

Solves run in batches: the systems of several lambdas that share every
channel's propagating-mode count are assembled as the diagonal blocks of
one sparse matrix, which is factored once, solved once for all incident
waves and condition-estimated block by block in one iteration.  A single
lambda is a batch of one.  Blocks do not couple, so each block's result
equals its own single solve up to rounding (the factorization orders the
columns of the whole matrix).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Sequence, Union

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
    ThresholdCollision,
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
    """exp(i k length / eps), elementwise over broadcast arrays, with the
    argument reduced mod 2 pi in extended precision, so the phase stays
    accurate for eps down to 1e-6."""
    phi = np.asarray(k, dtype=np.longdouble) * np.asarray(length, dtype=np.longdouble) / np.asarray(eps, dtype=np.longdouble)
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
    order: entries[r] = (channel id, which end, mode index).  Resolved at
    an array of lambdas, d_diag carries a leading batch axis, and so does
    t_matrix when the junction varies with lambda."""

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
    log_abs_det: float  # log|det A| of the assembled system, -inf when exactly singular
    amplitudes: np.ndarray  # unknowns x M, one column per incident wave
    channel_slices: tuple[tuple[int, slice, slice], ...]  # (channel id, alpha columns, beta columns)

    def weighted(self) -> np.ndarray:
        """D^{1/2} T D^{-1/2}, the unitary-symmetric normalization."""
        s = np.sqrt(self.d_diag)
        return (s[:, None] * self.t) / s[None, :]


@dataclass
class LinearSystem:
    """Square system A x = rhs[:, c], one column per incident wave; A is
    sparse (CSC) and rhs dense.  A batch of B requests stacks B systems of
    the plan's n unknowns: A is block diagonal, block b in rows and columns
    b n to (b + 1) n, and rhs stacks their right-hand sides."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    d_diag: np.ndarray  # B x M: wavenumber of each entry of the mode ordering
    plan: _SolvePlan  # the index arrays every block was scattered through


def resolve_vertex(g: MetricGraph, v: Vertex, lam) -> VertexScatteringResolved:
    """Junction matrix, local mode order and local wavenumber diagonal of a
    vertex at the given lambda; SingularAtThreshold within the exclusion
    window of a threshold of an incident channel.

    `lam` is a float, or a 1-D array of lambdas at which every incident
    channel propagates the same modes; an array gives d_diag a leading
    batch axis, and t_matrix one too unless the junction is constant in
    lambda.  The thresholds are read off the graph's threshold tables at
    the batch's two ends only (ThresholdTable.span): a threshold between
    them raises IntervalContainsThreshold, one that collides with an end
    SingularAtThreshold.
    """
    batch = isinstance(lam, np.ndarray)
    lams = lam.astype(float, copy=False) if batch else np.array([lam], dtype=float)
    lo, hi = float(lams.min()), float(lams.max())  # NaN if any is: the table rejects it
    entries: list[tuple[int, str, int]] = []
    per_end_ks: list[np.ndarray] = []
    floor = math.inf  # lowest threshold of the ends, if any end propagates
    for cid, which in v.ends:
        try:
            ths = g.threshold_tables[cid].span(lo, hi)
        except ThresholdCollision as exc:
            raise SingularAtThreshold(f"channel {cid}: {exc}") from exc
        if ths:
            floor = min(floor, ths[0])
        per_end_ks.append(np.sqrt(lams[:, None] - np.asarray(ths, dtype=float)))
        entries.extend((cid, which, n) for n in range(len(ths)))
    dim = len(entries)
    d_arr = np.concatenate(per_end_ks, axis=1) if per_end_ks else np.zeros((len(lams), 0))

    j = v.junction
    if isinstance(j, Dirichlet):
        t = -np.eye(dim, dtype=complex)
    elif isinstance(j, Transparent):
        if len(v.ends) != 2:
            raise UnresolvableJunction(f"vertex {v.id}: transparent junction needs two ends")
        p0, p1 = (ks.shape[1] for ks in per_end_ks)
        if p0 != p1:
            raise DimensionMismatch(f"vertex {v.id}: transparent ends have {p0} vs {p1} modes")
        t = np.zeros((dim, dim), dtype=complex)
        t[:p0, p0:] = np.eye(p0)
        t[p0:, :p0] = np.eye(p0)
    elif isinstance(j, MatrixJunction):
        for x in lams.tolist():
            if abs(j.lam - x) > cs._window(x):
                raise UnresolvableJunction(
                    f"vertex {v.id}: matrix junction declared at lambda={j.lam!r}, requested {x!r}"
                )
        t = j.matrix
    elif isinstance(j, TabulatedJunction):
        t = _interpolate_table(v, j, lams, floor)
    elif isinstance(j, OracleJunction):
        t = np.stack([_resolve_oracle(g, v, j, x) for x in lams])
    else:
        raise UnresolvableJunction(f"vertex {v.id}: unknown junction model {j!r}")

    if t.shape[-2:] != (dim, dim):
        raise DimensionMismatch(
            f"vertex {v.id}: junction matrix is {t.shape[-2:]}, expected {(dim, dim)} at lambda={float(lams[0])!r}"
        )
    if not batch:
        t, d_arr = t.reshape(dim, dim), d_arr[0]
    return VertexScatteringResolved(entries=tuple(entries), t_matrix=t, d_diag=d_arr)


def _interpolate_table(v, j: TabulatedJunction, lams: np.ndarray, floor: float) -> np.ndarray:
    """Table entries at lams, linear in the z-chart z = sqrt(lam - floor) of
    the ends' lowest threshold `floor`; one matrix for every lam when the
    table has one sample or no end propagates (the junction is then 0 x 0)."""
    outside = (lams < j.lams[0]) | (lams > j.lams[-1])
    if outside.any():
        raise UnresolvableJunction(
            f"vertex {v.id}: lambda={float(lams[outside][0])!r} outside tabulated range "
            f"[{float(j.lams[0])!r}, {float(j.lams[-1])!r}]"
        )
    mats = j.mats
    if len(mats) == 1 or floor == math.inf:
        return mats[0]
    z = np.sqrt(np.maximum(lams - floor, 0.0))
    zs = np.sqrt(np.maximum(j.lams - floor, 0.0))
    i = np.clip(np.searchsorted(zs, z, side="right"), 1, len(zs) - 1)
    w = ((z - zs[i - 1]) / (zs[i] - zs[i - 1]))[:, None, None]
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


def _block_pattern(plan: _SolvePlan, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """CSC column pointers and row indices of `blocks` copies of the plan's
    pattern down the diagonal; one block is the plan's own arrays."""
    if blocks == 1:
        return plan.indptr, plan.indices
    n, nnz = len(plan.unknowns), len(plan.indices)
    shift = np.arange(blocks, dtype=np.int32)[:, None]
    indptr = np.append((plan.indptr[:-1] + nnz * shift).ravel(), np.int32(blocks * nnz))
    return indptr, (plan.indices + n * shift).ravel()


def assemble_system(g: MetricGraph, reqs: Union[SolveRequest, Sequence[SolveRequest]]) -> LinearSystem:
    """Assemble the vertex coupling conditions into a square complex system,
    one diagonal block per request of a batch (one request is a batch of
    one).  Every lambda of a batch must give every channel the same
    propagating-mode count.

    Unknowns are the alpha amplitudes of every channel plus the beta
    amplitudes of finite channels; incident beta amplitudes on infinite
    channels form the right-hand sides.  Traces at the far end of a finite
    edge are taken in the reversed parameter tau = length - t, which flips
    the derivative and attaches unit-modulus phase factors
    exp(+-i k length / eps).  Row by row the coupling condition then reads

        2i (outgoing - T_v incoming) = 0,

    which is scattered through the graph's solve plan into the data of a
    CSC matrix and into the dense right-hand side.  The plan, with the CSC
    pattern, is built once per graph, after validate_graph, and again only
    when some channel's propagating-mode count changes.  Each vertex is
    resolved once per batch.
    """
    if isinstance(reqs, SolveRequest):
        reqs = (reqs,)
    # The plan lives on the (immutable) graph instance.
    plan: Optional[_SolvePlan] = getattr(g, "_solve_plan", None)
    if plan is None:
        violations = validate_graph(g)
        if violations:
            raise GraphInvalid(violations)
    lams = np.array([req.lam for req in reqs], dtype=float)
    eps = np.array([[req.eps] for req in reqs], dtype=float)
    blocks = len(reqs)

    resolved = [resolve_vertex(g, v, lams) for v in g.vertices]
    entries = tuple(res.entries for res in resolved)
    if plan is None or plan.entries != entries:
        plan = _build_plan(g, entries)
        object.__setattr__(g, "_solve_plan", plan)

    # Every channel's start end belongs to exactly one vertex (the graph is
    # valid), so the wavenumbers of that end are the channel's.
    k_rows = np.concatenate([res.d_diag for res in resolved], axis=1)

    in_phase = np.ones(k_rows.shape, dtype=complex)
    in_phase[:, plan.end_rows] = propagation_phase(k_rows[:, plan.end_rows], plan.end_lengths, eps)
    t_flat = np.empty((blocks, len(plan.block_src)), dtype=complex)
    start = 0
    for res in resolved:  # a junction constant in lambda fills every block
        t = res.t_matrix
        t_flat[:, start : start + res.dim**2] = t.reshape(t.shape[:-2] + (res.dim**2,))
        start += res.dim**2
    values = 2j * np.concatenate((-t_flat * in_phase[:, plan.block_src], in_phase.conj()), axis=1)
    n, nnz, m = len(plan.unknowns), len(plan.indices), plan.ordering.M
    width = nnz + n * m
    filled = np.zeros((blocks, width), dtype=complex)
    # accumulate: a loop channel puts two values on one slot
    np.add.at(filled.reshape(-1), (width * np.arange(blocks)[:, None] + plan.slots).ravel(), values.ravel())
    indptr, indices = _block_pattern(plan, blocks)
    return LinearSystem(
        matrix=sp.csc_matrix((filled[:, :nnz].ravel(), indices, indptr), shape=(blocks * n, blocks * n)),
        rhs=-filled[:, nnz:].reshape(blocks * n, m),
        d_diag=k_rows[:, plan.alpha_rows][:, plan.ordering_alpha],
        plan=plan,
    )


def lu_solve(lu, b: np.ndarray) -> np.ndarray:
    """Solve with a SuperLU factor; every block solve goes through this
    name, which perfbench/tracing.py times."""
    return lu.solve(b)


def _log_abs_det(lu, blocks: int = 1) -> np.ndarray:
    """log|det| of each of the `blocks` equal-sized diagonal blocks of A,
    read off the SuperLU factor Pr A Pc = L U: L has a unit diagonal and
    SuperLU does not equilibrate, so it is the sum of log|U_jj| over the
    block's pivots, which perm_c maps back to the block's columns.  They
    are summed in pivot order, as for a block factored alone.  No factor
    (an exactly singular matrix) gives -inf."""
    if lu is None:
        return np.full(blocks, -math.inf)
    logs = np.log(np.abs(lu.U.diagonal()))
    block_of_pivot = np.empty(len(logs), dtype=np.intp)
    block_of_pivot[lu.perm_c] = np.arange(len(logs)) // (len(logs) // blocks)
    order = np.argsort(block_of_pivot, kind="stable")
    return logs[order].reshape(blocks, -1).sum(axis=1)


def _estimate_rcond(a: sp.csc_matrix, lu, blocks: int = 1) -> np.ndarray:
    """Estimate of sigma_min / sigma_max of each of the `blocks` equal-sized
    diagonal blocks of the sparse matrix `a`, their 2-norm reciprocal
    condition numbers: 12 steps of power iteration on A^H A for sigma_max,
    through products with `a` and its transpose, and 30 steps of inverse
    power iteration for sigma_min, each a solve with A^H and then with A
    through the SuperLU factor `lu` of `a`.  Every block starts from the
    same fixed random vectors, so the estimate of a matrix is reproducible,
    and is normalized by its own norm: a block whose iterate vanishes
    keeps its last sigma_max, and a block whose inverse iterate vanishes
    or becomes non-finite (a pivot that small) gives 0 and is held at zero
    from then on.  The factor must be complex: a real one rejects the
    complex iterate."""
    n = a.shape[0] // blocks
    if n == 0:
        return np.ones(blocks)

    def norms(x: np.ndarray) -> np.ndarray:
        v = x.view(np.float64)
        return np.sqrt(np.einsum("ij,ij->i", v, v))

    rng = np.random.default_rng(0x5EED)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = np.tile(x / np.linalg.norm(x), (blocks, 1))
    a_t = a.T
    smax = np.zeros(blocks)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(12):
            x = np.conj(a_t @ np.conj(a @ x.ravel())).reshape(blocks, n)
            nx = norms(x)
            # a vanished iterate reads 0, then NaN: the block keeps its last sigma_max
            smax = np.where(nx > 0, np.sqrt(nx), smax)
            x /= nx[:, None]
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = np.tile(x / np.linalg.norm(x), (blocks, 1))
        live = np.ones(blocks, dtype=bool)
        for _ in range(30):
            x = lu.solve(lu.solve(x.ravel(), trans="H")).reshape(blocks, n)
            nx = norms(x)
            live &= np.isfinite(nx) & (nx > 0)
            x /= nx[:, None]
            if not live.all():
                x[~live] = 0.0
        rcond = np.where(smax > 0, 1.0 / (np.sqrt(nx) * smax), 1.0)
    return np.where(live, rcond, 0.0)


def solve_batch(
    g: MetricGraph, reqs: Sequence[SolveRequest], *, allow_flagged: bool = False
) -> list[NetworkScattering]:
    """Solve the graph scattering problem at every request of a batch, for
    all incident waves, from one factorization of the block-diagonal
    system; one NetworkScattering per request, in order.  Every lambda of
    the batch must give every channel the same propagating-mode count.

    Each result carries the network scattering matrix together with its
    block of solved amplitudes and log|det A| of its block; wave_fields
    turns the block into per-incident wave fields.  When a block's
    reciprocal condition estimate falls below RCOND_TOL its result is not
    certified: NearSingular is raised for the first such request unless
    `allow_flagged` is set, in which case flagged results are returned.  A
    block whose solve is not finite (a tiny pivot) has NaN amplitudes and
    rcond 0.  An exactly singular block stops the factorization of the
    whole matrix, and the batch is then solved one request at a time.
    """
    system = assemble_system(g, reqs)
    a, b, plan = system.matrix, system.rhs, system.plan
    blocks, n, m = len(reqs), len(plan.unknowns), plan.ordering.M

    x = np.full(b.shape, np.nan, dtype=complex)
    rcond, log_abs_det = np.zeros(blocks), np.full(blocks, -math.inf)
    if not n:
        x, rcond, log_abs_det = b.copy(), np.ones(blocks), np.zeros(blocks)
    else:
        with np.errstate(all="ignore"):
            try:
                lu = lu_factor(a)
            except RuntimeError:  # SuperLU: some block is exactly singular
                if blocks > 1:
                    return [ns for req in reqs for ns in solve_batch(g, [req], allow_flagged=allow_flagged)]
            else:
                y = lu_solve(lu, b)
                # a tiny pivot leaves a block of y non-finite, which is
                # reported like an exactly singular LU
                finite = np.isfinite(y).reshape(blocks, n * m).all(axis=1)
                rows = np.repeat(finite, n)
                x[rows] = y[rows]
                rcond = np.where(finite, _estimate_rcond(a, lu, blocks), 0.0)
                # last: reading U makes SuperLU build and keep CSC copies of
                # L and U (1.9 MB on a 10x10 lattice), which the solve and
                # the estimate above would otherwise carry at their peak
                log_abs_det = _log_abs_det(lu, blocks)

    certified = rcond >= RCOND_TOL
    if not allow_flagged and not certified.all():
        first = int(np.argmin(certified))
        raise NearSingular(float(rcond[first]), reqs[first].lam)

    return [
        NetworkScattering(
            t=x[i * n : (i + 1) * n][plan.ordering_alpha, :],
            d_diag=system.d_diag[i],
            ordering=plan.ordering,
            lam=req.lam,
            eps=req.eps,
            rcond=float(rcond[i]),
            certified=bool(certified[i]),
            log_abs_det=float(log_abs_det[i]),
            amplitudes=x[i * n : (i + 1) * n],
            channel_slices=plan.channel_slices,
        )
        for i, req in enumerate(reqs)
    ]


def solve_scattering(g: MetricGraph, req: SolveRequest, *, allow_flagged: bool = False) -> NetworkScattering:
    """Solve the graph scattering problem at one lambda for all incident
    waves from one factorization: solve_batch on a batch of one."""
    return solve_batch(g, [req], allow_flagged=allow_flagged)[0]


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
