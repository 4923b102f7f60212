"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from fiberwave.cross_section import Interval
from fiberwave.graph_model import (
    Channel,
    Dirichlet,
    MatrixJunction,
    MetricGraph,
    OracleJunction,
    Transparent,
    Vertex,
)
from fiberwave.helmholtz_oracle import cross_geometry

W_PI = Interval(math.pi)


# ---------------------------------------------------------------------------
# random admissible junction matrices


def symmetric_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric unitary matrix (U U^T with U Haar-distributed)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q @ q.T


def admissible_junction(d_diag: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random junction matrix T with D^{1/2} T D^{-1/2} symmetric unitary."""
    a = symmetric_unitary(len(d_diag), rng)
    s = np.sqrt(np.asarray(d_diag, dtype=float))
    return (a / s[:, None]) * s[None, :]


# ---------------------------------------------------------------------------
# graph builders


def dirichlet_lead() -> MetricGraph:
    """One infinite channel terminated by a total-reflection vertex."""
    return MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None),),
        vertices=(Vertex(1, ((1, "start"),), Dirichlet()),),
    )


def transparent_pair(shape=W_PI) -> MetricGraph:
    return MetricGraph(
        channels=(Channel(1, math.inf, shape, 1, None), Channel(2, math.inf, shape, 1, None)),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), Transparent()),),
    )


def mirror_line(length: float = 1.0) -> MetricGraph:
    """Infinite lead - transparent - finite edge - total reflection."""
    return MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None), Channel(2, length, W_PI, 1, 2)),
        vertices=(
            Vertex(1, ((1, "start"), (2, "start")), Transparent()),
            Vertex(2, ((2, "end"),), Dirichlet()),
        ),
    )


def dirichlet_edge_graph(length: float = 1.0) -> MetricGraph:
    """Infinite lead and a finite edge, both terminated by total-reflection
    junctions; the finite edge decouples and owns embedded eigenvalues at
    lambda_0 + (pi p eps / length)^2."""
    return MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None), Channel(2, length, W_PI, 1, 2)),
        vertices=(
            Vertex(1, ((1, "start"), (2, "start")), Dirichlet()),
            Vertex(2, ((2, "end"),), Dirichlet()),
        ),
    )


def fabry_perot_line(length: float = 1.0) -> MetricGraph:
    return MetricGraph(
        channels=(
            Channel(1, math.inf, W_PI, 1, None),
            Channel(2, length, W_PI, 1, 2),
            Channel(3, math.inf, W_PI, 2, None),
        ),
        vertices=(
            Vertex(1, ((1, "start"), (2, "start")), Transparent()),
            Vertex(2, ((2, "end"), (3, "start")), Transparent()),
        ),
    )


def loop_network(rng: np.random.Generator, lam: float = 5.0) -> MetricGraph:
    """One lead and a loop edge (length 0.7) on a single vertex, all of
    width pi, with a random admissible junction matrix valid at lam."""
    channels = (Channel(1, math.inf, W_PI, 1, None), Channel(2, 0.7, W_PI, 1, 1))
    ends = ((1, "start"), (2, "start"), (2, "end"))
    t = admissible_junction(_vertex_k(channels, ends, lam), rng)
    return MetricGraph(
        channels=channels,
        vertices=(Vertex(1, ends, MatrixJunction(lam, t)),),
    )


def two_cross_network(length: float, h: float) -> MetricGraph:
    """Two oracle cross junctions of width pi joined by one finite channel
    of the given length, with three leads on each (channels 1-3 and 4-6)."""
    w = math.pi
    geom = cross_geometry(w, 2 * w, h)
    shape = Interval(w)
    return MetricGraph(
        channels=(
            Channel(1, math.inf, shape, 1, None),
            Channel(2, math.inf, shape, 1, None),
            Channel(3, math.inf, shape, 1, None),
            Channel(4, math.inf, shape, 2, None),
            Channel(5, math.inf, shape, 2, None),
            Channel(6, math.inf, shape, 2, None),
            Channel(7, length, shape, 1, 2),
        ),
        vertices=(
            Vertex(1, ((1, "start"), (7, "start"), (2, "start"), (3, "start")), OracleJunction(geom)),
            Vertex(2, ((7, "end"), (4, "start"), (5, "start"), (6, "start")), OracleJunction(geom)),
        ),
    )


# ---------------------------------------------------------------------------
# randomized admissible networks

_WIDTHS = (math.pi, math.pi / 2, 0.75 * math.pi)


def _vertex_k(g_channels, ends, lam):
    import fiberwave.cross_section as cs

    ks = []
    for cid, _ in ends:
        chan = next(c for c in g_channels if c.id == cid)
        cnt = cs.propagating_count(chan.cross_section, lam)
        ths = cs.thresholds(chan.cross_section, cnt) if cnt else []
        ks.extend(math.sqrt(lam - t) for t in ths)
    return np.asarray(ks)


def random_network(rng: np.random.Generator, lam: float = 5.0) -> MetricGraph:
    """Connected random graph, <= 6 vertices and <= 10 edges, with random
    junction matrices T satisfying D^{1/2} T D^{-1/2} symmetric unitary."""
    nv = int(rng.integers(1, 7))
    channels: list[Channel] = []
    ends_of: dict[int, list[tuple[int, str]]] = {v: [] for v in range(1, nv + 1)}
    cid = 0

    def add_finite(a: int, b: int):
        nonlocal cid
        cid += 1
        length = float(rng.uniform(0.4, 1.6))
        shape = Interval(_WIDTHS[rng.integers(0, len(_WIDTHS))])
        channels.append(Channel(cid, length, shape, a, b))
        ends_of[a].append((cid, "start"))
        ends_of[b].append((cid, "end"))

    def add_infinite(v: int):
        nonlocal cid
        cid += 1
        shape = Interval(_WIDTHS[rng.integers(0, len(_WIDTHS))])
        channels.append(Channel(cid, math.inf, shape, v, None))
        ends_of[v].append((cid, "start"))

    for v in range(2, nv + 1):
        add_finite(int(rng.integers(1, v)), v)
    n_inf = int(rng.integers(1, 4))
    for _ in range(n_inf):
        add_infinite(int(rng.integers(1, nv + 1)))
    budget = 10 - len(channels)
    for _ in range(int(rng.integers(0, max(budget, 0) + 1))):
        a, b = int(rng.integers(1, nv + 1)), int(rng.integers(1, nv + 1))
        if a != b:
            add_finite(a, b)

    vertices = []
    for v in range(1, nv + 1):
        ends = tuple(ends_of[v])
        d = _vertex_k(channels, ends, lam)
        t = admissible_junction(d, rng) if len(d) else np.zeros((0, 0))
        vertices.append(Vertex(v, ends, MatrixJunction(lam, t)))
    return MetricGraph(channels=tuple(channels), vertices=tuple(vertices))


def lattice_network(rng: np.random.Generator, side: int = 4, lam: float = 5.0) -> MetricGraph:
    """side x side grid of random admissible matrix junctions joined by
    finite channels of random width and length, with a lead on every vertex
    of the left and right columns."""
    vid = {(r, c): r * side + c + 1 for r in range(side) for c in range(side)}
    links = [(vid[r, c], vid[r, c + 1]) for r in range(side) for c in range(side - 1)]
    links += [(vid[r, c], vid[r + 1, c]) for r in range(side - 1) for c in range(side)]
    leads = [vid[r, 0] for r in range(side)] + [vid[r, side - 1] for r in range(side)]
    channels: list[Channel] = []
    ends_of: dict[int, list[tuple[int, str]]] = {v: [] for v in vid.values()}
    for cid, (a, b) in enumerate(links + [(v, None) for v in leads], start=1):
        shape = Interval(_WIDTHS[rng.integers(0, len(_WIDTHS))])
        length = math.inf if b is None else float(rng.uniform(0.8, 1.2))
        channels.append(Channel(cid, length, shape, a, b))
        ends_of[a].append((cid, "start"))
        if b is not None:
            ends_of[b].append((cid, "end"))
    vertices = []
    for v, ends in ends_of.items():
        t = admissible_junction(_vertex_k(channels, ends, lam), rng)
        vertices.append(Vertex(v, tuple(ends), MatrixJunction(lam, t)))
    return MetricGraph(channels=tuple(channels), vertices=tuple(vertices))


# ---------------------------------------------------------------------------
# high-precision 1-D oracles (transfer-matrix style, mpmath)


def mp_phase_factor(k: float, total_length: float, eps: float) -> complex:
    """exp(i k L / eps) at 50 digits, argument reduced mod 2 pi."""
    with mp.workdps(50):
        phi = mp.fmod(mp.mpf(k) * mp.mpf(total_length) / mp.mpf(eps), 2 * mp.pi)
        return complex(mp.cos(phi), mp.sin(phi))


def mirror_line_reflection(k: float, lengths, eps: float) -> complex:
    """Reflection of a lead feeding pass-through segments ended by a hard
    mirror: propagate the mirror condition (A, B) = (1, -1) backward across
    every segment and read A, B at the lead."""
    with mp.workdps(50):
        a, b = mp.mpc(1), mp.mpc(-1)
        for length in lengths:
            phi = mp.fmod(mp.mpf(k) * mp.mpf(length) / mp.mpf(eps), 2 * mp.pi)
            e_plus = mp.cos(phi) + 1j * mp.sin(phi)
            a, b = a / e_plus, b * e_plus
        return complex(b / a)


@pytest.fixture(scope="session")
def solved_random_ensemble():
    """100 random admissible networks with their solves (shared by the
    unitarity and energy acceptance criteria) plus the build time."""
    import time

    from fiberwave.graph_solver import SolveRequest, solve_scattering

    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    out = []
    lam, eps = 5.0, 0.1
    while len(out) < 100:
        g = random_network(rng, lam)
        ns = solve_scattering(g, SolveRequest(lam, eps), allow_flagged=True)
        if ns.ordering.M == 0:
            continue
        out.append((g, ns))
    return out, time.monotonic() - t0
