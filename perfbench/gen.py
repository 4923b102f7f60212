"""Seeded input generators for the fiberwave benchmark.

Every generator is a pure function of a numpy Generator: the same seed
writes byte-identical graph files.  The generators never import fiberwave,
so the program's process-global caches (the oracle junction cache, the
cross-section lru caches) stay cold until the measured requests run.
Thresholds are computed here from the closed forms (interval, rectangle)
and scipy's Bessel zeros (disk), independently of the program.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import jn_zeros

# ---------------------------------------------------------------------------
# cross-section spectra (independent of fiberwave.cross_section)


def shape_thresholds(shape: dict, cap: float) -> list[float]:
    """Dirichlet eigenvalues of a cross-section below `cap`, ascending, with
    multiplicity."""
    kind, dims = shape["shape"], shape["dims"]
    out: list[float] = []
    if kind == "interval":
        n = 1
        while (n * math.pi / dims[0]) ** 2 < cap:
            out.append((n * math.pi / dims[0]) ** 2)
            n += 1
    elif kind == "rectangle":
        a, b = dims
        p = 1
        while (math.pi * p / a) ** 2 < cap:
            q = 1
            while True:
                lam = math.pi**2 * (p**2 / a**2 + q**2 / b**2)
                if lam >= cap:
                    break
                out.append(lam)
                q += 1
            p += 1
    elif kind == "disk":
        r = dims[0]
        m = 0
        while (jn_zeros(m, 1)[0] / r) ** 2 < cap:
            k = 1
            while True:
                z = jn_zeros(m, k)[-1]
                if (z / r) ** 2 >= cap:
                    break
                out.extend([(z / r) ** 2] * (1 if m == 0 else 2))
                k += 1
            m += 1
    else:
        raise ValueError(kind)
    return sorted(out)


def symmetric_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """U U^T with U Haar-distributed: symmetric and unitary."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q @ q.T


SWEEP_SPAN = 0.1


def _cplx(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_json(path: str, payload: dict) -> str:
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


def _interval(w: float) -> dict:
    return {"shape": "interval", "dims": [w]}


def _chan(cid, length, shape, start, end) -> dict:
    return {"id": cid, "length": length, "cross_section": shape, "start": start, "end": end}


# ---------------------------------------------------------------------------
# sweep: mid-size tabulated / transparent / Dirichlet networks


def sweep_network(rng: np.random.Generator, modes: int, eps: float, steps: int, n_eig: int):
    """Ring of tabulated vertices with leads, Dirichlet-terminated stubs and
    Dirichlet-capped edges, plus a lambda window with `modes` propagating
    modes per channel that holds exactly `n_eig` embedded eigenvalues.

    Every channel has the same interval width, so each tabulated matrix is a
    direct sum over mode index of a random symmetric unitary acting on the
    vertex's ends.  The wavenumber diagonal is constant on each block, so
    the matrix is exactly admissible at every lambda and is tabulated as a
    constant over the window.  Each capped edge (two Dirichlet vertices,
    the last one split by a transparent vertex) decouples from the network
    and owns the embedded eigenvalues lambda_n + (pi p eps / length)^2; its
    length is solved for so that exactly one of them falls in the window.
    The coupled channels are short, so the conditioning curve has few dips
    besides the embedded eigenvalues and the refinement work per request is
    nearly fixed.

    Returns (graph json, lo, hi, embedded eigenvalues in [lo, hi]).
    """
    width = math.pi * float(rng.uniform(0.97, 1.03))
    s = width / math.pi
    ths = [((n + 1) / s) ** 2 for n in range(modes + 1)]
    span = SWEEP_SPAN
    step = span / (steps - 1)
    # At least one unit above the threshold: the longitudinal wavenumbers
    # stay >= 1, so the coupled channels' phases turn slowly over the window.
    lo = float(rng.uniform(ths[modes - 1] + 1.0, ths[modes] - 0.3 - span))
    hi = lo + span

    def in_window(length: float) -> list[float]:
        return [
            ths[n] + (math.pi * p * eps / length) ** 2
            for n in range(modes)
            for p in range(1, 400)
            if lo <= ths[n] + (math.pi * p * eps / length) ** 2 <= hi
        ]

    # One eigenvalue per capped edge, at least two grid steps inside the
    # window and three from any other, so the grid resolves each as its own
    # dip (closer pairs are below the grid's resolution).
    capped: list[float] = []
    eig: list[float] = []
    for _ in range(10_000):
        if len(capped) == n_eig:
            break
        e = float(rng.uniform(lo + 2.5 * step, hi - 2.5 * step))
        n = int(rng.integers(0, modes))
        # Capped lengths near 3: the eigenvalue's conditioning dip is steep
        # enough to show at the grid nodes next to it.
        p = max(1, round(3.0 * math.sqrt(e - ths[n]) / (math.pi * eps)))
        length = math.pi * p * eps / math.sqrt(e - ths[n])
        got = in_window(length)
        if len(got) == 1 and all(abs(got[0] - x) >= 3 * step for x in eig):
            capped.append(length)
            eig.append(got[0])
    if len(capped) < n_eig:
        raise RuntimeError(f"could not place {n_eig} resolvable eigenvalues in [{lo}, {hi}]")
    eig.sort()

    channels: list[dict] = []
    vertices: list[dict] = []
    shape = _interval(width)
    ends: dict[int, list] = {}
    kinds: dict[int, str] = {}

    def vertex(kind: str) -> int:
        vid = len(ends) + 1
        ends[vid] = []
        kinds[vid] = kind
        return vid

    def edge(a: int, b: int | None, length) -> None:
        cid = len(channels) + 1
        channels.append(_chan(cid, length, shape, a, b))
        ends[a].append([cid, "start"])
        if b is not None:
            ends[b].append([cid, "end"])

    n_ring = 6
    ring = [vertex("tabulated") for _ in range(n_ring)]
    for i, a in enumerate(ring):
        b = ring[(i + 1) % n_ring]
        if i % 2 == 0:  # split by a pass-through vertex
            x = vertex("transparent")
            edge(a, x, float(rng.uniform(0.01, 0.02)))
            edge(x, b, float(rng.uniform(0.01, 0.02)))
        else:
            edge(a, b, float(rng.uniform(0.02, 0.04)))
        # A lead on every ring vertex lets every ring mode leak out, which
        # keeps the coupled network well conditioned (no trapped ring modes).
        edge(a, None, "inf")
    for k, length in enumerate(capped):
        a = ring[(2 * k + 1) % n_ring]
        d = vertex("dirichlet")
        edge(a, d, float(rng.uniform(0.01, 0.03)))  # stub, coupled at a
        c = vertex("dirichlet")
        if k == len(capped) - 1:
            x = vertex("transparent")
            frac = float(rng.uniform(0.3, 0.7))
            edge(d, x, frac * length)
            edge(x, c, (1.0 - frac) * length)
        else:
            edge(d, c, length)

    for v in sorted(ends):
        kind = kinds[v]
        if kind == "tabulated":
            deg = len(ends[v])
            t = np.zeros((deg * modes, deg * modes), dtype=complex)
            for n in range(modes):
                idx = [i * modes + n for i in range(deg)]
                t[np.ix_(idx, idx)] = symmetric_unitary(deg, rng)
            mat = _cplx(t)
            junction = {
                "kind": "tabulated",
                "table": [{"lambda": lo - 0.05, "matrix": mat}, {"lambda": hi + 0.05, "matrix": mat}],
            }
        else:
            junction = {"kind": kind}
        vertices.append({"id": v, "ends": ends[v], "junction": junction})
    return {"channels": channels, "vertices": vertices}, lo, hi, eig


# ---------------------------------------------------------------------------
# lattice: large networks with random admissible matrix junctions


def _lattice_shape(kind: str, s: float) -> dict:
    if kind == "interval":
        return {"shape": "interval", "dims": [math.pi * s]}
    if kind == "rectangle":
        return {"shape": "rectangle", "dims": [0.6 * math.pi * s, 0.8 * math.pi * s]}
    return {"shape": "disk", "dims": [s]}


# Propagating modes near lambda = 20 for scale factors in [0.95, 1.05]; the
# nearest threshold stays at least 0.5 away, so the counts never change.
LATTICE_MODES = {"interval": 4, "rectangle": 5, "disk": 3}


def lattice_network(rng: np.random.Generator, side: int):
    """side x side grid of matrix junctions joined by finite channels, with a
    lead on every vertex of the left and right columns.  Channel shapes are
    an equal mix of interval, rectangle and disk cross-sections whose
    dimensions vary per channel; every junction is a random matrix T with
    D^{1/2} T D^{-1/2} symmetric unitary at the request's lambda.

    Returns (graph json, lambda, number of lead modes M, unknowns).
    """
    lam = float(rng.uniform(19.8, 20.2))
    vid = {(r, c): r * side + c + 1 for r in range(side) for c in range(side)}
    links = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                links.append((vid[(r, c)], vid[(r, c + 1)]))
            if r + 1 < side:
                links.append((vid[(r, c)], vid[(r + 1, c)]))
    leads = [vid[(r, 0)] for r in range(side)] + [vid[(r, side - 1)] for r in range(side)]
    n_chan = len(links) + len(leads)
    kinds = (["interval", "rectangle", "disk"] * (n_chan // 3 + 1))[:n_chan]
    rng.shuffle(kinds)
    channels = []
    ends: dict[int, list] = {v: [] for v in vid.values()}
    ks: dict[int, np.ndarray] = {}
    unknowns = 0
    m_leads = 0
    for i, kind in enumerate(kinds):
        cid = i + 1
        shape = _lattice_shape(kind, float(rng.uniform(0.95, 1.05)))
        ths = shape_thresholds(shape, lam + 0.5)
        if len([t for t in ths if t < lam]) != LATTICE_MODES[kind] or any(abs(t - lam) < 0.5 for t in ths):
            raise AssertionError(f"lattice mode count drifted for {shape}")
        ks[cid] = np.sqrt(lam - np.asarray(ths))
        p = len(ths)
        if i < len(links):
            a, b = links[i]
            channels.append(_chan(cid, float(rng.uniform(0.8, 1.2)), shape, a, b))
            ends[a].append([cid, "start"])
            ends[b].append([cid, "end"])
            unknowns += 2 * p
        else:
            a = leads[i - len(links)]
            channels.append(_chan(cid, "inf", shape, a, None))
            ends[a].append([cid, "start"])
            unknowns += p
            m_leads += p
    vertices = []
    for v in sorted(ends):
        d = np.concatenate([ks[cid] for cid, _ in ends[v]])
        a = symmetric_unitary(len(d), rng)
        sq = np.sqrt(d)
        t = (a / sq[:, None]) * sq[None, :]
        vertices.append({"id": v, "ends": ends[v], "junction": {"kind": "matrix", "lambda": lam, "matrix": _cplx(t)}})
    return {"channels": channels, "vertices": vertices}, lam, m_leads, unknowns


# ---------------------------------------------------------------------------
# validate: oracle-junction networks (two-cross, elbow pair, duct)

W = math.pi
LINK = math.pi / 2  # finite channel length; LINK / eps stays a multiple of h


def _stub(rect, direction) -> dict:
    return {"rect": list(rect), "direction": direction}


def _cross(h: float) -> dict:
    w, a = W, 2 * W
    return {
        "cores": [[0.0, 0.0, w, w]],
        "stubs": [
            _stub((-a, 0.0, 0.0, w), "-x"),
            _stub((w, 0.0, w + a, w), "+x"),
            _stub((0.0, -a, w, 0.0), "-y"),
            _stub((0.0, w, w, w + a), "+y"),
        ],
        "h": h,
    }


def oracle_network(kind: str, h: float) -> dict:
    """Graph JSON of one oracle-junction network, laid out like the
    convergence studies: the finite link has length pi/2 and width pi."""
    shape = _interval(W)
    oracle = lambda geom: {"kind": "from_oracle", "geometry": geom}  # noqa: E731
    if kind == "two_cross":
        channels = [_chan(c, "inf", shape, 1 if c <= 3 else 2, None) for c in range(1, 7)]
        channels.append(_chan(7, LINK, shape, 1, 2))
        vertices = [
            {"id": 1, "ends": [[1, "start"], [7, "start"], [2, "start"], [3, "start"]], "junction": oracle(_cross(h))},
            {"id": 2, "ends": [[7, "end"], [4, "start"], [5, "start"], [6, "start"]], "junction": oracle(_cross(h))},
        ]
        return {"channels": channels, "vertices": vertices}
    if kind == "elbow_pair":
        up = {
            "cores": [[0.0, 0.0, W, W]],
            "stubs": [_stub((-2 * W, 0.0, 0.0, W), "-x"), _stub((0.0, W, W, 3 * W), "+y")],
            "h": h,
        }
        down = {
            "cores": [[0.0, 0.0, W, W]],
            "stubs": [_stub((0.0, -2 * W, W, 0.0), "-y"), _stub((W, 0.0, 3 * W, W), "+x")],
            "h": h,
        }
        geoms = (up, down)
    elif kind == "duct":
        duct = {
            "cores": [],
            "stubs": [_stub((-2 * W, 0.0, 0.0, W), "-x"), _stub((0.0, 0.0, 2 * W, W), "+x")],
            "h": h,
        }
        geoms = (duct, duct)
    else:
        raise ValueError(kind)
    channels = [_chan(1, "inf", shape, 1, None), _chan(2, LINK, shape, 1, 2), _chan(3, "inf", shape, 2, None)]
    vertices = [
        {"id": 1, "ends": [[1, "start"], [2, "start"]], "junction": oracle(geoms[0])},
        {"id": 2, "ends": [[2, "end"], [3, "start"]], "junction": oracle(geoms[1])},
    ]
    return {"channels": channels, "vertices": vertices}
