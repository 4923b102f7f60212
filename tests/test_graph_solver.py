"""Graph scattering solves against hand-derived and transfer-matrix oracles."""

from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from typing import Optional

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from fiberwave.cross_section import Disk, Interval, Rectangle
from fiberwave.errors import (
    DimensionMismatch,
    GraphInvalid,
    NearSingular,
    SingularAtThreshold,
    UnresolvableJunction,
)
from fiberwave.graph_model import (
    Channel,
    Dirichlet,
    MatrixJunction,
    MetricGraph,
    OracleJunction,
    TabulatedJunction,
    Vertex,
)
from fiberwave.graph_solver import (
    EdgeWaveField,
    _estimate_rcond,
    _log_abs_det,
    _oracle_matrix,
    SolveRequest,
    assemble_system,
    boundary_value_matrices,
    energy_report,
    gc_residual,
    propagation_phase,
    resolve_vertex,
    solve_batch,
    solve_scattering,
    wave_fields,
)
from fiberwave.helmholtz_oracle import duct_geometry, junction_matrix

from conftest import (
    W_PI,
    admissible_junction,
    dirichlet_edge_graph,
    dirichlet_lead,
    fabry_perot_line,
    lattice_network,
    loop_network,
    mirror_line,
    mirror_line_reflection,
    mp_phase_factor,
    load_perfbench,
    random_network,
    symmetric_unitary,
    transparent_pair,
)


# ---------------------------------------------------------------------------
# resolve_vertex


def test_resolve_dirichlet_vertex():
    g = dirichlet_lead()
    res = resolve_vertex(g, g.vertices[0], 2.0)
    assert res.entries == ((1, "start", 0),)
    assert np.array_equal(res.t_matrix, -np.eye(1))
    assert res.d_diag[0] == 1.0


def test_resolve_transparent_single_mode():
    g = transparent_pair()
    res = resolve_vertex(g, g.vertices[0], 2.0)
    assert np.array_equal(res.t_matrix, np.array([[0, 1], [1, 0]], dtype=complex))


def test_resolve_transparent_two_modes():
    g = transparent_pair()
    res = resolve_vertex(g, g.vertices[0], 5.0)
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.array_equal(res.t_matrix, expected)
    assert res.entries == ((1, "start", 0), (1, "start", 1), (2, "start", 0), (2, "start", 1))


def test_resolve_matrix_wrong_lambda():
    g = MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None),),
        vertices=(Vertex(1, ((1, "start"),), MatrixJunction(3.0, ((-1 + 0j,),))),),
    )
    with pytest.raises(UnresolvableJunction):
        resolve_vertex(g, g.vertices[0], 2.0)


def test_resolve_matrix_wrong_dimension():
    g = MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None),),
        vertices=(Vertex(1, ((1, "start"),), MatrixJunction(5.0, ((-1 + 0j,),))),),
    )
    with pytest.raises(DimensionMismatch):
        resolve_vertex(g, g.vertices[0], 5.0)  # two modes propagate, matrix is 1x1


def test_matrix_junction_keeps_a_read_only_copy():
    arr = np.array([[-1 + 0j]])
    j = MatrixJunction(2.0, arr)
    g = MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None),),
        vertices=(Vertex(1, ((1, "start"),), j),),
    )
    assert solve_scattering(g, SolveRequest(2.0, 0.1)).t[0, 0] == -1
    assert arr.flags.writeable and not j.matrix.flags.writeable
    arr[0, 0] = 5.0
    assert j.matrix[0, 0] == -1


def test_tabulated_interpolates_linearly_in_z():
    # entries equal to z = sqrt(lam - 1): linear in z, not in lam
    lam0 = 1.0
    zs = (0.2, 0.4)
    g = MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None),),
        vertices=(Vertex(1, ((1, "start"),), TabulatedJunction([lam0 + z * z for z in zs], [[[z]] for z in zs])),),
    )
    lam_mid = lam0 + 0.3**2
    res = resolve_vertex(g, g.vertices[0], lam_mid)
    assert abs(res.t_matrix[0, 0] - 0.3) < 1e-14
    with pytest.raises(UnresolvableJunction):
        resolve_vertex(g, g.vertices[0], lam0 + 0.6**2)


def test_tabulated_z_chart_floor_is_lowest_threshold_of_the_ends():
    # the wide channel opens at 1, the narrow one at 2.25: below 2.25 the
    # vertex is 1 x 1 and the chart is z = sqrt(lam - 1)
    zs = (0.2, 0.4)
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi / 1.5), 1, None),
            Channel(2, math.inf, W_PI, 1, None),
        ),
        vertices=(
            Vertex(1, ((1, "start"), (2, "start")), TabulatedJunction([1.0 + z * z for z in zs], [[[z]] for z in zs])),
        ),
    )
    res = resolve_vertex(g, g.vertices[0], 1.0 + 0.3**2)
    assert res.entries == ((2, "start", 0),)
    assert abs(res.t_matrix[0, 0] - 0.3) < 1e-14


def test_oracle_junction_cache_is_bounded():
    geom = duct_geometry(math.pi, 2 * math.pi, math.pi / 8)
    g = MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None), Channel(2, math.inf, W_PI, 1, None)),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), OracleJunction(geom)),),
    )
    v = g.vertices[0]
    assert _oracle_matrix.cache_info().maxsize == 128
    lams = [float(x) for x in np.linspace(1.2, 2.5, 136)]
    for lam in lams:
        resolve_vertex(g, v, lam)
    info = _oracle_matrix.cache_info()
    assert info.currsize == 128
    # the first lambda was evicted: resolving it again is a miss that must
    # reproduce the junction matrix
    t = resolve_vertex(g, v, lams[0]).t_matrix
    assert _oracle_matrix.cache_info().misses == info.misses + 1
    assert _oracle_matrix.cache_info().currsize == 128
    assert np.array_equal(t, junction_matrix(geom, lams[0]).matrix)


# ---------------------------------------------------------------------------
# assembly and solve


def test_dirichlet_reflection_exact():
    ns = solve_scattering(dirichlet_lead(), SolveRequest(2.0, 0.1))
    assert ns.t.shape == (1, 1)
    assert ns.t[0, 0] == -1.0  # forced by value trace = 0 at the vertex
    assert ns.certified


def test_assemble_counts_and_shape():
    system = assemble_system(mirror_line(1.0), SolveRequest(2.0, 0.1))
    assert system.matrix.shape == (3, 3)
    assert system.rhs.shape == (3, 1)
    assert len(system.plan.unknowns) == 3


def test_assembly_reuses_plan_only_while_mode_counts_hold():
    # width pi: one mode at lambda = 2, a second one opens at 4
    g = fabry_perot_line(1.0)
    for lam in (2.0, 5.0, 2.0):
        got = assemble_system(g, SolveRequest(lam, 0.1))
        want = assemble_system(fabry_perot_line(1.0), SolveRequest(lam, 0.1))
        assert got.plan.unknowns == want.plan.unknowns
        assert np.array_equal(got.matrix.toarray(), want.matrix.toarray())
        assert np.array_equal(got.rhs, want.rhs)


def test_assembly_builds_sparsity_pattern_once_per_plan():
    g = fabry_perot_line(1.0)
    a = assemble_system(g, SolveRequest(2.0, 0.1))
    b = assemble_system(g, SolveRequest(3.0, 0.1))
    assert a.plan is b.plan
    for m in (a.matrix, b.matrix):
        assert m.format == "csc"
        assert np.shares_memory(m.indptr, a.plan.indptr)
        assert np.shares_memory(m.indices, a.plan.indices)
    assert not np.shares_memory(a.matrix.data, b.matrix.data)
    assert not np.array_equal(a.matrix.data, b.matrix.data)


@pytest.mark.parametrize("build", [loop_network, lattice_network], ids=["loop", "lattice-4x4"])
def test_sparse_solve_matches_dense_solve(build):
    # the loop network sums two values into one matrix slot
    g = build(np.random.default_rng(7))
    req = SolveRequest(5.0, 0.1)
    system = assemble_system(g, req)
    want = np.linalg.solve(system.matrix.toarray(), system.rhs)[system.plan.ordering_alpha]
    ns = solve_scattering(g, req)
    assert ns.t.shape == want.shape
    assert np.max(np.abs(ns.t - want)) <= 1e-13


def test_transparent_full_transmission():
    system = assemble_system(transparent_pair(), SolveRequest(2.0, 0.1))
    assert system.matrix.shape == (2, 2)
    ns = solve_scattering(transparent_pair(), SolveRequest(2.0, 0.1))
    assert np.allclose(ns.t, [[0, 1], [1, 0]], atol=1e-14)
    f = wave_fields(ns)[0]
    assert abs(f.alpha[1][0]) < 1e-14 and abs(f.alpha[2][0] - 1) < 1e-14


def test_solve_with_rectangle_and_disk_channels():
    """Channels living in higher dimension (rectangle/disk sections) run
    through the same machinery."""
    from fiberwave.cross_section import Disk, Rectangle, thresholds

    sq = Rectangle(1.0, 1.0)
    lam = 25.0  # one propagating mode: 2 pi^2 < 25 < 5 pi^2
    ns = solve_scattering(transparent_pair(sq), SolveRequest(lam, 0.1))
    assert np.allclose(ns.t, [[0, 1], [1, 0]], atol=1e-12)

    disk = Disk(1.0)
    lam = 10.0  # above the first disk threshold 5.7832, below the next
    g = MetricGraph(
        channels=(Channel(1, math.inf, disk, 1, None),),
        vertices=(Vertex(1, ((1, "start"),), Dirichlet()),),
    )
    ns = solve_scattering(g, SolveRequest(lam, 0.1))
    assert ns.t.shape == (1, 1) and abs(ns.t[0, 0] + 1) < 1e-14
    assert abs(ns.d_diag[0] - math.sqrt(lam - thresholds(disk, 1)[0])) < 1e-14


def test_mirror_line_reflection_against_oracle():
    eps, length = 0.1, 1.0
    ns = solve_scattering(mirror_line(length), SolveRequest(2.0, eps))
    expected = mirror_line_reflection(1.0, [length], eps)  # -e^{2ikl/eps}
    assert abs(ns.t[0, 0] - expected) < 1e-12
    assert abs(ns.t[0, 0] - (-cmath.exp(20j))) < 1e-12


def test_fabry_perot_transmission():
    eps, length = 0.1, 1.0
    ns = solve_scattering(fabry_perot_line(length), SolveRequest(2.0, eps))
    t21 = ns.t[1, 0]
    assert abs(abs(t21) - 1.0) < 1e-12
    assert abs(t21 - mp_phase_factor(1.0, length, eps)) < 1e-12


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-6])
def test_phase_accuracy_small_eps(eps):
    """Fabry-Perot phase arg(t) = k l / eps mod 2pi to 1e-8 down to 1e-6."""
    ns = solve_scattering(fabry_perot_line(1.0), SolveRequest(2.0, eps))
    expected = mp_phase_factor(1.0, 1.0, eps)
    assert abs(cmath.phase(ns.t[1, 0] / expected)) < 1e-8


def test_propagation_phase_matches_mpmath():
    for k, length, eps in ((1.0, 1.0, 1e-3), (math.sqrt(3.0), 1.7, 1e-5), (2.5, 0.3, 1e-6)):
        got = propagation_phase(k, length, eps)
        want = mp_phase_factor(k, length, eps)
        assert abs(got - want) < 1e-10


def test_solve_raises_on_invalid_graph():
    g = MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None),),
        vertices=(),
    )
    with pytest.raises(GraphInvalid):
        solve_scattering(g, SolveRequest(2.0, 0.1))


def _lead_and_edge(shape) -> MetricGraph:
    return MetricGraph(
        channels=(Channel(1, math.inf, shape, 1, None), Channel(2, 1.0, shape, 1, 2)),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), Dirichlet()), Vertex(2, ((2, "end"),), Dirichlet())),
    )


# the square of side 2 has the double threshold 5 pi^2 / 4 below 40
@pytest.mark.parametrize("shape", [Interval(math.pi), Rectangle(2.0, 2.0), Disk(1.5)])
def test_grown_threshold_table_resolves_like_a_fresh_one(shape):
    g = _lead_and_edge(shape)
    counts = []
    for lam in (2.0, 40.0, 5.0):
        got = resolve_vertex(g, g.vertices[0], lam)
        fresh = _lead_and_edge(shape)
        want = resolve_vertex(fresh, fresh.vertices[0], lam)
        assert got.entries == want.entries
        assert got.d_diag.tobytes() == want.d_diag.tobytes()
        assert got.t_matrix.tobytes() == want.t_matrix.tobytes()
        counts.append(got.dim // 2)
    assert g.threshold_tables[1].level > 40.0
    assert counts[1] > max(counts[0], counts[2])


def test_collision_past_the_tables_level_raises():
    g = mirror_line(1.0)
    resolve_vertex(g, g.vertices[0], 2.0)
    assert g.threshold_tables[1].level < 36.0
    with pytest.raises(SingularAtThreshold):
        resolve_vertex(g, g.vertices[0], 36.0)


def test_solve_raises_near_threshold():
    with pytest.raises(SingularAtThreshold):
        assemble_system(mirror_line(1.0), SolveRequest(4.0, 0.1))


def test_near_singular_raise_and_flag():
    g = dirichlet_edge_graph(1.0)
    eps = 0.1
    lam_star = 1.0 + (math.pi * eps) ** 2  # embedded eigenvalue of the edge
    with pytest.raises(NearSingular):
        solve_scattering(g, SolveRequest(lam_star, eps))
    ns = solve_scattering(g, SolveRequest(lam_star, eps), allow_flagged=True)
    assert not ns.certified
    assert ns.rcond < 1e-10


# ---------------------------------------------------------------------------
# coupling-condition residual


def test_gc_residual_of_solved_field_small():
    g = mirror_line(1.0)
    req = SolveRequest(2.0, 0.1)
    ns = solve_scattering(g, req)
    for v in g.vertices:
        res = resolve_vertex(g, v, req.lam)
        assert gc_residual(wave_fields(ns)[0], res, g, req.eps) <= 1e-10


def test_gc_residual_detects_perturbation():
    g = mirror_line(1.0)
    req = SolveRequest(2.0, 0.1)
    ns = solve_scattering(g, req)
    f = wave_fields(ns)[0]
    f.alpha[2] = f.alpha[2] + 1e-3
    worst = max(
        gc_residual(f, resolve_vertex(g, v, req.lam), g, req.eps) for v in g.vertices
    )
    assert worst > 10 * 1e-10


def test_gc_residual_zero_field():
    g = dirichlet_lead()
    f = EdgeWaveField(
        lam=2.0, eps=0.1, incident=(1, 0), alpha={1: np.zeros(1, complex)}, beta={1: np.zeros(1, complex)}
    )
    res = resolve_vertex(g, g.vertices[0], 2.0)
    assert gc_residual(f, res, g, 0.1) == 0.0


# ---------------------------------------------------------------------------
# energy report


def test_energy_balance_dirichlet():
    ns = solve_scattering(dirichlet_lead(), SolveRequest(2.0, 0.1))
    er = energy_report(ns)
    assert er.max_balance <= 1e-14
    assert er.max_cross == 0.0


def test_energy_balance_lossy_junction():
    g = MetricGraph(
        channels=(Channel(1, math.inf, W_PI, 1, None),),
        vertices=(Vertex(1, ((1, "start"),), MatrixJunction(2.0, ((-0.5 + 0j,),))),),
    )
    ns = solve_scattering(g, SolveRequest(2.0, 0.1))
    er = energy_report(ns)
    assert abs(er.balance[0] - (-0.75)) < 1e-14  # |−0.5|^2 − 1 times k = 1


# ---------------------------------------------------------------------------
# structural properties


def test_unitarity_symmetry_random_networks():
    rng = np.random.default_rng(42)
    lam, eps = 5.0, 0.1
    graphs = [random_network(rng, lam) for _ in range(10)]
    # a loop channel puts two rows of its vertex on one column of the
    # system; it must solve certified
    loop = loop_network(np.random.default_rng(6), lam)
    for g in graphs + [loop]:
        ns = solve_scattering(g, SolveRequest(lam, eps), allow_flagged=g is not loop)
        if ns.ordering.M == 0 or not ns.certified:
            continue
        a = ns.weighted()
        m = ns.ordering.M
        assert np.linalg.norm(a.conj().T @ a - np.eye(m)) <= 1e-10
        assert np.linalg.norm(a - a.T) <= 1e-10
        er = energy_report(ns)
        assert er.max_balance <= 1e-10
        assert er.max_cross <= 1e-10
        for f in wave_fields(ns):
            for v in g.vertices:
                assert gc_residual(f, resolve_vertex(g, v, lam), g, eps) <= 1e-10


def test_spider_consistency_random():
    """Single-vertex solves satisfy S(0) = I + T and S'(0) = (i/eps) D (T - I)."""
    rng = np.random.default_rng(3)
    lam, eps = 5.0, 0.1
    widths = (math.pi, math.pi / 2, 0.75 * math.pi)
    for _ in range(5):
        n_ch = int(rng.integers(2, 5))
        channels = tuple(
            Channel(i + 1, math.inf, Interval(widths[rng.integers(0, 3)]), 1, None)
            for i in range(n_ch)
        )
        ends = tuple((c.id, "start") for c in channels)
        import fiberwave.cross_section as cs

        ks = []
        for c in channels:
            cnt = len(cs.thresholds_below(c.cross_section, lam))
            ks.extend(math.sqrt(lam - t) for t in cs.thresholds(c.cross_section, cnt))
        t_v = admissible_junction(np.array(ks), rng)
        g = MetricGraph(
            channels=channels,
            vertices=(Vertex(1, ends, MatrixJunction(lam, t_v)),),
        )
        ns = solve_scattering(g, SolveRequest(lam, eps))
        res = resolve_vertex(g, g.vertices[0], lam)
        s0, s1 = boundary_value_matrices(wave_fields(ns), res, g)
        eye = np.eye(res.dim)
        assert np.max(np.abs(s0 - (eye + res.t_matrix))) <= 1e-10
        want = (1j / eps) * res.d_diag[:, None] * (res.t_matrix - eye)
        assert np.max(np.abs(s1 - want)) <= 1e-10


def test_symmetric_unitary_helper():
    rng = np.random.default_rng(11)
    for dim in (1, 3, 6):
        a = symmetric_unitary(dim, rng)
        assert np.linalg.norm(a @ a.conj().T - np.eye(dim)) < 1e-13
        assert np.linalg.norm(a - a.T) < 1e-13
        d = rng.uniform(0.5, 3.0, dim)
        t = admissible_junction(d, rng)
        s = np.sqrt(d)
        aa = (s[:, None] * t) / s[None, :]
        assert np.linalg.norm(aa @ aa.conj().T - np.eye(dim)) < 1e-13
        assert np.linalg.norm(aa - aa.T) < 1e-13


def test_permutation_equivariance():
    """Relabeling channels permutes scattering rows/columns exactly."""
    rng = np.random.default_rng(5)
    lam, eps = 5.0, 0.1
    g = random_network(rng, lam)
    ns = solve_scattering(g, SolveRequest(lam, eps), allow_flagged=True)
    # relabel channel ids through an order-reversing map
    ids = sorted(c.id for c in g.channels)
    relabel = {old: new for old, new in zip(ids, reversed(ids))}
    channels = tuple(
        Channel(relabel[c.id], c.length, c.cross_section, c.start, c.end) for c in g.channels
    )
    vertices = tuple(
        Vertex(v.id, tuple((relabel[cid], which) for cid, which in v.ends), v.junction)
        for v in g.vertices
    )
    g2 = MetricGraph(channels=channels, vertices=vertices)
    ns2 = solve_scattering(g2, SolveRequest(lam, eps), allow_flagged=True)
    perm = [ns2.ordering.index(relabel[cid], n) for cid, n in ns.ordering.entries]
    assert np.array_equal(ns2.t[np.ix_(perm, perm)], ns.t)


def test_eps_scaling_invariance():
    """(eps, lengths) -> (c eps, c lengths) leaves the matrix unchanged."""
    g = mirror_line(1.0)
    ns = solve_scattering(g, SolveRequest(2.0, 0.1))
    c = 3.7
    g2 = MetricGraph(
        channels=tuple(
            Channel(ch.id, ch.length * c if not ch.is_infinite else math.inf, ch.cross_section, ch.start, ch.end)
            for ch in g.channels
        ),
        vertices=g.vertices,
    )
    ns2 = solve_scattering(g2, SolveRequest(2.0, 0.1 * c))
    assert np.max(np.abs(ns.t - ns2.t)) <= 1e-10


def test_wave_fields_follow_mode_ordering():
    g = transparent_pair()
    ns = solve_scattering(g, SolveRequest(2.0, 0.1))
    fields = wave_fields(ns)
    assert len(fields) == ns.ordering.M
    for c, field in enumerate(fields):
        assert field.incident == ns.ordering.entries[c]
        for r, (cid, n) in enumerate(ns.ordering.entries):
            assert field.alpha[cid][n] == ns.t[r, c]
            assert field.beta[cid][n] == (r == c)
    assert ns.t.shape == (2, 2)  # matrix always full


def test_estimate_rcond_exactly_singular_is_zero(monkeypatch):
    # SuperLU raises on an exactly singular matrix: the solve reports it as
    # rcond 0, and the dip refinement as no factor, whose log|det A| is -inf
    import fiberwave.graph_solver as gs
    import fiberwave.spectrum_tools as st

    g, req = transparent_pair(), SolveRequest(2.0, 0.1)
    singular = dataclasses.replace(
        assemble_system(g, req), matrix=sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))
    )
    monkeypatch.setattr(gs, "assemble_system", lambda g, req: singular)
    monkeypatch.setattr(st, "assemble_system", lambda g, req: singular)
    assert st._factor(g, req.lam, req.eps) is None
    assert _log_abs_det(None) == -math.inf
    ns = solve_scattering(g, req, allow_flagged=True)
    assert ns.rcond == 0.0
    assert not ns.certified
    assert not np.any(np.isfinite(ns.amplitudes))


def _complex_gaussian(n: int, seed: Optional[int] = None) -> np.ndarray:
    rng = np.random.default_rng(n if seed is None else seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@pytest.mark.parametrize(
    "a, recorded",
    [
        pytest.param(_complex_gaussian(20), 0.00914541191408832, id="20"),
        pytest.param(_complex_gaussian(100), 0.0024834319546634476, id="100"),
        pytest.param(np.random.default_rng(5).normal(size=(30, 30)), 0.00593450224166048, id="real30"),
        # block diagonal: the first block again, 4 times it (every iterate
        # scales exactly, so the same estimate) and another draw, recorded
        # from the single-matrix estimate
        pytest.param(
            [_complex_gaussian(20), 4.0 * _complex_gaussian(20), _complex_gaussian(20, seed=21)],
            [0.00914541191408832, 0.00914541191408832, 0.044979117946532476],
            id="three-blocks-of-20",
        ),
    ],
)
def test_estimate_rcond_is_two_norm_reciprocal_condition(a, recorded):
    # RCOND_TOL bounds sigma_min / sigma_max; pin the estimate to it, and to
    # the values recorded from the dense-LU implementation of the same
    # iteration.  The factor is built as the solver builds it, complex CSC
    # through splu (a real factor rejects the complex iterate).  A list is
    # the blocks of a block-diagonal matrix, each estimated on its own and
    # equal to its estimate as a single matrix.  Any warning fails.
    blocks = a if isinstance(a, list) else [a]
    singles = [sp.csc_matrix(b.astype(complex)) for b in blocks]
    m = sp.block_diag(singles, format="csc")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _estimate_rcond(m, splu(m), len(blocks))
        alone = [_estimate_rcond(b, splu(b))[0] for b in singles]
    assert est.shape == (len(blocks),)
    for e, b, rec, single in zip(est, blocks, np.atleast_1d(recorded), alone):
        exact = 1.0 / np.linalg.cond(b, 2)
        assert abs(e - exact) <= 0.05 * exact
        assert abs(e - rec) <= 1e-12 * rec
        assert abs(e - single) <= 1e-12 * single


# ---------------------------------------------------------------------------
# batches


def seed7_sweep_batch() -> tuple[MetricGraph, list[SolveRequest]]:
    """The first network of the benchmark's sweep stream for seed 7, as
    perfbench/run.build_spec draws it, and 15 requests spread over its
    window."""
    from fiberwave.cli import graph_from_json

    gen = load_perfbench("gen")
    rng = np.random.default_rng([7, 0])
    modes = int(rng.permutation((2, 3, 3))[0])
    graph, lo, hi, _eigs = gen.sweep_network(rng, modes, 0.1, 60, 2)
    return graph_from_json(graph), [SolveRequest(float(lam), 0.1) for lam in np.linspace(lo, hi, 60)[::4]]


def assert_same_solve(got, want):
    assert got.lam == want.lam and got.certified == want.certified
    assert np.max(np.abs(got.t - want.t)) <= 1e-13 * np.max(np.abs(want.t))
    assert abs(got.rcond - want.rcond) <= 1e-13 * want.rcond
    assert abs(got.log_abs_det - want.log_abs_det) <= 1e-12


def test_batch_equals_single_solves():
    g, reqs = seed7_sweep_batch()
    batch = solve_batch(g, reqs, allow_flagged=True)
    assert len(batch) == len(reqs) == 15
    for got, req in zip(batch, reqs):
        assert_same_solve(got, solve_scattering(g, req, allow_flagged=True))


def _patch_block(monkeypatch, lam_bad: float, a_scale: float, rhs_scale: float) -> list[int]:
    """Make assemble_system hand out the block of `lam_bad`, in any batch,
    with its matrix and right-hand side scaled; returns the batch size of
    every solve_batch call from then on."""
    import fiberwave.graph_solver as gs

    assemble, solve = gs.assemble_system, gs.solve_batch
    sizes: list[int] = []

    def spoiled(g, reqs):
        system = assemble(g, reqs)
        a, rhs, n = system.matrix.copy(), system.rhs.copy(), len(system.plan.unknowns)
        for i, req in enumerate(reqs):
            if req.lam == lam_bad:
                a.data[a.indptr[i * n] : a.indptr[(i + 1) * n]] *= a_scale
                rhs[i * n : (i + 1) * n] *= rhs_scale
        return dataclasses.replace(system, matrix=a, rhs=rhs)

    def counting(g, reqs, **kw):
        sizes.append(len(reqs))
        return solve(g, reqs, **kw)

    monkeypatch.setattr(gs, "assemble_system", spoiled)
    monkeypatch.setattr(gs, "solve_batch", counting)
    return sizes


def test_batch_non_finite_block_is_nan_and_others_unchanged(monkeypatch):
    # pivots near 1e-200 against a right-hand side near 1e200 overflow the
    # block's solve to infinity
    g, reqs = seed7_sweep_batch()
    want = [solve_scattering(g, req, allow_flagged=True) for req in reqs]
    sizes = _patch_block(monkeypatch, reqs[6].lam, 1e-200, 1e200)
    batch = solve_batch(g, reqs, allow_flagged=True)
    assert sizes == []  # no retry: the factorization went through
    for i, (got, single) in enumerate(zip(batch, want)):
        if i == 6:
            assert np.all(np.isnan(got.amplitudes)) and got.rcond == 0.0 and not got.certified
        else:
            assert_same_solve(got, single)


def test_batch_exactly_singular_block_retries_one_lambda_at_a_time(monkeypatch):
    # a zero column makes SuperLU refuse the whole matrix; each lambda is
    # then solved alone, and only its own block comes out singular
    g, reqs = seed7_sweep_batch()
    want = [solve_scattering(g, req, allow_flagged=True) for req in reqs]
    sizes = _patch_block(monkeypatch, reqs[6].lam, 0.0, 1.0)
    batch = solve_batch(g, reqs, allow_flagged=True)
    assert sizes == [1] * len(reqs)
    for i, (got, single) in enumerate(zip(batch, want)):
        if i == 6:
            assert np.all(np.isnan(got.amplitudes)) and got.rcond == 0.0
            assert got.log_abs_det == -math.inf and not got.certified
        else:
            assert_same_solve(got, single)
