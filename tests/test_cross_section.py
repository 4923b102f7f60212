"""Cross-section spectra: closed forms, Bessel oracle, orthonormality."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fiberwave import cross_section
from fiberwave.cross_section import (
    Disk,
    Interval,
    Rectangle,
    eigenfunction,
    lambda0,
    mode_table,
    propagating_count,
    thresholds,
    thresholds_below,
)
from fiberwave.errors import NoInfiniteChannels, OutOfDomain, ThresholdCollision
from fiberwave.graph_model import Channel, MetricGraph, Vertex, Dirichlet

from conftest import dirichlet_lead


# Independent oracle for the first zero of J0: power series + bisection.
def _j0_series(x: float) -> float:
    s, term = 1.0, 1.0
    for m in range(1, 40):
        term *= -(x * x / 4.0) / (m * m)
        s += term
    return s


def _j0_first_zero() -> float:
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _j0_series(lo) * _j0_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


J0_ZERO = _j0_first_zero()  # 2.404825557695773
DISK_LAMBDA0 = J0_ZERO**2  # 5.783185962946785


def test_interval_thresholds_closed_form():
    assert thresholds(Interval(math.pi), 3) == [1.0, 4.0, 9.0]
    w = 0.7
    got = thresholds(Interval(w), 5)
    for n, lam in enumerate(got):
        assert lam == ((n + 1) * math.pi / w) ** 2


def test_rectangle_thresholds():
    got = thresholds(Rectangle(1.0, 1.0), 1)
    assert math.isclose(got[0], 2 * math.pi**2, rel_tol=1e-15)
    # degenerate pair lambda_{1,2} = lambda_{2,1} kept with multiplicity
    got = thresholds(Rectangle(1.0, 1.0), 4)
    assert math.isclose(got[1], got[2], rel_tol=1e-15)
    assert math.isclose(got[1], 5 * math.pi**2, rel_tol=1e-15)


def test_disk_threshold_matches_bessel_oracle():
    got = thresholds(Disk(1.0), 1)[0]
    assert abs(got - DISK_LAMBDA0) <= 1e-12 * DISK_LAMBDA0
    # J0(sqrt(lambda0)) = 0 within 1e-10
    assert abs(_j0_series(math.sqrt(got))) <= 1e-10


def test_eigenfunction_values():
    w = math.pi
    assert math.isclose(eigenfunction(Interval(w), 0, w / 2), math.sqrt(2 / math.pi), rel_tol=1e-15)
    assert eigenfunction(Interval(w), 0, 0.0) == 0.0
    assert math.isclose(eigenfunction(Rectangle(1, 1), 0, (0.5, 0.5)), 2.0, rel_tol=1e-15)


def test_eigenfunction_out_of_domain():
    with pytest.raises(OutOfDomain):
        eigenfunction(Interval(math.pi), 0, -0.1)
    with pytest.raises(OutOfDomain):
        eigenfunction(Disk(1.0), 0, (1.2, 0.0))


def test_propagating_count():
    w = Interval(math.pi)
    assert propagating_count(w, 3.0) == 1
    assert propagating_count(w, 5.0) == 2
    assert propagating_count(w, 0.5) == 0


def test_propagating_count_jumps_by_multiplicity():
    sq = Rectangle(1.0, 1.0)
    lam_deg = 5 * math.pi**2  # double eigenvalue
    assert propagating_count(sq, lam_deg + 0.1) - propagating_count(sq, lam_deg - 0.1) == 2
    # monotone on a sample grid
    w = Interval(math.pi)
    counts = [propagating_count(w, lam) for lam in (0.5, 2.0, 5.0, 10.0, 17.0)]
    assert counts == sorted(counts)


def test_threshold_collision():
    with pytest.raises(ThresholdCollision):
        propagating_count(Interval(math.pi), 4.0)
    with pytest.raises(ThresholdCollision):
        propagating_count(Interval(math.pi), 4.0 + 1e-12)


@pytest.mark.parametrize("shape", [Interval(math.pi), Rectangle(1.0, 1.0), Disk(1.0)])
def test_thresholds_below_is_filtered_spectrum(shape):
    spectrum = thresholds(shape, 64)
    distinct = sorted(set(spectrum))[:10]
    # below the bottom, between each pair of consecutive distinct
    # thresholds (the square's 5 pi^2 is double), and past the tenth
    lams = [0.5 * distinct[0]]
    lams += [0.5 * (a + b) for a, b in zip(distinct, distinct[1:])]
    lams.append(distinct[-1] * 1.01)
    for lam in lams:
        assert thresholds_below(shape, lam) == [t for t in spectrum if t < lam]
    assert len(thresholds_below(shape, lams[-1])) >= 10


@pytest.mark.parametrize("shape", [Interval(math.pi), Rectangle(1.0, 1.0), Disk(1.0)])
def test_thresholds_below_raises_inside_window(shape):
    for t in sorted(set(thresholds(shape, 16)))[:4]:
        for lam in (t, t * (1 + 1e-10), t * (1 - 1e-10)):
            with pytest.raises(ThresholdCollision):
                thresholds_below(shape, lam)


def test_lambda0():
    g = MetricGraph(
        channels=(
            Channel(1, math.inf, Interval(math.pi), 1, None),
            Channel(2, math.inf, Interval(math.pi / 2), 1, None),
        ),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), Dirichlet()),),
    )
    assert lambda0(g) == 1.0
    g1 = MetricGraph(
        channels=(Channel(1, math.inf, Interval(1.0), 1, None),),
        vertices=(Vertex(1, ((1, "start"),), Dirichlet()),),
    )
    assert math.isclose(lambda0(g1), math.pi**2, rel_tol=1e-15)
    g2 = MetricGraph(
        channels=(
            Channel(1, math.inf, Disk(1.0), 1, None),
            Channel(2, math.inf, Interval(math.pi), 1, None),
        ),
        vertices=(Vertex(1, ((1, "start"), (2, "start")), Dirichlet()),),
    )
    assert lambda0(g2) == 1.0  # min(5.7832, 1)


def test_lambda0_requires_infinite_channel():
    g = MetricGraph(
        channels=(Channel(1, 1.0, Interval(math.pi), 1, 1),),
        vertices=(Vertex(1, ((1, "start"), (1, "end")), Dirichlet()),),
    )
    with pytest.raises(NoInfiniteChannels):
        lambda0(g)
    assert lambda0(dirichlet_lead()) == 1.0


def _gauss_legendre(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _composite_gl(points_per_panel: int, panels: int, a: float, b: float):
    xs, ws = [], []
    edges = np.linspace(a, b, panels + 1)
    x0, w0 = np.polynomial.legendre.leggauss(points_per_panel)
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (hi - lo) * x0 + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * w0)
    return np.concatenate(xs), np.concatenate(ws)


@pytest.mark.parametrize("shape", [Interval(math.pi), Rectangle(1.0, 1.5), Disk(1.0)])
def test_gram_matrix_orthonormal(shape):
    """Gram matrix of the first 8 eigenfunctions under ~1e4-point quadrature
    deviates from identity by <= 1e-8 in max norm."""
    table = mode_table(shape, 8)
    if isinstance(shape, Interval):
        xs, ws = _composite_gl(100, 100, 0.0, shape.width)  # 1e4 nodes
        vals = np.array([[table.eigenfunction(n, x) for x in xs] for n in range(8)])
        gram = (vals * ws) @ vals.T
    elif isinstance(shape, Rectangle):
        xs, wx = _gauss_legendre(100, 0.0, shape.side_a)
        ys, wy = _gauss_legendre(100, 0.0, shape.side_b)
        vals = np.array(
            [[[table.eigenfunction(n, (x, y)) for y in ys] for x in xs] for n in range(8)]
        )
        gram = np.einsum("nxy,mxy,x,y->nm", vals, vals, wx, wy)
    else:
        rs, wr = _gauss_legendre(100, 0.0, shape.radius)
        ts = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
        wt = 2 * math.pi / len(ts)
        vals = np.array(
            [
                [[table.eigenfunction(n, (r * math.cos(t), r * math.sin(t))) for t in ts] for r in rs]
                for n in range(8)
            ]
        )
        gram = np.einsum("nrt,mrt,r->nm", vals, vals, wr * rs) * wt
    assert np.max(np.abs(gram - np.eye(8))) <= 1e-8


def test_mode_table_thresholds_ascending():
    for shape in (Interval(2.0), Rectangle(1.0, 2.0), Disk(1.5)):
        t = mode_table(shape, 10).thresholds
        assert all(a <= b for a, b in zip(t, t[1:]))
        assert all(v > 0 for v in t)


@pytest.mark.parametrize(
    "helper, key",
    [
        (cross_section._interval_modes, lambda i: (1.0 + 1e-3 * i, 3)),
        (cross_section._rectangle_modes, lambda i: (1.0 + 1e-3 * i, 2.0, 3)),
        (cross_section._bessel_zero, lambda i: (i, 1)),
        (cross_section._disk_modes, lambda i: (1.0 + 1e-3 * i, 3)),
    ],
    ids=["interval", "rectangle", "bessel_zero", "disk"],
)
def test_spectrum_caches_are_bounded(helper, key):
    bound = cross_section.SPECTRUM_CACHE_SIZE
    assert helper.cache_info().maxsize == bound
    helper.cache_clear()
    first = helper(*key(0))
    for i in range(1, bound + 1):
        helper(*key(i))
    info = helper.cache_info()
    assert info.currsize == bound
    # the first key was evicted: asking again is a miss that recomputes it
    assert helper(*key(0)) == first
    assert helper.cache_info().misses == info.misses + 1
    assert helper.cache_info().currsize == bound
