"""Cross-section spectra: closed forms, Bessel oracle, mode counts."""

from __future__ import annotations

import math

import pytest
from scipy.special import jn_zeros

from fiberwave import cross_section
from fiberwave.cross_section import (
    MAX_MODES,
    Disk,
    Interval,
    Rectangle,
    ThresholdTable,
    lambda0,
    thresholds,
    thresholds_below,
)
from fiberwave.errors import NoInfiniteChannels, ThresholdCollision, TooManyModes
from fiberwave.graph_model import Channel, MetricGraph, Vertex, Dirichlet

from conftest import dirichlet_lead, load_perfbench


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


def test_propagating_count():
    w = Interval(math.pi)
    assert len(thresholds_below(w, 3.0)) == 1
    assert len(thresholds_below(w, 5.0)) == 2
    assert len(thresholds_below(w, 0.5)) == 0


def test_propagating_count_jumps_by_multiplicity():
    sq = Rectangle(1.0, 1.0)
    lam_deg = 5 * math.pi**2  # double eigenvalue
    assert len(thresholds_below(sq, lam_deg + 0.1)) - len(thresholds_below(sq, lam_deg - 0.1)) == 2
    # monotone on a sample grid
    w = Interval(math.pi)
    counts = [len(thresholds_below(w, lam)) for lam in (0.5, 2.0, 5.0, 10.0, 17.0)]
    assert counts == sorted(counts)


def test_threshold_collision():
    with pytest.raises(ThresholdCollision):
        len(thresholds_below(Interval(math.pi), 4.0))
    with pytest.raises(ThresholdCollision):
        len(thresholds_below(Interval(math.pi), 4.0 + 1e-12))


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


def test_table_enumerates_only_past_its_level(monkeypatch):
    levels = []
    enumerate_thresholds = cross_section.enumerate_thresholds

    def recording(shape, level):
        levels.append(level)
        return enumerate_thresholds(shape, level)

    monkeypatch.setattr(cross_section, "enumerate_thresholds", recording)

    def top(lam):  # the top of lam's exclusion window
        return lam + cross_section.THRESHOLD_RTOL * lam

    table = ThresholdTable(Interval(math.pi))
    assert table.below(10.0) == [1.0, 4.0, 9.0]  # sized from the first lambda
    assert table.below(2.0) == [1.0]
    assert table.first(3) == [1.0, 4.0, 9.0]
    assert levels == [top(10.0)]
    assert table.below(20.0) == [1.0, 4.0, 9.0, 16.0]
    assert levels == [top(10.0), top(20.0)]
    assert table.first(5) == [1.0, 4.0, 9.0, 16.0, 25.0]  # doubles past its level
    assert levels[2:] == [2.0 * top(20.0)]


@pytest.mark.parametrize("shape", [Interval(math.pi), Rectangle(1.0, 1.0), Disk(1.0)])
def test_mode_count_is_bounded(shape):
    with pytest.raises(TooManyModes, match="MAX_MODES"):
        thresholds_below(shape, 1e30)
    with pytest.raises(TooManyModes):
        thresholds(shape, MAX_MODES + 1)
    # the bound itself is allowed: on the interval the n-th threshold is n^2
    assert len(thresholds_below(Interval(math.pi), MAX_MODES**2 + 0.5)) == MAX_MODES
    with pytest.raises(TooManyModes):
        thresholds_below(Interval(math.pi), (MAX_MODES + 1) ** 2 + 0.5)


@pytest.mark.parametrize(
    "shape, spec",
    [
        (Interval(math.pi), {"shape": "interval", "dims": [math.pi]}),
        (Rectangle(1.0, 1.0), {"shape": "rectangle", "dims": [1.0, 1.0]}),
        (Disk(1.0), {"shape": "disk", "dims": [1.0]}),
    ],
    ids=["interval", "rectangle", "disk"],
)
def test_first_serves_every_count_up_to_the_bound(shape, spec):
    """Every count up to MAX_MODES gets the lowest thresholds of the
    benchmark's independent enumeration, unless its last threshold is also
    the (MAX_MODES + 1)-th, which no table of at most MAX_MODES can hold:
    only count 256 on the unit square, where a degenerate pair straddles
    the bound."""
    gen = load_perfbench("gen")
    cap = 16.0
    while len(spectrum := gen.shape_thresholds(spec, cap)) <= MAX_MODES:
        cap *= 2.0
    refused = []
    for n in range(1, MAX_MODES + 1):
        if spectrum[n - 1] == spectrum[MAX_MODES]:
            refused.append(n)
            with pytest.raises(TooManyModes):
                thresholds(shape, n)
        else:
            assert thresholds(shape, n) == spectrum[:n], n
    assert refused == ([MAX_MODES] if isinstance(shape, Rectangle) else [])


def test_disk_refusal_computes_each_order_once(monkeypatch):
    """Refusing the unit disk at lambda = 1e30 walks order 0 to index 257;
    the zeros come in arrays of doubling size, not one array per index."""
    asked = []

    def counting_jn_zeros(m, k):
        asked.append(k)
        return jn_zeros(m, k)

    monkeypatch.setattr(cross_section, "jn_zeros", counting_jn_zeros)
    cross_section._bessel_zeros.cache_clear()
    with pytest.raises(TooManyModes):
        thresholds_below(Disk(1.0), 1e30)
    assert sum(asked) <= 4 * (MAX_MODES + 1)


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


def test_mode_table_thresholds_ascending():
    for shape in (Interval(2.0), Rectangle(1.0, 2.0), Disk(1.5)):
        t = thresholds(shape, 10)
        assert all(a <= b for a, b in zip(t, t[1:]))
        assert all(v > 0 for v in t)


@pytest.mark.parametrize(
    "helper, key", [(cross_section._bessel_zeros, lambda i: (i, 1))], ids=["bessel_zero"]
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


def test_disk_enumeration_does_not_depend_on_radius(monkeypatch):
    # Bessel zeros do not depend on the radius, so 2,000 distinct disks
    # cost the zeros of a handful of (order, index) pairs
    calls = []

    def counting_jn_zeros(m, k):
        calls.append((m, k))
        return jn_zeros(m, k)

    monkeypatch.setattr(cross_section, "jn_zeros", counting_jn_zeros)
    cross_section._bessel_zeros.cache_clear()
    for i in range(2000):
        thresholds_below(Disk(0.95 + 1e-4 * i), 20.0)
    assert len(calls) <= 10


@pytest.mark.parametrize(
    "shape",
    [Interval(math.inf), Rectangle(1.0, -1.0), Disk(math.nan)],
    ids=["interval_inf", "rectangle_negative", "disk_nan"],
)
def test_bad_dimensions_raise_at_every_entry_point(shape):
    for call in (
        lambda: thresholds(shape, 3),
        lambda: thresholds_below(shape, 2.0),
        lambda: len(thresholds_below(shape, 2.0)),
    ):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            call()
