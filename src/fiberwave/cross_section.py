"""Dirichlet spectra of channel cross-sections.

Every channel of the network carries a transverse shape; the Dirichlet
eigenvalues of that shape are the propagation thresholds: the n-th mode
travels along the channel iff the spectral parameter exceeds the n-th
eigenvalue.  Three analytic shapes are supported (interval, rectangle,
disk) so every threshold is exactly checkable.  They are data of the shape,
not of a lambda: a ThresholdTable enumerates them once up to a level and
answers each lambda by bisection, with one exclusion window; a graph holds
one table per distinct shape for as long as it lives.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import astuple, dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, Union

from scipy.special import jn_zeros

from .errors import IntervalContainsThreshold, NoInfiniteChannels, ThresholdCollision, TooManyModes

#: Relative half-width of the exclusion window around each threshold.
THRESHOLD_RTOL = 1e-9

#: Most thresholds one enumeration lists: far above the benchmark networks'
#: 5 modes per channel, and two such channels at a vertex make a 512 x 512
#: junction matrix.  So lambda = 1e30 (1e15 modes on a width-pi channel)
#: raises TooManyModes at once, or within a second on a disk.
MAX_MODES = 256


@dataclass(frozen=True)
class Interval:
    """1-D cross-section (0, width); channels with it live in the plane."""

    width: float


@dataclass(frozen=True)
class Rectangle:
    """Rectangular cross-section (0, side_a) x (0, side_b)."""

    side_a: float
    side_b: float


@dataclass(frozen=True)
class Disk:
    """Disk of given radius centered at the origin."""

    radius: float


CrossSectionShape = Union[Interval, Rectangle, Disk]


def shape_dims(shape: CrossSectionShape) -> tuple[float, ...]:
    """The shape's dimensions: ValueError unless each is positive and
    finite, TypeError for anything but a cross-section shape."""
    if not isinstance(shape, (Interval, Rectangle, Disk)):
        raise TypeError(f"not a cross-section shape: {shape!r}")
    dims = astuple(shape)  # a shape's fields are its dimensions
    if not all(math.isfinite(d) and d > 0 for d in dims):
        raise ValueError(f"cross-section dimensions must be positive: {shape!r}")
    return dims


#: Entries kept by the Bessel-zero cache.  Its keys are (order, index)
#: pairs, which do not depend on the radius, so one request touches a few
#: dozen of them however many distinct disks its channels carry, and a
#: long-lived process keeps a fixed amount of memory.
SPECTRUM_CACHE_SIZE = 1024


@lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _bessel_zero(m: int, k: int) -> float:
    return float(jn_zeros(m, k)[-1])


def _window(lam: float) -> float:
    """Half-width of the exclusion window around thresholds at level lam;
    a matrix junction's lambda must match within it too."""
    return THRESHOLD_RTOL * max(1.0, abs(lam))


def _eigenvalues(shape: CrossSectionShape, level: float) -> Iterator[float]:
    """Every eigenvalue <= level, with multiplicity, unsorted."""
    if isinstance(shape, Interval):
        n = 1
        while (lam := (n * math.pi / shape.width) ** 2) <= level:
            yield lam
            n += 1
    elif isinstance(shape, Rectangle):
        a, b = shape.side_a, shape.side_b
        p = 1
        while math.pi**2 * (p**2 / a**2 + 1 / b**2) <= level:
            q = 1
            while (lam := math.pi**2 * (p**2 / a**2 + q**2 / b**2)) <= level:
                yield lam
                q += 1
            p += 1
    else:
        # order m contributes zeros j_{m,k}, twice for m >= 1 (cos/sin
        # variants); j_{m,1} is increasing in m, so the first order whose
        # first zero passes the level ends the enumeration
        m = 0
        while (_bessel_zero(m, 1) / shape.radius) ** 2 <= level:
            k = 1
            while (lam := (_bessel_zero(m, k) / shape.radius) ** 2) <= level:
                yield lam
                if m:
                    yield lam
                k += 1
            m += 1


def enumerate_thresholds(shape: CrossSectionShape, level: float) -> list[float]:
    """Every threshold <= level, ascending, with multiplicity: the one
    enumeration behind every lookup.  Disk values come from scipy's
    Newton-refined Bessel zeros (well below 1e-12 relative error).  Raises
    TooManyModes past MAX_MODES thresholds."""
    shape_dims(shape)
    out = sorted(islice(_eigenvalues(shape, level), MAX_MODES + 1))
    if len(out) > MAX_MODES:
        raise TooManyModes(f"{shape!r} has more than MAX_MODES = {MAX_MODES} thresholds up to {level!r}")
    return out


class ThresholdTable:
    """The thresholds of one shape, ascending, with multiplicity, enumerated
    up to `level`: sized by the first lookup, grown only past its level."""

    def __init__(self, shape: CrossSectionShape):
        self.shape, self.level, self.values = shape, -math.inf, []

    def _grow(self, level: float) -> None:  # the only place a level rises
        self.level, self.values = level, enumerate_thresholds(self.shape, level)

    def below(self, lam: float) -> list[float]:
        """Thresholds strictly below lam: the propagating modes there.
        Raises ThresholdCollision within a threshold's exclusion window,
        ValueError if lam is not finite."""
        if not math.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam!r}")
        tol = _window(lam)
        if self.level < lam + tol:
            self._grow(lam + tol)
        i = bisect_left(self.values, lam)
        for t in self.values[max(i - 1, 0) : i + 1]:  # the nearest on each side
            if abs(lam - t) < tol:
                raise ThresholdCollision(f"lambda={lam!r} collides with threshold {t!r} of {self.shape!r}")
        return self.values[:i]

    def span(self, lo: float, hi: float) -> list[float]:
        """Thresholds below lo, which must be those below hi >= lo: the one
        check that no threshold lies on or between two lambdas.  Raises
        ThresholdCollision at an end, IntervalContainsThreshold between
        them; the lookup at hi sizes the table for both."""
        at_hi = self.below(hi)
        ths = at_hi if hi == lo else self.below(lo)
        if len(ths) != len(at_hi):
            t = at_hi[len(ths)]
            raise IntervalContainsThreshold(f"threshold {t!r} of {self.shape!r} lies inside [{lo!r}, {hi!r}]")
        return ths

    def first(self, count: int) -> list[float]:
        """The `count` lowest thresholds: the level doubles from
        (pi / smallest dimension)^2 until the table holds them.  A doubled
        level can pass MAX_MODES first, so a 2-D shape may refuse a count
        above about half of MAX_MODES (145 on the unit disk)."""
        level = (math.pi / min(shape_dims(self.shape))) ** 2
        while len(self.values) < count:
            level = max(level, 2.0 * self.level)
            self._grow(level)
        return self.values[:count]


def thresholds(shape: CrossSectionShape, count: int) -> list[float]:
    """First `count` thresholds of the shape, ascending, with multiplicity."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return ThresholdTable(shape).first(count)


def thresholds_below(shape: CrossSectionShape, lam: float) -> list[float]:
    """Thresholds strictly below lam, ascending, with multiplicity, from a
    table of its own; every propagating-mode count and wavenumber is derived
    from this one enumeration."""
    return ThresholdTable(shape).below(lam)


def lambda0(graph) -> float:
    """Bottom of the absolutely continuous spectrum: the smallest first
    threshold over the infinite channels, read off the graph's tables."""
    if not graph.infinite_channel_ids:
        raise NoInfiniteChannels("graph has no infinite channel")
    return min(graph.threshold_tables[cid].first(1)[0] for cid in graph.infinite_channel_ids)
