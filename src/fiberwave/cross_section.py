"""Dirichlet spectra of channel cross-sections.

Every channel of the network carries a transverse shape; the Dirichlet
eigenvalues of that shape are the propagation thresholds: the n-th mode
travels along the channel iff the spectral parameter exceeds the n-th
eigenvalue.  Three analytic shapes are supported (interval, rectangle,
disk) so every threshold is exactly checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from scipy.special import jn_zeros

from .errors import NoInfiniteChannels, ThresholdCollision

#: Relative half-width of the exclusion window around each threshold.
THRESHOLD_RTOL = 1e-9


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
    if isinstance(shape, Interval):
        return (shape.width,)
    if isinstance(shape, Rectangle):
        return (shape.side_a, shape.side_b)
    if isinstance(shape, Disk):
        return (shape.radius,)
    raise TypeError(f"not a cross-section shape: {shape!r}")


def _checked_dims(shape: CrossSectionShape) -> tuple[float, ...]:
    dims = shape_dims(shape)
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


def _modes(shape: CrossSectionShape, level: float) -> list[float]:
    """Every eigenvalue <= level, ascending, with multiplicity."""
    _checked_dims(shape)
    modes = []
    if isinstance(shape, Interval):
        n = 1
        while (lam := (n * math.pi / shape.width) ** 2) <= level:
            modes.append(lam)
            n += 1
    elif isinstance(shape, Rectangle):
        a, b = shape.side_a, shape.side_b
        p = 1
        while math.pi**2 * (p**2 / a**2 + 1 / b**2) <= level:
            q = 1
            while (lam := math.pi**2 * (p**2 / a**2 + q**2 / b**2)) <= level:
                modes.append(lam)
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
                modes += [lam] * (1 if m == 0 else 2)
                k += 1
            m += 1
    modes.sort()
    return modes


def thresholds(shape: CrossSectionShape, count: int) -> list[float]:
    """First `count` Dirichlet eigenvalues of the shape, ascending, with
    multiplicity.

    Interval and rectangle values are closed forms; disk values come from
    Bessel zeros (scipy's Newton-refined zeros, well below 1e-12 relative
    error).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    # raise the level until enough eigenvalues lie below it
    level = (math.pi / min(_checked_dims(shape))) ** 2
    while len(ths := _modes(shape, level)) < count:
        level *= 2
    return ths[:count]


def threshold_window(lam: float) -> float:
    """Half-width of the exclusion window around thresholds at level lam."""
    return THRESHOLD_RTOL * max(1.0, abs(lam))


def thresholds_below(shape: CrossSectionShape, lam: float) -> list[float]:
    """Thresholds strictly below lam, ascending, with multiplicity: the
    propagating modes at lam.

    Raises ThresholdCollision if lam is within the exclusion window of a
    threshold of this shape, ValueError if lam is not finite.  Every
    propagating-mode count and wavenumber is derived from this one
    enumeration.
    """
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    tol = threshold_window(lam)
    ths = _modes(shape, lam + tol)
    for t in ths:
        if abs(lam - t) < tol:
            raise ThresholdCollision(
                f"lambda={lam!r} collides with threshold {t!r} of {shape!r}"
            )
    return [t for t in ths if t < lam]


def propagating_count(shape: CrossSectionShape, lam: float) -> int:
    """Number of thresholds strictly below lam (propagating modes).

    Zero when lam sits below the first threshold.
    """
    return len(thresholds_below(shape, lam))


def lambda0(graph) -> float:
    """Bottom of the absolutely continuous spectrum: the smallest first
    threshold over the infinite channels of the graph."""
    infinite = [c for c in graph.channels if c.end is None]
    if not infinite:
        raise NoInfiniteChannels("graph has no infinite channel")
    return min(thresholds(c.cross_section, 1)[0] for c in infinite)
